"""
Stage 2: federated averaging over per-relation graph networks
=============================================================

Each party trains the shared model on its own (fused) graph; a server
averages the weights, weighted by training-set size.  No features, no
edges, and no labels ever move — only model weights do.

This demo trains the same federation twice, once on the raw relation
graphs and once on the fused ones, and prints the test AUC trajectory.
"""

import tempfile
from pathlib import Path

from twosfgl.config import ExperimentConfig
from twosfgl.data import (balance_sample, load_dataset, stratified_split,
                          zscore_features)
from twosfgl.fedavg import FederationConfig, make_client, train_federation
from twosfgl.fusion import FusionConfig, virtual_fusion_round
from twosfgl.metrics import window_average
from twosfgl.seeding import derive_seed
from twosfgl.synth import SyntheticSpec, generate_synthetic

seed = 0
out_dir = Path(tempfile.mkdtemp(prefix="twosfgl_demo_"))
spec = SyntheticSpec(nodes=400, relations=3, intra_p=0.08, inter_p=0.008,
                     class_sep=0.5, coverage=0.6)
node_path, relation_paths = generate_synthetic(spec, seed, out_dir)
dataset = load_dataset(node_path, relation_paths)
# sampling, split and model settings at their experiment defaults
defaults = ExperimentConfig(synth=spec)

# Same sampled nodes, split, and feature scaling for both runs, so the
# only difference is the graph each client trains on.
labels = dataset.nodes.labels
sampled = balance_sample(labels, defaults.ratio_low, defaults.ratio_high,
                         seed=derive_seed(seed, "sample"))
split = stratified_split(sampled, labels, defaults.train_frac,
                         seed=derive_seed(seed, "split"))
features = zscore_features(dataset.nodes.features, split.train_ids)
print(f"{len(sampled)} nodes sampled, {len(split.train_ids)} train / "
      f"{len(split.test_ids)} test")

raw_graphs = [dataset.relations[k] for k in sorted(dataset.relations)]
fused_graphs, _ = virtual_fusion_round(
    raw_graphs, FusionConfig(seed=derive_seed(seed, "fusion")))

rounds = 60
histories = {}
for arm, graphs in (("fedavg_only", raw_graphs), ("2sfgl", fused_graphs)):
    clients = [make_client(g, split, "gcn", features, labels,
                           seed=derive_seed(seed, "model"),
                           fanout=defaults.fanout, lr=defaults.lr)
               for g in graphs]
    histories[arm] = train_federation(
        clients, FederationConfig(rounds=rounds), arm,
        seed=derive_seed(seed, "train"))

print(f"\nround   {'raw AUC':>8}  {'fused AUC':>9}")
lookup = {arm: {(r, m): v for r, _, m, v in h.records}
          for arm, h in histories.items()}
for r in range(10, rounds + 1, 10):
    raw = lookup["fedavg_only"][(r, "auc")]
    fused = lookup["2sfgl"][(r, "auc")]
    print(f"{r:5d}   {raw:8.4f}  {fused:9.4f}")

window = (40, 60)
raw_avg = window_average(histories["fedavg_only"], *window)[
    ("fedavg_only", "auc")]
fused_avg = window_average(histories["2sfgl"], *window)[("2sfgl", "auc")]
print(f"\nmean AUC over rounds {window[0]}-{window[1]}: "
      f"raw {raw_avg:.4f}, fused {fused_avg:.4f} "
      f"(gap {fused_avg - raw_avg:+.4f})")
