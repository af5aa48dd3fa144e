"""End-to-end experiment driver.

One experiment = a dataset (synthetic or loaded), a fixed sampling/split
policy, and a set of arms trained per seed:

* ``2sfgl``       — virtual fusion first, then federated training on the
                    fused graphs;
* ``fedavg_only`` — federated training on the raw relation graphs;
* ``local_<rel>`` — a single client training on one raw relation.

Every random choice descends from the experiment seed, so rerunning a config
reproduces every output file byte for byte.  Failures are re-raised with the
seed, arm, and stage in the message.

The config names the run: ``run_experiment`` writes one history file per
(seed, arm) cell of ``cfg.seeds`` x ``cfg.arms``, and ``report_from_dir``
reads exactly those cells back, so a report describes the configured run and
no other file in its directory.
"""

import shutil
from pathlib import Path

from .config import ExperimentConfig
from .data import (balance_sample, load_dataset, stratified_split,
                   write_relation, write_rows, zscore_features)
from .fedavg import make_client, train_federation
from .fusion import edge_origins, virtual_fusion_round, write_shares, write_tags
from .metrics import METRIC_NAMES, RoundHistory, window_average
from .seeding import derive_seed
from .synth import generate_synthetic

__all__ = ["prepare_data", "fusion_outputs", "run_arm", "run_experiment",
           "summarize", "write_summary", "write_table", "report_from_dir"]

# the sampled nodes' positive/negative ratio lies in [RATIO_LOW, RATIO_HIGH]
RATIO_LOW = 0.5
RATIO_HIGH = 2.0
TRAIN_FRAC = 0.6        # share of the sampled nodes in the train split


def prepare_data(cfg: ExperimentConfig, seed: int, out_dir: Path):
    """Dataset for one seed: generated synthetics round-trip through CSV."""
    if cfg.synth is not None:
        data_dir = out_dir / "data" / f"seed{seed}"
        node_path, relation_paths = generate_synthetic(cfg.synth, seed, data_dir)
        return load_dataset(node_path, relation_paths)
    return load_dataset(cfg.node_path, cfg.relation_paths)


def fusion_outputs(cfg: ExperimentConfig, dataset, seed: int, dump_dir,
                   audit: bool = True):
    """Run one fusion round and dump the fused graphs and, with ``audit``,
    each fused edge's origin tag and every share batch sent.  A batch that
    one sender sent to two receivers (at ``fusion.dp_epsilon = inf``) is
    formatted once, and its second file is a copy of the first."""
    graphs = [dataset.relations[name] for name in sorted(dataset.relations)]
    fused, shares_by_pair = virtual_fusion_round(
        graphs, cfg.fusion, seed=derive_seed(seed, "fusion"))
    dump_dir = Path(dump_dir)
    dump_dir.mkdir(parents=True, exist_ok=True)
    for graph in fused:
        write_relation(graph, dump_dir / f"fused_{graph.relation_name}.csv")
    if audit:
        for local, graph in zip(graphs, fused):
            name = graph.relation_name
            sent = [shares for (_, to), shares in shares_by_pair.items()
                    if to == name]
            write_tags(graph, edge_origins(local, graph, sent),
                       dump_dir / f"tags_{name}.csv")
        written = {}        # (sender, id of batch) -> the file it went to
        for (a, b), shares in sorted(shares_by_pair.items()):
            path = dump_dir / f"shares_{a}_{b}.csv"
            if (a, id(shares)) in written:
                shutil.copyfile(written[a, id(shares)], path)
            else:
                write_shares(shares, path, a)
                written[a, id(shares)] = path
    return fused


def run_arm(cfg: ExperimentConfig, dataset, arm: str, split, features,
            seed: int, fused=None) -> RoundHistory:
    """Train one arm of ``cfg.arms`` for one seed and return its per-round
    metric history."""
    if arm == "2sfgl":
        if fused is None:
            raise ValueError("arm '2sfgl' needs fused graphs")
        graphs = fused
    elif arm == "fedavg_only":
        graphs = [dataset.relations[name] for name in sorted(dataset.relations)]
    else:
        graphs = [dataset.relations[arm[len("local_"):]]]

    model_seed = derive_seed(seed, "model")
    clients = [make_client(g, split, cfg.arch, features, dataset.nodes.labels,
                           seed=model_seed) for g in graphs]
    return train_federation(clients, cfg.federation, arm,
                            seed=derive_seed(seed, "train"))


def summarize(histories: dict, cfg: ExperimentConfig) -> dict:
    """Window-average the history of each (arm, seed) cell of ``cfg`` in
    ``histories``, then mean each arm's over its seeds, added in ascending
    seed order: (arm, metric) -> float."""
    summary = {}
    for arm in cfg.arms:
        windows = [window_average(histories[arm, seed], cfg.window_lo,
                                  cfg.window_hi) for seed in sorted(cfg.seeds)]
        for metric in METRIC_NAMES:
            summary[arm, metric] = sum(w[metric] for w in windows) / len(windows)
    return summary


def write_summary(summary: dict, path) -> None:
    """One (arm, metric, value) row per entry, arms sorted, metrics in
    ``METRIC_NAMES`` order."""
    keys = [(arm, metric) for arm in sorted({arm for arm, _ in summary})
            for metric in METRIC_NAMES]
    write_rows(path, "arm,metric,value\n",
               [[arm for arm, _ in keys], [metric for _, metric in keys],
                [float(summary[key]) for key in keys]])


def write_table(summary: dict, cfg: ExperimentConfig, path) -> None:
    """Human-readable companion to summary.csv (fixed 4-decimal cells), headed
    by the config's architecture, rounds, window and seeds (ascending)."""
    arms = sorted({arm for arm, _ in summary})
    header = ["arm"] + list(METRIC_NAMES)
    rows = [[arm] + [f"{summary[(arm, m)]:.4f}" for m in METRIC_NAMES]
            for arm in arms]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    lines = [f"arch={cfg.arch}  rounds={cfg.federation.rounds}  "
             f"window={cfg.window_lo}-{cfg.window_hi}  "
             f"seeds={','.join(str(s) for s in sorted(cfg.seeds))}"]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Run every (arm, seed) cell, write all artifacts, return the summary."""
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    histories = {}
    for seed in cfg.seeds:
        try:
            dataset = prepare_data(cfg, seed, out)
        except Exception as exc:
            raise RuntimeError(f"seed {seed}, stage data: {exc}") from exc
        labels = dataset.nodes.labels
        try:
            sampled = balance_sample(labels, RATIO_LOW, RATIO_HIGH,
                                     seed=derive_seed(seed, "sample"))
            split = stratified_split(sampled, labels, TRAIN_FRAC,
                                     seed=derive_seed(seed, "split"))
            positives = int(labels[split.test_ids].sum())
            if not 0 < positives < len(split.test_ids):
                raise ValueError(f"the test split needs both classes, got "
                                 f"{positives} positive of {len(split.test_ids)} nodes")
            features = zscore_features(dataset.nodes.features, split.train_ids)
        except Exception as exc:
            raise RuntimeError(f"seed {seed}, stage sample: {exc}") from exc

        fused = None
        if "2sfgl" in cfg.arms:
            try:
                fused = fusion_outputs(cfg, dataset, seed,
                                       dump_dir=out / f"fusion_seed{seed}",
                                       audit=False)
            except Exception as exc:
                raise RuntimeError(
                    f"seed {seed}, arm 2sfgl, stage fusion: {exc}") from exc
        for arm in cfg.arms:
            try:
                history = run_arm(cfg, dataset, arm, split, features, seed,
                                  fused=fused)
            except Exception as exc:
                raise RuntimeError(
                    f"seed {seed}, arm {arm}, stage train: {exc}") from exc
            history.to_csv(out / f"history_{arm}_{seed}.csv")
            histories[arm, seed] = history
    return _write_reports(histories, cfg, out)


def _write_reports(histories: dict, cfg: ExperimentConfig, out: Path) -> dict:
    """Write the summary.csv and table.txt of the (arm, seed) -> RoundHistory
    map of every cell of ``cfg``."""
    summary = summarize(histories, cfg)
    write_summary(summary, out / "summary.csv")
    write_table(summary, cfg, out / "table.txt")
    return summary


def report_from_dir(out_dir, cfg: ExperimentConfig) -> dict:
    """Rebuild summary.csv and table.txt from the ``history_<arm>_<seed>.csv``
    file of each (seed, arm) cell of ``cfg``, as ``run_experiment`` wrote
    them.  Other files are not read.  A missing file, or one that does not
    hold its arm's ``federation.rounds`` rounds, is refused, naming it,
    before anything is written."""
    out = Path(out_dir)
    histories = {(arm, seed): RoundHistory.from_csv(
                     out / f"history_{arm}_{seed}.csv", arm, cfg.federation.rounds)
                 for seed in cfg.seeds for arm in cfg.arms}
    return _write_reports(histories, cfg, out)
