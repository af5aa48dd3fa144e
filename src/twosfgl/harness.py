"""End-to-end experiment driver.

One experiment = a dataset (synthetic or loaded), a sampling/split policy,
and a set of arms trained per seed:

* ``2sfgl``       — virtual fusion first, then federated training on the
                    fused graphs;
* ``fedavg_only`` — federated training on the raw relation graphs;
* ``local_<rel>`` — a single client training on one raw relation.

Every random choice descends from the experiment seed, so rerunning a config
reproduces every output file byte for byte.  Failures are re-raised with the
seed, arm, and stage in the message.
"""

import dataclasses
from pathlib import Path

from .config import ExperimentConfig
from .data import (balance_sample, load_dataset, stratified_split,
                   write_relation, write_rows, zscore_features)
from .fedavg import make_client, train_federation
from .fusion import edge_origins, received, virtual_fusion_round, write_shares, write_tags
from .metrics import METRIC_NAMES, RoundHistory, window_average
from .seeding import derive_seed
from .synth import generate_synthetic

__all__ = ["prepare_data", "run_arm", "run_experiment", "summarize",
           "write_summary", "write_table", "report_from_dir"]


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
    each fused edge's origin tag and every share batch sent."""
    graphs = [dataset.relations[name] for name in sorted(dataset.relations)]
    fusion_cfg = dataclasses.replace(cfg.fusion, seed=derive_seed(seed, "fusion"))
    fused, shares_by_pair = virtual_fusion_round(graphs, fusion_cfg)
    dump_dir = Path(dump_dir)
    dump_dir.mkdir(parents=True, exist_ok=True)
    for graph in fused:
        write_relation(graph, dump_dir / f"fused_{graph.relation_name}.csv")
    if audit:
        for local, graph in zip(graphs, fused):
            name = graph.relation_name
            origins = edge_origins(local, graph, received(shares_by_pair, name))
            write_tags(graph, origins, dump_dir / f"tags_{name}.csv")
        for (a, b), shares in sorted(shares_by_pair.items()):
            write_shares(shares, dump_dir / f"shares_{a}_{b}.csv", a)
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
                           seed=model_seed, fanout=cfg.fanout, lr=cfg.lr)
               for g in graphs]
    return train_federation(clients, cfg.federation, arm,
                            seed=derive_seed(seed, "train"))


def summarize(histories: dict, cfg: ExperimentConfig) -> dict:
    """Window-average each (arm, seed) history, then mean over seeds.

    ``histories`` maps (arm, seed) -> RoundHistory; the result maps
    (arm, metric) -> float.
    """
    sums, counts = {}, {}
    for (arm, _seed), history in histories.items():
        window = window_average(history, cfg.window_lo, cfg.window_hi)
        for (warm, metric), value in window.items():
            if warm != arm:
                raise ValueError(f"history for arm {arm!r} contains rows "
                                 f"for {warm!r}")
            key = (arm, metric)
            sums[key] = sums.get(key, 0.0) + value
            counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}


def write_summary(summary: dict, path) -> None:
    """One (arm, metric, value) row per entry, arms sorted, metrics in
    ``METRIC_NAMES`` order."""
    keys = [(arm, metric) for arm in sorted({arm for arm, _ in summary})
            for metric in METRIC_NAMES]
    write_rows(path, "arm,metric,value\n",
               [[arm for arm, _ in keys], [metric for _, metric in keys],
                [float(summary[key]) for key in keys]])


def write_table(summary: dict, cfg: ExperimentConfig, seeds, rounds, path) -> None:
    """Human-readable companion to summary.csv (fixed 4-decimal cells), headed
    by the seeds whose histories were summarized and the last round held."""
    arms = sorted({arm for arm, _ in summary})
    header = ["arm"] + list(METRIC_NAMES)
    rows = [[arm] + [f"{summary[(arm, m)]:.4f}" for m in METRIC_NAMES]
            for arm in arms]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    lines = [f"arch={cfg.arch}  rounds={rounds}  "
             f"window={cfg.window_lo}-{cfg.window_hi}  "
             f"seeds={','.join(str(s) for s in seeds)}"]
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
            sampled = balance_sample(labels, cfg.ratio_low, cfg.ratio_high,
                                     seed=derive_seed(seed, "sample"))
            split = stratified_split(sampled, labels, cfg.train_frac,
                                     seed=derive_seed(seed, "split"))
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
            histories[(arm, seed)] = history

    summary = summarize(histories, cfg)
    write_summary(summary, out / "summary.csv")
    write_table(summary, cfg, cfg.seeds, cfg.federation.rounds, out / "table.txt")
    return summary


def report_from_dir(out_dir, cfg: ExperimentConfig) -> dict:
    """Rebuild summary.csv and table.txt from history files already on disk."""
    out = Path(out_dir)
    paths = sorted(out.glob("history_*.csv"))
    if not paths:
        raise FileNotFoundError(f"no history_*.csv files under {out}")
    histories = {}
    for path in paths:
        stem = path.stem[len("history_"):]
        arm, _, seed_text = stem.rpartition("_")
        if not arm or not seed_text.removeprefix("-").isdigit():
            raise ValueError(f"cannot parse arm/seed from {path.name!r}")
        histories[(arm, int(seed_text))] = RoundHistory.from_csv(path)
    summary = summarize(histories, cfg)
    write_summary(summary, out / "summary.csv")
    write_table(summary, cfg, sorted({seed for _, seed in histories}),
                max(r[0] for h in histories.values() for r in h.records),
                out / "table.txt")
    return summary
