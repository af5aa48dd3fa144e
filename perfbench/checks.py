"""Output checks for one invocation of a workload step.

An invocation is correct when every ``*.csv`` it wrote is byte-identical to
those of the step's first invocation (the A7 rerun property), ``summary.csv``
holds a finite value for every arm and metric, and every fused graph keeps
all of its client's local edges at no less than their local weight.
"""

import hashlib
import math
from pathlib import Path

__all__ = ["csv_digests", "check_outputs", "summary_values", "quality"]

METRICS = ("macro_f1", "auc", "gmean", "accuracy")


def csv_digests(out_dir) -> dict:
    out_dir = Path(out_dir)
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*.csv"))}


def _rows(path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                yield line.split(",")


def _edges(path) -> dict:
    edges = {}
    for fields in _rows(path):
        u, v = int(fields[0]), int(fields[1])
        w = float(fields[2]) if len(fields) == 3 else 1.0
        if u != v:
            key = (min(u, v), max(u, v))
            edges[key] = edges.get(key, 0.0) + w
    return edges


def summary_values(out_dir) -> dict:
    """(arm, metric) -> value from ``summary.csv``."""
    values = {}
    for arm, metric, value in _rows(Path(out_dir) / "summary.csv"):
        if arm != "arm":
            values[(arm, metric)] = float(value)
    return values


def _expected_arms(config_text: str, relations) -> list:
    for line in config_text.splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "arms":
            arms = []
            for arm in (a.strip() for a in value.split(",")):
                if arm == "local":
                    arms.extend(f"local_{r}" for r in relations)
                else:
                    arms.append(arm)
            return arms
    raise ValueError("step config has no arms line")


def check_outputs(out_dir, step, seed, config_text) -> list:
    """Problems found in one single-seed invocation's outputs; empty when
    correct."""
    out_dir = Path(out_dir)
    problems = []
    fused_dir = out_dir / f"fusion_seed{seed}" if step.trains else out_dir
    data_dir = out_dir / "data" / f"seed{seed}"
    relations = sorted(p.stem for p in data_dir.glob("*.csv")
                       if p.name != "nodes.csv")
    if not relations:
        problems.append(f"no relation CSVs under {data_dir}")
    for rel in relations:
        fused_path = fused_dir / f"fused_{rel}.csv"
        if not fused_path.is_file():
            problems.append(f"missing {fused_path.name}")
            continue
        fused = _edges(fused_path)
        lost = [e for e, w in _edges(data_dir / f"{rel}.csv").items()
                if fused.get(e, -1.0) < w]
        if lost:
            problems.append(f"fused_{rel} lost or lowered {len(lost)} local "
                            f"edges, first {lost[0]}")
    if step.trains:
        try:
            values = summary_values(out_dir)
        except (OSError, ValueError) as exc:
            return problems + [f"summary.csv unreadable: {exc}"]
        for arm in _expected_arms(config_text, relations):
            for metric in METRICS:
                value = values.get((arm, metric))
                if value is None or not math.isfinite(value):
                    problems.append(f"summary.csv: no finite {arm},{metric}")
    return problems


def quality(out_dir) -> dict:
    """The 2sfgl arm's window-averaged AUC and its gain over fedavg_only."""
    values = summary_values(out_dir)
    auc_2sfgl = values[("2sfgl", "auc")]
    return {"auc_2sfgl": auc_2sfgl,
            "auc_gain": auc_2sfgl - values[("fedavg_only", "auc")]}
