"""Desk-scale synthetic multi-relation fraud datasets.

Each relation is a planted-partition graph: a randomly chosen subset of the
fraud nodes forms a dense block (the part of the fraud ring this relation
observes), over sparse background edges among all nodes.  The background is
drawn once per dataset and shared by every relation — all parties watch the
same population-level activity — while the fraud blocks are per-relation
slices, so no single relation sees the whole ring and fusing the relations
is genuinely informative.  Features are Gaussian with a class-dependent mean
shift.  Output is written in the dataset CSV contract and is byte-identical
for a fixed seed.

Edges are drawn by index into the lexicographic order of the candidate pairs
(u < v, by u then v), and only the drawn indices are mapped back to pairs, so
memory grows with the number of edges, not with the N(N-1)/2 candidates.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import NodeTable, write_node_table, write_rows
from .seeding import derive_seed

__all__ = ["SyntheticSpec", "generate_synthetic"]


@dataclass(frozen=True)
class SyntheticSpec:
    nodes: int = 1000
    fraud_fraction: float = 0.3
    relations: int = 3
    intra_p: float = 0.06        # edge probability inside the observed fraud block
    inter_p: float = 0.005       # background edge probability everywhere else
    features: int = 8
    class_sep: float = 0.5       # mean shift between classes, in std units
    coverage: float = 0.6        # fraction of fraud nodes each relation observes

    def __post_init__(self):
        if self.nodes < 10:
            raise ValueError("need at least 10 nodes")
        if not 0.0 < self.fraud_fraction < 1.0:
            raise ValueError("fraud_fraction must be in (0, 1)")
        # a fraud block needs 2 fraud nodes, and sampling needs a negative
        n_fraud = round(self.fraud_fraction * self.nodes)
        if not 2 <= n_fraud <= self.nodes - 1:
            raise ValueError(f"fraud_fraction {self.fraud_fraction} of "
                             f"{self.nodes} nodes gives {n_fraud} fraud nodes; "
                             "need 2 to nodes - 1")
        if self.relations < 1:
            raise ValueError("need at least one relation")
        for name in ("intra_p", "inter_p", "coverage"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.features < 1:
            raise ValueError("need at least one feature dimension")
        if not math.isfinite(self.class_sep):
            raise ValueError(f"class_sep must be finite, got {self.class_sep}")

    def relation_names(self) -> list:
        return [f"rel{k}" for k in range(self.relations)]


def _sample_pair_indices(rng, count: int, p: float) -> np.ndarray:
    """Bernoulli(p) over ``count`` candidates, drawn as a batch; returns the
    indices of the chosen candidates (unordered, without repeats)."""
    if count == 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(count)
    drawn = rng.binomial(count, p)
    return rng.choice(count, size=drawn, replace=False)


def _pairs_at(n: int, index: np.ndarray):
    """The (u, v) pairs at positions ``index`` of the lexicographic order of
    all pairs u < v < n."""
    u_range = np.arange(n)
    first = u_range * (2 * n - u_range - 1) // 2   # index of the pair (u, u + 1)
    u = np.searchsorted(first, index, side="right") - 1
    return u, index - first[u] + u + 1


def generate_synthetic(spec: SyntheticSpec, seed: int, out_dir):
    """Write a synthetic dataset to out_dir; returns (node_path, relation_paths).

    Files follow the ingestion CSV contract (relation rows omit the weight
    column, so every edge loads at the default weight 1.0).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n = spec.nodes
    n_fraud = round(spec.fraud_fraction * n)

    rng = np.random.default_rng(derive_seed(seed, "synth-nodes"))
    fraud_ids = np.sort(rng.choice(n, size=n_fraud, replace=False))
    labels = np.zeros(n, dtype=np.int64)
    labels[fraud_ids] = 1

    features = rng.standard_normal((n, spec.features))
    shift = spec.class_sep / math.sqrt(spec.features)
    features[labels == 1] += shift

    node_path = out_dir / "nodes.csv"
    write_node_table(NodeTable(features=features, labels=labels), node_path)

    bg_rng = np.random.default_rng(derive_seed(seed, "synth-background"))
    bg_u, bg_v = _pairs_at(n, _sample_pair_indices(bg_rng, n * (n - 1) // 2,
                                                    spec.inter_p))

    relation_paths = {}
    for name in spec.relation_names():
        rel_rng = np.random.default_rng(derive_seed(seed, "synth-relation", name))
        observed = rel_rng.choice(fraud_ids, size=max(2, round(spec.coverage * n_fraud)),
                                  replace=False)
        observed = np.sort(observed)
        m = len(observed)
        i, j = _pairs_at(m, _sample_pair_indices(rel_rng, m * (m - 1) // 2,
                                                 spec.intra_p))
        in_block = np.zeros(n, dtype=bool)
        in_block[observed] = True
        outside = ~(in_block[bg_u] & in_block[bg_v])
        u = np.concatenate((observed[i], bg_u[outside]))
        v = np.concatenate((observed[j], bg_v[outside]))
        order = np.lexsort((v, u))

        path = out_dir / f"{name}.csv"
        write_rows(path, "# src,dst\n", [u[order], v[order]])
        relation_paths[name] = path
    return node_path, relation_paths
