"""Acceptance gate: one test per release criterion, A1 through A7.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  A5 needs the public fraud datasets exported to the CSV
contract under ``datasets/`` and skips when they are absent.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from edge_arrays import edge_array
from twosfgl.cli import main as cli_main
from twosfgl.config import ExperimentConfig
from twosfgl.data import ClientGraph, NodeTable, SplitAssignment
from twosfgl.fedavg import (FederationConfig, aggregate, federated_round,
                            make_client)
from twosfgl.fusion import normalize_edges, update_edge
from twosfgl.gnn import (gcn_forward, init_params,
                         loss_and_grads, normalized_adjacency, sage_forward)
from twosfgl.harness import run_experiment
from twosfgl.metrics import (EvalResult, RoundHistory, auc, gmean,
                             window_average)
from twosfgl.psi import PsiBackend, encode_id, psi_ddh, psi_plain
from twosfgl.synth import SyntheticSpec

REPO_ROOT = Path(__file__).resolve().parents[1]
# the experiment's default model settings (ExperimentConfig.fanout, .lr)
CLIENT_KW = dict(fanout=5, lr=0.005)


# ---------------------------------------------------------------------- A1


def test_A1_protocol_arithmetic():
    # update_edge against an independently written oracle, bit-for-bit
    def oracle(n_value, local_sum, lam):
        base = local_sum if local_sum > 0 else 1.0
        ratio = n_value / (1.0 - n_value) if n_value < lam \
            else lam / (1.0 - lam)
        return ratio * base

    rng = np.random.default_rng(101)
    for _ in range(1000):
        n_value = float(rng.uniform(1e-9, 1.0 - 1e-9))
        local_sum = float(rng.choice([0.0, rng.uniform(0.0, 10.0)]))
        lam = float(rng.uniform(0.05, 0.95))
        assert update_edge(n_value, local_sum, lam) == \
            oracle(n_value, local_sum, lam)

    # per-vertex normalized shares sum to 1 within 1e-12.  Graphs are built
    # with min degree 2 and weights in [0.5, 2], so no share can reach the
    # clamp threshold and the emitted values are the pre-clamp shares.
    for trial in range(20):
        n = int(rng.integers(5, 51))
        edges = {}
        for v in range(n):
            partners = rng.choice([u for u in range(n) if u != v], size=2,
                                  replace=False)
            for u in partners:
                key = (min(v, int(u)), max(v, int(u)))
                edges.setdefault(key, float(rng.uniform(0.5, 2.0)))
        graph = ClientGraph(relation_name="g", vertices=np.arange(n),
                            edges=edge_array(edges))
        shares = normalize_edges(graph, range(n))
        sums = {}
        for s in shares:
            assert s.value < 1.0 - 1e-6  # clamp never engaged
            sums[s.src] = sums.get(s.src, 0.0) + s.value
        for v in range(n):
            assert abs(sums[v] - 1.0) <= 1e-12, f"trial {trial}, vertex {v}"


# ---------------------------------------------------------------------- A2


def test_A2_psi_equivalence_and_privacy():
    backend = PsiBackend.ddh_small()
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    for trial in range(100):
        size_a, size_b = rng.integers(0, 201, size=2)
        universe = rng.choice(1_000_000, size=size_a + size_b, replace=False)
        ids_a = universe[:size_a]
        ids_b = universe[size_b:]  # overlapping slice
        expected = psi_plain(ids_a, ids_b)
        assert expected.tolist() == sorted(set(ids_a.tolist()) & set(ids_b.tolist()))
        result = psi_ddh(ids_a, ids_b, backend=backend, seed=trial)
        assert np.array_equal(result.intersection_a, expected), f"trial {trial}"
        assert np.array_equal(result.intersection_b, expected)

        payload = result.transcript.payload_bytes()
        for outsider in np.setxor1d(ids_a, ids_b).tolist():
            assert encode_id(outsider) not in payload
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"100 PSI runs took {elapsed:.1f}s"


# ---------------------------------------------------------------------- A3


def _forward(arch, params, graph, adjacency, x, seed):
    if arch == "gcn":
        return gcn_forward(params, adjacency, adjacency @ x)
    return sage_forward(params, graph, x, fanout=3, seed=seed)


def _random_instance(arch, rng, hidden=4):
    """A 5-10 node instance whose pre-activations avoid the relu kink
    (finite differences are undefined at the kink itself)."""
    while True:
        n = int(rng.integers(5, 11))
        edges = {}
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    edges[(u, v)] = float(rng.uniform(0.3, 1.5))
        graph = ClientGraph(relation_name="g", vertices=np.arange(n),
                            edges=edge_array(edges))
        x = rng.standard_normal((n, 3))
        labels = rng.integers(0, 2, size=n)
        if len(set(labels.tolist())) < 2:
            continue
        params = init_params(arch, 3, seed=int(rng.integers(2**31)),
                             hidden=hidden)
        adjacency = normalized_adjacency(graph) if arch == "gcn" else None
        _, cache = _forward(arch, params, graph, adjacency, x, seed=7)
        if np.abs(cache.inputs @ params.W1).min() > 1e-4:
            return graph, adjacency, x, labels, params, cache


def test_A3_gradients_and_fedavg_identities():
    rng = np.random.default_rng(303)
    h = 1e-6
    for arch in ("gcn", "sage"):
        for _ in range(10):
            graph, adjacency, x, labels, params, cache = \
                _random_instance(arch, rng)
            mask = np.ones(len(labels), dtype=bool)
            _, grads = loss_and_grads(params, cache, labels, mask)

            def loss_at(p):
                _, c = _forward(arch, p, graph, adjacency, x, seed=7)
                return loss_and_grads(p, c, labels, mask)[0]

            for name in ("W1", "W2"):
                analytic = getattr(grads, name)
                w = getattr(params, name)
                for idx in np.ndindex(w.shape):
                    hi = params.copy()
                    getattr(hi, name)[idx] += h
                    lo = params.copy()
                    getattr(lo, name)[idx] -= h
                    fd = (loss_at(hi) - loss_at(lo)) / (2 * h)
                    a = analytic[idx]
                    assert abs(a - fd) <= 1e-4 * max(abs(a), abs(fd), 1e-4), \
                        f"{arch} {name}{idx}: analytic {a}, fd {fd}"

    # FedAvg single-client identity: aggregation returns the lone update
    p = init_params("gcn", 3, seed=1, hidden=4)
    out = aggregate([(p, 13)])
    assert np.array_equal(out.W1, p.W1) and np.array_equal(out.W2, p.W2)

    # K-identical-clients identity: the average of K copies is the copy
    for k in (2, 5):
        out = aggregate([(p.copy(), 7) for _ in range(k)])
        assert np.array_equal(out.W1, p.W1) and np.array_equal(out.W2, p.W2)

    # and end to end: K identical clients train exactly like one client
    rng = np.random.default_rng(99)
    x = rng.standard_normal((12, 3))
    table = NodeTable(features=x, labels=(x[:, 0] > 0).astype(np.int64))
    edges = {(u, v): 1.0 for u in range(12) for v in range(u + 1, 12)
             if rng.random() < 0.3}
    graph = ClientGraph(relation_name="g", vertices=np.arange(12),
                        edges=edge_array(edges))
    split = SplitAssignment(train_ids=np.arange(8), test_ids=np.arange(8, 12))
    twins = [make_client(graph, split, "gcn", x, table.labels, **CLIENT_KW,
                         seed=5) for _ in range(3)]
    solo = [make_client(graph, split, "gcn", x, table.labels, **CLIENT_KW,
                        seed=5)]
    g_twin, g_solo = twins[0].params.copy(), twins[0].params.copy()
    for round_index in range(4):
        g_twin, _ = federated_round(twins, g_twin,
                                    round_seed=round_index, steps=1)
        g_solo, _ = federated_round(solo, g_solo,
                                    round_seed=round_index, steps=1)
        assert np.array_equal(g_twin.W1, g_solo.W1)
        assert np.array_equal(g_twin.W2, g_solo.W2)


# ---------------------------------------------------------------------- A4


def test_A4_synthetic_fusion_gap(tmp_path):
    cfg = ExperimentConfig(synth=SyntheticSpec(), arch="gcn",
                           seeds=(0, 1, 2, 3, 4),
                           arms=("2sfgl", "fedavg_only"),
                           federation=FederationConfig(rounds=100),
                           window_lo=60, window_hi=100)
    started = time.perf_counter()
    summary = run_experiment(cfg, out_dir=tmp_path / "a4")
    elapsed = time.perf_counter() - started
    fused_auc = summary[("2sfgl", "auc")]
    raw_auc = summary[("fedavg_only", "auc")]
    assert fused_auc >= raw_auc + 0.03, \
        f"fused AUC {fused_auc:.4f} vs raw {raw_auc:.4f}"
    assert elapsed < 300.0, f"experiment took {elapsed:.0f}s"


# ---------------------------------------------------------------------- A5


def _dataset_paths(name, relations):
    root = REPO_ROOT / "datasets" / name
    paths = {"nodes": root / "nodes.csv"}
    paths.update({rel: root / f"{rel}.csv" for rel in relations})
    return paths


def _dataset_summary(paths, arch, out_dir):
    relation_paths = {k: str(v) for k, v in paths.items() if k != "nodes"}
    cfg = ExperimentConfig(node_path=str(paths["nodes"]),
                           relation_paths=relation_paths, arch=arch,
                           seeds=(0, 1, 2), arms=("2sfgl", "fedavg_only"),
                           federation=FederationConfig(rounds=100),
                           window_lo=60, window_hi=100)
    return run_experiment(cfg, out_dir=out_dir)


def test_A5_public_dataset_reproduction(tmp_path):
    amazon = _dataset_paths("amazon", ("upu", "usu", "uvu"))
    yelp = _dataset_paths("yelp", ("rur", "rtr", "rsr"))
    missing = [str(p) for p in [*amazon.values(), *yelp.values()]
               if not p.is_file()]
    if missing:
        pytest.skip("public dataset CSVs not present: " + ", ".join(missing))

    for arch, f1_floor, gap_floor in (("gcn", 0.90, 0.10),
                                      ("sage", 0.90, 0.03)):
        summary = _dataset_summary(amazon, arch, tmp_path / f"amazon_{arch}")
        fused = summary[("2sfgl", "macro_f1")]
        raw = summary[("fedavg_only", "macro_f1")]
        assert fused >= f1_floor, f"amazon {arch}: macro-F1 {fused:.3f}"
        assert fused - raw >= gap_floor, \
            f"amazon {arch}: gap {fused - raw:.3f}"

    summary = _dataset_summary(yelp, "gcn", tmp_path / "yelp_gcn")
    fused = summary[("2sfgl", "macro_f1")]
    raw = summary[("fedavg_only", "macro_f1")]
    assert fused >= 0.88, f"yelp gcn: macro-F1 {fused:.3f}"
    assert fused - raw >= 0.10, f"yelp gcn: gap {fused - raw:.3f}"


# ---------------------------------------------------------------------- A6


def _pair_count_auc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_A6_metric_definitions():
    rng = np.random.default_rng(606)
    for n in range(2, 101):
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1  # both classes present
        scores = rng.integers(0, 8, size=n) / 8.0  # quantized: forces ties
        result = EvalResult.from_scores(scores, labels)
        assert auc(result) == _pair_count_auc(scores.tolist(),
                                              labels.tolist()), f"n={n}"

    # zero recall on either class zeroes the geometric mean
    for _ in range(50):
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        if rng.random() < 0.5:
            scores = rng.uniform(0.0, 0.49, size=n)   # nothing flagged
        else:
            scores = rng.uniform(0.51, 1.0, size=n)   # everything flagged
        assert gmean(EvalResult.from_scores(scores, labels)) == 0.0

    history = RoundHistory()
    for r in range(1, 101):
        history.append(r, "arm", "auc", 0.7359)
    assert window_average(history, 60, 100)[("arm", "auc")] == 0.7359


# ---------------------------------------------------------------------- A7


def test_A7_byte_identical_reruns(tmp_path):
    cfg_text = (
        "synth.nodes = 40\n"
        "synth.relations = 2\n"
        "synth.intra_p = 0.4\n"
        "synth.inter_p = 0.05\n"
        "synth.features = 4\n"
        "seeds = 0, 1\n"
        "arms = 2sfgl, fedavg_only, local\n"
        "fusion.hops = 2\n"
        "fusion.dp_epsilon = 4.0\n"
        "federation.rounds = 3\n"
        "report.window_lo = 1\n"
        "report.window_hi = 3\n"
    )
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(cfg_text, encoding="utf-8")
    for out in ("run_a", "run_b"):
        code = cli_main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / out)])
        assert code == 0
    a, b = tmp_path / "run_a", tmp_path / "run_b"
    names_a = sorted(p.relative_to(a) for p in a.rglob("*.csv"))
    names_b = sorted(p.relative_to(b) for p in b.rglob("*.csv"))
    assert names_a == names_b and names_a
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    for name in names_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), str(name)
