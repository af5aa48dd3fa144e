import tracemalloc

import numpy as np
import pytest

from edge_arrays import edge_dict
from twosfgl.data import load_dataset, load_node_table, load_relation
from twosfgl.seeding import derive_seed
from twosfgl.synth import (SyntheticSpec, _pairs_at, _sample_pair_indices,
                           generate_synthetic)


def small_spec(**kw):
    base = dict(nodes=60, fraud_fraction=0.3, relations=2, intra_p=0.2,
                inter_p=0.02, features=4, class_sep=0.5, coverage=0.6)
    base.update(kw)
    return SyntheticSpec(**base)


def read_all(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


# ----------------------------------------------------------------- the spec


def test_spec_defaults():
    spec = SyntheticSpec()
    assert (spec.nodes, spec.relations, spec.features) == (1000, 3, 8)
    assert spec.relation_names() == ["rel0", "rel1", "rel2"]


@pytest.mark.parametrize("kw", [
    dict(nodes=9),
    dict(fraud_fraction=0.0),
    dict(fraud_fraction=1.0),
    dict(relations=0),
    dict(intra_p=1.5),
    dict(inter_p=-0.1),
    dict(coverage=1.2),
    dict(features=0),
])
def test_spec_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        small_spec(**kw)


def test_sample_pairs_edge_cases():
    rng = np.random.default_rng(0)
    pairs = [(0, 1), (0, 2), (1, 2)]
    u, v = _pairs_at(3, np.arange(3))
    assert list(zip(u.tolist(), v.tolist())) == pairs
    assert _sample_pair_indices(rng, 0, 0.5).size == 0
    assert _sample_pair_indices(rng, 3, 0.0).size == 0
    assert _sample_pair_indices(rng, 3, 1.0).tolist() == [0, 1, 2]
    picked = _sample_pair_indices(rng, 3, 0.5).tolist()
    assert set(picked) <= {0, 1, 2} and len(set(picked)) == len(picked)


def test_sample_pairs_rate_is_calibrated():
    rng = np.random.default_rng(1)
    picked = _sample_pair_indices(rng, 20000, 0.1)
    assert len(np.unique(picked)) == len(picked)
    assert 0.08 < len(picked) / 20000 < 0.12


def reference_sample_pairs(rng, candidates: list, p: float) -> set:
    """Bernoulli(p) over a list of every candidate pair."""
    if not candidates or p <= 0.0:
        return set()
    if p >= 1.0:
        return set(candidates)
    count = rng.binomial(len(candidates), p)
    picked = rng.choice(len(candidates), size=count, replace=False)
    return {candidates[i] for i in picked}


def reference_relation_files(spec, seed):
    """Each relation CSV's text, from samplers that list all N(N-1)/2 pairs
    and every pair of the fraud block, with the same RNG calls."""
    n = spec.nodes
    n_fraud = max(1, round(spec.fraud_fraction * n))
    rng = np.random.default_rng(derive_seed(seed, "synth-nodes"))
    fraud_ids = np.sort(rng.choice(n, size=n_fraud, replace=False))
    bg_rng = np.random.default_rng(derive_seed(seed, "synth-background"))
    background = reference_sample_pairs(
        bg_rng, [(u, v) for u in range(n) for v in range(u + 1, n)],
        spec.inter_p)
    files = {}
    for name in spec.relation_names():
        rel_rng = np.random.default_rng(derive_seed(seed, "synth-relation", name))
        observed = np.sort(rel_rng.choice(
            fraud_ids, size=max(2, round(spec.coverage * n_fraud)),
            replace=False))
        block = [(int(u), int(v))
                 for idx, u in enumerate(observed) for v in observed[idx + 1:]]
        edges = reference_sample_pairs(rel_rng, block, spec.intra_p)
        block_set = set(block)
        edges |= {pair for pair in background if pair not in block_set}
        files[f"{name}.csv"] = "# src,dst\n" + "".join(
            f"{u},{v}\n" for u, v in sorted(edges))
    return files


@pytest.mark.parametrize("inter_p", [0.0, 0.005, 0.5, 1.0])
@pytest.mark.parametrize("intra_p", [0.0, 0.005, 0.5, 1.0])
def test_generate_matches_all_pairs_reference_bitwise(tmp_path, inter_p,
                                                      intra_p):
    for nodes, coverage, seed in [(10, 0.6, 0), (41, 1.0, 1), (150, 0.6, 2),
                                  (150, 1.0, 3)]:
        spec = small_spec(nodes=nodes, inter_p=inter_p, intra_p=intra_p,
                          coverage=coverage, relations=3)
        out = tmp_path / f"{nodes}-{seed}"
        _, relation_paths = generate_synthetic(spec, seed=seed, out_dir=out)
        want = reference_relation_files(spec, seed)
        got = {path.name: path.read_text() for path in relation_paths.values()}
        assert got == want, (nodes, coverage)


def test_generate_memory_grows_with_edges_not_pairs(tmp_path):
    # 4.5M candidate pairs at N=3000: listing them traced over 400 MB, while
    # drawing the ~31k edges of each relation by index stays near 5 MB
    spec = SyntheticSpec(nodes=3000)
    tracemalloc.start()
    try:
        generate_synthetic(spec, seed=0, out_dir=tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


# ------------------------------------------------------------- file outputs


def test_generated_files_and_loadability(tmp_path):
    spec = small_spec()
    node_path, relation_paths = generate_synthetic(spec, seed=3,
                                                   out_dir=tmp_path)
    assert node_path.name == "nodes.csv"
    assert sorted(relation_paths) == ["rel0", "rel1"]
    dataset = load_dataset(node_path, relation_paths)
    assert dataset.nodes.num_nodes == 60
    assert dataset.nodes.feature_width == 4
    assert int(dataset.nodes.labels.sum()) == round(0.3 * 60)
    for name, graph in dataset.relations.items():
        assert np.array_equal(graph.vertices, np.arange(60))
        assert (graph.edges.weight == 1.0).all()
        assert len(graph.edges) > 0


def test_regeneration_is_byte_identical(tmp_path):
    spec = small_spec()
    generate_synthetic(spec, seed=7, out_dir=tmp_path / "a")
    generate_synthetic(spec, seed=7, out_dir=tmp_path / "b")
    generate_synthetic(spec, seed=8, out_dir=tmp_path / "c")
    a, b, c = (read_all(tmp_path / d) for d in "abc")
    assert a == b
    assert set(a) == set(c)
    assert a != c


def test_edge_rows_are_sorted_and_deduplicated(tmp_path):
    _, relation_paths = generate_synthetic(small_spec(), seed=1,
                                           out_dir=tmp_path)
    for path in relation_paths.values():
        rows = [tuple(map(int, line.split(",")))
                for line in path.read_text().splitlines()[1:]]
        assert rows == sorted(rows)
        assert len(rows) == len(set(rows))
        assert all(u < v for u, v in rows)


def test_feature_shift_separates_classes(tmp_path):
    spec = small_spec(nodes=2000, class_sep=0.5, features=4)
    node_path, _ = generate_synthetic(spec, seed=5, out_dir=tmp_path)
    table = load_node_table(node_path)
    fraud_mean = table.features[table.labels == 1].mean()
    clean_mean = table.features[table.labels == 0].mean()
    expected_gap = 0.5 / np.sqrt(4)
    assert fraud_mean - clean_mean == pytest.approx(expected_gap, abs=0.03)


# ----------------------------------------------------------- graph structure


def pair_sets(node_path, relation_paths):
    table = load_node_table(node_path)
    fraud = set(np.flatnonzero(table.labels == 1))
    per_relation = {}
    for name, path in relation_paths.items():
        graph = load_relation(path, name, table)
        per_relation[name] = set(edge_dict(graph.edges))
    return fraud, per_relation


def test_fraud_blocks_are_assortative(tmp_path):
    # the headline structural property: within the observed fraud block the
    # edge rate tracks intra_p, which sits far above the background inter_p
    spec = SyntheticSpec(nodes=1000, fraud_fraction=0.3, relations=3,
                         intra_p=0.05, inter_p=0.005, features=4,
                         class_sep=0.5, coverage=0.6)
    node_path, relation_paths = generate_synthetic(spec, seed=11,
                                                   out_dir=tmp_path)
    fraud, per_relation = pair_sets(node_path, relation_paths)
    n = spec.nodes
    n_fraud = len(fraud)
    n_observed = round(spec.coverage * n_fraud)
    # a fraud pair lands in the dense block when both ends are observed
    in_block = (n_observed * (n_observed - 1)) / (n_fraud * (n_fraud - 1))
    expected_fraud_rate = in_block * spec.intra_p + (1 - in_block) * spec.inter_p
    for name, edges in per_relation.items():
        fraud_edges = {e for e in edges if e[0] in fraud and e[1] in fraud}
        other_edges = edges - fraud_edges
        fraud_rate = len(fraud_edges) / (n_fraud * (n_fraud - 1) / 2)
        other_pairs = n * (n - 1) / 2 - n_fraud * (n_fraud - 1) / 2
        other_rate = len(other_edges) / other_pairs
        assert fraud_rate == pytest.approx(expected_fraud_rate, rel=0.2), name
        assert other_rate == pytest.approx(spec.inter_p, rel=0.2), name
        assert fraud_rate > 3 * other_rate, name


def test_equal_rates_leave_no_structural_signal(tmp_path):
    # intra_p == inter_p collapses the planted block into the background:
    # fraud pairs connect at the same rate as everything else
    spec = SyntheticSpec(nodes=600, fraud_fraction=0.3, relations=2,
                         intra_p=0.02, inter_p=0.02, features=4,
                         class_sep=0.5, coverage=0.6)
    node_path, relation_paths = generate_synthetic(spec, seed=23,
                                                   out_dir=tmp_path)
    fraud, per_relation = pair_sets(node_path, relation_paths)
    n, n_fraud = spec.nodes, len(fraud)
    for name, edges in per_relation.items():
        fraud_edges = {e for e in edges if e[0] in fraud and e[1] in fraud}
        fraud_rate = len(fraud_edges) / (n_fraud * (n_fraud - 1) / 2)
        other_pairs = n * (n - 1) / 2 - n_fraud * (n_fraud - 1) / 2
        other_rate = len(edges - fraud_edges) / other_pairs
        assert fraud_rate == pytest.approx(other_rate, rel=0.25), name


def test_background_edges_are_shared_across_relations(tmp_path):
    spec = small_spec(nodes=200, relations=3)
    node_path, relation_paths = generate_synthetic(spec, seed=13,
                                                   out_dir=tmp_path)
    fraud, per_relation = pair_sets(node_path, relation_paths)
    backgrounds = []
    for edges in per_relation.values():
        backgrounds.append({e for e in edges
                            if e[0] not in fraud or e[1] not in fraud})
    assert backgrounds[0] == backgrounds[1] == backgrounds[2]
    assert len(backgrounds[0]) > 0


def test_fraud_blocks_differ_per_relation(tmp_path):
    spec = small_spec(nodes=300, relations=3, coverage=0.5, intra_p=0.3)
    node_path, relation_paths = generate_synthetic(spec, seed=17,
                                                   out_dir=tmp_path)
    fraud, per_relation = pair_sets(node_path, relation_paths)
    fraud_sets = [frozenset(e for e in edges
                            if e[0] in fraud and e[1] in fraud)
                  for edges in per_relation.values()]
    assert len(set(fraud_sets)) == 3
    union = set().union(*fraud_sets)
    for fs in fraud_sets:
        assert len(fs) < len(union)


def test_coverage_floor_keeps_two_observed_nodes(tmp_path):
    spec = small_spec(nodes=20, fraud_fraction=0.2, coverage=0.01,
                      intra_p=1.0, relations=1)
    node_path, relation_paths = generate_synthetic(spec, seed=19,
                                                   out_dir=tmp_path)
    fraud, per_relation = pair_sets(node_path, relation_paths)
    fraud_edges = {e for e in per_relation["rel0"]
                   if e[0] in fraud and e[1] in fraud}
    assert len(fraud_edges) >= 1  # two observed nodes at intra_p=1
