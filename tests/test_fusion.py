import math

import networkx as nx
import numpy as np
import pytest

from edge_arrays import edge_array, edge_dict
from twosfgl import fusion as fusion_module
from twosfgl.data import EDGE_DTYPE, ClientGraph, incident_sums
from twosfgl.fusion import (SHARE_CLAMP_DELTA, SHARE_DTYPE, FusionConfig,
                            apply_dp, edge_origins, fuse, khop_shares,
                            normalize_edges, received, update_edge,
                            virtual_fusion_round, write_shares, write_tags)
from twosfgl.psi import PsiBackend

TOP = 1.0 - SHARE_CLAMP_DELTA


def make_graph(edges, n, name="g"):
    return ClientGraph(relation_name=name, vertices=np.arange(n),
                       edges=edge_array(edges))


def random_graph(rng, n, p=0.4, name="g"):
    edges = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges[(u, v)] = float(rng.uniform(0.1, 2.0))
    return make_graph(edges, n, name=name)


def random_sparse_graph(rng, n, p=0.4, name="g"):
    """Non-contiguous vertex ids, about a fifth of the edges at weight 0."""
    ids = sorted(int(i) for i in rng.choice(5 * n, size=n, replace=False))
    edges = {}
    for a, u in enumerate(ids):
        for v in ids[a + 1:]:
            if rng.random() < p:
                edges[(u, v)] = (0.0 if rng.random() < 0.2
                                 else float(rng.uniform(0.1, 2.0)))
    return ClientGraph(relation_name=name, vertices=ids,
                       edges=edge_array(edges))


def batch(rows):
    """A share batch from (src, dst, value) or (src, dst, value, hops) tuples."""
    return np.array([(src, dst, hops[0] if hops else 1, value)
                     for src, dst, value, *hops in rows],
                    dtype=SHARE_DTYPE).view(np.recarray)


def random_common(rng, graph):
    """A random subset of the graph's vertices, as ids in random order."""
    ids = graph.vertices
    return ids[rng.choice(len(ids), size=rng.integers(2, len(ids) + 1),
                          replace=False)]


# Per-share loop references.  Neighbors are taken in ascending order and
# incident sums are added in that order, as the CSR does, so results must
# match bit for bit.

def loop_neighbors(graph):
    nbrs = {v: [] for v in graph.vertices}
    for (u, v), w in edge_dict(graph.edges).items():
        nbrs[u].append((v, w))
        nbrs[v].append((u, w))
    return {v: sorted(pairs) for v, pairs in nbrs.items()}


def loop_sums(graph):
    return {v: sum(w for _, w in pairs)
            for v, pairs in loop_neighbors(graph).items()}


def clamp(value):
    return min(max(value, 0.0), TOP)


def loop_normalize_edges(graph, common):
    nbrs, sums = loop_neighbors(graph), loop_sums(graph)
    return [(i, j, clamp(w / sums[i]), 1)
            for i in sorted(common) for j, w in nbrs[i] if j in common and w > 0]


def loop_khop_shares(graph, common, k):
    nbrs, sums = loop_neighbors(graph), loop_sums(graph)
    shares = []
    for i in sorted(common):
        direct = {j for j, _ in nbrs[i]}
        best2 = {}
        for m, w1 in nbrs[i]:
            if w1 <= 0:
                continue
            n1 = w1 / sums[i]
            for j, w2 in nbrs[m]:
                if j == i or j in direct or j not in common or w2 <= 0:
                    continue
                prod = n1 * (w2 / sums[m])
                if prod > best2.get(j, 0.0):
                    best2[j] = prod
        shares += [(i, j, clamp(best2[j]), 2) for j in sorted(best2)]
        if k == 3:
            best3 = {}
            for m, w1 in nbrs[i]:
                if w1 <= 0:
                    continue
                n1 = w1 / sums[i]
                for m2, w2 in nbrs[m]:
                    if m2 == i or w2 <= 0:
                        continue
                    n2 = n1 * (w2 / sums[m])
                    for j, w3 in nbrs[m2]:
                        if (j == i or j == m or j in direct or j in best2
                                or j not in common or w3 <= 0):
                            continue
                        prod = n2 * (w3 / sums[m2])
                        if prod > best3.get(j, 0.0):
                            best3[j] = prod
            shares += [(i, j, clamp(best3[j]), 3) for j in sorted(best3)]
    return shares


def loop_apply_dp(shares, epsilon, seed):
    rng = np.random.default_rng(seed)
    return [(s.src, s.dst, clamp(s.value + rng.laplace(0.0, 1.0 / epsilon)),
             s.hops) for s in shares]


def loop_fuse(local, incoming, lam):
    """(edges, origins) of the max-rule fusion, one pair at a time; a
    pair that is no local edge and has only zero candidates adds nothing."""
    sums = loop_sums(local)
    local_edges = edge_dict(local.edges)
    by_orientation = {}
    for share in incoming:
        by_orientation.setdefault((share.src, share.dst), []).append(share.value)
    pair_values = {}
    for (i, j), values in by_orientation.items():
        key = (i, j) if i < j else (j, i)
        pair_values.setdefault(key, {})[i] = sum(values) / len(values)
    edges = dict(local_edges)
    origins = {key: "local" for key in local_edges}
    for (u, v), oriented in sorted(pair_values.items()):
        candidates = [oracle_update(oriented.get(a, oriented.get(b)), sums[a], lam)
                      for a, b in ((u, v), (v, u))]
        if (u, v) not in local_edges and max(candidates) == 0:
            continue
        edges[(u, v)] = max(local_edges.get((u, v), 0.0), max(candidates))
        origins[(u, v)] = "both" if (u, v) in local_edges else "fused"
    return edges, origins


def as_tuples(shares):
    return [(s.src, s.dst, s.value, s.hops) for s in shares]


# ------------------------------------------------------------ normalization


def test_normalize_edges_hand_case():
    g = make_graph({(0, 1): 2.0, (0, 2): 6.0}, 3)
    shares = normalize_edges(g, [0, 1, 2])
    assert [(s.src, s.dst, s.value) for s in shares] == [
        (0, 1, 0.25), (0, 2, 0.75), (1, 0, TOP), (2, 0, TOP)]
    assert all(s.hops == 1 for s in shares)


def test_normalize_edges_common_subset_filters_pairs():
    g = make_graph({(0, 1): 2.0, (0, 2): 6.0}, 3)
    shares = normalize_edges(g, [0, 1])
    assert [(s.src, s.dst) for s in shares] == [(0, 1), (1, 0)]
    # denominator still counts the non-common edge (0, 2)
    assert shares[0].value == 0.25


def test_normalize_edges_skips_zero_weight():
    g = make_graph({(0, 1): 0.0, (0, 2): 5.0}, 3)
    shares = normalize_edges(g, [0, 1, 2])
    assert [(s.src, s.dst) for s in shares] == [(0, 2), (2, 0)]


def test_normalize_edges_rejects_foreign_common():
    with pytest.raises(ValueError, match="subset"):
        normalize_edges(make_graph({}, 3), [0, 7])


def test_normalize_edges_matches_loop_reference_bitwise():
    rng = np.random.default_rng(41)
    for _ in range(20):
        g = random_sparse_graph(rng, 12)
        common = random_common(rng, g)
        assert as_tuples(normalize_edges(g, common)) == \
            loop_normalize_edges(g, common)


def test_share_rows_sum_to_one_per_source():
    """With every vertex common and degree >= 2, outgoing shares sum to 1."""
    rng = np.random.default_rng(31)
    for _ in range(5):
        n = 8
        edges = {(u, v): float(rng.uniform(0.5, 2.0))
                 for u in range(n) for v in range(u + 1, n)}
        g = make_graph(edges, n)
        shares = normalize_edges(g, range(n))
        totals = {}
        for s in shares:
            totals[s.src] = totals.get(s.src, 0.0) + s.value
        for v in range(n):
            assert abs(totals[v] - 1.0) <= 1e-12


# ------------------------------------------------------------ threshold update


def oracle_update(n_value, local_sum, lam):
    base = local_sum if local_sum > 0 else 1.0
    if n_value < lam:
        return (n_value / (1.0 - n_value)) * base
    return (lam / (1.0 - lam)) * base


def test_update_edge_matches_oracle_exactly():
    for n_value in np.linspace(1e-6, 1 - 1e-6, 997):
        for local_sum in (0.0, 0.25, 1.0, 3.7, 12.0):
            for lam in (0.25, 0.5, 0.9):
                assert update_edge(float(n_value), local_sum, lam) == \
                    oracle_update(float(n_value), local_sum, lam)


def test_update_edge_threshold_boundary():
    # exactly at lam the cap branch applies
    assert update_edge(0.5, 2.0, 0.5) == 2.0
    below = 0.5 - 1e-12
    assert update_edge(below, 2.0, 0.5) == (below / (1 - below)) * 2.0
    # above lam the value no longer matters
    assert update_edge(0.9, 2.0, 0.5) == update_edge(0.6, 2.0, 0.5) == 2.0


def test_update_edge_zero_sum_falls_back_to_unit_base():
    assert update_edge(0.2, 0.0, 0.5) == pytest.approx(0.25)


def test_update_edge_monotone_in_share():
    rng = np.random.default_rng(8)
    for _ in range(200):
        lam = float(rng.uniform(0.1, 0.9))
        s = float(rng.uniform(0, 5))
        a, b = sorted(rng.uniform(0, 1, size=2))
        assert update_edge(a, s, lam) <= update_edge(b, s, lam) + 1e-15


# -------------------------------------------------------------- k-hop shares


def oracle_khop(graph, common, k):
    """Independent path enumeration via networkx simple paths."""
    g = nx.Graph()
    g.add_nodes_from(graph.vertices)
    edges = edge_dict(graph.edges)
    for (u, v), w in edges.items():
        if w > 0:
            g.add_edge(u, v, weight=w)
    sums = {v: 0.0 for v in graph.vertices}
    neighbor_sets = {v: set() for v in graph.vertices}
    for (u, v), w in edges.items():
        sums[u] += w
        sums[v] += w
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    expected = []
    for i in sorted(common):
        best = {2: {}, 3: {}}
        for j in g.nodes:
            if j == i or j not in common or j in neighbor_sets[i]:
                continue
            for path in nx.all_simple_paths(g, i, j, cutoff=k):
                h = len(path) - 1
                if h < 2:
                    continue
                prod = 1.0
                for a, b in zip(path, path[1:]):
                    prod *= g[a][b]["weight"] / sums[a]
                if prod > best[h].get(j, 0.0):
                    best[h][j] = prod
        for j in sorted(best[2]):
            expected.append((i, j, 2, min(best[2][j], TOP)))
        if k == 3:
            for j in sorted(best[3]):
                if j not in best[2]:
                    expected.append((i, j, 3, min(best[3][j], TOP)))
    return expected


def test_khop_hand_case_two_hops():
    g = make_graph({(0, 1): 1.5, (1, 2): 0.5}, 3)
    shares = khop_shares(g, [0, 2], 2)
    assert [(s.src, s.dst, s.hops) for s in shares] == [(0, 2, 2), (2, 0, 2)]
    assert shares[0].value == pytest.approx((1.5 / 1.5) * (0.5 / 2.0))
    assert shares[1].value == pytest.approx((0.5 / 0.5) * (1.5 / 2.0))


def test_khop_hand_case_three_hops():
    g = make_graph({(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0}, 4)
    assert len(khop_shares(g, [0, 3], 2)) == 0
    shares = khop_shares(g, [0, 3], 3)
    assert [(s.src, s.dst, s.hops) for s in shares] == [(0, 3, 3), (3, 0, 3)]
    # path 0-1-2-3: (1/1) * (1/2) * (1/2)
    assert shares[0].value == pytest.approx(0.25)


def test_khop_takes_max_over_paths():
    g = make_graph({(0, 1): 1.0, (1, 3): 1.0, (0, 2): 1.0, (2, 3): 4.0}, 4)
    shares = khop_shares(g, [0, 3], 2)
    by_pair = {(s.src, s.dst): s.value for s in shares}
    # via 1: (1/2)*(1/2) = 0.25; via 2: (1/2)*(4/5) = 0.4
    assert by_pair[(0, 3)] == pytest.approx(0.4)


def test_khop_skips_direct_edges_and_noncommon():
    g = make_graph({(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0}, 3)
    assert len(khop_shares(g, [0, 1, 2], 2)) == 0  # triangle: all pairs direct
    g2 = make_graph({(0, 1): 1.0, (1, 2): 1.0}, 3)
    assert len(khop_shares(g2, [0, 1], 2)) == 0    # 2 not common


def test_khop_two_hops_preempt_three_hops():
    # 0-1-4 (two hops) and 0-2-3-4 (three hops): only the 2-hop share emits
    g = make_graph({(0, 1): 1.0, (1, 4): 1.0, (0, 2): 1.0, (2, 3): 1.0,
                    (3, 4): 1.0}, 5)
    shares = khop_shares(g, [0, 4], 3)
    assert [(s.src, s.dst, s.hops) for s in shares] == [(0, 4, 2), (4, 0, 2)]


def test_khop_matches_path_enumeration_oracle():
    rng = np.random.default_rng(12)
    for trial in range(20):
        g = random_sparse_graph(rng, 8, p=0.35)
        common = random_common(rng, g)
        for k in (2, 3):
            got = [(s.src, s.dst, s.hops, s.value)
                   for s in khop_shares(g, common, k)]
            expected = oracle_khop(g, common, k)
            assert [(a, b, h) for a, b, h, _ in got] == \
                [(a, b, h) for a, b, h, _ in expected], f"trial {trial} k={k}"
            for (_, _, _, va), (_, _, _, vb) in zip(got, expected):
                assert va == pytest.approx(vb, abs=1e-13)


def test_khop_matches_loop_reference_bitwise():
    rng = np.random.default_rng(42)
    for _ in range(15):
        g = random_sparse_graph(rng, 14, p=0.3)
        common = random_common(rng, g)
        for k in (2, 3):
            assert as_tuples(khop_shares(g, common, k)) == \
                loop_khop_shares(g, common, k), k


def test_khop_zero_weight_edge_blocks_share_but_carries_no_path():
    # 0-1 has weight 0: the pair counts as direct, and 0-1-3 is no path, so
    # 0 and 3 meet only through 0-2-1-3
    g = make_graph({(0, 1): 0.0, (0, 2): 1.0, (1, 2): 1.0, (1, 3): 1.0}, 4)
    shares = khop_shares(g, [0, 1, 3], 3)
    assert [(s.src, s.dst, s.hops) for s in shares] == [(0, 3, 3), (3, 0, 3)]
    assert [s.value for s in shares] == [0.25, 0.25]


def test_khop_k_validated():
    with pytest.raises(ValueError):
        khop_shares(make_graph({}, 2), [0, 1], 1)


# ------------------------------------------------------------------ dp noise


def make_shares(values):
    return batch((0, 1, v) for v in values)


def test_apply_dp_infinite_epsilon_is_identity():
    shares = make_shares([0.1, 0.5, 0.9])
    assert apply_dp(shares, math.inf, seed=3) is shares
    assert [s.value for s in shares] == [0.1, 0.5, 0.9]


def test_apply_dp_finite_epsilon_leaves_its_input_unchanged():
    shares = make_shares([0.1, 0.5, 0.9])
    before = shares.tobytes()
    noisy = apply_dp(shares, 1.0, seed=3)
    assert not np.shares_memory(noisy, shares)
    assert (noisy.value != shares.value).all()
    assert shares.tobytes() == before


def test_apply_dp_deterministic_and_clamped():
    shares = make_shares(list(np.linspace(0, 1 - 1e-6, 50)))
    a = apply_dp(shares, 2.0, seed=11)
    b = apply_dp(shares, 2.0, seed=11)
    assert [s.value for s in a] == [s.value for s in b]
    c = apply_dp(shares, 2.0, seed=12)
    assert [s.value for s in a] != [s.value for s in c]
    for s in a:
        assert 0.0 <= s.value <= TOP


def test_apply_dp_noise_scale_tracks_epsilon():
    shares = make_shares([0.5] * 4000)
    eps = 50.0  # scale small enough that clamping is immaterial
    noisy = apply_dp(shares, eps, seed=5)
    deltas = np.array([abs(s.value - 0.5) for s in noisy])
    assert 0.5 / eps < deltas.mean() < 2.0 / eps


def test_apply_dp_matches_per_share_draws():
    rng = np.random.default_rng(43)
    shares = batch(zip(rng.integers(0, 50, 300), rng.integers(50, 99, 300),
                       rng.uniform(0, TOP, 300), rng.integers(1, 4, 300)))
    for epsilon in (0.5, 1.0, 20.0):
        got = [(s.src, s.dst, s.value, s.hops)
               for s in apply_dp(shares, epsilon, seed=17)]
        assert got == loop_apply_dp(shares, epsilon, 17)


def test_apply_dp_preserves_everything_but_value():
    out = apply_dp(batch([(3, 9, 0.4, 2)]), 1.0, seed=0)[0]
    assert (out.src, out.dst, out.hops) == (3, 9, 2)


def test_apply_dp_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        apply_dp(batch([]), 0.0)
    with pytest.raises(ValueError):
        apply_dp(batch([]), -1.0)


def test_apply_dp_empty_batch():
    for epsilon in (math.inf, 1.0):
        out = apply_dp(batch([]), epsilon, seed=4)
        assert isinstance(out, np.recarray)
        assert out.dtype == SHARE_DTYPE
        assert len(out) == 0


def test_fusion_config_validation():
    with pytest.raises(ValueError):
        FusionConfig(lam=0.0)
    with pytest.raises(ValueError):
        FusionConfig(lam=1.0)
    with pytest.raises(ValueError):
        FusionConfig(hops=4)
    with pytest.raises(ValueError):
        FusionConfig(dp_epsilon=0.0)
    assert FusionConfig().dp_epsilon == math.inf
    assert FusionConfig().psi is None


# --------------------------------------------------------------------- fuse


def cfg(lam=0.5, **kw):
    return FusionConfig(lam=lam, **kw)


def test_fuse_materializes_remote_edge_single_orientation():
    local = make_graph({(0, 1): 4.0}, 4)
    incoming = batch([(2, 3, 0.2)])
    fused = fuse(local, incoming, cfg())
    edges = edge_dict(fused.edges)
    tags = edge_dict(fused.edges, edge_origins(local, fused, incoming))
    # both endpoints have no local edges -> unit base; borrowed orientation
    assert edges[(2, 3)] == pytest.approx(0.2 / 0.8)
    assert tags[(2, 3)] == "fused"
    assert edges[(0, 1)] == 4.0
    assert tags[(0, 1)] == "local"


def test_fuse_averages_per_orientation_and_takes_max():
    local = make_graph({(0, 1): 4.0}, 2)
    incoming = batch([(0, 1, 0.4), (0, 1, 0.2), (1, 0, 0.6)])
    fused = fuse(local, incoming, cfg())
    # orientation 0->1 averages to 0.3 -> (0.3/0.7)*4; 1->0 is 0.6 -> capped 4.0
    # max(local 4.0, 12/7, 4.0) = 4.0
    assert edge_dict(fused.edges) == {(0, 1): 4.0}
    assert edge_origins(local, fused, incoming).tolist() == ["both"]


def test_fuse_averages_three_senders_in_list_order():
    local = make_graph({(0, 1): 0.5, (1, 2): 1.5}, 3)
    incoming = batch((0, 1, v) for v in (0.1, 0.2, 0.6))
    fused = fuse(local, incoming, cfg())
    mean = (0.1 + 0.2 + 0.6) / 3
    # src 0: (mean/(1-mean))*0.5; borrowed src 1: (mean/(1-mean))*2.0 wins
    assert edge_dict(fused.edges) == {(0, 1): (mean / (1.0 - mean)) * 2.0,
                                      (1, 2): 1.5}
    assert edge_origins(local, fused, incoming).tolist() == ["both", "local"]


def test_fuse_matches_loop_reference_bitwise():
    rng = np.random.default_rng(44)
    for _ in range(20):
        local = random_sparse_graph(rng, 10)
        ids = sorted(local.vertices)
        # about 30% of the values are 0, so some pairs have only zero
        # candidates
        values = np.where(rng.random(40) < 0.3, 0.0, rng.uniform(0, TOP, 40))
        incoming = batch(
            (ids[a], ids[b], v)
            for a, b, v in zip(rng.integers(0, 10, 40), rng.integers(0, 10, 40),
                               values) if a != b)
        for lam in (0.3, 0.5, 0.8):
            fused = fuse(local, incoming, cfg(lam=lam))
            edges, origins = loop_fuse(local, incoming, lam)
            assert edge_dict(fused.edges) == edges
            assert list(edge_dict(fused.edges)) == sorted(edges)
            assert edge_dict(fused.edges,
                             edge_origins(local, fused, incoming)) == origins


def test_fuse_remote_evidence_can_raise_local_weight():
    local = make_graph({(0, 1): 0.5, (1, 2): 1.5}, 3)
    incoming = batch([(0, 1, 0.4)])
    fused = fuse(local, incoming, cfg())
    # src 0: (0.4/0.6)*0.5 = 1/3; borrowed src 1: (0.4/0.6)*2.0 = 4/3
    assert edge_dict(fused.edges)[(0, 1)] == pytest.approx(4.0 / 3.0)
    assert edge_dict(fused.edges,
                     edge_origins(local, fused, incoming))[(0, 1)] == "both"


def test_fuse_never_reduces_local_evidence():
    rng = np.random.default_rng(14)
    for _ in range(10):
        local = random_graph(rng, 6, p=0.5)
        incoming = batch((a, b, rng.uniform(0, 0.95))
                         for a, b in rng.integers(0, 6, size=(12, 2)) if a != b)
        fused = fuse(local, incoming, cfg())
        local_edges, fused_edges = edge_dict(local.edges), edge_dict(fused.edges)
        for key, w in local_edges.items():
            assert fused_edges[key] >= w
        for key, w in fused_edges.items():
            assert w >= local_edges.get(key, 0.0)


def test_fuse_cap_bounds_fused_weight():
    rng = np.random.default_rng(15)
    lam = 0.5
    for _ in range(10):
        local = random_graph(rng, 6, p=0.5)
        sums = incident_sums(local)
        incoming = batch((a, b, rng.uniform(0, 0.999999))
                         for a, b in rng.integers(0, 6, size=(15, 2)) if a != b)
        fused = fuse(local, incoming, cfg(lam=lam))
        cap_ratio = lam / (1 - lam)
        local_edges = edge_dict(local.edges)
        for (u, v), w in edge_dict(fused.edges).items():
            bound = max(local_edges.get((u, v), 0.0),
                        cap_ratio * max(sums[u], sums[v], 1.0))
            assert w <= bound + 1e-12


def test_fuse_rejects_protocol_violations():
    local = make_graph({}, 3)
    with pytest.raises(ValueError, match="unknown to client"):
        fuse(local, batch([(0, 9, 0.1)]), cfg())
    with pytest.raises(ValueError, match="self-referential"):
        fuse(local, batch([(1, 1, 0.1)]), cfg())


def test_fuse_without_incoming_is_identity_with_local_tags():
    local = make_graph({(0, 1): 2.0, (1, 2): 3.0}, 3)
    fused = fuse(local, batch([]), cfg())
    assert edge_dict(fused.edges) == edge_dict(local.edges)
    assert edge_origins(local, fused, batch([])).tolist() == ["local", "local"]
    assert fused.relation_name == local.relation_name
    assert fused.vertices is local.vertices


def test_fuse_returns_sorted_edge_array_with_aligned_provenance():
    local = make_graph({(0, 3): 1.0, (1, 2): 2.0}, 5)
    incoming = batch([(4, 2, 0.3), (2, 1, 0.5), (0, 4, 0.1)])
    fused = fuse(local, incoming, cfg())
    assert type(fused) is ClientGraph
    assert isinstance(fused.edges, np.recarray)
    assert fused.edges.dtype == EDGE_DTYPE
    assert list(edge_dict(fused.edges)) == [(0, 3), (0, 4), (1, 2), (2, 4)]
    assert edge_origins(local, fused, incoming).tolist() == [
        "local", "fused", "both", "fused"]


def test_fuse_zero_candidate_adds_no_edge_and_keeps_local_zero_edge():
    local = make_graph({(0, 1): 0.0, (1, 2): 1.0, (3, 4): 0.0}, 5)
    incoming = batch([(0, 1, 0.0), (2, 3, 0.0), (3, 2, 0.0),
                      (0, 2, 0.0), (2, 0, 0.4)])
    fused = fuse(local, incoming, cfg())
    # (2, 3) had only zero shares; (0, 2) has one positive orientation
    assert edge_dict(fused.edges, edge_origins(local, fused, incoming)) == {
        (0, 1): "both", (0, 2): "fused", (1, 2): "local", (3, 4): "local"}
    assert edge_dict(fused.edges)[(0, 1)] == 0.0
    assert edge_dict(fused.edges)[(3, 4)] == 0.0


# ------------------------------------------------------------- fusion round


def three_clients():
    a = make_graph({(0, 1): 1.0, (1, 2): 2.0}, 5, name="a")
    b = make_graph({(1, 2): 3.0, (2, 3): 1.0}, 5, name="b")
    c = make_graph({(3, 4): 2.0}, 5, name="c")
    return [a, b, c]


def test_fusion_round_share_traffic_and_output_order():
    clients = three_clients()
    fused, shares = virtual_fusion_round(clients, cfg(seed=1))
    assert [g.relation_name for g in fused] == ["a", "b", "c"]
    assert set(shares) == {(x, y) for x in "abc" for y in "abc" if x != y}
    # a's vertex sums: 0 -> 1.0, 1 -> 3.0, 2 -> 2.0
    sent = {(s.src, s.dst): s.value for s in shares[("a", "b")]}
    assert sent[(0, 1)] == TOP  # 1.0/1.0 clamped
    assert sent[(1, 0)] == pytest.approx(1.0 / 3.0)
    assert sent[(1, 2)] == pytest.approx(2.0 / 3.0)
    assert sent[(2, 1)] == TOP  # 2.0/2.0 clamped
    # each receiver fuses its batches concatenated in sender order
    assert received(shares, "b").tobytes() == np.concatenate(
        [shares[("a", "b")], shares[("c", "b")]]).tobytes()
    for client, graph in zip(clients, fused):
        want = fuse(client, received(shares, client.relation_name), cfg(seed=1))
        assert graph.edges.tobytes() == want.edges.tobytes()


def test_fusion_round_fused_edge_value_hand_check():
    clients = three_clients()
    fused, shares = virtual_fusion_round(clients, cfg(seed=1))
    c_fused = fused[2]
    # client c receives (2,3) only from b: N(2->3) = 1/4, N(3->2) = 1.0-
    # c's sums: 3 -> 2.0, 2 -> 0.0 (unit base)
    # candidates: src 2: (0.25/0.75)*1 = 1/3; src 3: capped 1.0 * 2.0 = 2.0
    edges = edge_dict(c_fused.edges)
    assert edges[(2, 3)] == pytest.approx(2.0)
    origins = edge_origins(clients[2], c_fused, received(shares, "c"))
    assert edge_dict(c_fused.edges, origins)[(2, 3)] == "fused"
    assert edges[(3, 4)] == 2.0  # local evidence kept


def test_fusion_round_needs_two_clients_and_unique_names():
    with pytest.raises(ValueError, match="at least 2"):
        virtual_fusion_round([three_clients()[0]], cfg())
    twins = [three_clients()[0], three_clients()[0]]
    with pytest.raises(ValueError, match="unique"):
        virtual_fusion_round(twins, cfg())


def test_fusion_round_ddh_equals_plain():
    clients = three_clients()
    fused_plain, shares_plain = virtual_fusion_round(clients, cfg(seed=2))
    fused_ddh, shares_ddh = virtual_fusion_round(
        clients, cfg(seed=2, psi=PsiBackend.ddh_small()))
    for client, fp, fd in zip(clients, fused_plain, fused_ddh):
        assert np.array_equal(fp.edges, fd.edges)
        name = client.relation_name
        assert np.array_equal(
            edge_origins(client, fp, received(shares_plain, name)),
            edge_origins(client, fd, received(shares_ddh, name)))


def overlapping_clients(rng):
    """Three clients whose vertex sets, 35 ids each given unsorted, are drawn
    from one 60-id universe, so every pair overlaps only in part."""
    universe = rng.choice(1000, size=60, replace=False)
    clients = []
    for name in "abc":
        ids = rng.choice(universe, size=35, replace=False)
        ordered = np.sort(ids).tolist()
        edges = {(u, v): float(rng.uniform(0.1, 2.0))
                 for a, u in enumerate(ordered) for v in ordered[a + 1:]
                 if rng.random() < 0.15}
        clients.append(ClientGraph(relation_name=name, vertices=ids,
                                   edges=edge_array(edges)))
    return clients


@pytest.mark.parametrize("hops", [1, 2])
def test_fusion_round_over_partial_vertex_overlap(hops, monkeypatch):
    clients = overlapping_clients(np.random.default_rng(70 + hops))
    by_name = {c.relation_name: c for c in clients}
    seen = {}
    real_intersection = fusion_module._pair_intersection

    def recording(a, b, fusion_cfg):
        seen[(a.relation_name, b.relation_name)] = got = real_intersection(
            a, b, fusion_cfg)
        return got

    monkeypatch.setattr(fusion_module, "_pair_intersection", recording)
    fused_by_psi, origins_by_psi = {}, {}
    for name, backend in (("plain", None), ("ddh", PsiBackend.ddh_small())):
        seen.clear()
        fused, shares = virtual_fusion_round(
            clients, cfg(seed=6, hops=hops, dp_epsilon=1.0, psi=backend))
        fused_by_psi[name] = fused
        origins_by_psi[name] = [
            edge_origins(c, g, received(shares, c.relation_name))
            for c, g in zip(clients, fused)]
        assert sorted(seen) == [("a", "b"), ("a", "c"), ("b", "c")]
        for (a, b), sides in seen.items():
            overlap = sorted(set(by_name[a].vertices.tolist())
                             & set(by_name[b].vertices.tolist()))
            assert 0 < len(overlap) < 35
            for side in sides:
                assert side.tolist() == overlap
        assert len(shares) == 6 and all(len(sent) for sent in shares.values())
        for (_, receiver), sent in shares.items():
            ids = by_name[receiver].vertices
            assert np.isin(sent.src, ids).all() and np.isin(sent.dst, ids).all()
        for client, graph in zip(clients, fused):
            assert graph.vertices is client.vertices
            assert np.isin(graph.edges.u, client.vertices).all()
            assert np.isin(graph.edges.v, client.vertices).all()
        assert any(len(g.edges) > len(c.edges) for c, g in zip(clients, fused))
    for fp, fd in zip(fused_by_psi["plain"], fused_by_psi["ddh"]):
        assert fp.edges.tobytes() == fd.edges.tobytes()
    for op, od in zip(origins_by_psi["plain"], origins_by_psi["ddh"]):
        assert np.array_equal(op, od)


def test_fusion_round_runs_psi_once_per_unordered_pair(monkeypatch):
    calls = []
    real_psi = fusion_module.psi_ddh

    def counting_psi(*args, **kwargs):
        calls.append((kwargs["name_a"], kwargs["name_b"]))
        return real_psi(*args, **kwargs)

    monkeypatch.setattr(fusion_module, "psi_ddh", counting_psi)
    _, shares = virtual_fusion_round(three_clients(),
                                     cfg(seed=2, psi=PsiBackend.ddh_small()))
    assert calls == [("a", "b"), ("a", "c"), ("b", "c")]
    assert len(shares) == 6


def test_fusion_round_deterministic_with_noise():
    clients = three_clients()
    f1, _ = virtual_fusion_round(clients, cfg(seed=3, dp_epsilon=2.0))
    f2, _ = virtual_fusion_round(clients, cfg(seed=3, dp_epsilon=2.0))
    f3, _ = virtual_fusion_round(clients, cfg(seed=4, dp_epsilon=2.0))
    assert [edge_dict(g.edges) for g in f1] == [edge_dict(g.edges) for g in f2]
    assert [edge_dict(g.edges) for g in f1] != [edge_dict(g.edges) for g in f3]


def test_fusion_round_share_batches_are_record_arrays():
    rng = np.random.default_rng(45)
    clients = [random_graph(rng, 9, p=0.25, name=name) for name in "abc"]
    for hops in (1, 2, 3):
        for epsilon in (math.inf, 1.0):
            _, shares = virtual_fusion_round(
                clients, cfg(seed=5, hops=hops, dp_epsilon=epsilon))
            for pair, sent in shares.items():
                assert isinstance(sent, np.recarray), pair
                assert sent.dtype == SHARE_DTYPE
                assert sent.dtype.names == SHARE_DTYPE.names
                rows = [(s.src, s.dst, s.hops, s.value) for s in sent]
                assert len(rows) == len(sent) > 0
            assert max(int(sent.hops.max()) for sent in shares.values()) == hops


def zeroed_pairs(receiver, shares):
    """Pairs that are no edge of the receiver and whose incoming shares all
    came to 0."""
    values = {}
    for (_, to), sent in shares.items():
        if to == receiver.relation_name:
            for s in sent:
                pair = (min(s.src, s.dst), max(s.src, s.dst))
                values.setdefault(pair, []).append(s.value)
    local = edge_dict(receiver.edges)
    return {pair for pair, got in values.items()
            if pair not in local and not any(got)}


def test_fusion_round_noise_leaves_pairs_and_drops_only_zeroed_edges():
    # the noise perturbs share values only, so the sent pairs are the same at
    # every epsilon; the fused edge set loses exactly the pairs whose shares
    # were all clamped to 0
    rng = np.random.default_rng(46)
    clients = [random_graph(rng, 12, p=0.3, name=name) for name in "abc"]
    runs = [virtual_fusion_round(clients, cfg(seed=6, hops=2, dp_epsilon=eps))
            for eps in (math.inf, 1.0, 0.1)]
    (clean, clean_shares), noisy_runs = runs[0], runs[1:]
    for fused, shares in noisy_runs:
        dropped = [zeroed_pairs(client, shares) for client in clients]
        assert any(dropped)
        assert [set(edge_dict(g.edges)) for g in fused] == [
            set(edge_dict(g.edges)) - gone for g, gone in zip(clean, dropped)]
        for pair, sent in shares.items():
            assert (sent.src == clean_shares[pair].src).all()
            assert (sent.dst == clean_shares[pair].dst).all()
            assert (sent.value != clean_shares[pair].value).any()


def test_fusion_round_khop_adds_shares():
    clients = three_clients()
    _, shares1 = virtual_fusion_round(clients, cfg(seed=1, hops=1))
    _, shares2 = virtual_fusion_round(clients, cfg(seed=1, hops=2))
    # a has a 2-hop path 0-1-2; pair (0,2) only appears with hops=2
    pairs1 = {(s.src, s.dst) for s in shares1[("a", "b")]}
    pairs2 = {(s.src, s.dst) for s in shares2[("a", "b")]}
    assert (0, 2) not in pairs1
    assert (0, 2) in pairs2
    assert {s.hops for s in shares2[("a", "b")]} == {1, 2}


def test_write_shares_format(tmp_path):
    shares = batch([(0, 2, 0.125, 2)])
    path = tmp_path / "shares.csv"
    write_shares(shares, path, "a")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "a,0,2,2,0.125"


def test_write_shares_matches_per_line_format_across_chunks(tmp_path,
                                                            monkeypatch):
    rng = np.random.default_rng(4)
    # -0.0 and 0.0 share a chunk; a writer that told floats apart by value
    # would give both the same text
    values = [-0.0, 0.0, 0.1 + 0.2, 5e-324, 1.0, 1e16, 1e-05, np.nan, np.inf,
              -np.inf, 1 / 3, 2.5e-17, 0.999999, 0.0, -0.0]
    m = len(values)
    shares = batch([(int(a), int(b), v, int(h)) for a, b, v, h in zip(
        rng.integers(0, 50, m), rng.integers(0, 50, m), values,
        rng.integers(1, 4, m))])
    want = "# sender,src,dst,hops,value\n" + "".join(
        f"rel_0%s,{s},{d},{h},{v!r}\n" for s, d, h, v in shares.tolist())
    for chunk_rows in (1, 3):
        monkeypatch.setattr("twosfgl.data.WRITE_CHUNK_ROWS", chunk_rows)
        path = tmp_path / "shares.csv"
        write_shares(shares, path, "rel_0%s")
        assert path.read_text() == want, chunk_rows


def test_write_tags_matches_per_line_format_across_chunks(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    local = random_sparse_graph(rng, 12)
    ids = sorted(local.vertices)
    incoming = batch((ids[a], ids[b], v) for a, b, v in zip(
        rng.integers(0, 12, 30), rng.integers(0, 12, 30),
        rng.uniform(0, TOP, 30)) if a != b)
    fused = fuse(local, incoming, cfg())
    origins = edge_origins(local, fused, incoming)
    assert {"local", "both", "fused"} <= set(origins.tolist())
    want = "# src,dst,origin\n" + "".join(
        f"{u},{v},{tag}\n" for (u, v, _), tag in zip(fused.edges.tolist(),
                                                    origins.tolist()))
    for chunk_rows in (1, 3):
        monkeypatch.setattr("twosfgl.data.WRITE_CHUNK_ROWS", chunk_rows)
        write_tags(fused, origins, tmp_path / "tags.csv")
        assert (tmp_path / "tags.csv").read_text() == want, chunk_rows


# -------------------------------------------- set operations against np.unique
# References: khop_shares and fuse as they were written with numpy's
# np.unique and np.union1d, before the sort-based merges.

def unique_khop_shares(graph, common, k):
    csr, is_common, steps = fusion_module._sender_view(graph, common)
    n = len(csr.nodes)
    taken = csr.rows * n + csr.indices
    src = np.flatnonzero(is_common)
    walk, end, product = fusion_module._extend(csr, steps, src, np.ones(len(src)))
    src = src[walk]
    found = []
    for hops in range(2, k + 1):
        walk, end, product = fusion_module._extend(csr, steps, end, product)
        src = src[walk]
        pair = src * n + end
        new = (end != src) & is_common[end] & ~fusion_module._find(taken, pair)[1]
        order = np.flatnonzero(new)[np.lexsort((-product[new], pair[new]))]
        keys, first = np.unique(pair[order], return_index=True)
        found.append((keys, product[order][first], np.full(len(keys), hops)))
        taken = np.union1d(taken, keys)
    keys, best, hops = (np.concatenate(part) for part in zip(*found))
    order = np.lexsort((keys, hops, keys // n))
    keys = keys[order]
    return fusion_module._shares(graph, keys // n, keys % n, best[order],
                                 hops[order])


def unique_fuse(local, incoming, lam):
    """(edges, origins) of ``fuse``."""
    csr = local.neighbor_csr
    n = len(csr.nodes)
    (src, dst), _ = fusion_module._find(csr.nodes,
                                        np.stack([incoming.src, incoming.dst]))
    oriented, group = np.unique(src * n + dst, return_inverse=True)
    means = np.bincount(group, weights=incoming.value) / np.bincount(group)
    heads, tails = oriented // n, oriented % n
    pairs = np.unique(np.minimum(heads, tails) * n + np.maximum(heads, tails))
    u, v = pairs // n, pairs % n
    forward, has_forward = fusion_module._find(oriented, pairs)
    backward, has_backward = fusion_module._find(oriented, v * n + u)
    sums = incident_sums(local)
    candidate = np.maximum(
        update_edge(means[np.where(has_forward, forward, backward)], sums[u], lam),
        update_edge(means[np.where(has_backward, backward, forward)], sums[v], lam))
    entries = csr.rows * n + csr.indices
    at, in_local = fusion_module._find(entries, pairs)
    local_weight = np.zeros(len(pairs))
    local_weight[in_local] = csr.weights[at[in_local]]
    keep = in_local | (candidate > 0)
    upper = csr.rows < csr.indices
    keys, first = np.unique(np.concatenate([pairs[keep], entries[upper]]),
                            return_index=True)
    weight = np.concatenate([np.maximum(local_weight, candidate)[keep],
                             csr.weights[upper]])
    origins = np.concatenate([np.where(in_local, "both", "fused")[keep],
                              np.full(len(local.edges), "local")])
    edges = np.rec.fromarrays(
        [csr.nodes[keys // n], csr.nodes[keys % n], weight[first]],
        dtype=EDGE_DTYPE)
    return edges, origins[first]


def random_graph_on(rng, ids, p, name):
    """A graph over the vertex ids ``ids``, about a fifth of its edges at 0."""
    return ClientGraph(relation_name=name, vertices=ids,
                       edges=edge_array({
                           (u, v): (0.0 if rng.random() < 0.2
                                    else float(rng.uniform(0.1, 2.0)))
                           for a, u in enumerate(ids) for v in ids[a + 1:]
                           if rng.random() < p}))


def test_sort_based_set_operations_match_the_unique_formulas():
    rng = np.random.default_rng(61)
    for trial in range(12):
        ids = sorted(int(i) for i in rng.choice(300, size=40, replace=False))
        local, *senders = (random_graph_on(rng, ids, 0.12, name)
                           for name in "abc")
        sent = []
        for sender in senders:
            common = random_common(rng, sender)
            for k in (2, 3):
                got = khop_shares(sender, common, k)
                want = unique_khop_shares(sender, common, k)
                assert got.dtype == want.dtype and len(got)
                assert got.tobytes() == want.tobytes(), (trial, k)
            sent.append(apply_dp(np.concatenate(
                [normalize_edges(sender, common), got]).view(np.recarray),
                1.0, seed=trial))
        incoming = np.concatenate(sent).view(np.recarray)
        assert (incoming.value == 0).any() and (incoming.value > 0).any()
        for lam in (0.3, 0.5):
            fused = fuse(local, incoming, cfg(lam=lam))
            edges, origins = unique_fuse(local, incoming, lam)
            assert fused.edges.tobytes() == edges.tobytes(), trial
            got = edge_origins(local, fused, incoming)
            assert got.dtype == origins.dtype
            assert got.tolist() == origins.tolist()
