import dataclasses
import itertools
import struct
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.special

from edge_arrays import edge_array, edge_dict
from twosfgl.data import EDGE_DTYPE, ClientGraph
from twosfgl.gnn import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, HIDDEN_UNITS,
                         NUM_CLASSES, ModelParams, adam_step, gcn_forward, init_adam, init_params,
                         loss_and_grads, normalized_adjacency, params_to_bytes,
                         sage_forward, sample_neighbor_means, softmax)


def make_graph(edges, n):
    return ClientGraph(relation_name="g", vertices=np.arange(n),
                       edges=edge_array(edges))


def random_setup(seed, n=7, features=3, p=0.45):
    rng = np.random.default_rng(seed)
    edges = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges[(u, v)] = float(rng.uniform(0.2, 2.0))
    graph = make_graph(edges, n)
    x = rng.standard_normal((n, features))
    labels = rng.integers(0, 2, size=n)
    return graph, x, labels


def gcn_inputs(graph, x):
    """The adjacency and the propagated features that gcn_forward takes."""
    adj = normalized_adjacency(graph)
    return adj, adj @ x


def dense(matrix):
    """A GraphCSR as a dense array, read without its ``rows``."""
    n = len(matrix.indptr) - 1
    out = np.zeros((n, n))
    out[np.repeat(np.arange(n), np.diff(matrix.indptr)), matrix.indices] = matrix.weights
    return out


def dense_normalized_adjacency(graph):
    nodes = sorted(graph.vertices)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    a = np.eye(n)
    for (u, v), w in edge_dict(graph.edges).items():
        a[index[u], index[v]] += w
        a[index[v], index[u]] += w
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return a * np.outer(inv_sqrt, inv_sqrt)


# ------------------------------------------------------------- adjacency


def test_normalized_adjacency_single_edge():
    g = make_graph({(0, 1): 1.0}, 2)
    m = dense(normalized_adjacency(g))
    assert np.allclose(m, [[0.5, 0.5], [0.5, 0.5]])


def test_normalized_adjacency_isolated_node_row():
    g = make_graph({(0, 1): 3.0}, 3)
    m = dense(normalized_adjacency(g))
    assert m[2, 2] == 1.0
    assert np.all(m[2, :2] == 0.0) and np.all(m[:2, 2] == 0.0)


def test_normalized_adjacency_matches_dense_oracle():
    rng = np.random.default_rng(4)
    graphs = [random_setup(seed, n=int(rng.integers(2, 10)))[0] for seed in range(8)]
    graphs += [random_setup(seed, n=n)[0] for seed in range(6) for n in (9, 40)]
    graphs += [product_test_graph(seed) for seed in range(4)]
    for g in graphs:
        # non-unit weights: with unit weights (d_u * w) * d_v rounds the same
        # both ways, and an asymmetric rounding order would not show
        assert (g.edges.weight != 1.0).all()
        m = dense(normalized_adjacency(g))
        assert np.allclose(m, dense_normalized_adjacency(g),
                           rtol=1e-14, atol=1e-15)
        assert np.array_equal(m, m.T)


def test_normalized_adjacency_spectral_radius_at_most_one():
    for seed in range(4):
        g, _, _ = random_setup(seed, n=8)
        m = dense(normalized_adjacency(g))
        eigs = np.linalg.eigvalsh(m)
        assert eigs.max() <= 1.0 + 1e-12


def loop_normalized_adjacency(graph):
    """Reference: scipy's CSR of A + I from the edge dict's COO triplets,
    self-loops appended, with scipy's row sums for the degrees; each entry
    then takes the value (d_u * d_v) * w, one at a time, and the exact
    zeros are dropped."""
    nodes = sorted(graph.vertices)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    rows, cols, vals = [], [], []
    for (u, v), w in edge_dict(graph.edges).items():
        rows.extend((index[u], index[v]))
        cols.extend((index[v], index[u]))
        vals.extend((w, w))
    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend([1.0] * n)
    a_tilde = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    a_tilde.sort_indices()
    d_half = 1.0 / np.sqrt(np.asarray(a_tilde.sum(axis=1)).ravel())
    for u in range(n):
        for k in range(a_tilde.indptr[u], a_tilde.indptr[u + 1]):
            v = a_tilde.indices[k]
            a_tilde.data[k] = (d_half[u] * d_half[v]) * a_tilde.data[k]
    a_tilde.eliminate_zeros()
    return a_tilde


def test_normalized_adjacency_matches_loop_reference_bitwise():
    # rows longer than 8 entries, zero weights and non-contiguous ids: the
    # degree sums must add the same entries in the same order
    rng = np.random.default_rng(9)
    for _ in range(6):
        ids = rng.choice(200, size=30, replace=False)
        pairs = [(int(min(a, b)), int(max(a, b)))
                 for a, b in itertools.combinations(ids, 2) if rng.random() < 0.5]
        rng.shuffle(pairs)
        edges = {pair: 0.0 if rng.random() < 0.2 else float(rng.uniform(0.1, 3.0))
                 for pair in pairs}
        g = ClientGraph(relation_name="g", vertices=ids,
                        edges=edge_array(edges))
        got, ref = normalized_adjacency(g), loop_normalized_adjacency(g)
        assert got.nnz == ref.nnz < len(g.vertices) + 2 * len(edges)
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.weights, ref.data)


def product_test_graph(seed):
    """Non-contiguous ids, a hub row far longer than 8 entries, zero-weight
    edges (a zero-weight-only vertex among them) and isolated vertices."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(1000, size=60, replace=False)
    hub, zero_only, *rest = ids[:-4].tolist()
    pairs = {(min(hub, v), max(hub, v)) for v in rest}
    pairs |= {(int(min(a, b)), int(max(a, b)))
              for a, b in itertools.combinations(rest, 2) if rng.random() < 0.2}
    edges = {pair: 0.0 if rng.random() < 0.15 else float(rng.uniform(0.01, 5.0))
             for pair in pairs}
    edges[(min(hub, zero_only), max(hub, zero_only))] = 0.0
    return ClientGraph(relation_name="g", vertices=ids,
                       edges=edge_array(edges))


@pytest.mark.parametrize("width", [1, 2, 8])
def test_adjacency_products_match_scipy_bitwise(width):
    for seed in range(4):
        g = product_test_graph(seed)
        adj, ref = normalized_adjacency(g), loop_normalized_adjacency(g)
        x = np.random.default_rng(seed).standard_normal((len(g.vertices), width))
        x *= 10.0 ** np.random.default_rng(seed + 1).uniform(-6, 6, x.shape)
        got = adj @ x
        # A_hat is its own transpose, so one product serves the backward
        assert np.array_equal(got, ref @ x)
        assert np.array_equal(got, ref.T @ x)


def test_product_refuses_x_with_the_wrong_row_count():
    graph, x, _ = random_setup(2, n=5)
    adj = normalized_adjacency(graph)
    for rows in (3, 7):
        with pytest.raises(ValueError, match=f"x has {rows} rows, not 5"):
            adj @ np.ones((rows, 2))
    params = init_params("gcn", 3, seed=0)
    with pytest.raises(ValueError, match="x has 3 rows, not 5"):
        gcn_forward(params, adj, x[:3])


def test_normalized_adjacency_never_builds_its_rows():
    graph, x, labels = random_setup(4, n=20)
    params = init_params("gcn", x.shape[1], seed=0)
    adj, propagated = gcn_inputs(graph, x)
    _, cache = gcn_forward(params, adj, propagated)
    loss_and_grads(params, cache, labels, np.ones(20, dtype=bool))
    assert "rows" not in vars(adj)


def test_products_peak_below_one_and_a_half_terms_arrays_plus_output():
    # a product holds one nnz-length array of terms beside its output; a
    # gather into it that numpy buffered would hold a second one
    adj = normalized_adjacency(random_setup(0, n=300, p=0.1)[0])
    x = np.random.default_rng(1).standard_normal((300, 2))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = adj @ x
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * adj.nnz * 8 + out.nbytes


def test_adjacency_toarray_matches_dense_oracle_and_drops_only_zeros():
    for seed in range(4):
        g = product_test_graph(seed)
        adj = normalized_adjacency(g)
        oracle = dense_normalized_adjacency(g)
        assert len(adj.indptr) - 1 == len(g.vertices) == len(oracle)
        assert np.allclose(dense(adj), oracle, rtol=1e-14, atol=0.0)
        # every nonzero of the dense oracle is stored, nothing else is
        assert adj.nnz == np.count_nonzero(oracle)
        assert adj.nnz == len(g.vertices) + 2 * int((g.edges.weight > 0).sum())
        assert np.all(adj.weights != 0.0)


# ------------------------------------------------------------------ forward


def test_init_params_shapes_and_glorot_range():
    p = init_params("gcn", 10, seed=1, hidden=16)
    assert p.W1.shape == (10, 16) and p.W2.shape == (16, NUM_CLASSES)
    assert np.abs(p.W1).max() <= np.sqrt(6.0 / 26)
    assert np.abs(p.W2).max() <= np.sqrt(6.0 / (16 + NUM_CLASSES))
    q = init_params("sage", 10, seed=1, hidden=16)
    assert q.W1.shape == (20, 16)
    assert init_params("gcn", 4).W1.shape == (4, HIDDEN_UNITS)


def test_init_params_seeded():
    a = init_params("gcn", 5, seed=7)
    b = init_params("gcn", 5, seed=7)
    c = init_params("gcn", 5, seed=8)
    assert np.array_equal(a.W1, b.W1) and np.array_equal(a.W2, b.W2)
    assert not np.array_equal(a.W1, c.W1)
    with pytest.raises(ValueError):
        init_params("mlp", 5)


def test_gcn_forward_matches_dense_oracle():
    for seed in range(5):
        graph, x, _ = random_setup(seed)
        params = init_params("gcn", x.shape[1], seed=seed, hidden=4)
        logits, cache = gcn_forward(params, *gcn_inputs(graph, x))
        a = dense_normalized_adjacency(graph)
        hidden = np.maximum(a @ x @ params.W1, 0.0)
        expected = a @ hidden @ params.W2
        assert logits.shape == (len(graph.vertices), NUM_CLASSES)
        assert np.allclose(logits, expected, rtol=1e-12, atol=1e-13)
        assert cache.params is params
        assert np.allclose(cache.hidden, hidden, rtol=1e-12, atol=1e-13)


def test_gcn_forward_rejects_mismatched_width():
    graph, x, _ = random_setup(0)
    params = init_params("gcn", x.shape[1] + 1, seed=0)
    with pytest.raises(ValueError, match="feature width"):
        gcn_forward(params, *gcn_inputs(graph, x))
    # sage params have 2F first-layer rows
    with pytest.raises(ValueError, match="width 3 does not match W1 rows 6"):
        gcn_forward(init_params("sage", 3), *gcn_inputs(graph, x))


def test_sample_neighbor_means_full_neighborhood():
    g = make_graph({(0, 1): 1.0, (0, 2): 1.0}, 4)
    x = np.arange(8.0).reshape(4, 2)
    means = sample_neighbor_means(g, x, fanout=5, seed=0)
    assert np.array_equal(means[0], (x[1] + x[2]) / 2.0)
    assert np.array_equal(means[1], x[0])
    assert np.array_equal(means[3], np.zeros(2))   # isolated


def test_sample_neighbor_means_samples_a_subset():
    # star: node 0 has 6 neighbors, fanout 5 -> mean of some 5-subset
    g = make_graph({(0, i): 1.0 for i in range(1, 7)}, 7)
    x = np.random.default_rng(2).standard_normal((7, 3))
    candidates = [x[list(c)].mean(axis=0)
                  for c in itertools.combinations(range(1, 7), 5)]
    seen = set()
    for seed in range(12):
        got = sample_neighbor_means(g, x, fanout=5, seed=seed)[0]
        matches = [i for i, c in enumerate(candidates)
                   if np.allclose(got, c, rtol=0, atol=1e-15)]
        assert len(matches) == 1
        seen.add(matches[0])
    assert len(seen) > 1  # sampling actually varies across seeds
    assert np.array_equal(sample_neighbor_means(g, x, fanout=5, seed=3),
                          sample_neighbor_means(g, x, fanout=5, seed=3))


def test_sample_neighbor_means_validates_fanout():
    g = make_graph({}, 2)
    with pytest.raises(ValueError):
        sample_neighbor_means(g, np.zeros((2, 1)), fanout=0, seed=0)


def loop_neighbor_means(graph, x, fanout, seed):
    """Per-node reference of the sampler: the same uniform key per (node,
    neighbor) entry, the fanout smallest keys of each row, a plain mean."""
    nodes = sorted(graph.vertices)
    index = {v: i for i, v in enumerate(nodes)}
    keys = np.random.default_rng(seed).random(2 * len(graph.edges))
    out = np.zeros((len(nodes), x.shape[1]))
    offset = 0
    for row, v in enumerate(nodes):
        nbrs = sorted(index[b if a == v else a]
                      for a, b in edge_dict(graph.edges) if v in (a, b))
        row_keys = keys[offset:offset + len(nbrs)]
        offset += len(nbrs)
        if nbrs:
            keep = sorted(np.argsort(row_keys, kind="stable")[:fanout])
            out[row] = x[[nbrs[i] for i in keep]].mean(axis=0)
    return out


def test_sample_neighbor_means_matches_loop_reference():
    for seed in range(6):
        graph, x, _ = random_setup(seed, n=15, p=0.5)
        for fanout in (1, 3, 6, 20):
            assert np.array_equal(
                sample_neighbor_means(graph, x, fanout, seed),
                loop_neighbor_means(graph, x, fanout, seed)), (seed, fanout)


def lexsort_neighbor_means(graph, x, fanout, seed):
    """The sampler's picks through ``np.lexsort((keys, rows))``: the same
    uniform key per CSR entry, each row's fanout smallest keys, ties by entry
    index; row sums accumulate in entry order, as the CSR product does."""
    csr = graph.neighbor_csr
    rows, nnz = csr.rows, len(csr.indices)
    keys = np.random.default_rng(seed).random(nnz)
    by_key = np.lexsort((keys, rows))
    picked = np.zeros(nnz, dtype=bool)
    picked[by_key[np.arange(nnz) - csr.indptr[rows] < fanout]] = True
    sums = np.zeros((len(graph.vertices), x.shape[1]))
    np.add.at(sums, rows[picked], x[csr.indices[picked]])
    counts = np.minimum(np.diff(csr.indptr), fanout)
    return sums / np.maximum(counts, 1)[:, None]


def test_sample_neighbor_means_matches_lexsort_reference_bitwise():
    # n > 2^11, where a row << 53 composite key would overflow int64, plus
    # hub rows far above the fanout
    for seed, n in ((0, 40), (1, 300), (2, 3000)):
        rng = np.random.default_rng(seed)
        ends = rng.integers(0, n, size=(3 * n, 2))
        hubs = rng.choice(n, size=3, replace=False)
        hub_ends = np.stack([np.repeat(hubs, 60),
                             rng.integers(0, n, size=180)], axis=1)
        edges = {(int(min(u, v)), int(max(u, v))): 1.0
                 for u, v in np.concatenate([ends, hub_ends]) if u != v}
        graph = make_graph(edges, n)
        x = rng.standard_normal((n, 3))
        for fanout in (1, 5, 40):
            assert np.array_equal(
                sample_neighbor_means(graph, x, fanout, seed),
                lexsort_neighbor_means(graph, x, fanout, seed)), (n, fanout)


def test_sample_neighbor_means_tie_path_matches_lexsort_reference(monkeypatch):
    # keys drawn from 4 values: most keys tie, so the sampler must take the
    # stable sort; the reference draws the same patched keys
    draw = np.random.default_rng

    class TiedKeys:
        def __init__(self, seed):
            self.rng = draw(seed)

        def random(self, size):
            return self.rng.integers(0, 4, size=size) / 4.0

    for seed in range(4):
        graph, x, _ = random_setup(seed, n=30, p=0.5)
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", TiedKeys)
            for fanout in (1, 3, 7):
                assert np.array_equal(
                    sample_neighbor_means(graph, x, fanout, seed),
                    lexsort_neighbor_means(graph, x, fanout, seed)), fanout


def test_sample_neighbor_means_above_16_bit_rows_matches_lexsort_reference():
    # n > 65535 rows do not fit the 16-bit row type that numpy radix-sorts
    n = 70_000
    rng = np.random.default_rng(5)
    ends = rng.integers(0, n, size=(150_000, 2))
    hub_ends = np.stack([np.zeros(40, np.int64),
                         rng.integers(1, n, size=40)], axis=1)
    lo, hi = np.sort(np.concatenate([ends, hub_ends]), axis=1).T
    keys = np.unique(lo[lo != hi] * n + hi[lo != hi])
    graph = ClientGraph(relation_name="g", vertices=np.arange(n),
                        edges=np.rec.fromarrays(
                            [keys // n, keys % n, np.ones(len(keys))],
                            dtype=EDGE_DTYPE))
    x = rng.standard_normal((n, 2))
    for fanout in (1, 5):
        assert np.array_equal(sample_neighbor_means(graph, x, fanout, 9),
                              lexsort_neighbor_means(graph, x, fanout, 9))


def test_sample_neighbor_means_picks_hub_neighbors_uniformly():
    # one-hot features reveal which neighbors each draw picked
    deg, fanout, draws = 10, 3, 2000
    g = make_graph({(0, i): 1.0 for i in range(1, deg + 1)}, deg + 1)
    x = np.eye(deg + 1)
    hits = np.zeros(deg + 1)
    for seed in range(draws):
        picked = sample_neighbor_means(g, x, fanout, seed)[0] > 0
        assert picked.sum() == fanout
        hits += picked
    rate = fanout / deg
    # five binomial standard deviations of the observed rate
    tolerance = 5 * np.sqrt(rate * (1 - rate) / draws)
    assert hits[0] == 0
    assert np.all(np.abs(hits[1:] / draws - rate) <= tolerance), hits


def test_sample_neighbor_means_non_contiguous_vertices():
    g = ClientGraph(relation_name="g", vertices=[11, 2, 9, 5],
                    edges=edge_array({(2, 9): 1.0, (5, 9): 2.0}))
    x = np.array([[1.0, 10.0], [2.0, 20.0], [4.0, 40.0], [8.0, 80.0]])
    means = sample_neighbor_means(g, x, fanout=5, seed=0)
    assert np.array_equal(means, [x[2], x[2], (x[0] + x[1]) / 2.0, [0, 0]])
    singles = {tuple(sample_neighbor_means(g, x, fanout=1, seed=s)[2])
               for s in range(20)}
    assert singles == {tuple(x[0]), tuple(x[1])}


def test_sample_neighbor_means_zero_weight_edges_are_eligible():
    g = make_graph({(0, 1): 0.0, (0, 2): 1.0, (2, 3): 0.0}, 4)
    x = np.arange(8.0).reshape(4, 2)
    means = sample_neighbor_means(g, x, fanout=5, seed=0)
    assert np.array_equal(means[1], x[0])
    assert np.array_equal(means[3], x[2])
    picks = {tuple(sample_neighbor_means(g, x, fanout=1, seed=s)[0])
             for s in range(20)}
    assert picks == {tuple(x[1]), tuple(x[2])}


def test_sage_forward_matches_numpy_oracle():
    graph, x, _ = random_setup(3)
    params = init_params("sage", x.shape[1], seed=3, hidden=4)
    logits, cache = sage_forward(params, graph, x, fanout=10, seed=5)
    concat = np.concatenate(
        [x, sample_neighbor_means(graph, x, 10, 5)], axis=1)
    hidden = np.maximum(concat @ params.W1, 0.0)
    assert np.array_equal(logits, hidden @ params.W2)
    assert cache.adjacency is None
    assert np.array_equal(cache.inputs, concat)


def test_sage_forward_seed_controls_sampling():
    g = make_graph({(0, i): 1.0 for i in range(1, 8)}, 8)
    x = np.random.default_rng(0).standard_normal((8, 3))
    params = init_params("sage", 3, seed=0, hidden=4)
    l1, _ = sage_forward(params, g, x, fanout=3, seed=1)
    l2, _ = sage_forward(params, g, x, fanout=3, seed=1)
    l3, _ = sage_forward(params, g, x, fanout=3, seed=2)
    assert np.array_equal(l1, l2)
    assert not np.array_equal(l1, l3)
    # gcn params have F first-layer rows
    with pytest.raises(ValueError, match="width 6 does not match W1 rows 3"):
        sage_forward(init_params("gcn", 3), g, x, fanout=3)


def test_forward_caches_its_softmax():
    graph, x, _ = random_setup(6)
    gcn = gcn_forward(init_params("gcn", x.shape[1], seed=6),
                      *gcn_inputs(graph, x))
    sage = sage_forward(init_params("sage", x.shape[1], seed=6),
                        graph, x, fanout=3, seed=6)
    for logits, cache in (gcn, sage):
        assert np.array_equal(cache.probs, softmax(logits))


def test_softmax_matches_scipy_and_handles_extremes():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((20, 2)) * 3
    assert np.allclose(softmax(z), scipy.special.softmax(z, axis=1),
                       rtol=1e-14, atol=1e-15)
    big = softmax(np.array([[1000.0, -1000.0]]))
    assert np.isfinite(big).all()
    assert big[0, 0] == pytest.approx(1.0)
    assert np.allclose(softmax(z).sum(axis=1), 1.0)


def two_pass_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@pytest.mark.parametrize("width", [1, 2, 3, 7])
def test_softmax_matches_two_pass_formula_bitwise(width):
    rng = np.random.default_rng(width)
    z = rng.standard_normal((500, width)) * 10.0 ** rng.uniform(-3, 3, (500, 1))
    assert same_bits(softmax(z), two_pass_softmax(z))
    extremes = [1e308, -1e308, -np.inf, 0.0, -0.0, 1.0, 709.0, -745.0]
    z = np.array(list(itertools.product(extremes, repeat=min(width, 2))))
    z = np.concatenate([z, np.zeros((len(z), width - z.shape[1]))], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_bits(softmax(z), two_pass_softmax(z))
    equal = np.repeat(rng.standard_normal((50, 1)), width, axis=1)
    assert same_bits(softmax(equal), two_pass_softmax(equal))


def boolean_index_loss_and_grads(arch, params, cache, labels, mask):
    """The loss and gradients through boolean-mask indexing, on the arrays
    a forward left in ``cache``."""
    probs = cache.probs
    picked = probs[mask, labels[mask]]
    loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
    grad_logits = np.zeros_like(probs)
    grad_logits[mask] = probs[mask]
    grad_logits[mask, labels[mask]] -= 1.0
    grad_logits /= int(mask.sum())
    grad_head = cache.adjacency @ grad_logits if arch == "gcn" else grad_logits
    grad_pre = (grad_head @ params.W2.T) * (cache.inputs @ params.W1 > 0)
    return loss, cache.hidden.T @ grad_head, cache.inputs.T @ grad_pre


@pytest.mark.parametrize("arch", ["gcn", "sage"])
def test_loss_and_grads_match_boolean_index_formula_bitwise(arch):
    for seed in range(5):
        graph, x, labels = random_setup(seed, n=40, features=5, p=0.2)
        params = init_params(arch, x.shape[1], seed=seed, hidden=8)
        rng = np.random.default_rng(seed)
        for mask in (rng.random(40) < 0.3, np.ones(40, bool),
                     np.arange(40) == seed):
            # a backward consumes its forward, so each one gets a fresh one
            if arch == "gcn":
                _, cache = gcn_forward(params, *gcn_inputs(graph, x))
            else:
                _, cache = sage_forward(params, graph, x, fanout=3, seed=seed)
            want_loss, want_w2, want_w1 = boolean_index_loss_and_grads(
                arch, params, cache, labels, mask)
            loss, grads = loss_and_grads(params, cache, labels, mask)
            assert same_bits(np.array(loss), np.array(want_loss))
            assert same_bits(grads.W2, want_w2)
            assert same_bits(grads.W1, want_w1)


# ---------------------------------------------------------------- gradients


def masked_xent(logits, labels, mask):
    probs = scipy.special.softmax(logits, axis=1)
    return float(-np.log(probs[mask, labels[mask]]).mean())


@pytest.mark.parametrize("arch", ["gcn", "sage"])
def test_backward_consumes_its_forward(arch):
    graph, x, labels = random_setup(12, n=30, features=4)
    params = init_params(arch, x.shape[1], seed=12, hidden=8)
    mask = np.ones(len(labels), bool)
    if arch == "gcn":
        _, cache = gcn_forward(params, *gcn_inputs(graph, x))
    else:
        _, cache = sage_forward(params, graph, x, fanout=3, seed=12)
    hidden = cache.hidden
    _, grads = loss_and_grads(params, cache, labels, mask)
    assert cache.params is None
    # the hidden-layer gradient went over the hidden layer, in place
    assert cache.hidden is hidden
    assert same_bits(grads.W1, cache.inputs.T @ hidden)
    with pytest.raises(ValueError, match="no forward"):
        loss_and_grads(params, cache, labels, mask)
    # a cache refilled with other params holds no forward of these
    other = init_params(arch, x.shape[1], seed=13, hidden=8)
    if arch == "gcn":
        gcn_forward(other, cache.adjacency, cache.inputs, cache=cache)
    else:
        sage_forward(other, graph, x, fanout=3, seed=12, cache=cache)
    with pytest.raises(ValueError, match="no forward"):
        loss_and_grads(params, cache, labels, mask)


def test_loss_matches_direct_computation():
    graph, x, labels = random_setup(11)
    mask = np.zeros(len(labels), dtype=bool)
    mask[[0, 2, 5]] = True
    params = init_params("gcn", x.shape[1], seed=11, hidden=4)
    logits, cache = gcn_forward(params, *gcn_inputs(graph, x))
    loss, _ = loss_and_grads(params, cache, labels, mask)
    assert loss == pytest.approx(masked_xent(logits, labels, mask), rel=1e-12)


def test_loss_rejects_empty_mask():
    graph, x, labels = random_setup(0)
    params = init_params("gcn", x.shape[1], seed=0, hidden=4)
    _, cache = gcn_forward(params, *gcn_inputs(graph, x))
    with pytest.raises(ValueError, match="mask"):
        loss_and_grads(params, cache, labels, np.zeros(len(labels), bool))


def relu_safe_setup(arch, seed, hidden=4):
    """Find a configuration whose pre-activations stay away from the relu
    kink, so finite differences are trustworthy."""
    for trial in range(50):
        graph, x, labels = random_setup(seed + 1000 * trial)
        params = init_params(arch, x.shape[1], seed=seed + trial,
                             hidden=hidden)
        if arch == "gcn":
            adj = normalized_adjacency(graph)
            _, cache = gcn_forward(params, adj, adj @ x)
        else:
            adj = None
            _, cache = sage_forward(params, graph, x, fanout=3, seed=seed)
        if np.abs(cache.inputs @ params.W1).min() > 1e-4:
            return graph, adj, x, labels, params, cache
    raise AssertionError("no relu-safe configuration found")


def fd_gradient(arch, graph, adj, x, labels, mask, params, seed, h=1e-6):
    def loss_at(p):
        if arch == "gcn":
            _, cache = gcn_forward(p, adj, adj @ x)
        else:
            _, cache = sage_forward(p, graph, x, fanout=3, seed=seed)
        loss, _ = loss_and_grads(p, cache, labels, mask)
        return loss

    fd = ModelParams(np.zeros_like(params.W1), np.zeros_like(params.W2))
    for name in ("W1", "W2"):
        w = getattr(params, name)
        g = getattr(fd, name)
        for idx in np.ndindex(w.shape):
            p_hi = params.copy()
            getattr(p_hi, name)[idx] += h
            p_lo = params.copy()
            getattr(p_lo, name)[idx] -= h
            g[idx] = (loss_at(p_hi) - loss_at(p_lo)) / (2 * h)
    return fd


@pytest.mark.parametrize("arch", ["gcn", "sage"])
def test_analytic_gradients_match_finite_differences(arch):
    graph, adj, x, labels, params, cache = relu_safe_setup(arch, seed=21)
    mask = np.ones(len(labels), dtype=bool)
    mask[1] = False
    _, grads = loss_and_grads(params, cache, labels, mask)
    fd = fd_gradient(arch, graph, adj, x, labels, mask, params, seed=21)
    for name in ("W1", "W2"):
        a = getattr(grads, name)
        f = getattr(fd, name)
        assert np.all(np.abs(a - f) <= 1e-9 + 1e-5 * np.abs(f)), \
            f"{arch} {name}: max diff {np.abs(a - f).max()}"


def test_gradient_nonzero_only_when_informative():
    graph, x, labels = random_setup(5)
    params = init_params("gcn", x.shape[1], seed=5, hidden=4)
    _, cache = gcn_forward(params, *gcn_inputs(graph, x))
    _, grads = loss_and_grads(params, cache, labels,
                              np.ones(len(labels), bool))
    assert np.abs(grads.W1).max() > 0
    assert np.abs(grads.W2).max() > 0
    assert (grads.W1.shape, grads.W2.shape) == (params.W1.shape, params.W2.shape)


# ------------------------------------------------------------------- adam


def naive_adam(params, grads, state):
    t = state.step + 1
    out, ms, vs = {}, {}, {}
    for name in ("W1", "W2"):
        w = getattr(params, name)
        g = getattr(grads, name)
        m = ADAM_BETA1 * getattr(state.m, name) + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * getattr(state.v, name) + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        out[name] = w - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        ms[name], vs[name] = m, v
    return out, ms, vs, t


def test_adam_step_matches_reference_bitwise():
    rng = np.random.default_rng(17)
    params = init_params("gcn", 4, seed=17, hidden=3)
    state = init_adam(params, lr=0.01)
    for _ in range(5):
        grads = ModelParams(rng.standard_normal(params.W1.shape),
                            rng.standard_normal(params.W2.shape))
        expected_w, expected_m, expected_v, expected_t = naive_adam(
            params, grads, state)
        old = params
        params, state = adam_step(params, grads, state)
        # a new object every step: cached forwards are matched by identity
        assert params is not old
        for name in ("W1", "W2"):
            assert np.array_equal(getattr(params, name), expected_w[name])
            assert np.array_equal(getattr(state.m, name), expected_m[name])
            assert np.array_equal(getattr(state.v, name), expected_v[name])
        assert state.step == expected_t


def test_adam_first_step_magnitude_is_learning_rate():
    params = ModelParams(np.zeros((3, 2)), np.zeros((2, 2)))
    grads = ModelParams(np.full((3, 2), 0.5), np.full((2, 2), -2.0))
    new, state = adam_step(params, grads, init_adam(params, lr=0.005))
    # bias-corrected m_hat / sqrt(v_hat) is sign(g) on the first step
    assert np.allclose(new.W1, -0.005, rtol=1e-6)
    assert np.allclose(new.W2, 0.005, rtol=1e-6)
    assert state.step == 1


def test_adam_step_rejects_shape_mismatch():
    params = init_params("gcn", 4, seed=0, hidden=3)
    bad = ModelParams(np.zeros((5, 3)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="shape"):
        adam_step(params, bad, init_adam(params, lr=0.005))


def test_adam_defaults():
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)
    state = init_adam(init_params("gcn", 2, seed=0, hidden=2), lr=0.02)
    assert [f.name for f in dataclasses.fields(state)] == ["m", "v", "step", "lr"]
    assert (state.lr, state.step) == (0.02, 0)
    assert np.all(state.m.W1 == 0) and np.all(state.v.W2 == 0)


def test_training_descends_on_both_architectures():
    for arch in ("gcn", "sage"):
        graph, x, _ = random_setup(33, n=12, features=4)
        labels = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
        params = init_params(arch, 4, seed=33, hidden=8)
        state = init_adam(params, lr=0.005)
        mask = np.ones(12, dtype=bool)
        adj = normalized_adjacency(graph)

        def run_loss(p, step):
            if arch == "gcn":
                _, cache = gcn_forward(p, adj, adj @ x)
            else:
                _, cache = sage_forward(p, graph, x, fanout=3, seed=step)
            return loss_and_grads(p, cache, labels, mask)

        first, _ = run_loss(params, 0)
        for step in range(150):
            _, grads = run_loss(params, step)
            params, state = adam_step(params, grads, state)
        last, _ = run_loss(params, 151)
        assert last < first * 0.5, f"{arch}: {first} -> {last}"


# ------------------------------------------------------------ serialization


def test_params_bytes_layout():
    params = ModelParams(np.arange(6.0).reshape(2, 3), np.zeros((3, 2)))
    blob = params_to_bytes(params)
    assert blob[:12] == struct.pack("<III", 2, 2, 3)
    assert blob[12:60] == np.arange(6.0).tobytes()
    assert blob[60:68] == struct.pack("<II", 3, 2)
    assert len(blob) == 4 + (8 + 48) + (8 + 48)
    sage = params_to_bytes(init_params("sage", 2, seed=0))
    assert sage[:12] == struct.pack("<III", 2, 4, HIDDEN_UNITS)
    assert len(sage) == 4 + (8 + 4 * HIDDEN_UNITS * 8) + (8 + HIDDEN_UNITS * 2 * 8)


def test_params_copy_is_deep():
    params = init_params("gcn", 3, seed=1, hidden=2)
    dup = params.copy()
    dup.W1[0, 0] += 1.0
    assert params.W1[0, 0] != dup.W1[0, 0]
