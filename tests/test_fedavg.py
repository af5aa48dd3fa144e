import itertools
import tracemalloc

import numpy as np
import pytest

from edge_arrays import edge_array
from twosfgl.data import EDGE_DTYPE, ClientGraph, NodeTable, SplitAssignment
from twosfgl import fedavg
from twosfgl.fedavg import (FederationConfig, aggregate,
                            evaluate_global, federated_round, local_steps,
                            make_client, train_federation)
from twosfgl.gnn import (HIDDEN_UNITS, ModelParams, adam_step, gcn_forward,
                         init_params, loss_and_grads, sage_forward, softmax)
from twosfgl.metrics import (METRIC_NAMES, EvalResult, RoundHistory, accuracy,
                             auc, gmean, macro_f1)
from twosfgl.seeding import derive_seed


def make_world(seed, n=20, n_clients=2, features=4, p=0.3):
    """Shared node table plus one random relation graph per client."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, features))
    labels = (x[:, 0] - x[:, 1] > 0).astype(np.int64)
    table = NodeTable(features=x, labels=labels)
    graphs = []
    for k in range(n_clients):
        edges = {}
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges[(u, v)] = float(rng.uniform(0.5, 1.5))
        graphs.append(ClientGraph(relation_name=f"rel{k}",
                                  vertices=np.arange(n),
                                  edges=edge_array(edges)))
    ids = rng.permutation(n)
    cut = int(n * 0.6)
    split = SplitAssignment(train_ids=ids[:cut], test_ids=ids[cut:])
    return table, graphs, split


def build_clients(arch, seed=0, n_clients=2, **kw):
    table, graphs, split = make_world(seed, n_clients=n_clients, **kw)
    return [
        make_client(graphs[k], split, arch, table.features, table.labels,
                    seed=derive_seed(seed, "client", k))
        for k in range(n_clients)
    ], table, graphs, split


# ------------------------------------------------------------- make_client


def test_make_client_aligns_arrays_with_node_order():
    table, graphs, split = make_world(1)
    client = make_client(graphs[0], split, "gcn", table.features,
                         table.labels, seed=0)
    assert client.client_id == "rel0"
    assert np.array_equal(client.features, table.features)  # ids are 0..n-1
    assert np.array_equal(client.labels, table.labels)
    # positions are ids here, so each mask's positions are its id array
    assert np.array_equal(np.flatnonzero(client.train_mask), split.train_ids)
    assert np.array_equal(np.flatnonzero(client.test_mask), split.test_ids)
    assert client.sample_count == len(split.train_ids)
    assert client.adjacency is not None
    assert not (client.train_mask & client.test_mask).any()


def test_make_client_aligns_passed_labels_to_graph_vertices():
    # a graph over some vertices only: row p holds node graph.vertices[p]
    table, _, _ = make_world(1)
    vertices = np.array([3, 5, 8, 13, 17])
    part = ClientGraph(relation_name="part", vertices=vertices,
                       edges=edge_array({(3, 8): 1.0, (5, 17): 2.0}))
    split = SplitAssignment(train_ids=[3, 8, 17], test_ids=[5, 13])
    labels = np.arange(20) % 2
    for arch in ("gcn", "sage"):
        client = make_client(part, split, arch, table.features, labels, seed=0)
        assert client.labels.tolist() == [1, 1, 0, 1, 1]
        assert np.array_equal(client.features, table.features[vertices])
        assert client.train_mask.tolist() == [True, False, True, False, True]
        assert client.test_mask.tolist() == [False, True, False, True, False]
    rng = np.random.default_rng(7)
    for _ in range(10):
        vertices = np.sort(rng.choice(20, size=9, replace=False))
        graph = ClientGraph(relation_name="part", vertices=vertices,
                            edges=edge_array({}))
        ids = rng.permutation(vertices)
        split = SplitAssignment(train_ids=ids[:5], test_ids=ids[5:7])
        client = make_client(graph, split, "sage", table.features, labels,
                             seed=0)
        assert np.array_equal(client.train_mask,
                              np.isin(graph.vertices, split.train_ids))
        assert np.array_equal(client.test_mask,
                              np.isin(graph.vertices, split.test_ids))


def test_make_client_caches_propagated_features_for_gcn():
    table, graphs, split = make_world(1)
    client = make_client(graphs[0], split, "gcn", table.features,
                         table.labels, seed=0)
    assert np.array_equal(client.propagated_features,
                          client.adjacency @ client.features)


def test_make_client_gcn_leaves_no_index_cached_on_its_graph():
    table, graphs, split = make_world(1, n_clients=2)
    cached = graphs[1].neighbor_csr
    for graph in graphs:
        make_client(graph, split, "gcn", table.features, table.labels, seed=0)
    assert "neighbor_csr" not in vars(graphs[0])
    assert graphs[1].neighbor_csr is cached
    # Â is the same whether or not the index was cached
    fresh = ClientGraph(graphs[1].relation_name, graphs[1].vertices,
                        graphs[1].edges)
    want = make_client(fresh, split, "gcn", table.features, table.labels,
                       seed=0).adjacency
    got = make_client(graphs[1], split, "gcn", table.features, table.labels,
                      seed=0).adjacency
    for name in ("indptr", "indices", "weights"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_make_client_rejects_split_ids_outside_the_graph():
    table, graphs, split = make_world(1)
    part = ClientGraph(relation_name="part", vertices=np.arange(10),
                       edges=edge_array({}))
    with pytest.raises(ValueError, match="client 'part': split ids outside"):
        make_client(part, split, "gcn", table.features, table.labels, seed=0)
    # an id in a gap of a partial vertex set, below or above it
    gapped = ClientGraph(relation_name="part", vertices=[2, 4, 7, 11, 16],
                         edges=edge_array({(2, 7): 1.0}))
    for train, test in (([2, 7], [4, 5]), ([2, 7], [1, 4]), ([2, 17], [4])):
        with pytest.raises(ValueError, match="client 'part': split ids outside"):
            make_client(gapped, SplitAssignment(train_ids=train, test_ids=test),
                        "gcn", table.features, table.labels, seed=0)


def test_make_client_sage_has_no_adjacency():
    table, graphs, split = make_world(1)
    client = make_client(graphs[0], split, "sage", table.features,
                         table.labels, seed=0)
    assert client.adjacency is None
    assert client.propagated_features is None
    assert client.params.W1.shape[0] == 2 * table.feature_width


def test_make_client_seeded_init():
    table, graphs, split = make_world(2)
    a = make_client(graphs[0], split, "gcn", table.features, table.labels,
                    seed=5)
    b = make_client(graphs[1], split, "gcn", table.features, table.labels,
                    seed=5)
    c = make_client(graphs[0], split, "gcn", table.features, table.labels,
                    seed=6)
    assert np.array_equal(a.params.W1, b.params.W1)
    assert not np.array_equal(a.params.W1, c.params.W1)
    want = init_params("gcn", table.feature_width, seed=derive_seed(5, "init"))
    assert np.array_equal(a.params.W1, want.W1)
    assert np.array_equal(a.params.W2, want.W2)


def test_make_client_rejects_empty_train_mask():
    table, graphs, _ = make_world(3)
    empty = SplitAssignment(train_ids=[], test_ids=np.arange(5))
    with pytest.raises(ValueError, match="empty train mask"):
        make_client(graphs[0], empty, "gcn", table.features, table.labels,
                    seed=0)


# --------------------------------------------------------------- aggregate


def random_params(rng, shape1=(4, 3), shape2=(3, 2)):
    return ModelParams(rng.standard_normal(shape1), rng.standard_normal(shape2))


def test_aggregate_single_update_is_bit_exact():
    rng = np.random.default_rng(0)
    p = random_params(rng)
    out = aggregate([(p, 17)])
    assert np.array_equal(out.W1, p.W1) and np.array_equal(out.W2, p.W2)


def test_aggregate_identical_updates_are_bit_exact():
    rng = np.random.default_rng(1)
    p = random_params(rng)
    out = aggregate([(p.copy(), 5), (p.copy(), 11), (p.copy(), 2)])
    assert np.array_equal(out.W1, p.W1) and np.array_equal(out.W2, p.W2)


def test_aggregate_matches_weighted_mean_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        updates = [(random_params(rng), int(rng.integers(1, 50)))
                   for _ in range(int(rng.integers(2, 6)))]
        total = sum(c for _, c in updates)
        expected_w1 = sum(c / total * p.W1 for p, c in updates)
        expected_w2 = sum(c / total * p.W2 for p, c in updates)
        out = aggregate(updates)
        assert np.allclose(out.W1, expected_w1, rtol=1e-12, atol=1e-13)
        assert np.allclose(out.W2, expected_w2, rtol=1e-12, atol=1e-13)


def test_aggregate_stays_inside_convex_hull():
    rng = np.random.default_rng(3)
    updates = [(random_params(rng), int(rng.integers(1, 9)))
               for _ in range(4)]
    out = aggregate(updates)
    lo = np.min([p.W1 for p, _ in updates], axis=0)
    hi = np.max([p.W1 for p, _ in updates], axis=0)
    assert np.all(out.W1 >= lo - 1e-12) and np.all(out.W1 <= hi + 1e-12)


def test_aggregate_permutation_invariant():
    rng = np.random.default_rng(4)
    updates = [(random_params(rng), int(rng.integers(1, 9)))
               for _ in range(4)]
    base = aggregate(updates)
    for perm in itertools.permutations(updates):
        out = aggregate(list(perm))
        assert np.allclose(out.W1, base.W1, rtol=1e-12, atol=1e-14)
        assert np.allclose(out.W2, base.W2, rtol=1e-12, atol=1e-14)


def test_aggregate_validates_inputs():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="at least one"):
        aggregate([])
    a = random_params(rng)
    b = random_params(rng, shape1=(5, 3))
    with pytest.raises(ValueError, match="shapes"):
        aggregate([(a, 1), (b, 1)])
    # W1 has F rows for gcn and 2F for sage
    gcn, sage = (init_params(arch, 4, seed=0) for arch in ("gcn", "sage"))
    for updates in ([(gcn, 1), (sage, 1)], [(sage, 3), (gcn, 2)]):
        with pytest.raises(ValueError, match="shapes do not match"):
            aggregate(updates)


# -------------------------------------------------------------- local steps


def test_local_steps_match_manual_adam_loop():
    for arch in ("gcn", "sage"):
        clients, table, graphs, _ = build_clients(arch, seed=8, n_clients=1)
        client = clients[0]
        start = client.params.copy()
        round_seed = 123
        if arch == "gcn":
            _, cache = gcn_forward(start, client.adjacency,
                                   client.adjacency @ client.features)
        else:
            _, cache = sage_forward(
                start, client.graph, client.features, fanout=fedavg.FANOUT,
                seed=derive_seed(round_seed, client.client_id, 0))
        want_loss, grads = loss_and_grads(start, cache, client.labels,
                                          client.train_mask)
        manual_params, _ = adam_step(start, grads, client.adam)
        got_loss = local_steps(client, start, round_seed)
        assert np.array_equal(client.params.W1, manual_params.W1)
        assert np.array_equal(client.params.W2, manual_params.W2)
        assert got_loss == want_loss


# ---------------------------------------------------------- federated round


def test_federated_round_single_client_equals_local_training():
    clients, table, _, _ = build_clients("gcn", seed=9, n_clients=1)
    start = clients[0].params.copy()
    new_global, losses = federated_round(clients, start, round_seed=5)
    assert np.array_equal(new_global.W1, clients[0].params.W1)
    assert len(losses) == 1 and np.isfinite(losses[0])


def test_federated_round_identical_clients_match_centralized():
    # two clients with the same graph, split and params: the average of
    # identical updates must equal plain centralized training, bitwise
    table, graphs, split = make_world(10, n_clients=1)
    twin_a, twin_b, solo = (
        make_client(graphs[0], split, "gcn", table.features, table.labels,
                    seed=0) for _ in range(3))
    shared = twin_a.params.copy()
    global_fed = shared.copy()
    global_solo = shared.copy()
    for round_index in range(5):
        global_fed, _ = federated_round([twin_a, twin_b], global_fed,
                                        round_seed=round_index)
        global_solo, _ = federated_round([solo], global_solo,
                                         round_seed=round_index)
        assert np.array_equal(global_fed.W1, global_solo.W1)
        assert np.array_equal(global_fed.W2, global_solo.W2)


def test_federated_round_wraps_client_failures():
    clients, table, _, _ = build_clients("gcn", seed=11)
    # corrupt one client
    clients[1].propagated_features = clients[1].propagated_features[:, :2]
    with pytest.raises(RuntimeError, match="client 'rel1'"):
        federated_round(clients, clients[0].params.copy(), round_seed=0)
    with pytest.raises(ValueError, match="at least one client"):
        federated_round([], init_params("gcn", 4), round_seed=0)


def test_federation_config_validation():
    assert FederationConfig().rounds == 100
    # the arm is a history label, passed to train_federation
    with pytest.raises(TypeError):
        FederationConfig(arm="2sfgl")
    with pytest.raises(ValueError):
        FederationConfig(rounds=0)


# ----------------------------------------------------------- evaluate_global


def test_evaluate_global_matches_per_client_metric_mean():
    clients, _, _, _ = build_clients("gcn", seed=12, n_clients=3)
    params = clients[0].params.copy()
    got = evaluate_global(clients, params)
    fns = {"accuracy": accuracy, "macro_f1": macro_f1, "auc": auc,
           "gmean": gmean}
    for name in METRIC_NAMES:
        expected = []
        for client in clients:
            logits, _ = gcn_forward(params, client.adjacency,
                                    client.adjacency @ client.features)
            scores = softmax(logits)[:, 1]
            result = EvalResult.from_scores(scores[client.test_mask],
                                            client.labels[client.test_mask])
            expected.append(fns[name](result))
        assert got[name] == pytest.approx(float(np.mean(expected)), abs=1e-15)


@pytest.mark.parametrize("arch", ["gcn", "sage"])
def test_local_step_empties_the_cache_and_a_forward_refills_it(arch):
    # a gcn client refills its own cache; a sage client holds none, and each
    # forward brings its own
    clients, _, _, _ = build_clients(arch, seed=13)
    client = clients[0]
    params = client.params.copy()
    assert (client.cache is None) == (arch == "sage")
    local_steps(client, params, round_seed=4)
    if arch == "gcn":
        assert client.cache.params is None
    else:
        assert client.cache is None
    cache = fedavg._client_forward(client, params, 4, "eval", client.client_id)
    assert cache.params is params
    if arch == "gcn":
        assert cache is client.cache
        logits, _ = gcn_forward(params, client.adjacency,
                                client.propagated_features)
    else:
        assert client.cache is None
        logits, _ = sage_forward(params, client.graph, client.features,
                                 fanout=fedavg.FANOUT,
                                 seed=derive_seed(4, "eval", client.client_id))
    assert np.array_equal(cache.probs, softmax(logits))


def test_local_steps_ignore_an_evaluation_of_other_params():
    evaluated, _, _, _ = build_clients("gcn", seed=13)
    fresh, table, _, _ = build_clients("gcn", seed=13)
    evaluate_global(evaluated, evaluated[0].params.copy())
    other = init_params("gcn", table.feature_width, seed=77)
    got = local_steps(evaluated[0], other, round_seed=4)
    want = local_steps(fresh[0], other, round_seed=4)
    assert got == want
    assert np.array_equal(evaluated[0].params.W1, fresh[0].params.W1)
    assert np.array_equal(evaluated[0].params.W2, fresh[0].params.W2)


# --------------------------------------------------------- train_federation


def test_train_federation_records_every_round_and_metric():
    clients, _, _, _ = build_clients("gcn", seed=14)
    history = train_federation(clients, FederationConfig(rounds=7), "x",
                               seed=3)
    assert history.arm == "x"
    assert history.values.shape == (7, len(METRIC_NAMES))
    assert np.all((history.values >= 0.0) & (history.values <= 1.0))


# 3 clients, 4 rounds: a gcn evaluation also serves the next round's step;
# sage training and evaluation sample apart
@pytest.mark.parametrize("arch, expected", [("gcn", 3 * (4 + 1)),
                                            ("sage", 2 * 3 * 4)])
def test_train_federation_forward_count(monkeypatch, arch, expected):
    calls = []
    for name in ("gcn_forward", "sage_forward"):
        inner = getattr(fedavg, name)
        monkeypatch.setattr(
            fedavg, name,
            lambda *a, _inner=inner, **kw: calls.append(1) or _inner(*a, **kw))
    clients, _, _, _ = build_clients(arch, seed=14, n_clients=3)
    train_federation(clients, FederationConfig(rounds=4), "x", seed=3)
    assert len(calls) == expected


def reference_federation(clients, cfg, arm, seed):
    """train_federation with a fresh forward, into freshly allocated
    arrays, for every local step and every evaluation; returns (history,
    final global params)."""
    fns = {"accuracy": accuracy, "macro_f1": macro_f1, "auc": auc,
           "gmean": gmean}

    def forward(client, params, seed):
        if client.adjacency is not None:
            return gcn_forward(params, client.adjacency,
                               client.propagated_features)
        return sage_forward(params, client.graph, client.features,
                            fanout=fedavg.FANOUT, seed=seed)

    global_params = clients[0].params.copy()
    values = np.empty((cfg.rounds, len(METRIC_NAMES)))
    for round_index in range(1, cfg.rounds + 1):
        round_seed = derive_seed(seed, "round", round_index)
        for client in clients:
            _, cache = forward(client, global_params,
                               derive_seed(round_seed, client.client_id, 0))
            _, grads = loss_and_grads(global_params, cache, client.labels,
                                      client.train_mask)
            client.params, client.adam = adam_step(global_params, grads,
                                                   client.adam)
        global_params = aggregate([(c.params, c.sample_count)
                                   for c in clients])
        eval_seed = derive_seed(seed, "round-eval", round_index)
        per_metric = {name: [] for name in METRIC_NAMES}
        for client in clients:
            logits, _ = forward(client, global_params,
                                derive_seed(eval_seed, "eval", client.client_id))
            result = EvalResult.from_scores(
                softmax(logits)[:, 1][client.test_mask],
                client.labels[client.test_mask])
            for name in METRIC_NAMES:
                per_metric[name].append(fns[name](result))
        values[round_index - 1] = [float(np.mean(per_metric[name]))
                                   for name in METRIC_NAMES]
    return RoundHistory(arm, values), global_params


@pytest.mark.parametrize("arch", ["gcn", "sage"])
def test_train_federation_matches_fresh_forward_reference(arch):
    cfg = FederationConfig(rounds=5)
    clients, _, _, _ = build_clients(arch, seed=20, n_clients=3)
    history = train_federation(clients, cfg, "x", seed=6)
    final = aggregate([(c.params, c.sample_count) for c in clients])
    clients, _, _, _ = build_clients(arch, seed=20, n_clients=3)
    want_history, want_final = reference_federation(clients, cfg, "x", seed=6)
    assert history.arm == want_history.arm
    assert np.array_equal(history.values, want_history.values)
    assert np.array_equal(final.W1, want_final.W1)
    assert np.array_equal(final.W2, want_final.W2)


@pytest.mark.parametrize("arch", ["gcn", "sage"])
def test_clients_never_share_forward_memory(arch):
    clients, _, _, _ = build_clients(arch, seed=21, n_clients=3)
    train_federation(clients, FederationConfig(rounds=2), "x", seed=0)
    if arch == "gcn":
        caches = [client.cache for client in clients]
    else:
        # no sage client keeps a cache; two forwards of one client, and one
        # of another, each bring their own
        assert all(client.cache is None for client in clients)
        params = clients[0].params
        caches = [fedavg._client_forward(client, params, 0, "eval", k)
                  for k, client in enumerate(clients[:1] + clients[:2])]
    owned = [[cache.hidden, cache.probs] for cache in caches]
    for mine, theirs in itertools.combinations(owned, 2):
        for a, b in itertools.product(mine, theirs):
            assert not np.shares_memory(a, b)


def sparse_world(seed, n, n_clients=3, features=8, degree=10):
    """Node table plus one random unit-weight graph of mean degree about
    ``degree`` per client, and a 60/40 split."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, features))
    table = NodeTable(features=x, labels=(x[:, 0] > 0).astype(np.int64))
    graphs = []
    for k in range(n_clients):
        ends = rng.integers(0, n, size=(n * degree // 2, 2))
        ends = np.unique(np.sort(ends[ends[:, 0] != ends[:, 1]], axis=1), axis=0)
        edges = np.rec.fromarrays([ends[:, 0], ends[:, 1], np.ones(len(ends))],
                                  dtype=EDGE_DTYPE)
        graphs.append(ClientGraph(relation_name=f"rel{k}",
                                  vertices=np.arange(n), edges=edges))
    ids = rng.permutation(n).tolist()
    split = SplitAssignment(train_ids=ids[:int(0.6 * n)],
                            test_ids=ids[int(0.6 * n):])
    return table, graphs, split


def test_steady_state_gcn_round_allocates_less_than_a_hidden_layer():
    n = 2000
    table, graphs, split = sparse_world(22, n)
    clients = [make_client(graph, split, "gcn", table.features, table.labels,
                           seed=k) for k, graph in enumerate(graphs)]
    global_params = clients[0].params.copy()

    def one_round(round_index, params):
        params, _ = federated_round(clients, params, round_seed=round_index)
        evaluate_global(clients, params, seed=round_index)
        return params

    for round_index in range(2):   # warm-up
        global_params = one_round(round_index, global_params)
    tracemalloc.start()
    try:
        one_round(2, global_params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * HIDDEN_UNITS * 8, peak


def test_gcn_federation_round_keeps_one_hidden_layer_array_per_client():
    n = 2000
    table, graphs, split = sparse_world(23, n)
    hidden_bytes = n * HIDDEN_UNITS * 8
    tracemalloc.start()
    try:
        clients = [make_client(graph, split, "gcn", table.features,
                               table.labels, seed=k)
                   for k, graph in enumerate(graphs)]
        params, _ = federated_round(clients, clients[0].params.copy(),
                                    round_seed=0)
        evaluate_global(clients, params)
        # every other array the clients hold is far smaller at this size
        held = [trace.size for trace in tracemalloc.take_snapshot().traces
                if trace.size >= hidden_bytes]
    finally:
        tracemalloc.stop()
    assert held == [hidden_bytes] * len(clients)


def test_train_federation_deterministic_after_rebuilding_clients():
    for arch in ("gcn", "sage"):
        runs = []
        for _ in range(2):
            clients, _, _, _ = build_clients(arch, seed=15)
            history = train_federation(clients, FederationConfig(rounds=4),
                                       "x", seed=9)
            runs.append(history.values)
        assert np.array_equal(runs[0], runs[1]), arch


def test_train_federation_seed_matters_only_for_sampling_arch():
    # gcn is full-batch deterministic: the training seed changes nothing
    clients, _, _, _ = build_clients("gcn", seed=16)
    h1 = train_federation(clients, FederationConfig(rounds=3), "x", seed=1)
    clients, _, _, _ = build_clients("gcn", seed=16)
    h2 = train_federation(clients, FederationConfig(rounds=3), "x", seed=2)
    assert np.array_equal(h1.values, h2.values)
    # sage samples neighbors per round: the seed shows up in the history
    clients, _, _, _ = build_clients("sage", seed=16)
    h3 = train_federation(clients, FederationConfig(rounds=3), "x", seed=1)
    clients, _, _, _ = build_clients("sage", seed=16)
    h4 = train_federation(clients, FederationConfig(rounds=3), "x", seed=2)
    assert not np.array_equal(h3.values, h4.values)


def test_train_federation_rejects_empty_client_list():
    with pytest.raises(ValueError, match="at least one client"):
        train_federation([], FederationConfig(rounds=1), "x")


def test_federation_learns_separable_labels():
    # sparse graphs keep the self-loop dominant, so the feature-derived
    # labels stay recoverable through the propagation
    clients, _, _, _ = build_clients("gcn", seed=19, n=30, p=0.06)
    history = train_federation(clients, FederationConfig(rounds=120),
                               "x", seed=0)
    accuracy_column = history.values[:, METRIC_NAMES.index("accuracy")]
    final_acc, first_acc = accuracy_column[119], accuracy_column[0]
    assert final_acc >= 0.8
    assert final_acc > first_acc
