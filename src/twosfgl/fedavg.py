"""Stage 2: synchronous federated averaging over per-client GNNs.

Each round the server broadcasts the global weights, every client runs its
local full-batch optimizer step(s) on its own graph and train mask, and the
server takes the sample-count-weighted average of the returned weights.
Adam moment state stays on the client and is never averaged.  One round
corresponds to one training epoch.

Each client owns one ``gnn.ForwardCache``, which its forwards and backwards
write into, so no two clients share memory.  ``_client_forward`` is the one
place that decides whether a forward must run.  A GCN forward draws nothing
from the seed, so a cache that already holds a forward of the very params
object asked for is returned as it is: the evaluation forward after round r
is round r + 1's first training forward, which adopts the evaluated params.
A SAGE forward always runs, since evaluation and training sample neighbors
with different seeds.
"""

from dataclasses import dataclass

import numpy as np

from .data import ClientGraph, SplitAssignment
from .gnn import (AdamState, ForwardCache, ModelParams, adam_step,
                  gcn_forward, init_adam, init_params, loss_and_grads,
                  normalized_adjacency, sage_forward)
from .metrics import (METRIC_NAMES, EvalResult, RoundHistory, accuracy, auc,
                      gmean, macro_f1)
from .seeding import derive_seed

__all__ = [
    "ClientState",
    "FederationConfig",
    "make_client",
    "aggregate",
    "local_steps",
    "federated_round",
    "evaluate_global",
    "train_federation",
]

@dataclass
class ClientState:
    """One participant: its graph view, masks, weights, and optimizer."""

    client_id: str
    graph: ClientGraph
    params: ModelParams
    adam: AdamState
    sample_count: int
    fanout: int                          # sage: neighbors sampled per node
    features: np.ndarray = None          # rows aligned with node order
    labels: np.ndarray = None
    train_mask: np.ndarray = None
    test_mask: np.ndarray = None
    adjacency: object = None             # gcn only: None marks a sage client
    propagated_features: np.ndarray = None   # gcn: adjacency @ features
    cache: ForwardCache = None           # this client's forward state


@dataclass(frozen=True)
class FederationConfig:
    """Knobs of the training stage: FedAvg rounds, and local optimizer steps
    per client per round."""

    rounds: int = 100
    local_steps: int = 1

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.local_steps < 0:
            raise ValueError("local_steps must be >= 0")


def make_client(graph: ClientGraph, split: SplitAssignment, arch: str,
                features: np.ndarray, labels: np.ndarray, seed: int,
                fanout: int, lr: float) -> ClientState:
    """Assemble a ClientState named after ``graph.relation_name``, with
    arrays aligned to the graph's node order (``graph.vertices``).

    ``features`` and ``labels`` are indexed by node id over the full node
    table (features already standardized by the caller).  The split's id
    arrays must lie inside the graph's vertices.
    """
    client_id = graph.relation_name
    nodes = graph.vertices
    feats = np.asarray(features, dtype=np.float64)[nodes]
    labels = np.asarray(labels, dtype=np.int64)[nodes]

    def node_mask(ids):
        mask = np.isin(nodes, ids)
        if mask.sum() != len(ids):
            raise ValueError(f"client {client_id!r}: split ids outside the graph")
        return mask

    train_mask = node_mask(split.train_ids)
    test_mask = node_mask(split.test_ids)
    if not train_mask.any():
        raise ValueError(f"client {client_id!r} has an empty train mask")
    params = init_params(arch, feats.shape[1], seed=derive_seed(seed, "init"))
    adjacency = ax = None
    if arch == "gcn":
        adjacency = normalized_adjacency(graph)
        ax = adjacency @ feats
    return ClientState(
        client_id=client_id, graph=graph, params=params,
        adam=init_adam(params, lr=lr), sample_count=int(train_mask.sum()),
        features=feats, labels=labels, train_mask=train_mask,
        test_mask=test_mask, adjacency=adjacency, propagated_features=ax,
        fanout=fanout,
        cache=ForwardCache.empty(len(nodes), params.W1.shape[1]))


def aggregate(updates) -> ModelParams:
    """Sample-count-weighted average of client weights.

    Computed as W_1 plus weighted deviations from W_1, which is algebraically
    the convex combination but stays bit-exact when every update is
    identical (and trivially for a single client).  A GCN and a SAGE update
    differ in W1's rows, so mixing them fails the shape check.
    """
    updates = list(updates)
    if not updates:
        raise ValueError("aggregate requires at least one update")
    total = sum(count for _, count in updates)
    base, _ = updates[0]
    for params, _ in updates[1:]:
        if params.W1.shape != base.W1.shape or params.W2.shape != base.W2.shape:
            raise ValueError("client parameter shapes do not match")
    w1 = base.W1.copy()
    w2 = base.W2.copy()
    for params, count in updates[1:]:
        alpha = count / total
        w1 += alpha * (params.W1 - base.W1)
        w2 += alpha * (params.W2 - base.W2)
    return ModelParams(W1=w1, W2=w2)


def _client_forward(client: ClientState, params: ModelParams,
                    seed: int) -> ForwardCache:
    """The client's cache, holding its forward of ``params``; a GCN cache
    that already holds that very params object is not filled again."""
    cache = client.cache
    if client.adjacency is None:
        sage_forward(params, client.graph, client.features,
                     fanout=client.fanout, seed=seed, cache=cache)
    elif cache.params is not params:
        gcn_forward(params, client.adjacency, client.propagated_features,
                    cache=cache)
    return cache


def local_steps(client: ClientState, global_params: ModelParams,
                round_seed: int, steps: int) -> float:
    """Adopt the global weights, run the local optimizer steps, return the
    last train loss (nan when steps == 0)."""
    client.params = global_params
    loss = float("nan")
    for step in range(steps):
        cache = _client_forward(
            client, client.params,
            seed=derive_seed(round_seed, client.client_id, step))
        loss, grads = loss_and_grads(client.params, cache, client.labels,
                                     client.train_mask)
        client.params, client.adam = adam_step(client.params, grads, client.adam)
    return loss


def federated_round(clients, global_params: ModelParams, round_seed: int,
                    steps: int):
    """Broadcast, local steps, aggregate.  Returns (new global, train losses)."""
    if not clients:
        raise ValueError("federated_round requires at least one client")
    losses = []
    for client in clients:
        try:
            losses.append(local_steps(client, global_params, round_seed, steps))
        except Exception as exc:
            raise RuntimeError(f"client {client.client_id!r}: {exc}") from exc
    new_global = aggregate([(c.params, c.sample_count) for c in clients])
    return new_global, losses


def evaluate_global(clients, params: ModelParams, seed: int = 0) -> dict:
    """Mean of each metric over the clients' test masks, each client
    evaluated on its own training graph."""
    per_metric = {name: [] for name in METRIC_NAMES}
    fns = {"accuracy": accuracy, "macro_f1": macro_f1, "auc": auc, "gmean": gmean}
    for client in clients:
        cache = _client_forward(
            client, params, seed=derive_seed(seed, "eval", client.client_id))
        scores = cache.probs[:, 1]
        result = EvalResult.from_scores(
            scores[client.test_mask], client.labels[client.test_mask])
        for name in METRIC_NAMES:
            per_metric[name].append(fns[name](result))
    return {name: float(np.mean(values)) for name, values in per_metric.items()}


def train_federation(clients, cfg: FederationConfig, arm: str,
                     seed: int = 0) -> RoundHistory:
    """Run the configured number of rounds and record global test metrics,
    labelled ``arm`` in the history.

    All clients participate every round.  Per-client Adam state persists
    across rounds; only the weights are averaged.  Deterministic for a fixed
    seed and client list.
    """
    clients = list(clients)
    if not clients:
        raise ValueError("train_federation requires at least one client")
    global_params = clients[0].params.copy()
    history = RoundHistory()
    for round_index in range(1, cfg.rounds + 1):
        round_seed = derive_seed(seed, "round", round_index)
        global_params, _ = federated_round(clients, global_params, round_seed,
                                           steps=cfg.local_steps)
        scores = evaluate_global(clients, global_params,
                                 seed=derive_seed(seed, "round-eval", round_index))
        for name in METRIC_NAMES:
            history.append(round_index, arm, name, scores[name])
    return history
