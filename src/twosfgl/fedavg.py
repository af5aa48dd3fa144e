"""Stage 2: synchronous federated averaging over per-client GNNs.

Each round the server broadcasts the global weights, every client runs one
local full-batch Adam step on its own graph and train mask, and the server
takes the sample-count-weighted average of the returned weights.  Adam moment
state stays on the client and is never averaged.  One round corresponds to
one training epoch.  The model settings are fixed: ``FANOUT`` neighbors per
node for SAGE sampling and Adam learning rate ``LEARNING_RATE``.

Each client owns one ``gnn.ForwardCache``, which its forwards and backwards
write into, so no two clients share memory; a backward consumes the forward
it reads.  ``_client_forward`` is the one place that decides whether a
forward must run.  A GCN forward draws nothing from a seed, so its seed is
never derived, and a cache that still holds a forward of the very params
object asked for is returned as it is: the evaluation forward after round r
is round r + 1's first training forward, which adopts the evaluated params.
A SAGE forward always runs, since evaluation and training sample neighbors
with different seeds.

A GCN client keeps its normalized adjacency Â but not the graph index it
was built from: ``normalized_adjacency`` reads the index the graph has
cached, or builds one for itself and drops it.
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

FANOUT = 5              # sage: neighbors sampled per node
LEARNING_RATE = 0.005   # Adam step size


@dataclass
class ClientState:
    """One participant: its graph view, masks, weights, and optimizer."""

    client_id: str
    graph: ClientGraph
    params: ModelParams
    adam: AdamState
    sample_count: int
    features: np.ndarray = None          # rows aligned with node order
    labels: np.ndarray = None
    train_mask: np.ndarray = None
    test_mask: np.ndarray = None
    adjacency: object = None             # gcn only: None marks a sage client
    propagated_features: np.ndarray = None   # gcn: adjacency @ features
    cache: ForwardCache = None           # this client's forward state


@dataclass(frozen=True)
class FederationConfig:
    """Knobs of the training stage: the number of FedAvg rounds."""

    rounds: int = 100

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")


def make_client(graph: ClientGraph, split: SplitAssignment, arch: str,
                features: np.ndarray, labels: np.ndarray,
                seed: int) -> ClientState:
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
        at, found = graph.find(ids)
        if not found.all():
            raise ValueError(f"client {client_id!r}: split ids outside the graph")
        mask = np.zeros(len(nodes), dtype=bool)
        mask[at] = True
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
        adam=init_adam(params, lr=LEARNING_RATE),
        sample_count=int(train_mask.sum()), features=feats, labels=labels,
        train_mask=train_mask, test_mask=test_mask, adjacency=adjacency,
        propagated_features=ax,
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
                    *seed_labels) -> ForwardCache:
    """The client's cache, holding its forward of ``params``; a GCN cache
    that already holds that very params object is not filled again.  A SAGE
    forward samples with ``derive_seed(*seed_labels)``."""
    cache = client.cache
    if client.adjacency is None:
        sage_forward(params, client.graph, client.features, fanout=FANOUT,
                     seed=derive_seed(*seed_labels), cache=cache)
    elif cache.params is not params:
        gcn_forward(params, client.adjacency, client.propagated_features,
                    cache=cache)
    return cache


def local_steps(client: ClientState, global_params: ModelParams,
                round_seed: int) -> float:
    """Adopt the global weights, run one local Adam step, return its train
    loss."""
    client.params = global_params
    cache = _client_forward(client, global_params,
                            round_seed, client.client_id, 0)
    loss, grads = loss_and_grads(global_params, cache, client.labels,
                                 client.train_mask)
    client.params, client.adam = adam_step(global_params, grads, client.adam)
    return loss


def federated_round(clients, global_params: ModelParams, round_seed: int):
    """Broadcast, one local step per client, aggregate.  Returns (new global,
    train losses)."""
    if not clients:
        raise ValueError("federated_round requires at least one client")
    losses = []
    for client in clients:
        try:
            losses.append(local_steps(client, global_params, round_seed))
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
        cache = _client_forward(client, params, seed, "eval", client.client_id)
        scores = cache.probs[:, 1]
        result = EvalResult.from_scores(
            scores[client.test_mask], client.labels[client.test_mask])
        for name in METRIC_NAMES:
            per_metric[name].append(fns[name](result))
    return {name: float(np.mean(values)) for name, values in per_metric.items()}


def train_federation(clients, cfg: FederationConfig, arm: str,
                     seed: int = 0) -> RoundHistory:
    """Run the configured number of rounds and record the global test metrics
    after each as one row of ``arm``'s history.

    All clients participate every round.  Per-client Adam state persists
    across rounds; only the weights are averaged.  Deterministic for a fixed
    seed and client list.
    """
    clients = list(clients)
    if not clients:
        raise ValueError("train_federation requires at least one client")
    global_params = clients[0].params.copy()
    values = np.empty((cfg.rounds, len(METRIC_NAMES)))
    for round_index in range(1, cfg.rounds + 1):
        round_seed = derive_seed(seed, "round", round_index)
        global_params, _ = federated_round(clients, global_params, round_seed)
        scores = evaluate_global(clients, global_params,
                                 seed=derive_seed(seed, "round-eval", round_index))
        values[round_index - 1] = [scores[name] for name in METRIC_NAMES]
    return RoundHistory(arm, values)
