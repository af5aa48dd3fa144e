"""Stage 1: virtual fusion of party graphs over privately-intersected vertices.

For every ordered pair of clients (sender, receiver) the sender normalizes
each edge between common vertices by the source vertex's incident weight sum,
optionally adds implied multi-hop shares, perturbs everything with Laplace
noise, and transmits.  The receiver converts each normalized value back to an
edge weight on its own scale through a thresholded update and augments its
local graph, never losing local evidence (max rule).  A fused graph is a
plain ``ClientGraph``; ``edge_origins`` derives its edges' audit tags.

Every step is array code over a graph's cached CSR (``neighbor_csr``).  One
sender's shares to one receiver are one ``np.recarray`` of ``SHARE_DTYPE``, the
wire and audit format from emission through noise, fusion and dump.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import EDGE_DTYPE, ClientGraph, id_array, incident_sums, write_rows
from .psi import PsiBackend, psi_ddh, psi_plain
from .seeding import derive_seed

__all__ = [
    "SHARE_CLAMP_DELTA",
    "SHARE_DTYPE",
    "FusionConfig",
    "normalize_edges",
    "khop_shares",
    "apply_dp",
    "update_edge",
    "fuse",
    "edge_origins",
    "received",
    "virtual_fusion_round",
    "write_shares",
    "write_tags",
]

# keeps normalized values strictly below 1 so the 1/(1-N) update stays finite
SHARE_CLAMP_DELTA = 1e-6

# One share per row: the src-dst edge weight over src's incident sum (orientation
# matters), clamped to [0, 1 - delta]; hops is 1 direct, 2 or 3 for implied paths.
SHARE_DTYPE = np.dtype([("src", np.int64), ("dst", np.int64),
                        ("hops", np.int64), ("value", np.float64)])


@dataclass(frozen=True)
class FusionConfig:
    """Knobs of the fusion stage.

    ``lam`` caps how much remote evidence can inflate a fused edge;
    ``dp_epsilon`` adds Laplace(1/epsilon) noise to share values only (``inf``
    turns it off): the (src, dst) pairs travel in the clear, so the sent pairs
    are the same at every epsilon and the fused edge set loses only the pairs
    whose shares were all clamped to 0, and one edge changes every share at
    both its endpoints, so this is not edge-level epsilon-DP; ``psi`` is the
    DDH group that intersects each pair's vertex sets, or None for the plain
    oracle.
    """

    lam: float = 0.5
    hops: int = 1
    dp_epsilon: float = math.inf
    seed: int = 0
    psi: PsiBackend | None = None

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lam must lie strictly between 0 and 1")
        if self.hops not in (1, 2, 3):
            raise ValueError("hops must be 1, 2, or 3")
        if not (self.dp_epsilon > 0):
            raise ValueError("dp_epsilon must be positive (math.inf disables noise)")


def _clamp(values: np.ndarray) -> np.ndarray:
    return np.clip(values, 0.0, 1.0 - SHARE_CLAMP_DELTA)


def _sender_view(graph: ClientGraph, common):
    """The graph's CSR, which of its positions are in the id set ``common``,
    and each entry's weight over its row's incident sum (0 for a zero
    weight, whose row sum may be 0 too)."""
    common = id_array(common)
    csr = graph.neighbor_csr
    is_common = np.isin(csr.nodes, common)
    if is_common.sum() != len(common):
        raise ValueError("common vertices must be a subset of the graph's vertices")
    steps = np.divide(csr.weights, incident_sums(graph)[csr.rows],
                      out=np.zeros_like(csr.weights), where=csr.weights > 0)
    return csr, is_common, steps


def _find(sorted_keys: np.ndarray, query: np.ndarray):
    """(position, found) of each query value in an ascending key array."""
    pos = np.searchsorted(sorted_keys, query)
    found = pos < len(sorted_keys)
    found[found] = sorted_keys[pos[found]] == query[found]
    return pos, found


def _first_of_runs(sorted_keys: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of equal values in a sorted array."""
    first = np.ones(len(sorted_keys), dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return np.flatnonzero(first)


def _merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where ``b``'s entries fall in the ascending union of two ascending
    arrays with no value in common: a mask over the union."""
    from_b = np.zeros(len(a) + len(b), dtype=bool)
    from_b[np.searchsorted(a, b) + np.arange(len(b))] = True
    return from_b


def _place(from_b: np.ndarray, a: np.ndarray, b) -> np.ndarray:
    """``a``'s entries, in order, where ``from_b`` is False and ``b``'s where
    it is True."""
    out = np.empty(len(from_b), dtype=a.dtype)
    out[from_b] = b
    out[~from_b] = a
    return out


def _shares(graph: ClientGraph, src, dst, values, hops) -> np.recarray:
    """A share batch with one row per CSR position pair, values clamped."""
    return np.rec.fromarrays([graph.vertices[src], graph.vertices[dst],
                              np.broadcast_to(hops, len(src)), _clamp(values)],
                             dtype=SHARE_DTYPE)


def normalize_edges(graph: ClientGraph, common) -> np.recarray:
    """Emit one share per ordered common pair (i, j) with a positive edge.

    The share value is E_ij divided by the sum of ALL edges incident to i
    (common or not); zero-weight edges emit nothing.  Values are clamped to
    [0, 1 - delta].  Output is sorted by (src, dst) for determinism.
    """
    csr, is_common, steps = _sender_view(graph, common)
    rows = csr.rows
    keep = is_common[rows] & is_common[csr.indices] & (csr.weights > 0)
    return _shares(graph, rows[keep], csr.indices[keep], steps[keep], 1)


def _extend(csr, steps, at, value):
    """Every one-hop extension of walks that end at positions ``at`` with
    product ``value``.  Returns (walk, next position, product) per extension
    with a positive product, in CSR order within each walk."""
    degree = np.diff(csr.indptr)[at]
    walk = np.repeat(np.arange(len(at)), degree)
    entry = np.arange(len(walk)) + np.repeat(
        csr.indptr[at] - np.cumsum(degree) + degree, degree)
    product = value[walk] * steps[entry]
    keep = product > 0
    return walk[keep], csr.indices[entry[keep]], product[keep]


def khop_shares(graph: ClientGraph, common, k: int) -> np.recarray:
    """Implied shares for common pairs connected only through short paths.

    For common i, j with no direct edge but some path of length h <= k
    (h = shortest such length, intermediate vertices unrestricted), the share
    value is the maximum over length-h paths of the product of per-hop
    normalized values.  Emitted in addition to the 1-hop shares, sorted by
    (src, hops, dst).  A zero-weight edge carries no path, yet its endpoints
    count as directly connected.
    """
    if k not in (2, 3):
        raise ValueError("k must be 2 or 3")
    csr, is_common, steps = _sender_view(graph, common)
    n = len(csr.nodes)
    taken = csr.rows * n + csr.indices       # pair keys with a shorter path
    src = np.flatnonzero(is_common)
    walk, end, product = _extend(csr, steps, src, np.ones(len(src)))
    src = src[walk]
    found = []
    for hops in range(2, k + 1):
        walk, end, product = _extend(csr, steps, end, product)
        src = src[walk]
        pair = src * n + end
        # walks that are no simple path (i-m-i, i-m-i-x, i-m-x-m, i-m-x-i)
        # end at i or at a direct neighbor of i, so these filters drop them
        new = (end != src) & is_common[end] & ~_find(taken, pair)[1]
        # best product per pair: sort by pair, then product descending, and
        # keep the first of each run
        order = np.flatnonzero(new)[np.lexsort((-product[new], pair[new]))]
        first = order[_first_of_runs(pair[order])]
        keys = pair[first]
        found.append((keys, product[first], np.full(len(keys), hops)))
        if hops < k:
            taken = _place(_merge(taken, keys), taken, keys)
    keys, best, hops = (np.concatenate(part) for part in zip(*found))
    order = np.lexsort((keys, hops, keys // n))
    keys = keys[order]
    return _shares(graph, keys // n, keys % n, best[order], hops[order])


def apply_dp(shares: np.recarray, epsilon: float, seed: int = 0) -> np.recarray:
    """A copy of the share batch with Laplace(1/epsilon) noise on each value.

    Only values are perturbed: the (src, dst) pairs travel in the clear and
    are the same at every epsilon.  One edge changes every share at both its
    endpoints, so this is not edge-level epsilon-DP.
    ``epsilon = inf`` returns the batch itself.  Noisy values are clamped
    back to [0, 1 - delta]; the noise is drawn in row order from ``seed``.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if math.isinf(epsilon):
        return shares
    noisy = shares.copy()
    noise = np.random.default_rng(seed).laplace(0.0, 1.0 / epsilon, size=len(noisy))
    noisy.value = _clamp(noisy.value + noise)
    return noisy


def update_edge(n_value, local_incident_sum, lam: float):
    """Convert received normalized values to edge weights on local scale.

    Below the threshold: N / (1 - N) times the local incident sum; at or
    above it the ratio is capped at lam / (1 - lam).  A receiver vertex with
    no local edges uses 1.0 in place of its (zero) incident sum so remote
    structure can still materialize at unit scale.  Takes scalars or arrays.
    """
    base = np.where(local_incident_sum > 0, local_incident_sum, 1.0)
    ratio = np.fmin(n_value, lam)
    return ratio / (1.0 - ratio) * base


def fuse(local: ClientGraph, incoming, cfg: FusionConfig) -> ClientGraph:
    """Augment the local graph with the weights implied by a share batch.

    Shares for the same unordered pair are averaged per orientation (src
    side) first.  Each endpoint then yields a candidate weight via
    update_edge with the receiver's own incident sum of that endpoint; an
    orientation nobody sent borrows the other side's average.  The fused
    weight is the max of the local weight and both candidates, so local
    evidence is never destroyed; a pair with no local edge and two zero
    candidates adds no edge.  Rows come in (u, v) order.
    """
    csr = local.neighbor_csr
    n = len(csr.nodes)
    (src, dst), known = _find(csr.nodes, np.stack([incoming.src, incoming.dst]))
    unknown = ~known.all(axis=0)
    bad = np.flatnonzero(unknown | (src == dst))
    if len(bad):
        share = incoming[bad[0]]
        if unknown[bad[0]]:
            raise ValueError(
                f"protocol violation: share ({share.src}, {share.dst}) references "
                f"a vertex unknown to client {local.relation_name!r}")
        raise ValueError(f"protocol violation: self-referential share ({share.src})")

    # mean per orientation, each summed in list order
    oriented, group = np.unique(src * n + dst, return_inverse=True)
    means = np.bincount(group, weights=incoming.value) / np.bincount(group)
    heads, tails = oriented // n, oriented % n
    pairs = np.sort(np.minimum(heads, tails) * n + np.maximum(heads, tails))
    pairs = pairs[_first_of_runs(pairs)]
    u, v = pairs // n, pairs % n
    forward, has_forward = _find(oriented, pairs)
    backward, has_backward = _find(oriented, v * n + u)
    sums = incident_sums(local)
    candidate = np.maximum(
        update_edge(means[np.where(has_forward, forward, backward)], sums[u], cfg.lam),
        update_edge(means[np.where(has_backward, backward, forward)], sums[v], cfg.lam))
    entries = csr.rows * n + csr.indices
    at, in_local = _find(entries, pairs)
    local_weight = np.zeros(len(pairs))
    local_weight[in_local] = csr.weights[at[in_local]]

    keep = in_local | (candidate > 0)
    # a pair's fused row replaces its local edge; the other local edges stay
    only_local = csr.rows < csr.indices     # each local edge once, in row order
    only_local[at[in_local]] = False
    fused_keys, local_keys = pairs[keep], entries[only_local]
    from_local = _merge(fused_keys, local_keys)
    keys = _place(from_local, fused_keys, local_keys)
    return ClientGraph(
        relation_name=local.relation_name,
        vertices=local.vertices,
        edges=np.rec.fromarrays(
            [csr.nodes[keys // n], csr.nodes[keys % n],
             _place(from_local, np.maximum(local_weight, candidate)[keep],
                    csr.weights[only_local])],
            dtype=EDGE_DTYPE))


def edge_origins(local: ClientGraph, fused: ClientGraph, incoming) -> np.ndarray:
    """Origin of each row of ``fused = fuse(local, incoming, ...)``: 'fused' if no
    local edge, else 'both' if its pair got a share (even of 0), else 'local'."""
    csr = local.neighbor_csr
    n = len(csr.nodes)
    (src, dst), _ = _find(csr.nodes, np.stack([incoming.src, incoming.dst]))
    (u, v), _ = _find(csr.nodes, np.stack([fused.edges.u, fused.edges.v]))
    keys = u * n + v
    shared = _find(np.sort(np.minimum(src, dst) * n + np.maximum(src, dst)), keys)[1]
    in_local = _find(csr.rows * n + csr.indices, keys)[1]
    return np.where(in_local, np.where(shared, "both", "local"), "fused")


def _pair_intersection(a: ClientGraph, b: ClientGraph, cfg: FusionConfig) -> tuple:
    """Both sides' id arrays of the common vertices, from one PSI run."""
    if cfg.psi is None:
        common = psi_plain(a.vertices, b.vertices)
        return common, common
    result = psi_ddh(
        a.vertices, b.vertices, cfg.psi,
        seed=derive_seed(cfg.seed, "psi", a.relation_name, b.relation_name),
        name_a=a.relation_name, name_b=b.relation_name)
    return result.intersection_a, result.intersection_b


def virtual_fusion_round(clients, cfg: FusionConfig):
    """One full fusion round across every ordered client pair.

    Each unordered pair of clients runs PSI once; each sender then emits
    normalized (and, when configured, multi-hop) shares over its view of the
    intersection with each receiver, perturbs them, and transmits.  Each
    receiver fuses everything it got.  Output order matches the input client
    order.  Also returns each ordered pair's share batch for audit.
    """
    clients = list(clients)
    if len(clients) < 2:
        raise ValueError("virtual fusion needs at least 2 clients")
    names = [c.relation_name for c in clients]
    if len(set(names)) != len(names):
        raise ValueError("client relation names must be unique")

    shares_by_pair, commons = {}, {}
    for sender, receiver in itertools.permutations(clients, 2):
        pair = (sender.relation_name, receiver.relation_name)
        try:
            if pair not in commons:
                commons[pair], commons[pair[::-1]] = _pair_intersection(
                    sender, receiver, cfg)
            common = commons[pair]
            shares = normalize_edges(sender, common)
            if cfg.hops >= 2:
                shares = np.concatenate([shares, khop_shares(
                    sender, common, cfg.hops)]).view(np.recarray)
            shares = apply_dp(shares, cfg.dp_epsilon,
                              seed=derive_seed(cfg.seed, "dp", *pair))
        except Exception as exc:
            raise RuntimeError(f"fusion pair {pair[0]} -> {pair[1]}: {exc}") from exc
        shares_by_pair[pair] = shares

    fused = []
    for client, name in zip(clients, names):
        try:
            fused.append(fuse(client, received(shares_by_pair, name), cfg))
        except Exception as exc:
            raise RuntimeError(f"fusing client {name!r}: {exc}") from exc
    return fused, shares_by_pair


def received(shares_by_pair: dict, receiver: str) -> np.recarray:
    """Every batch sent to ``receiver``, concatenated in sender (dict) order."""
    return np.concatenate([shares for (_, to), shares in shares_by_pair.items()
                           if to == receiver]).view(np.recarray)


def write_shares(shares: np.recarray, path, sender: str) -> None:
    """Audit CSV of one sender's batch: ``sender,src,dst,hops,value`` per share."""
    write_rows(path, "# sender,src,dst,hops,value\n",
               [sender, shares.src, shares.dst, shares.hops, shares.value])


def write_tags(graph: ClientGraph, origins, path) -> None:
    """Audit CSV of a fused graph: ``src,dst,origin`` per edge, in (u, v)
    order, ``origins`` being its ``edge_origins``."""
    write_rows(path, "# src,dst,origin\n", [graph.edges.u, graph.edges.v, origins])
