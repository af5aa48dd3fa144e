"""Stage 1: virtual fusion of party graphs over privately-intersected vertices.

For every ordered pair of clients (sender, receiver) the sender normalizes
each edge between common vertices by the source vertex's incident weight sum,
optionally adds implied 2-hop shares, perturbs everything with Laplace
noise, and transmits.  Each receiver takes the batches sent to it, in sender
order, converts each normalized value back to an edge weight on its own scale
through a thresholded update and augments its local graph, never losing local
evidence (max rule).  A fused graph is a plain ``ClientGraph``;
``edge_origins`` derives its edges' audit tags.

Every step is array code over a graph's cached CSR (``neighbor_csr``), and
``ClientGraph.find`` turns vertex ids into CSR positions; ``_find`` searches
only sorted pair-key arrays.  A receiver groups the shares it got by
unordered pair once: ``_share_pairs`` gives each share its pair key and
orientation, and one sort of those keys gives each share its (pair,
orientation) slot.  Where entries for one vertex pair must become one edge,
they are merged one way: a stable ``argsort`` by pair key, then each run's
largest value by ``np.maximum.reduceat``.  One sender's shares to one
receiver are one read-only ``np.recarray`` of ``SHARE_DTYPE``, the wire and
audit format from emission through noise, fusion and dump: a packed 17-byte
record of int32 ids, an int8 hop count and a float64 value.  A sender
refuses a graph whose largest vertex id does not fit int32, so no id wraps.
A sender whose intersections with two receivers are equal emits its
pre-noise batch once, for both.  A receiver reads its batches where they
lie and never concatenates them; a record's columns are strided and its
value unaligned, so each pass reads a batch's column once, into a
contiguous array.  ``fuse`` drops each temporary at its last use: a round
holds the batches it returns, the fused graphs and one receiver's working
set.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import (EDGE_DTYPE, ClientGraph, _first_of_runs, id_array,
                   incident_sums, write_rows)
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
    "virtual_fusion_round",
    "write_shares",
    "write_tags",
]

# keeps normalized values strictly below 1 so the 1/(1-N) update stays finite
SHARE_CLAMP_DELTA = 1e-6

# One share per row: the src-dst edge weight over src's incident sum (orientation
# matters), clamped to [0, 1 - delta]; hops is 1 direct, 2 for an implied 2-hop path.
# A packed 17-byte record: int32 ids (``_shares`` refuses a larger vertex id),
# an int8 hop count and a float64 value.  A column is a strided view, the value
# column an unaligned one, so a receiver copies each column it reads once.
SHARE_DTYPE = np.dtype([("src", np.int32), ("dst", np.int32),
                        ("hops", np.int8), ("value", np.float64)])
_MAX_SHARE_ID = np.iinfo(SHARE_DTYPE["src"]).max


@dataclass(frozen=True)
class FusionConfig:
    """Knobs of the fusion stage.

    ``lam`` caps how much remote evidence can inflate a fused edge;
    ``hops = 2`` adds 2-hop path shares to the direct ones; ``dp_epsilon``
    adds Laplace(1/epsilon) noise to share values only (``inf`` turns it
    off): the (src, dst) pairs travel in the clear, so the sent pairs are
    the same at every epsilon and the fused edge set loses only the pairs
    whose shares were all clamped to 0, and one edge changes every share at
    both its endpoints, so this is not edge-level epsilon-DP; ``psi`` is the
    DDH group that intersects each pair's vertex sets, or None for the plain
    oracle.
    """

    lam: float = 0.5
    hops: int = 1
    dp_epsilon: float = math.inf
    psi: PsiBackend | None = None

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lam must lie strictly between 0 and 1")
        if self.hops not in (1, 2):
            raise ValueError("hops must be 1 or 2")
        if not (self.dp_epsilon > 0):
            raise ValueError("dp_epsilon must be positive (math.inf disables noise)")


def _clamp(values: np.ndarray) -> np.ndarray:
    """Clamp ``values`` to [0, 1 - delta] in place."""
    return np.clip(values, 0.0, 1.0 - SHARE_CLAMP_DELTA, out=values)


def _sender_view(graph: ClientGraph, common):
    """The graph's CSR, which of its positions are in the id set ``common``,
    and each entry's weight over its row's incident sum (0 for a zero
    weight, whose row sum may be 0 too)."""
    csr = graph.neighbor_csr
    at, found = graph.find(id_array(common))
    if not found.all():
        raise ValueError("common vertices must be a subset of the graph's vertices")
    is_common = np.zeros(len(graph.vertices), dtype=bool)
    is_common[at] = True
    steps = np.divide(csr.weights, incident_sums(graph)[csr.rows],
                      out=np.zeros_like(csr.weights), where=csr.weights > 0)
    return csr, is_common, steps


def _find(sorted_keys: np.ndarray, query: np.ndarray):
    """(position, found) of each query value in an ascending key array."""
    pos = np.searchsorted(sorted_keys, query)
    found = pos < len(sorted_keys)
    found[found] = sorted_keys[pos[found]] == query[found]
    return pos, found


def _largest_per_key(keys: np.ndarray, values: np.ndarray):
    """The distinct ``keys``, ascending, and each one's largest value."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = _first_of_runs(keys)
    return keys[first], np.maximum.reduceat(values[order], first)


def _shares(graph: ClientGraph, src, dst, values, hops) -> np.recarray:
    """A share batch with one row per CSR position pair, values clamped.  A
    graph with a vertex id that no int32 holds is refused, so no id wraps."""
    if len(graph.vertices) and graph.vertices[-1] > _MAX_SHARE_ID:
        raise ValueError(f"vertex id {graph.vertices[-1]} does not fit a share's "
                         f"int32 id (largest {_MAX_SHARE_ID})")
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


def khop_shares(graph: ClientGraph, common) -> np.recarray:
    """Implied shares for common pairs connected only through 2-hop paths.

    For common i, j with no direct edge but some path i-m-j (m any vertex),
    the share value is the maximum over such m of the product of the two
    per-hop normalized values.  Emitted in addition to the 1-hop shares,
    sorted by (src, dst).  A zero-weight edge carries no path, yet its
    endpoints count as directly connected.
    """
    csr, is_common, steps = _sender_view(graph, common)
    n = len(graph.vertices)
    first = is_common[csr.rows] & (steps > 0)
    walk, end, product = _extend(csr, steps, csr.indices[first], steps[first])
    src = csr.rows[first][walk]
    pair = src * n + end
    # a walk i-m-i is no path and ends at i; a direct neighbor of i has a
    # 1-hop share or a zero-weight edge
    new = (end != src) & is_common[end] & ~_find(csr.rows * n + csr.indices, pair)[1]
    keys, best = _largest_per_key(pair[new], product[new])
    return _shares(graph, keys // n, keys % n, best, 2)


def apply_dp(shares: np.recarray, epsilon: float, seed: int = 0) -> np.recarray:
    """A copy of the share batch with Laplace(1/epsilon) noise on each value.

    Only values are perturbed: the (src, dst) pairs travel in the clear and
    are the same at every epsilon.  One edge changes every share at both its
    endpoints, so this is not edge-level epsilon-DP.
    ``epsilon = inf`` returns the batch itself.  Noisy values are clamped
    back to [0, 1 - delta]; the noise is drawn in row order from ``seed``.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if math.isinf(epsilon):
        return shares
    noisy = shares.copy()
    values = np.random.default_rng(seed).laplace(0.0, 1.0 / epsilon, size=len(noisy))
    values += shares.value
    noisy.value = _clamp(values)
    return noisy


def update_edge(n_value, local_incident_sum, lam: float):
    """Convert received normalized values to edge weights on local scale.

    Below the threshold: N / (1 - N) times the local incident sum; at or
    above it the ratio is capped at lam / (1 - lam).  A receiver vertex with
    no local edges uses 1.0 in place of its (zero) incident sum so remote
    structure can still materialize at unit scale.  Takes scalars or arrays,
    and computes in place in one output array.
    """
    weight = np.fmin(n_value, lam, out=np.empty(
        np.broadcast(n_value, local_incident_sum).shape))
    weight /= 1.0 - weight
    # where the sum is 0 the base is 1.0, and a product with 1.0 is exact
    np.multiply(weight, local_incident_sum, out=weight,
                where=local_incident_sum > 0)
    return weight[()]


def _share_pairs(local: ClientGraph, batches):
    """The ``min * n + max`` key of every share's unordered pair over the
    receiver's n positions, in sender then row order, and whether each share
    runs from its pair's larger end.  Each end column is resolved once; a
    share naming a vertex the receiver lacks or one vertex twice, or valued
    outside [0, 1 - delta] (NaN included), is refused."""
    n = len(local.vertices)
    size = sum(len(shares) for shares in batches)
    keys = np.empty(size, dtype=np.int64)
    from_larger = np.empty(size, dtype=bool)
    start = 0
    for shares in batches:
        src, known = local.find(shares.src)
        dst, dst_known = local.find(shares.dst)
        known &= dst_known
        del dst_known
        ok = src != dst
        ok &= known
        value = np.ascontiguousarray(shares.value)
        ok &= value >= 0.0
        ok &= value <= 1.0 - SHARE_CLAMP_DELTA
        del value
        bad = np.flatnonzero(~ok)
        del ok
        if len(bad):
            share = shares[bad[0]]
            if not known[bad[0]]:
                raise ValueError(
                    f"protocol violation: share ({share.src}, {share.dst}) references "
                    f"a vertex unknown to client {local.relation_name!r}")
            if share.src == share.dst:
                raise ValueError(
                    f"protocol violation: self-referential share ({share.src})")
            raise ValueError(
                f"protocol violation: share ({share.src}, {share.dst}) has value "
                f"{share.value}, outside [0, 1 - {SHARE_CLAMP_DELTA}]")
        stop = start + len(shares)
        np.greater(src, dst, out=from_larger[start:stop])
        at = keys[start:stop]
        np.minimum(src, dst, out=at)
        at *= n
        at += np.maximum(src, dst, out=src)
        start = stop
    return keys, from_larger


def fuse(local: ClientGraph, batches, cfg: FusionConfig) -> ClientGraph:
    """Augment the local graph with the weights implied by the share
    ``batches`` it received, a sequence in sender order (one batch is a
    one-item list).  Only their ``src``, ``dst`` and ``value`` columns are
    read, where they lie: the batches are never concatenated.

    Shares are grouped by unordered pair {u, v}, u < v, with one sort, and
    averaged per orientation: the u -> v shares and the v -> u shares, each
    summed in sender then row order from 0.0.  Each endpoint then yields a
    candidate weight via update_edge of its orientation's average with the
    receiver's own incident sum of that endpoint; an orientation nobody sent
    borrows the other's average.  The fused weight is the max of the local
    weight and both candidates, so local evidence is never destroyed; a pair
    with no local edge and two zero candidates adds no edge.  Rows come in
    (u, v) order.
    """
    csr = local.neighbor_csr
    n = len(local.vertices)
    keys, from_larger = _share_pairs(local, batches)
    order = np.argsort(keys)
    keys = keys[order]
    first = _first_of_runs(keys)
    pairs = keys[first]
    # each share's slot: 2 * its pair's index, plus 1 if it runs v -> u; the
    # sorted keys' buffer counts pair starts, then goes back to share order
    keys.fill(0)
    keys[first[1:]] = 2
    del first
    slot = np.empty_like(order)
    slot[order] = np.cumsum(keys, out=keys)
    del keys, order
    slot += from_larger
    del from_larger
    total = np.zeros(2 * len(pairs))
    start = 0
    for shares in batches:
        np.add.at(total, slot[start:start + len(shares)],
                  np.ascontiguousarray(shares.value))
        start += len(shares)
    count = np.bincount(slot, minlength=len(total))
    del slot
    sent = count > 0
    mean = np.divide(total, count, out=total, where=sent).reshape(-1, 2)
    del total, count
    # an orientation nobody sent borrows the other's mean; each pair was
    # sent one way at least
    sent = sent.reshape(-1, 2)
    mean[~sent] = mean[:, ::-1][~sent]
    del sent
    u, v = np.divmod(pairs, n)
    sums = incident_sums(local)
    candidate = update_edge(mean[:, 0], sums[u], cfg.lam)
    del u
    np.maximum(candidate, update_edge(mean[:, 1], sums[v], cfg.lam), out=candidate)
    del mean, v
    positive = candidate > 0
    pairs, candidate = pairs[positive], candidate[positive]
    del positive
    # each local edge once, then each pair with a positive candidate; a pair
    # keeps its largest weight
    upper = csr.rows < csr.indices
    keys, weights = _largest_per_key(
        np.concatenate([csr.rows[upper] * n + csr.indices[upper], pairs]),
        np.concatenate([csr.weights[upper], candidate]))
    del pairs, candidate
    u, v = np.divmod(keys, n)
    return ClientGraph(
        relation_name=local.relation_name,
        vertices=local.vertices,
        edges=np.rec.fromarrays([local.vertices[u], local.vertices[v], weights],
                                dtype=EDGE_DTYPE))


def edge_origins(local: ClientGraph, fused: ClientGraph, batches) -> np.ndarray:
    """Origin of each row of ``fused``, fused from the share ``batches``: 'fused'
    if no local edge, else 'both' if its pair got a share (even of 0), else
    'local'."""
    csr = local.neighbor_csr
    n = len(local.vertices)
    sent = _share_pairs(local, batches)[0]
    sent.sort()
    keys, _ = local.find(fused.edges.u)
    keys *= n
    keys += local.find(fused.edges.v)[0]
    shared = _find(sent, keys)[1]
    in_local = _find(csr.rows * n + csr.indices, keys)[1]
    return np.where(in_local, np.where(shared, "both", "local"), "fused")


def _pair_intersection(a: ClientGraph, b: ClientGraph, cfg: FusionConfig,
                       seed: int) -> tuple:
    """Both sides' id arrays of the common vertices, from one PSI run."""
    if cfg.psi is None:
        common = psi_plain(a.vertices, b.vertices)
        return common, common
    result = psi_ddh(
        a.vertices, b.vertices, cfg.psi,
        seed=derive_seed(seed, "psi", a.relation_name, b.relation_name),
        name_a=a.relation_name, name_b=b.relation_name)
    return result.intersection_a, result.intersection_b


def virtual_fusion_round(clients, cfg: FusionConfig, seed: int = 0):
    """One full fusion round across every ordered client pair.

    Each unordered pair of clients runs PSI once; each sender then emits
    normalized (and, at ``hops = 2``, 2-hop) shares over its view of the
    intersection with each receiver, perturbs them, and transmits.  A
    sender's pairs come one after another, so when its intersection with the
    next receiver equals the last one, the last pre-noise batch is reused:
    only that one batch is held.  Each receiver then fuses the batches sent
    to it, in sender order, where they lie (see ``fuse``).
    Output order matches the input client order.  Also returns each ordered
    pair's share batch, read-only, for audit; at ``dp_epsilon = inf`` two
    pairs may hold the same array.  The PSI secrets and the DP noise of each
    pair descend from ``seed``.
    """
    clients = list(clients)
    if len(clients) < 2:
        raise ValueError("virtual fusion needs at least 2 clients")
    names = [c.relation_name for c in clients]
    if len(set(names)) != len(names):
        raise ValueError("client relation names must be unique")

    # every client's index outlives the round; building them all before the
    # first batch keeps the heap that the freed batches leave reusable by
    # training (at 16k nodes a run peaked 54 MB higher without it)
    for client in clients:
        client.neighbor_csr
    shares_by_pair, commons = {}, {}
    last = None             # (sender, common ids, pre-noise batch) of the last pair
    for sender, receiver in itertools.permutations(clients, 2):
        pair = (sender.relation_name, receiver.relation_name)
        try:
            if pair not in commons:
                commons[pair], commons[pair[::-1]] = _pair_intersection(
                    sender, receiver, cfg, seed)
            common = commons[pair]
            if not (last and last[0] is sender and np.array_equal(last[1], common)):
                shares = normalize_edges(sender, common)
                if cfg.hops == 2:
                    shares = np.concatenate(
                        [shares, khop_shares(sender, common)]).view(np.recarray)
                last = sender, common, shares
            shares = apply_dp(last[2], cfg.dp_epsilon,
                              seed=derive_seed(seed, "dp", *pair))
            shares.flags.writeable = False
        except Exception as exc:
            raise RuntimeError(f"fusion pair {pair[0]} -> {pair[1]}: {exc}") from exc
        shares_by_pair[pair] = shares

    fused = []
    for client, name in zip(clients, names):
        try:
            fused.append(fuse(client, [shares for (_, to), shares
                                       in shares_by_pair.items() if to == name], cfg))
        except Exception as exc:
            raise RuntimeError(f"fusing client {name!r}: {exc}") from exc
    return fused, shares_by_pair


def write_shares(shares: np.recarray, path, sender: str) -> None:
    """Audit CSV of one sender's batch: ``sender,src,dst,hops,value`` per share."""
    write_rows(path, "# sender,src,dst,hops,value\n",
               [sender, shares.src, shares.dst, shares.hops, shares.value])


def write_tags(graph: ClientGraph, origins, path) -> None:
    """Audit CSV of a fused graph: ``src,dst,origin`` per edge, in (u, v)
    order, ``origins`` being its ``edge_origins``."""
    write_rows(path, "# src,dst,origin\n", [graph.edges.u, graph.edges.v, origins])
