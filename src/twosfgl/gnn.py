"""From-scratch graph neural networks with manual backpropagation.

Two one-hidden-layer binary node classifiers over 64-bit floats:

* GCN:  logits = A_hat . (relu(A_hat X W1) . W2), where A_hat is the
  symmetrically normalized adjacency (self-loops added, D^-1/2 A D^-1/2),
  built from the graph's CSR plus the identity; the CSR is the graph's
  cached one, or, on a graph with none cached, one built for A_hat alone
  and dropped.  A_hat X does not depend on the weights, so callers compute
  it once per graph and pass it in place of X.  The second propagation multiplies A_hat by the narrow
  side, the N x 2 product hidden . W2, not by the N x 64 hidden layer
  (the order of Kipf & Welling 2017).  The backward pass likewise
  propagates the N x 2 logit gradient once, through A_hat^T, and both
  weight gradients reuse it.
* SAGE: each node concatenates its own features with the mean of at most
  ``fanout`` sampled neighbor features, passes through a relu hidden layer,
  then a linear head.  Sampling works on the graph's cached CSR: one uniform
  key per (node, neighbor) entry, the ``fanout`` smallest keys of each row
  are kept (a uniform draw without replacement), and each row adds up its
  picked neighbor rows in CSR entry order, from 0.0, before the division:
  one ``data.GraphCSR`` product with unit weights over the picked entries.

A_hat is a ``data.GraphCSR`` over the graph's vertex positions, the type of
the graph's own index, so its products are that type's bit-exact ones.  It
holds the CSR entries plus the diagonal, sorted by (row, column), each valued
(d[row] * w) * d[col] with d = 1 / sqrt(row sums); entries exactly 0
(zero-weight edges) are dropped.

A model is only its two weight matrices: W1's rows (F for GCN, 2F for SAGE)
tell the two apart, and a backward uses A_hat^T when its cache holds one.

A ``ForwardCache`` is the forward state of one client: one N x hidden
array, allocated once, plus what the last forward left for backward,
including the params object it ran with.  A forward writes the hidden layer
into that array, relu applied in place.  A backward consumes its forward: it
reads the hidden layer, then writes the hidden-layer gradient over it and
marks the cache empty, so the next backward needs a new forward.  So a
training step allocates nothing of that size.  A forward called without a
cache allocates a fresh one.

The loss is mean softmax cross-entropy over a node mask; gradients are
analytic and verified against finite differences in the test suite.  The
softmax is taken once per forward and kept on its cache.  The optimizer is
bias-corrected Adam.
"""

import struct
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .data import ClientGraph, GraphCSR

__all__ = [
    "ModelParams",
    "AdamState",
    "ForwardCache",
    "init_params",
    "normalized_adjacency",
    "gcn_forward",
    "sample_neighbor_means",
    "sage_forward",
    "softmax",
    "loss_and_grads",
    "init_adam",
    "adam_step",
    "params_to_bytes",
]

HIDDEN_UNITS = 64
NUM_CLASSES = 2
# Adam's moment decay rates and denominator guard (Kingma & Ba 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class ModelParams:
    """Dense weights of a 1-hidden-layer classifier.

    gcn:  W1 is F x hidden, W2 is hidden x 2.
    sage: W1 is 2F x hidden (self features concatenated with the neighbor
    mean), W2 is hidden x 2.
    """

    W1: np.ndarray
    W2: np.ndarray

    def copy(self) -> "ModelParams":
        return ModelParams(self.W1.copy(), self.W2.copy())


@dataclass
class AdamState:
    """First/second moment accumulators, step count and learning rate."""

    m: ModelParams
    v: ModelParams
    step: int
    lr: float


@dataclass
class ForwardCache:
    """One client's forward state, sufficient for one backward.

    The N x hidden array is allocated once.  Every forward into this cache
    writes its relu output there, and the backward of that forward writes
    the relu-masked hidden-layer gradient over it.  The other fields describe
    the last forward, ``params`` being the very object it ran with: None
    before the first forward and after a backward, when the cache holds no
    forward.
    """

    hidden: np.ndarray                # relu output, then its gradient
    params: ModelParams | None = None
    adjacency: GraphCSR | None = None   # gcn only
    inputs: np.ndarray | None = None  # gcn: A_hat . X;  sage: [X || H_N]
    probs: np.ndarray | None = None   # softmax of the logits

    @classmethod
    def empty(cls, rows: int, width: int) -> "ForwardCache":
        return cls(np.empty((rows, width)))


def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(arch: str, feature_width: int, seed: int = 0,
                hidden: int = HIDDEN_UNITS) -> ModelParams:
    """Seeded Glorot-uniform initialization for either architecture."""
    if arch not in ("gcn", "sage"):
        raise ValueError(f"unknown architecture {arch!r}")
    rng = np.random.default_rng(seed)
    in1 = feature_width if arch == "gcn" else 2 * feature_width
    return ModelParams(
        W1=_glorot(rng, in1, hidden),
        W2=_glorot(rng, hidden, NUM_CLASSES),
    )


def normalized_adjacency(graph: ClientGraph) -> GraphCSR:
    """Symmetrically normalized weighted adjacency with unit self-loops.

    Rows/columns follow ``graph.vertices``.  Every diagonal degree
    entry is at least 1 (the self-loop), so the result is finite even for
    isolated vertices or zero-weight edges.  Reads ``graph.transient_csr``,
    so a graph whose index was not cached is left without one.
    """
    csr = graph.transient_csr()
    n = len(graph.vertices)
    loops = np.arange(n)
    # each self-loop goes after the row's entries below the diagonal; the
    # zero-weight entries stay for the degree sums, whose order fixes the
    # rounding, and leave only with the zero values
    at = csr.indptr[:-1] + np.bincount(csr.rows[csr.indices < csr.rows],
                                       minlength=n)
    cols = np.insert(csr.indices, at, loops)
    weights = np.insert(csr.weights, at, 1.0)
    indptr = csr.indptr + np.arange(n + 1)
    del csr, at                       # an index built for A_hat alone is freed
    rows = np.repeat(loops, np.diff(indptr))
    d_half = 1.0 / np.sqrt(np.add.reduceat(weights, indptr[:-1]))
    # (d_half[rows] * weights) * d_half[cols], in place
    values = d_half[rows]
    values *= weights
    del weights
    values *= d_half[cols]
    kept = values != 0.0
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[kept], minlength=n))))
    del rows
    return GraphCSR(indptr, cols[kept], values[kept])


def _fill(params: ModelParams, inputs: np.ndarray,
          adjacency: GraphCSR | None, cache: ForwardCache | None):
    """Write the forward of ``params`` over first-layer ``inputs`` into
    ``cache`` (a fresh one if None): relu(inputs @ W1) @ W2, propagated by
    ``adjacency`` when given, and its softmax.  Returns (logits, cache)."""
    if inputs.shape[1] != params.W1.shape[0]:
        raise ValueError(f"first-layer feature width {inputs.shape[1]} does not "
                         f"match W1 rows {params.W1.shape[0]}")
    if cache is None:
        cache = ForwardCache.empty(len(inputs), params.W1.shape[1])
    cache.params = None               # stale until the fill completes
    np.maximum(np.matmul(inputs, params.W1, out=cache.hidden), 0.0, out=cache.hidden)
    logits = cache.hidden @ params.W2
    if adjacency is not None:
        logits = adjacency @ logits
    cache.adjacency, cache.inputs = adjacency, inputs
    cache.probs = softmax(logits)
    cache.params = params
    return logits, cache


def gcn_forward(params: ModelParams, adjacency: GraphCSR,
                propagated_features: np.ndarray,
                cache: ForwardCache | None = None):
    """Forward pass from the first propagation ``adjacency @ X``, which the
    caller computes once; propagates the N x 2 product ``hidden @ W2``
    itself.  Writes into ``cache``.  Returns (logits, cache)."""
    return _fill(params, np.asarray(propagated_features, dtype=np.float64),
                 adjacency, cache)


def sample_neighbor_means(graph: ClientGraph, features: np.ndarray,
                          fanout: int, seed: int) -> np.ndarray:
    """Mean of <= fanout sampled neighbor feature rows per node.

    ``features`` rows follow ``graph.vertices``.  Nodes with
    degree <= fanout use all neighbors (no replacement, no padding); isolated
    nodes get the zero vector.  Edge weights play no part, so zero-weight
    edges can be sampled.  Deterministic per seed.

    The picks equal those of ``np.lexsort((keys, rows))``: the entries are
    sorted by key, then stably by row, with the row ids cast to the
    narrowest unsigned type that holds n, which numpy radix-sorts when it is
    16 bits or narrower.
    """
    if fanout < 1:
        raise ValueError("fanout must be >= 1")
    csr = graph.neighbor_csr
    indptr, indices, rows = csr.indptr, csr.indices, csr.rows
    n = len(indptr) - 1
    degree = np.diff(indptr)
    nnz = len(indices)
    keys = np.random.default_rng(seed).random(nnz)
    # entries by key, ties by entry index: the default sort is exact when no
    # two keys are equal, and the stable sort redoes it when two are
    order = np.argsort(keys)
    sorted_keys = keys[order]
    if np.any(sorted_keys[1:] == sorted_keys[:-1]):
        order = np.argsort(keys, kind="stable")
    # then stably by row: rows keep their slots, so the first fanout slots of
    # a row hold its smallest keys
    row_of = rows.astype(np.min_scalar_type(n))[order]
    by_key = order[np.argsort(row_of, kind="stable")]
    picked = np.zeros(nnz, dtype=bool)
    picked[by_key[np.arange(nnz) - indptr[rows] < fanout]] = True
    # each row adds its picked feature rows in CSR entry order, from 0.0:
    # the product with unit weights over the picked entries
    count = np.minimum(degree, fanout)
    cols = indices[picked]
    sampled = GraphCSR(np.concatenate([[0], np.cumsum(count)]), cols,
                       np.ones(len(cols)))
    return (sampled @ features) / np.maximum(count, 1)[:, None]


def sage_forward(params: ModelParams, graph: ClientGraph, features: np.ndarray,
                 fanout: int, seed: int = 0,
                 cache: ForwardCache | None = None):
    """Sample-and-aggregate forward pass, written into ``cache``.  Returns
    (logits, cache)."""
    features = np.asarray(features, dtype=np.float64)
    neighbor_mean = sample_neighbor_means(graph, features, fanout, seed)
    concat = np.concatenate([features, neighbor_mean], axis=1)
    return _fill(params, concat, None, cache)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the max-shifted logits.

    The row max and the row sum are taken column by column with
    ``np.maximum`` and ``np.add``, which at two columns costs a fraction of
    ``max(axis=1)`` and ``sum(axis=1)``.  The bits are those of the two-pass
    formula: a max is exact in any order, and numpy sums a row narrower than
    8 entries left to right, as this does.
    """
    exp = np.exp(logits - reduce(np.maximum, logits.T)[:, None])
    return exp / reduce(np.add, exp.T)[:, None]


def loss_and_grads(params: ModelParams, cache: ForwardCache,
                   labels: np.ndarray, mask: np.ndarray):
    """Mean softmax cross-entropy over masked nodes, with analytic grads.

    ``cache`` must hold a forward of ``params``, and the backward consumes
    it: the N x hidden gradient is written over the cache's hidden layer,
    and the cache is left holding no forward (``params`` None).  ``mask`` is
    a boolean vector over the cache's node rows.  Returns (loss, grads) with
    grads shaped like the params.
    """
    if cache.params is not params:
        raise ValueError("the cache holds no forward of these params")
    mask = np.asarray(mask, dtype=bool)
    rows = np.flatnonzero(mask)
    n_masked = len(rows)
    if n_masked == 0:
        raise ValueError("loss mask is empty")
    picked_labels = np.asarray(labels, dtype=np.int64)[rows]
    probs = cache.probs
    picked = probs[rows, picked_labels]
    loss = float(-np.log(np.maximum(picked, 1e-300)).mean())

    # probs on masked rows, 0.0 elsewhere, minus the one-hot labels
    grad_logits = probs * mask[:, None]
    grad_logits[rows, picked_labels] -= 1.0
    grad_logits /= n_masked

    # gradient w.r.t. the unpropagated logits hidden @ W2 (N x 2)
    grad_head = (cache.adjacency.transpose_matmul(grad_logits)
                 if cache.adjacency is not None else grad_logits)
    hidden = cache.hidden
    grad_w2 = hidden.T @ grad_head
    active = hidden > 0               # relu(x) > 0 exactly where x > 0
    cache.params = None
    grad_pre = np.matmul(grad_head, params.W2.T, out=hidden)
    grad_pre *= active
    grad_w1 = cache.inputs.T @ grad_pre
    return loss, ModelParams(W1=grad_w1, W2=grad_w2)


def init_adam(params: ModelParams, lr: float) -> AdamState:
    zeros = ModelParams(np.zeros_like(params.W1), np.zeros_like(params.W2))
    return AdamState(m=zeros, v=zeros.copy(), step=0, lr=lr)


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState):
    """One bias-corrected Adam update; returns new (params, state)."""
    if params.W1.shape != grads.W1.shape or params.W2.shape != grads.W2.shape:
        raise ValueError("gradient shapes do not match parameter shapes")
    t = state.step + 1
    w1, m1, v1 = _adam_update(params.W1, grads.W1, state.m.W1, state.v.W1, t,
                              state.lr)
    w2, m2, v2 = _adam_update(params.W2, grads.W2, state.m.W2, state.v.W2, t,
                              state.lr)
    return ModelParams(w1, w2), AdamState(
        ModelParams(m1, m2), ModelParams(v1, v2), t, state.lr)


def _adam_update(w, g, m, v, t: int, lr: float):
    """One matrix's Adam update at step t: (new weights, new m, new v)."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    return w - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v


def params_to_bytes(params: ModelParams) -> bytes:
    """Flat binary layout: matrix count, then per-matrix (rows, cols,
    row-major float64 data)."""
    out = [struct.pack("<I", 2)]
    for mat in (params.W1, params.W2):
        out.append(struct.pack("<II", *mat.shape))
        out.append(np.ascontiguousarray(mat, dtype=np.float64).tobytes())
    return b"".join(out)
