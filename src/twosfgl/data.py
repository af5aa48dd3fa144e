"""Graph data model, CSV ingestion, and the sampling/splitting protocol.

A dataset is one shared node table (features + binary labels) plus one
weighted undirected edge list per named relation.  Each relation is treated
as one party's graph in the federation experiments.

CSV contracts (UTF-8, no header row; ``#`` starts a comment that runs to the
end of its line, and blank lines are ignored):

* node file:      ``id,label,f0,...,f{F-1}``   (label in {0, 1}, finite features)
* relation file:  ``src,dst[,weight]``         (finite weight >= 0, default 1.0)

Edges are undirected and stored once under the canonical ``(min, max)`` pair;
duplicate rows are summed.  Self-loop rows are ignored (self-loops enter the
model only as part of adjacency normalization downstream).  Public dataset
releases must be exported to these CSVs before use; the loader reads only
this contract.  It parses a file in one pass with numpy's C reader and falls
back to a per-line parser, which names the first bad row, for any file that
pass cannot take whole.

A vertex or id set has one form, an ascending, read-only int64 array without
repeats (``id_array``): a graph's ``vertices``, a PSI result, a sample and
each side of a split.  ``ClientGraph.edges`` is the one stored form of a
graph: a record array of ``EDGE_DTYPE`` (``u``, ``v``, ``weight``), ``u < v``,
rows strictly ascending by ``(u, v)``; it is what is loaded, validated, fused
and dumped.  Every stage reads it through the cached
``ClientGraph.neighbor_csr``, a ``GraphCSR`` whose id map is the graph's own
``vertices``.  ``GraphCSR`` is the one sparse matrix type: the GCN's
normalized adjacency is one too, over the same vertices.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "EDGE_DTYPE",
    "NodeTable",
    "GraphCSR",
    "ClientGraph",
    "id_array",
    "MultiRelationDataset",
    "SplitAssignment",
    "DatasetFormatError",
    "load_dataset",
    "load_node_table",
    "load_relation",
    "write_rows",
    "write_node_table",
    "write_relation",
    "balance_sample",
    "stratified_split",
    "incident_sums",
    "zscore_features",
]


class DatasetFormatError(ValueError):
    """Raised when an ingested CSV violates the dataset contract."""


# One undirected edge per row: canonical endpoints u < v and a weight >= 0.
EDGE_DTYPE = np.dtype([("u", np.int64), ("v", np.int64), ("weight", np.float64)])


@dataclass(eq=False)
class NodeTable:
    """Shared node store: dense ids [0, N), feature matrix, binary labels."""

    features: np.ndarray  # (N, F) float64
    labels: np.ndarray    # (N,) int64, values in {0, 1}

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise DatasetFormatError("features must be a 2-D matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise DatasetFormatError("labels must have one entry per node")
        bad = ~np.isin(self.labels, (0, 1))
        if bad.any():
            raise DatasetFormatError(
                f"non-binary label for node id {int(np.flatnonzero(bad)[0])}"
            )

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def feature_width(self) -> int:
        return self.features.shape[1]


def id_array(ids) -> np.ndarray:
    """``ids`` in the one form of a vertex or id set: an ascending, read-only
    int64 array without repeats.  A read-only array already in that form is
    returned as it is; anything else is sorted and deduplicated into a new
    array."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim == 1 and not ids.flags.writeable and (ids[1:] > ids[:-1]).all():
        return ids
    ids = np.unique(ids)
    ids.flags.writeable = False
    return ids


class GraphCSR:
    """A square sparse matrix over a vertex set in CSR layout: a graph's
    neighbor index, or the normalized adjacency built from it.

    ``nodes[p]`` is the vertex id at position p.  Row p holds the column
    positions ``indices[indptr[p]:indptr[p + 1]]``, ascending, with their
    ``weights``; ``rows`` is each entry's row, computed once.  A graph's
    index holds each edge once in each endpoint's row, zero weights kept.

    The products are bit for bit those of scipy's CSR kernels: each output
    of ``A @ x`` adds its terms ``weight * x`` in stored entry order from
    0.0, and ``transpose_matmul`` swaps rows and columns.  They go one
    column of ``x`` at a time, the column's nnz terms gathered into one
    scratch array and summed per output row by ``np.bincount``, so no index
    array wider than nnz is built.
    """

    def __init__(self, nodes, indptr, indices, weights):
        self.nodes, self.indptr = nodes, indptr
        self.indices, self.weights = indices, weights
        self.rows = np.repeat(np.arange(len(nodes)), np.diff(indptr))

    @property
    def nnz(self) -> int:
        return len(self.weights)

    def _product(self, x, out_index, in_index) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        n = len(self.nodes)
        out = np.empty((n, x.shape[1]))
        terms = np.empty(self.nnz)
        for col in range(x.shape[1]):
            np.take(x[:, col], in_index, out=terms)
            np.multiply(self.weights, terms, out=terms)
            out[:, col] = np.bincount(out_index, weights=terms, minlength=n)
        return out

    def __matmul__(self, x) -> np.ndarray:
        return self._product(x, self.rows, self.indices)

    def transpose_matmul(self, x) -> np.ndarray:
        """``A^T @ x`` without building the transpose."""
        return self._product(x, self.indices, self.rows)


@dataclass(frozen=True, eq=False)
class ClientGraph:
    """One party's view: a vertex set and its weighted undirected edges.

    ``vertices`` is an id array (``id_array`` normalizes the input).
    ``edges`` is a read-only record array of ``EDGE_DTYPE``, one row per
    edge, with ``u < v``, rows strictly ascending by ``(u, v)``, endpoints
    in ``vertices`` and finite nonnegative weights.  Instances are immutable
    and safe to share across workers; array code reads ``neighbor_csr``.
    """

    relation_name: str
    vertices: np.ndarray   # ascending read-only int64 ids
    edges: np.recarray     # EDGE_DTYPE rows
    node_ref: NodeTable | None = None

    def __post_init__(self):
        object.__setattr__(self, "vertices", id_array(self.vertices))
        edges = np.asarray(self.edges, dtype=EDGE_DTYPE).view(np.recarray)
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        u, v, w = edges.u, edges.v, edges.weight
        inside = np.isin(u, self.vertices) & np.isin(v, self.vertices)
        ascending = np.ones(len(edges), dtype=bool)
        ascending[1:] = (u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))
        finite = np.isfinite(w)
        bad = np.flatnonzero((u >= v) | ~inside | ~ascending | ~finite | (w < 0))
        if len(bad):
            i = bad[0]
            problem = ("is not canonical (u < v)" if u[i] >= v[i] else
                       "has endpoint outside the vertex set" if not inside[i] else
                       "is repeated or out of (u, v) order" if not ascending[i] else
                       f"has non-finite weight {w[i]}" if not finite[i] else
                       f"has negative weight {w[i]}")
            raise ValueError(f"edge ({u[i]}, {v[i]}) {problem}")

    @cached_property
    def neighbor_csr(self) -> GraphCSR:
        """The graph's one derived index, built on first use and cached.  Its
        id map is ``vertices``, the row order of every matrix built from it."""
        nodes = self.vertices
        ends = np.searchsorted(nodes, np.stack([self.edges.u, self.edges.v], axis=1))
        rows, cols = np.concatenate([ends, ends[:, ::-1]]).T
        order = np.lexsort((cols, rows))
        indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(nodes)), out=indptr[1:])
        return GraphCSR(nodes, indptr, cols[order],
                        np.tile(self.edges.weight, 2)[order])


@dataclass
class MultiRelationDataset:
    """One node table plus one ClientGraph per named relation."""

    nodes: NodeTable
    relations: dict  # name -> ClientGraph


@dataclass(frozen=True, eq=False)
class SplitAssignment:
    """Disjoint train/test id arrays produced by stratified_split."""

    train_ids: np.ndarray
    test_ids: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "train_ids", id_array(self.train_ids))
        object.__setattr__(self, "test_ids", id_array(self.test_ids))
        if np.isin(self.train_ids, self.test_ids).any():
            raise ValueError("train and test sets overlap")


def _data_rows(path):
    """Yield (line_number, [fields]) for non-comment, non-blank CSV lines."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, [f.strip() for f in line.split(",")]


def _bulk_rows(path, dtype_of):
    """Every data row of ``path`` parsed by numpy's C reader into the dtype
    ``dtype_of(width)``, the width being the first data row's field count.

    Returns None when the file has no data row, ``dtype_of`` returns None or
    some row does not parse; the per-line parser then reads the file and
    names the first bad row.  Both parsers round each float correctly, so
    they agree bit for bit.
    """
    first = next(_data_rows(path), None)
    dtype = None if first is None else dtype_of(len(first[1]))
    if dtype is None:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(path, dtype=dtype, delimiter=",", comments="#",
                              ndmin=1, encoding="utf-8")
    except (ValueError, Warning):
        return None


def load_node_table(path) -> NodeTable:
    """Load a node CSV (``id,label,f0,...``) into a NodeTable.

    Ids must be exactly 0..N-1 (any row order); all rows must share one
    feature width; labels must be 0 or 1; features must be finite.
    """
    table = _bulk_rows(path, _node_dtype)
    if (table is None or not np.isin(table["label"], (0, 1)).all()
            or not np.isfinite(table["features"]).all()
            or not np.array_equal(np.sort(table["id"]), np.arange(len(table)))):
        return _load_node_table_per_line(path)
    features = np.empty_like(table["features"])
    labels = np.empty_like(table["label"])
    features[table["id"]] = table["features"]
    labels[table["id"]] = table["label"]
    return NodeTable(features=features, labels=labels)


def _node_dtype(width: int):
    if width < 3:
        return None
    return np.dtype([("id", np.int64), ("label", np.int64),
                     ("features", np.float64, (width - 2,))])


def _load_node_table_per_line(path) -> NodeTable:
    """``load_node_table`` one line at a time, raising on the first bad row."""
    rows = {}
    width = None
    for lineno, fields in _data_rows(path):
        if len(fields) < 3:
            raise DatasetFormatError(f"{path}:{lineno}: expected id,label,f0,... "
                                     f"got {len(fields)} fields")
        try:
            nid = int(fields[0])
            label = int(fields[1])
            feats = [float(f) for f in fields[2:]]
        except ValueError as exc:
            raise DatasetFormatError(f"{path}:{lineno}: malformed row ({exc})") from None
        if label not in (0, 1):
            raise DatasetFormatError(f"{path}:{lineno}: non-binary label {label} "
                                     f"for node id {nid}")
        if not all(map(math.isfinite, feats)):
            raise DatasetFormatError(f"{path}:{lineno}: non-finite feature "
                                     f"for node id {nid}")
        if width is None:
            width = len(feats)
        elif len(feats) != width:
            raise DatasetFormatError(f"{path}:{lineno}: feature width {len(feats)} "
                                     f"differs from {width}")
        if nid in rows:
            raise DatasetFormatError(f"{path}:{lineno}: duplicate node id {nid}")
        rows[nid] = (label, feats)
    if not rows:
        raise DatasetFormatError(f"{path}: no node rows")
    n = len(rows)
    missing = next((i for i in range(n) if i not in rows), None)
    if missing is not None:
        raise DatasetFormatError(f"{path}: node ids are not contiguous 0..{n - 1}"
                                 f" (missing id {missing})")
    features = np.array([rows[i][1] for i in range(n)], dtype=np.float64)
    labels = np.array([rows[i][0] for i in range(n)], dtype=np.int64)
    return NodeTable(features=features, labels=labels)


_RELATION_DTYPES = {
    2: np.dtype([("u", np.int64), ("v", np.int64)]),
    3: np.dtype([("u", np.int64), ("v", np.int64), ("weight", np.float64)]),
}


def load_relation(path, name: str, nodes: NodeTable) -> ClientGraph:
    """Load a relation CSV (``src,dst[,weight]``) against a node table.

    Duplicate rows (either orientation) are summed in file order; self-loop
    rows are ignored; endpoints must be valid node ids; weights must be
    finite and nonnegative.
    """
    n = nodes.num_nodes
    rows = _bulk_rows(path, _RELATION_DTYPES.get)
    if rows is not None and "weight" not in rows.dtype.names:
        rows = np.rec.fromarrays([rows["u"], rows["v"], np.ones(len(rows))],
                                 dtype=_RELATION_DTYPES[3])
    if (rows is None or (rows["weight"] < 0).any()
            or not np.isfinite(rows["weight"]).all()
            or not ((0 <= rows["u"]) & (rows["u"] < n)
                    & (0 <= rows["v"]) & (rows["v"] < n)).all()):
        rows = _relation_rows_per_line(path, n)
    u, v, w = rows["u"], rows["v"], rows["weight"]
    keep = u != v
    lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
    # bincount adds each pair's weights in file order, starting from 0.0
    keys, group = np.unique(lo * n + hi, return_inverse=True)
    weights = np.bincount(group, weights=w[keep], minlength=len(keys))
    edges = np.rec.fromarrays([keys // n, keys % n, weights], dtype=EDGE_DTYPE)
    return ClientGraph(relation_name=name, vertices=np.arange(n), edges=edges,
                       node_ref=nodes)


def _relation_rows_per_line(path, n: int) -> np.ndarray:
    """The (u, v, weight) rows of a relation CSV read one line at a time,
    raising on the first bad row; a 2-field row has weight 1.0."""
    rows = []
    for lineno, fields in _data_rows(path):
        if len(fields) not in (2, 3):
            raise DatasetFormatError(f"{path}:{lineno}: expected src,dst[,weight], "
                                     f"got {len(fields)} fields")
        try:
            u = int(fields[0])
            v = int(fields[1])
            w = float(fields[2]) if len(fields) == 3 else 1.0
        except ValueError as exc:
            raise DatasetFormatError(f"{path}:{lineno}: malformed row ({exc})") from None
        for endpoint in (u, v):
            if not 0 <= endpoint < n:
                raise DatasetFormatError(f"{path}:{lineno}: dangling endpoint id "
                                         f"{endpoint} (node table has {n} nodes)")
        if not math.isfinite(w):
            raise DatasetFormatError(f"{path}:{lineno}: non-finite weight {w}")
        if w < 0:
            raise DatasetFormatError(f"{path}:{lineno}: negative weight {w}")
        rows.append((u, v, w))
    return np.array(rows, dtype=_RELATION_DTYPES[3])


def load_dataset(node_path, relation_paths: dict) -> MultiRelationDataset:
    """Load a node CSV plus one relation CSV per name."""
    nodes = load_node_table(node_path)
    relations = {
        name: load_relation(path, name, nodes)
        for name, path in relation_paths.items()
    }
    return MultiRelationDataset(nodes=nodes, relations=relations)


WRITE_CHUNK_ROWS = 4096


def write_rows(path, header: str, columns) -> None:
    """Write ``header``, then one comma-separated row per index of the
    ``columns``: scalars repeated on every row, 1-D arrays of one length and
    2-D arrays of that many rows, each of whose columns is a field.

    A float is written as ``repr`` writes it and anything else as ``str``
    does; a text that is not ASCII or holds a NUL is refused.  Each entry's
    distinct values are formatted once, floats told apart by bit pattern so
    that ``-0.0`` and ``0.0`` keep their own text.  Each chunk of
    ``WRITE_CHUNK_ROWS`` rows is gathered from those texts into one bytes
    write, so the text held in memory stays bounded per chunk.
    """
    columns = [np.asarray(column) for column in columns]
    n = len(next(column for column in columns if column.ndim))
    tables = [_text_table(column, n) for column in columns]
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for start in range(0, n, WRITE_CHUNK_ROWS):
            rows = min(WRITE_CHUNK_ROWS, n - start)
            text = np.hstack([np.take(table, index[start:start + rows], axis=0)
                              .reshape(rows, -1) for table, index in tables])
            text[:, -1] = ord("\n")      # the last field's "," ends the row
            fh.write(text[text != 0].tobytes())


def _text_table(column: np.ndarray, n: int):
    """The texts of an entry's distinct values as the rows of a byte matrix,
    each padded with NULs and ended by a "," in the last byte, and the row of
    each of the entry's values, broadcast to ``n`` rows."""
    if column.dtype.kind == "f":
        bits = column.astype(np.float64, copy=False).view(np.uint64)
        keys, index = np.unique(bits, return_inverse=True)
        texts = list(map(repr, keys.view(np.float64).tolist()))
        width = 25                      # a float's repr has at most 24 characters
    else:
        keys, index = np.unique(column, return_inverse=True)
        texts = list(map(str, keys.tolist()))
        if "\0" in "".join(texts):
            raise ValueError("a CSV field holds a NUL")
        width = max(map(len, texts), default=0) + 1
    table = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    table[:, -1] = ord(",")
    return table, np.broadcast_to(index.reshape(column.shape),
                                  (n, *column.shape[1:]))


def write_node_table(nodes: NodeTable, path) -> None:
    write_rows(path, "# id,label,f0,...\n",
               [np.arange(nodes.num_nodes), nodes.labels, nodes.features])


def write_relation(graph: ClientGraph, path) -> None:
    """Write a graph's edges in the relation CSV contract, in (u, v) order."""
    edges = graph.edges
    write_rows(path, "# src,dst,weight\n", [edges.u, edges.v, edges.weight])


def balance_sample(labels, ratio_low: float, ratio_high: float,
                   seed: int = 0) -> np.ndarray:
    """An id array of nodes whose positive/negative ratio lies in [low, high].

    When the full data is already in range, everything is kept.  Otherwise
    the majority class is uniformly undersampled without replacement to the
    nearest ratio bound.  Deterministic for a fixed seed.
    """
    labels = np.asarray(labels)
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("balance_sample requires both classes nonempty")
    ratio = len(pos) / len(neg)
    rng = np.random.default_rng(seed)
    if ratio < ratio_low:
        # too many negatives: keep at most pos/ratio_low of them
        keep = int(len(pos) / ratio_low)
        neg = np.sort(rng.choice(neg, size=keep, replace=False))
    elif ratio > ratio_high:
        keep = int(ratio_high * len(neg))
        pos = np.sort(rng.choice(pos, size=keep, replace=False))
    return id_array(np.concatenate([pos, neg]))


def stratified_split(sampled_ids, labels, train_frac: float,
                     seed: int = 0) -> SplitAssignment:
    """Split sampled ids per class into train/test at train_frac.

    The fractional node of each class rounds toward train.  Train and test
    are disjoint id arrays that together cover the sampled set exactly.
    Each class's members are shuffled in ascending id order.
    """
    sampled = id_array(sampled_ids)
    if not len(sampled):
        raise ValueError("stratified_split requires a nonempty sample")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in (0, 1):
        members = sampled[labels[sampled] == cls]
        rng.shuffle(members)
        n_test = int(len(members) * (1.0 - train_frac))
        test.append(members[:n_test])
        train.append(members[n_test:])
    return SplitAssignment(train_ids=np.concatenate(train),
                           test_ids=np.concatenate(test))


def incident_sums(graph: ClientGraph) -> np.ndarray:
    """Each vertex's incident weight sum: the row sums of the graph's CSR.

    Entry p belongs to vertex ``graph.vertices[p]``; isolated
    vertices get 0.0.  Each row is summed in ascending neighbor order.
    """
    csr = graph.neighbor_csr
    return np.bincount(csr.rows, weights=csr.weights, minlength=len(csr.nodes))


def zscore_features(features: np.ndarray, train_ids) -> np.ndarray:
    """Standardize each feature dimension with train-split statistics, taken
    over the train rows in ascending id order.  Dimensions that are constant
    on the train split map to 0 everywhere.
    """
    features = np.asarray(features, dtype=np.float64)
    train_idx = id_array(train_ids)
    mean = features[train_idx].mean(axis=0)
    std = features[train_idx].std(axis=0)
    out = np.zeros_like(features)
    nonconst = std > 0
    out[:, nonconst] = (features[:, nonconst] - mean[nonconst]) / std[nonconst]
    return out

