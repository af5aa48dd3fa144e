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
this contract.  numpy's C reader is its one parser, so a number outside its
syntax (an underscore, a non-ASCII digit) is refused.  A well-formed file is
one reader pass over the path, then array checks on the parsed rows.  Python
reads the data lines only to name the ``path:line`` of a row that fails a
check, or when the reader refuses the file, as it does an indented comment,
a whitespace-only line or a relation mixing 2- and 3-field rows: the lines,
with a relation's 2-field rows given weight 1, are parsed again, and if they
are refused too, the first line the reader cannot parse on its own is named.
Of several bad rows, one the reader refuses is named first, else the first
to fail a check.

A vertex or id set has one form, an ascending, read-only int64 array without
repeats (``id_array``): a graph's ``vertices``, a PSI result, a sample and
each side of a split.  ``ClientGraph.edges`` is the one stored form of a
graph: a record array of ``EDGE_DTYPE`` (``u``, ``v``, ``weight``), ``u < v``,
rows strictly ascending by ``(u, v)``; it is what is loaded, validated, fused
and dumped.  A graph owns its one id map: ``vertices`` takes a position to
its id, and the cached ``positions`` table, that map's inverse, takes an id
back, so ``ClientGraph.find`` resolves vertex ids by one table lookup.
Vertex ids are node-table ids, so they are nonnegative and the table is as
long as the largest of them.  Every stage reads the edges through the
cached ``ClientGraph.neighbor_csr``, a ``GraphCSR`` over those positions,
except the GCN's normalized adjacency: it reads ``transient_csr``, which
leaves no index cached on a graph that had none.  ``GraphCSR`` is the one
sparse matrix type: the normalized adjacency is one too, over the same
positions.  Both are symmetric bit for bit, so its one product needs no
row array.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

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
    returned as it is; anything else is flattened, sorted and deduplicated
    into a new array, as ``np.unique`` would (which, under numpy 2.4, imports
    ``numpy.ma`` on its first call)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim == 1 and not ids.flags.writeable and (ids[1:] > ids[:-1]).all():
        return ids
    ids = np.sort(ids, axis=None)
    ids = ids[_first_of_runs(ids)]
    ids.flags.writeable = False
    return ids


def _first_of_runs(sorted_keys: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of equal values in a sorted array."""
    first = np.ones(len(sorted_keys), dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return np.flatnonzero(first)


class GraphCSR:
    """A square sparse matrix over positions 0..n-1 in CSR layout, n being
    ``len(indptr) - 1``: a graph's neighbor index, or the normalized
    adjacency built from it.  What vertex a position stands for is the
    graph's business (``ClientGraph.vertices``).

    Row p holds the column positions ``indices[indptr[p]:indptr[p + 1]]``,
    ascending, with their ``weights``; ``rows``, each entry's row, is built
    on first read.  The matrix is symmetric bit for bit: a graph's index
    holds each edge, with its one weight, in both endpoints' rows, zero
    weights kept, and ``gnn.normalized_adjacency`` makes its values so.
    So ``A @ x`` walks columns, one column of ``x`` at a time: each row's
    x value repeated over its entries, times their weights, summed per
    column index by ``np.bincount``.  Each output adds its terms in
    ascending row order from 0.0, scipy's CSR product bit for bit.
    """

    def __init__(self, indptr, indices, weights):
        self.indptr, self.indices, self.weights = indptr, indices, weights

    @property
    def nnz(self) -> int:
        return len(self.weights)

    @cached_property
    def rows(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        n = len(self.indptr) - 1
        if x.shape[0] != n:
            raise ValueError(f"x has {x.shape[0]} rows, not {n}")
        degree = np.diff(self.indptr)
        out = np.empty((n, x.shape[1]))
        for col in range(x.shape[1]):
            terms = np.repeat(x[:, col], degree)
            terms *= self.weights
            out[:, col] = np.bincount(self.indices, weights=terms, minlength=n)
            del terms                 # before the next column's are made
        return out


@dataclass(frozen=True, eq=False)
class ClientGraph:
    """One party's view: a vertex set and its weighted undirected edges;
    node features and labels stay in the dataset's ``NodeTable``.

    ``vertices`` is an id array (``id_array`` normalizes the input) of
    nonnegative ids, the node-table ids of the graph's nodes: ``vertices[p]``
    is the id at position p.  ``positions``, its inverse
    (``positions[vertices[p]] == p``), is built once, when the edges are
    checked, and ``find`` resolves ids through it.  ``edges`` is a read-only
    record array of ``EDGE_DTYPE``, one row per edge, with ``u < v``, rows
    strictly ascending by ``(u, v)``, endpoints in ``vertices`` and finite
    nonnegative weights.  Instances are immutable and safe to share across
    workers; array code reads ``neighbor_csr``.
    """

    relation_name: str
    vertices: np.ndarray   # ascending read-only int64 ids
    edges: np.recarray     # EDGE_DTYPE rows

    def __post_init__(self):
        object.__setattr__(self, "vertices", id_array(self.vertices))
        if len(self.vertices) and self.vertices[0] < 0:
            raise ValueError(f"negative vertex id {self.vertices[0]}")
        edges = np.asarray(self.edges, dtype=EDGE_DTYPE).view(np.recarray)
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        u, v, w = edges.u, edges.v, edges.weight
        inside = self.find(np.stack([u, v]))[1].all(axis=0)
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
    def positions(self) -> np.ndarray:
        """Position of each id 0..max vertex id, -1 for an id in a gap.  One
        more -1 follows, which ``find`` reads for every larger id."""
        table = np.full(self.vertices[-1] + 2 if len(self.vertices) else 1, -1,
                        dtype=np.int64)
        table[self.vertices] = np.arange(len(self.vertices))
        return table

    def find(self, ids):
        """(position, found) of each vertex id in ``ids``, by table lookup.
        An id below 0, above the largest vertex id or in a gap is not found,
        and its position means nothing.  ``ids`` are read once, into one
        contiguous intp array, whatever their stride or integer width."""
        ids = np.asarray(ids).astype(np.intp, order="C", casting="same_kind",
                                     copy=False)
        pos = self.positions.take(ids, mode="clip")
        found = pos >= 0
        found &= ids >= 0
        return pos, found

    @cached_property
    def neighbor_csr(self) -> GraphCSR:
        """The graph's one derived index, built on first use and cached.  Its
        positions are those of ``vertices``, the row order of every matrix
        built from it."""
        return self.transient_csr()

    def transient_csr(self) -> GraphCSR:
        """``neighbor_csr`` if it is cached, else the same index built anew
        and not cached: for a reader that needs the index once and keeps
        only what it derives, as the GCN's normalized adjacency does."""
        if "neighbor_csr" in self.__dict__:
            return self.neighbor_csr
        n = len(self.vertices)
        ends = self.positions[np.stack([self.edges.u, self.edges.v], axis=1)]
        rows, cols = np.concatenate([ends, ends[:, ::-1]]).T
        del ends
        order = np.lexsort((cols, rows))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        del rows
        cols = cols[order]
        weights = np.tile(self.edges.weight, 2)[order]
        del order
        return GraphCSR(indptr, cols, weights)


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


def _data_lines(path):
    """Yield (line number, text) for each data line of ``path``: the text
    with its comment cut and its ends stripped; blank lines are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


def _first_fields(path) -> int:
    """The field count of the first data line of ``path``, 0 without one."""
    return next((line.count(",") + 1 for _, line in _data_lines(path)), 0)


def _loadtxt(source, dtype):
    """``source``, a path or a list of data lines, parsed by numpy's C
    reader.  A source without data rows gives an empty array; any other
    warning refuses the source as an error does."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(source, dtype=dtype, delimiter=",", comments="#",
                          ndmin=1, encoding="utf-8")


def _parse_lines(path, dtype, problem, pad=None):
    """The data lines of ``path``, each rewritten by ``pad`` when given,
    parsed by numpy's C reader into ``dtype``.

    When the reader refuses them, the first line it cannot parse on its own
    (found by bisection) is named: ``problem(fields)`` says what is wrong
    with its field count, or returns None when the count is right and a
    value is malformed.
    """
    numbered = list(_data_lines(path))
    lines = [pad(line) if pad else line for _, line in numbered]
    try:
        return _loadtxt(lines, dtype)
    except (ValueError, Warning):
        pass
    lo, hi = 0, len(lines)          # lines[:lo] parse and lines[:hi] do not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _loadtxt(lines[:mid], dtype)
            lo = mid
        except (ValueError, Warning):
            hi = mid
    lineno, line = numbered[lo]
    problem = problem(line.count(",") + 1) or f"malformed row {line!r}"
    raise DatasetFormatError(f"{path}:{lineno}: {problem}")


def _refuse_row(path, row: int, problem: str):
    """Raise naming the file line of data row ``row`` of ``path``."""
    lineno = next(islice(_data_lines(path), row, None))[0]
    raise DatasetFormatError(f"{path}:{lineno}: {problem}")


def load_node_table(path) -> NodeTable:
    """Load a node CSV (``id,label,f0,...``) into a NodeTable.

    Ids must be exactly 0..N-1 (any row order); all rows must share the
    first row's feature width; labels must be 0 or 1; features must be
    finite.
    """
    width = _first_fields(path)
    if not width:
        raise DatasetFormatError(f"{path}: no node rows")
    dtype = np.dtype([("id", np.int64), ("label", np.int64),
                      ("features", np.float64, (max(width - 2, 1),))])
    try:
        table = _loadtxt(path, dtype)
    except (ValueError, Warning):
        table = _parse_lines(path, dtype, lambda fields: (
            f"expected id,label,f0,... got {fields} fields" if fields < 3 else
            f"feature width {fields - 2} differs from {width - 2}"
            if fields != width else None))
    ids, labels = table["id"], table["label"]
    n = len(table)
    order = np.argsort(ids, kind="stable")
    repeated = np.zeros(n, dtype=bool)
    repeated[order[1:]] = ids[order[1:]] == ids[order[:-1]]
    binary = (labels == 0) | (labels == 1)
    finite = np.isfinite(table["features"]).all(axis=1)
    bad = np.flatnonzero(~binary | ~finite | repeated)
    if len(bad):
        i = bad[0]
        _refuse_row(path, i, f"non-binary label {labels[i]} for node id {ids[i]}"
                    if not binary[i] else
                    f"non-finite feature for node id {ids[i]}" if not finite[i] else
                    f"duplicate node id {ids[i]}")
    if not np.array_equal(ids[order], np.arange(n)):
        missing = np.setdiff1d(np.arange(n), ids)[0]
        raise DatasetFormatError(f"{path}: node ids are not contiguous 0..{n - 1}"
                                 f" (missing id {missing})")
    return NodeTable(features=table["features"][order], labels=labels[order])


_RELATION_DTYPES = {
    2: np.dtype([("u", np.int64), ("v", np.int64)]),
    3: np.dtype([("u", np.int64), ("v", np.int64), ("weight", np.float64)]),
}


def load_relation(path, name: str, nodes: NodeTable) -> ClientGraph:
    """Load a relation CSV (``src,dst[,weight]``) against a node table.

    Duplicate rows (either orientation) are summed in file order; self-loop
    rows are ignored; endpoints must be valid node ids; weights must be
    finite and nonnegative; a file without data rows is an edgeless graph.
    A file that mixes 2- and 3-field rows is parsed again from its data
    lines, each 2-field line given the weight 1.
    """
    n = nodes.num_nodes
    dtype = _RELATION_DTYPES[2 if _first_fields(path) == 2 else 3]
    try:
        rows = _loadtxt(path, dtype)
    except (ValueError, Warning):
        rows = _parse_lines(
            path, _RELATION_DTYPES[3],
            lambda fields: None if fields in (2, 3) else
            f"expected src,dst[,weight], got {fields} fields",
            pad=lambda line: line + ",1" if line.count(",") == 1 else line)
    u, v = rows["u"], rows["v"]
    w = rows["weight"] if "weight" in rows.dtype.names else np.ones(len(rows))
    inside_u, inside_v = (0 <= u) & (u < n), (0 <= v) & (v < n)
    finite = np.isfinite(w)
    bad = np.flatnonzero(~inside_u | ~inside_v | ~finite | (w < 0))
    if len(bad):
        i = bad[0]
        end = v[i] if inside_u[i] else u[i]
        _refuse_row(path, i, f"dangling endpoint id {end} (node table has {n} nodes)"
                    if not (inside_u[i] and inside_v[i]) else
                    f"non-finite weight {w[i]}" if not finite[i] else
                    f"negative weight {w[i]}")
    keep = u != v
    lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
    # bincount adds each pair's weights in file order, starting from 0.0
    keys, group = np.unique(lo * n + hi, return_inverse=True)
    weights = np.bincount(group, weights=w[keep], minlength=len(keys))
    edges = np.rec.fromarrays([keys // n, keys % n, weights], dtype=EDGE_DTYPE)
    return ClientGraph(relation_name=name, vertices=np.arange(n), edges=edges)


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
    each of the entry's values, in the narrowest unsigned type that holds
    it, broadcast to ``n`` rows.  Floats are formatted ``WRITE_CHUNK_ROWS``
    distinct values at a time, straight into the matrix."""
    if column.dtype.kind == "f":
        keys, index = _unique_bits(column.astype(np.float64, copy=False))
        width = 25                      # a float's repr has at most 24 characters
        table = np.empty((len(keys), width), dtype=np.uint8)
        for start in range(0, len(keys), WRITE_CHUNK_ROWS):
            chunk = keys[start:start + WRITE_CHUNK_ROWS].tolist()
            table[start:start + len(chunk)] = _byte_rows(list(map(repr, chunk)), width)
    else:
        keys, index = np.unique(column, return_inverse=True)
        texts = list(map(str, keys.tolist()))
        if "\0" in "".join(texts):
            raise ValueError("a CSV field holds a NUL")
        table = _byte_rows(texts, max(map(len, texts), default=0) + 1)
        index = index.astype(_index_type(len(table)))
    table[:, -1] = ord(",")
    return table, np.broadcast_to(index.reshape(column.shape),
                                  (n, *column.shape[1:]))


def _index_type(distinct: int):
    """The narrowest unsigned type that holds an index below ``distinct``."""
    return np.min_scalar_type(max(distinct - 1, 0))


def _unique_bits(values: np.ndarray):
    """The distinct floats of ``values``, ascending by bit pattern, and the
    flat index of each value among them in ``_index_type``: what
    ``np.unique(bits, return_inverse=True)`` gives, from one sort of the
    bits and without its int64 intermediates."""
    bits = values.view(np.uint64).reshape(-1)
    order = np.argsort(bits)
    ordered = bits[order]
    new = np.ones(len(bits), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    keys = ordered[new].view(np.float64)
    del ordered
    # each sorted value's index is the count of runs begun before it and
    # after the first; it goes back to the values' own order
    new[:1] = False
    runs = np.cumsum(new, dtype=_index_type(len(keys)))
    del new
    index = np.empty_like(runs)
    index[order] = runs
    return keys, index


def _byte_rows(texts, width: int) -> np.ndarray:
    """``texts`` as the rows of a byte matrix ``width`` wide, NUL-padded."""
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)


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
    return np.bincount(csr.rows, weights=csr.weights,
                       minlength=len(graph.vertices))


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

