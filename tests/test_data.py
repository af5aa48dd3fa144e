from itertools import chain

import numpy as np
import pytest

from edge_arrays import edge_array, edge_dict
from twosfgl import data as data_module
from twosfgl.data import (EDGE_DTYPE, ClientGraph, DatasetFormatError, NodeTable,
                          SplitAssignment, balance_sample, incident_sums,
                          load_dataset, load_node_table, load_relation,
                          stratified_split, write_node_table, write_relation,
                          write_rows, zscore_features)


def make_graph(edges, n, name="g"):
    return ClientGraph(relation_name=name, vertices=np.arange(n),
                       edges=edge_array(edges))


# ---------------------------------------------------------------- node table


def test_node_table_roundtrip_exact(tmp_path):
    features = np.array([[0.1 + 0.2, -1.5], [1e-17, 3.0], [2.5, -0.0]])
    nodes = NodeTable(features=features, labels=np.array([1, 0, 1]))
    path = tmp_path / "nodes.csv"
    write_node_table(nodes, path)
    again = load_node_table(path)
    assert np.array_equal(again.features, nodes.features)
    assert np.array_equal(again.labels, nodes.labels)
    assert again.num_nodes == 3 and again.feature_width == 2


def test_node_table_any_row_order_comments_blanks(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("# comment\n2,1,0.5\n\n0,0,1.5\n  # indented comment\n1,1,2.5\n")
    nodes = load_node_table(path)
    assert np.array_equal(nodes.labels, [0, 1, 1])
    assert np.array_equal(nodes.features, [[1.5], [2.5], [0.5]])


@pytest.mark.parametrize("text,fragment", [
    ("0,1\n", ":1:"),                          # too few fields
    ("0,1,abc\n", ":1:"),                      # bad float
    ("0,1,0.5\n1,2,0.5\n", "non-binary"),      # label 2
    ("0,1,0.5\n1,0,0.5,0.7\n", "width"),       # ragged features
    ("0,1,0.5\n0,0,0.5\n", "duplicate"),       # repeated id
    ("0,1,0.5\n2,0,0.5\n", "contiguous"),      # gap in ids
    ("# only a comment\n", "no node rows"),
])
def test_node_table_errors(tmp_path, text, fragment):
    path = tmp_path / "nodes.csv"
    path.write_text(text)
    with pytest.raises(DatasetFormatError) as info:
        load_node_table(path)
    assert fragment in str(info.value)
    assert "nodes.csv" in str(info.value)


def test_node_table_error_carries_line_number(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("# header comment\n0,1,0.5\n1,7,0.5\n")
    with pytest.raises(DatasetFormatError) as info:
        load_node_table(path)
    assert ":3:" in str(info.value)


def test_node_table_validation_direct():
    with pytest.raises(DatasetFormatError):
        NodeTable(features=np.zeros(4), labels=np.zeros(4, dtype=int))
    with pytest.raises(DatasetFormatError):
        NodeTable(features=np.zeros((4, 2)), labels=np.zeros(3, dtype=int))
    with pytest.raises(DatasetFormatError, match="node id 2"):
        NodeTable(features=np.zeros((4, 2)), labels=np.array([0, 1, 5, 0]))


# ----------------------------------------------------------------- relations


def nodes4():
    return NodeTable(features=np.zeros((4, 2)), labels=np.array([0, 1, 0, 1]))


def test_relation_defaults_sums_and_self_loops(tmp_path):
    path = tmp_path / "rel.csv"
    path.write_text("# src,dst,weight\n0,1\n1,0,2.5\n0,2,1.5\n2,0\n3,3,9.0\n")
    graph = load_relation(path, "rel", nodes4())
    assert edge_dict(graph.edges) == {(0, 1): 3.5, (0, 2): 2.5}
    assert np.array_equal(graph.vertices, np.arange(4))


@pytest.mark.parametrize("text,fragment", [
    ("0\n", "expected src,dst"),
    ("0,1,1.0,extra\n", "expected src,dst"),
    ("0,x\n", "malformed"),
    ("0,9\n", "dangling endpoint id 9"),
    ("0,1,-2.0\n", "negative weight"),
])
def test_relation_errors(tmp_path, text, fragment):
    path = tmp_path / "rel.csv"
    path.write_text(text)
    with pytest.raises(DatasetFormatError) as info:
        load_relation(path, "rel", nodes4())
    assert fragment in str(info.value)
    assert "rel.csv:1" in str(info.value)


def test_relation_sums_duplicates_in_file_order_bitwise(tmp_path):
    # both orientations of a pair, weights whose sum depends on the order
    rng = np.random.default_rng(3)
    rows = [(int(a), int(b), float(w)) for a, b, w in zip(
        rng.integers(0, 4, 80), rng.integers(0, 4, 80),
        rng.choice([0.1, 0.2, 0.3, 0.7], 80))]
    path = tmp_path / "rel.csv"
    path.write_text("".join(f"{a},{b},{w!r}\n" for a, b, w in rows))
    reference, values = {}, {}
    for a, b, w in rows:
        if a != b:
            key = (min(a, b), max(a, b))
            reference[key] = reference.get(key, 0.0) + w
            values.setdefault(key, []).append(w)
    assert any(sum(reversed(ws)) != reference[key] for key, ws in values.items())
    graph = load_relation(path, "rel", nodes4())
    assert list(edge_dict(graph.edges).items()) == sorted(reference.items())


def test_relation_roundtrip_exact(tmp_path):
    graph = make_graph({(0, 1): 0.1 + 0.2, (1, 3): 7.25}, 4)
    path = tmp_path / "rel.csv"
    write_relation(graph, path)
    again = load_relation(path, "rel", nodes4())
    assert edge_dict(again.edges) == edge_dict(graph.edges)


# ------------------------------------------------------------ parse, writers

# repr-written floats, subnormals, signed zeros and integers written with
# and without a fraction
AWKWARD_FLOATS = ["0.30000000000000004", "5e-324", "2.225073858507201e-308",
                  "4.9406564584124654e-324", "1", "1.0", "-0.0", "1e+300",
                  "0.1", "123456789.123456789", "7", "2.5e-17"]


def test_node_parse_matches_python_float_bitwise(tmp_path):
    rng = np.random.default_rng(8)
    n = 60
    values = rng.choice(AWKWARD_FLOATS, size=(n, 3)).tolist()
    values[0] = [repr(float(x)) for x in rng.standard_normal(3) * 1e-310]
    ids, labels = rng.permutation(n), rng.integers(0, 2, n)
    lines = [f"{i},{label},{','.join(row)}"
             for i, label, row in zip(ids, labels, values)]
    path = tmp_path / "nodes.csv"
    path.write_text("# id,label,f0,...\n" + "\n".join(lines) + "\n")
    nodes = load_node_table(path)
    by_id = sorted(zip(ids.tolist(), values, labels.tolist()))
    reference = np.array([[float(x) for x in row] for _, row, _ in by_id])
    assert nodes.features.tobytes() == reference.tobytes()
    assert nodes.labels.tolist() == [int(label) for _, _, label in by_id]


def test_relation_parse_matches_python_float_bitwise(tmp_path):
    rng = np.random.default_rng(9)
    for fields in (2, 3):
        rows = [(f"{a}", f"{b}", w) for a, b, w in zip(
            rng.integers(0, 4, 90), rng.integers(0, 4, 90),
            rng.choice(AWKWARD_FLOATS, 90))]
        path = tmp_path / f"rel{fields}.csv"
        path.write_text("# src,dst,weight\n" + "\n".join(
            ",".join(row[:fields]) for row in rows) + "\n")
        sums = {}
        for a, b, w in rows:
            a, b = int(a), int(b)
            if a != b:
                key = (min(a, b), max(a, b))
                sums[key] = sums.get(key, 0.0) + (float(w) if fields == 3 else 1.0)
        graph = load_relation(path, "rel", nodes4())
        assert graph.edges.tobytes() == edge_array(sums).tobytes()


def test_well_formed_files_never_reach_the_line_pass(tmp_path, monkeypatch):
    first_line = data_module._data_lines

    def first_line_only(path):
        yield next(first_line(path))
        raise AssertionError("Python line pass used")

    monkeypatch.setattr(data_module, "_data_lines", first_line_only)
    write_node_table(nodes4(), tmp_path / "nodes.csv")
    (tmp_path / "a.csv").write_text("# src,dst\n0,1\n 2 , 1 # note\n")
    (tmp_path / "b.csv").write_text("0,1,0.5\n\n1,0,0.25\n")
    dataset = load_dataset(tmp_path / "nodes.csv",
                           {"a": tmp_path / "a.csv", "b": tmp_path / "b.csv"})
    assert edge_dict(dataset.relations["a"].edges) == {(0, 1): 1.0, (1, 2): 1.0}
    assert edge_dict(dataset.relations["b"].edges) == {(0, 1): 0.75}


def test_relation_mixing_two_and_three_field_rows_defaults_row_by_row(tmp_path):
    path = tmp_path / "rel.csv"
    path.write_text("0,1,0.25\n0,1\n2,3\n3,2,0.5\n1,2,2.0\n")
    graph = load_relation(path, "rel", nodes4())
    assert edge_dict(graph.edges) == {(0, 1): 1.25, (1, 2): 2.0, (2, 3): 1.5}


@pytest.mark.parametrize("bad,fragment", [
    ("3,9", "dangling endpoint id 9"),
    ("3,1,-0.5", "negative weight"),
    ("3,1.5,1.0", "malformed"),
])
def test_relation_error_after_well_formed_rows_names_its_line(tmp_path, bad,
                                                              fragment):
    path = tmp_path / "rel.csv"
    path.write_text("# src,dst,weight\n" + "0,1,1.0\n" * 40 + bad + "\n"
                    + "1,2,1.0\n" * 5)
    with pytest.raises(DatasetFormatError) as info:
        load_relation(path, "rel", nodes4())
    assert fragment in str(info.value)
    assert "rel.csv:42:" in str(info.value)


def test_node_error_after_well_formed_rows_names_its_line(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("".join(f"{i},0,0.5\n" for i in range(30)) + "30,2,0.5\n")
    with pytest.raises(DatasetFormatError, match=r"nodes\.csv:31: non-binary"):
        load_node_table(path)


def line_pass_only(monkeypatch):
    """Refuse the whole-file read so the loaders parse the data lines."""
    whole_file = data_module._loadtxt

    def lines_only(source, dtype):
        if not isinstance(source, list):
            raise ValueError("whole-file read refused")
        return whole_file(source, dtype)

    monkeypatch.setattr(data_module, "_loadtxt", lines_only)


@pytest.mark.parametrize("parser", ["bulk", "per_line"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_weight_is_refused_with_its_line(tmp_path, monkeypatch,
                                                    parser, value):
    if parser == "per_line":
        line_pass_only(monkeypatch)
    path = tmp_path / "rel.csv"
    path.write_text("# src,dst,weight\n0,1,1.0\n1,2,0.5\n2,3," + value
                    + "\n0,3,2.0\n")
    with pytest.raises(DatasetFormatError,
                       match=r"rel\.csv:4: non-finite weight " + value.lstrip("+")):
        load_relation(path, "rel", nodes4())


@pytest.mark.parametrize("parser", ["bulk", "per_line"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_feature_is_refused_with_its_line(tmp_path, monkeypatch,
                                                     parser, value):
    if parser == "per_line":
        line_pass_only(monkeypatch)
    path = tmp_path / "nodes.csv"
    path.write_text("0,0,0.5,1.0\n1,1,0.25," + value + "\n2,0,1.5,2.0\n")
    with pytest.raises(DatasetFormatError,
                       match=r"nodes\.csv:2: non-finite feature for node id 1"):
        load_node_table(path)


@pytest.mark.parametrize("text,where", [
    ("0,0,1.0\n1,1,1_0\n", r"nodes\.csv:2: malformed row '1,1,1_0'"),
    ("0,0,1.0\n1,1,١.5\n", r"nodes\.csv:2: malformed row"),
    ("0,1,0.5\n# note\n0,1,1_0.5\n", r"rel\.csv:3: malformed row '0,1,1_0.5'"),
])
def test_numbers_outside_the_readers_syntax_are_refused(tmp_path, text, where):
    name = "nodes.csv" if where.startswith("nodes") else "rel.csv"
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=where):
        if name == "nodes.csv":
            load_node_table(path)
        else:
            load_relation(path, "rel", nodes4())


@pytest.mark.parametrize("name,text,where", [
    # a row the reader refuses is named before any content check
    ("nodes.csv", "0,0,0.5\n1,2,0.5\n2,0,0.5\nx,0,0.5\n",
     r"nodes\.csv:4: malformed row"),
    ("nodes.csv", "0,0,0.5\n1,2,0.5\n2,0,0.5,1.0\n",
     r"nodes\.csv:3: feature width 2 differs from 1"),
    # among rows that parse, the first bad row in file order
    ("nodes.csv", "0,0,0.5\n0,1,0.5\n1,2,nan\n", r"nodes\.csv:2: duplicate node id 0"),
    ("rel.csv", "0,1,0.5\n1,2,-1.0\n9,1,nan\n", r"rel\.csv:2: negative weight -1\.0"),
    ("rel.csv", "0,1,0.5\n1,2,1.0\n1,9,nan\n",
     r"rel\.csv:3: dangling endpoint id 9 \(node table has 4 nodes\)"),
    # a mixed 2/3-field file is read again with weight 1 on its 2-field rows
    ("rel.csv", "0,1,0.5\n1,2\n3,x\n", r"rel\.csv:3: malformed row '3,x'"),
    ("rel.csv", "0,1\n1,2,0.5\n\n3,3,1,1\n", r"rel\.csv:4: expected src,dst"),
    ("rel.csv", "0,1\n1,2,0.5\n1,4\n", r"rel\.csv:3: dangling endpoint id 4"),
])
def test_the_named_row_of_a_file_with_bad_rows(tmp_path, name, text, where):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(DatasetFormatError, match=where):
        if name == "nodes.csv":
            load_node_table(path)
        else:
            load_relation(path, "rel", nodes4())


def test_relation_without_data_rows_is_edgeless(tmp_path):
    path = tmp_path / "rel.csv"
    path.write_text("# src,dst,weight\n\n")
    graph = load_relation(path, "rel", nodes4())
    assert len(graph.edges) == 0 and np.array_equal(graph.vertices, np.arange(4))


# Per-row references of the writers: one %-format per row, ``%r`` for a
# float, ``%d`` for an integer and ``%s`` for a string.

def percent_rows(row_format, rows):
    return "".join(row_format % tuple(row) for row in rows)


EDGE_FLOATS = [-0.0, 0.0, 0.1 + 0.2, 5e-324, 1e16, 1e-05, np.nan, np.inf,
               -np.inf, -0.0, float(np.frombuffer(
                   np.array([0xFFF8000000000001], dtype=np.uint64).tobytes())[0]),
               -np.nan, 1e300, -2.5e-17, 0.0, 123456789.123456789]
EDGE_INTS = [0, -1, 7, -2**63, 2**63 - 1, -2**63 + 1, 2**63 - 2, 0, -7, 42]


@pytest.mark.parametrize("chunk_rows", [1, 3, 4096])
def test_write_rows_matches_percent_format_at_the_edges(tmp_path, monkeypatch,
                                                        chunk_rows):
    monkeypatch.setattr(data_module, "WRITE_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(5)
    n = 40
    floats = np.array(EDGE_FLOATS)[rng.integers(0, len(EDGE_FLOATS), n)]
    floats[:2] = [-0.0, 0.0]                # one chunk even at 3 rows
    ints = np.array(EDGE_INTS, dtype=np.int64)[rng.integers(0, len(EDGE_INTS), n)]
    names = np.array(["local", "both", "fused", "x"])[rng.integers(0, 4, n)]
    block = rng.integers(-3, 1000, size=(n, 2))
    columns = ["rel_0", ints, floats, names, block, floats[::-1]]
    rows = [("rel_0", i, f, s, a, b, g) for i, f, s, (a, b), g in zip(
        ints.tolist(), floats.tolist(), names.tolist(), block.tolist(),
        floats[::-1].tolist())]
    path = tmp_path / "rows.csv"
    write_rows(path, "# h\n", columns)
    assert path.read_bytes() == ("# h\n" + percent_rows(
        "%s,%d,%r,%s,%d,%d,%r\n", rows)).encode()
    # equal as values, the two zeros keep their own texts
    assert [line.split(",")[2] for line in path.read_text().splitlines()[1:3]] \
        == ["-0.0", "0.0"]


def test_write_rows_writes_synth_blocks_and_empty_arrays(tmp_path):
    pairs = np.array([[0, 1], [0, 17], [3, 2**40], [-5, 9]])
    write_rows(tmp_path / "pairs.csv", "# src,dst\n", [pairs])
    assert (tmp_path / "pairs.csv").read_text() == "# src,dst\n" + percent_rows(
        "%d,%d\n", pairs.tolist())
    write_rows(tmp_path / "empty.csv", "# src,dst,weight\n",
               [np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                np.zeros(0)])
    assert (tmp_path / "empty.csv").read_text() == "# src,dst,weight\n"


@pytest.mark.parametrize("n, index_type", [(256, np.uint8), (257, np.uint16),
                                            (65537, np.uint32)])
def test_write_rows_indexes_distinct_values_in_the_narrowest_type(
        tmp_path, n, index_type):
    floats = np.arange(n) / 7.0
    ints = np.arange(n) * -3
    assert data_module._text_table(floats, n)[1].dtype == index_type
    assert data_module._text_table(ints, n)[1].dtype == index_type
    write_rows(tmp_path / "rows.csv", "# h\n", [floats[::-1], ints])
    assert (tmp_path / "rows.csv").read_text() == "# h\n" + percent_rows(
        "%r,%d\n", zip(floats[::-1].tolist(), ints.tolist()))


def test_write_rows_refuses_nul_and_non_ascii_text(tmp_path):
    for bad in ("a\0b", "caf\u00e9"):
        with pytest.raises(ValueError):
            write_rows(tmp_path / "bad.csv", "", [np.array([bad, "ok"]),
                                                  np.arange(2)])


def test_writers_match_per_line_format_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(data_module, "WRITE_CHUNK_ROWS", 2)
    features = np.array([[0.1 + 0.2, -0.0], [5e-324, 1.0], [1e300, 7.0],
                         [1 / 3, -2.5e-17], [0.5, 3.0]])
    nodes = NodeTable(features=features, labels=np.array([1, 0, 0, 1, 1]))
    write_node_table(nodes, tmp_path / "nodes.csv")
    assert (tmp_path / "nodes.csv").read_text() == "# id,label,f0,...\n" + "".join(
        f"{i},{nodes.labels[i]},{','.join(repr(float(x)) for x in row)}\n"
        for i, row in enumerate(features))
    graph = make_graph({(0, 1): 0.1 + 0.2, (0, 3): 5e-324, (1, 2): 1.0,
                        (2, 4): 1e300, (3, 4): 0.0}, 5)
    write_relation(graph, tmp_path / "rel.csv")
    assert (tmp_path / "rel.csv").read_text() == "# src,dst,weight\n" + "".join(
        f"{u},{v},{w!r}\n" for u, v, w in graph.edges.tolist())


def test_load_dataset(tmp_path):
    write_node_table(nodes4(), tmp_path / "nodes.csv")
    (tmp_path / "a.csv").write_text("0,1\n")
    (tmp_path / "b.csv").write_text("2,3,2.0\n")
    ds = load_dataset(tmp_path / "nodes.csv",
                      {"a": tmp_path / "a.csv", "b": tmp_path / "b.csv"})
    assert set(ds.relations) == {"a", "b"}
    assert edge_dict(ds.relations["a"].edges) == {(0, 1): 1.0}
    for graph in ds.relations.values():
        assert np.array_equal(graph.vertices, np.arange(ds.nodes.num_nodes))


def test_client_graph_validation():
    with pytest.raises(ValueError, match="not canonical"):
        make_graph({(2, 1): 1.0}, 3)
    with pytest.raises(ValueError, match="outside the vertex set"):
        make_graph({(0, 5): 1.0}, 3)
    with pytest.raises(ValueError, match="negative weight"):
        make_graph({(0, 1): -0.5}, 3)
    # vertex ids are node-table ids, so the position table starts at id 0
    with pytest.raises(ValueError, match="negative vertex id -3"):
        ClientGraph(relation_name="g", vertices=[4, -3, 0, -1],
                    edges=edge_array({}))
    # an endpoint in a gap of the vertex set, or above its largest id
    for pair in ((0, 3), (2, 5), (4, 10**12)):
        with pytest.raises(ValueError, match="outside the vertex set"):
            ClientGraph(relation_name="g", vertices=[0, 2, 4],
                        edges=edge_array({pair: 1.0}))


@pytest.mark.parametrize("rows,message", [
    ([(0, 1, 1.0), (0, 2, 1.0), (1, 1, 1.0), (2, 0, 1.0)],
     "edge (1, 1) is not canonical (u < v)"),
    ([(0, 1, 1.0), (0, 9, 1.0), (1, 2, -1.0)],
     "edge (0, 9) has endpoint outside the vertex set"),
    ([(0, 1, 1.0), (0, 2, 1.0), (0, 2, 3.0), (0, 1, 1.0)],
     "edge (0, 2) is repeated or out of (u, v) order"),
    ([(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0), (0, 2, -1.0)],
     "edge (0, 3) is repeated or out of (u, v) order"),
    ([(0, 1, 1.0), (0, 2, -0.5), (2, 1, 1.0)],
     "edge (0, 2) has negative weight -0.5"),
    ([(0, 1, 1.0), (0, 2, np.nan), (1, 2, -1.0)],
     "edge (0, 2) has non-finite weight nan"),
    ([(0, 1, np.inf)], "edge (0, 1) has non-finite weight inf"),
    ([(0, 1, 1.0), (1, 2, -np.inf)], "edge (1, 2) has non-finite weight -inf"),
])
def test_client_graph_rejects_first_invalid_row(rows, message):
    edges = np.array(rows, dtype=EDGE_DTYPE)
    with pytest.raises(ValueError) as info:
        ClientGraph(relation_name="g", vertices=np.arange(4), edges=edges)
    assert str(info.value) == message


def test_client_graph_edges_are_read_only_records():
    g = make_graph({(1, 2): 2.0, (0, 1): 1.0}, 3)
    assert isinstance(g.edges, np.recarray) and g.edges.dtype == EDGE_DTYPE
    assert g.edges.u.tolist() == [0, 1] and g.edges.v.tolist() == [1, 2]
    with pytest.raises(ValueError):
        g.edges.weight[0] = 5.0


def random_sparse_graph(rng, n=9, p=0.4):
    """Non-contiguous ids given in descending order, some zero weights, edge
    keys in random order."""
    ids = sorted(int(i) for i in rng.choice(40, size=n, replace=False))
    pairs = [(a, b) for a in ids for b in ids if a < b and rng.random() < p]
    rng.shuffle(pairs)
    return ClientGraph(relation_name="g", vertices=ids[::-1],
                       edges=edge_array({
                           pair: 0.0 if rng.random() < 0.2
                           else float(rng.uniform(0.1, 3.0))
                           for pair in pairs}))


def test_neighbor_csr_rows_sorted_and_complete():
    g = ClientGraph(relation_name="g", vertices=[9, 2, 5, 7],
                    edges=edge_array({(2, 9): 1.0, (2, 5): 0.0}))
    csr = g.neighbor_csr
    assert g.vertices.tolist() == [2, 5, 7, 9]
    assert csr.indptr.tolist() == [0, 2, 3, 3, 4]       # 7 is isolated
    assert csr.indices.tolist() == [1, 3, 0, 0]
    assert csr.weights.tolist() == [0.0, 1.0, 0.0, 1.0]  # zero weight kept
    assert csr.rows.tolist() == [0, 0, 1, 3]
    assert g.neighbor_csr is csr
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_sparse_graph(rng)
        csr = g.neighbor_csr
        assert len(csr.indptr) == 10 and (np.diff(g.vertices) > 0).all()
        for p, v in enumerate(g.vertices.tolist()):
            row = slice(csr.indptr[p], csr.indptr[p + 1])
            expected = sorted((b if a == v else a, w)
                              for (a, b), w in edge_dict(g.edges).items()
                              if v in (a, b))
            assert list(zip(g.vertices[csr.indices[row]].tolist(),
                            csr.weights[row].tolist())) == expected


def test_incident_sums_are_csr_row_sums():
    rng = np.random.default_rng(12)
    for _ in range(10):
        g = random_sparse_graph(rng)
        sums = incident_sums(g)
        assert sums.shape == (len(g.vertices),)
        for v, total in zip(g.vertices.tolist(), sums.tolist()):
            weights = sorted((b if a == v else a, w)
                             for (a, b), w in edge_dict(g.edges).items()
                             if v in (a, b))
            # summed in ascending neighbor order, so exactly equal
            assert total == sum(w for _, w in weights)


def test_vertices_are_one_read_only_id_array():
    edges = edge_array({(2, 9): 1.0, (5, 7): 0.5})
    for given in ([9, 2, 5, 7], [7, 9, 2, 2, 5, 9], np.array([5, 9, 7, 2]),
                  np.array([2.0, 5.0, 7.0, 9.0]), (9, 7, 5, 2)):
        g = ClientGraph(relation_name="g", vertices=given, edges=edges)
        assert g.vertices.dtype == np.int64 and g.vertices.ndim == 1
        assert g.vertices.tolist() == [2, 5, 7, 9]
        assert not g.vertices.flags.writeable
        with pytest.raises(ValueError):
            g.vertices[0] = 3
    # an id array is taken as it is, so a fused graph keeps the local array
    again = ClientGraph(relation_name="h", vertices=g.vertices, edges=edges)
    assert again.vertices is g.vertices
    writable = np.array([2, 5, 7, 9])
    copied = ClientGraph(relation_name="h", vertices=writable, edges=edges)
    assert copied.vertices is not writable and writable.flags.writeable
    assert data_module.id_array([]).dtype == np.int64
    with pytest.raises(ValueError, match="outside the vertex set"):
        ClientGraph(relation_name="g", vertices=[2, 9, 9], edges=edges)


@pytest.mark.parametrize("given", [
    [], [7], [3, 3, 1, 3, 2, 1], [-5, 7, -5, 0, -1, 2**62, -2**62],
    [0, 1, 2, 5, 9], [0, 1, 1, 5, 9], [[4, 2], [2, -9]], 6,
])
def test_id_array_sorts_and_deduplicates_as_np_unique(given):
    for writeable in (True, False):
        ids = np.array(given, dtype=np.int64)
        ids.flags.writeable = writeable
        got = data_module.id_array(ids)
        want = np.unique(ids)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)
        assert not got.flags.writeable
        # a read-only id array is taken as it is, and nothing else is
        assert (got is ids) == (not writeable and ids.ndim == 1
                                and np.array_equal(ids, want))


def test_position_table_finds_vertex_ids_as_a_binary_search_does():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = random_sparse_graph(rng)                    # ids with gaps, < 40
        nodes, top = g.vertices, int(g.vertices[-1])
        assert np.array_equal(g.positions[nodes], np.arange(len(nodes)))
        gaps = np.setdiff1d(np.arange(top), nodes)
        assert (g.positions[gaps] == -1).all()
        assert g.positions is g.positions               # built once
        queries = np.concatenate([
            nodes, gaps, [-1, -top, top + 1, top + 2, 10**12],
            [np.iinfo(np.int64).min, np.iinfo(np.int64).max]])
        rng.shuffle(queries)
        pos, found = g.find(queries)
        assert found.tolist() == np.isin(queries, nodes).tolist()
        assert np.array_equal(pos[found], np.searchsorted(nodes, queries[found]))
        # a query array of any shape, as fuse passes (src, dst) rows
        pos2, found2 = g.find(np.stack([queries, queries[::-1]]))
        assert np.array_equal(found2, [found, found[::-1]])
        assert np.array_equal(pos2[found2], np.concatenate(
            [pos[found], pos[::-1][found[::-1]]]))
    empty = ClientGraph(relation_name="g", vertices=[], edges=edge_array({}))
    _, found = empty.find([0, 1, -1])
    assert not found.any()


# ------------------------------------------------------------------ sampling


def test_balance_sample_identity_when_in_range():
    labels = np.array([1] * 10 + [0] * 10)
    sampled = balance_sample(labels, 0.5, 2.0, seed=0)
    assert np.array_equal(sampled, np.arange(20))
    assert sampled.dtype == np.int64 and not sampled.flags.writeable


def test_balance_sample_undersamples_negatives():
    labels = np.array([1] * 5 + [0] * 50)
    sampled = balance_sample(labels, 0.5, 2.0, seed=3)
    assert np.array_equal(sampled, np.unique(sampled))
    kept_pos, kept_neg = sampled[labels[sampled] == 1], sampled[labels[sampled] == 0]
    assert np.array_equal(kept_pos, np.arange(5))   # minority untouched
    assert len(kept_neg) == 10                  # int(5 / 0.5)
    assert len(kept_pos) / len(kept_neg) == 0.5


def test_balance_sample_undersamples_positives():
    labels = np.array([1] * 50 + [0] * 5)
    sampled = balance_sample(labels, 0.5, 2.0, seed=3)
    kept_pos, kept_neg = sampled[labels[sampled] == 1], sampled[labels[sampled] == 0]
    assert np.array_equal(kept_neg, np.arange(50, 55))
    assert len(kept_pos) == 10                  # int(2.0 * 5)


def test_balance_sample_deterministic_and_seed_sensitive():
    labels = np.array([1] * 5 + [0] * 100)
    a = balance_sample(labels, 0.5, 2.0, seed=7)
    b = balance_sample(labels, 0.5, 2.0, seed=7)
    assert np.array_equal(a, b)
    others = [balance_sample(labels, 0.5, 2.0, seed=s) for s in range(5)]
    assert any(not np.array_equal(o, a) for o in others)


def test_balance_sample_ratio_property():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(20, 300))
        labels = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(int)
        if labels.sum() in (0, n):
            continue
        sampled = balance_sample(labels, 0.5, 2.0, seed=int(rng.integers(1 << 30)))
        pos = int(labels[sampled].sum())
        neg = len(sampled) - pos
        assert 0.5 <= pos / neg <= 2.0
        assert np.array_equal(sampled, np.unique(sampled))
        assert 0 <= sampled[0] and sampled[-1] < n


def test_balance_sample_single_class_rejected():
    with pytest.raises(ValueError):
        balance_sample(np.ones(5, dtype=int), 0.5, 2.0)


def test_stratified_split_exact_counts():
    labels = np.array([0] * 10 + [1] * 5)
    split = stratified_split(np.arange(15)[::-1], labels, train_frac=0.6, seed=0)
    test_by_class = [int((labels[split.test_ids] == c).sum()) for c in (0, 1)]
    assert test_by_class == [4, 2]              # int(10*0.4), int(5*0.4)
    assert len(split.train_ids) == 9
    assert np.array_equal(np.union1d(split.train_ids, split.test_ids), np.arange(15))
    assert not np.intersect1d(split.train_ids, split.test_ids).size
    for ids in (split.train_ids, split.test_ids):
        assert ids.dtype == np.int64 and not ids.flags.writeable
        assert np.array_equal(ids, np.unique(ids))


def test_stratified_split_respects_sample_subset():
    labels = np.array([0, 1] * 10)
    sampled = [9, 3, 0, 8, 1, 2, 3]
    split = stratified_split(sampled, labels, 0.6, seed=1)
    assert np.array_equal(np.union1d(split.train_ids, split.test_ids),
                          [0, 1, 2, 3, 8, 9])


def test_stratified_split_deterministic_and_seed_sensitive():
    labels = np.array([0, 1] * 25)
    sampled = np.arange(50)
    a, b = (stratified_split(sampled, labels, 0.6, seed=4) for _ in range(2))
    assert np.array_equal(a.train_ids, b.train_ids)
    assert np.array_equal(a.test_ids, b.test_ids)
    assert any(not np.array_equal(stratified_split(sampled, labels, 0.6, seed=s).train_ids,
                                  a.train_ids)
               for s in range(5, 10))


def stratified_split_reference(sampled_ids, labels, train_frac, seed):
    """The per-id list-comprehension split that the array version replaced,
    as sorted (train, test) lists."""
    sampled = sorted(set(sampled_ids))
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in (0, 1):
        members = np.array([i for i in sampled if labels[i] == cls], dtype=np.int64)
        if len(members) == 0:
            continue
        rng.shuffle(members)
        n_test = int(len(members) * (1.0 - train_frac))
        test.extend(int(i) for i in members[:n_test])
        train.extend(int(i) for i in members[n_test:])
    return sorted(train), sorted(test)


def test_stratified_split_matches_the_list_comprehension_reference():
    rng = np.random.default_rng(31)
    for trial in range(40):
        n = int(rng.integers(2, 120))
        labels = (rng.random(n) < rng.choice([0.0, 0.1, 0.5, 0.9, 1.0])).astype(int)
        sampled = rng.permutation(n)[:int(rng.integers(1, n + 1))].tolist()
        frac = float(rng.choice([0.0, 0.25, 0.5, 0.6, 0.8, 1.0]))
        seed = int(rng.integers(1 << 30))
        split = stratified_split(sampled, labels, train_frac=frac, seed=seed)
        train, test = stratified_split_reference(sampled, labels, frac, seed)
        assert split.train_ids.tolist() == train, f"trial {trial}"
        assert split.test_ids.tolist() == test, f"trial {trial}"


def test_stratified_split_empty_sample():
    with pytest.raises(ValueError):
        stratified_split([], np.array([0, 1]), 0.6)


def test_split_assignment_overlap_rejected():
    with pytest.raises(ValueError, match="overlap"):
        SplitAssignment(train_ids=[1, 2], test_ids=[2])


# ------------------------------------------------------------------- zscore


def test_zscore_uses_train_statistics_only():
    x = np.array([[1.0, 5.0], [3.0, 5.0], [100.0, -7.0]])
    out = zscore_features(x, train_ids=[1, 0])
    # train stats: mean = (2, 5), std = (1, 0)
    assert np.allclose(out[:, 0], [(1 - 2) / 1, (3 - 2) / 1, (100 - 2) / 1])
    assert np.array_equal(out[:, 1], [0.0, 0.0, 0.0])   # constant on train


def test_zscore_standardizes_train_rows():
    rng = np.random.default_rng(2)
    x = rng.normal(5.0, 3.0, size=(40, 6))
    train = np.arange(0, 40, 2)
    out = zscore_features(x, train[::-1])
    idx = train
    assert np.allclose(out[idx].mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out[idx].std(axis=0), 1.0, atol=1e-12)
