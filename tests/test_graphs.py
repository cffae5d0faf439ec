import pytest

from graphck.errors import GraphSyntaxError
from graphck.graphs import (Graph, Path, enumerate_paths, parse_graph,
                            transfer_matrix, validate_graph, vertex_matrix)
from graphck.intmat import IntMatrix

from corpus import (CYCLE3_TEXT, O2_TEXT, SINK_TEXT, cuntz,
                    count_paths_bruteforce, o2, single_loop, two_vertex)


def test_parse_o2():
    g = parse_graph(O2_TEXT)
    assert g.vertices == ("v",)
    assert g.edge_names == ("a", "b")
    assert g.edge_source == (0, 0) and g.edge_range == (0, 0)


def test_parse_single_vertex_no_edges():
    g = parse_graph("vertex v")
    assert g.vertices == ("v",) and g.n_edges == 0


def test_parse_comments_and_blanks():
    g = parse_graph("# header\n\nvertex v\n  # inner\nedge a v v\n")
    assert g.n_edges == 1


def test_parse_undeclared_vertex():
    with pytest.raises(GraphSyntaxError) as exc:
        parse_graph("vertex v\nedge a w v")
    assert "undeclared" in str(exc.value) and "w" in str(exc.value)
    assert exc.value.line == 2


def test_parse_duplicates_and_syntax():
    with pytest.raises(GraphSyntaxError):
        parse_graph("vertex v\nvertex v")
    with pytest.raises(GraphSyntaxError):
        parse_graph("vertex v\nedge a v v\nedge a v v")
    with pytest.raises(GraphSyntaxError) as exc:
        parse_graph("vertex v\nloop a v")
    assert exc.value.line == 2
    with pytest.raises(GraphSyntaxError):
        parse_graph("vertex 1v")


def test_graph_constructor_errors_carry_no_line():
    # the constructor gets every vertex first, so declaration order cannot matter
    g = Graph(("u", "v"), [("a", "u", "v")])
    assert g.edge_range == (1,)
    with pytest.raises(GraphSyntaxError) as exc:
        Graph(("u", "u"), [])
    assert str(exc.value) == "duplicate vertex 'u'" and exc.value.line is None
    with pytest.raises(GraphSyntaxError) as exc:
        Graph(("u",), [("a", "u", "w")])
    assert str(exc.value) == "undeclared vertex 'w'" and exc.value.line is None


def test_validate_flags():
    assert validate_graph(o2()) == validate_graph(o2())
    props = validate_graph(o2())
    assert props.no_sources and props.no_sinks and props.weakly_connected
    arrow = parse_graph(SINK_TEXT)
    props = validate_graph(arrow)
    assert not props.no_sinks and not props.no_sources and props.weakly_connected
    two_loops = parse_graph("vertex u\nvertex w\nedge e u u\nedge f w w")
    assert not validate_graph(two_loops).weakly_connected


def test_enumerate_paths_counts():
    g = cuntz(3)
    assert len(enumerate_paths(g, 2)) == 9
    assert len(enumerate_paths(g, 0)) == 1
    gv = parse_graph("vertex u\nvertex w")
    assert [p.start for p in enumerate_paths(gv, 0)] == [0, 1]


def test_enumerate_paths_filtered():
    g = two_vertex()
    got = sorted(str(p) for p in enumerate_paths(g, 2, end_at="v2"))
    assert got == ["ac", "bb", "cb"]


def test_enumerate_paths_lexicographic():
    g = o2()
    assert [str(p) for p in enumerate_paths(g, 2)] == ["aa", "ab", "ba", "bb"]


def test_vertex_matrix_examples():
    assert vertex_matrix(cuntz(4)).entries == ((4,),)
    assert vertex_matrix(parse_graph("vertex u\nvertex w")).entries == ((0, 0), (0, 0))
    assert vertex_matrix(two_vertex()).entries == ((1, 1), (0, 1))


def test_vertex_matrix_reversal_is_transpose():
    g = parse_graph(CYCLE3_TEXT)
    reversed_edges = [(g.edge_names[e], g.vertices[g.edge_range[e]],
                       g.vertices[g.edge_source[e]]) for e in range(g.n_edges)]
    rg = Graph(g.vertices, reversed_edges)
    assert vertex_matrix(rg) == vertex_matrix(g).transpose()


@pytest.mark.parametrize("maker", [o2, two_vertex, single_loop,
                                   lambda: parse_graph(CYCLE3_TEXT)])
def test_path_counts_match_matrix_powers(maker):
    g = maker()
    A = vertex_matrix(g)
    P = IntMatrix.identity(g.n_vertices)
    for n in range(7):
        for w in range(g.n_vertices):
            col_sum = sum(P.entries[v][w] for v in range(g.n_vertices))
            assert len(enumerate_paths(g, n, end_at=w)) == col_sum
            assert count_paths_bruteforce(g, n, end=w) == col_sum
        P = P * A


def test_path_composability_checked():
    g = two_vertex()
    with pytest.raises(ValueError):
        Path(g, g.vertex("v2"), (g.edge("a"),))  # a starts at v1
    p = g.path("a", "c")
    assert p.source == g.vertex("v1") and p.range == g.vertex("v2")


def test_path_concat_associative_and_shift():
    g = o2()
    p1, p2, p3 = g.path("a"), g.path("b"), g.path("a", "b")
    assert p1.concat(p2).concat(p3) == p1.concat(p2.concat(p3))
    q = g.path("a", "b", "a")
    assert q.shift(2) == g.path("a")
    assert q.shift(0) == q
    assert len(q.shift(3)) == 0 and q.shift(3).start == q.range


def test_transfer_matrix_is_transpose():
    g = two_vertex()
    assert transfer_matrix(g) == vertex_matrix(g).transpose()
