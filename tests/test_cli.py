import argparse
import json
import random

import pytest

from graphck.cli import run_command
from graphck import cli, intmat
from graphck.errors import GraphCKError, GraphSyntaxError, InternalInvariantError
from graphck.graphs import parse_graph, presentation_matrix
from graphck.intmat import IntMatrix, SNFResult
from graphck.render import render_report
from graphck.afcore import k0f_zero
from graphck.pairing import PairingReport

from corpus import (CYCLE3_TEXT, LOOP_TEXT, O2_TEXT, O3_TEXT, SINK_TEXT,
                    TWO_VERTEX_TEXT, o2)

# vertex u has an out-edge but no in-edge: a source, and no sink anywhere
SOURCE_TEXT = "vertex u\nvertex v\nedge a u v\nedge b v v"


@pytest.fixture
def graphs(tmp_path):
    files = {}
    for name, text in [("o2", O2_TEXT), ("o3", O3_TEXT), ("loop", LOOP_TEXT),
                       ("two", TWO_VERTEX_TEXT), ("cycle3", CYCLE3_TEXT),
                       ("sink", SINK_TEXT), ("source", SOURCE_TEXT)]:
        path = tmp_path / f"{name}.graph"
        path.write_text(text + "\n", encoding="utf-8")
        files[name] = str(path)
    return files


def run_json(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_pair_example(graphs, capsys):
    code, data = run_json(capsys, ["pair", graphs["o3"], "S(a)*S(a)"])
    assert code == 0
    assert data["agree"] is True
    for route in ("odd", "aps", "simplified"):
        assert data["routes"][route]["level"] == 2
        assert data["routes"][route]["vector"] == {"v": 4}
        assert data["routes"][route]["closed_form"] == "4/9"
    assert "orientation" in data and "breakdown" in data


def test_pair_single_route(graphs, capsys):
    code, data = run_json(capsys, ["pair", graphs["o3"], "S(a)*S(a)",
                                   "--route", "simplified"])
    assert code == 0
    assert list(data["routes"]) == ["simplified"]


def test_pair_direct_sum_blocks(graphs, capsys):
    code, data = run_json(capsys, ["pair", graphs["o3"], "S(a)", "adj(S(a))"])
    assert code == 0
    assert data["routes"]["odd"]["vector"] == {"v": 0}


def test_graph_ktheory(graphs, capsys):
    code, data = run_json(capsys, ["graph-ktheory", graphs["o2"]])
    assert code == 0
    assert data["ktheory"]["K0"] == {"free_rank": 0, "torsion": [], "pretty": "0"}
    assert data["ktheory"]["K1"]["pretty"] == "0"
    assert data["ktheory"]["matrix"] == [["-1"]]
    code, data = run_json(capsys, ["graph-ktheory", graphs["loop"]])
    assert data["ktheory"]["K0"]["free_rank"] == 1
    assert data["ktheory"]["K1"]["free_rank"] == 1


def test_elem_check(graphs, capsys):
    code, data = run_json(capsys, ["elem-check", graphs["o2"],
                                   "p(v) - S(a)*adj(S(a)) - S(b)*adj(S(b))"])
    assert code == 0 and data["is_zero"] is True


def test_elem_eval(graphs, capsys):
    code, data = run_json(capsys, ["elem-eval", graphs["o2"], "S(a)*S(b)"])
    assert code == 0
    cls = data["classification"]
    assert cls["is_partial_isometry"] and not cls["in_core"]
    assert cls["homogeneous_degree"] == 2


def test_class_af(graphs, capsys):
    code, data = run_json(capsys, ["class-af", graphs["o3"], "S(a)*adj(S(a))"])
    assert code == 0
    assert data["class"] == {"level": 1, "vector": {"v": 1}, "closed_form": "1/3"}
    assert data["group"]["closed_form"] == "Z[1/3]"


def test_cone_ev(graphs, capsys):
    code, data = run_json(capsys, ["cone-ev", graphs["o3"], "S(a)*S(b)"])
    assert code == 0
    assert data["ev"]["vector"] == {"v": 8}
    assert data["ev"]["closed_form"] == "8/9"


def test_cone_equal(graphs, capsys):
    code, data = run_json(capsys, ["cone-equal", graphs["o2"], "S(a)", "S(b)"])
    assert code == 0 and data["verdict"] == "equal"


def test_cone_decompose(graphs, capsys):
    code, data = run_json(capsys, ["cone-decompose", graphs["o2"], "S(a)*S(b)"])
    assert code == 0
    assert data["parts"] == [{"sign": 1, "element": "S(a)*S(b)*adj(S(b))"},
                             {"sign": 1, "element": "S(b)"}]
    assert data["certificate"] == {"ev_preserved": True, "pairing_preserved": True}


def test_cone_decompose_refusals_exit_2(graphs, capsys):
    for expr, message in (("2 p(v)", "decomposition needs coefficient 1"),
                          ("S(a)+adj(S(a))", "decomposition needs a single spanning word")):
        code, data = run_json(capsys, ["cone-decompose", graphs["o2"], expr])
        assert code == 2, expr
        assert data["error"] == {"type": "AdmissibilityError", "message": message}


def test_cone_ktheory(graphs, capsys):
    code, data = run_json(capsys, ["cone-ktheory", graphs["o3"]])
    assert code == 0
    rep = data["report"]
    assert rep["K1_mapping_cone"]["pretty"] == "0"
    assert rep["index_isomorphism"]["K0_mapping_cone"] == "Z[1/3]"
    assert rep["ev_image"] == "(2)Z[1/3]"


def test_crosscheck(graphs, capsys):
    code, data = run_json(capsys, ["crosscheck", graphs["two"], "--horizon", "2"])
    assert code == 0
    assert data["horizon"] == 2
    assert data["pairing_routes"]["all_agree"] is True
    assert data["six_term"]["composite_zero"] is True
    assert data["six_term"]["j_star_surjective"] is True


def test_graph_validate(graphs, capsys):
    code, data = run_json(capsys, ["graph-validate", graphs["sink"]])
    assert code == 0
    assert data["graph"]["no_sinks"] is False
    assert data["vertex_matrix"] == [["0", "1"], ["0", "0"]]


def test_hypothesis_violation_exits_2(graphs, capsys):
    code, data = run_json(capsys, ["cone-ktheory", graphs["sink"]])
    assert code == 2
    assert data["error"]["type"] == "HypothesisError"


def test_regularity_error_names_condition_and_vertex(graphs, capsys):
    for graph, expected in (("sink", "graph has a sink at vertex 'w'"),
                            ("source", "graph has a source at vertex 'u'")):
        for argv in (["graph-ktheory", graphs[graph]],
                     ["cone-ktheory", graphs[graph]],
                     ["class-af", graphs[graph], "p(v)"],
                     ["pair", graphs[graph], "S(a)" if graph == "source" else "S(e)"],
                     ["crosscheck", graphs[graph], "--horizon", "1"]):
            code, data = run_json(capsys, argv)
            assert code == 2, argv
            assert data["error"]["type"] == "HypothesisError", argv
            assert data["error"]["message"].startswith(expected), argv


def test_negative_horizon_exits_2(graphs, capsys):
    code, data = run_json(capsys, ["crosscheck", graphs["o2"], "--horizon", "-1"])
    assert code == 2
    assert data["error"]["type"] == "ArgumentRangeError"
    assert "-1" in data["error"]["message"]


def test_deep_nesting_exits_2(graphs, capsys):
    expr = "(" * 3000 + "p(v)" + ")" * 3000
    code, data = run_json(capsys, ["elem-check", graphs["o2"], expr])
    assert code == 2 and data["error"]["type"] == "ExprSyntaxError"
    code, data = run_json(capsys, ["elem-check", graphs["o2"], "adj(" * 3000 + "p(v)" + ")" * 3000])
    assert code == 2 and data["error"]["type"] == "ExprSyntaxError"


def test_parse_error_exits_2(graphs, capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("vertex v\nedge a w v\n", encoding="utf-8")
    code, data = run_json(capsys, ["graph-validate", str(bad)])
    assert code == 2 and data["error"]["type"] == "GraphSyntaxError"
    code, data = run_json(capsys, ["elem-check", graphs["o2"], "S(q)"])
    assert code == 2 and data["error"]["type"] == "ExprSyntaxError"
    code, data = run_json(capsys, ["elem-check", str(tmp_path / "absent.graph"), "S(a)"])
    assert code == 2 and data["error"]["type"] == "FileNotFoundError"
    not_utf8 = tmp_path / "latin.graph"
    not_utf8.write_bytes(b"\xff\xfe bad")
    code, data = run_json(capsys, ["graph-validate", str(not_utf8)])
    assert code == 2 and data["error"]["type"] == "UnicodeDecodeError"
    code, data = run_json(capsys, ["graph-validate", str(tmp_path / ("x" * 300))])
    assert code == 2 and data["error"]["type"] == "OSError"
    assert data["error"]["message"].startswith("[Errno 36]")


def _subclasses(cls):
    return [cls] + [s for sub in cls.__subclasses__() for s in _subclasses(sub)]


def test_exit_code_follows_error_hierarchy(graphs, capsys, monkeypatch):
    # InternalInvariantError is a bug and exits 1; every other package error,
    # the base class included, is bad input and exits 2
    classes = _subclasses(GraphCKError)
    assert InternalInvariantError in classes and len(classes) >= 10
    help_text, arguments, _ = cli._COMMANDS["graph-validate"]
    for cls in classes:
        exc = cls("boom")

        def fail(g, args):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "graph-validate", (help_text, arguments, fail))
        code, data = run_json(capsys, ["graph-validate", graphs["o2"]])
        assert code == (1 if cls is InternalInvariantError else 2), cls
        assert data == {"error": {"type": cls.__name__, "message": str(exc)}}, cls


def test_parser_built_once(graphs, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (["graph-ktheory", graphs["o2"]], ["pair", graphs["o3"], "S(a)"],
                 ["crosscheck", graphs["loop"], "--horizon", "1"]):
        assert run_command(argv) == 0
    capsys.readouterr()
    assert built == []


def test_inadmissible_exits_2(graphs, capsys):
    code, data = run_json(capsys, ["pair", graphs["o2"], "S(a)+adj(S(a))"])
    assert code == 2 and data["error"]["type"] == "AdmissibilityError"


def test_output_deterministic(graphs, capsys):
    argv = ["crosscheck", graphs["o2"], "--horizon", "2"]
    run_command(argv)
    first = capsys.readouterr().out
    run_command(argv)
    second = capsys.readouterr().out
    assert first == second


def test_text_format(graphs, capsys):
    code = run_command(["graph-ktheory", graphs["o2"], "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "K0:" in out and "free_rank: 0" in out
    assert "{" not in out.splitlines()[0]


def test_every_report_carries_connectivity(graphs, capsys):
    for argv in (["graph-validate", graphs["o2"]],
                 ["graph-ktheory", graphs["o2"]],
                 ["pair", graphs["o2"], "S(a)"],
                 ["cone-ktheory", graphs["o2"]]):
        _, data = run_json(capsys, argv)
        assert data["graph"]["weakly_connected"] is True
        assert data["graph"]["connectivity_convention"] == "weak (undirected)"


def test_cone_class_renders_with_invariants():
    from graphck.cone import ConeClass
    from graphck.algebra import CKElement

    g = o2()
    c = ConeClass.of(CKElement.edge_isometry(g, "a"))
    data = json.loads(render_report({"class": c}))
    assert data["class"]["representative"] == {"blocks": ["S(a)"]}
    assert data["class"]["index"]["vector"] == {"v": 1}
    assert data["class"]["ev"]["closed_form"] == "1/2"


def test_disagreement_schema_fault_injection():
    # the disagreement shape is unreachable without a bug; render it directly
    g = o2()
    zero = k0f_zero(g)
    fake = PairingReport(zero, zero, zero, False,
                         {"odd": [], "aps": {}, "simplified": []})
    text = render_report({"routes_report": fake})
    data = json.loads(text)
    assert data["routes_report"]["agree"] is False
    assert "routes" in data["routes_report"]


def _sparse_graph(path, n, seed):
    """Vertex i has an edge to i+1 mod n and two edges to seeded random targets."""
    rng = random.Random(seed)
    lines = [f"vertex v{i}" for i in range(n)]
    for i in range(n):
        for j in ((i + 1) % n, rng.randrange(n), rng.randrange(n)):
            lines.append(f"edge e{len(lines)} v{i} v{j}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_each_matrix_factored_once_per_command(graphs, tmp_path, capsys, monkeypatch):
    # every command factors 1 - B and nothing else; a second factorisation
    # raises before it starts, so a command that would factor another matrix
    # fails at once (on the 6-vertex graphs a factorisation of B^6 did not
    # finish in 60 s)
    factor = intmat._smith_normal_form
    made = []

    def once(M):
        if made:
            raise AssertionError("second factorisation in one command")
        made.append(M)
        return factor(M)

    monkeypatch.setattr(intmat, "_smith_normal_form", once)
    sparse = _sparse_graph(tmp_path / "sparse16.graph", 16, 4)
    runs = [["graph-ktheory", sparse], ["cone-ktheory", sparse]]
    runs += [["crosscheck", graphs[name], "--horizon", "2"]
             for name in ("o2", "o3", "loop", "two", "cycle3")]
    runs += [["crosscheck", _sparse_graph(tmp_path / f"sparse6_{seed}.graph", 6, seed),
              "--horizon", "2"] for seed in (1, 2, 3)]
    for argv in runs:
        made.clear()
        code, data = run_json(capsys, argv)
        assert code == 0, (argv, data)
        with open(argv[1], encoding="utf-8") as fh:
            assert made == [presentation_matrix(parse_graph(fh.read()))], argv
        if argv[0] == "crosscheck":
            assert data["six_term"]["not_certified"] == [], argv


def test_surjectivity_certificate_is_checked(graphs, capsys, monkeypatch):
    # a factorisation of 1 - B whose U doubles a row still has U*M*V and D
    # diagonal with the right chain, but its columns no longer span Z^n:
    # the vertex classes would not be certified to surject
    factor = intmat._smith_normal_form
    for argv in (["cone-ktheory", graphs["o3"]],
                 ["crosscheck", graphs["two"], "--horizon", "1"]):
        with open(argv[1], encoding="utf-8") as fh:
            one_minus_b = presentation_matrix(parse_graph(fh.read()))

        def faulty(M):
            snf = factor(M)
            if M != one_minus_b:
                return snf
            rows = snf.U.entries
            bad_u = IntMatrix((tuple(2 * x for x in rows[0]),) + rows[1:])
            return SNFResult(bad_u, snf.D, snf.V)

        monkeypatch.setattr(intmat, "_smith_normal_form", faulty)
        code, data = run_json(capsys, argv)
        assert code == 1, argv
        assert data["error"] == {"type": "InternalInvariantError",
                                 "message": "SNF transform not unimodular"}


@pytest.mark.parametrize("text, line, message", [
    # declared, but only on a later line than the edge that names it
    ("vertex u\nedge a u v\nvertex v", 2, "undeclared vertex 'v'"),
    # the first repeat is reported, not the third copy
    ("vertex u\nvertex u\nvertex u", 2, "duplicate vertex 'u'"),
    ("vertex u\nedge a u u\n# loop\nedge a u u\nedge a u u", 4, "duplicate edge 'a'"),
])
def test_graph_file_errors_name_their_line(text, line, message, tmp_path, capsys):
    with pytest.raises(GraphSyntaxError) as exc:
        parse_graph(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"
    path = tmp_path / "bad.graph"
    path.write_text(text + "\n", encoding="utf-8")
    code, data = run_json(capsys, ["graph-validate", str(path)])
    assert code == 2
    assert data["error"] == {"type": "GraphSyntaxError", "message": f"line {line}: {message}"}
