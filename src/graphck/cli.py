"""Command-line interface.

Exit codes: 0 success; 2 for bad input or violated graph hypotheses
(with a machine-readable error object on stdout); 1 for internal
assertion failures.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .afcore import class_of_projection, k0f_describe
from .algebra import classify, is_zero
from .cone import (ConeClass, cone_equal, decompose_relations, ev_star,
                   mapping_cone_k_groups)
from .errors import (AdmissibilityError, ArgumentRangeError, ExprSyntaxError,
                     GraphMismatchError, GraphSyntaxError, HypothesisError,
                     NotAProjectionError, SinkObstructionError)
from .exprs import format_element, parse_element
from .graphs import parse_graph, validate_graph, vertex_matrix
from .ktheory import exactness_report, graph_k_theory
from .pairing import AdmissibleIsometry, pairing, pairing_crosscheck
from .render import render_report

_USAGE_ERRORS = (GraphSyntaxError, ExprSyntaxError, GraphMismatchError,
                 SinkObstructionError, HypothesisError, AdmissibilityError,
                 NotAProjectionError, ArgumentRangeError, FileNotFoundError,
                 IsADirectoryError, PermissionError)


def _load_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _graph_summary(g) -> dict:
    props = validate_graph(g)
    return {
        "vertices": list(g.vertices),
        "edges": [{"id": g.edge_names[e],
                   "source": g.vertices[g.edge_source[e]],
                   "range": g.vertices[g.edge_range[e]]}
                  for e in range(g.n_edges)],
        "no_sources": props.no_sources,
        "no_sinks": props.no_sinks,
        "weakly_connected": props.weakly_connected,
        "connectivity_convention": "weak (undirected)",
    }


def _cmd_graph_validate(args):
    g = _load_graph(args.graph)
    return {"command": "graph-validate", "graph": _graph_summary(g),
            "vertex_matrix": vertex_matrix(g)}


def _cmd_graph_ktheory(args):
    g = _load_graph(args.graph)
    return {"command": "graph-ktheory", "graph": _graph_summary(g),
            "ktheory": graph_k_theory(g)}


def _cmd_elem_eval(args):
    g = _load_graph(args.graph)
    elem = parse_element(args.expr, g)
    info = classify(elem)
    return {"command": "elem-eval", "graph": _graph_summary(g),
            "element": format_element(elem),
            "classification": {
                "is_projection": info.is_projection,
                "is_partial_isometry": info.is_partial_isometry,
                "in_core": info.in_F,
                "degrees": sorted(info.degrees),
                "homogeneous_degree": info.homogeneous_degree,
            }}


def _cmd_elem_check(args):
    g = _load_graph(args.graph)
    elem = parse_element(args.expr, g)
    return {"command": "elem-check", "graph": _graph_summary(g),
            "expression": args.expr, "is_zero": is_zero(elem)}


def _cmd_class_af(args):
    g = _load_graph(args.graph)
    elem = parse_element(args.expr, g)
    cls = class_of_projection(elem)
    desc = k0f_describe(g)
    return {"command": "class-af", "graph": _graph_summary(g),
            "class": cls,
            "group": {"model": desc["model"],
                      "transfer_matrix": desc["transfer_matrix"],
                      "closed_form": desc["closed_form"],
                      "K1_of_core": desc["k1"]}}


def _cmd_pair(args):
    g = _load_graph(args.graph)
    blocks = tuple(parse_element(text, g) for text in args.exprs)
    report = pairing(AdmissibleIsometry(blocks))
    payload = {"command": "pair", "graph": _graph_summary(g),
               "orientation": report.orientation, "agree": report.agree}
    if args.route == "all":
        payload["routes"] = report.routes
        payload["breakdown"] = report.per_route_breakdown
    else:
        payload["routes"] = {args.route: report.routes[args.route]}
        payload["breakdown"] = {args.route: report.per_route_breakdown[args.route]}
    return payload


def _cmd_cone_ev(args):
    g = _load_graph(args.graph)
    blocks = tuple(parse_element(text, g) for text in args.exprs)
    cls = ConeClass.of(AdmissibleIsometry(blocks))
    return {"command": "cone-ev", "graph": _graph_summary(g),
            "source_class": cls.ev_class[0], "range_class": cls.ev_class[1],
            "ev": ev_star(cls)}


def _cmd_cone_equal(args):
    g = _load_graph(args.graph)
    left = parse_element(args.expr_a, g)
    a = ConeClass.of(left)
    right = parse_element(args.expr_b, g)
    b = ConeClass.of(right)
    return {"command": "cone-equal", "graph": _graph_summary(g),
            "left": format_element(left), "right": format_element(right),
            "verdict": cone_equal(a, b),
            "left_invariants": {"ev": ev_star(a), "index": a.index_class},
            "right_invariants": {"ev": ev_star(b), "index": b.index_class}}


def _cmd_cone_decompose(args):
    g = _load_graph(args.graph)
    elem = parse_element(args.expr, g)
    result = decompose_relations(elem)
    return {"command": "cone-decompose", "graph": _graph_summary(g),
            "input": format_element(elem),
            "parts": [{"sign": s, "element": format_element(e)}
                      for s, e in result["parts"]],
            "certificate": result["certificate"]}


def _cmd_cone_ktheory(args):
    g = _load_graph(args.graph)
    return {"command": "cone-ktheory", "graph": _graph_summary(g),
            "report": mapping_cone_k_groups(g)}


def _cmd_crosscheck(args):
    if args.horizon < 0:
        raise ArgumentRangeError(f"--horizon must be nonnegative, got {args.horizon}")
    g = _load_graph(args.graph)
    routes = pairing_crosscheck(g, horizon=args.horizon)
    exact = exactness_report(g, horizon=args.horizon)
    return {"command": "crosscheck", "graph": _graph_summary(g),
            "horizon": args.horizon,
            "pairing_routes": routes, "six_term": exact}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphck",
        description="Exact K-theory and gauge index pairings for "
                    "Cuntz-Krieger algebras of finite graphs.")
    parser.add_argument("--version", action="version", version=f"graphck {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, exprs=0, horizon=False):
        p.add_argument("graph", help="graph definition file")
        if exprs == 1:
            p.add_argument("expr", help="element expression")
        elif exprs == 2:
            p.add_argument("expr_a", help="first element expression")
            p.add_argument("expr_b", help="second element expression")
        elif exprs == "many":
            p.add_argument("exprs", nargs="+", metavar="expr",
                           help="element expressions (direct-sum blocks)")
        if horizon:
            p.add_argument("--horizon", type=int, default=4,
                           help="generator enumeration bound (default 4)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        return p

    common(sub.add_parser("graph-validate", help="flags and vertex matrix"))
    common(sub.add_parser("graph-ktheory", help="K-groups of the graph algebra"))
    common(sub.add_parser("elem-eval", help="parse and classify an element"), exprs=1)
    common(sub.add_parser("elem-check", help="decide whether an element is 0"), exprs=1)
    common(sub.add_parser("class-af", help="limit-group class of a core projection"), exprs=1)
    p = common(sub.add_parser("pair", help="index pairing by all three routes"), exprs="many")
    p.add_argument("--route", choices=("odd", "aps", "simplified", "all"), default="all")
    common(sub.add_parser("cone-ev", help="evaluation invariant of a cone class"), exprs="many")
    common(sub.add_parser("cone-equal", help="decide equality of two cone classes"), exprs=2)
    common(sub.add_parser("cone-decompose", help="generator decomposition of a word class"),
           exprs=1)
    common(sub.add_parser("cone-ktheory", help="K-groups of the mapping cone"))
    common(sub.add_parser("crosscheck", help="route agreement and six-term checks"),
           horizon=True)
    return parser


_HANDLERS = {
    "graph-validate": _cmd_graph_validate,
    "graph-ktheory": _cmd_graph_ktheory,
    "elem-eval": _cmd_elem_eval,
    "elem-check": _cmd_elem_check,
    "class-af": _cmd_class_af,
    "pair": _cmd_pair,
    "cone-ev": _cmd_cone_ev,
    "cone-equal": _cmd_cone_equal,
    "cone-decompose": _cmd_cone_decompose,
    "cone-ktheory": _cmd_cone_ktheory,
    "crosscheck": _cmd_crosscheck,
}


def run_command(argv) -> int:
    """Parse argv, run the command, print the report; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = getattr(args, "format", "json")
    try:
        report = _HANDLERS[args.subcommand](args)
    except _USAGE_ERRORS as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(render_report(error, fmt))
        return 2
    except Exception as exc:  # internal failures still emit a structured object
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(render_report(error, fmt))
        return 1
    sys.stdout.write(render_report(report, fmt))
    return 0


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
