"""Command-line interface.

Every subcommand is one entry of `_COMMANDS`: its help text, its
arguments after the graph file, and a handler `(g, args) -> dict` that
gives only that subcommand's own report fields.  `run_command` reads the
graph file, adds `"command"` and `"graph"` to those fields and prints the
report, or one error object.  The parser is built once, at import.

Exit codes: 0 success; 2 for bad input, violated graph hypotheses or an
unreadable graph file, that is every `GraphCKError` but
`InternalInvariantError` and the `OSError` or `UnicodeDecodeError` of
reading the file (with a machine-readable error object on stdout); 1 for
`InternalInvariantError` and any other failure.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .afcore import class_of_projection, k0f_describe
from .algebra import classify, is_zero
from .cone import (ConeClass, cone_equal, decompose_relations, ev_star,
                   mapping_cone_k_groups)
from .errors import ArgumentRangeError, GraphCKError, InternalInvariantError
from .exprs import format_element, parse_element
from .graphs import parse_graph, validate_graph, vertex_matrix
from .ktheory import exactness_report, graph_k_theory
from .pairing import AdmissibleIsometry, pairing, pairing_crosscheck
from .render import render_report


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


def _isometry(g, args):
    return AdmissibleIsometry(tuple(parse_element(text, g) for text in args.exprs))


def _elem_eval(g, args):
    elem = parse_element(args.expr, g)
    info = classify(elem)
    return {"element": format_element(elem),
            "classification": {
                "is_projection": info.is_projection,
                "is_partial_isometry": info.is_partial_isometry,
                "in_core": info.in_F,
                "degrees": sorted(info.degrees),
                "homogeneous_degree": info.homogeneous_degree,
            }}


def _class_af(g, args):
    cls = class_of_projection(parse_element(args.expr, g))
    desc = k0f_describe(g)
    return {"class": cls,
            "group": {"model": desc["model"],
                      "transfer_matrix": desc["transfer_matrix"],
                      "closed_form": desc["closed_form"],
                      "K1_of_core": desc["k1"]}}


def _pair(g, args):
    report = pairing(_isometry(g, args))
    return {"orientation": report.orientation, "agree": report.agree,
            "routes": {k: v for k, v in report.routes.items()
                       if args.route in ("all", k)},
            "breakdown": {k: v for k, v in report.per_route_breakdown.items()
                          if args.route in ("all", k)}}


def _cone_ev(g, args):
    cls = ConeClass.of(_isometry(g, args))
    return {"source_class": cls.ev_class[0], "range_class": cls.ev_class[1],
            "ev": ev_star(cls)}


def _cone_equal(g, args):
    left = parse_element(args.expr_a, g)
    a = ConeClass.of(left)
    right = parse_element(args.expr_b, g)
    b = ConeClass.of(right)
    return {"left": format_element(left), "right": format_element(right),
            "verdict": cone_equal(a, b),
            "left_invariants": {"ev": ev_star(a), "index": a.index_class},
            "right_invariants": {"ev": ev_star(b), "index": b.index_class}}


def _cone_decompose(g, args):
    elem = parse_element(args.expr, g)
    result = decompose_relations(elem)
    return {"input": format_element(elem),
            "parts": [{"sign": s, "element": format_element(e)}
                      for s, e in result["parts"]],
            "certificate": result["certificate"]}


def _crosscheck(g, args):
    return {"horizon": args.horizon,
            "pairing_routes": pairing_crosscheck(g, horizon=args.horizon),
            "six_term": exactness_report(g, horizon=args.horizon)}


_EXPR = (("expr", {"help": "element expression"}),)
_BLOCKS = (("exprs", {"nargs": "+", "metavar": "expr",
                      "help": "element expressions (direct-sum blocks)"}),)

# subcommand -> (help, add_argument calls after the graph file, handler).
# Handlers look library functions up in this module's globals at call time,
# so a wrapper set on a module attribute (perfbench/tracer.py) sees the call.
_COMMANDS = {
    "graph-validate": ("flags and vertex matrix", (),
                       lambda g, args: {"vertex_matrix": vertex_matrix(g)}),
    "graph-ktheory": ("K-groups of the graph algebra", (),
                      lambda g, args: {"ktheory": graph_k_theory(g)}),
    "elem-eval": ("parse and classify an element", _EXPR, _elem_eval),
    "elem-check": ("decide whether an element is 0", _EXPR,
                   lambda g, args: {"expression": args.expr,
                                    "is_zero": is_zero(parse_element(args.expr, g))}),
    "class-af": ("limit-group class of a core projection", _EXPR, _class_af),
    "pair": ("index pairing by all three routes",
             _BLOCKS + (("--route", {"choices": ("odd", "aps", "simplified", "all"),
                                     "default": "all"}),),
             _pair),
    "cone-ev": ("evaluation invariant of a cone class", _BLOCKS, _cone_ev),
    "cone-equal": ("decide equality of two cone classes",
                   (("expr_a", {"help": "first element expression"}),
                    ("expr_b", {"help": "second element expression"})),
                   _cone_equal),
    "cone-decompose": ("generator decomposition of a word class", _EXPR, _cone_decompose),
    "cone-ktheory": ("K-groups of the mapping cone", (),
                     lambda g, args: {"report": mapping_cone_k_groups(g)}),
    "crosscheck": ("route agreement and six-term checks",
                   (("--horizon", {"type": int, "default": 4,
                                   "help": "generator enumeration bound (default 4)"}),),
                   _crosscheck),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphck",
        description="Exact K-theory and gauge index pairings for "
                    "Cuntz-Krieger algebras of finite graphs.")
    parser.add_argument("--version", action="version", version=f"graphck {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph", help="graph definition file")
        for arg, options in arguments:
            p.add_argument(arg, **options)
        p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


_PARSER = build_parser()


def run_command(argv) -> int:
    """Parse argv, run the command, print the report; returns the exit code."""
    args = _PARSER.parse_args(argv)
    try:
        if getattr(args, "horizon", 0) < 0:
            raise ArgumentRangeError(f"--horizon must be nonnegative, got {args.horizon}")
        with open(args.graph, "r", encoding="utf-8") as fh:
            g = parse_graph(fh.read())
        report = {**_COMMANDS[args.subcommand][2](g, args),
                  "command": args.subcommand, "graph": _graph_summary(g)}
        code = 0
    except Exception as exc:  # every failure is reported as one structured object
        report = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        usage = isinstance(exc, (GraphCKError, OSError, UnicodeDecodeError))
        code = 2 if usage and not isinstance(exc, InternalInvariantError) else 1
    sys.stdout.write(render_report(report, args.format))
    return code


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
