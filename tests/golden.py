"""Golden CLI corpus: the exact stdout and exit code of every subcommand on
the graphs of tests/corpus.py.

    python tests/golden.py            # compare the CLI with tests/golden.json
    python tests/golden.py --write    # regenerate tests/golden.json

Without --write nothing is written: a mismatch prints a diff of each
differing entry and exits 1.  test_golden.py runs the same comparison.

The expressions are derived from each graph's declarations, so every graph
gets projections, isometries and a few inputs that must be refused.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import difflib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402

from corpus import (CYCLE3_TEXT, DISCONNECTED_TEXT, LOOP_TEXT, O2_TEXT,  # noqa: E402
                    O3_TEXT, SINGULAR_B_TEXT, SINK_TEXT, TWO_VERTEX_TEXT)
from graphck.cli import run_command  # noqa: E402
from graphck.graphs import parse_graph  # noqa: E402

GOLDEN = HERE / "golden.json"

GRAPHS = {"o2": O2_TEXT, "o3": O3_TEXT, "single_loop": LOOP_TEXT,
          "two_vertex": TWO_VERTEX_TEXT, "cycle3_chords": CYCLE3_TEXT,
          "disconnected_pair": DISCONNECTED_TEXT, "sink": SINK_TEXT,
          "singular_b": SINGULAR_B_TEXT}


def _expressions(g):
    """(projections, isometries, others) for one graph, in a fixed order."""
    S = [f"S({name})" for name in g.edge_names]
    paths2 = [(e, f) for e in range(g.n_edges) for f in g.out_edges[g.edge_range[e]]][:2]
    projections = ([f"p({v})" for v in g.vertices]
                   + [f"{s}*adj({s})" for s in S]
                   + [" + ".join(f"p({v})" for v in g.vertices),
                      f"adj({S[0]})*{S[0]}"])
    isometries = (S + [f"adj({S[0]})"]
                  + [f"{S[e]}*{S[f]}" for e, f in paths2]
                  + [f"{S[e]}*{S[f]}*adj({S[f]})" for e, f in paths2[:1]]
                  + [f"{S[e]}*adj({S[f]})" for e in range(g.n_edges)
                     for f in range(e + 1, g.n_edges)
                     if g.edge_range[e] == g.edge_range[f]][:1]
                  + [f"p({g.vertices[0]})"])
    v0 = g.vertices[0]
    relation = " - ".join([f"p({v0})"] + [f"{S[e]}*adj({S[e]})" for e in g.out_edges[0]])
    others = [f"2 p({v0})", f"{S[0]}+adj({S[0]})",
              f"(1/2-3/4i) {S[0]}*adj({S[0]})", relation]
    return projections, isometries, others


def cases():
    """Every golden command line, with the graph given by its corpus name."""
    out = []
    for name, text in GRAPHS.items():
        projections, isometries, others = _expressions(parse_graph(text))
        out += [["graph-validate", name], ["graph-validate", name, "--format", "text"],
                ["graph-ktheory", name], ["graph-ktheory", name, "--format", "text"],
                ["cone-ktheory", name]]
        out += [["crosscheck", name, "--horizon", str(h)] for h in (1, 2, 3)]
        out.append(["crosscheck", name, "--horizon", "1", "--format", "text"])
        out += [["elem-eval", name, x] for x in projections[:1] + isometries + others]
        out += [["elem-check", name, x] for x in isometries[:2] + others]
        out += [["class-af", name, x] for x in projections + others[:1] + isometries[:1]]
        out += [["pair", name, x] for x in isometries + others[1:2]]
        out.append(["pair", name] + isometries[:2])
        out += [["pair", name, isometries[0], "--route", r] for r in ("odd", "aps", "simplified")]
        out += [["cone-ev", name, x] for x in isometries]
        out.append(["cone-ev", name] + isometries[:2])
        out += [["cone-equal", name, a, b] for a, b in zip(isometries, isometries[1:])]
        out += [["cone-decompose", name, x] for x in isometries]
    return out


def run_case(argv, paths):
    """(exit code, stdout) of one command; argv[1] names a corpus graph."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_command([argv[0], paths[argv[1]]] + argv[2:])
    return code, buf.getvalue()


def run_all():
    """Run every case against graph files written to a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in GRAPHS.items():
            paths[name] = str(Path(tmp) / f"{name}.graph")
            Path(paths[name]).write_text(text + "\n", encoding="utf-8")
        entries = []
        for argv in cases():
            code, stdout = run_case(argv, paths)
            entries.append({"argv": argv, "exit": code, "stdout": stdout})
        return entries


def _render(obj):
    """A report as the CLI prints it in JSON format."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def pack(entries):
    """The golden file text: each graph's summary once, then one entry per
    line.  A JSON report whose rendering reproduces its stdout exactly is
    stored as an object, without the summary of its graph; any other
    stdout is stored verbatim."""
    summaries = {}
    lines = []
    for entry in entries:
        packed = {"argv": entry["argv"], "exit": entry["exit"]}
        try:
            obj = json.loads(entry["stdout"])
        except ValueError:
            obj = None
        if isinstance(obj, dict) and _render(obj) == entry["stdout"]:
            if "graph" in obj:
                summary = summaries.setdefault(entry["argv"][1], obj["graph"])
                if obj["graph"] == summary:
                    del obj["graph"]
                    packed["graph"] = True
            packed["json"] = obj
        else:
            packed["stdout"] = entry["stdout"]
        lines.append(json.dumps(packed, sort_keys=True, separators=(",", ":")))
    graphs = json.dumps(summaries, sort_keys=True, separators=(",", ":"))
    return '{"graphs":' + graphs + ',\n"entries":[\n' + ",\n".join(lines) + "\n]}\n"


def unpack(text):
    """The entries of a golden file, with each stdout rendered in full."""
    data = json.loads(text)
    entries = []
    for packed in data["entries"]:
        if "json" in packed:
            obj = dict(packed["json"])
            if packed.get("graph"):
                obj["graph"] = data["graphs"][packed["argv"][1]]
            stdout = _render(obj)
        else:
            stdout = packed["stdout"]
        entries.append({"argv": packed["argv"], "exit": packed["exit"], "stdout": stdout})
    return entries


def load():
    return unpack(GOLDEN.read_text(encoding="utf-8"))


def mismatches(expected, actual):
    """One unified diff per entry that is missing, extra or differs."""
    want = {json.dumps(e["argv"]): e for e in expected}
    got = {json.dumps(e["argv"]): e for e in actual}
    diffs = []
    for key in sorted(want.keys() | got.keys()):
        a, b = want.get(key), got.get(key)
        if a == b:
            continue
        before = "" if a is None else f"exit {a['exit']}\n{a['stdout']}"
        after = "" if b is None else f"exit {b['exit']}\n{b['stdout']}"
        diffs.append("".join(difflib.unified_diff(
            before.splitlines(keepends=True), after.splitlines(keepends=True),
            fromfile=f"golden {key}", tofile=f"current {key}")))
    return diffs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the golden file instead of comparing")
    args = parser.parse_args(argv)
    actual = run_all()
    if args.write:
        text = pack(actual)
        if unpack(text) != actual:
            raise AssertionError("the packed corpus does not reproduce the outputs")
        GOLDEN.write_text(text, encoding="utf-8")
        print(f"wrote {len(actual)} entries to {GOLDEN}")
        return 0
    diffs = mismatches(load(), actual)
    for d in diffs:
        sys.stdout.write(d + "\n")
    print(f"{len(actual)} entries, {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
