"""Find the graphs on which a command of a gated workload blows up.

    python3 perfbench/screen.py [--cap SECONDS]

Runs every command that ktheory_sparse and crosscheck_corpus can draw from
their graph pools once, in process, and prints the graph seeds on which a
command ran for longer than the cap, with the slowest completed command of
each size.  workloads.py lists those seeds in KTHEORY_BLOWUPS and
CROSSCHECK_BLOWUPS: the gated workloads leave them out and the snf_blowup
workload runs them.  A run takes a few minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import signal
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (CROSSCHECK_POOL, KTHEORY_POOL, SPARSE_CROSSCHECK,  # noqa: E402
                       sparse_graph)


class OverCap(BaseException):
    pass


def _on_alarm(signum, frame):
    raise OverCap()


def seconds(cli, argv, cap):
    """Wall seconds of one command, or None when it runs over `cap`."""
    t0 = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, cap)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run_command(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OverCap:
        return None
    if code != 0:
        raise SystemExit(f"{argv} exited with {code}")
    return perf_counter() - t0


def screen(cli, workdir, n, count, argvs, cap):
    """(blown-up graph seeds, slowest completed command) over graph seeds
    0..count-1; `argvs` maps a graph file to the commands to run on it."""
    blowups, slowest = [], 0.0
    for graph_seed in range(count):
        spec = sparse_graph(f"g{n}_{graph_seed}", n, graph_seed)
        path = spec.place(workdir)
        spec.write()
        for argv in argvs(path):
            elapsed = seconds(cli, argv, cap)
            if elapsed is None:
                blowups.append(graph_seed)
                break
            slowest = max(slowest, elapsed)
    return tuple(blowups), slowest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cap", type=float, default=5.0, help="seconds per command")
    args = parser.parse_args()
    signal.signal(signal.SIGALRM, _on_alarm)
    from graphck import cli

    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        workdir = Path(tmp)
        blowups = {}
        for n, count in KTHEORY_POOL.items():
            blowups[n], slowest = screen(
                cli, workdir, n, count,
                lambda path: (["graph-ktheory", path], ["cone-ktheory", path]), args.cap)
            print(f"ktheory n={n}: {len(blowups[n])} of {count} over {args.cap} s, "
                  f"slowest completed {slowest:.3f} s", flush=True)
        n, horizon = SPARSE_CROSSCHECK
        crosscheck, slowest = screen(
            cli, workdir, n, CROSSCHECK_POOL,
            lambda path: (["crosscheck", path, "--horizon", str(horizon)],), args.cap)
        print(f"crosscheck n={n} horizon {horizon}: {len(crosscheck)} of {CROSSCHECK_POOL} "
              f"over {args.cap} s, slowest completed {slowest:.3f} s")
    print(f"KTHEORY_BLOWUPS = {blowups}")
    print(f"CROSSCHECK_BLOWUPS = {crosscheck}")


if __name__ == "__main__":
    main()
