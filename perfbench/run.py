"""Closed-loop benchmark of the graphck command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one command at a time, in process, through
`graphck.cli.run_command` with stdout captured, and sends the next command
only after the previous one returned.  A command fails when it exits
non-zero, raises SystemExit from argument parsing, has its output rejected
by the workload's own check, or runs over its time budget, which is
enforced in process with `signal.setitimer`.

The speed of a shared machine drifts by tens of percent within a second.
Between commands, at most every PROBE_EVERY_S, the loop times a fixed piece
of the benchmark's own pure-Python work (the probe).  Command times are
reported for a machine on which the probe takes REFERENCE_PROBE_S: each
measured wall time is multiplied by REFERENCE_PROBE_S / the mean of the
PROBE_HALF_WINDOW probes taken before the command and as many after it.
Each command's wall-time budget is the workload's budget divided by the
same ratio, taken over the last PROBE_WINDOW probes.  A failed command
counts at the workload's budget in the latency percentiles.  Each set-up
time is scaled by the mean of SETUP_PROBES probes taken just before it and
as many just after, and the median of the scaled set-up times is reported.  The run record keeps the measured values and the probe times.

With --trace 0 the last line of stdout is the end-to-end result; with
--trace 1 the commands run under the per-layer tracer, each also once
untraced to measure the tracing overhead, and the last line holds the
per-layer metrics.  The line before it is a run record (commit, Python,
cores, budget, failure counts, output digest, tracing overhead).
Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, act, det_and_nullity, paths_of_length, sparse_graph  # noqa: E402

MIN_COMMANDS = 100       # at least ten samples beyond the 90th percentile
SETUP_REPEATS = 7        # setup_s is the median of at least this many set-ups
SETUP_MIN_S = 1.5        # that together take at least this long
SETUP_PROBES = 3         # probes just before and just after each set-up
DIGEST_COMMANDS = 100    # the digest covers this prefix of the command list
PROBE_EVERY_S = 0.05     # wall time between probes
PROBE_WINDOW = 40        # probes that set a command's wall-time budget
PROBE_HALF_WINDOW = 5    # probes on each side of a command that scale its time
REFERENCE_PROBE_S = 0.005
SPAN_DIR = HERE / "out"
WORK_DIR = HERE / ".work"

PROBE_MATRIX = [[(i * 7 + j * 3) % 11 - 5 + 9 * (i == j) for j in range(10)] for i in range(10)]
PROBE_GRAPH = sparse_graph("probe", 6, 1)
PROBE_TERMS = {(0, (0, 3), 0, (0,)): (Fraction(1), Fraction(0)),
               (1, (), 1, (3,)): (Fraction(2, 3), Fraction(1))}


def probe():
    """Wall seconds of a fixed piece of Fraction, tuple and dict work that
    does not touch graphck: the machine's current speed."""
    t0 = perf_counter()
    det_and_nullity(PROBE_MATRIX)
    for path in paths_of_length(PROBE_GRAPH, 4):
        act(PROBE_TERMS, {path: (1, 0)})
    return perf_counter() - t0


class BudgetExceeded(BaseException):
    """Raised by the interval timer; a BaseException so that the CLI's own
    `except Exception` handler cannot swallow it."""


def set_up(workload, seed, workdir):
    """Import graphck afresh and build the commands with their graphs and
    expressions.  A graph file is written just before the first command
    that reads it, outside both set-up and command time: the latency of
    writing hundreds of small files varied by a factor of three."""
    gc.collect()
    t0 = perf_counter()
    for name in [m for m in sys.modules if m == "graphck" or m.startswith("graphck.")]:
        del sys.modules[name]
    cli = importlib.import_module("graphck.cli")
    workdir.mkdir(parents=True, exist_ok=True)
    commands = workload.generate(seed, workdir)
    return perf_counter() - t0, cli, commands


class Loop:
    """Runs commands one after another and keeps per-command outcomes.

    With a tracer, every command also runs once untraced, just before or
    just after the traced run (alternating), so that machine-speed drift
    cancels out of the tracing overhead.
    """

    def __init__(self, cli, commands, budget_s, probes, tracer=None):
        self.cli = cli
        self.commands = commands
        self.budget_s = budget_s  # at the reference speed
        self.tracer = tracer
        self.times = []       # seconds per attempted command
        self.status = []      # "ok", "over_budget", "system_exit", "exit_<code>", "rejected", ...
        self.stdout_sha = []  # sha256 of stdout for completed commands, else None
        self.untraced = []    # (seconds, sha or None) of the untraced runs, with a tracer
        self.probes = list(probes)  # probe seconds, the set-up's first
        self.probes_before = []     # per attempted command: probes taken before it
        self.rejections = []
        self.timed_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self.tracer is not None and self.tracer.on:
            self.tracer.note_interrupt()
        raise BudgetExceeded()

    def _execute(self, cmd, cmd_id=None):
        """Run one command under the budget; (seconds, status, stdout).

        The one-shot timer can fire inside the inner `finally` before it is
        disarmed; the outer handler catches that too, and the streams are
        restored once more after it.
        """
        out, err = io.StringIO(), io.StringIO()
        real_out, real_err = sys.stdout, sys.stderr
        if cmd_id is not None:
            self.tracer.begin_command(cmd_id)
        recent = self.probes[-PROBE_WINDOW:]
        budget = self.budget_s * sum(recent) / len(recent) / REFERENCE_PROBE_S
        t0 = perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, budget)
                sys.stdout, sys.stderr = out, err
                code = self.cli.run_command(cmd.argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                sys.stdout, sys.stderr = real_out, real_err
            status = "ok" if code == 0 else f"exit_{code}"
        except BudgetExceeded:
            status = "over_budget"
        except SystemExit:
            status = "system_exit"
        except Exception as exc:  # noqa: BLE001 - any escape from run_command is a failure
            status = f"raised_{type(exc).__name__}"
        elapsed = perf_counter() - t0
        sys.stdout, sys.stderr = real_out, real_err
        if cmd_id is not None:
            self.tracer.end_command()
        return elapsed, status, out.getvalue()

    def _run_untraced(self, cmd):
        self.tracer.uninstall()
        elapsed, status, text = self._execute(cmd)
        self.tracer.install()
        self.untraced.append((elapsed, sha256(text) if status == "ok" else None))

    def run_one(self, i):
        """Run and check command i (the list repeats when a run outlasts it)."""
        cmd = self.commands[i % len(self.commands)]
        cmd.graph.write()
        traced = self.tracer is not None
        if traced and i % 2:
            self._run_untraced(cmd)
        elapsed, status, text = self._execute(cmd, i if traced else None)
        if traced and not i % 2:
            self._run_untraced(cmd)
        if status == "ok":
            reason = cmd.check(json.loads(text))
            if reason is not None:
                status = "rejected"
                if len(self.rejections) < 5:
                    self.rejections.append({"argv": cmd.argv, "reason": reason})
        self.times.append(elapsed)
        self.probes_before.append(len(self.probes))
        self.status.append(status)
        self.stdout_sha.append(sha256(text) if status == "ok" else None)
        self.timed_s += elapsed

    def run_for(self, seconds):
        """Closed loop until `seconds` of command time (traced and untraced
        runs together) and MIN_COMMANDS are reached, with a probe at most
        every PROBE_EVERY_S; stops anyway after 2 * seconds of wall time."""
        start = last_probe = perf_counter()
        i = 0
        while not (self.timed_s + sum(t for t, _ in self.untraced) >= seconds
                   and i >= MIN_COMMANDS):
            if perf_counter() - start >= 2 * seconds and i:
                break
            self.run_one(i)
            i += 1
            if perf_counter() - last_probe >= PROBE_EVERY_S:
                self.probes.append(probe())
                last_probe = perf_counter()

    def scales(self):
        """Per command: REFERENCE_PROBE_S / the mean of the probes around it."""
        return [REFERENCE_PROBE_S / statistics.mean(
                    self.probes[max(0, k - PROBE_HALF_WINDOW):k + PROBE_HALF_WINDOW])
                for k in self.probes_before]

    @property
    def completed(self):
        return self.status.count("ok")

    def digest(self):
        h = hashlib.sha256()
        covered = 0
        for sha in self.stdout_sha[:DIGEST_COMMANDS]:
            if sha is not None:
                h.update(sha)
                covered += 1
        return {"sha256": h.hexdigest(), "commands": covered, "prefix": DIGEST_COMMANDS}

    def trace_overhead(self):
        """Traced minus untraced time over the same commands."""
        traced_s = sum(self.times)
        untraced_s = sum(t for t, _ in self.untraced)
        differing = sum(1 for a, (_, b) in zip(self.stdout_sha, self.untraced)
                        if a is not None and b is not None and a != b)
        return {"commands": len(self.untraced), "traced_s": traced_s, "untraced_s": untraced_s,
                "overhead_s": traced_s - untraced_s,
                "overhead_share": (traced_s - untraced_s) / untraced_s,
                "outputs_differing": differing}


def sha256(text):
    return hashlib.sha256(text.encode()).digest()


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(loop, budget_s, setup_s, peak_rss_mb, scales):
    """Metric values, with measured command times multiplied by `scales`."""
    ms = sorted(t * 1000 * k if s == "ok" else budget_s * 1000
                for t, s, k in zip(loop.times, loop.status, scales))
    return {
        "setup_s": setup_s,
        "cmd_p50_ms": statistics.median(ms),
        "cmd_p90_ms": percentile(ms, 0.9),
        "cmds_per_s": loop.completed / sum(t * k for t, k in zip(loop.times, scales)),
        "ops_ok_share": loop.completed / len(ms),
        "peak_rss_mb": peak_rss_mb,
    }


def commit_of(root):
    """HEAD commit when the checkout is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(args, workload, workdir):
    """Set up, run the closed loop, check outputs; (record, correct, metric values)."""
    setup_times, scaled_setup_times, probes = [], [], []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        cli = commands = None  # let the previous set-up's objects go first
        before = [probe() for _ in range(SETUP_PROBES)]
        elapsed, cli, commands = set_up(workload, args.seed, workdir)
        after = [probe() for _ in range(SETUP_PROBES)]
        setup_times.append(elapsed)
        scaled_setup_times.append(elapsed * REFERENCE_PROBE_S / statistics.mean(before + after))
        probes += before + after

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    loop = Loop(cli, commands, workload.budget_s, probes, tracer)
    loop.run_for(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = len(loop.status)
    failed = attempted - loop.completed
    correct = all(s in ("ok", "over_budget") for s in loop.status)
    probes = loop.probes
    scales = loop.scales()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit_of(ROOT), "python": platform.python_version(),
        "nproc": os.cpu_count(), "budget_s": workload.budget_s,
        "commands_generated": len(commands), "attempted": attempted,
        "completed": loop.completed,
        "failures": dict(Counter(s for s in loop.status if s != "ok")),
        "ops_failed_share": {"failed": failed, "attempted": attempted,
                             "share": failed / attempted},
        "timed_s": loop.timed_s, "setup_s": setup_times,
        "probes": {"count": len(probes), "mean_s": statistics.mean(probes),
                   "reference_s": REFERENCE_PROBE_S,
                   "mean_scale": statistics.mean(scales) if scales else None},
        "digest": loop.digest(), "rejections": loop.rejections,
    }
    if tracer is None:
        record["measured"] = end_to_end(loop, workload.budget_s, statistics.median(setup_times),
                                        peak_rss_mb, [1.0] * attempted)
        values = end_to_end(loop, workload.budget_s, statistics.median(scaled_setup_times),
                            peak_rss_mb, scales)
        return record, correct, values

    tracer.uninstall()
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{args.workload}.csv.gz"
    tracer.write_spans(span_file)
    overhead = loop.trace_overhead()
    record["trace_overhead"] = dict(overhead, spans=len(tracer.sid),
                                    span_file=str(span_file.relative_to(ROOT)))
    return record, correct and overhead["outputs_differing"] == 0, tracer.metrics()


def declared_units(trace):
    """{metric name: unit} of the metrics BENCHMARK.json lists for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "graphck" / "cli.py").is_file():
        print(f"perfbench: no graphck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        record, correct, values = measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    units = declared_units(args.trace)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: no value for the metrics {missing} of BENCHMARK.json", file=sys.stderr)
        return 1
    attempted = record["attempted"]
    failed = attempted - record["completed"]

    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
