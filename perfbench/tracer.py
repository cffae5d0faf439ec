"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the public functions of every graphck module
(and a few hot methods) with wrappers that record one span per call:
span id, parent span id, name, start, end and command id.  A function is
replaced under every module attribute that refers to it, so calls made
through `from .x import f` are traced too.  Spans are kept in compact
arrays while the run is going and turned into per-layer numbers (and
written out) only at the end.

A layer is a graphck module; a span's self time is its duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "exprs", "graphs", "intmat", "algebra", "afcore",
          "pairing", "cone", "ktheory", "render")

# Methods traced in addition to the public module-level functions.
METHODS = (("intmat", "IntMatrix", "det"),
           ("algebra", "CKElement", "normal_form"),
           ("algebra", "CKElement", "__mul__"))

# to_jsonable recurses once per node of a report; its cost stays in
# render_report's self time instead of adding a span per node.
SKIP = {"render.to_jsonable"}

# Function-level metrics: metric prefix -> traced span names.
GROUPS = {
    "intmat.snf": ("intmat.smith_normal_form",),
    "intmat.det": ("intmat.IntMatrix.det",),
    "graphs.enumerate": ("graphs.enumerate_paths",),
    "graphs.validate": ("graphs.validate_graph",),
    "graphs.parse": ("graphs.parse_graph",),
    "algebra.normal_form": ("algebra.CKElement.normal_form",),
    "algebra.mul": ("algebra.CKElement.__mul__",),
    "algebra.is_equal": ("algebra.is_equal",),
    "afcore.class_eval": ("afcore.class_of_projection",
                          "afcore.class_of_graded_projection"),
    "afcore.k0f_equal": ("afcore.k0f_equal",),
    "pairing.pairing": ("pairing.pairing",),
    "pairing.admissibility": ("pairing.check_admissible",),
    "cone.cone_equal": ("cone.cone_equal",),
    "cone.ev_star": ("cone.ev_star",),
    "cone.mapping_cone": ("cone.mapping_cone_k_groups",),
    "ktheory.graph_k_theory": ("ktheory.graph_k_theory",),
    "ktheory.exactness_report": ("ktheory.exactness_report",),
    "exprs.parse": ("exprs.parse_element",),
    "render.render": ("render.render_report",),
    "cli.run_command": ("cli.run_command",),
}

class Tracer:
    """Span recorder for the graphck modules; one instance per run."""

    def __init__(self):
        self.on = False
        self.cmd = -1
        self.names = []
        self._name_ids = {}
        self._next_sid = 0
        self._stack = []        # open span ids, innermost last
        self._open_names = []   # name id of each open span
        # finished spans, one entry per array
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.cmd_of = array("i")
        self.interrupted = {}   # layer -> commands cut while innermost
        self.snf_inputs = set()
        self.max_transform_bits = 0
        self.paths_enumerated = 0
        self.words_expanded = 0
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Put the wrappers in place, under every attribute that holds a
        traced callable; the wrappers are built on the first call."""
        if not self._patches:
            self._patches = self._build()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        """Restore the original callables."""
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _build(self):
        """(owner, attribute, original, wrapper) for every traced attribute."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "graphck" or key.startswith("graphck."))]
        targets = {}  # original callable -> span name
        for layer in LAYERS:
            mod = sys.modules[f"graphck.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    targets[obj] = name
        observers = {"intmat.smith_normal_form": self._observe_snf,
                     "graphs.enumerate_paths": self._observe_paths,
                     "algebra.CKElement.normal_form": self._observe_normal_form}
        wrappers = {fn: self._wrap(fn, name, observers.get(name))
                    for fn, name in targets.items()}
        patches = [(mod, attr, obj, wrappers[obj])
                   for mod in modules for attr, obj in vars(mod).items()
                   if inspect.isfunction(obj) and obj in wrappers]
        for layer, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"graphck.{layer}"], cls_name)
            original = cls.__dict__[attr]
            name = f"{layer}.{cls_name}.{attr}"
            patches.append((cls, attr, original, self._wrap(original, name, observers.get(name))))
        return patches

    def _wrap(self, fn, name, observe):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            sid = tracer._next_sid
            tracer._next_sid = sid + 1
            stack.append(sid)
            tracer._open_names.append(name_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._open_names.pop()
                tracer._record(sid, parent, name_id, t0, t1)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _record(self, sid, parent, name_id, t0, t1):
        self.sid.append(sid)
        self.parent.append(parent)
        self.name.append(name_id)
        self.start.append(t0)
        self.end.append(t1)
        self.cmd_of.append(self.cmd)

    # -- counters ----------------------------------------------------------

    def _observe_snf(self, args, kwargs, result):
        matrix = args[0] if args else kwargs["M"]
        self.snf_inputs.add(matrix.entries)
        bits = max((abs(x).bit_length() for t in (result.U, result.V)
                    for row in t.entries for x in row), default=0)
        self.max_transform_bits = max(self.max_transform_bits, bits)

    def _observe_paths(self, args, kwargs, result):
        self.paths_enumerated += len(result)

    def _observe_normal_form(self, args, kwargs, result):
        self.words_expanded += len(result.terms)

    # -- command boundaries --------------------------------------------------

    def begin_command(self, cmd_id):
        self.cmd = cmd_id
        self.on = True

    def end_command(self):
        """Stop recording; repair the span arrays after an interruption.

        The budget exception can land inside a wrapper's bookkeeping, which
        leaves the open-span stack non-empty or the arrays of unequal
        length.  The partial record is dropped.
        """
        self.on = False
        self._stack.clear()
        self._open_names.clear()
        arrays = (self.sid, self.parent, self.name, self.start, self.end, self.cmd_of)
        keep = min(len(a) for a in arrays)
        for a in arrays:
            del a[keep:]

    def note_interrupt(self):
        """Charge a budget interrupt to the layer of the innermost open span."""
        layer = self.names[self._open_names[-1]].split(".", 1)[0] if self._open_names else "bench"
        self.interrupted[layer] = self.interrupted.get(layer, 0) + 1

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, self seconds)."""
        dur = array("d", bytes(8 * self._next_sid))
        child = array("d", bytes(8 * self._next_sid))
        for sid, start, end in zip(self.sid, self.start, self.end):
            dur[sid] = end - start
        for sid, parent in zip(self.sid, self.parent):
            if parent >= 0:
                child[parent] += dur[sid]
        out = {}
        for sid, name_id in zip(self.sid, self.name):
            calls, self_s = out.get(name_id, (0, 0.0))
            out[name_id] = (calls + 1, self_s + dur[sid] - child[sid])
        return {self.names[k]: v for k, v in out.items()}

    def metrics(self):
        """Every per-layer metric value, by name."""
        per_name = self.self_times()
        values = {}
        for layer in LAYERS:
            rows = [v for k, v in per_name.items() if k.split(".", 1)[0] == layer]
            values[f"{layer}.calls"] = sum(c for c, _ in rows)
            values[f"{layer}.self_s"] = sum(s for _, s in rows)
            values[f"{layer}.interrupted"] = self.interrupted.get(layer, 0)
        for prefix, names in GROUPS.items():
            rows = [per_name.get(n, (0, 0.0)) for n in names]
            values[f"{prefix}_calls"] = sum(c for c, _ in rows)
            values[f"{prefix}_self_s"] = sum(s for _, s in rows)
        snf_calls = values["intmat.snf_calls"]
        values["intmat.snf_reuse_ratio"] = (len(self.snf_inputs) / snf_calls) if snf_calls else 0.0
        values["intmat.max_transform_bits"] = self.max_transform_bits
        values["graphs.paths_enumerated"] = self.paths_enumerated
        values["algebra.words_expanded"] = self.words_expanded
        return values

    def write_spans(self, path):
        """All spans as gzip'd CSV: span, parent, name, start_s, end_s, command."""
        origin = min(self.start, default=0.0)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span,parent,name,start_s,end_s,command\n")
            for row in zip(self.sid, self.parent, self.name, self.start, self.end, self.cmd_of):
                sid, parent, name_id, start, end, cmd = row
                fh.write(f"{sid},{parent},{self.names[name_id]},"
                         f"{start - origin:.9f},{end - origin:.9f},{cmd}\n")
