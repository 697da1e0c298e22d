"""Spans around calls into cherrypi's public functions, recorded from
outside the package.

`Tracer.install` wraps every traced function and rebinds the wrapper in
every `cherrypi.*` module namespace that holds the original object (the
modules import each other's names with `from .x import y`), and on the
class for methods.  A span records its name, start, end, parent span,
operation id and, for some functions, a size taken from the result
(candidates built, steps taken, states and edges found).  Spans stay in
memory as flat arrays until `write` saves them; `layer_metrics` derives
every per-layer number from the spans inside operations (spans recorded
while a pass builds its inputs and references are saved but not counted).
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# layer -> traced functions, as "<function>" or "<Class>.<method>"
LAYERS = {
    "parser": ("parse_program", "parse_type", "render_program",
               "show_collaboration"),
    "syntax": ("canonicalize",),
    "sessiontypes": ("canonical_type", "head_normal_type"),
    "infer": ("infer_collaboration", "type_of_process"),
    "semantics": ("reachable_system", "config_transitions", "config_key"),
    "runtime": ("simulate", "reduction_steps", "DecisionOracle.clone",
                "explore", "replay", "shadow_typecheck", "Trace.to_json"),
    "multiparty": ("m_reachable_system", "m_config_key",
                   "m_config_transitions", "m_reduction_steps",
                   "m_simulate", "m_explore"),
}
# counted, not timed: a span per draw would cost more than the draw
COUNTED = {"runtime": ("DecisionOracle.draw",)}

OP_SPAN = "bench.op"
_REPEAT = "sessiontypes.canonical_type"
_STEPPERS = ("runtime.reduction_steps", "multiparty.m_reduction_steps")


def _graph_size(ts):
    return len(ts.states), len(ts.edges)


def _explore_size(rep):
    return len(rep.states), rep.edges


# result -> (a, b) recorded on the span
_SIZES = {
    "runtime.reduction_steps": lambda r: (len(r), 0),
    "multiparty.m_reduction_steps": lambda r: (len(r), 0),
    "runtime.simulate": lambda r: (len(r.steps), 0),
    "runtime.explore": _explore_size,
    "semantics.reachable_system": _graph_size,
    "multiparty.m_reachable_system": _graph_size,
}


def metric_names() -> list:
    """Every per-layer metric, in report order."""
    return list(Tracer().layer_metrics(0.0, 0.0))


def metric_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self, now=perf_counter):
        self.now = now  # span times: perf_counter, or a clock.Clock's now
        self.names: list = []
        self._ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.size_a = array("q")
        self.size_b = array("q")
        self.counts: dict = {}
        self._stack: list = []
        self._op = -1
        self._seen: set = set()  # canonical_type results in this op
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.size_a.append(0)
        self.size_b.append(0)
        self._stack.append(idx)
        return idx

    def span(self, full: str, fn):
        nid = self._id(full)
        size = _SIZES.get(full)
        repeat = full == _REPEAT
        now = self.now

        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if size is not None:
                self.size_a[idx], self.size_b[idx] = size(result)
            elif repeat:
                if result in self._seen:
                    self.size_a[idx] = 1
                else:
                    self._seen.add(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, full: str, fn):
        self.counts.setdefault(full, 0)

        def counted(*args, **kwargs):
            if self._op >= 0:
                self.counts[full] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def op_call(self, op_id: int, fn):
        """Run one benchmark operation under its own root span."""
        self._op = op_id
        self._seen = set()
        idx = self._open(self._id(OP_SPAN))
        t0 = self.now()
        try:
            return fn()
        finally:
            t1 = self.now()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
            self._op = -1

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        for layer, fns in LAYERS.items():
            for fn in fns:
                self._patch(layer, fn, self.span)
        for layer, fns in COUNTED.items():
            for fn in fns:
                self._patch(layer, fn, self.counter)

    def _patch(self, layer: str, fn: str, make) -> None:
        mod = sys.modules[f"cherrypi.{layer}"]
        full = f"{layer}.{fn}"
        if "." in fn:
            cls_name, meth = fn.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, make(full, orig))
            return
        orig = getattr(mod, fn)
        wrapper = make(full, orig)
        for name, m in list(sys.modules.items()):
            if m is None or not (name == "cherrypi"
                                 or name.startswith("cherrypi.")):
                continue
            for attr, val in list(vars(m).items()):
                if val is orig:
                    self._undo.append((m, attr, orig))
                    setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as flat columns in machine byte order after a one-line
        JSON header naming the columns, their type codes and the span
        names."""
        cols = ("start", "end", "name", "parent", "op", "size_a", "size_b")
        header = {"spans": len(self.start), "names": self.names,
                  "columns": [[c, getattr(self, c).typecode]
                              for c in cols],
                  "counts": self.counts}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for c in cols:
                getattr(self, c).tofile(fh)

    def layer_metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        sum_a = [0] * len(self.names)
        sum_b = [0] * len(self.names)
        for i in range(n):
            if self.op[i] < 0:
                continue  # building inputs or references, not an operation
            k = self.name[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
            sum_a[k] += self.size_a[i]
            sum_b[k] += self.size_b[i]

        def get(arr, full):
            k = self._ids.get(full)
            return arr[k] if k is not None else 0

        out: dict = {}
        for layer, fns in LAYERS.items():
            for fn in fns:
                full = f"{layer}.{fn}"
                out[f"{full}.calls"] = get(calls, full)
                out[f"{full}.self_s"] = get(self_s, full)
        for layer, fns in COUNTED.items():
            for fn in fns:
                out[f"{layer}.{fn}.calls"] = self.counts.get(
                    f"{layer}.{fn}", 0)

        def ratio(a, b):
            return a / b if b else 0.0

        out["sessiontypes.canonical_type.repeat_ratio"] = ratio(
            get(sum_a, _REPEAT), get(calls, _REPEAT))
        out["semantics.reachable_system.new_state_ratio"] = ratio(
            get(sum_a, "semantics.reachable_system"),
            get(sum_b, "semantics.reachable_system"))
        out["runtime.reduction_steps.candidates"] = sum(
            get(sum_a, s) for s in _STEPPERS)
        out["runtime.simulate.chosen_ratio"] = ratio(
            get(sum_a, "runtime.simulate"), self._candidates_under(
                "runtime.simulate"))
        out["runtime.explore.new_state_ratio"] = ratio(
            get(sum_a, "runtime.explore"), get(sum_b, "runtime.explore"))
        out["trace.overhead_ratio"] = ratio(traced_wall, untraced_wall)
        return out

    def _candidates_under(self, ancestor: str) -> int:
        """Candidates built by stepper spans that run inside `ancestor`."""
        anc = self._ids.get(ancestor)
        steppers = {self._ids[s] for s in _STEPPERS if s in self._ids}
        total = 0
        for i in range(len(self.start)):
            if self.name[i] not in steppers or self.op[i] < 0:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != anc:
                p = self.parent[p]
            if p >= 0:
                total += self.size_a[i]
        return total

    def shares(self, metrics: dict) -> dict:
        """Self time of each traced function as a share of all operation
        time, for the human-readable report."""
        op = self._ids.get(OP_SPAN)
        total = sum(self.end[i] - self.start[i]
                    for i in range(len(self.start)) if self.name[i] == op)
        return {k[:-len(".self_s")]: v / total
                for k, v in metrics.items() if k.endswith(".self_s") and total}
