"""cherrypi benchmark: one workload, in one process on one thread.

    python3 bench/run.py --workload check-large --seed 1 --seconds 14 --trace 0

Imports cherrypi from `src/` and the generators and naive reference
enumerator from `tests/` of the checkout that holds this file.  Prints a
human-readable report, then one JSON line: every end-to-end metric with
`--trace 0`, every per-layer metric with `--trace 1`.  See bench/README.md
for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import clock
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MODULES = ("cherrypi", "cherrypi.syntax", "cherrypi.sessiontypes",
           "cherrypi.parser", "cherrypi.infer", "cherrypi.semantics",
           "cherrypi.runtime", "cherrypi.multiparty", "cherrypi.cli",
           "genprog", "oracle_naive")
END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_ms.p50": "ms",
    "op_ms.p90": "ms", "states_per_s": "1/s", "edges_per_s": "1/s",
    "peak_rss_mb": "MB", "ok_ratio": "ratio",
}
# reference seconds of one pass at this benchmark's first commit: the
# number of passes is fixed from it, so a faster program gets no more
# samples than a slower one
PASS_SECONDS = {"check-large": 4.8, "check-many": 0.53, "run-replay": 3.0,
                "explore-par": 8.3}


def modules() -> SimpleNamespace:
    """cherrypi's modules and the test helpers, by their last name, and
    `now`, the clock an operation times its inner phases with."""
    return SimpleNamespace(now=perf_counter, **{
        name.split(".")[-1]: importlib.import_module(name)
        for name in MODULES})


def load() -> SimpleNamespace:
    """Import cherrypi and the test helpers afresh, dropping any earlier
    import, so that every set-up pays for the import."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("cherrypi", "genprog", "oracle_naive"):
            del sys.modules[name]
    return modules()


@dataclass
class Record:
    name: str
    key: int  # the operation's shape
    seconds: float  # reference seconds, see clock.py
    result: workloads.Result | None  # None when the operation raised
    failure: str | None = None  # exception or reference mismatch


def run_ops(ops: list, now=perf_counter,
            tracer: tracing.Tracer | None = None,
            refs: dict | None = None) -> list:
    """Time each operation with `now`, then check it and its group against
    the references.  Only the operation itself is inside the timed
    interval.  `refs` keeps computed references by shape across passes."""
    refs = {} if refs is None else refs
    for op in ops:
        if op.reference is not None:
            if op.key not in refs:
                refs[op.key] = op.reference()
            op.want.update(refs[op.key])
    # Every operation starts from a collected heap, as in a fresh CLI
    # process: the collector's work inside it is then its own, not debt
    # left by the operations before it.  Freezing the benchmark's own
    # objects keeps those collections short.
    gc.collect()
    gc.freeze()
    records = []
    for i, op in enumerate(ops):
        gc.collect()
        t0 = now()
        try:
            out = tracer.op_call(i, op.run) if tracer else op.run()
        except Exception as ex:  # a crash is a failed operation
            records.append(Record(op.name, op.key, now() - t0, None,
                                  f"{type(ex).__name__}: {ex}"[:300]))
            continue
        dt = now() - t0
        res = op.check(out)
        records.append(Record(op.name, op.key, dt, res, res.error))
    gc.unfreeze()
    groups: dict = {}
    for op, rec in zip(ops, records):
        if op.group and rec.result is not None:
            groups.setdefault(op.group, []).append(rec)
    for recs in groups.values():
        seen = {(r.result.verdict, r.result.states, r.result.edges)
                for r in recs}
        if len(seen) > 1:
            for r in recs:
                r.failure = r.failure or f"paths disagree: {sorted(seen)}"
    return records


@dataclass
class Tally:
    passes: list = field(default_factory=list)  # list of record lists
    refs: dict = field(default_factory=dict)  # references by shape

    @property
    def records(self) -> list:
        return [r for recs in self.passes for r in recs]

    @property
    def failed(self) -> list:
        return [r for r in self.records if r.failure is not None]

    def per_shape(self) -> list:
        """For every shape, its median time over the passes and its last
        result, or None if any run of it failed."""
        runs: dict = {}
        for r in self.records:
            runs.setdefault(r.key, []).append(r)
        out = []
        for key in sorted(runs):
            rs = runs[key]
            if any(r.failure is not None for r in rs):
                out.append(None)
            else:
                out.append(Record(rs[-1].name, key, statistics.median(
                    r.seconds for r in rs), rs[-1].result))
        return out


def passes_for(workload: str, seconds: float) -> int:
    """A fixed number of passes: about `seconds` of work at the baseline's
    speed, never a number the measured speed decides."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


def timed_passes(C, workload: str, seed: int, first_ops: list | None,
                 pass_no: int, passes: int, tally: Tally, now,
                 tracer=None) -> int:
    """Run `passes` passes; returns the next pass number."""
    ops = first_ops
    for _ in range(passes):
        if ops is None:
            ops = workloads.build(C, workload, seed, pass_no)
        tally.passes.append(run_ops(ops, now, tracer, tally.refs))
        pass_no += 1
        ops = None
    return pass_no


def percentile(xs: list, q: float) -> float:
    """Linear interpolation between closest ranks; failed operations are
    infinitely slow."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    if pos == lo or xs[hi] == xs[lo]:
        return xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def time_metrics(tally: Tally) -> dict:
    """Time and rate metrics of one pass made of every shape's median
    run; rates count successful shapes' work per second of their time.
    Percentiles are over every run of every pass, a failed run counting as
    infinitely slow."""
    shapes = tally.per_shape()
    ok = [r for r in shapes if r is not None]
    busy = sum(r.seconds for r in ok)
    times = [math.inf if r.failure else r.seconds for r in tally.records]

    def rate(n):
        return n / busy if busy else 0.0
    return {
        "wall_s": busy,
        "ops_per_s": rate(len(ok)),
        "op_ms.p50": 1e3 * percentile(times, 0.5),
        "op_ms.p90": 1e3 * percentile(times, 0.9),
        "states_per_s": rate(sum(r.result.states for r in ok)),
        "edges_per_s": rate(sum(r.result.edges for r in ok)),
    }


def end_to_end(tally: Tally, setups: list, probes: list) -> dict:
    """Setup: median of the set-ups.  Times and rates: per-shape medians.
    Memory: peak of the process.  ok_ratio: over shapes and depth probes,
    a shape counting as failed if any of its runs failed."""
    shapes = tally.per_shape() + probes
    succeeded = sum(r is not None and r.failure is None for r in shapes)
    out = {"setup_s": statistics.median(setups)}
    out.update(time_metrics(tally))
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    out["ok_ratio"] = succeeded / len(shapes)
    return out


def breakdown(records: list) -> list:
    """Per operation name: count, median ms and states/s, for the report."""
    by: dict = {}
    for r in records:
        if r.failure is None:
            by.setdefault(r.name, []).append(r)
    rows = []
    for name in sorted(by):
        rs = by[name]
        t = sum(r.seconds for r in rs)
        st = sum(r.result.states for r in rs)
        rows.append((name, len(rs), 1e3 * statistics.median(
            r.seconds for r in rs), st / t if t else 0.0))
    return rows


def report(workload: str, seed: int, tally: Tally, probes: list,
           metrics: dict, units: dict, shares: dict | None) -> None:
    print(f"workload {workload}, seed {seed}: {len(tally.passes)} passes, "
          f"{len(tally.records)} operations, {len(tally.failed)} failed")
    for r in tally.failed[:5]:
        print(f"  FAILED {r.name}: {r.failure}")
    for r in probes:
        print(f"  depth probe {r.name}: {r.failure or 'ok'}")
    print(f"  {'operation':<34} {'n':>5} {'p50 ms':>10} {'states/s':>10}")
    for name, n, ms, sps in breakdown(tally.records):
        print(f"  {name:<34} {n:>5} {ms:>10.2f} {sps:>10.0f}")
    runs = [r.result for r in tally.records
            if r.failure is None and r.result.simulate_s]
    if runs:
        steps = sum(r.edges // 2 for r in runs)
        ms = 1e3 * sum(r.simulate_s for r in runs) / steps
        print(f"  simulate: {ms:.3f} ms/step over {steps} steps")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    if shares:
        print("  share of traced operation time (self):")
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            if share >= 0.005:
                print(f"    {name:<44} {100 * share:6.1f}%")


def main(argv: list | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    clk = clock.Clock()
    clk.start()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = clk.now()
        C = load()
        first = workloads.build(C, args.workload, args.seed, 0)
        setups.append(clk.now() - t0)
    C.now = clk.now

    tally = Tally()
    passes = passes_for(args.workload, args.seconds)
    if args.trace:  # half untraced, for trace.overhead_ratio; half traced
        passes = max(1, (passes + 1) // 2)
    pass_no = timed_passes(C, args.workload, args.seed, first, 0, passes,
                           tally, clk.now)
    clk.stop()
    probes = []
    if args.workload == "check-large":
        probes = run_ops(workloads.depth_probes(C, f"s{args.seed}probe"))
    traced = Tally(refs=tally.refs)
    shares = None
    if args.trace:
        tracer = tracing.Tracer(clk.now)
        tracer.install()
        clk.start()
        timed_passes(C, args.workload, args.seed, None, pass_no, passes,
                     traced, clk.now, tracer)
        clk.stop()
        tracer.uninstall()
        tracer.write(ROOT / ".bench_out" /
                     f"spans-{args.workload}-seed{args.seed}.bin")
        metrics = tracer.layer_metrics(time_metrics(traced)["wall_s"],
                                       time_metrics(tally)["wall_s"])
        units = {name: tracing.metric_unit(name) for name in metrics}
        shares = tracer.shares(metrics)
    else:
        metrics = end_to_end(tally, setups, probes)
        units = END_TO_END
    report(args.workload, args.seed, tally, probes, metrics, units, shares)
    wrong = [r for r in probes if r.result is not None and r.failure]
    failed = len(tally.failed) + len(traced.failed)
    print(json.dumps({
        "correct": not failed and not wrong,
        "attempted": len(tally.records) + len(traced.records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
