"""The four workloads: how each pass's operations are built from a seed,
what one operation calls, and the reference each result is checked
against.

An operation calls the library functions a CLI subcommand calls (parse,
then the command, then `to_json`), through module attributes looked up at
call time, so the tracer's wrappers see every call.  A workload is a fixed
list of operation shapes drawn from `Random(workload)`; every pass runs
each shape once, with names tagged by seed and pass and in an order drawn
from the seed, so passes time the same work while sharing no name.
References never come from the code path under test: verdicts are known
by construction or read from the corpus's `verdicts.json`, counts come
from closed forms or from the naive enumerator in `tests/oracle_naive.py`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import gen

CORPUS_BINARY = ("vod_b", "vod_c", "vod_d", "producer_consumer",
                 "producer_consumer_commit")
CORPUS_SAFE = ("vod_c", "producer_consumer")  # plain-mode runs keep accord
RUN_STEPS = 100  # simulate step cap on run-replay
EXPLORE_DEPTH = 60  # exceeds the diameter of the 3-session product


@dataclass
class Result:
    """What one operation produced, reduced to what the reference checks."""
    verdict: object = None
    states: int = 0
    edges: int = 0
    error: str | None = None  # disagreement with the reference
    simulate_s: float = 0.0  # time in simulate, inside the timed call


@dataclass
class Op:
    name: str  # family and size, then the path
    run: Callable[[], object]  # the timed call
    summarize: Callable[[object], Result]  # never timed
    want: dict = field(default_factory=dict)  # expected verdict and counts
    key: int = 0  # the shape: the same in every pass
    group: str = ""  # ops whose verdict and counts must agree
    # computes more of `want` before the pass, never timed
    reference: Callable[[], dict] | None = None

    def check(self, out) -> Result:
        res = self.summarize(out)
        got = {"verdict": res.verdict, "states": res.states,
               "edges": res.edges}
        bad = [f"{k} {got[k]!r} != expected {v!r}"
               for k, v in self.want.items() if got[k] != v]
        res.error = res.error or "; ".join(bad) or None
        return res


def _check_summary(data: dict) -> Result:
    """Verdict and summed counts of a `check` report."""
    svcs = data["services"].values()
    edges = sum(s["edges"] for s in svcs)
    return Result(data["verdict"], sum(s["states"] for s in svcs), edges)


# -- operations ------------------------------------------------------------

def comply_op(C, name, left, right, want) -> Op:
    def run():
        return C.semantics.check_compliance(
            C.parser.parse_type(left), C.parser.parse_type(right)).to_json()

    def summarize(data):
        return Result(data["verdict"], data["states"], data["edges"])
    return Op(name, run, summarize, want)


def check_op(C, name, text, want, twin=False) -> Op:
    """`cherrypi check`; with `twin`, of the program's two-role
    transcription through the n-role checker."""
    def run():
        prog = C.parser.parse_program(text)
        if twin:
            prog = C.multiparty.to_multiparty(prog)
        if prog.multiparty:
            rep = C.multiparty.m_check_rollback_safety(prog.term)
        else:
            rep = C.semantics.check_rollback_safety(prog.term)
        return rep.to_json()

    return Op(name, run, _check_summary, want)


def run_op(C, name, text, seed, mode) -> Op:
    """`cherrypi run --trace` then `cherrypi replay`, with the binary runs
    shadow-typechecked in between."""
    def run():
        prog = C.parser.parse_program(text)
        oracle = C.runtime.DecisionOracle("seeded-random", seed=seed)
        go = C.multiparty.m_simulate if prog.multiparty \
            else C.runtime.simulate
        t0 = C.now()
        trace = go(prog, oracle, RUN_STEPS, mode=mode)
        simulate_s = C.now() - t0
        shadow = None if prog.multiparty \
            else C.runtime.shadow_typecheck(prog, trace)
        data = trace.to_json()
        return trace, shadow, data, C.runtime.replay(data), simulate_s

    def summarize(out):
        trace, shadow, data, rep, simulate_s = out
        n = len(trace.steps)
        distinct = {data["initial"]} | {s["state"] for s in data["steps"]}
        # transitions traversed: the steps simulated, then replayed
        res = Result(trace.status, len(distinct), 2 * n,
                     simulate_s=simulate_s)
        problems = []
        if not rep.ok:
            problems.append(f"replay diverged: {rep.divergence}")
        if shadow is not None and not shadow.ok:
            problems.append(f"shadow: {shadow.failures[0]}")
        if n == 0:
            problems.append("no step taken")
        res.error = "; ".join(problems) or None
        return res
    return Op(name, run, summarize)


def explore_op(C, name, text, twin, want) -> Op:
    def run():
        prog = C.parser.parse_program(text)
        if twin:
            prog = C.multiparty.to_multiparty(prog)
            rep = C.multiparty.m_explore(prog, EXPLORE_DEPTH)
        else:
            rep = C.runtime.explore(prog, EXPLORE_DEPTH)
        return rep.to_json()

    def summarize(data):
        bad = len(data["errors"]) + len(data["stuck"])
        return Result(bad == 0, data["states"], data["edges"])
    return Op(name, run, summarize, want)


# -- workloads --------------------------------------------------------------

def _corpus(C):
    root = C.cherrypi.corpus_dir()
    verdicts = json.loads((root / "verdicts.json").read_text())
    return root, verdicts


def _typed_ops(C, inp: gen.TypedInput) -> list:
    verdict = "compliant" if inp.compliant else "violating"
    safety = "rollback safe" if inp.compliant else "not rollback safe"
    counts = {"states": inp.states, "edges": inp.edges}
    ops = [comply_op(C, f"{inp.name}/comply", inp.left, inp.right,
                     {"verdict": verdict, **counts}),
           check_op(C, f"{inp.name}/check", inp.program,
                    {"verdict": safety, **counts}),
           check_op(C, f"{inp.name}/check-n-role", inp.program,
                    {"verdict": safety, **counts}, twin=True)]
    for op in ops[1:]:
        op.group = inp.name
    return ops


def check_large(C, rng: random.Random, tag: str) -> list:
    inputs = [gen.menu(rng, tag, n, n, False) for n in (4, 8, 16)]
    inputs += [gen.menu(rng, tag, n, n, True) for n in (4, 8)]
    inputs += [gen.chain(rng, tag, k, False, v)
               for k in (10, 40, 80, 160) for v in (False, True)]
    inputs += [gen.chain(rng, tag, k, True, v)
               for k in (10, 40) for v in (False, True)]
    return [op for inp in inputs for op in _typed_ops(C, inp)]


def depth_probes(C, tag: str) -> list:
    """Inputs past the recursion limit of the recursive walkers: run once,
    never timed, counted only in ok_ratio."""
    rng = random.Random("probes")
    deep = _typed_ops(C, gen.chain(rng, tag, 500, False, False))
    dense = _typed_ops(C, gen.chain(rng, tag, 200, True, False))
    return deep[:2] + dense[:1]


def check_many(C, rng: random.Random, tag: str) -> list:
    G = C.genprog
    ops = []
    for _ in range(100):
        prog = G.random_program(rng, safe=True)
        ops.append(check_op(C, "gen-safe/check", gen.rename(
            C.parser.render_program(prog), tag),
            {"verdict": "rollback safe"}))
    for _ in range(100):
        prog = G.random_program(rng, safe=False)
        op = check_op(C, "gen-unsafe/check", gen.rename(
            C.parser.render_program(prog), tag), {})
        op.reference = _naive_program_ref(C, prog)
        ops.append(op)
    for _ in range(100):
        a, b = G.random_type(rng, 8), G.random_type(rng, 8)
        op = comply_op(C, "random-types/comply",
                       gen.rename(C.sessiontypes.render_type(a), tag),
                       gen.rename(C.sessiontypes.render_type(b), tag), {})
        op.reference = _naive_types_ref(C, a, b)
        ops.append(op)
    root, verdicts = _corpus(C)
    for fname, v in verdicts["programs"].items():
        ops.append(check_op(C, f"corpus-{fname}/check",
                            gen.rename((root / fname).read_text(), tag),
                            {"verdict": v["verdict"]}))
    for pair in verdicts["type_pairs"]:
        left, right = ((root / pair[side]).read_text().strip()
                       for side in ("left", "right"))
        ops.append(comply_op(
            C, f"corpus-{pair['left']}-{pair['right']}/comply",
            gen.rename(left, tag), gen.rename(right, tag),
            {"verdict": pair["verdict"]}))
    return ops


def _naive_types_ref(C, a, b):
    def reference():
        states, ok = C.oracle_naive.naive_type_reach(a, b)
        return {"verdict": "compliant" if ok else "violating",
                "states": states}
    return reference


def _naive_program_ref(C, prog):
    """Reference for a generated program: the naive enumerator over the
    types inferred from the generated syntax tree (not from its text)."""
    def reference():
        (_, a, b), = C.infer.service_pairs(
            C.infer.infer_collaboration(prog.term))
        states, ok = C.oracle_naive.naive_type_reach(a, b)
        return {"verdict": "rollback safe" if ok else "not rollback safe",
                "states": states}
    return reference


def run_replay(C, rng: random.Random, tag: str) -> list:
    root, _ = _corpus(C)
    G = C.genprog

    def seed():
        return rng.randrange(2 ** 31)
    ops = []
    for name in CORPUS_BINARY:
        text = gen.rename((root / f"{name}.chpi").read_text(), tag)
        modes = ("detect", "plain") if name in CORPUS_SAFE else ("detect",)
        ops += [run_op(C, f"corpus-{name}/{m}", text, seed(), m)
                for m in modes]
    for k in (1, 2, 3):
        ops.append(run_op(C, f"kpar-{k}/detect", gen.kpar(tag, k), seed(),
                          "detect"))
    for n in range(2, 7):
        ops.append(run_op(C, f"ring-{n}/detect", gen.ring(rng, tag, n),
                          seed(), "detect"))
    for _ in range(12):
        text = C.parser.render_program(G.random_program(rng, safe=True))
        mode = rng.choice(("detect", "plain"))
        ops.append(run_op(C, f"gen-safe/{mode}", gen.rename(text, tag),
                          seed(), mode))
    return ops


def explore_par(C, rng: random.Random, tag: str) -> list:
    k = 3
    states, edges = gen.kpar_counts(k)
    want = {"verdict": True, "states": states, "edges": edges}
    text = gen.kpar(tag, k)
    ops = [explore_op(C, f"kpar-{k}/explore", text, False, want),
           explore_op(C, f"kpar-{k}/explore-n-role", text, True, want)]
    for op in ops:
        op.group = f"kpar-{k}"
    return ops


WORKLOADS = {
    "check-large": check_large,
    "check-many": check_many,
    "run-replay": run_replay,
    "explore-par": explore_par,
}


def build(C: SimpleNamespace, workload: str, seed: int, pass_no: int) \
        -> list:
    """The operations of one pass: every shape of the workload, named for
    this seed and pass, in an order drawn from them."""
    ops = WORKLOADS[workload](C, random.Random(workload),
                              f"s{seed}p{pass_no}")
    for key, op in enumerate(ops):
        op.key = key
    random.Random(f"{workload}:{seed}:{pass_no}").shuffle(ops)
    return ops
