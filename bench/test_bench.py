"""The benchmark's own checks.

    python3 -m pytest -q bench/test_bench.py

They run one full pass of every workload several times (about two minutes
on a 2-core machine): a pass with one seed must repeat its counts exactly,
tracing must change no verdict or count, a second seed must pass every
reference check, every pass must hold the same shapes, and the
closed-form counts in gen.py must agree with the naive enumerator of
tests/oracle_naive.py.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"),
                str(HERE.parent / "tests")]

import clock  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def C():
    return run.modules()


def one_pass(C, workload, seed, traced=False):
    """Per-operation outcomes of pass 0, and the tracer's per-layer
    numbers when traced."""
    ops = workloads.build(C, workload, seed, 0)
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        records = run.run_ops(ops, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    outcomes = [(r.name, r.failure, r.result and (
        r.result.verdict, r.result.states, r.result.edges))
        for r in records]
    layers = tracer.layer_metrics(1.0, 1.0) if tracer else None
    return outcomes, layers


def _counts(layers: dict) -> dict:
    """The per-layer numbers that must repeat exactly: counts, not times
    or ratios of times."""
    return {k: v for k, v in layers.items()
            if k.endswith((".calls", ".candidates", "new_state_ratio",
                           "chosen_ratio", "repeat_ratio"))}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_counts_and_tracing_changes_nothing(C, workload):
    plain, _ = one_pass(C, workload, 1)
    traced_a, layers_a = one_pass(C, workload, 1, traced=True)
    traced_b, layers_b = one_pass(C, workload, 1, traced=True)
    assert all(failure is None for _, failure, _ in plain), plain
    assert traced_a == plain
    assert traced_b == plain
    assert _counts(layers_a) == _counts(layers_b)
    assert sum(v for k, v in layers_a.items() if k.endswith(".calls")) > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_passes_every_reference(C, workload):
    outcomes, _ = one_pass(C, workload, 2)
    assert [o for o in outcomes if o[1] is not None] == []


def test_depth_probes_fail_only_by_recursion(C):
    for rec in run.run_ops(workloads.depth_probes(C, "probe")):
        assert rec.failure is None or (
            rec.result is None and "RecursionError" in rec.failure), rec


def test_passes_time_the_same_shapes_under_new_names(C):
    for workload in WORKLOADS:
        a = workloads.build(C, workload, 1, 0)
        b = workloads.build(C, workload, 1, 1)
        assert sorted((op.key, op.name) for op in a) == \
            sorted((op.key, op.name) for op in b)
    text = gen.rename("fun f1(): bool fun f_eval(): bool x<+ l2a. t3", "p")
    assert text == "fun f1_p(): bool fun f_eval_p(): bool x<+ l2a_p. t3_p"


def test_no_explore_oracle_clones(C):
    _, layers = one_pass(C, "explore-par", 1, traced=True)
    assert layers["runtime.DecisionOracle.clone.calls"] == 0
    assert layers["syntax.canonicalize.calls"] > 0


def _typed_inputs():
    rng = random.Random(0)
    yield from (gen.menu(rng, "t", n, n, v) for n in (4, 8) for v in (0, 1))
    yield gen.menu(rng, "t", 16, 16, False)
    yield from (gen.chain(rng, "t", k, d, v) for k in (10, 40, 80, 160)
                for d in (False, True) for v in (False, True)
                if not (d and k > 40))


def naive_type_edges(N, t1, t2) -> tuple:
    """Configurations and transitions of init(t1, t2), counted with the
    naive successor function and key of tests/oracle_naive.py: every
    successor of every reachable configuration is one transition."""
    init = ((t1, False), (t2, False), t1, t2, (t1, t2))
    seen = {N._nkey(init)}
    work, edges = [init], 0
    while work:
        for succ in N._nsucc(work.pop()):
            edges += 1
            key = N._nkey(succ)
            if key not in seen:
                seen.add(key)
                work.append(succ)
    return len(seen), edges


@pytest.mark.parametrize("inp", list(_typed_inputs()), ids=lambda i: i.name)
def test_closed_forms_match_naive_enumerator(C, inp):
    left = C.parser.parse_type(inp.left)
    right = C.parser.parse_type(inp.right)
    states, compliant = C.oracle_naive.naive_type_reach(left, right)
    assert (states, compliant) == (inp.states, inp.compliant)
    assert naive_type_edges(C.oracle_naive, left, right) == \
        (inp.states, inp.edges)


@pytest.mark.parametrize("k", (1, 2))
def test_kpar_counts_match_naive_enumerator(C, k):
    prog = C.parser.parse_program(gen.kpar("t", k))
    seen = C.oracle_naive.naive_explore(prog.term, workloads.EXPLORE_DEPTH)
    assert len(seen) == gen.kpar_counts(k)[0]


def test_ring_is_rollback_safe(C):
    for n in range(2, 7):
        prog = C.parser.parse_program(gen.ring(random.Random(n), "t", n))
        assert C.multiparty.m_check_rollback_safety(prog.term).safe


def test_pass_count_is_fixed_by_workload_and_seconds():
    assert run.passes_for("check-many", 12) == round(
        12 / run.PASS_SECONDS["check-many"])
    assert run.passes_for("explore-par", 1) == 1


def test_a_shape_failing_once_fails_in_ok_ratio():
    def rec(key, seconds, failure=None):
        return run.Record("op", key, seconds, workloads.Result(), failure)
    tally = run.Tally([[rec(0, 1.0), rec(1, 2.0)],
                       [rec(0, 3.0), rec(1, 2.0, "wrong verdict")]])
    shapes = tally.per_shape()
    assert shapes[0].seconds == 2.0 and shapes[1] is None
    metrics = run.end_to_end(tally, [0.1], [rec(2, 0.0, "RecursionError")])
    assert metrics["ok_ratio"] == 1 / 3
    assert metrics["wall_s"] == 2.0


def test_clock_counts_work_not_pauses():
    clk = clock.Clock()
    clk.start()
    t0 = clk.now()
    for _ in range(40):
        clock.calibrate()
    busy = clk.now() - t0
    clk.stop()
    still = clk.now()
    assert clk.now() == still
    # 40 calibrations at full speed take 40 * NOMINAL reference seconds
    assert 10 * clock.NOMINAL < busy < 160 * clock.NOMINAL


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == \
        list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert sorted(w["name"] for w in spec["workloads"]) == WORKLOADS
