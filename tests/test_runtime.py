import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from genprog import random_program
from oracle_naive import naive_explore, naive_values
from cherrypi.parser import (parse_expression_text, parse_process_text,
                             parse_program, render_program)
from cherrypi.runtime import (DecisionOracle, ExploreError, OracleExhausted,
                              barbs, classify_state, enumerate_values,
                              evaluate, explore, guard_value, replay,
                              shadow_typecheck, simulate)
from cherrypi.multiparty import m_explore, to_multiparty
from cherrypi.syntax import ChanVar, canonicalize

k = ChanVar("k")


def E(src):
    return parse_expression_text(src)


def P(src, decls=None):
    return parse_process_text(src, decls)


# -- expressions and oracles ------------------------------------------------

def test_builtin_evaluation():
    assert evaluate(E("1 + 2")) == 3
    assert evaluate(E('"a" ++ "b"')) == "ab"
    assert evaluate(E("!(1 < 2) || true")) is True
    assert evaluate(E("1 == 2 && true")) is False


def test_enumerate_closed_expression_is_singleton():
    assert enumerate_values(E("1 + 1")) == [(2, ())]


def test_enumerate_branches_over_oracle_calls():
    prog = parse_program(
        'fun f(): str in {"x", "y"}\n'
        "request a(x). x!<f() ++ f()>. 0 | accept a(y). y?(v: str). 0")
    expr = prog.term.parts[0].body.expr
    vals = sorted(v for v, _ in enumerate_values(expr))
    assert vals == ["xx", "xy", "yx", "yy"]
    assert sorted(naive_values(expr)) == vals


def test_enumerate_needs_domains_for_non_bool():
    prog = parse_program(
        "fun f(): int\n"
        "request a(x). x!<f()>. 0 | accept a(y). y?(v: int). 0")
    expr = prog.term.parts[0].body.expr
    with pytest.raises(ExploreError):
        enumerate_values(expr)


def test_scripted_oracle_is_strict():
    o = DecisionOracle("scripted", script={"f": [True]})
    assert o.draw("f", "bool", None) is True
    with pytest.raises(OracleExhausted, match="call #2 of 'f'"):
        o.draw("f", "bool", None)


def test_seeded_oracle_is_reproducible():
    a = DecisionOracle("seeded-random", seed=7)
    b = DecisionOracle("seeded-random", seed=7)
    draws_a = [a.draw("f", "bool", None) for _ in range(20)]
    draws_b = [b.draw("f", "bool", None) for _ in range(20)]
    assert draws_a == draws_b


def test_constant_oracle_picks_first_domain_value():
    o = DecisionOracle()
    assert o.draw("g", "bool", None) is False
    assert o.draw("h", "str", ("x", "y")) == "x"


# -- barbs ------------------------------------------------------------------

def test_barbs_of_simple_prefixes():
    assert barbs(P("k?(x: int). 0")) == {("in", k, None)}
    assert barbs(P("0")) == frozenset()


def test_barbs_close_over_oracle_guards():
    p = P("if f() then k!<1>. 0 else roll",
          parse_program("fun f(): bool\nrequest a(x). 0 | accept a(y). 0")
          .decls | {})
    assert barbs(p) == {("out", k, None), ("roll",)}


def test_barbs_follow_deterministic_guards():
    assert barbs(P("if 1 == 1 then k!<1>. 0 else roll")) == \
        {("out", k, None)}
    assert barbs(P("if 1 == 2 then k!<1>. 0 else roll")) == {("roll",)}


def test_guard_value_distinguishes_oracle_dependence():
    assert guard_value(E("1 < 2")) is True
    prog = parse_program("fun f(): bool\n"
                         "request a(x). if f() then 0 else 0"
                         " | accept a(y). 0")
    cond = prog.term.parts[0].body.cond
    assert guard_value(cond) is None


def test_barbs_look_through_commits():
    assert barbs(P("commit. k<+ go. 0")) == {("sel", k, "go", None)}


# -- simulation -------------------------------------------------------------

VOD_B_ERROR_RUN = [
    "F-Con a:s1",
    'F-Com s1:p1 !"attack of the killer tomatoes"',
    "F-Com s1:p2 !3",
    "E-Cmt1 s1:p1 commit",
    'F-Com s1:p2 !"trailer"',
    "F-If s1:p1 then",
    "F-Lab s1:p1 +l_HD",
    "E-Cmt1 s1:p2 commit",
    'F-Com s1:p2 !"hd-part-1"',
    "F-If s1:p1 else",
    "E-Rll2 s1:p1 roll",
]


def test_vod_b_rolls_onto_an_imposed_checkpoint(programs):
    o = DecisionOracle("scripted", script={"f_eval": [True],
                                           "f_HD": [False]})
    t = simulate(programs["vod_b"], o, 60, mode="detect")
    assert t.status == "roll_error"
    assert [s.label() for s in t.steps] == VOD_B_ERROR_RUN


def test_vod_c_roll_restores_own_commit_and_completes(programs):
    o = DecisionOracle("scripted", script={"f_eval": [True, False],
                                           "f_HD": [False], "f_SD": [True]})
    t = simulate(programs["vod_c"], o, 60, mode="detect")
    assert t.status == "completed"
    labels = [s.label() for s in t.steps]
    assert "E-Rll1 s1:p1 roll" in labels
    assert "F-Lab s1:p1 +l_SD" in labels[labels.index("E-Rll1 s1:p1 roll"):]
    assert len(t.steps) == 17


def test_same_seed_same_trace(programs):
    t1 = simulate(programs["producer_consumer"],
                  DecisionOracle("seeded-random", seed=3), 40)
    t2 = simulate(programs["producer_consumer"],
                  DecisionOracle("seeded-random", seed=3), 40)
    assert t1.to_json() == t2.to_json()


def test_plain_mode_rolls_even_on_imposed_checkpoints(programs):
    # without detection the roll silently restores the imposed checkpoint
    # and the run continues — f_HD is consulted a second time
    o = DecisionOracle("scripted", script={"f_eval": [True],
                                           "f_HD": [False, True]})
    t = simulate(programs["vod_b"], o, 60, mode="plain")
    assert t.status == "completed"
    assert any(s.label() == "B-Rll s1:p1 roll" for s in t.steps)


def test_max_steps_cuts_off(programs):
    t = simulate(programs["producer_consumer"],
                 DecisionOracle("seeded-random", seed=0), 5)
    assert t.status == "cut-off" and len(t.steps) == 5


def test_communication_mismatch_is_detected():
    prog = parse_program(
        "request a(x). x!<1>. 0 | accept a(y). y!<2>. 0")
    rep = explore(prog, depth=3, mode="detect")
    assert not rep.ok
    kinds = {e.kind for e in rep.errors}
    assert kinds == {"com_error"}
    assert rep.errors[0].path[0] == "F-Con a:s1"


def test_stuck_differs_from_com_error_without_detection():
    prog = parse_program(
        "request a(x). x!<1>. 0 | accept a(y). y!<2>. 0")
    rep = explore(prog, depth=3, mode="plain")
    assert rep.errors == [] and len(rep.stuck) == 1


# -- exploration ------------------------------------------------------------

def test_vod_c_exploration_is_error_free(programs):
    rep = explore(programs["vod_c"], depth=40, mode="detect")
    assert (len(rep.states), rep.edges) == (19, 22)
    assert rep.ok and rep.completed == 1


def test_vod_b_exploration_finds_the_roll_error(programs):
    rep = explore(programs["vod_b"], depth=40, mode="detect")
    assert any(e.kind == "roll_error" for e in rep.errors)
    # the witness script replays to the recorded error
    bad = next(e for e in rep.errors if e.kind == "roll_error")
    o = DecisionOracle("scripted", script=bad.script)
    t = simulate(programs["vod_b"], o, len(bad.path) + 5, mode="detect")
    assert t.status == "roll_error"


def test_producer_consumer_exploration(programs):
    rep = explore(programs["producer_consumer"], depth=30, mode="detect")
    assert (len(rep.states), rep.edges) == (11, 13)
    assert rep.ok


@pytest.mark.parametrize("name,depth,nstates", [
    ("vod_b", 10, 18), ("vod_c", 10, 18), ("vod_d", 10, 30),
    ("producer_consumer", 8, 11), ("producer_consumer_commit", 8, 17),
])
def test_exploration_matches_naive_enumeration(programs, name, depth,
                                               nstates):
    rep = explore(programs[name], depth=depth, mode="plain")
    got = {canonicalize(s).text for s in rep.states}
    want = naive_explore(programs[name].term, depth)
    assert got == want
    assert len(got) == nstates


# two copies of the speculative producer/consumer protocol on two services:
# 11 states and 13 transitions per copy, so 11**2 states and 2 * 13 * 11
# transitions, whichever order the sessions connect in
_PC = """\
request b{t}(x).
  rec X.
  x!<f{t}_req()>.
  x>+{{ l_spec:
         x?(partial: str).
         x?(final: str).
         if f{t}_compare(partial, final) then roll else commit. X,
       l_nonSpec:
         x?(computed: str).
         commit. X }}
| accept b{t}(y).
  rec Y.
  y?(req: str).
  if f{t}_eval(req) then
    y<+ l_spec. y!<f{t}_partial()>. y!<f{t}_final()>. Y
  else
    y<+ l_nonSpec. y!<f{t}_compute()>. Y"""
_PC_DECLS = """\
fun f{t}_req(): str in {{ "job" }}
fun f{t}_eval(str): bool
fun f{t}_compare(str, str): bool
fun f{t}_partial(): str in {{ "draft" }}
fun f{t}_final(): str in {{ "full" }}
fun f{t}_compute(): str in {{ "exact" }}"""


def test_parallel_sessions_explore_to_the_product():
    tags = ("a", "b")
    prog = parse_program("\n".join(
        [_PC_DECLS.format(t=t) for t in tags] +
        ["\n| ".join(_PC.format(t=t) for t in tags)]))
    rep = explore(prog, depth=30)
    assert (len(rep.states), rep.edges) == (121, 286)
    # sessions connect in either order, so the same service runs as s1 on
    # one path and s2 on another; both orders must meet in one state
    got = {canonicalize(s).text for s in rep.states}
    assert got == naive_explore(prog.term, 30)
    mrep = m_explore(to_multiparty(prog), depth=30)
    assert (len(mrep.states), mrep.edges) == (121, 286)


# -- replay -----------------------------------------------------------------

def test_trace_files_are_self_contained(programs, tmp_path):
    o = DecisionOracle("scripted", script={"f_eval": [True],
                                           "f_HD": [False]})
    t = simulate(programs["vod_b"], o, 60, mode="detect")
    path = tmp_path / "t.json"
    path.write_text(json.dumps(t.to_json()))
    rep = replay(json.loads(path.read_text()))
    assert rep.ok, rep.divergence


def test_replay_notices_tampered_labels(programs):
    t = simulate(programs["vod_c"], DecisionOracle("seeded-random", seed=2),
                 60)
    j = t.to_json()
    j["steps"][1]["label"] = "F-Com s1:p1 !42"
    rep = replay(j)
    assert not rep.ok and "step 1" in rep.divergence


def test_replay_notices_tampered_states(programs):
    t = simulate(programs["vod_c"], DecisionOracle("seeded-random", seed=2),
                 60)
    j = t.to_json()
    j["steps"][2]["state"] = j["steps"][1]["state"]
    rep = replay(j)
    assert not rep.ok and "state mismatch" in rep.divergence


def test_replay_rejects_mismatched_program_override(programs):
    t = simulate(programs["vod_c"], DecisionOracle("seeded-random", seed=2),
                 60)
    rep = replay(t.to_json(), program=programs["vod_b"])
    assert not rep.ok and rep.divergence == "initial state differs"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["plain", "detect"]))
def test_generated_runs_always_replay(seed, mode):
    prog = random_program(random.Random(seed), safe=(seed % 2 == 0))
    t = simulate(prog, DecisionOracle("seeded-random", seed=seed), 50,
                 mode=mode)
    rep = replay(t.to_json())
    assert rep.ok, rep.divergence


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_generated_runs_round_trip_through_trace_files(seed):
    # a run of a safe program and of its two-role twin, in either error
    # mode, survives a trace file, replays, and shadow-typechecks
    prog = random_program(random.Random(seed), safe=True)
    for p in (prog, to_multiparty(prog)):
        for mode in ("plain", "detect"):
            t = simulate(p, DecisionOracle("seeded-random", seed=seed), 50,
                         mode=mode)
            data = json.loads(json.dumps(t.to_json()))
            rep = replay(data)
            assert rep.ok, (seed, p.multiparty, mode, rep.divergence)
            shadow = shadow_typecheck(p, t)
            assert shadow.ok, (seed, p.multiparty, mode, shadow.failures)


# -- shadow typechecking ----------------------------------------------------

def test_shadow_accepts_detect_runs_of_every_binary_program(programs):
    for name in ("vod_b", "vod_c", "vod_d", "producer_consumer",
                 "producer_consumer_commit"):
        for seed in range(10):
            t = simulate(programs[name],
                         DecisionOracle("seeded-random", seed=seed), 60,
                         mode="detect")
            rep = shadow_typecheck(programs[name], t)
            assert rep.ok, (name, seed, rep.failures)


def test_shadow_rejects_plain_rolls_over_imposed_checkpoints(programs):
    # exactly the violation the type discipline exists to rule out: in
    # plain mode an unsafe program can roll onto an imposed checkpoint
    hits = []
    for seed in range(20):
        t = simulate(programs["vod_b"],
                     DecisionOracle("seeded-random", seed=seed), 60,
                     mode="plain")
        rep = shadow_typecheck(programs["vod_b"], t)
        if not rep.ok:
            hits.append(rep.failures[0])
    assert hits
    assert all("imposed" in h for h in hits)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_shadow_accepts_generated_safe_programs(seed):
    prog = random_program(random.Random(seed), safe=True)
    for mode in ("plain", "detect"):
        t = simulate(prog, DecisionOracle("seeded-random", seed=seed), 50,
                     mode=mode)
        rep = shadow_typecheck(prog, t)
        assert rep.ok, (seed, mode, rep.failures)


# -- classification ---------------------------------------------------------

def test_classify_completed(programs):
    o = DecisionOracle("scripted", script={"f_eval": [False],
                                           "f_SD": [True]})
    t = simulate(programs["vod_c"], o, 60, mode="detect")
    assert t.status == "completed"
    assert classify_state(t.steps[-1].state, False) == "completed"
