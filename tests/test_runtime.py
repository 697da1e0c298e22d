import copy
import gc
import hashlib
import json
import random
import re
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from genprog import random_program
from oracle_naive import (forced_steps, naive_barbs, naive_explore,
                          naive_explore_report, naive_render, naive_show,
                          naive_values)
from scale_explore import _PC, _PC_DECLS, _kpar
from cherrypi.infer import TypingError
from conftest import parse_expression_text, parse_process_text
from cherrypi.parser import (ParseError, SourceProgram, parse_program,
                             show_collaboration)
from cherrypi.runtime import (DecisionOracle, ExploreError, MalformedInput,
                              OracleExhausted, barbs, classify_state,
                              enumerate_values, evaluate, explore, guard_value,
                              reduction_steps, replay, ReplayReport,
                              shadow_typecheck, simulate)
from cherrypi import infer, parser, runtime, shadow, syntax
from cherrypi.multiparty import m_explore, to_multiparty
from cherrypi.semantics import (BudgetExceeded, check_compliance,
                                check_rollback_safety)
from cherrypi.syntax import (ChanVar, ErrorState, Inact, Log, MalformedTerm,
                             Session, canonicalize,
                             par_parts, process_key, subprocesses, term_key,
                             unfold_recursion)

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


@pytest.mark.parametrize("text, message", [
    ('1 + "a"', "operator 'add' expects ('int', 'int'), got ('int', 'str')"),
    ("!5", "operator 'not' expects ('bool',), got ('int',)"),
    ('"a" < 3', "operator 'lt' expects ('int', 'int'), got ('str', 'int')"),
    ("1 == true", "'==' needs two operands of one sort, got ['int', 'bool']"),
])
def test_ill_sorted_operands_are_refused_as_typing_refuses_them(text,
                                                                message):
    # typing, evaluation and enumeration share one rule and its message
    with pytest.raises(TypingError, match=re.escape(message)):
        infer.sort_of_expression(E(text), {})
    for evaluator in (evaluate, enumerate_values):
        with pytest.raises(MalformedTerm, match=re.escape(message)):
            evaluator(E(text))


def test_a_guard_that_is_not_a_bool_is_refused():
    message = "conditional guard has sort int, needs bool"
    with pytest.raises(MalformedTerm, match=message):
        guard_value(E("5"))
    with pytest.raises(MalformedTerm, match=message):
        barbs(P("if 5 then 0 else roll"))


def test_an_evaluation_refuses_what_typing_refuses():
    # a call needs an oracle to draw from, and no variable has a value
    with pytest.raises(MalformedTerm, match="call of 'f' needs a decision "
                       "oracle"):
        evaluate(parse_expression_text(
            "f()", {"f": parser.FunDecl("f", (), "bool", None)}))
    for evaluator in (evaluate, enumerate_values):
        with pytest.raises(MalformedTerm,
                           match="unbound variable 'v' in evaluation"):
            evaluator(syntax.Var("v"))


def test_unknown_modes_are_refused():
    with pytest.raises(ValueError, match="unknown oracle mode 'bogus'"):
        DecisionOracle("bogus")
    state = parse_program("request a(x). 0 | accept a(y). 0").term
    with pytest.raises(ValueError, match="unknown error mode 'bogus'"):
        reduction_steps(state, "bogus")


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
    o = DecisionOracle("scripted", script={"f": [True], "g": [2, 7],
                                           "h": ["z"]})
    assert o.draw("f", "bool", None) is True
    with pytest.raises(OracleExhausted, match="call #2 of 'f'"):
        o.draw("f", "bool", None)
    # a value of the right sort outside a declared domain is refused
    assert o.draw("g", "int", (1, 2)) == 2
    with pytest.raises(OracleExhausted, match=r"oracle produced 7 for 'g', "
                       r"which is not in its domain \[1, 2\]"):
        o.draw("g", "int", (1, 2))
    with pytest.raises(OracleExhausted, match="not in its domain"):
        o.draw("h", "str", ("x", "y"))
    assert o.transcript == [("f", True), ("g", 2)]


@pytest.mark.parametrize("value", [1.5, None, [1]],
                         ids=["float", "null", "list"])
def test_values_of_no_sort_are_refused_where_they_are_read(programs, value):
    # not deep inside a draw, as a literal of unknown sort
    with pytest.raises(MalformedInput) as ex:
        DecisionOracle("scripted", script={"f": [True], "g": [0, value]})
    assert str(ex.value) == ("a decision script value for 'g' is not a "
                             f"bool, int or str: {value!r}")
    t = simulate(programs["vod_c"], DecisionOracle("seeded-random", seed=2),
                 60)
    j = t.to_json()
    fn = j["oracle"]["transcript"][-1][0]
    j["oracle"]["transcript"][-1][1] = value
    with pytest.raises(MalformedInput) as ex:
        replay(j)
    assert str(ex.value) == (
        f"malformed trace: the transcript value for {fn!r} is not a bool, "
        f"int or str: {value!r}")


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


def _draws_of_steps(program, trace, mode="plain") -> list:
    """The draws each step of `trace` made, found among the built steps
    (`forced_steps`): the assumed draws of the one outcome with the step's
    rule and label."""
    out = []
    state = program.term
    for s in trace.steps:
        (c,) = [c for c in forced_steps(state, mode)
                if (c.rule, c.text) == (s.rule, s.text)]
        out.append(c.choices)
        state = s.successor
    return out


def _ring(n, sort):
    """n-role token ring: role n sends a drawn token around and commits or
    rolls the round on a drawn verdict."""
    lines = [f"fun tok(): {sort}", f"fun ok({sort}): bool",
             f"request a[{n}](x). rec X. x!<tok()>@1. x?(t: {sort})@{n - 1}."
             f" if ok(t) then commit. X else roll"]
    for r in range(1, n):
        src = n if r == 1 else r - 1
        lines.append(f"| accept a[{r}](y). rec Y. y?(t: {sort})@{src}."
                     f" y!<t>@{r + 1}. Y")
    return parse_program("\n".join(lines))


def _nested_rec(rng):
    """A `rec` inside a `rec` whose variable occurs twice: unfolding the
    outer one gives a fresh inner node that stands at both places."""
    pre = [rng.choice(["", "commit. "]) for _ in range(3)]
    last = rng.choice(["Z", "roll", "abort"])
    return parse_program(
        "fun g(): bool\nfun h(): bool\n"
        f"request a(x). rec X. {pre[0]}rec Y. x!<1>. "
        f"x>+{{ a: Y, b: {pre[1]}Y, c: {pre[2]}X }}\n"
        "| accept a(y). rec Z. y?(v: int). if g() then y<+ a. Z "
        f"else if h() then y<+ b. Z else y<+ c. {last}")


def test_simulate_leaves_the_callers_oracle_alone(programs):
    caller = DecisionOracle("seeded-random", seed=4)
    t = simulate(programs["vod_c"], caller, 60, mode="detect")
    assert t.oracle.transcript and t.oracle is not caller
    assert caller.transcript == []
    # the caller's generator did not move either
    assert caller.draw("f", "int", None) == \
        DecisionOracle("seeded-random", seed=4).draw("f", "int", None)


def test_trace_transcript_holds_only_the_draws_of_the_steps_taken():
    # every round opens with both parties on a drawn conditional
    prog = parse_program(
        "fun f(): bool\nfun g(): int in { 1, 2 }\n"
        "request a(x). rec X. if f() then x!<g()>. X else x!<g()>. X"
        " | accept a(y). rec Y. if f() then y?(v: int). Y"
        " else y?(v: int). Y")
    t = simulate(prog, DecisionOracle("seeded-random", seed=5), 40)
    # rival steps that would draw were on offer along the way
    assert any(sum(c.expr is not None and runtime._undecided(c.expr)
                   for c in reduction_steps(s.successor)) > 1 for s in t.steps)
    want = [d for ch in _draws_of_steps(prog, t) for d in ch]
    assert t.oracle.transcript == want


def test_simulate_clones_the_oracle_once(programs, monkeypatch):
    calls = []
    clone = DecisionOracle.clone

    def counting(self):
        calls.append(self)
        return clone(self)
    monkeypatch.setattr(DecisionOracle, "clone", counting)
    for prog in (programs["vod_c"], _kpar(2)):
        calls.clear()
        t = simulate(prog, DecisionOracle("seeded-random", seed=1), 80,
                     mode="detect")
        assert len(t.steps) > 10 and len(calls) == 1


def test_a_clone_draws_what_its_original_draws():
    # the twin's generator is built from a constant seed and then given
    # the original's state, so the two go on drawing the same values
    oracle = DecisionOracle("seeded-random", seed=7)
    calls = [("f", "bool", None), ("g", "int", None), ("h", "str", None),
             ("k", "int", (3, 5, 8))] * 8
    for call in calls[:5]:
        oracle.draw(*call)
    twin = oracle.clone()
    assert [twin.draw(*c) for c in calls] == [oracle.draw(*c) for c in calls]
    assert twin.transcript == oracle.transcript
    assert twin.rng is not oracle.rng


def test_an_unfunded_rival_step_does_not_stop_a_scripted_run():
    # both parties start on a conditional; the script funds only the
    # first, which is the step taken: the rival's call is never made
    prog = parse_program(
        "fun f(): bool\nfun g(): bool\n"
        "request a(x). if f() then 0 else 0"
        " | accept a(y). if g() then 0 else 0")
    t = simulate(prog, DecisionOracle("scripted", {"f": [True]}), 2)
    assert [s.label() for s in t.steps] == ["F-Con a:s1", "F-If s1:p1 then"]
    assert t.status == "cut-off" and t.oracle.transcript == [("f", True)]
    # once the rival is the step taken, the missing value is an error again
    with pytest.raises(OracleExhausted, match="call #1 of 'g'") as ex:
        simulate(prog, DecisionOracle("scripted", {"f": [True]}), 3)
    assert len(ex.value.steps) == 2


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["plain", "detect"]))
def test_a_drawing_candidate_is_alone_in_its_session_party_and_rule(seed,
                                                                   mode):
    # the order of lazy candidates never needs a drawn value: a step that
    # draws shares (session, party, rule) with no other
    rng = random.Random(seed)
    prog = random_program(rng, safe=(seed % 2 == 0))
    ring = _ring(2 + seed % 5, rng.choice(["bool", "int", "str"]))
    states = []
    for p in (prog, to_multiparty(prog), ring):
        t = simulate(p, DecisionOracle("seeded-random", seed=seed), 40,
                     mode=mode)
        states += [p.term] + [s.successor for s in t.steps]
    # a run of parallel sessions keeps to s1: take every state near the
    # start instead, where up to three sessions are open side by side
    states += explore(_kpar(1 + seed % 3), depth=8, mode=mode).states
    for state in states:
        cands = reduction_steps(state, mode)
        for c in cands:
            if c.expr is None or not runtime._undecided(c.expr):
                continue  # draws nothing
            assert [d.sort_key()[:3] for d in cands].count(
                c.sort_key()[:3]) == 1


def _connecting_runs():
    """Runs of kpar k = 3, its n-role twin and the ring n = 4, seeded, in
    both modes, each made when it is drawn: (program, mode, trace)."""
    kpar = _kpar(3)
    for prog in (kpar, to_multiparty(kpar), _ring(4, "bool")):
        for mode in ("plain", "detect"):
            yield prog, mode, simulate(
                prog, DecisionOracle("seeded-random", seed=2), 80, mode=mode)


def test_a_run_opens_only_the_sessions_it_connects(monkeypatch):
    opened = []
    real_open = runtime._open

    def counting(parts, sname):
        opened.append(sname)
        return real_open(parts, sname)
    monkeypatch.setattr(runtime, "_open", counting)
    for _, mode, t in _connecting_runs():
        connects = [s for s in t.steps
                    if s.rule.removeprefix("M-") == "F-Con"]
        assert connects and len(opened) == len(connects)
        opened.clear()
        assert replay(t.to_json(), mode).ok
        assert len(opened) == len(connects)
        opened.clear()


# two-party programs whose runs meet rival steps that draw nothing: a
# partner's commit, an abort, a detected communication error
_RIVALS = (
    "request a(x). commit. x<+ l. roll"
    " | accept a(y). commit. y>+{l: commit. abort}",
    "request a(x). commit. roll | accept a(y). abort",
    "request a(x). commit. 0 | accept a(y). y?(v: int). 0",
)


def _detect_runs(programs):
    """Seeded detect-mode runs of kpar k = 3, the ring n = 4, vod_b,
    producer_consumer_commit and the `_RIVALS`, each made when it is drawn:
    (program, trace)."""
    progs = [_kpar(3), _ring(4, "bool"), programs["vod_b"],
             programs["producer_consumer_commit"]]
    for prog in progs + [parse_program(src) for src in _RIVALS]:
        for seed in range(4):
            yield prog, simulate(prog, DecisionOracle("seeded-random",
                                                      seed=seed),
                                 80, mode="detect")


def test_a_run_builds_only_the_steps_it_takes(programs, monkeypatch):
    # commits, label exchanges, rolls, aborts and errors are built when a
    # run takes them, like evaluating steps and connections, and each once
    # per distinct (state key, value drawn): the label of a state's step
    # tells its values apart
    built = []
    for name in ("_place", "_connect"):
        def counting(*args, _build=getattr(runtime, name)):
            built.append(args)
            return _build(*args)
        monkeypatch.setattr(runtime, name, counting)
    rivals = set()
    looping = 0
    for prog, t in _detect_runs(programs):
        befores = [prog.term] + [s.successor for s in t.steps[:-1]]
        distinct = {(runtime._state_key(b), s.label())
                    for b, s in zip(befores, t.steps)}
        assert len(built) == len(distinct) > 0
        if len(par_parts(prog.term)) > 2:  # kpar and the ring loop
            looping += 1
            assert len(built) < len(t.steps)
        for s in t.steps:
            rivals |= {c.rule
                       for c in reduction_steps(s.successor, "detect")[1:]
                       if c.expr is None and c.party}
        built.clear()
    assert looping
    # steps that draw nothing were on offer and not taken
    assert {"E-Cmt1", "E-Cmt2", "B-Abt", "E-Com2"} <= rivals


def _explored_steps(prog, mode, state):
    """The built steps of `state` (`forced_steps`), checked to be the edges
    `explore` takes out of it: one way to build a step, where only a roll or
    an abort goes backward and a step that draws nothing is labelled before
    it is built."""
    for c in reduction_steps(state, mode):
        assert c.successor is None and (
            c.expr is not None or c.outcome(None)[0] == c.text)
    want = forced_steps(state, mode)
    rep = explore(SourceProgram(prog.decls, state, prog.multiparty),
                  depth=1, mode=mode)
    assert [(c.rule, c.text, c.backward, term_key(rep.states[dst]))
            for src, dst, c in rep.system.edges
            if src == 0] == [(c.rule, c.text, c.backward,
                              term_key(c.successor)) for c in want]
    for c in want:
        assert c.backward == (c.rule.removeprefix("M-")
                              in ("B-Rll", "E-Rll1", "B-Abt"))
    return want


def test_exactly_rolls_and_aborts_go_backward(programs):
    backward = set()
    for prog in programs.values():
        for mode in ("plain", "detect"):
            for _, _, c in explore(prog, depth=12, mode=mode).system.edges:
                rule = c.rule.removeprefix("M-")
                assert c.backward == (rule in ("B-Rll", "E-Rll1", "B-Abt"))
                if c.backward:
                    backward.add(rule)
    assert backward == {"B-Rll", "E-Rll1", "B-Abt"}


def _distinct_states(states):
    """`states` without a repeated object, in order."""
    met = set()
    for state in states:
        if id(state) not in met:
            met.add(id(state))
            yield state


def test_a_connection_taken_builds_the_exhaustive_successor():
    # a connection is labelled before it is built; taken, it is the step
    # `explore` builds with the same sort key
    runs = []
    for prog, mode, t in _connecting_runs():
        runs.append((prog, mode, [prog.term] + [s.successor for s in t.steps]))
    # a run of parallel sessions keeps to s1: take the states near the
    # start, where up to three sessions are open side by side
    kpar = _kpar(3)
    runs += [(kpar, mode, explore(kpar, depth=8, mode=mode).states)
             for mode in ("plain", "detect")]
    checked = 0
    for prog, mode, states in runs:
        for state in _distinct_states(states):
            full = {c.sort_key(): c.successor
                    for c in _explored_steps(prog, mode, state)
                    if c.party == 0}
            for c in reduction_steps(state, mode):
                if c.party != 0:
                    continue
                assert c.rule.removeprefix("M-") == "F-Con"
                taken = _take(c, DecisionOracle())
                assert taken.sort_key() == c.sort_key()
                assert term_key(taken.successor) == \
                    term_key(full[c.sort_key()])
                checked += 1
    assert checked > 20


def test_a_session_step_taken_builds_the_exhaustive_successor(programs):
    # the rule, label and order of a session step that draws nothing are
    # known before it is built, E-Cmt1 / E-Cmt2 included; taken, it is the
    # step `explore` builds with the same sort key
    seen = set()
    for prog, t in _detect_runs(programs):
        states = [prog.term] + [s.successor for s in t.steps]
        for state in _distinct_states(states):
            full = {c.sort_key(): c
                    for c in _explored_steps(prog, "detect", state)}
            for c in reduction_steps(state, "detect"):
                if c.expr is not None or c.party == 0:
                    continue
                taken = _take(c, DecisionOracle())
                want = full[c.sort_key()]
                assert taken.sort_key() == c.sort_key()
                assert taken.backward == want.backward
                assert term_key(taken.successor) == term_key(want.successor)
                seen.add(c.rule.removeprefix("M-"))
    assert {"F-Lab", "E-Cmt1", "E-Cmt2", "E-Rll1", "E-Rll2", "B-Abt",
            "E-Com2"} <= seen


def _fresh(x):
    """`x` rebuilt node by node from new objects, which carry none of the
    attributes that renderers and keys keep on a node."""
    fields = getattr(type(x), "__match_args__", None)  # a record's fields
    if fields is not None:
        return type(x)(*(_fresh(getattr(x, f)) for f in fields))
    if isinstance(x, tuple):
        return tuple(_fresh(e) for e in x)
    return x


def _logs(state):
    return [lg for it in par_parts(state) if isinstance(it, Session)
            for lg in par_parts(it.body) if isinstance(lg, Log)]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["plain", "detect"]))
def test_kept_texts_render_as_fresh_terms(seed, mode):
    rng = random.Random(seed)
    prog = random_program(rng, safe=True)
    programs = (prog, to_multiparty(prog),
                _ring(2 + seed % 5, rng.choice(["bool", "int", "str"])),
                _kpar(1 + seed % 3))
    reused = 0
    for p in programs:
        t = simulate(p, DecisionOracle("seeded-random", seed=seed), 40,
                     mode=mode)
        for state in [p.term] + [s.successor for s in t.steps]:
            # logs a step left alone carry the text an earlier state kept
            reused += any("_shown" in lg.__dict__ for lg in _logs(state))
            assert show_collaboration(state) == \
                show_collaboration(_fresh(state))
    assert reused


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_states_render_and_barb_as_the_references(seed):
    # placed texts and the identity barbs walk against the plain forms,
    # over safe and unsafe programs, their twins, rings and nested recs, in
    # both modes
    rng = random.Random(seed)
    prog = random_program(rng, safe=seed % 2 == 0)
    programs = (prog, to_multiparty(prog),
                _ring(2 + seed % 5, rng.choice(["bool", "int", "str"])),
                _nested_rec(rng))
    for p in programs:
        for mode in ("plain", "detect"):
            t = simulate(p, DecisionOracle("seeded-random", seed=seed), 40,
                         mode=mode)
            for state in [p.term] + [s.successor for s in t.steps]:
                assert show_collaboration(state) == naive_show(state)
                for it in par_parts(state):
                    if not isinstance(it, Session):
                        continue
                    logs = par_parts(it.body)
                    tagged = any(p.role is not None
                                 for p in par_parts(it.saved))
                    roles = [lg.endpoint.role for lg in logs
                             if isinstance(lg, Log) and tagged]
                    for lg in logs:
                        if not isinstance(lg, Log):
                            continue
                        for observer in (None, *roles):
                            assert barbs(lg.current, observer) == \
                                naive_barbs(lg.current, observer)


def test_a_node_met_twice_in_one_render_renders_twice():
    # after the first send the requester's log holds
    # `x>+{ a: Y', b: Y', c: X }` with `Y'` a fresh unfolding, reached
    # twice by the render that places it
    prog = parse_program(
        "request a(x). rec X. rec Y. x!<1>. x>+{a: Y, b: Y, c: X}\n"
        "| accept a(y). rec Z. y?(v: int). y<+ a. Z")
    for mode in ("plain", "detect"):
        t = simulate(prog, DecisionOracle("seeded-random", seed=1), 12,
                     mode=mode)
        assert len(t.steps) == 12
        for state in [prog.term] + [s.successor for s in t.steps]:
            assert show_collaboration(state) == naive_show(state)
        assert replay(t.to_json(), mode).ok
    unfolded = unfold_recursion(P("rec Y. x!<1>. x>+{ a: Y, b: Y }"))
    (_, a), (_, b) = unfolded.cont.arms
    assert a is b
    assert parser.render_process(unfolded) == naive_render(unfolded)


def _subterms(p) -> list:
    out = [p]
    for q in subprocesses(p):
        out += _subterms(q)
    return out


def test_a_rendered_process_renders_its_subterms_without_a_walk(
        monkeypatch):
    # a step's continuation, branch arm or conditional branch is a subterm
    # of the process rendered before it: its text is a slice
    body = parse_process_text(
        "rec X. x!<1>. x?(v: int). if v == 1 then x<+ l. commit. X "
        "else x>+{ a: roll, b: y!<v>. abort, c: 0 }")
    assert parser.render_process(body) == naive_render(body)
    walked = []

    def counting(pr, out, place, _emit=parser._emit):
        walked.append(pr)
        _emit(pr, out, place)

    monkeypatch.setattr(parser, "_emit", counting)
    subterms = _subterms(body)
    assert len(subterms) == 12
    for q in subterms:
        assert parser.render_process(q) == naive_render(q)
    assert walked == []


def test_the_shadow_retypes_each_distinct_process_once(corpus, monkeypatch):
    # parsed afresh: no node keeps a type from an earlier test yet
    prog = parse_program((corpus / "producer_consumer.chpi").read_text())
    t = simulate(prog, DecisionOracle("seeded-random", seed=5), 100)
    assert len(t.steps) == 100
    retyped, walked = [], []

    def counting(p, ep, _retype=shadow.type_of_process):
        retyped.append(p)
        return _retype(p, ep)

    def walking(p, chan, own, penv, venv, _type_of=infer._type_of):
        # a walk below a retype that `_ty` does not answer; a leaf's type
        # is not kept, it costs a table lookup
        if retyped and (penv or chan not in p.__dict__.get("_ty", {})) \
                and p.__match_args__:
            walked.append(id(p))
        return _type_of(p, chan, own, penv, venv)

    monkeypatch.setattr(shadow, "type_of_process", counting)
    monkeypatch.setattr(infer, "_type_of", walking)
    assert shadow_typecheck(prog, t).ok
    asked = [(q, lg.endpoint) for s in t.steps for lg in _logs(s.successor)
             for q in (lg.current, lg.ckpt.process)]
    # a repeated step is checked once: the run's distinct steps retype
    # their logs' processes, not each of its 100 steps
    steps = {id(s): s for s in t.steps}.values()
    assert len(retyped) <= 2 * sum(len(_logs(s.successor)) for s in steps) \
        < len(asked)
    # and a process keeps its type on the node: no node is walked twice
    assert walked and len(walked) == len(set(walked))
    # the protocol's rounds bring back processes as new objects
    distinct = {(process_key(q), ep) for q, ep in asked}
    assert len({(id(q), ep) for q, ep in asked}) > len(distinct)


def test_a_commit_keys_each_unchanged_log_once(monkeypatch):
    # role 3 sits on its commit while roles 1 and 2 exchange forever: one
    # exchange brings the session back to where it began, so the run
    # steps two distinct states and weighs the commit at one of them,
    # asking once whether each other log differs from its checkpoint
    prog = parse_program(
        "request a[4](x). x?(v: int)@3. 0\n"
        "| accept a[1](y). rec Y. y!<1>@2. Y\n"
        "| accept a[2](z). rec Z. z?(v: int)@1. Z\n"
        "| accept a[3](w). commit. w!<1>@4. 0")
    asked, walks, stepped = [], [], []
    inside = [0]

    def asking(lg, _differs=runtime._log_ckpt_differs):
        asked.append(lg)
        return _differs(lg)

    def walking(t, env, depth, _key=syntax._key):
        if not inside[0]:  # a walk starts here, not in its recursion
            walks.append(t)
        inside[0] += 1
        try:
            return _key(t, env, depth)
        finally:
            inside[0] -= 1

    def stepping(state, mode, _steps=runtime.reduction_steps):
        stepped.append(state)
        return _steps(state, mode)

    monkeypatch.setattr(runtime, "_log_ckpt_differs", asking)
    monkeypatch.setattr(syntax, "_key", walking)
    monkeypatch.setattr(runtime, "reduction_steps", stepping)
    for mode in ("plain", "detect"):
        t = simulate(prog, DecisionOracle(), 100, mode=mode)
        assert len(t.steps) == 100 and len(stepped) == 2
        assert len(asked) == len({id(lg) for lg in asked}) == 3
        # each process a commit asks about is walked once, when first keyed
        asked_about = {id(q) for lg in asked
                       for q in (lg.ckpt.process, lg.current)}
        assert len([w for w in walks if id(w) in asked_about]) <= \
            len(asked_about)
        asked.clear()
        walks.clear()
        stepped.clear()


def test_a_looping_receive_comes_back_to_the_same_steps(monkeypatch):
    # a one-value domain echoed back each round: the step memo hands the
    # recorded successors back, so no round after the first substitutes,
    # and each distinct state key is stepped once
    prog = parse_program(
        "fun f(): int in { 1 }\n"
        "request a(x). rec X. x!<f()>. x?(u: int). X\n"
        "| accept a(y). rec Y. y?(v: int). y!<v>. Y")
    stepped, substituted = [], []

    def stepping(state, mode, _steps=runtime.reduction_steps):
        stepped.append(state)
        return _steps(state, mode)

    def substituting(*args, _subst=runtime.substitute):
        substituted.append(args)
        return _subst(*args)

    monkeypatch.setattr(runtime, "reduction_steps", stepping)
    monkeypatch.setattr(runtime, "substitute", substituting)
    for p in (prog, to_multiparty(prog)):
        for mode in ("plain", "detect"):
            simulate(p, DecisionOracle("seeded-random", seed=0), 9,
                     mode=mode)
            subs = len(substituted)
            t = simulate(p, DecisionOracle("seeded-random", seed=0), 41,
                         mode=mode)
            assert len(substituted) == 2 * subs
            befores = [p.term] + [s.successor for s in t.steps[:-1]]
            keys = {runtime._state_key(b) for b in befores}
            # each run steps the request, the open session, and the
            # session after a send
            assert len(stepped) == 2 * len(keys) == 6
            # connect, then two echoing steps over and over
            assert all(t.steps[k] is t.steps[k + 2] for k in range(1, 39))
            assert t.steps[1] is not t.steps[2]
            assert t.oracle.transcript == [("f", 1)] * 20
            stepped.clear()
            substituted.clear()


def _chain(k):
    sends = "".join(f"x!<{i}>. " for i in range(k))
    recvs = "".join(f"y?(v{i}: int). " for i in range(k))
    return parse_program(f"request a(x). {sends}0 | accept a(y). {recvs}0")


def _run_peak() -> int:
    """tracemalloc peak of a 200-step run of a depth-300 chain, written as
    a trace and replayed."""
    prog = _chain(300)
    tracemalloc.start()
    try:
        t = simulate(prog, DecisionOracle(), 200)
        assert len(t.steps) == 200 and replay(t.to_json()).ok
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_placed_texts_hold_no_more_than_whole_kept_texts(monkeypatch):
    placed = _run_peak()

    def kept_whole(p):
        # the plain renderer, its whole text kept on the processes that
        # logs and endpoints hold
        text = p.__dict__.get("_shown")
        if text is None:
            text = naive_render(p)
            object.__setattr__(p, "_shown", text)
        return text

    monkeypatch.setattr(parser, "render_process", kept_whole)
    assert placed <= 1.10 * _run_peak()


def test_max_steps_cuts_off(programs):
    t = simulate(programs["producer_consumer"],
                 DecisionOracle("seeded-random", seed=0), 5)
    assert t.status == "cut-off" and len(t.steps) == 5


def test_communication_mismatch_is_detected():
    prog = parse_program(
        "request a(x). x!<1>. 0 | accept a(y). y!<2>. 0")
    rep = explore(prog, depth=3, mode="detect")
    assert not rep.ok
    errors = rep.to_json()["errors"]
    assert {e["kind"] for e in errors} == {"com_error"}
    assert errors[0]["path"][0] == "F-Con a:s1"


def test_stuck_differs_from_com_error_without_detection():
    prog = parse_program(
        "request a(x). x!<1>. 0 | accept a(y). y!<2>. 0")
    rep = explore(prog, depth=3, mode="plain")
    assert rep.errors == [] and len(rep.stuck) == 1


# -- the step memo of a run -------------------------------------------------

def _take(c, oracle):
    """Lazy candidate `c` built, its expression evaluated against
    `oracle`, which records the draws: what a memo-free run does with the
    step it takes."""
    text, succ = c.outcome(None if c.expr is None
                           else evaluate(c.expr, oracle))
    return runtime.Candidate(c.rule, c.session, c.party, text, succ)


def _memo_free_run(program, oracle, max_steps, mode):
    """`simulate` without its step memo: every state is stepped afresh,
    taking the first candidate of `reduction_steps`."""
    oracle = oracle.clone()
    state = program.term
    steps, status = [], "cut-off"
    for _ in range(max_steps):
        cands = reduction_steps(state, mode)
        if not cands:
            status = classify_state(par_parts(state), False)
            break
        try:
            c = _take(cands[0], oracle)
        except OracleExhausted as ex:
            ex.steps = steps
            raise
        state = c.successor
        steps.append(c)
        kind = classify_state(par_parts(state), True)
        if kind in ("roll_error", "com_error"):
            status = kind
            break
    return runtime.Trace(program, steps, status, oracle)


def _run_summary(t) -> tuple:
    return ([s.label() for s in t.steps],
            [show_collaboration(s.successor) for s in t.steps], t.status,
            t.oracle.transcript)


def _reference_run(program, oracle, max_steps, mode):
    """The memo-free run of a freshly parsed copy of `program`: labels,
    state texts, status and transcript."""
    return _run_summary(_memo_free_run(
        parse_program(parser.render_program(program)), oracle, max_steps,
        mode))


def _memo_run(program, oracle, max_steps, mode):
    return _run_summary(simulate(program, oracle, max_steps, mode))


def _memo_programs(programs):
    """The corpus, kpar k <= 3, rings n = 2..6 over bool and int tokens,
    and safe and unsafe generated programs, each binary one with its
    two-role twin."""
    progs = list(programs.values()) + [_kpar(k) for k in (1, 2, 3)]
    rng = random.Random(21)
    progs += [random_program(rng, safe=k % 2 == 0) for k in range(16)]
    progs += [to_multiparty(p) for p in progs if not p.multiparty]
    return progs + [_ring(n, sort) for n in range(2, 7)
                    for sort in ("bool", "int")]


@pytest.mark.parametrize("mode", ["plain", "detect"])
def test_a_memoised_run_is_the_memo_free_run(programs, mode):
    loops = 0
    for prog in _memo_programs(programs):
        for seed in (0, 1, 5):
            oracle = DecisionOracle("seeded-random", seed=seed)
            got = _memo_run(prog, oracle, 100, mode)
            assert got == _reference_run(prog, oracle, 100, mode)
            loops += len(set(got[1])) < len(got[1])
    assert loops > 50  # most runs meet a state again


@pytest.mark.parametrize("mode", ["plain", "detect"])
def test_a_memoised_shadow_is_the_memo_free_shadow(programs, mode):
    # a step met again replays the configuration it led to and the
    # failures it added; with every step record a copy, no step object
    # repeats, so each step is checked afresh
    repeats, imposed = 0, set()
    for prog in _memo_programs(programs):
        for seed in (0, 1, 5):
            t = simulate(prog, DecisionOracle("seeded-random", seed=seed),
                         100, mode)
            copied = runtime.Trace(t.program, [copy.copy(s) for s in t.steps],
                                   t.status, t.oracle)
            assert len({id(s) for s in copied.steps}) == len(t.steps)
            want = shadow_typecheck(prog, copied).failures
            got = shadow_typecheck(prog, t).failures
            assert got == want, (parser.render_program(prog), seed)
            repeats += len({id(s) for s in t.steps}) < len(t.steps)
            if any("imposed" in f for f in got):
                imposed.add(parser.render_program(prog))
    assert repeats > 50  # most runs repeat a step
    if mode == "plain":  # vod_b and its twin roll onto imposed checkpoints
        vod_b = programs["vod_b"]
        assert {parser.render_program(vod_b),
                parser.render_program(to_multiparty(vod_b))} <= imposed


def test_states_that_differ_only_in_an_imposed_flag_stay_apart():
    # p2 commits and sends; p1's commit then pins p2 back onto the
    # processes the session opened with, now imposed: the same process
    # objects under another flag, which the key must tell apart
    prog = parse_program(
        "fun g(): bool\n"
        "request a(x). rec X. x?(v: int). if v == 1 then commit. X else X"
        "\n| accept a(y). rec Y. if g() then commit. y!<1>. Y"
        " else y!<2>. Y")
    for seed in range(4):
        oracle = DecisionOracle("seeded-random", seed=seed)
        got = _memo_run(prog, oracle, 60, "detect")
        assert got == _reference_run(prog, oracle, 60, "detect")
        texts = set(got[1])
        assert any(x.replace("^imp", "") in texts for x in texts
                   if "^imp" in x)


def test_an_oracle_running_out_inside_a_loop_stops_both_runs_alike():
    prog = parse_program(
        "fun f(): bool\nfun g(): int in { 1, 2 }\n"
        "request a(x). rec X. if f() then x!<g()>. X else x!<1>. X"
        " | accept a(y). rec Y. y?(v: int). if v == 1 then Y else Y")
    oracle = DecisionOracle("scripted", {"f": [True, False, True, True],
                                         "g": [1, 2, 1]})
    with pytest.raises(OracleExhausted, match="call #5 of 'f'") as memo:
        simulate(prog, oracle, 100)
    with pytest.raises(OracleExhausted, match="call #5 of 'f'") as ref:
        _memo_free_run(prog, oracle, 100, "plain")
    labels = [s.label() for s in memo.value.steps]
    assert labels == [s.label() for s in ref.value.steps]
    assert len(labels) > 10
    assert len({id(s.successor) for s in memo.value.steps}) < len(labels)


def test_alpha_variant_states_keep_their_own_texts():
    # the two arms receive into `u` and into `w`: states that differ only
    # by that name are alpha-variants, and each keeps its own text
    prog = parse_program(
        "fun f(): bool\n"
        "request a(x). rec X. x!<1>. X"
        " | accept a(y). rec Y. if f() then y?(u: int). Y"
        " else y?(w: int). Y")
    oracle = DecisionOracle("seeded-random", seed=3)
    t = simulate(prog, oracle, 60)
    texts = [show_collaboration(s.successor) for s in t.steps]
    assert any("y?(u: int)" in x for x in texts)
    assert any("y?(w: int)" in x for x in texts)
    assert texts == [naive_show(s.successor) for s in t.steps]
    assert _memo_run(prog, oracle, 60, "plain") == \
        _reference_run(prog, oracle, 60, "plain")
    assert replay(t.to_json()).ok


def _looping_trace(programs):
    t = simulate(programs["producer_consumer"],
                 DecisionOracle("seeded-random", seed=2), 60)
    data = t.to_json()
    texts = [s["state"] for s in data["steps"]]
    # a late step whose state the run met before
    k = max(i for i, x in enumerate(texts) if x in texts[:i])
    assert k > 30
    return data, k


def test_replay_checks_a_late_recurring_state(programs):
    data, k = _looping_trace(programs)
    texts = [s["state"] for s in data["steps"]]
    data["steps"][k]["state"] = next(x for x in texts if x != texts[k])
    label = data["steps"][k]["label"]
    assert replay(data) == ReplayReport(
        f"step {k}: state mismatch after {label!r}")


def test_replay_checks_a_late_recurring_label(programs):
    data, k = _looping_trace(programs)
    label = data["steps"][k]["label"]
    data["steps"][k]["label"] = label + "x"
    assert replay(data) == ReplayReport(
        f"step {k}: label {label!r} != {label + 'x'!r}")


def _text_run_peak(run) -> int:
    """tracemalloc peak of a text-mode `run` (no state rendered) over a
    freshly parsed 480-message chain, in a fresh thread, so the test
    runner's own frames do not count against the parser's depth."""
    peak = []

    def body():
        prog = _chain(480)
        tracemalloc.start()
        try:
            t = run(prog, DecisionOracle(), 2000, "plain")
            assert t.status == "completed" and len(t.steps) == 481
            peak.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=body)
    thread.start()
    thread.join()
    assert peak, "the chain run failed"
    return peak[0]


def test_the_step_memo_keeps_a_chain_run_small():
    # a chain never meets a state again: the memo's entries cost at most
    # as much again as the memo-free run's trace
    assert _text_run_peak(simulate) <= 2 * _text_run_peak(_memo_free_run)


# -- exploration ------------------------------------------------------------

def test_vod_c_exploration_is_error_free(programs):
    rep = explore(programs["vod_c"], depth=40, mode="detect")
    assert (len(rep.states), rep.edges) == (19, 22)
    assert rep.ok and rep.completed == 1


def test_vod_b_exploration_finds_the_roll_error(programs):
    rep = explore(programs["vod_b"], depth=40, mode="detect")
    errors = rep.to_json()["errors"]
    assert any(e["kind"] == "roll_error" for e in errors)
    # the witness script replays to the recorded error
    bad = next(e for e in errors if e["kind"] == "roll_error")
    o = DecisionOracle("scripted", script=bad["script"])
    t = simulate(programs["vod_b"], o, len(bad["path"]) + 5, mode="detect")
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


def _naive_report(program, depth, mode):
    """The reference report, whose error and stuck entries must be the
    paths and scripts its states carried along."""
    rep, entries = naive_explore_report(program, depth=depth, mode=mode)
    data = rep.to_json()
    assert data["errors"] + data["stuck"] == entries
    return rep


def _exploration_or_error(explorer, program, mode, depth=20):
    try:
        rep = explorer(program, depth=depth, mode=mode)
    except ExploreError as ex:
        return str(ex)
    return (rep.to_json(),
            [(s, d, c.rule, c.text, c.backward)
             for s, d, c in rep.system.edges],
            [show_collaboration(s) for s in rep.states], rep.system.dead)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["plain", "detect"]))
def test_exploration_equals_the_whole_state_reference(seed, mode):
    # explore steps items and keys states as multisets of item keys; the
    # reference steps and keys whole states.  Reports, transitions, the
    # rendered states (the first alpha-variant found) and the dead states,
    # which the reference notes as it steps each state, must all agree
    rng = random.Random(seed)
    prog = random_program(rng, safe=(seed % 2 == 0))
    for p in (prog, to_multiparty(prog), _kpar(1 + seed % 2),
              _ring(2 + seed % 3, "bool")):
        assert _exploration_or_error(explore, p, mode) == \
            _exploration_or_error(_naive_report, p, mode)
    # guards `f() == 1` over `{ 1, 2, 3 }`: values 2 and 3 take one edge
    prog = random_program(random.Random(seed), safe=(seed % 2 == 0),
                          int_guards=True)
    for p in (prog, to_multiparty(prog)):
        got = _exploration_or_error(explore, p, mode)
        assert got == _exploration_or_error(_naive_report, p, mode)
        assert len(set(got[1])) == len(got[1]) == got[0]["edges"]


@pytest.mark.parametrize("src", [
    # key-equal acceptors: the sessions they open with one requester are
    # alpha-variants under one name, and only the first found is kept
    "request a(x). x?(v: int). x?(u: int). 0 | accept a(y). y!<1>. y!<2>. 0"
    " | request a(x). x?(w: int). x?(u: int). 0"
    " | accept a(y). y!<1>. y!<2>. 0",
    "request a(x). x?(v: int). x?(u: int). abort"
    " | request a(x). x?(w: int). x?(u: int). abort"
    " | accept a(y). y!<1>. y!<2>. 0 | accept a(z). z!<1>. z!<2>. 0",
])
@pytest.mark.parametrize("mode", ["plain", "detect"])
def test_exploration_keeps_the_first_alpha_variant(src, mode):
    prog = parse_program(src)
    got = _exploration_or_error(explore, prog, mode, depth=30)
    assert got == _exploration_or_error(_naive_report, prog, mode,
                                        depth=30)
    assert got[0]["states"] > 5
    # key-equal acceptors open one session: one F-Con edge, not one each
    assert len(set(got[1])) == len(got[1]) == got[0]["edges"]


# a guard whose false branch two domain values take
_TWO_VALUES_ONE_BRANCH = (
    "fun f(): int in { 1, 2, 3 }\n"
    "request a(x). if f() == 1 then x!<1>. 0 else x!<2>. 0"
    " | accept a(y). y?(v: int). 0")


@pytest.mark.parametrize("mode", ["plain", "detect"])
def test_an_edge_is_a_transition_not_a_value_drawn(mode):
    prog = parse_program(_TWO_VALUES_ONE_BRANCH)
    rep = explore(prog, 5, mode)
    assert (len(rep.states), rep.edges) == (5, 5)
    assert [(s, d, c.rule, c.text, c.backward)
            for s, d, c in rep.system.edges[1:3]] == [
                (1, 2, "F-If", "s1:p1 else", False),
                (1, 3, "F-If", "s1:p1 then", False)]
    # the path keeps the first value that takes the branch
    assert rep.system.path_to(2)[-1].choices == (("f", 2),)
    assert _exploration_or_error(explore, prog, mode, 5) == \
        _exploration_or_error(_naive_report, prog, mode, 5)


@pytest.mark.parametrize("mode", ["plain", "detect"])
@pytest.mark.parametrize("role", [0, 1])
def test_a_one_role_request_opens_a_session_of_its_own(role, mode):
    # a requester alone opens a session: a connection (party 0) whose one
    # endpoint is replaced by one session, so its successor is laid out
    # anew and not as its parent was
    prog = parse_program(f"request a[{role}](x). if true then 0 else 0")
    rep = explore(prog, 30, mode)
    assert (len(rep.states), rep.edges, rep.completed) == (3, 2, 1)
    c = rep.system.edges[0][2]
    assert (c.rule, c.text, c.backward) == ("M-F-Con", "a:s1", False)
    assert _exploration_or_error(explore, prog, mode, 30) == \
        _exploration_or_error(_naive_report, prog, mode, 30)


# ---------------------------------------------------------------------------
# the search's compact storage: flat columns, views built on first read
# ---------------------------------------------------------------------------

def test_every_view_is_built_once_and_kept(programs, types):
    for ts in (explore(_kpar(2), 30).system,
               explore(programs["vod_b"], 40, "detect").system,
               check_compliance(types["consumer"], types["producer"]).system):
        for view in ("states", "edges"):
            assert getattr(ts, view) is getattr(ts, view), view
        assert len(ts.states) == len(ts.nodes) == len(ts.found_by)
        assert len(ts.edges) == len(ts.src) == len(ts.dst) == len(ts.labels)
    rep = explore(programs["vod_b"], 40)
    assert rep.states is rep.states
    assert [syntax.par(*items) for items in rep.system.nodes] == rep.states
    assert rep.states[0] == programs["vod_b"].term
    # term keys are interned weakly: a state read twice keys alike
    assert [term_key(s) for s in rep.states] == \
        [term_key(s) for s in rep.states]


@pytest.mark.parametrize("mode", ["plain", "detect"])
def test_path_to_walks_the_materialised_parents(mode):
    ts = explore(_kpar(2), 30, mode).system
    assert ts.found_by[0] == -1
    for sid in range(len(ts.states)):
        walk, at = [], sid
        while at:
            e = ts.found_by[at]
            walk.append(ts.labels[e])
            at = ts.src[e]
        assert ts.path_to(sid) == walk[::-1]
    assert all(ts.src[ts.found_by[t]] < t for t in range(1, len(ts.states)))


def test_edges_have_the_documented_shapes(programs, types):
    # every edge is (src, dst, label): a program's label is the built
    # Candidate, a type-level one (party, rule, label)
    ts = explore(programs["vod_b"], 40, "detect").system
    assert ts.states is ts.nodes
    assert ts.edges and all(
        type(e) is tuple and len(e) == 3 and
        type(e[2]) is runtime.Candidate and
        [type(x) for x in (e[2].rule, e[2].text, e[2].backward)]
        == [str, str, bool] and e[2].successor is not None
        for e in ts.edges)
    assert ts.edges == list(zip(ts.src, ts.dst, ts.labels))
    ts = check_compliance(types["consumer"], types["producer"]).system
    assert ts.states is ts.nodes
    assert ts.edges and all(
        type(e) is tuple and len(e) == 3 and type(e[2]) is tuple and
        [type(x) for x in e[2]] == [int, str, str] for e in ts.edges)
    assert ts.edges == list(zip(ts.src, ts.dst, ts.labels))


def test_an_exploration_report_keeps_few_collectable_objects():
    # per edge the report keeps two array slots and a shared candidate,
    # per state its items' tuple and an edge index: explore(kpar(3))
    # kept 4,684 GC-tracked objects (CPython 3.11), 8,198 when it
    # kept an edge tuple per edge and a Par and a step tuple per state
    prog = _kpar(3)
    explore(_kpar(1), 10)
    gc.collect()
    before = len(gc.get_objects())
    rep = explore(prog, 60)
    gc.collect()
    assert (len(rep.system.nodes), rep.edges) == (1331, 4719)
    assert len(gc.get_objects()) - before < 5000


# a session whose first exchange draws twice in one step and then sticks:
# the requester sends again to an acceptor that has finished
_TWO_DRAWS = ("request c(x). x!<f() && g()>. x!<1>. 0"
              " | accept c(y). y?(v: bool). 0")
_TWO_DRAWS_DECLS = "fun f(): bool\nfun g(): bool"


@pytest.mark.parametrize("case", ["vod_b", "frontier", "stuck"])
def test_reported_paths_are_the_whole_state_reference_paths(programs, case):
    # explore keeps one parent pointer per state and rebuilds the path and
    # script of an entry only when it reports one; the reference carries
    # every state's path and draws along
    if case == "vod_b":
        prog, mode, depth = programs["vod_b"], "detect", 40
    elif case == "frontier":
        # cut at depth 4: errors found on the final frontier are classified
        # there, without being expanded
        prog, mode, depth = parse_program("\n".join(
            [_PC_DECLS.format(t="a"), _TWO_DRAWS_DECLS,
             _PC.format(t="a") + "\n| " + _TWO_DRAWS])), "detect", 4
    else:
        prog, mode, depth = parse_program(
            _TWO_DRAWS_DECLS + "\n" + _TWO_DRAWS), "plain", 10
    rep = explore(prog, depth=depth, mode=mode)
    _, want = naive_explore_report(prog, depth=depth, mode=mode)
    data = rep.to_json()
    got = data["errors"] + data["stuck"]
    assert got == want
    assert [e["state"] for e in got] == rep.errors + rep.stuck
    assert got and all(e["path"] for e in got)
    if case == "frontier":
        assert any(len(e["path"]) == depth for e in got)
    if case != "vod_b":
        # one step drew f and g (the only calls of either)
        assert any(len(e["script"].get("f", ())) == 1 ==
                   len(e["script"].get("g", ())) for e in got)


def test_exploration_steps_each_distinct_session_once(monkeypatch):
    # k = 3: 1331 states, 4719 edges and 3630 session expansions of 60
    # distinct (session key, session name) pairs; k = 4: 14641 states,
    # 69212 edges and 53240 expansions of 100 pairs.  Each pair is stepped
    # once
    import cherrypi.runtime as runtime
    stepped = []
    session_steps = runtime._session_steps

    def counting(ses, *args):
        stepped.append(ses)
        return session_steps(ses, *args)
    monkeypatch.setattr(runtime, "_session_steps", counting)
    for k, depth, size, pairs in ((3, 60, (1331, 4719), 60),
                                  (4, 80, (14641, 69212), 100)):
        stepped.clear()
        rep = explore(_kpar(k), depth=depth)
        assert (len(rep.states), rep.edges) == size
        assert len(stepped) == len({(term_key(s), s.name)
                                    for s in stepped}) == pairs


# two copies of the speculative producer/consumer protocol on two services:
# 11 states and 13 transitions per copy, so 11**2 states and 2 * 13 * 11
# transitions, whichever order the sessions connect in
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
    # four copies: 11**4 states and 4 * 13 * 11**3 transitions (the binary
    # exploration is pinned by the session-stepping count above)
    mrep = m_explore(to_multiparty(_kpar(4)), depth=80)
    assert (len(mrep.states), mrep.edges) == (14641, 69212) and mrep.ok


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


def test_replay_reports_a_transcript_that_cannot_fund_a_step(programs):
    prog = programs["vod_c"]
    t = simulate(prog, DecisionOracle("seeded-random", seed=2), 60)
    j = t.to_json()
    fn, _ = j["oracle"]["transcript"].pop()
    nth = sum(f == fn for f, _ in t.oracle.transcript)
    k = max(i for i, ch in enumerate(_draws_of_steps(prog, t)) if ch)
    rep = replay(j)
    assert rep == ReplayReport(
        f"step {k}: script has no value for call #{nth} of {fn!r}")


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


def test_the_shadow_failure_texts_are_pinned(corpus):
    # every verdict and failure text of 1,032 runs: the corpus programs
    # and 40 safe and 40 unsafe generated ones, six seeds, both modes
    progs = [parse_program(p.read_text())
             for p in sorted(corpus.glob("*.chpi"))]
    rng = random.Random(0)
    progs += [random_program(rng, safe=safe)
              for safe in (True, False) for _ in range(40)]
    digest, failures = hashlib.sha256(), 0
    for prog in progs:
        for seed in range(6):
            for mode in ("plain", "detect"):
                t = simulate(prog, DecisionOracle("seeded-random", seed=seed),
                             60, mode=mode)
                rep = shadow_typecheck(prog, t)
                failures += len(rep.failures)
                digest.update(json.dumps([rep.ok, rep.failures]).encode())
    assert (len(progs), failures) == (86, 103)
    assert digest.hexdigest() == ("2b12aa77fd78fd9bff71912ac2efafe1"
                                  "e21963c67f6027ebb62402c1d9a7e00b")


RULES = Path(__file__).parent / "rules"


def _tampered_run(log):
    """The detect run of a safe two-step program, its connection's
    successor with party 1's log replaced by `log(old log)`."""
    prog = parse_program(
        "request a(x). x!<1>. 0 | accept a(y). y?(v: int). 0")
    t = simulate(prog, DecisionOracle(), mode="detect")
    con = copy.copy(t.steps[0])
    (ses,) = par_parts(con.successor)
    logs = list(par_parts(ses.body))
    logs[0] = log(logs[0])
    con.successor = Session(ses.name, ses.saved, syntax.par(*logs))
    return prog, runtime.Trace(prog, [con, *t.steps[1:]], t.status,
                               t.oracle)


def _stuck_run():
    prog = parse_program((RULES / "e_com1.chpi").read_text())
    return prog, simulate(prog, DecisionOracle(), mode="detect")


def _ill_typed_run():
    prog = parse_program(
        "request a(x). x!<1 + true>. 0 | accept a(y). y?(v: int). 0")
    return prog, simulate(prog, DecisionOracle(), 0, mode="detect")


# the shadow's failure texts for a com_error state, an ill-typed program
# and a log that retypes off its tracked node, each with a run giving it
SHADOW_FAILURES = {
    "com-error": (_stuck_run, [
        "E-Com1 s1:p1 stuck-out: step has no type analogue",
        "E-Com1 s1:p1 stuck-out: error state but party 1 type is "
        "![int]. end",
        "E-Com1 s1:p1 stuck-out: error state but party 2 type is end"]),
    "ill-typed": (_ill_typed_run, [
        "inference failed: operator 'add' expects ('int', 'int'), "
        "got ('int', 'bool')"]),
    "checkpoint": (lambda: _tampered_run(lambda lg: Log(
        lg.endpoint, syntax.CheckpointProcess(Inact()), lg.current)), [
        "F-Con a:s1: party 1 checkpoint retypes off the tracked "
        "checkpoint type"]),
    "imposed": (lambda: _tampered_run(lambda lg: Log(
        lg.endpoint, syntax.CheckpointProcess(lg.ckpt.process, True),
        lg.current)), [
        "F-Con a:s1: party 1 imposed flag disagrees with the type level"]),
    "retype": (lambda: _tampered_run(lambda lg: Log(
        lg.endpoint, lg.ckpt, P("if 5 then 0 else 0"))), [
        "F-Con a:s1: retyping failed: conditional guard has sort int, "
        "needs bool"]),
}


@pytest.mark.parametrize("case", SHADOW_FAILURES)
def test_each_shadow_failure_text(case):
    run, want = SHADOW_FAILURES[case]
    assert shadow_typecheck(*run()).failures == want


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
    assert classify_state(par_parts(t.steps[-1].successor),
                          False) == "completed"


def _classify_afresh(state, has_steps: bool) -> str:
    """What `classify_state` answers, read off every session body of the
    state, with no kept item class."""
    items = par_parts(state)
    for it in items:
        if isinstance(it, Session):
            for b in par_parts(it.body):
                if isinstance(b, ErrorState):
                    return b.kind
    if has_steps:
        return "live"
    done = all(isinstance(it, Session) and all(
        isinstance(lg, Log) and isinstance(lg.current, Inact)
        for lg in par_parts(it.body)) for it in items)
    return "completed" if done else "stuck"


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["plain", "detect"]))
def test_kept_item_classes_classify_as_fresh_terms(programs, seed, mode):
    # an item's class is kept on its node and shared by every state that
    # holds the item: a state classifies as the same state rebuilt from
    # new nodes, and as its session bodies read afresh
    rng = random.Random(seed)
    prog = random_program(rng, safe=(seed % 2 == 0))
    progs = (prog, to_multiparty(prog), _ring(2 + seed % 3, "bool"),
             _kpar(1 + seed % 2), programs["vod_b"], parse_program(
                 _TWO_DRAWS_DECLS + "\n" + _TWO_DRAWS),
             parse_program(_RIVALS[2]))
    kinds: set = set()
    kept = 0
    for p in progs:
        t = simulate(p, DecisionOracle("seeded-random", seed=seed), 40,
                     mode=mode)
        try:
            explored = explore(p, depth=40 if p is programs["vod_b"] else 8,
                               mode=mode).states
        except ExploreError:  # an int or str draw without a domain
            explored = []
        for state in [p.term] + [s.successor for s in t.steps] + explored:
            kept += any("_class" in it.__dict__ for it in par_parts(state))
            fresh = _fresh(state)
            for has_steps in (False, True):
                want = _classify_afresh(state, has_steps)
                assert classify_state(par_parts(state), has_steps) == want
                assert classify_state(par_parts(fresh), has_steps) == want
                kinds.add(want)
    assert kept
    assert {"live", "completed", "stuck"} <= kinds
    if mode == "detect":
        assert {"roll_error", "com_error"} <= kinds


# -- robustness -------------------------------------------------------------

def _corpus_tokens() -> list:
    """Every corpus program as its tokens (words and single symbols), each
    with the blanks before it."""
    from cherrypi import corpus_dir
    return [re.findall(r"\s*(?:\w+|\S)", p.read_text())
            for p in sorted(corpus_dir().glob("*.chpi"))]


_CORPUS_TOKENS = _corpus_tokens()


@st.composite
def _program_mutants(draw):
    """A corpus program with one to three tokens deleted, repeated or
    replaced by another token of the same program."""
    toks = list(draw(st.sampled_from(_CORPUS_TOKENS)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(toks) - 1))
        op = draw(st.sampled_from(["delete", "repeat", "replace"]))
        if op == "delete":
            del toks[i]
        elif op == "repeat":
            toks.insert(i, toks[i])
        else:
            toks[i] = draw(st.sampled_from(toks))
    return "".join(toks)


# what the library raises on a program it cannot check, run or explore
_DOCUMENTED = (ParseError, TypingError, MalformedTerm, ExploreError,
               OracleExhausted, BudgetExceeded)


@settings(max_examples=200, deadline=None)
@given(_program_mutants(), st.integers(0, 10 ** 6),
       st.sampled_from(["plain", "detect"]))
def test_mutated_programs_raise_only_documented_errors(src, seed, mode):
    try:
        prog = parse_program(src)
    except ParseError:
        return
    for run in (lambda: check_rollback_safety(prog.term),
                lambda: simulate(prog, DecisionOracle("seeded-random",
                                                      seed=seed),
                                 50, mode=mode),
                lambda: explore(prog, depth=8, mode=mode)):
        try:
            run()
        except _DOCUMENTED:
            pass
