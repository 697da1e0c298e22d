import gc
import os
import random
import re
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import cherrypi.multiparty as mp
import cherrypi.semantics as sem
import cherrypi.sessiontypes as sessiontypes
import cherrypi.syntax as syntax
from genprog import random_type
from oracle_naive import naive_type_reach
from cherrypi.parser import parse_program, parse_type
from cherrypi.runtime import explore
from cherrypi.semantics import (BudgetExceeded, InvalidBudget,
                                check_compliance, check_rollback_safety,
                                compliance_dot, config_transitions,
                                reachable_system)
from cherrypi.infer import (TypingError, infer_collaboration, service_pairs,
                            service_types)
from cherrypi.sessiontypes import (TAbtT, TBrn, TCmt, TEnd, TErr, TIn, TMu,
                                   TOut, TPlus, TRollT, TSel, TVarT,
                                   canonical_type, head_normal_type,
                                   render_type, type_key, unfold_type)


def T(s):
    return parse_type(s)


# -- stepping a party from its type's head -----------------------------------

def _edges(*texts):
    """The (src, dst, (party, rule, label)) edges reachable from the types
    `texts`, one per party in log order."""
    return reachable_system(*map(T, texts)).edges


def test_prefix_transitions():
    assert _edges("![int]. end", "?[int]. end") == \
        [(0, 1, (1, "TS-Com", "com[int]"))]
    assert _edges("?[str]. roll", "![str]. end") == \
        [(0, 1, (2, "TS-Com", "com[str]")), (1, 0, (1, "TS-Rll1", "roll"))]
    # an input of another sort is no partner
    assert _edges("![int]. end", "?[str]. end") == []
    ts = reachable_system(T("sel[go]. end"), T("brn[stop: cmt. end; go: end]"))
    assert ts.edges == [(0, 1, (1, "TS-Lab", "lab[go]"))]
    assert [render_type(t) for t in ts.nodes[1][2]] == ["end", "end"]


def test_a_partner_must_name_the_party_back():
    # the requester, role 3, sends to role 1, which waits on role 2
    assert _edges("![3,1][int]. end", "?[1,2][int]. end", "end") == []
    assert _edges("![3,1][int]. end", "?[1,3][int]. end", "end") == \
        [(0, 1, (1, "TS-Com", "com[int]"))]
    assert _edges("sel[3,1][go]. end", "brn[1,2][go: end]", "end") == []


def test_internal_choice_steps_both_ways():
    ts = reachable_system(T("(end (+) cmt. end)"), T("end"))
    assert ts.edges == [(0, 1, (1, "TS-Tau", "tau[L]")),
                        (0, 2, (1, "TS-Tau", "tau[R]")),
                        (2, 3, (1, "TS-Cmt2", "cmt"))]
    assert [render_type(ts.nodes[sid][2][0]) for sid in (1, 2)] == \
        ["end", "cmt. end"]


def test_steps_come_in_party_order():
    both = "(end (+) cmt. end)"
    assert [(dst, lab) for src, dst, lab in _edges(both, both) if src == 0] \
        == [(1, (1, "TS-Tau", "tau[L]")), (2, (1, "TS-Tau", "tau[R]")),
            (3, (2, "TS-Tau", "tau[L]")), (4, (2, "TS-Tau", "tau[R]"))]


def test_recursive_type_unfolds_before_stepping():
    # both heads are unfoldings, and the successor is the loop again
    assert _edges("mu t. ![int]. t", "mu t. ?[int]. t") == \
        [(0, 0, (1, "TS-Com", "com[int]"))]


def test_terminal_types_have_no_transitions():
    for text in ("end", "err"):
        assert _edges(text, text) == []
        assert _edges(text, "![int]. end") == []


# -- configuration rules ----------------------------------------------------
#
# The tests' own shape of a configuration, independent of the nodes under
# test: per party a checkpoint (type and imposed flag) and a current type,
# and the initial types.

@dataclass(frozen=True)
class Ckpt:
    typ: object
    imposed: bool = False


@dataclass(frozen=True)
class Config:
    ckpts: tuple  # Ckpt per party, in log order
    currents: tuple
    inits: tuple


def initial(*types):
    return Config(tuple(map(Ckpt, types)), types, types)


def config_of(node):
    """The configuration a node stands for: its imposed flags are the key's
    slots 3*i."""
    return Config(tuple(map(Ckpt, node[1], node[0][::3])), node[2], node[3])


def node_of(cfg):
    """The node of a configuration, keyed by `type_key` as the stepper keys
    its successors, so that the key lives as long as the node's types."""
    key = []
    for ck, cur in zip(cfg.ckpts, cfg.currents):
        key += (ck.imposed, type_key(ck.typ), type_key(cur))
    return (tuple(key), tuple(ck.typ for ck in cfg.ckpts), cfg.currents,
            cfg.inits)


def test_commit_retargets_both_checkpoints():
    root = node_of(initial(T("![str]. cmt. ![int]. end"),
                           T("?[str]. ?[int]. end")))
    (_, (_, rule, _), after_com), = config_transitions(root)
    assert rule == "TS-Com"
    (_, (party, rule, label), nxt), = config_transitions(after_com)
    assert (party, rule, label) == (1, "TS-Cmt1", "cmt")
    cks = config_of(nxt).ckpts
    assert render_type(cks[0].typ) == "![int]. end"
    assert not cks[0].imposed
    # the partner sits past its own checkpoint, so it gets an imposed one
    assert cks[1].imposed
    assert render_type(cks[1].typ) == "?[int]. end"


def test_commit_on_agreeing_partner_imposes_nothing():
    (_, (_, rule, _), nxt), = config_transitions(
        node_of(initial(T("cmt. end"), T("end"))))
    assert rule == "TS-Cmt2"
    assert not any(ck.imposed for ck in config_of(nxt).ckpts)


def test_roll_on_own_checkpoint_restores_it():
    sysm = reachable_system(T("![int]. roll"), T("?[int]. end"))
    assert len(sysm.states) == 2
    assert [(rule, src, dst) for src, dst, (_, rule, _) in sysm.edges] == \
        [("TS-Com", 0, 1), ("TS-Rll1", 1, 0)]


def test_roll_on_imposed_checkpoint_errors_even_if_content_matches():
    t = T("![int]. end")
    cfg = Config((Ckpt(t, True), Ckpt(t, False)), (T("roll"), t), (t, t))
    (_, (party, rule, _), nxt), = config_transitions(node_of(cfg))
    assert rule == "TS-Rll2"
    assert all(render_type(c) == "err" for c in nxt[2])
    # checkpoints survive the failure untouched
    assert config_of(nxt).ckpts == cfg.ckpts


def test_rll1_preserves_imposed_flags():
    t = T("![int]. end")
    cfg = Config((Ckpt(T("roll"), False), Ckpt(t, True)), (T("roll"), t),
                 (T("roll"), t))
    steps = {step[1][1]: config_of(step[2])
             for step in config_transitions(node_of(cfg))}
    nxt = steps["TS-Rll1"]
    assert nxt.ckpts[1].imposed
    assert render_type(nxt.currents[1]) == "![int]. end"


def test_abort_resets_to_initial_pair():
    sysm = reachable_system(T("![int]. abt"), T("?[int]. end"))
    assert len(sysm.states) == 2
    rules = {e[2][1] for e in sysm.edges}
    assert rules == {"TS-Com", "TS-Abt1"}
    assert [e[1] for e in sysm.edges if e[2][1] == "TS-Abt1"] == [0]


def test_perpetual_roll_is_vacuously_compliant():
    # roll restores its own checkpoint — the system self-loops and never
    # reaches a terminal configuration, so there is nothing to violate
    rep = check_compliance(T("roll"), T("end"))
    assert rep.compliant
    assert rep.system.edges == [(0, 0, (1, "TS-Rll1", "roll"))]


def test_err_states_are_absorbing(corpus):
    t1 = parse_type((corpus / "consumer.chty").read_text())
    t2 = parse_type((corpus / "producer_commit.chty").read_text())
    rep = check_compliance(t1, t2)
    for sid in rep.violations:
        assert all(e[0] != sid for e in rep.system.edges)
        assert config_transitions(rep.system.nodes[sid]) == []


def test_violations_are_the_stuck_states_not_all_at_end(types):
    # a state with no out-edge whose currents are not all `end`
    for right, count in (("producer", 0), ("producer_commit", 2)):
        rep = check_compliance(types["consumer"], types[right])
        ts = rep.system
        live = {e[0] for e in ts.edges}
        want = [sid for sid, node in enumerate(ts.states) if sid not in live
                and any(render_type(t) != "end" for t in node[2])]
        assert rep.violations == want and len(want) == count
        assert rep.compliant is (count == 0)
        assert [v["state"] for v in rep.to_json()["violations"]] == want


# -- reachability, determinism, budget --------------------------------------

FROZEN_PAIRS = [
    ("consumer.chty", "producer.chty", 10, True),
    ("consumer.chty", "producer_commit.chty", 18, False),
    ("vod_user.chty", "vod_server.chty", 20, False),
    ("vod_user.chty", "vod_server_early_commit.chty", 17, True),
    ("vod_user_late_commit.chty", "vod_server_late_commit.chty", 32, False),
]


@pytest.mark.parametrize("left,right,nstates,compliant", FROZEN_PAIRS)
def test_corpus_pair_state_counts(corpus, left, right, nstates, compliant):
    t1 = parse_type((corpus / left).read_text())
    t2 = parse_type((corpus / right).read_text())
    rep = check_compliance(t1, t2)
    assert len(rep.system.states) == nstates
    assert rep.compliant == compliant
    # independent naive enumeration agrees on both counts and verdict
    n, ok = naive_type_reach(t1, t2)
    assert (n, ok) == (nstates, compliant)


def test_exploration_is_deterministic(corpus):
    t1 = parse_type((corpus / "consumer.chty").read_text())
    t2 = parse_type((corpus / "producer_commit.chty").read_text())
    a = reachable_system(t1, t2)
    b = reachable_system(t1, t2)
    assert a.edges == b.edges
    assert [sem.config_key(s) for s in a.states] == \
        [sem.config_key(s) for s in b.states]


def test_budget_argument_caps_the_search(corpus):
    t1 = parse_type((corpus / "consumer.chty").read_text())
    t2 = parse_type((corpus / "producer.chty").read_text())
    with pytest.raises(BudgetExceeded):
        reachable_system(t1, t2, budget=3)


def _search(programs, engine):
    """The transition system that `engine` finds for vod_b: the type-level
    reachable system of its one service, or its detect-mode exploration."""
    if engine == "binary":
        _, t_req, t_acc = service_pairs(
            infer_collaboration(programs["vod_b"].term))[0]
        return lambda budget=None: reachable_system(t_req, t_acc,
                                                    budget=budget)
    if engine.startswith("explore"):
        prog = programs["vod_b"]
        if engine == "explore twin":
            prog = mp.to_multiparty(prog)
        return lambda budget=None: explore(prog, mode="detect",
                                           budget=budget).system
    mterm = mp.to_multiparty(programs["vod_b"]).term
    (types,) = service_types(mterm).values()
    return lambda budget=None: mp.m_reachable_system(types, budget)


@pytest.mark.parametrize("engine",
                         ["binary", "n-role", "explore", "explore twin"])
def test_budget_error_says_how_far_the_search_got(programs, engine):
    search = _search(programs, engine)
    full = search()
    with pytest.raises(BudgetExceeded) as err:
        search(budget=7)
    e = err.value
    assert str(e) == "state budget of 7 exceeded"
    # BFS layer = length of the discovery path; the search stopped while
    # expanding the layer that discovers state 7
    layer = [len(full.path_to(sid)) for sid in range(len(full.states))]
    depth = layer[7] - 1
    assert (e.budget, e.states, e.depth, e.frontier) == \
        (7, 7, depth, layer.count(depth))


@pytest.mark.parametrize("what, arg, value", [
    ("comply", "budget", 0), ("comply", "budget", -1),
    ("explore", "budget", 0), ("explore", "budget", -1),
    ("explore", "depth", -1)])
def test_out_of_range_budget_or_depth_is_refused(programs, what, arg, value):
    # the library refuses what the CLI's argparse refuses
    program = programs["vod_b"]
    if what == "comply":
        _, t_req, t_acc = service_pairs(infer_collaboration(program.term))[0]
        run = lambda: check_compliance(t_req, t_acc, budget=value)
    else:
        run = lambda: explore(program, **{arg: value})
    with pytest.raises(InvalidBudget if arg == "budget" else ValueError,
                       match=f"{arg} must be"):
        run()


def test_budget_env_var_is_honoured(corpus, monkeypatch):
    monkeypatch.setenv("CHERRY_BUDGET", "3")
    t1 = parse_type((corpus / "consumer.chty").read_text())
    t2 = parse_type((corpus / "producer.chty").read_text())
    with pytest.raises(BudgetExceeded):
        reachable_system(t1, t2)


def test_a_check_reads_the_budget_variable_once(monkeypatch):
    # once per call, after inference, however many services it searches
    reads = []

    class Environ(dict):
        def get(self, name, default=None):
            reads.append(name)
            return super().get(name, default)

    monkeypatch.setattr(sem, "os", SimpleNamespace(
        environ=Environ(CHERRY_BUDGET="lots")))
    with pytest.raises(TypingError):
        check_rollback_safety(parse_program(
            "request a(x). if 1 then 0 else 0 | accept a(y). 0").term)
    assert reads == []
    two = parse_program(
        "request a(x). x!<1>. 0 | accept a(y). y?(v: int). 0\n"
        "| request b(z). z!<2>. 0 | accept b(w). w?(u: int). 0").term
    with pytest.raises(InvalidBudget):
        check_rollback_safety(two)
    assert reads == ["CHERRY_BUDGET"]
    sem.os.environ["CHERRY_BUDGET"] = "1"
    with pytest.raises(BudgetExceeded):
        check_rollback_safety(two)
    sem.os.environ["CHERRY_BUDGET"] = "2"
    rep = check_rollback_safety(two)
    assert rep.safe and list(rep.services) == ["a", "b"]
    assert reads == ["CHERRY_BUDGET"] * 3


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_pairs_agree_with_naive_enumeration(seed):
    rng = random.Random(seed)
    t1, t2 = random_type(rng, 5), random_type(rng, 5)
    rep = check_compliance(t1, t2)
    n, ok = naive_type_reach(t1, t2)
    assert (len(rep.system.states), rep.compliant) == (n, ok)


# -- rollback safety over whole programs ------------------------------------

def test_rollback_safety_verdicts(programs, verdicts):
    for fname, info in verdicts["programs"].items():
        if info["multiparty"]:
            continue
        name = fname.removesuffix(".chpi")
        rep = check_rollback_safety(programs[name].term)
        assert rep.safe == info["safe"], name


# -- DOT export -------------------------------------------------------------

def test_dot_shapes(corpus):
    t1 = parse_type((corpus / "consumer.chty").read_text())
    t2 = parse_type((corpus / "producer_commit.chty").read_text())
    rep = check_compliance(t1, t2)
    dot = compliance_dot(rep)
    assert dot.startswith("digraph")
    assert "rankdir=LR" in dot
    assert 'style=bold' in dot          # initial state stands out
    assert "peripheries=2" in dot       # violating terminals doubled
    assert dot.count("->") == len(rep.system.edges)


def test_export_dot_labels_carry_rule_and_party(corpus):
    t1 = parse_type((corpus / "consumer.chty").read_text())
    t2 = parse_type((corpus / "producer.chty").read_text())
    dot = compliance_dot(check_compliance(t1, t2))
    assert "TS-Com com[str] p1" in dot or "TS-Com com[str] p2" in dot


# -- type keys ----------------------------------------------------------------

def _subterms(t):
    """`t`, its descendants, and those of every mu node's unfolding."""
    out, todo, seen = [], [t], set()
    while todo:
        t = todo.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        out.append(t)
        match t:
            case TMu(_, body):
                todo += [body, unfold_type(t)]
            case TBrn(arms):
                todo += [c for _, c in arms]
            case TPlus(l, r):
                todo += [l, r]
            case TOut(_, c) | TIn(_, c) | TSel(_, c) | TCmt(c):
                todo.append(c)
    return out


def _assert_keys_match_text(terms):
    texts = [canonical_type(t) for t in terms]
    keys = [type_key(t) for t in terms]
    for a in range(len(terms)):
        for b in range(len(terms)):
            assert (keys[a] == keys[b]) == (texts[a] == texts[b]), \
                (texts[a], texts[b])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_type_keys_are_equal_exactly_when_canonical_texts_are(seed):
    rng = random.Random(seed)
    a, b = random_type(rng, 5), random_type(rng, 5)
    # the same text again as new objects, and with every binder renamed
    again = random_type(random.Random(seed), 5)
    renamed = parse_type(re.sub(r"\bt(\d+)\b", r"r\1", render_type(a)))
    _assert_keys_match_text(
        _subterms(a) + _subterms(b) + _subterms(again) + _subterms(renamed))


def test_alpha_variants_share_a_key_but_keep_their_names():
    left, right = T("(mu x. ![int]. x) (+) (mu y. ![int]. y)"), \
        T("mu z. ?[int]. z")
    x, y = left.left, left.right
    assert type_key(x) == type_key(y) and x is not y
    rep = check_compliance(left, right)
    assert (len(rep.system.states), len(rep.system.edges)) == (2, 3)
    assert naive_type_reach(left, right) == (2, True)
    # both internal choices land in state 1, which keeps the left variant
    assert [e[:2] for e in rep.system.edges] == [(0, 1), (0, 1), (1, 1)]
    assert render_type(rep.system.states[1][2][0]) == "mu x. ![int]. x"


def test_type_keys_number_shadowed_binders_by_position():
    inner = T("mu x. ![int]. mu x. ?[int]. x")
    assert type_key(inner) == type_key(T("mu y. ![int]. mu z. ?[int]. z"))
    assert type_key(inner) != type_key(T("mu y. ![int]. mu z. ?[int]. y"))


def test_type_keys_tell_free_variables_apart():
    assert type_key(TVarT("x")) == type_key(TVarT("x"))
    assert type_key(TVarT("x")) != type_key(TVarT("y"))
    assert type_key(TOut("int", TVarT("x"))) != \
        type_key(TOut("int", TVarT("y")))
    # a free variable is not the binder it happens to share a name with
    assert type_key(TMu("x", TOut("int", TVarT("y")))) != \
        type_key(TMu("x", TOut("int", TVarT("x"))))
    assert type_key(TVarT("x")) != type_key(TEnd())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_type_keys_are_the_references_on_open_and_closed_subterms(seed):
    # binders first, and on new objects of the same text, inner nodes first
    for order in (1, -1):
        for t in _subterms(random_type(random.Random(seed), 5))[::order]:
            assert type_key(t) == ref_type_key(t).serial, render_type(t)


def test_an_open_node_keeps_its_key_as_a_root_inside_a_binder():
    body = TOut("bool", TVarT("t"))  # canonical text (out bool ?t:t)
    alone = type_key(body)
    assert type_key(TMu("t", body)) == type_key(T("mu s. ![bool]. s"))
    assert type_key(body) == alone == type_key(TOut("bool", TVarT("t")))
    # an open mu node: its key as a root names x, inside `mu x` it does not
    def loop(free, var):
        return TMu(var, TBrn((("a", TVarT(free)), ("b", TVarT(var)))))

    outer = T("mu x. ?[int]. mu y. brn[a: x; b: y]")
    inner = outer.body.cont
    alone = type_key(inner)
    assert type_key(outer) == type_key(T("mu u. ?[int]. mu v. brn[a: u; "
                                         "b: v]"))
    assert type_key(inner) == alone == type_key(loop("x", "w"))
    assert alone != type_key(loop("z", "y"))
    # a loop between a binder and an inner loop that names it is open too
    three = T("mu a. ![int]. mu b. ?[int]. mu c. brn[x: a; y: c]")
    type_key(three)
    assert type_key(three.body.cont) == ref_type_key(three.body.cont).serial


def _calls_to_key(t, cap: int) -> int:
    """The calls into `sessiontypes` functions while `type_key(t)` runs, at
    least one per node visited; past `cap` the count stops the key."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and \
                frame.f_code.co_filename == sessiontypes.__file__:
            count += 1
            if count > cap:
                raise AssertionError(f"keying took over {cap} calls")

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        type_key(t)
    finally:
        sys.setprofile(outer)
    return count


@pytest.mark.parametrize("n", [10, 20, 40])
def test_keying_nested_loops_costs_linear_calls_per_key(n):
    # each inner mu's unfolding holds every outer loop: a key that walked
    # each mu's whole text would double with every step down the path
    t = T("".join(f"mu t{i}. ![int]. " for i in range(n)) + "brn["
          + "; ".join(f"l{i}: t{i}" for i in range(n)) + "]")
    for _ in range(n):
        assert _calls_to_key(t, cap=8 * n) <= 8 * n
        t = unfold_type(t).cont


def test_unfolding_keeps_closed_types_as_they_are():
    outer = T("mu x. ?[bool]. mu y. sel[l]. x")
    assert unfold_type(outer) is unfold_type(outer)
    inner = unfold_type(outer).cont
    # unfolding the inner mu leaves the closed outer one uncopied, so a
    # walk through both unfoldings meets finitely many objects
    assert unfold_type(inner).cont is outer


def test_type_key_table_does_not_outlive_the_check(corpus):
    gc.collect()
    before = len(syntax._REPS)
    check_compliance(parse_type((corpus / "vod_user.chty").read_text()),
                     parse_type((corpus / "vod_server.chty").read_text()))
    gc.collect()
    assert len(syntax._REPS) == before


# -- the keyed stepper against the code it replaced -------------------------
#
# `ref_*` are the type key, single-type steps, configuration key and party
# stepper as they were before keys were derived from the parent's key:
# every type node keyed from scratch (by `type_key`'s signatures, with a
# free-variable walk of its own and no cache on the node), every
# configuration keyed from its types, steps found by pattern matching.

def ref_free(t):
    """The free type variables of `t`, by a walk of its own."""
    match t:
        case TVarT(v):
            return {v}
        case TMu(v, body):
            return ref_free(body) - {v}
        case TOut(_, c) | TIn(_, c) | TSel(_, c) | TCmt(c):
            return ref_free(c)
        case TBrn(arms):
            return set().union(*(ref_free(c) for _, c in arms))
        case TPlus(l, r):
            return ref_free(l) | ref_free(r)
    return set()


def ref_sig(t, scope=()):
    """`t`'s signature in `scope`, the binders' variables innermost last: a
    bound variable as its distance to its binder, a free one by name, a mu
    by its body.  A child enters by its representative at the root and, in
    a binder's scope, when it is a closed mu; else by its signature."""
    def child(c, scope=scope):
        if not scope or (isinstance(c, TMu) and not ref_free(c)):
            return ref_type_key(c)
        return ref_sig(c, scope)

    match t:
        case TOut(s, c, a, b):
            return (TOut, s, child(c), a, b)
        case TIn(s, c, a, b):
            return (TIn, s, child(c), a, b)
        case TSel(l, c, a, b):
            return (TSel, l, child(c), a, b)
        case TBrn(arms, a, b):
            return (TBrn, tuple((l, child(c)) for l, c in arms), a, b)
        case TPlus(l, r):
            return (TPlus, child(l), child(r))
        case TCmt(c):
            return (TCmt, child(c))
        case TVarT(v) if v in scope:
            return (TVarT, len(scope) - max(
                i for i, w in enumerate(scope) if w == v))
        case TVarT(v):
            return (TVarT, v)
        case TMu(v, body):
            return (TMu, child(body, scope + (v,)))
    return (type(t),)


def ref_type_key(t):
    """The representative of `t`'s key, interned from scratch: the caller
    holds it, so nothing interned dies between two comparisons."""
    return syntax._intern(ref_sig(t))


def ref_type_transitions(t):
    t = head_normal_type(t)
    match t:
        case TOut(s, c, a, b):
            return [(("out", s, a, b), c)]
        case TIn(s, c, a, b):
            return [(("in", s, a, b), c)]
        case TSel(l, c, a, b):
            return [(("sel", l, a, b), c)]
        case TBrn(arms, a, b):
            return [(("brn", l, a, b), c) for l, c in arms]
        case TPlus(l, r):
            return [(("tau", "L"), l), (("tau", "R"), r)]
        case TCmt(c):
            return [(("cmt",), c)]
        case TRollT():
            return [(("roll",), TEnd())]
        case TAbtT():
            return [(("abt",), TEnd())]
        case _:
            return []


def ref_config_key(cfg):
    """The key of a `Config`, every type keyed by `ref_type_key`, with the
    representatives held until every serial is read."""
    key = []
    for ck, cur in zip(cfg.ckpts, cfg.currents):
        key += (ck.imposed, ref_type_key(ck.typ), ref_type_key(cur))
    return tuple(k if type(k) is bool else k.serial for k in key)


def _ref_label_text(lab):
    match lab:
        case ("out", s, _, _):
            return f"com[{s}]"
        case ("sel", l, _, _):
            return f"lab[{l}]"
        case ("tau", side):
            return f"tau[{side}]"
        case (kind,):
            return kind


def ref_party_transitions(cfg, i, steps):
    out = []
    cur, cks, n = cfg.currents, cfg.ckpts, len(cfg.currents)
    for lab, nxt in steps[i]:
        match lab:
            case (("out" | "sel") as kind, x, src, dst):
                j = sem.partner_position(i, dst, n)
                me = None if dst is None else sem.role_of_position(i, n)
                if j is None or src != me:
                    continue
                want = ("in" if kind == "out" else "brn", x, dst, me)
                rule = "TS-Com" if kind == "out" else "TS-Lab"
                for plab, pnxt in steps[j]:
                    if plab == want:
                        curs = list(cur)
                        curs[i], curs[j] = nxt, pnxt
                        out.append((i + 1, rule, _ref_label_text(lab),
                                    Config(cks, tuple(curs), cfg.inits)))
            case ("tau", _):
                curs = list(cur)
                curs[i] = nxt
                out.append((i + 1, "TS-Tau", _ref_label_text(lab),
                            Config(cks, tuple(curs), cfg.inits)))
            case ("cmt",):
                curs, ncks = list(cur), list(cks)
                curs[i] = nxt
                ncks[i] = Ckpt(nxt)
                rule = "TS-Cmt2"
                for h in range(n):
                    if h != i and (cks[h].imposed or ref_type_key(cks[h].typ)
                                   is not ref_type_key(cur[h])):
                        ncks[h] = Ckpt(cur[h], imposed=True)
                        rule = "TS-Cmt1"
                out.append((i + 1, rule, "cmt",
                            Config(tuple(ncks), tuple(curs), cfg.inits)))
            case ("roll",):
                if cks[i].imposed:
                    out.append((i + 1, "TS-Rll2", "roll", Config(
                        cks, tuple(TErr() for _ in cur), cfg.inits)))
                else:
                    out.append((i + 1, "TS-Rll1", "roll", Config(
                        cks, tuple(c.typ for c in cks), cfg.inits)))
            case ("abt",):
                out.append((i + 1, "TS-Abt1", "abt", initial(*cfg.inits)))
    return out


def ref_config_transitions(cfg):
    steps = [ref_type_transitions(t) for t in cfg.currents]
    out = []
    for i in range(len(steps)):
        out += ref_party_transitions(cfg, i, steps)
    out.sort(key=lambda s: s[:3])
    return out


def _fresh(x):
    """A copy of a type, checkpoint or configuration made of new nodes, so
    it carries none of the original's cached keys or unfoldings."""
    if isinstance(x, tuple):
        return tuple(_fresh(y) for y in x)
    if hasattr(x, "__match_args__"):
        return type(x)(*(_fresh(getattr(x, f)) for f in x.__match_args__))
    return x


def _assert_stepper_matches_reference(*types):
    """Node by node, `_party_transitions` steps as the reference steps the
    configuration the node stands for, and every key is the reference's."""
    ts = reachable_system(*types)
    assert ts.states is ts.nodes and config_of(ts.nodes[0]) == initial(*types)
    for node in ts.nodes:
        cfg = config_of(node)
        assert node[0] == ref_config_key(_fresh(cfg))
        got = sem._party_transitions(node)
        assert config_transitions(node) == got
        assert [(*step[1], config_of(step[2])) for step in got] == \
            ref_config_transitions(cfg)
        for key, _, succ in got:
            assert succ[0] is key
            assert key == ref_config_key(_fresh(config_of(succ)))
    return ts


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_keyed_stepper_matches_the_reference_on_random_pairs(seed):
    rng = random.Random(seed)
    _assert_stepper_matches_reference(random_type(rng, 8),
                                      random_type(rng, 8))


def test_keyed_stepper_matches_the_reference_on_corpus_pairs(corpus,
                                                             verdicts):
    for pair in verdicts["type_pairs"]:
        _assert_stepper_matches_reference(
            *(parse_type((corpus / pair[side]).read_text())
              for side in ("left", "right")))


THREE_ROLES = """
request a[3](x). x!<1>@1. commit. if true then x?(v: int)@2. 0 else abort
| accept a[1](y). y?(n: int)@3. commit. y!<n>@2. (if true then 0 else roll)
| accept a[2](z). z?(m: int)@1. commit. (if true then z!<m>@3. 0 else roll)
"""


def test_keyed_stepper_matches_the_reference_on_three_roles(programs):
    rules = set()
    for term in (programs["three_party_job"].term,
                 parse_program(THREE_ROLES).term):
        (types,) = service_types(term).values()
        ts = _assert_stepper_matches_reference(*types)
        rules |= {e[2][1] for e in ts.edges}
    # every journal rule is exercised
    assert rules == {"TS-Com", "TS-Lab", "TS-Tau", "TS-Cmt1", "TS-Cmt2",
                     "TS-Rll1", "TS-Rll2", "TS-Abt1"}
