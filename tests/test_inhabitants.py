"""Canonical inhabitants: the two levels agree on programs built from types.

`inhabit` turns a session type into the process that does exactly what the
type allows: a send of a literal per output, a receive into a fresh
variable per input, a conditional on `g()` per internal choice.  A pair of
inhabitants is rollback safe by `check` exactly when the detect-mode
exploration of the same program finds no error and no stuck state, and
no seeded detect-mode run of a safe pair ends in an error or stuck, with
one known class of exceptions (`_commits_forever`).
"""

import itertools
import random

from genprog import random_type
from cherrypi.infer import service_types
from cherrypi.parser import FunDecl, SourceProgram, parse_program
from cherrypi.runtime import DecisionOracle, classify_state, explore, simulate
from cherrypi.semantics import check_rollback_safety
from cherrypi.sessiontypes import (TAbtT, TBrn, TCmt, TEnd, TIn, TMu, TOut,
                                   TPlus, TRollT, TSel, TVarT, subtypes,
                                   type_key)
from cherrypi.syntax import (Abort, Accept, Branch, ChanVar, Commit, If,
                             Inact, Lit, MalformedTerm, PVar, Rec, Recv,
                             Request, Roll, Select, Send, Ufun, par)

_LITERAL = {"bool": True, "int": 1, "str": "a"}
_GUARD = Ufun("g", (), (), "bool", None)
_DECLS = {"g": FunDecl("g", (), "bool", None)}


def inhabit(t, chan: str, fresh) -> object:
    """The process on session variable `chan` that does what `t` allows;
    `fresh` yields the received variables' names."""
    c = ChanVar(chan)

    def go(t):
        match t:
            case TOut(sort, cont):
                return Send(c, Lit(_LITERAL[sort]), go(cont))
            case TIn(sort, cont):
                return Recv(c, next(fresh), sort, go(cont))
            case TSel(label, cont):
                return Select(c, label, go(cont))
            case TBrn(arms):
                return Branch(c, tuple((l, go(a)) for l, a in arms))
            case TPlus(left, right):
                return If(_GUARD, go(left), go(right))
            case TCmt(cont):
                return Commit(go(cont))
            case TRollT():
                return Roll()
            case TAbtT():
                return Abort()
            case TEnd():
                return Inact()
            case TMu(var, body):
                return Rec(var.upper(), go(body))
            case TVarT(var):
                return PVar(var.upper())
        raise AssertionError(f"no inhabitant for {t!r}")
    return go(t)


def dual(t):
    """The partner type: inputs for outputs, a branch for a selection, a
    choice of selections for a branch; a choice stays a choice."""
    match t:
        case TOut(sort, cont):
            return TIn(sort, dual(cont))
        case TIn(sort, cont):
            return TOut(sort, dual(cont))
        case TSel(label, cont):
            return TBrn(((label, dual(cont)),))
        case TBrn(arms):
            (label, cont), *rest = arms
            sel = TSel(label, dual(cont))
            return TPlus(sel, dual(TBrn(tuple(rest)))) if rest else sel
        case TPlus(left, right):
            return TPlus(dual(left), dual(right))
        case TCmt(cont):
            return TCmt(dual(cont))
        case TMu(var, body):
            return TMu(var, dual(body))
    return t


def inhabitant_pair(seed: int):
    """Seeded types and the program `request a(x). P | accept a(y). Q` of
    their inhabitants.  The partner's type is the first's dual 70 % of the
    time, else a second random type, and 30 % of the time it commits
    first."""
    rng = random.Random(seed)
    left = random_type(rng, 5)
    right = dual(left) if rng.random() < 0.7 else random_type(rng, 5)
    if rng.random() < 0.3:
        right = TCmt(right)
    fresh = map("v{}".format, itertools.count())
    term = par(Request("a", "x", inhabit(left, "x", fresh)),
               Accept("a", "y", inhabit(right, "y", fresh)))
    return (left, right), SourceProgram(_DECLS, term, False)


def _commits_forever(t) -> bool:
    """Whether `t` holds a loop that only commits, `mu t. cmt. ... cmt. t`."""
    stack = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, TMu):
            body = s.body
            while isinstance(body, TCmt):
                body = body.cont
            if body == TVarT(s.var):
                return True
        stack += subtypes(s)
    return False


_DETECTED = ("E-Com1", "E-Com2", "E-Lab1", "E-Lab2")


def _detected_only(rep) -> bool:
    """Whether an exploration's only faults are communication errors that
    a detecting rule found, with no stuck state."""
    ts = rep.system
    return not rep.stuck and all(
        classify_state(ts.nodes[sid], True) == "com_error"
        and ts.path_to(sid)[-1].rule in _DETECTED for sid in rep.errors)


def test_an_inhabitant_has_the_type_it_was_built_from():
    for seed in range(200):
        types, program = inhabitant_pair(seed)
        inferred = service_types(program.term)["a"]
        assert list(map(type_key, inferred)) == list(map(type_key, types))


def test_check_and_detect_explore_agree_on_inhabitants():
    compared = 0
    for seed in range(1000):
        types, program = inhabitant_pair(seed)
        try:
            safe = check_rollback_safety(program.term).safe
            rep = explore(program, 30, "detect")
        except MalformedTerm:  # an unguarded `rec`
            continue
        compared += 1
        if safe == rep.ok:
            continue
        # the open class: a partner that commits forever never reaches a
        # terminal configuration, so the type level is vacuously
        # compliant, while detect mode finds the other party's
        # communication can never happen
        assert safe and _detected_only(rep), seed
        assert any(map(_commits_forever, types)), seed
    assert compared >= 900


def test_a_partner_that_commits_forever_is_safe_but_detected():
    program = parse_program(
        "fun g(): bool\n"
        "request a(x). rec X. commit. X"
        " | accept a(y). if g() then y!<1>. 0"
        ' else y<+ l1. y!<"a">. y?(v: int). roll')
    assert check_rollback_safety(program.term).safe
    rep = explore(program, 30, "detect")
    assert rep.errors == [5] and not rep.stuck and _detected_only(rep)
    assert rep.system.path_to(5)[-1].label() == "E-Lab1 s1:p2 stuck-sel"


def test_no_detect_run_of_a_safe_inhabitant_pair_ends_badly():
    runs = 0
    for seed in range(1000):
        types, program = inhabitant_pair(seed)
        try:
            if not check_rollback_safety(program.term).safe:
                continue
        except MalformedTerm:  # an unguarded `rec`
            continue
        for oracle_seed in range(5):
            trace = simulate(program, DecisionOracle("seeded-random",
                                                     seed=oracle_seed),
                             200, "detect")
            runs += 1
            if trace.status in ("completed", "cut-off"):
                continue
            # only the open class of the exploration property above
            assert trace.status == "com_error", (seed, oracle_seed)
            assert trace.steps[-1].rule in _DETECTED, (seed, oracle_seed)
            assert any(map(_commits_forever, types)), (seed, oracle_seed)
    assert runs >= 3000
