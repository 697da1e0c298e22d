import functools
import gc
import random
from pathlib import Path

from hypothesis import given, settings, strategies as st

from conftest import fill_roles, free_type_vars
from genprog import random_program, random_type
from references import free_names
from cherrypi.multiparty import m_explore, to_multiparty
from cherrypi.parser import parse_program, parse_type, render_process
from cherrypi.runtime import explore
from cherrypi.sessiontypes import (TMu, subst_type, subtypes, type_key,
                                   unfold_type)
from cherrypi.syntax import (_REPS, _drop, _intern, Accept, Branch, Call, ChanVar,
                             CheckpointProcess, Commit, Endpoint, ErrorState,
                             If, Inact,
                             Lit, Log, Par, PVar, Rec, Recv,
                             Request, Roll, Select, Send, Session, Ufun, Var,
                             canonicalize, head_normal, par,
                             par_parts, process_key,
                             subprocesses, substitute, term_key,
                             unfold_recursion)

k = ChanVar("k")


def equivalent(a, b) -> bool:
    return canonicalize(a).text == canonicalize(b).text


def loop(var="X"):
    return Rec(var, Send(k, Lit(1), PVar(var)))


def test_alpha_renaming_is_invisible():
    assert equivalent(loop("X"), loop("Z"))
    assert canonicalize(loop("X")).text == canonicalize(loop("Q")).text


def test_distinct_processes_stay_distinct():
    assert not equivalent(loop(), Rec("X", Send(k, Lit(2), PVar("X"))))
    assert not equivalent(Send(k, Lit(1), Inact()),
                          Recv(k, "v", "int", Inact()))


def test_par_is_commutative_up_to_congruence():
    a = Request("a", "x", Send(ChanVar("x"), Lit(1), Inact()))
    b = Accept("a", "y", Recv(ChanVar("y"), "v", "int", Inact()))
    assert canonicalize(par(a, b)).text == canonicalize(par(b, a)).text


def test_par_parts_flattens():
    a, b, c = Inact(), Roll(), Commit(Inact())
    assert list(par_parts(par(a, par(b, c)))) == [a, b, c]


def test_substitute_replaces_free_value_vars():
    body = Send(k, Var("u"), Inact())
    assert substitute(body, "u", Lit(5)) == Send(k, Lit(5), Inact())


def test_substitute_respects_binders():
    # the inner receive rebinds u, so its body is untouched
    body = Recv(k, "u", "int", Send(k, Var("u"), Inact()))
    assert substitute(body, "u", Lit(7)) == body


def test_substitute_renames_a_binder_that_would_capture():
    # the replacement's free Y would be caught by the rec Y it lands under
    body = Rec("Y", Branch(k, (("a", PVar("X")), ("b", PVar("Y")))))
    assert substitute(body, "X", PVar("Y")) == \
        Rec("Y_1", Branch(k, (("a", PVar("Y")), ("b", PVar("Y_1")))))
    # a fresh name is one no name around it takes
    assert substitute(Rec("Y", Branch(k, (("a", PVar("X")),
                                          ("b", PVar("Y_1"))))),
                      "X", PVar("Y")).var == "Y_2"


def test_head_normal_unfolds_recursion_at_the_head():
    r = loop()
    h = head_normal(r)
    assert isinstance(h, Send)
    assert h == head_normal(unfold_recursion(r))


def test_head_normal_stops_at_prefixes():
    p = Send(k, Lit(1), loop())
    assert head_normal(p) is p


def test_free_names_of_open_process():
    p = Send(k, Var("u"), Recv(k, "w", "int", Inact()))
    vals, procs, chans = free_names(p)
    assert vals == frozenset({"u"})
    assert procs == frozenset()
    assert chans == frozenset({"k"})


def test_branch_arm_order_is_part_of_identity():
    # arm order is declaration order, not a set: congruence covers par
    # reordering, alpha renaming and unfolding, nothing else
    b1 = Branch(k, (("l", Inact()), ("r", Roll())))
    b2 = Branch(k, (("r", Roll()), ("l", Inact())))
    assert not equivalent(b1, b2)
    assert equivalent(b1, Branch(k, (("l", Inact()), ("r", Roll()))))


def test_conditional_structure_survives_canonicalization():
    p = If(Lit(True), Select(k, "l", Inact()), Roll())
    assert equivalent(p, If(Lit(True), Select(k, "l", Inact()), Roll()))
    assert not equivalent(p, If(Lit(False), Select(k, "l", Inact()), Roll()))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_generated_terms_canonicalize_stably(seed):
    prog = random_program(random.Random(seed), safe=(seed % 2 == 0))
    c1 = canonicalize(prog.term).text
    c2 = canonicalize(prog.term).text
    assert c1 == c2
    parts = list(par_parts(prog.term))
    assert canonicalize(par(*reversed(parts))).text == c1


# -- keys ---------------------------------------------------------------------

def _renamed(t, f):
    """`t` with every variable and session name `n` renamed to `f(n)`; on a
    closed term that is an alpha-renaming."""
    def chan(r):
        if isinstance(r, ChanVar):
            return ChanVar(f(r.name))
        return type(r)(f(r.session), r.role)

    def expr(e):
        match e:
            case Var(n):
                return Var(f(n))
            case Call(op, args):
                return Call(op, tuple(expr(a) for a in args))
            case Ufun(fn, args, asorts, rsort, dom):
                return Ufun(fn, tuple(expr(a) for a in args), asorts, rsort,
                            dom)
        return e

    def go(t):
        match t:
            case Send(ch, e, cont, r):
                return Send(chan(ch), expr(e), go(cont), r)
            case Recv(ch, y, s, cont, r):
                return Recv(chan(ch), f(y), s, go(cont), r)
            case Select(ch, lab, cont, r):
                return Select(chan(ch), lab, go(cont), r)
            case Branch(ch, arms, r):
                return Branch(chan(ch), tuple((lab, go(a)) for lab, a in arms),
                              r)
            case If(cond, a, b):
                return If(expr(cond), go(a), go(b))
            case Rec(x, body):
                return Rec(f(x), go(body))
            case PVar(x):
                return PVar(f(x))
            case Commit(cont):
                return Commit(go(cont))
            case Request(a, x, body, role):
                return Request(a, f(x), go(body), role)
            case Accept(a, x, body, role):
                return Accept(a, f(x), go(body), role)
            case Par(parts):
                return Par(tuple(go(q) for q in parts))
            case Session(s, saved, body):
                return Session(f(s), go(saved), go(body))
            case Log(ep, ckpt, cur):
                return Log(chan(ep), CheckpointProcess(go(ckpt.process),
                                                       ckpt.imposed), go(cur))
        return t

    return go(t)


def _reordered(t):
    """`t` with every parallel composition reversed."""
    match t:
        case Par(parts):
            return Par(tuple(_reordered(q) for q in reversed(parts)))
        case Session(s, saved, body):
            return Session(s, _reordered(saved), _reordered(body))
    return t


def _error_swapped(t):
    """`t` with each error state of the other kind."""
    match t:
        case ErrorState(kind):
            return ErrorState("com_error" if kind == "roll_error"
                              else "roll_error")
        case Par(parts):
            return Par(tuple(_error_swapped(q) for q in parts))
        case Session(s, saved, body):
            return Session(s, saved, _error_swapped(body))
    return t


def _log_processes(c):
    for it in par_parts(c):
        if isinstance(it, Session):
            for lg in par_parts(it.body):
                if isinstance(lg, Log):
                    yield lg.ckpt.process
                    yield lg.current


def _assert_keys_match_texts(terms, key, text):
    by_text, by_key = {}, {}
    for t in terms:
        k, s = key(t), text(t)
        by_text.setdefault(s, set()).add(k)
        by_key.setdefault(k, set()).add(s)
    assert all(len(ks) == 1 for ks in by_text.values())
    assert all(len(ss) == 1 for ss in by_key.values())


RULES = Path(__file__).parent / "rules"


@functools.cache
def _rule_states() -> tuple:
    """The depth-8 detect explorations of the programs of `tests/rules/`,
    which take every error rule."""
    return tuple(s for path in sorted(RULES.glob("*.chpi"))
                 for s in explore(parse_program(path.read_text()), depth=8,
                                  mode="detect").states)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_keys_are_equal_exactly_when_texts_are(seed):
    rng = random.Random(seed)
    progs = [random_program(rng, safe=(seed % 2 == 0)),
             random_program(rng, safe=(seed % 2 == 0), int_guards=True)]
    if seed % 3 == 0:
        progs = list(map(to_multiparty, progs))
    found = [*_rule_states()]
    for prog in progs:
        found += explore(prog, depth=8, mode="detect").states
    # an alpha-renamed copy, a copy whose session names are shuffled the way
    # another connection order would number them, a reordered copy, and
    # a copy whose error states are of the other kind
    swap = {"s1": "s2", "s2": "s1"}
    states = list(found)
    states += [_renamed(s, lambda n: n + "_r") for s in found]
    states += [_renamed(s, lambda n: swap.get(n, n)) for s in found]
    states += [_reordered(s) for s in found]
    states += [_error_swapped(s) for s in found]
    _assert_keys_match_texts(states, term_key,
                             lambda c: canonicalize(c).text)
    procs = [p for s in states for p in _log_processes(s)]
    procs += [head_normal(p) for p in procs]
    _assert_keys_match_texts(procs, process_key,
                             lambda p: canonicalize(p).text)


def test_keys_abstract_session_names_binders_and_order():
    a = Request("a", "x", Recv(ChanVar("x"), "v", "int",
                               Send(ChanVar("x"), Var("v"), Inact())))
    b = Accept("a", "y", Send(ChanVar("y"), Lit(1),
                              Recv(ChanVar("y"), "w", "int", Inact())))
    initial = par(a, b)
    assert term_key(initial) == term_key(par(b, _renamed(a, str.upper)))
    ses = Session("s1", initial,
                  par(Log(Endpoint("s1", 2), CheckpointProcess(Inact()),
                          Inact()),
                      Log(Endpoint("s1", 1), CheckpointProcess(Roll()),
                          Inact())))
    renamed = _renamed(ses, lambda n: "s7" if n == "s1" else n)
    assert term_key(ses) == term_key(renamed)
    assert term_key(par(ses, a)) == term_key(par(a, renamed))
    # a bare process keeps its free session names
    p = Send(Endpoint("s1", 2), Lit(1), Inact())
    assert process_key(p) != process_key(_renamed(p, lambda n: "s2"))
    # the imposed flag of a checkpoint is part of the key
    imposed = Session("s1", initial,
                      par(Log(Endpoint("s1", 2),
                              CheckpointProcess(Inact(), imposed=True),
                              Inact()),
                          ses.body.parts[1]))
    assert term_key(imposed) != term_key(ses)
    # the literal's sort is part of the key, as it is of the text
    assert process_key(Send(k, Lit(True), Inact())) != \
        process_key(Send(k, Lit(1), Inact()))


def test_a_subterm_keyed_alone_keeps_its_binder_inside_a_term():
    body = Send(k, Var("u"), Inact())
    alone = process_key(body)  # u free here, bound below
    bound, other = Recv(k, "u", "int", body), Recv(k, "w", "int", body)
    assert process_key(bound) != process_key(other)
    assert process_key(body) == alone
    assert process_key(bound) == process_key(Recv(k, "z", "int",
                                                  Send(k, Var("z"), Inact())))


def test_substitution_shares_untouched_subtrees():
    tail = Rec("X", Send(k, Lit(1), PVar("X")))
    p = Recv(k, "u", "int", Send(k, Var("u"), tail))
    q = substitute(p.cont, "u", Lit(3))
    assert q.cont is tail
    assert unfold_recursion(tail) is unfold_recursion(tail)
    assert substitute(tail, "u", Lit(3)) is tail


def test_a_substitution_tells_value_sorts_apart_and_keeps_unchanged_nodes():
    p = Send(k, Var("v"), Send(k, Call("eq", (Var("v"), Lit(True))),
                               Inact()))
    # `True == 1`, yet each substitutes as its own sort
    as_bool, as_int = substitute(p, "v", Lit(True)), substitute(p, "v", Lit(1))
    assert render_process(as_bool) != render_process(as_int)
    # an unchanged result is the node itself
    q = Send(k, Lit(1), Inact())
    assert substitute(q, "v", Lit(1)) is q
    assert substitute(q, "k2", Endpoint("s1", 2)) is q


def _subterms(t, children):
    yield t
    for c in children(t):
        yield from _subterms(c, children)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_types_not_containing_a_name_come_back_as_themselves(seed):
    t = random_type(random.Random(seed))
    for u in _subterms(t, subtypes):
        for name in ("t1", "t2", "t3", "t5", "zz"):
            if name not in free_type_vars(u):
                assert subst_type(u, name, TMu("q", u)) is u
        filled = fill_roles(u, 2)
        assert fill_roles(filled, 2) is filled
        assert fill_roles(filled, 3) is filled
        if isinstance(u, TMu):
            # each mu node unfolds once, so its unfolding keeps its keys
            assert unfold_type(u) is unfold_type(u)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_processes_not_containing_a_name_come_back_as_themselves(seed):
    prog = random_program(random.Random(seed), safe=(seed % 2 == 0))
    twin = to_multiparty(prog)
    for part in par_parts(prog.term) + par_parts(twin.term):
        for p in _subterms(part.body, subprocesses):
            vs, xs, cs = free_names(p)
            for name in ("v1", "v2", "v3", "X", "Y", "x", "y", "zz"):
                if name not in vs:
                    assert substitute(p, name, Lit(0)) is p
                if name not in xs:
                    assert substitute(p, name, Rec("Q", PVar("Q"))) is p
                if name not in cs:
                    assert substitute(p, name, ChanVar("q")) is p


def test_term_key_table_does_not_outlive_exploration(corpus):
    gc.collect()
    before = len(_REPS)
    program = parse_program((corpus / "three_party_job.chpi").read_text())
    reports = [m_explore(program, depth=12, mode="detect")]
    program = parse_program((corpus / "vod_c.chpi").read_text())
    reports.append(explore(program, depth=12, mode="detect"))
    assert len(_REPS) > before
    del program, reports
    gc.collect()
    assert len(_REPS) == before


# -- the intern table ---------------------------------------------------------

def test_a_late_callback_leaves_the_new_entry_in_place():
    sig = ("intern test", "late callback")
    first = _intern(sig)
    stale = _REPS[sig]
    del first  # its reference's callback drops the entry
    assert sig not in _REPS
    second = _intern(sig)
    # the stale reference's callback run again, after the signature was
    # interned anew, as a collection can run it late
    _drop(stale)
    assert _REPS[sig]() is second


def test_a_signature_interned_after_its_representative_died_is_renumbered():
    sig = ("intern test", "renumbered")
    serial = _intern(sig).serial  # nothing keeps the representative
    assert sig not in _REPS
    again = _intern(sig)
    assert again.serial > serial
    assert _intern(sig) is again


def test_a_dropped_recursive_type_leaves_no_entries():
    gc.collect()
    before = len(_REPS)
    t = parse_type("mu t. sel[l_intern_test]. brn[l_a: t; l_b: end]")
    type_key(t)
    type_key(unfold_type(t))
    # the unfolding holds the mu node, which holds the unfolding
    assert unfold_type(t).cont.arms[0][1] is t
    assert len(_REPS) > before
    del t
    gc.collect()
    assert len(_REPS) == before
