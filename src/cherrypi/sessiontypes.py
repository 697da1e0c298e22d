"""Session types for checkpoint-based rollback, binary and multiparty.

Communication prefixes optionally carry a role pair (own, partner): binary
types leave both unset, multiparty types set the partner at inference time and
the own side is a placeholder until `fill_roles` stamps it in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .syntax import MalformedTerm, _intern


@dataclass(frozen=True)
class TOut:
    sort: str
    cont: "SessionTypeT"
    src: int | None = None  # own role (None = placeholder / binary)
    dst: int | None = None  # partner role


@dataclass(frozen=True)
class TIn:
    sort: str
    cont: "SessionTypeT"
    src: int | None = None
    dst: int | None = None


@dataclass(frozen=True)
class TSel:
    label: str
    cont: "SessionTypeT"
    src: int | None = None
    dst: int | None = None


@dataclass(frozen=True)
class TBrn:
    arms: tuple  # tuple[tuple[str, SessionTypeT], ...] (order preserved)
    src: int | None = None
    dst: int | None = None


@dataclass(frozen=True)
class TPlus:
    """Internal choice between the two continuations of a conditional."""
    left: "SessionTypeT"
    right: "SessionTypeT"


@dataclass(frozen=True)
class TVarT:
    name: str


@dataclass(frozen=True)
class TMu:
    var: str
    body: "SessionTypeT"


@dataclass(frozen=True)
class TEnd:
    pass


@dataclass(frozen=True)
class TErr:
    pass


@dataclass(frozen=True)
class TCmt:
    cont: "SessionTypeT"


@dataclass(frozen=True)
class TRollT:
    pass


@dataclass(frozen=True)
class TAbtT:
    pass


SessionTypeT = Union[TOut, TIn, TSel, TBrn, TPlus, TVarT, TMu, TEnd, TErr,
                     TCmt, TRollT, TAbtT]


# ---------------------------------------------------------------------------
# structural helpers
# ---------------------------------------------------------------------------

def subst_type(t: SessionTypeT, name: str, r: SessionTypeT) -> SessionTypeT:
    """t[r/name].  Subtrees with no free `name` come back as the same
    objects, so unfolding a closed type never copies the closed types
    inside it (and their cached keys and unfoldings stay in use)."""
    match t:
        case TVarT(n):
            return r if n == name else t
        case TMu(v, body):
            if v == name:  # shadowed
                return t
            nb = subst_type(body, name, r)
            return t if nb is body else TMu(v, nb)
        case TOut(s, c, a, b):
            nc = subst_type(c, name, r)
            return t if nc is c else TOut(s, nc, a, b)
        case TIn(s, c, a, b):
            nc = subst_type(c, name, r)
            return t if nc is c else TIn(s, nc, a, b)
        case TSel(l, c, a, b):
            nc = subst_type(c, name, r)
            return t if nc is c else TSel(l, nc, a, b)
        case TBrn(arms, a, b):
            narms = tuple((l, subst_type(c, name, r)) for l, c in arms)
            if all(nc is c for (_, nc), (_, c) in zip(narms, arms)):
                return t
            return TBrn(narms, a, b)
        case TPlus(l, rr):
            nl, nr = subst_type(l, name, r), subst_type(rr, name, r)
            return t if nl is l and nr is rr else TPlus(nl, nr)
        case TCmt(c):
            nc = subst_type(c, name, r)
            return t if nc is c else TCmt(nc)
        case _:
            return t


def unfold_type(t: TMu) -> SessionTypeT:
    """One unfolding: mu t. T  ->  T[mu t. T / t].  Built once per mu node,
    so that unfolding the same node again yields the same objects and their
    cached `type_key`s."""
    if not isinstance(t, TMu):
        raise MalformedTerm("unfold_type expects a mu-headed type")
    try:
        return t._unfolded
    except AttributeError:
        u = subst_type(t.body, t.var, t)
        object.__setattr__(t, "_unfolded", u)
        return u


_UNFOLD_FUEL = 512


def head_normal_type(t: SessionTypeT) -> SessionTypeT:
    fuel = _UNFOLD_FUEL
    while isinstance(t, TMu):
        t = unfold_type(t)
        fuel -= 1
        if fuel == 0:
            raise MalformedTerm("unguarded recursive type")
    return t


def free_type_vars(t: SessionTypeT) -> frozenset:
    match t:
        case TVarT(n):
            return frozenset({n})
        case TMu(v, body):
            return free_type_vars(body) - {v}
        case TOut(_, c) | TIn(_, c) | TSel(_, c) | TCmt(c):
            return free_type_vars(c)
        case TBrn(arms):
            out: frozenset = frozenset()
            for _, c in arms:
                out |= free_type_vars(c)
            return out
        case TPlus(l, r):
            return free_type_vars(l) | free_type_vars(r)
        case _:
            return frozenset()


def fill_roles(t: SessionTypeT, own: int) -> SessionTypeT:
    """Stamp `own` into the placeholder own-role slot of every prefix."""
    match t:
        case TOut(s, c, src, dst):
            return TOut(s, fill_roles(c, own), own if src is None else src,
                        dst)
        case TIn(s, c, src, dst):
            return TIn(s, fill_roles(c, own), own if src is None else src,
                       dst)
        case TSel(l, c, src, dst):
            return TSel(l, fill_roles(c, own), own if src is None else src,
                        dst)
        case TBrn(arms, src, dst):
            return TBrn(tuple((l, fill_roles(c, own)) for l, c in arms),
                        own if src is None else src, dst)
        case TPlus(l, r):
            return TPlus(fill_roles(l, own), fill_roles(r, own))
        case TMu(v, body):
            return TMu(v, fill_roles(body, own))
        case TCmt(c):
            return TCmt(fill_roles(c, own))
        case _:
            return t


# ---------------------------------------------------------------------------
# canonical forms and rendering
# ---------------------------------------------------------------------------

def _roles_tag(src, dst) -> str:
    if src is None and dst is None:
        return ""
    a = "_" if src is None else str(src)
    b = "_" if dst is None else str(dst)
    return f"[{a},{b}]"


def canonical_type(t: SessionTypeT) -> str:
    """Canonical text: recursion binders numbered positionally, recursion kept
    folded. Equal text == equal types up to alpha-renaming."""

    def go(t, env, n) -> str:
        match t:
            case TOut(s, c, a, b):
                return f"(out{_roles_tag(a, b)} {s} {go(c, env, n)})"
            case TIn(s, c, a, b):
                return f"(in{_roles_tag(a, b)} {s} {go(c, env, n)})"
            case TSel(l, c, a, b):
                return f"(sel{_roles_tag(a, b)} {l} {go(c, env, n)})"
            case TBrn(arms, a, b):
                inner = " ".join(f"[{l} {go(c, env, n)}]" for l, c in arms)
                return f"(brn{_roles_tag(a, b)} {inner})"
            case TPlus(l, r):
                return f"(plus {go(l, env, n)} {go(r, env, n)})"
            case TVarT(v):
                return env.get(v, f"?t:{v}")
            case TMu(v, body):
                env2 = dict(env)
                env2[v] = f"t{n}"
                return f"(mu t{n} {go(body, env2, n + 1)})"
            case TEnd():
                return "(end)"
            case TErr():
                return "(err)"
            case TCmt(c):
                return f"(cmt {go(c, env, n)})"
            case TRollT():
                return "(roll)"
            case TAbtT():
                return "(abt)"
        raise MalformedTerm(f"not a session type: {t!r}")

    return go(t, {}, 0)


def type_key(t: SessionTypeT) -> int:
    """Integer identity of a type: two live types have equal keys exactly
    when their `canonical_type` texts are equal.  Computed once per node
    from its children's keys and cached on the node.  A mu node, the only
    one whose text renames binders, is keyed by its canonical text; any
    other node renders its children in its own binder scope, so its text
    is a function of its fields and its children's texts (hash-consing,
    Filliâtre & Conchon 2006)."""
    try:
        return t._rep.serial
    except AttributeError:
        pass
    match t:
        case TOut(s, c, a, b):
            sig = (TOut, s, type_key(c), a, b)
        case TIn(s, c, a, b):
            sig = (TIn, s, type_key(c), a, b)
        case TSel(l, c, a, b):
            sig = (TSel, l, type_key(c), a, b)
        case TBrn(arms, a, b):
            sig = (TBrn, tuple((l, type_key(c)) for l, c in arms), a, b)
        case TPlus(l, r):
            sig = (TPlus, type_key(l), type_key(r))
        case TCmt(c):
            sig = (TCmt, type_key(c))
        case TVarT(v):
            sig = (TVarT, v)
        case TMu():
            sig = (TMu, canonical_type(t))
        case TEnd() | TErr() | TRollT() | TAbtT():
            sig = (type(t),)
        case _:
            raise MalformedTerm(f"not a session type: {t!r}")
    rep = _intern(sig)
    object.__setattr__(t, "_rep", rep)
    return rep.serial


def render_type(t: SessionTypeT) -> str:
    """Concrete syntax for a type, re-parsable by the type parser."""
    match t:
        case TOut(s, c, a, b):
            return f"!{_roles_tag(a, b)}[{s}]. {render_type(c)}"
        case TIn(s, c, a, b):
            return f"?{_roles_tag(a, b)}[{s}]. {render_type(c)}"
        case TSel(l, c, a, b):
            return f"sel{_roles_tag(a, b)}[{l}]. {render_type(c)}"
        case TBrn(arms, a, b):
            inner = "; ".join(f"{l}: {render_type(c)}" for l, c in arms)
            return f"brn{_roles_tag(a, b)}[{inner}]"
        case TPlus(l, r):
            ls = render_type(l)
            # a prefix/mu/cmt left operand extends rightward and would
            # swallow the (+) on re-parse; close it off explicitly
            if isinstance(l, (TOut, TIn, TSel, TCmt, TMu)):
                ls = f"({ls})"
            return f"({ls} (+) {render_type(r)})"
        case TVarT(v):
            return v
        case TMu(v, body):
            return f"mu {v}. {render_type(body)}"
        case TEnd():
            return "end"
        case TErr():
            return "err"
        case TCmt(c):
            return f"cmt. {render_type(c)}"
        case TRollT():
            return "roll"
        case TAbtT():
            return "abt"
    raise MalformedTerm(f"not a session type: {t!r}")
