"""Session types for checkpoint-based rollback, of two roles or more.

Communication prefixes optionally carry a role pair (own, partner): binary
types leave both unset, n-role types set the partner at inference time and
the own side as well when the role is known, else it stays open (`_`).
Types are frozen records (`syntax.record`), like terms: immutable, equal
and hashed by class and fields, and free to carry private caches (`_rep`,
`_orep`, `_unfolded`) that equality ignores.

`subtypes` and `_map_type` are the one statement of each type's shape;
`_map_type` returns a node whose children did not change as the same
object.  `subst_type` is built on them.  `type_key`, `canonical_type`,
`render_type` and the type-level stepper `semantics._party_transitions`
stay hand-written: they key or number binders, emit concrete syntax or
step a party from its type's head.
"""

from __future__ import annotations

from .syntax import MalformedTerm, _UNFOLD_FUEL, _intern, record


class TOut(metaclass=record, frozen=True):
    sort: str
    cont: "SessionTypeT"
    src: int | None = None  # own role (None = open / binary)
    dst: int | None = None  # partner role


class TIn(metaclass=record, frozen=True):
    sort: str
    cont: "SessionTypeT"
    src: int | None = None
    dst: int | None = None


class TSel(metaclass=record, frozen=True):
    label: str
    cont: "SessionTypeT"
    src: int | None = None
    dst: int | None = None


class TBrn(metaclass=record, frozen=True):
    arms: tuple  # tuple[tuple[str, SessionTypeT], ...] (order preserved)
    src: int | None = None
    dst: int | None = None


class TPlus(metaclass=record, frozen=True):
    """Internal choice between the two continuations of a conditional."""
    left: "SessionTypeT"
    right: "SessionTypeT"


class TVarT(metaclass=record, frozen=True):
    name: str


class TMu(metaclass=record, frozen=True):
    var: str
    body: "SessionTypeT"


class TEnd(metaclass=record, frozen=True):
    pass


class TErr(metaclass=record, frozen=True):
    pass


class TCmt(metaclass=record, frozen=True):
    cont: "SessionTypeT"


class TRollT(metaclass=record, frozen=True):
    pass


class TAbtT(metaclass=record, frozen=True):
    pass


SessionTypeT = (TOut, TIn, TSel, TBrn, TPlus, TVarT, TMu, TEnd, TErr, TCmt,
                TRollT, TAbtT)


# ---------------------------------------------------------------------------
# structural helpers
# ---------------------------------------------------------------------------

def subtypes(t: SessionTypeT) -> tuple:
    """The direct subtypes of `t`, in source order."""
    if isinstance(t, (TOut, TIn, TSel, TCmt)):
        return (t.cont,)
    if isinstance(t, TPlus):
        return (t.left, t.right)
    if isinstance(t, TMu):
        return (t.body,)
    if isinstance(t, TBrn):
        return tuple(c for _, c in t.arms)
    return ()


def _map_type(t: SessionTypeT, go) -> SessionTypeT:
    """`t` with `go` applied to its direct subtypes.  When nothing changes
    `t` itself comes back, so a walk copies only the spine above a change,
    and the subtrees it keeps bring their cached keys and unfoldings."""
    kind = type(t)
    if kind is TOut or kind is TIn or kind is TSel:
        c = t.cont
        nc = go(c)
        return t if nc is c else kind(
            t.label if kind is TSel else t.sort, nc, t.src, t.dst)
    if kind is TBrn:
        arms = t.arms
        narms = tuple((l, go(c)) for l, c in arms)
        if all(n is c for (_, n), (_, c) in zip(narms, arms)):
            return t
        return TBrn(narms, t.src, t.dst)
    if kind is TPlus:
        l, r = t.left, t.right
        nl, nr = go(l), go(r)
        return t if nl is l and nr is r else TPlus(nl, nr)
    if kind is TMu:
        nb = go(t.body)
        return t if nb is t.body else TMu(t.var, nb)
    if kind is TCmt:
        nc = go(t.cont)
        return t if nc is t.cont else TCmt(nc)
    return t


def subst_type(t: SessionTypeT, name: str, r: SessionTypeT) -> SessionTypeT:
    """t[r/name].  Subtrees with no free `name` come back as the same
    objects, so unfolding a closed type never copies the closed types
    inside it (and their cached keys and unfoldings stay in use)."""

    def go(t):
        if isinstance(t, TVarT):
            return r if t.name == name else t
        if isinstance(t, TMu) and t.var == name:  # shadowed
            return t
        return _map_type(t, go)

    try:
        return go(t)
    finally:
        del go  # `go` holds itself: break the cycle, free the walk now


def unfold_type(t: TMu) -> SessionTypeT:
    """One unfolding: mu t. T  ->  T[mu t. T / t].  Built once per mu node,
    so that unfolding the same node again yields the same objects, each
    keyed once as a root by `type_key`."""
    if not isinstance(t, TMu):
        raise MalformedTerm("unfold_type expects a mu-headed type")
    try:
        return t._unfolded
    except AttributeError:
        u = subst_type(t.body, t.var, t)
        object.__setattr__(t, "_unfolded", u)
        return u


def head_normal_type(t: SessionTypeT) -> SessionTypeT:
    fuel = _UNFOLD_FUEL
    while isinstance(t, TMu):
        t = unfold_type(t)
        fuel -= 1
        if fuel == 0:
            raise MalformedTerm("unguarded recursive type")
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


# a prefix's head in canonical text, and a leaf's text (in parentheses there)
_TAG = {TOut: "out", TIn: "in", TSel: "sel", TEnd: "end", TErr: "err",
        TRollT: "roll", TAbtT: "abt"}


def canonical_type(t: SessionTypeT) -> str:
    """Canonical text: recursion binders numbered positionally, recursion kept
    folded. Equal text == equal types up to alpha-renaming."""
    return _canon(t, {}, 0)


def _canon(t, env: dict, n: int) -> str:
    kind = type(t)
    if kind is TOut or kind is TIn or kind is TSel:
        return (f"({_TAG[kind]}{_roles_tag(t.src, t.dst)} "
                f"{t.label if kind is TSel else t.sort} "
                f"{_canon(t.cont, env, n)})")
    if kind is TBrn:
        inner = " ".join(f"[{l} {_canon(c, env, n)}]" for l, c in t.arms)
        return f"(brn{_roles_tag(t.src, t.dst)} {inner})"
    if kind is TPlus:
        return f"(plus {_canon(t.left, env, n)} {_canon(t.right, env, n)})"
    if kind is TVarT:
        return env.get(t.name, f"?t:{t.name}")
    if kind is TMu:
        env2 = dict(env)
        env2[t.var] = f"t{n}"
        return f"(mu t{n} {_canon(t.body, env2, n + 1)})"
    if kind is TCmt:
        return f"(cmt {_canon(t.cont, env, n)})"
    text = _TAG.get(kind)
    if text is None:
        raise MalformedTerm(f"not a session type: {t!r}")
    return f"({text})"


def type_key(t: SessionTypeT) -> int:
    """Integer identity of a type: two live types have equal keys exactly
    when their `canonical_type` texts are equal.  A bound variable enters as
    its distance to its binder (de Bruijn 1972), as in `syntax._key`, and a
    mu node by its body's key (hash-consing, Filliâtre & Conchon 2006)."""
    return (getattr(t, "_rep", None) or _rep_of(t, (), [0])).serial


def _rep_of(t, env: tuple, low: list):
    """`t`'s representative as a root, cached in `_rep` (an open mu node's in
    `_orep`); inside binders (`env`, outermost first) its uncached signature
    unless it is a closed mu.  `low[0]` falls to the outermost binder a walk
    names (-1: free); a mu whose body names a binder outside it is open."""
    try:
        d = t.__dict__
    except AttributeError:
        raise MalformedTerm(f"not a session type: {t!r}") from None
    cls = t.__class__
    if not env or cls is TMu:
        rep = d.get("_rep") or cls is TMu and not env and d.get("_orep")
        if rep:
            return rep
    if cls is TOut or cls is TIn:
        sig = (cls, t.sort, _rep_of(t.cont, env, low), t.src, t.dst)
    elif cls is TSel:
        sig = (cls, t.label, _rep_of(t.cont, env, low), t.src, t.dst)
    elif cls is TBrn:
        sig = (cls, tuple([(l, _rep_of(c, env, low)) for l, c in t.arms]),
               t.src, t.dst)
    elif cls is TPlus:
        sig = (cls, _rep_of(t.left, env, low), _rep_of(t.right, env, low))
    elif cls is TCmt:
        sig = (cls, _rep_of(t.cont, env, low))
    elif cls is TMu:
        inner = [n := len(env)]
        sig = (cls, _rep_of(t.body, env + (t.var,), inner))
        low[0] = min(low[0], inner[0])
        if inner[0] < n:  # open
            return sig if env else d.setdefault("_orep", _intern(sig))
    elif cls is TVarT:
        at = len(env) - 1 - env[::-1].index(t.name) if t.name in env else -1
        low[0] = min(low[0], at)
        sig = (cls, t.name if at < 0 else len(env) - at)
    elif cls is TEnd or cls is TErr or cls is TRollT or cls is TAbtT:
        sig = (cls,)
    else:
        raise MalformedTerm(f"not a session type: {t!r}")
    if env and cls is not TMu:
        return sig
    return d.setdefault("_rep", _intern(sig))


def render_type(t: SessionTypeT) -> str:
    """Concrete syntax for a type, re-parsable by the type parser."""
    return _render(t, None)


def _render(t: SessionTypeT, memo: dict | None) -> str:
    """`render_type(t)`.  With a `memo` (node id -> text), each node is
    rendered once per memo; ids are only safe while the caller keeps the
    nodes alive, so a memo lives for one call."""
    if memo is not None:
        text = memo.get(id(t))
        if text is not None:
            return text
    kind = type(t)
    if kind is TOut or kind is TIn:
        text = (f"{'!' if kind is TOut else '?'}{_roles_tag(t.src, t.dst)}"
                f"[{t.sort}]. {_render(t.cont, memo)}")
    elif kind is TSel:
        text = (f"sel{_roles_tag(t.src, t.dst)}[{t.label}]. "
                f"{_render(t.cont, memo)}")
    elif kind is TBrn:
        inner = "; ".join(f"{l}: {_render(c, memo)}" for l, c in t.arms)
        text = f"brn{_roles_tag(t.src, t.dst)}[{inner}]"
    elif kind is TPlus:
        ls = _render(t.left, memo)
        # a prefix/mu/cmt left operand extends rightward and would
        # swallow the (+) on re-parse; close it off explicitly
        if type(t.left) in (TOut, TIn, TSel, TCmt, TMu):
            ls = f"({ls})"
        text = f"({ls} (+) {_render(t.right, memo)})"
    elif kind is TVarT:
        text = t.name
    elif kind is TMu:
        text = f"mu {t.var}. {_render(t.body, memo)}"
    elif kind is TCmt:
        text = f"cmt. {_render(t.cont, memo)}"
    else:
        text = _TAG.get(kind)
        if text is None:
            raise MalformedTerm(f"not a session type: {t!r}")
    if memo is not None:
        memo[id(t)] = text
    return text
