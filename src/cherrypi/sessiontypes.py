"""Session types for checkpoint-based rollback, of two roles or more.

Communication prefixes optionally carry a role pair (own, partner): binary
types leave both unset, n-role types set the partner at inference time and
the own side as well when the role is known, else it is a placeholder
until `fill_roles` stamps it in.  Types are
frozen records (`syntax.record`), like terms: immutable, equal and hashed by
class and fields, and free to carry private caches (`_rep`, `_unfolded`)
that equality ignores.

`subtypes` and `_map_type` are the one statement of each type's shape;
`_map_type` returns a node whose children did not change as the same
object.  `subst_type`, `fill_roles`, `free_type_vars` and the parser's
contractiveness check are built on them.  `canonical_type`, `type_key`,
`render_type` and `semantics.type_transitions` stay hand-written: they
number binders, cache on the node, emit concrete syntax or step a type.
"""

from __future__ import annotations

from .syntax import MalformedTerm, _UNFOLD_FUEL, _intern, record


class TOut(metaclass=record, frozen=True):
    sort: str
    cont: "SessionTypeT"
    src: int | None = None  # own role (None = placeholder / binary)
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


def _map_type(t: SessionTypeT, go, own: int | None = None) -> SessionTypeT:
    """`t` with `go` applied to its direct subtypes and, when `own` is
    given, `own` stamped into an open own-role slot.  When nothing changes
    `t` itself comes back, so a walk copies only the spine above a change,
    and the subtrees it keeps bring their cached keys and unfoldings."""
    kind = type(t)
    if kind is TOut or kind is TIn or kind is TSel:
        c, a = t.cont, t.src
        nc, na = go(c), own if a is None else a
        return t if nc is c and na == a else kind(
            t.label if kind is TSel else t.sort, nc, na, t.dst)
    if kind is TBrn:
        arms, a = t.arms, t.src
        narms = tuple((l, go(c)) for l, c in arms)
        na = own if a is None else a
        if na == a and all(n is c for (_, n), (_, c) in zip(narms, arms)):
            return t
        return TBrn(narms, na, t.dst)
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


def head_normal_type(t: SessionTypeT) -> SessionTypeT:
    fuel = _UNFOLD_FUEL
    while isinstance(t, TMu):
        t = unfold_type(t)
        fuel -= 1
        if fuel == 0:
            raise MalformedTerm("unguarded recursive type")
    return t


def free_type_vars(t: SessionTypeT) -> frozenset:
    if isinstance(t, TVarT):
        return frozenset({t.name})
    if isinstance(t, TMu):
        return free_type_vars(t.body) - {t.var}
    return frozenset().union(*map(free_type_vars, subtypes(t)))


def fill_roles(t: SessionTypeT, own: int,
               memo: dict | None = None) -> SessionTypeT:
    """Stamp `own` into the placeholder own-role slot of every prefix; an
    already filled type comes back as it is.  A caller that fills many
    types sharing subtrees passes `memo`, a dict it keeps for this `own`:
    each node's result is kept there by the node's `id`, with the node, so
    filling a subtype of a type filled before is a lookup."""

    def go(t):
        if memo is None:
            return _map_type(t, go, own)
        hit = memo.get(id(t))
        if hit is None:
            hit = memo[id(t)] = t, _map_type(t, go, own)
        return hit[1]

    try:
        return go(t)
    finally:
        del go


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
    when their `canonical_type` texts are equal.  Computed once per node
    from its children's keys and cached on the node.  A mu node, the only
    one whose text renames binders, is keyed by its canonical text; any
    other node renders its children in its own binder scope, so its text
    is a function of its fields and its children's texts (hash-consing,
    Filliâtre & Conchon 2006)."""
    try:
        d = t.__dict__
    except AttributeError:
        raise MalformedTerm(f"not a session type: {t!r}") from None
    rep = d.get("_rep")
    if rep is not None:
        return rep.serial
    # a miss reads the node's fields, by its exact class
    cls = t.__class__
    if cls is TOut or cls is TIn:
        sig = (cls, t.sort, type_key(t.cont), t.src, t.dst)
    elif cls is TSel:
        sig = (cls, t.label, type_key(t.cont), t.src, t.dst)
    elif cls is TBrn:
        sig = (cls, tuple([(l, type_key(c)) for l, c in t.arms]),
               t.src, t.dst)
    elif cls is TPlus:
        sig = (cls, type_key(t.left), type_key(t.right))
    elif cls is TCmt:
        sig = (cls, type_key(t.cont))
    elif cls is TMu:
        sig = (cls, canonical_type(t))
    elif cls is TVarT:
        sig = (cls, t.name)
    elif cls is TEnd or cls is TErr or cls is TRollT or cls is TAbtT:
        sig = (cls,)
    else:
        raise MalformedTerm(f"not a session type: {t!r}")
    rep = d["_rep"] = _intern(sig)
    return rep.serial


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
