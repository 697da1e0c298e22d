"""Core term syntax: expressions, processes, collaborations, canonical forms.

Terms are immutable records (see `record`): assigning to or deleting a
field raises, two terms are equal when they are of the same class with
equal fields, and equal terms hash alike, so terms can be shared freely
and used as keys; every operation that "changes" a term builds a new one.
A record's fields are slots; a node caches what is derived from it alone
(free names, key, unfolding) in private attributes of its `__dict__`, a
slot of its own that starts empty, and equality, hashing and `repr`
ignore it.  Collaboration terms cover both the surface language
(request/accept/parallel) and the runtime-only constructs (sessions, logs,
error states) produced by reduction.

Which fields of a process are sub-processes, and in what order, is written
once: `subprocesses` lists a node's children in source order, and
`_map_proc` rebuilds a node from its mapped children, expressions, session
identifier and partner role.  Substitution, role annotation and the
parser's static checks walk processes through these two.  Walkers that do
more than follow the shape stay hand-written: `_names` and `_key` track
binders and cache on the node, `canonicalize` is the independent
reference the tests compare keys against, and rendering, typing and
reduction give each constructor a meaning of its own.  A walker's
recursive helper is a module-level function, or a closure its caller
deletes on the way out (`del go`), so no call leaves a reference cycle
behind for the cyclic collector.

The builtin operators are one table, `OPERATORS`: parsing, rendering,
typing and evaluation read each operator's facts from its row.
"""

from __future__ import annotations

import itertools
import weakref
from operator import add, attrgetter, eq, lt, not_
from typing import Callable, NamedTuple, Union

SORTS = ("bool", "int", "str")


class Operator(NamedTuple):
    """A builtin operator.  A larger `prec` binds tighter; `grouping` is
    "left" (`a + b + c` is `(a + b) + c`), "none" (`a == b == c` does not
    parse) or "prefix" (one operand, after the symbol); `operands` holds
    each operand's sort, None for "any sort, one for all the Nones"."""
    symbol: str
    prec: int
    grouping: str
    operands: tuple
    result: str
    meaning: Callable


# the builtin operators, by their name in `Call.op`; every fact about one
# is written here and nowhere else
OPERATORS = {
    "or": Operator("||", 1, "left", ("bool", "bool"), "bool",
                   lambda a, b: a or b),
    "and": Operator("&&", 2, "left", ("bool", "bool"), "bool",
                    lambda a, b: a and b),
    "eq": Operator("==", 3, "none", (None, None), "bool", eq),
    "lt": Operator("<", 3, "none", ("int", "int"), "bool", lt),
    "add": Operator("+", 4, "left", ("int", "int"), "int", add),
    "concat": Operator("++", 4, "left", ("str", "str"), "str", add),
    "not": Operator("!", 5, "prefix", ("bool",), "bool", not_),
}


def operator_of(call, error: type) -> Operator:
    """The row of a `Call`'s operator; `error` (the caller's error class)
    if the operator is unknown or takes another number of operands."""
    row = OPERATORS.get(call.op)
    if row is None or len(call.args) != len(row.operands):
        raise error(f"not an expression: {call!r}")
    return row


class MalformedTerm(Exception):
    """An operation met a term outside its contract (unguarded recursion,
    unbound variable, substitution kind mismatch, ...)."""


class MalformedInput(ValueError):
    """An input file that is not of the documented shape: text that is not
    UTF-8, a decision script that does not map function names to lists of
    values, a trace that is not what `runtime.Trace.to_json` writes."""


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


def _refuse_set(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _refuse_del(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls=None, *, frozen=False):
    """Class decorator for the term, type and report classes: their fields
    are the class annotations in order, and a class attribute of a field's
    name is its default.  The class is rebuilt with its fields in
    `__slots__`, plus `__dict__` for the node caches, so a field read is a
    slot read; a default lives on as the `__init__` default only.  It adds
    what `dataclasses.dataclass` would: `__init__` with the fields as
    parameters, `__eq__` comparing field tuples of instances of the very
    same class (`NotImplemented` otherwise), `__repr__` as
    `Name(field=value!r, ...)` and `__match_args__`, which is also the
    field list.  A frozen record hashes by its field tuple and refuses
    assignment and deletion (its `__init__` writes each field through the
    slot's descriptor); its caches are written with `object.__setattr__`
    or into `__dict__`, which starts empty, and equality, hashing and
    `repr` ignore them, as do `copy` and `pickle`, which rebuild a frozen
    record from its fields (`__reduce__`).  A mutable record is
    unhashable.  One `exec` per
    class builds the methods, which keeps import cheap.  No class
    subclasses a record: the walkers dispatch on the exact class."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    body = dict(cls.__dict__)
    names = tuple(body.get("__annotations__", ()))
    ns = {f"_d_{n}": body.pop(n) for n in names if n in body}
    for name in ("__dict__", "__weakref__"):
        body.pop(name, None)
    body["__slots__"] = names + ("__dict__",)
    body["__qualname__"] = cls.__qualname__
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    if frozen:
        ns.update((f"_s_{n}", vars(cls)[n].__set__) for n in names)
    params = "".join(f", {n}=_d_{n}" if f"_d_{n}" in ns else f", {n}"
                     for n in names)
    sets = "".join(f"    _s_{n}(self, {n})\n" if frozen else
                   f"    self.{n} = {n}\n" for n in names)
    own = "".join(f"self.{n}, " for n in names)
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    exec(f"def __init__(self{params}):\n{sets or '    pass'}\n"
         f"def __eq__(self, other):\n"
         f"    if other.__class__ is self.__class__:\n"
         f"        return ({own}) == ({own.replace('self.', 'other.')})\n"
         f"    return NotImplemented\n"
         f"def __hash__(self):\n"
         f"    return hash(({own}))\n"
         f"def __reduce__(self):\n"
         f"    return self.__class__, ({own})\n"
         f"def __repr__(self):\n"
         f"    return self.__class__.__qualname__ + f'({shown})'\n", ns)
    for name in ("__init__", "__eq__", "__repr__") + (
            ("__hash__", "__reduce__") if frozen else ()):
        ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, ns[name])
    cls.__match_args__ = names
    if frozen:
        cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_del
    else:
        cls.__hash__ = None
    return cls


# ---------------------------------------------------------------------------
# session identifiers
# ---------------------------------------------------------------------------

@record(frozen=True)
class ChanVar:
    """A session variable as written in source (`x` in `request a(x).P`)."""
    name: str


@record(frozen=True)
class Endpoint:
    """A binary session endpoint; `plus` marks the requester's side."""
    session: str
    plus: bool


@record(frozen=True)
class MEndpoint:
    """A multiparty session endpoint, owned by one role of the session."""
    session: str
    role: int


SessionId = Union[ChanVar, Endpoint, MEndpoint]


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

@record(frozen=True)
class Lit:
    value: object  # bool | int | str

    def sort(self) -> str:
        if isinstance(self.value, bool):
            return "bool"
        if isinstance(self.value, int):
            return "int"
        if isinstance(self.value, str):
            return "str"
        raise MalformedTerm(f"literal of unknown sort: {self.value!r}")


@record(frozen=True)
class Var:
    name: str


@record(frozen=True)
class Call:
    """Application of a builtin operator, named as in `OPERATORS`."""
    op: str
    args: tuple  # tuple[Expression, ...]


@record(frozen=True)
class Ufun:
    """Uninterpreted function call.

    The node carries its declared signature (folded in from the program's
    declarations) so the collaboration term is self-contained: typing reads
    `result_sort`, evaluation draws a decision of that sort, and exploration
    branches over `domain` when one was declared.
    """
    name: str
    args: tuple  # tuple[Expression, ...]
    arg_sorts: tuple  # tuple[str, ...]
    result_sort: str
    domain: tuple | None = None  # declared finite outcome domain (literals)


Expression = Union[Lit, Var, Call, Ufun]


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

@record(frozen=True)
class Send:
    chan: SessionId
    expr: Expression
    cont: "Process"
    to_role: int | None = None  # partner role (multiparty only)


@record(frozen=True)
class Recv:
    chan: SessionId
    var: str
    sort: str
    cont: "Process"
    from_role: int | None = None


@record(frozen=True)
class Select:
    chan: SessionId
    label: str
    cont: "Process"
    to_role: int | None = None


@record(frozen=True)
class Branch:
    chan: SessionId
    arms: tuple  # tuple[tuple[str, Process], ...]  (order preserved)
    from_role: int | None = None


@record(frozen=True)
class If:
    cond: Expression
    then: "Process"
    orelse: "Process"


@record(frozen=True)
class Rec:
    var: str
    body: "Process"


@record(frozen=True)
class PVar:
    name: str


@record(frozen=True)
class Inact:
    pass


@record(frozen=True)
class Commit:
    cont: "Process"


@record(frozen=True)
class Roll:
    pass


@record(frozen=True)
class Abort:
    pass


Process = Union[Send, Recv, Select, Branch, If, Rec, PVar, Inact, Commit,
                Roll, Abort]


# ---------------------------------------------------------------------------
# collaborations (surface + runtime)
# ---------------------------------------------------------------------------

@record(frozen=True)
class Request:
    chan: str
    var: str
    body: Process
    role: int | None = None  # multiparty: the requester's role == arity n


@record(frozen=True)
class Accept:
    chan: str
    var: str
    body: Process
    role: int | None = None


@record(frozen=True)
class Par:
    parts: tuple  # tuple[Collaboration, ...], len >= 2, pre-flattened


@record(frozen=True)
class CheckpointProcess:
    """A log's saved process; `imposed` marks a checkpoint written by the
    partner's commit rather than by the owner's own."""
    process: Process
    imposed: bool = False


@record(frozen=True)
class Log:
    endpoint: Endpoint | MEndpoint
    ckpt: CheckpointProcess
    current: Process


@record(frozen=True)
class Session:
    """Running session: `saved` is the collaboration that initiated it and is
    restored wholesale by an abort; `body` holds the logs."""
    name: str
    saved: "Collaboration"
    body: "Collaboration"


@record(frozen=True)
class RollError:
    pass


@record(frozen=True)
class ComError:
    pass


Collaboration = Union[Request, Accept, Par, Session, Log, RollError, ComError]
_TERMS = frozenset(Process.__args__ + Collaboration.__args__)
_LEAVES = frozenset({Inact, Roll, Abort, RollError, ComError})


def par(*parts) -> Collaboration:
    """Smart parallel constructor: flattens nested Par, drops nothing."""
    flat: list = []
    for p in parts:
        if isinstance(p, Par):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        raise MalformedTerm("empty parallel composition")
    if len(flat) == 1:
        return flat[0]
    return Par(tuple(flat))


def par_parts(c: Collaboration) -> tuple:
    return c.parts if isinstance(c, Par) else (c,)


# ---------------------------------------------------------------------------
# free names
# ---------------------------------------------------------------------------

_NO_NAMES: frozenset = frozenset()


def _join(names: frozenset, *more) -> frozenset:
    """Union that returns `names` itself when the others add nothing, so
    nodes along a chain share one set."""
    for m in more:
        if not m <= names:
            names = names | m
    return names


def _unbind(names: frozenset, name: tuple) -> frozenset:
    return names - {name} if name in names else names


def _chan_names(r) -> frozenset:
    if isinstance(r, ChanVar):
        return frozenset({("c", r.name)})
    if isinstance(r, (Endpoint, MEndpoint)):
        return frozenset({("s", r.session)})
    raise MalformedTerm(f"not a session identifier: {r!r}")


def _expr_names(e) -> frozenset:
    kind = type(e)
    if kind is Var:
        return frozenset({("v", e.name)})
    if kind is Call or kind is Ufun:
        return _join(_NO_NAMES, *(_expr_names(a) for a in e.args))
    return _NO_NAMES


def _names(t) -> frozenset:
    """Free names of a process or collaboration as (kind, name) pairs:
    kind "v" a value variable, "x" a process variable, "c" a session
    variable, "s" a session name.  Cached on the node."""
    names = t.__dict__.get("_fv")
    if names is not None:
        return names
    kind = type(t)
    if kind is Send:
        names = _join(_names(t.cont), _chan_names(t.chan), _expr_names(t.expr))
    elif kind is Recv:
        names = _join(_unbind(_names(t.cont), ("v", t.var)),
                      _chan_names(t.chan))
    elif kind is Select:
        names = _join(_names(t.cont), _chan_names(t.chan))
    elif kind is Branch:
        names = _join(_chan_names(t.chan), *(_names(a) for _, a in t.arms))
    elif kind is If:
        names = _join(_names(t.then), _names(t.orelse), _expr_names(t.cond))
    elif kind is Rec:
        names = _unbind(_names(t.body), ("x", t.var))
    elif kind is PVar:
        names = frozenset({("x", t.name)})
    elif kind is Commit:
        names = _names(t.cont)
    elif kind is Log:
        names = _join(_names(t.current), _names(t.ckpt.process),
                      _chan_names(t.endpoint))
    elif kind is Par:
        names = _join(*(_names(q) for q in t.parts))
    elif kind is Session:
        names = _join(_names(t.saved), _unbind(_names(t.body), ("s", t.name)))
    elif kind is Request or kind is Accept:
        names = _unbind(_names(t.body), ("c", t.var))
    elif kind in _LEAVES:
        names = _NO_NAMES
    else:
        raise MalformedTerm(f"not a process or collaboration: {t!r}")
    t.__dict__["_fv"] = names
    return names


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def _subst_expr(e, name: str, v: Lit):
    kind = type(e)
    if kind is Var:
        return v if e.name == name else e
    if kind is Call:
        return Call(e.op, tuple(_subst_expr(a, name, v) for a in e.args))
    if kind is Ufun:
        return Ufun(e.name, tuple(_subst_expr(a, name, v) for a in e.args),
                    e.arg_sorts, e.result_sort, e.domain)
    return e


def _keep(e):
    return e


def subprocesses(p: Process) -> tuple:
    """The direct sub-processes of `p`, in source order."""
    if isinstance(p, (Send, Recv, Select, Commit)):
        return (p.cont,)
    if isinstance(p, If):
        return (p.then, p.orelse)
    if isinstance(p, Rec):
        return (p.body,)
    if isinstance(p, Branch):
        return tuple(a for _, a in p.arms)
    return ()


def _map_proc(p, go, expr=_keep, chan=_keep, role=_keep) -> Process:
    """`p` rebuilt with `go` applied to its sub-processes, `expr` to its
    expressions, `chan` to its session identifier and `role` to its
    partner role."""
    kind = type(p)
    if kind is Send:
        return Send(chan(p.chan), expr(p.expr), go(p.cont), role(p.to_role))
    if kind is Recv:
        return Recv(chan(p.chan), p.var, p.sort, go(p.cont),
                    role(p.from_role))
    if kind is Select:
        return Select(chan(p.chan), p.label, go(p.cont), role(p.to_role))
    if kind is Branch:
        return Branch(chan(p.chan), tuple((l, go(a)) for l, a in p.arms),
                      role(p.from_role))
    if kind is If:
        return If(expr(p.cond), go(p.then), go(p.orelse))
    if kind is Rec:
        return Rec(p.var, go(p.body))
    if kind is Commit:
        return Commit(go(p.cont))
    return p


# each substitution returns a subtree without a free `name` as the same
# object, so unfolding or receiving never copies what it does not change
def _subst_leaves(p: Process, free: tuple, expr=_keep, chan=_keep) \
        -> Process:
    """`p` with `expr` and `chan` applied at every node where the name
    `free` (see `_names`) is free."""
    def go(q):
        return q if free not in _names(q) else _map_proc(q, go, expr, chan)

    try:
        return go(p)
    finally:
        del go  # `go` holds itself: break the cycle, free the walk now


def _fresh(base: str, used: set) -> str:
    if base not in used:
        return base
    i = 1
    while f"{base}_{i}" in used:
        i += 1
    return f"{base}_{i}"


def _proc_vars(p: Process) -> set:
    """The free process variables of `p`."""
    return {n for k, n in _names(p) if k == "x"}


def _subst_proc(p: Process, name: str, q: Process) -> Process:
    free = ("x", name)
    q_free = _proc_vars(q)

    def go(p):
        if free not in _names(p):  # absent or shadowed
            return p
        kind = type(p)
        if kind is PVar:
            return q
        if kind is Rec and p.var in q_free:
            # capture: rename the binder first
            x2 = _fresh(p.var, q_free | _proc_vars(p.body) | {name})
            return Rec(x2, go(_subst_proc(p.body, p.var, PVar(x2))))
        return _map_proc(p, go)

    try:
        return go(p)
    finally:
        del go


def substitute(term: Process, name: str, replacement) -> Process:
    """Capture-avoiding substitution of `replacement` for `name` in `term`.

    The replacement's kind selects what is substituted: a literal replaces a
    value variable, a session identifier replaces a session variable, and a
    process replaces a process variable.  Subtrees without a free `name`
    come back as the same objects.

    A value or session-identifier substitution that changes `term` is kept
    on it (`_sub`), by (name, the value's class, value) — the class since
    `True == 1` — or by (name, identifier), so a round that receives the
    same value, or reconnects the same endpoint, gets the same objects
    back.  An unchanged result is not kept: it would hold its own node.
    """
    if type(term) not in _TERMS:
        raise MalformedTerm(f"not a process or collaboration: {term!r}")
    if isinstance(replacement, Lit):
        v = replacement.value
        return _kept_subst(term, (name, type(v), v), replacement)
    if isinstance(replacement, (ChanVar, Endpoint, MEndpoint)):
        return _kept_subst(term, (name, replacement), replacement)
    if isinstance(replacement, (Send, Recv, Select, Branch, If, Rec, PVar,
                                Inact, Commit, Roll, Abort)):
        return _subst_proc(term, name, replacement)
    raise MalformedTerm(
        f"substitution replacement of unsupported kind: {replacement!r}")


def _kept_subst(term, key: tuple, replacement) -> Process:
    """A value or session-identifier `substitute`, kept on `term` by
    `key`, whose first entry is the name replaced."""
    kept = term.__dict__.get("_sub")
    found = None if kept is None else kept.get(key)
    if found is not None:
        return found
    name = key[0]
    if type(replacement) is Lit:
        found = _subst_leaves(term, ("v", name),
                              lambda e: _subst_expr(e, name, replacement))
    else:
        var = ChanVar(name)
        found = _subst_leaves(term, ("c", name),
                              chan=lambda r: replacement if r == var else r)
    if found is not term:
        if kept is None:
            kept = term.__dict__["_sub"] = {}
        kept[key] = found
    return found


def unfold_recursion(p: Process) -> Process:
    """One unfolding of a recursive process: rec X. P  ->  P[rec X. P / X].
    Built once per rec node, so that unfolding the same node again yields
    the same objects and their cached keys."""
    if not isinstance(p, Rec):
        raise MalformedTerm("unfold_recursion expects a rec-headed process")
    u = p.__dict__.get("_unfolded")
    if u is None:
        u = substitute(p.body, p.var, p)
        object.__setattr__(p, "_unfolded", u)
    return u


_UNFOLD_FUEL = 512


def head_normal(p: Process) -> Process:
    """Unfold leading recursions until the head is a concrete prefix.

    Guarded recursion (enforced at parse time) makes this terminate; the fuel
    guard turns a malformed unguarded term into an error instead of a hang.
    """
    fuel = _UNFOLD_FUEL
    while isinstance(p, Rec):
        p = unfold_recursion(p)
        fuel -= 1
        if fuel == 0:
            raise MalformedTerm("unguarded recursion (unfolding diverges)")
    return p


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

@record(frozen=True)
class CanonicalForm:
    """Opaque normal form. Equal text == equivalent terms (alpha-renaming and
    parallel reordering factored out; recursion deliberately NOT unfolded)."""
    text: str


def _canon_lit(v) -> str:
    if isinstance(v, bool):
        return "(b true)" if v else "(b false)"
    if isinstance(v, int):
        return f"(i {v})"
    return '(s "{}")'.format(v.replace("\\", "\\\\").replace('"', '\\"'))


def _canon_expr(e, env) -> str:
    match e:
        case Lit(v):
            return _canon_lit(v)
        case Var(n):
            return env.get(("v", n), f"?v:{n}")
        case Call(op, args):
            inner = " ".join(_canon_expr(a, env) for a in args)
            return f"({op} {inner})"
        case Ufun(fn, args, asorts, rsort, dom):
            inner = " ".join(_canon_expr(a, env) for a in args)
            d = "-" if dom is None else \
                "[" + " ".join(_canon_lit(x) for x in dom) + "]"
            sig = ",".join(asorts) + "->" + rsort
            return f"(uf {fn} {sig} {d} {inner})"
    raise MalformedTerm(f"not an expression: {e!r}")


def _canon_chan(r, env) -> str:
    match r:
        case ChanVar(n):
            return env.get(("c", n), f"?c:{n}")
        case Endpoint(s, plus):
            tag = env.get(("s", s), f"?s:{s}")
            return f"{tag}{'+' if plus else '-'}"
        case MEndpoint(s, role):
            tag = env.get(("s", s), f"?s:{s}")
            return f"{tag}@{role}"
    raise MalformedTerm(f"not a session identifier: {r!r}")


class _Counters:
    __slots__ = ("v", "x", "s")

    def __init__(self, v=0, x=0, s=0):
        self.v, self.x, self.s = v, x, s

    def copy(self):
        return _Counters(self.v, self.x, self.s)


def _canon_proc(p, env, ctr) -> str:
    match p:
        case Send(ch, e, cont, tr):
            r = "" if tr is None else f"@{tr}"
            return (f"(snd {_canon_chan(ch, env)}{r} {_canon_expr(e, env)} "
                    f"{_canon_proc(cont, env, ctr)})")
        case Recv(ch, y, s, cont, fr):
            r = "" if fr is None else f"@{fr}"
            env2 = dict(env)
            env2[("v", y)] = f"v{ctr.v}"
            c2 = ctr.copy()
            c2.v += 1
            return (f"(rcv {_canon_chan(ch, env)}{r} {s} v{ctr.v} "
                    f"{_canon_proc(cont, env2, c2)})")
        case Select(ch, l, cont, tr):
            r = "" if tr is None else f"@{tr}"
            return (f"(sel {_canon_chan(ch, env)}{r} {l} "
                    f"{_canon_proc(cont, env, ctr)})")
        case Branch(ch, arms, fr):
            r = "" if fr is None else f"@{fr}"
            inner = " ".join(
                f"[{l} {_canon_proc(a, env, ctr)}]" for l, a in arms)
            return f"(brn {_canon_chan(ch, env)}{r} {inner})"
        case If(cond, then, orelse):
            return (f"(if {_canon_expr(cond, env)} "
                    f"{_canon_proc(then, env, ctr)} "
                    f"{_canon_proc(orelse, env, ctr)})")
        case Rec(x, body):
            env2 = dict(env)
            env2[("x", x)] = f"X{ctr.x}"
            c2 = ctr.copy()
            c2.x += 1
            return f"(rec X{ctr.x} {_canon_proc(body, env2, c2)})"
        case PVar(x):
            return env.get(("x", x), f"?x:{x}")
        case Inact():
            return "(end)"
        case Commit(cont):
            return f"(cmt {_canon_proc(cont, env, ctr)})"
        case Roll():
            return "(roll)"
        case Abort():
            return "(abt)"
    raise MalformedTerm(f"not a process: {p!r}")


def _canon_coll(c, env, ctr) -> str:
    match c:
        case Request(a, x, body, role):
            env2 = dict(env)
            env2[("c", x)] = "c0"
            rr = "" if role is None else f"[{role}]"
            return (f"(req {a}{rr} "
                    f"{_canon_proc(body, env2, ctr.copy())})")
        case Accept(a, x, body, role):
            env2 = dict(env)
            env2[("c", x)] = "c0"
            rr = "" if role is None else f"[{role}]"
            return (f"(acc {a}{rr} "
                    f"{_canon_proc(body, env2, ctr.copy())})")
        case Par(parts):
            rendered = sorted(_canon_coll(p, dict(env), ctr.copy())
                              for p in parts)
            return "(par " + " ".join(rendered) + ")"
        case Session(s, saved, body):
            env2 = dict(env)
            env2[("s", s)] = f"s{ctr.s}"
            c2 = ctr.copy()
            c2.s += 1
            return (f"(ses s{ctr.s} {_canon_coll(saved, dict(env), ctr.copy())} "
                    f"{_canon_coll(body, env2, c2)})")
        case Log(ep, ckpt, current):
            flag = "imp" if ckpt.imposed else "own"
            return (f"(log {_canon_chan(ep, env)} {flag} "
                    f"{_canon_proc(ckpt.process, env, ctr.copy())} "
                    f"{_canon_proc(current, env, ctr.copy())})")
        case RollError():
            return "(roll_error)"
        case ComError():
            return "(com_error)"
    raise MalformedTerm(f"not a collaboration: {c!r}")


def canonicalize(c) -> CanonicalForm:
    """Canonical form of a collaboration (or a bare process).

    Bound names are numbered by traversal position, parallel components are
    flattened and sorted, and recursion is left folded, so two terms get the
    same form exactly when they differ only by alpha-renaming and parallel
    reordering.
    """
    env: dict = {}
    ctr = _Counters()
    if isinstance(c, (Request, Accept, Par, Session, Log, RollError,
                      ComError)):
        return CanonicalForm(_canon_coll(c, env, ctr))
    return CanonicalForm(_canon_proc(c, env, ctr))


def process_canonical(p: Process) -> str:
    """Canonical text of a bare process (used for checkpoint comparisons)."""
    return _canon_proc(p, {}, _Counters())


def equivalent(c1, c2) -> bool:
    return canonicalize(c1).text == canonicalize(c2).text


# ---------------------------------------------------------------------------
# keys (hash-consing)
# ---------------------------------------------------------------------------

class _Rep:
    """Representative of one canonical text.  Every keyed node holds its
    representative and the table holds it weakly, so an entry lives exactly
    as long as some term with that text; serials are never reused, so a key
    never names two texts."""
    __slots__ = ("serial", "__weakref__")

    def __init__(self, serial: int):
        self.serial = serial


class _RepRef(weakref.ref):
    """The table's weak reference to a representative, with the signature
    its callback removes."""
    __slots__ = ("sig",)


def _drop(ref: _RepRef) -> None:
    # a signature interned again after its representative died holds a
    # new reference, which this late callback leaves in place
    if _REPS.get(ref.sig) is ref:
        del _REPS[ref.sig]


# one table per process, shared by session types and terms: keys must agree
# between every pair of live terms.  Signature -> weak reference to its
# representative; a plain dict, so a hit runs no Python frame
_REPS: dict = {}
_SERIALS = itertools.count()
_serial = attrgetter("serial")


def _intern(sig: tuple) -> _Rep:
    ref = _REPS.get(sig)
    if ref is not None:
        rep = ref()
        if rep is not None:
            return rep
    rep = _Rep(next(_SERIALS))
    ref = _REPS[sig] = _RepRef(rep, _drop)
    ref.sig = sig
    return rep


# binder depth per name kind (see `_names`) at the root of a term
_NO_DEPTH = {"v": 0, "x": 0, "c": 0, "s": 0}


def _bind(env: dict, depth: dict, name: tuple) -> tuple:
    env = dict(env)
    env[name] = depth[name[0]]
    depth = dict(depth)
    depth[name[0]] += 1
    return env, depth


def _ref(name: tuple, env: dict, depth: dict):
    """A bound name as its binder's distance (an int), a free one as
    itself (a str)."""
    level = env.get(name)
    return name[1] if level is None else depth[name[0]] - level


def _chan_sig(r, env, depth) -> tuple:
    kind = type(r)
    if kind is Endpoint:
        return (Endpoint, _ref(("s", r.session), env, depth), r.plus)
    if kind is MEndpoint:
        return (MEndpoint, _ref(("s", r.session), env, depth), r.role)
    if kind is ChanVar:
        return (ChanVar, _ref(("c", r.name), env, depth))
    raise MalformedTerm(f"not a session identifier: {r!r}")


def _lit_sig(v) -> tuple:
    return (type(v), v)  # True == 1, but their texts differ


def _expr_sig(e, env, depth) -> tuple:
    kind = type(e)
    if kind is Lit:
        return _lit_sig(e.value)
    if kind is Var:
        return (Var, _ref(("v", e.name), env, depth))
    if kind is Call:
        return (Call, e.op, *(_expr_sig(a, env, depth) for a in e.args))
    if kind is Ufun:
        d = None if e.domain is None else tuple(map(_lit_sig, e.domain))
        return (Ufun, e.name, e.arg_sorts, e.result_sort, d,
                *(_expr_sig(a, env, depth) for a in e.args))
    raise MalformedTerm(f"not an expression: {e!r}")


def _key(t, env: dict, depth: dict) -> _Rep:
    """Representative of `t`'s canonical text in a scope: `env` maps each
    bound (kind, name) to its binder's level, `depth` counts binders per
    kind.  Bound names enter the signature as distances to their binders,
    so the key depends on the scope only through the distances of `t`'s
    own free names; the node caches its key for the last such scope."""
    names = _names(t)
    scope = tuple([(n, depth[n[0]] - env[n]) for n in names if n in env]) \
        if env and names else ()
    cached = t.__dict__.get("_tk")
    if cached is not None and cached[0] == scope:
        return cached[1]
    kind = type(t)
    if kind is Send:
        sig = (Send, _chan_sig(t.chan, env, depth), t.to_role,
               _expr_sig(t.expr, env, depth), _key(t.cont, env, depth))
    elif kind is Recv:
        sig = (Recv, _chan_sig(t.chan, env, depth), t.from_role, t.sort,
               _key(t.cont, *_bind(env, depth, ("v", t.var))))
    elif kind is Select:
        sig = (Select, _chan_sig(t.chan, env, depth), t.to_role, t.label,
               _key(t.cont, env, depth))
    elif kind is Branch:
        sig = (Branch, _chan_sig(t.chan, env, depth), t.from_role,
               tuple((l, _key(a, env, depth)) for l, a in t.arms))
    elif kind is If:
        sig = (If, _expr_sig(t.cond, env, depth), _key(t.then, env, depth),
               _key(t.orelse, env, depth))
    elif kind is Rec:
        sig = (Rec, _key(t.body, *_bind(env, depth, ("x", t.var))))
    elif kind is PVar:
        sig = (PVar, _ref(("x", t.name), env, depth))
    elif kind is Commit:
        sig = (Commit, _key(t.cont, env, depth))
    elif kind is Log:
        ckpt = t.ckpt
        sig = (Log, _chan_sig(t.endpoint, env, depth), ckpt.imposed,
               _key(ckpt.process, env, depth), _key(t.current, env, depth))
    elif kind is Par:
        # a multiset: parallel reordering leaves the key alone
        sig = (Par, tuple(sorted((_key(q, env, depth) for q in t.parts),
                                 key=_serial)))
    elif kind is Session:
        # the session name is a binder, numbered like the text numbers
        # it, so the order sessions connected in does not matter
        sig = (Session, _key(t.saved, env, depth),
               _key(t.body, *_bind(env, depth, ("s", t.name))))
    elif kind is Request or kind is Accept:
        sig = (kind, t.chan, t.role,
               _key(t.body, *_bind(env, depth, ("c", t.var))))
    else:  # Inact, Roll, Abort, RollError, ComError (`_names` checked)
        sig = (kind,)
    # the signature holds the children's representatives, not their serials:
    # a child re-keyed in another scope drops its cached one, and equal
    # texts must still meet this entry
    rep = _intern(sig)
    object.__setattr__(t, "_tk", (scope, rep))
    return rep


def term_rep(c: Collaboration) -> _Rep:
    """The representative whose serial is `term_key(c)`.  Holding it keeps
    that serial meaning `c`'s text: while it lives, no key-equal term gets
    another serial."""
    if type(c) not in _TERMS:
        raise MalformedTerm(f"not a process or collaboration: {c!r}")
    return _key(c, {}, _NO_DEPTH)


def term_key(c: Collaboration) -> int:
    """Integer identity of a collaboration: two live collaborations have
    equal keys exactly when their `canonicalize` texts are equal.  Computed
    once per node from its children's keys and cached on the node
    (hash-consing, Filliâtre & Conchon 2006): binders of every kind, session
    names included, enter as distances to their binders, and a parallel
    composition is keyed as the multiset of its parts.  A term with free
    names (a log outside its session) keeps its key only until it is keyed
    inside a binder of those names; `process_key` keys a bare process the
    way its log does."""
    return term_rep(c).serial


def process_key(p: Process) -> tuple:
    """Identity of a bare process: two processes have equal keys exactly
    when their `process_canonical` texts are equal.  The process is keyed
    with its free session names bound, the way the session holding a log
    binds them, so a log's processes reuse the keys cached when its state
    was keyed; the names are part of the key.  The key holds its
    representative, so it stays valid for as long as it is kept, and the
    node keeps it."""
    if type(p) not in _TERMS:
        raise MalformedTerm(f"not a process or collaboration: {p!r}")
    key = p.__dict__.get("_pk")
    if key is None:
        env, depth = {}, _NO_DEPTH
        sessions = tuple(sorted(n for n in _names(p) if n[0] == "s"))
        for n in sessions:
            env, depth = _bind(env, depth, n)
        key = p.__dict__["_pk"] = (sessions, _key(p, env, depth))
    return key
