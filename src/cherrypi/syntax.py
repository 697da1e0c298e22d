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
from collections import namedtuple
from operator import add, attrgetter, eq, lt, not_
from types import FunctionType

SORTS = ("bool", "int", "str")


Operator = namedtuple("Operator",
                      "symbol prec grouping operands result meaning")
Operator.__doc__ = """A builtin operator.  A larger `prec` binds tighter;
`grouping` is "left" (`a + b + c` is `(a + b) + c`), "none" (`a == b == c`
does not parse) or "prefix" (one operand, after the symbol); `operands`
holds each operand's sort, None for "any sort, one for all the Nones";
`meaning` is the Python function that evaluates it."""


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


def check_operands(row: Operator, call, sorts: list, error: type) -> None:
    """Raise `error` unless the operator `row` of `call` takes operands of
    `sorts`: typing and evaluation share the rule and its messages."""
    if None in row.operands:  # operands of any one sort
        if sorts[0] != sorts[1]:
            raise error(f"{row.symbol!r} needs two operands of one sort, "
                        f"got {sorts}")
    elif tuple(sorts) != row.operands:
        raise error(f"operator {call.op!r} expects {row.operands}, got "
                    f"{tuple(sorts)}")


def check_arguments(call, sorts: list, error: type) -> None:
    """Raise `error` unless the uninterpreted function of `call` takes
    arguments of `sorts`, as `check_operands` does for an operator."""
    if tuple(sorts) != call.arg_sorts:
        raise error(f"function {call.name!r} expects {call.arg_sorts}, got "
                    f"{tuple(sorts)}")


def check_guard(sort: str, error: type) -> None:
    """Raise `error` unless a conditional's guard has sort bool."""
    if sort != "bool":
        raise error(f"conditional guard has sort {sort}, needs bool")


def value_sort(v) -> str:
    """The sort of a value: "bool", "int" or "str"."""
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, int):
        return "int"
    if isinstance(v, str):
        return "str"
    raise MalformedTerm(f"literal of unknown sort: {v!r}")


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


def _no_fields(self):
    return ()


def _one_field(self):
    return (self.f0,)


def _field_reader(names):
    """A record class's reader of its field tuple: an `attrgetter` from
    two fields on, else `_no_fields`, or `_one_field` reading the one
    field by its name (a Python function, which the interpreter calls
    faster than it runs a closure around an `attrgetter`)."""
    if len(names) > 1:
        return attrgetter(*names)
    return staticmethod(FunctionType(
        _one_field.__code__.replace(co_names=names), {})
        if names else _no_fields)


# the methods every record shares: each reads the fields of its class
def _eq(self, other):
    if other.__class__ is self.__class__:
        fields = self._astuple
        return fields(self) == fields(other)
    return NotImplemented


def _hash(self):
    return hash(self._astuple(self))


def _reduce(self):
    return self.__class__, self._astuple(self)


def _repr(self):
    shown = ", ".join(map("{}={!r}".format, self.__match_args__,
                          self._astuple(self)))
    return f"{self.__class__.__qualname__}({shown})"


_INITS: dict = {}  # (arity, frozen) -> code of `__init__(self, f0, ...)`


def _init_code(names: tuple, frozen: bool):
    """`__init__`'s code for these fields: the template of their shape,
    compiled once, with its parameters (and a mutable record's attribute
    names) renamed.  A frozen template writes field i through the global
    `_s{i}`, the slot's `__set__`; a mutable one stores attributes."""
    code = _INITS.get((len(names), frozen))
    if code is None:
        ns: dict = {}
        fields = [f"f{i}" for i in range(len(names))]
        lines = [f"_s{i}(self, {f})" if frozen else f"self.{f} = {f}"
                 for i, f in enumerate(fields)] or ["pass"]
        exec(compile(f"def __init__({', '.join(['self'] + fields)}):\n"
                     + "".join(f"    {line}\n" for line in lines),
                     "<record>", "exec"), ns)
        code = _INITS[len(names), frozen] = ns.pop("__init__").__code__
    return code.replace(co_varnames=("self",) + names,
                        co_names=code.co_names if frozen else names)


def record(name, bases, ns, frozen=False):
    """The metaclass of the term, type and report classes, called once
    per class statement (`class Send(metaclass=record, frozen=True)`):
    the fields are the class annotations in order, and a class attribute
    of a field's name is its default.  It adds `__slots__` (the fields,
    plus `__dict__` for the node caches, so a field read is a slot read)
    before the class is built, and what `dataclasses.dataclass` would:
    `__init__` with the fields as parameters, `__eq__` comparing field
    tuples of instances of the very same class (`NotImplemented`
    otherwise), `__repr__` as `Name(field=value!r, ...)` and
    `__match_args__`, which is also the field list.  A frozen record
    hashes by its field tuple and refuses assignment and deletion (its
    `__init__` writes each field through the slot's descriptor); its
    caches are written with `object.__setattr__` or into `__dict__`,
    which starts empty, and equality, hashing and `repr` ignore them, as
    do `copy` and `pickle`, which rebuild a frozen record from its fields
    (`__reduce__`).  A mutable record is unhashable.  Every record shares
    one `__eq__`, `__hash__`, `__reduce__` and `__repr__`, which read the
    fields through the class's `_astuple`, and `__init__` is the template
    of its (arity, frozen) shape, so a class statement compiles nothing
    once its shape has been seen.  No class subclasses a record: the
    walkers dispatch on the exact class."""
    names = tuple(ns.get("__annotations__", ()))
    given = tuple(n for n in names if n in ns)
    if given != names[len(names) - len(given):]:
        raise TypeError(f"{name}: a field without a default follows one "
                        f"with a default")
    defaults = tuple(map(ns.pop, given))
    ns.update(__slots__=names + ("__dict__",), __match_args__=names,
              _astuple=_field_reader(names), __eq__=_eq, __repr__=_repr)
    if frozen:
        ns.update(__hash__=_hash, __reduce__=_reduce,
                  __setattr__=_refuse_set, __delattr__=_refuse_del)
    else:
        ns["__hash__"] = None
    cls = type(name, bases, ns)
    init = FunctionType(
        _init_code(names, frozen),
        {f"_s{i}": vars(cls)[n].__set__ for i, n in enumerate(names)}
        if frozen else {}, "__init__", defaults or None)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


# ---------------------------------------------------------------------------
# session identifiers
# ---------------------------------------------------------------------------

class ChanVar(metaclass=record, frozen=True):
    """A session variable as written in source (`x` in `request a(x).P`)."""
    name: str


class Endpoint(metaclass=record, frozen=True):
    """A session endpoint, owned by one role of the session.  A binary
    session is the two-role case: its requester is role 2, its acceptor
    role 1 (`endpoint_role`).  Whether the session names its roles shows
    only in text (`parser.show_chan`)."""
    session: str
    role: int


SessionId = (ChanVar, Endpoint)


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

class Lit(metaclass=record, frozen=True):
    value: object  # bool | int | str


class Var(metaclass=record, frozen=True):
    name: str


class Call(metaclass=record, frozen=True):
    """Application of a builtin operator, named as in `OPERATORS`."""
    op: str
    args: tuple  # tuple[Expression, ...]


class Ufun(metaclass=record, frozen=True):
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


Expression = (Lit, Var, Call, Ufun)


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

class Send(metaclass=record, frozen=True):
    chan: SessionId
    expr: Expression
    cont: "Process"
    to_role: int | None = None  # partner role; none in a binary session


class Recv(metaclass=record, frozen=True):
    chan: SessionId
    var: str
    sort: str
    cont: "Process"
    from_role: int | None = None


class Select(metaclass=record, frozen=True):
    chan: SessionId
    label: str
    cont: "Process"
    to_role: int | None = None


class Branch(metaclass=record, frozen=True):
    chan: SessionId
    arms: tuple  # tuple[tuple[str, Process], ...]  (order preserved)
    from_role: int | None = None


class If(metaclass=record, frozen=True):
    cond: Expression
    then: "Process"
    orelse: "Process"


class Rec(metaclass=record, frozen=True):
    var: str
    body: "Process"


class PVar(metaclass=record, frozen=True):
    name: str


class Inact(metaclass=record, frozen=True):
    pass


class Commit(metaclass=record, frozen=True):
    cont: "Process"


class Roll(metaclass=record, frozen=True):
    pass


class Abort(metaclass=record, frozen=True):
    pass


Process = (Send, Recv, Select, Branch, If, Rec, PVar, Inact, Commit, Roll,
           Abort)


# ---------------------------------------------------------------------------
# collaborations (surface + runtime)
# ---------------------------------------------------------------------------

class Request(metaclass=record, frozen=True):
    chan: str
    var: str
    body: Process
    role: int | None = None  # the arity n, which is the requester's role


class Accept(metaclass=record, frozen=True):
    chan: str
    var: str
    body: Process
    role: int | None = None


def endpoint_role(part) -> int:
    """The role of a request or accept: its tag, or untagged (binary) 2
    for the requester and 1 for the acceptor."""
    role = part.role
    return role if role is not None else 2 if type(part) is Request else 1


def _role_tag(role: int | None, form: str = "@{}") -> str:
    """A role tag's text, `form` holding the role, or none for a binary
    term, which names no roles."""
    return "" if role is None else form.format(role)


class Par(metaclass=record, frozen=True):
    parts: tuple  # tuple[Collaboration, ...], len >= 2, pre-flattened


class CheckpointProcess(metaclass=record, frozen=True):
    """A log's saved process; `imposed` marks a checkpoint written by the
    partner's commit rather than by the owner's own."""
    process: Process
    imposed: bool = False


class Log(metaclass=record, frozen=True):
    endpoint: Endpoint
    ckpt: CheckpointProcess
    current: Process


class Session(metaclass=record, frozen=True):
    """Running session: `saved` is the collaboration that initiated it and is
    restored wholesale by an abort; `body` holds the logs."""
    name: str
    saved: "Collaboration"
    body: "Collaboration"

    @property
    def names_roles(self) -> bool:
        """Whether the session's endpoints carry role tags, read from the
        endpoints it saved (a program tags all of them or none): its rules
        carry the `M-` prefix and its endpoints show as `s[r]`."""
        return par_parts(self.saved)[0].role is not None


class ErrorState(metaclass=record, frozen=True):
    """The body of a session a detecting E- rule stopped: `kind` is
    "roll_error" or "com_error", the class of its state, its text and a
    run's status."""
    kind: str


Collaboration = (Request, Accept, Par, Session, Log, ErrorState)
_TERMS = frozenset(Process + Collaboration)
_LEAVES = frozenset({Inact, Roll, Abort, ErrorState})


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
    if isinstance(r, Endpoint):
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
    """`base_i` for the least i >= 1 not in `used`."""
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
    """
    if type(term) not in _TERMS:
        raise MalformedTerm(f"not a process or collaboration: {term!r}")
    if isinstance(replacement, Lit):
        return _subst_leaves(term, ("v", name),
                             lambda e: _subst_expr(e, name, replacement))
    if isinstance(replacement, SessionId):
        var = ChanVar(name)
        return _subst_leaves(term, ("c", name),
                             chan=lambda r: replacement if r == var else r)
    if isinstance(replacement, Process):
        return _subst_proc(term, name, replacement)
    raise MalformedTerm(
        f"substitution replacement of unsupported kind: {replacement!r}")


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

class CanonicalForm(metaclass=record, frozen=True):
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
        case Endpoint(s, role):
            return f"{env.get(('s', s), f'?s:{s}')}@{role}"
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
            r = _role_tag(tr)
            return (f"(snd {_canon_chan(ch, env)}{r} {_canon_expr(e, env)} "
                    f"{_canon_proc(cont, env, ctr)})")
        case Recv(ch, y, s, cont, fr):
            r = _role_tag(fr)
            env2 = dict(env)
            env2[("v", y)] = f"v{ctr.v}"
            c2 = ctr.copy()
            c2.v += 1
            return (f"(rcv {_canon_chan(ch, env)}{r} {s} v{ctr.v} "
                    f"{_canon_proc(cont, env2, c2)})")
        case Select(ch, l, cont, tr):
            r = _role_tag(tr)
            return (f"(sel {_canon_chan(ch, env)}{r} {l} "
                    f"{_canon_proc(cont, env, ctr)})")
        case Branch(ch, arms, fr):
            r = _role_tag(fr)
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
        case Request(a, x, body, role) | Accept(a, x, body, role):
            env2 = dict(env)
            env2[("c", x)] = "c0"
            head = "req" if type(c) is Request else "acc"
            return (f"({head} {a}{_role_tag(role, '[{}]')} "
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
        case ErrorState(kind):
            return f"({kind})"
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
    if isinstance(c, Collaboration):
        return CanonicalForm(_canon_coll(c, env, ctr))
    return CanonicalForm(_canon_proc(c, env, ctr))


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
    if kind is ChanVar:
        return (ChanVar, _ref(("c", r.name), env, depth))
    if kind is Endpoint:
        return (Endpoint, _ref(("s", r.session), env, depth), r.role)
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
    elif kind is ErrorState:
        sig = (kind, t.kind)
    else:  # Inact, Roll, Abort (`_names` checked)
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
    when their `canonicalize` texts are equal.  The process is keyed
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
