"""Sort checking for expressions and session-type inference for processes.

`service_types` checks a collaboration's services and gives each one's
endpoint types in log order, each typed on its session variable with its
own role stamped in.  A binary service is the two-role case: its
requester is role 2 and its acceptor role 1.  `infer_collaboration` keys
each endpoint's type by its endpoint (a leading `~` marks the requester).
An operator's operand and result sorts are its row of `syntax.OPERATORS`.
"""

from __future__ import annotations

from .syntax import (Abort, Accept, Branch, Call, ChanVar, Collaboration,
                     Commit, If, Inact, Lit, Process, PVar, Rec, Recv,
                     Request, Roll, Select, Send, Ufun, Var, check_arguments,
                     check_guard, check_operands, endpoint_role, operator_of,
                     par_parts, subprocesses, value_sort, _names, _role_tag,
                     _TERMS)
from .sessiontypes import (SessionTypeT, TAbtT, TBrn, TCmt, TEnd, TIn, TMu,
                           TOut, TPlus, TRollT, TSel, TVarT)


class TypingError(Exception):
    pass


def sort_of_expression(e, env: dict) -> str:
    """Sort of an expression under `env` (variable -> sort). [exprs]"""
    kind = type(e)
    if kind is Lit:
        return value_sort(e.value)
    if kind is Var:
        if e.name not in env:
            raise TypingError(f"unbound variable {e.name!r}")
        return env[e.name]
    if kind is Call:
        row = operator_of(e, TypingError)
        check_operands(row, e, [sort_of_expression(a, env) for a in e.args],
                       TypingError)
        return row.result
    if kind is Ufun:
        check_arguments(e, [sort_of_expression(a, env) for a in e.args],
                        TypingError)
        return e.result_sort
    raise TypingError(f"not an expression: {e!r}")


def type_of_process(p: Process, chan) -> SessionTypeT:
    """Session type of `p` on session identifier `chan`.

    Communication typed prefix-by-prefix; a conditional types as the internal
    choice of its branches; recursion binds a type variable named after the
    process variable.  A prefix's partner role lands in the partner slot;
    on a session endpoint, the endpoint's own role lands in the own slot of
    every prefix that names a partner (a binary prefix names none); on a
    session variable that slot stays open (shown `_`).
    """
    return _type_of(p, chan, None if type(chan) is ChanVar else chan.role,
                    frozenset(), {})


def _need_chan(c, chan):
    """`c`, equal to `chan`: the walk goes on with the parser's object."""
    if c is not chan and c != chan:
        raise TypingError(f"process talks on {c!r}, expected {chan!r}")
    return c


def _type_of(p, chan, own, penv: frozenset, venv: dict) -> SessionTypeT:
    """`type_of_process` below its entry, `own` the role stamped into the
    prefixes that name a partner and `penv` the bound process variables:
    a walker at module level, so a call leaves no closure cycle behind.

    A `rec X` types as `mu X`, its binder's name kept, so a subterm with
    no free value, process or session variable types alike wherever it
    stands, and its type is kept on the node (`_ty`), by endpoint: a
    step's continuation retypes by a lookup.  A process typed on a
    session variable has it free, so only a session endpoint's processes
    are kept.  A failure is not kept."""
    kind = type(p)
    keep = type(chan) is not ChanVar and kind in _TERMS
    kept = p.__dict__.get("_ty") if keep else None
    t = kept.get(chan) if kept else None  # one hash of the endpoint
    if t is not None:
        return t
    # x!<e>. P  with e: S  gives  ![S]. T; a prefix that names a partner
    # gets `own`, a binary one names none
    if kind is Send:
        chan, r = _need_chan(p.chan, chan), p.to_role
        s = sort_of_expression(p.expr, venv)
        t = TOut(s, _type_of(p.cont, chan, own, penv, venv),
                 None if r is None else own, r)
    # x?(y: S). P  extends the variable environment with y: S
    elif kind is Recv:
        chan, r = _need_chan(p.chan, chan), p.from_role
        venv2 = dict(venv)
        venv2[p.var] = p.sort
        t = TIn(p.sort, _type_of(p.cont, chan, own, penv, venv2),
                None if r is None else own, r)
    elif kind is Select:
        chan, r = _need_chan(p.chan, chan), p.to_role
        t = TSel(p.label, _type_of(p.cont, chan, own, penv, venv),
                 None if r is None else own, r)
    elif kind is Branch:
        chan, r = _need_chan(p.chan, chan), p.from_role
        t = TBrn(tuple((l, _type_of(a, chan, own, penv, venv))
                       for l, a in p.arms), None if r is None else own, r)
    # a conditional offers the internal choice of its two branches
    elif kind is If:
        check_guard(sort_of_expression(p.cond, venv), TypingError)
        t = TPlus(_type_of(p.then, chan, own, penv, venv),
                  _type_of(p.orelse, chan, own, penv, venv))
    elif kind is Rec:
        t = TMu(p.var, _type_of(p.body, chan, own, penv | {p.var}, venv))
    elif kind is PVar:
        if p.name not in penv:
            raise TypingError(f"unbound recursion variable {p.name!r}")
        return TVarT(p.name)
    elif kind is Commit:
        t = TCmt(_type_of(p.cont, chan, own, penv, venv))
    else:
        leaf = _LEAF_TYPES.get(kind)
        if leaf is None:
            raise TypingError(f"not a process: {p!r}")
        return leaf()
    if keep and all(k == "s" for k, _ in _names(p)):
        p.__dict__.setdefault("_ty", {})[chan] = t
    return t


_LEAF_TYPES = {Inact: TEnd, Roll: TRollT, Abort: TAbtT}


# ---------------------------------------------------------------------------
# services
# ---------------------------------------------------------------------------

def _check_roles_used(p: Process, own: int, n: int):
    kind = type(p)
    if kind is Send or kind is Recv or kind is Select or kind is Branch:
        r = p.to_role if kind is Send or kind is Select else p.from_role
        if r is None or not (1 <= r <= n) or r == own:
            raise TypingError(
                f"communication names role {r}, outside 1..{n} minus "
                f"the own role {own}")
    for q in subprocesses(p):
        _check_roles_used(q, own, n)


def service_types(term: Collaboration) -> dict:
    """Per service, the endpoint types in log order: the requester, of the
    highest role, first, then the acceptors by role.  A service has one
    requester, of role n (`endpoint_role`), and one acceptor of each role
    1..n-1; a binary service is the two-role case.  Service by service,
    its shape is checked, then its endpoints are typed in source order,
    each with its own role stamped in where a prefix names a partner (a
    binary prefix names none), as `type_of_process` types a process on
    its endpoint."""
    groups: dict = {}
    for part in par_parts(term):
        if not isinstance(part, (Request, Accept)):
            raise TypingError(f"not an endpoint: {part!r}")
        groups.setdefault(part.chan, []).append(part)
    out: dict = {}
    for name, parts in groups.items():
        # a binary service's offences are named by its endpoints' names
        binary = parts[0].role is None
        roles = [endpoint_role(p) for p in parts]
        reqs = [r for p, r in zip(parts, roles) if type(p) is Request]
        if len(reqs) != 1:
            raise TypingError(
                (f"service {name!r} has no requester" if not reqs
                 else f"two endpoints claim {'~' + name!r}") if binary
                else f"service {name!r} needs exactly one requester")
        n = reqs[0]
        if n < 2:
            raise TypingError(
                f"service {name!r}: requester arity must be at least 2")
        seen: set = set()
        for role in roles:
            if role in seen:
                raise TypingError(
                    f"two endpoints claim {name!r}" if binary else
                    f"service {name!r}: role {role} taken twice")
            seen.add(role)
        others = seen - {n}  # distinct, so they cover 1..n-1 if they fit
        if len(others) != n - 1 or not all(0 < r < n for r in others):
            raise TypingError(
                f"service {name!r} has no acceptor" if binary else
                f"service {name!r}: acceptor roles {sorted(others)} "
                f"do not cover 1..{n - 1}")
        types = {}
        for p, role in zip(parts, roles):
            if not binary:
                _check_roles_used(p.body, role, n)
            types[role] = _type_of(p.body, ChanVar(p.var), role,
                                   frozenset(), {})
        out[name] = (types[n], *map(types.get, range(1, n)))
    return out


def infer_collaboration(term: Collaboration) -> dict:
    """The endpoint types of a collaboration whose services
    `service_types` accepts, by endpoint, in source order: `~a` for a
    binary service's requester and `a` for its acceptor, `~a[n]` and
    `a[p]` for an n-role one's.  Each is typed on its session variable,
    so own-role slots stay open (shown `_`)."""
    service_types(term)
    return {("~" if type(part) is Request else "") + part.chan
            + _role_tag(part.role, "[{}]"):
            type_of_process(part.body, ChanVar(part.var))
            for part in par_parts(term)}


def service_pairs(assoc: dict) -> list:
    """Pair up requester/acceptor types of a binary association (see
    `infer_collaboration`) per service: [(name, T_req, T_acc)].  Every
    service must have both sides."""
    for key in assoc:
        name = key.removeprefix("~")
        if "~" + name not in assoc or name not in assoc:
            side = "acceptor" if key[0] == "~" else "requester"
            raise TypingError(f"service {name!r} has no {side}")
    return [(k[1:], t, assoc[k[1:]]) for k, t in assoc.items() if k[0] == "~"]

