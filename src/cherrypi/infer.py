"""Sort checking for expressions and session-type inference for processes.

`infer_collaboration` maps each service endpoint of a binary collaboration to
the session type its process realises; the requester side is keyed with a
leading `~` on the service name.  `m_service_groups` groups an n-role
collaboration by service and infers each role's type, and `service_types`
gives every service's endpoint types in log order, binary or n-role.
An operator's operand and result sorts are its row of `syntax.OPERATORS`.
"""

from __future__ import annotations

from .syntax import (Abort, Accept, Branch, Call, ChanVar, Collaboration,
                     Commit, If, Inact, Lit, Process, PVar, Rec, Recv,
                     Request, Roll, Select, Send, Ufun, Var, operator_of,
                     par_parts, record, subprocesses, _fresh, _names,
                     _TERMS)
from .sessiontypes import (SessionTypeT, TAbtT, TBrn, TCmt, TEnd, TIn, TMu,
                           TOut, TPlus, TRollT, TSel, TVarT, fill_roles)


class TypingError(Exception):
    pass


def sort_of_expression(e, env: dict) -> str:
    """Sort of an expression under `env` (variable -> sort). [exprs]"""
    kind = type(e)
    if kind is Lit:
        return e.sort()
    if kind is Var:
        if e.name not in env:
            raise TypingError(f"unbound variable {e.name!r}")
        return env[e.name]
    if kind is Call:
        row = operator_of(e, TypingError)
        arg_sorts = [sort_of_expression(a, env) for a in e.args]
        if None in row.operands:  # operands of any one sort
            if arg_sorts[0] != arg_sorts[1]:
                raise TypingError(f"{row.symbol!r} needs two operands of "
                                  f"one sort, got {arg_sorts}")
        elif tuple(arg_sorts) != row.operands:
            raise TypingError(f"operator {e.op!r} expects {row.operands}, "
                              f"got {tuple(arg_sorts)}")
        return row.result
    if kind is Ufun:
        arg_sorts = tuple(sort_of_expression(a, env) for a in e.args)
        if arg_sorts != e.arg_sorts:
            raise TypingError(f"function {e.name!r} expects {e.arg_sorts}, "
                              f"got {arg_sorts}")
        return e.result_sort
    raise TypingError(f"not an expression: {e!r}")


def type_of_process(p: Process, chan,
                    multiparty: bool = False) -> SessionTypeT:
    """Session type of `p` on session identifier `chan`.

    Communication typed prefix-by-prefix; a conditional types as the internal
    choice of its branches; recursion binds a type variable named after the
    process variable.  In multiparty mode every communication must name a
    partner role, which lands in the partner slot of the prefix (the own slot
    stays open for `fill_roles`).
    """
    return _type_of(p, chan, multiparty, {}, {})


def _need_chan(c, chan):
    """`c`, equal to `chan`: the walk goes on with the parser's object."""
    if c is not chan and c != chan:
        raise TypingError(f"process talks on {c!r}, expected {chan!r}")
    return c


def _need_role(role, what: str, multiparty: bool):
    if multiparty and role is None:
        raise TypingError(f"{what} lacks a partner role annotation")
    if not multiparty and role is not None:
        raise TypingError(
            f"{what} has a role annotation in a binary endpoint")


def _type_of(p, chan, mp: bool, penv: dict, venv: dict) -> SessionTypeT:
    """`type_of_process` below its entry: a walker at module level, so a
    call leaves no closure cycle behind.

    A subterm with no free value, process or session variable types alike
    wherever it stands, except for the binder names `_fresh` picks
    after the enclosing `rec`s.  So outside every `rec` of the walk its
    type is kept on the node (`_ty`), by (endpoint, mode): a step's
    continuation retypes by a lookup.  A process typed on a session
    variable has it free, so only a session endpoint's processes are kept.
    A failure is not kept."""
    kind = type(p)
    keep = not penv and type(chan) is not ChanVar and kind in _TERMS
    if keep:
        kept = p.__dict__.get("_ty")
        if kept is not None and (chan, mp) in kept:
            return kept[chan, mp]
    # x!<e>. P  with e: S  gives  ![S]. T
    if kind is Send:
        chan = _need_chan(p.chan, chan)
        _need_role(p.to_role, "output", mp)
        s = sort_of_expression(p.expr, venv)
        t = TOut(s, _type_of(p.cont, chan, mp, penv, venv), None, p.to_role)
    # x?(y: S). P  extends the variable environment with y: S
    elif kind is Recv:
        chan = _need_chan(p.chan, chan)
        _need_role(p.from_role, "input", mp)
        venv2 = dict(venv)
        venv2[p.var] = p.sort
        t = TIn(p.sort, _type_of(p.cont, chan, mp, penv, venv2), None,
                p.from_role)
    elif kind is Select:
        chan = _need_chan(p.chan, chan)
        _need_role(p.to_role, "selection", mp)
        t = TSel(p.label, _type_of(p.cont, chan, mp, penv, venv), None,
                 p.to_role)
    elif kind is Branch:
        chan = _need_chan(p.chan, chan)
        _need_role(p.from_role, "branching", mp)
        t = TBrn(tuple((l, _type_of(a, chan, mp, penv, venv))
                       for l, a in p.arms), None, p.from_role)
    # a conditional offers the internal choice of its two branches
    elif kind is If:
        s = sort_of_expression(p.cond, venv)
        if s != "bool":
            raise TypingError(f"conditional guard has sort {s}, needs bool")
        t = TPlus(_type_of(p.then, chan, mp, penv, venv),
                  _type_of(p.orelse, chan, mp, penv, venv))
    elif kind is Rec:
        tv = _fresh(p.var, set(penv.values()))
        penv2 = dict(penv)
        penv2[p.var] = tv
        t = TMu(tv, _type_of(p.body, chan, mp, penv2, venv))
    elif kind is PVar:
        if p.name not in penv:
            raise TypingError(f"unbound recursion variable {p.name!r}")
        return TVarT(penv[p.name])
    elif kind is Commit:
        t = TCmt(_type_of(p.cont, chan, mp, penv, venv))
    else:
        leaf = _LEAF_TYPES.get(kind)
        if leaf is None:
            raise TypingError(f"not a process: {p!r}")
        return leaf()
    if keep and all(k == "s" for k, _ in _names(p)):
        p.__dict__.setdefault("_ty", {})[chan, mp] = t
    return t


_LEAF_TYPES = {Inact: TEnd, Roll: TRollT, Abort: TAbtT}


def infer_collaboration(term) -> dict:
    """Service-endpoint types of a binary collaboration: `~a` for the
    requester on service a, `a` for the acceptor."""
    assoc: dict = {}
    for part in par_parts(term):
        if part.role is not None:
            raise TypingError(
                "multiparty endpoint in binary inference; use the "
                "multiparty checker")
        key = ("~" if isinstance(part, Request) else "") + part.chan
        if key in assoc:
            raise TypingError(f"two endpoints claim {key!r}")
        assoc[key] = type_of_process(part.body, ChanVar(part.var))
    return assoc


def service_pairs(assoc: dict) -> list:
    """Pair up requester/acceptor types per service: [(name, T_req, T_acc)].
    Every service must have both sides."""
    out: list = []
    for key in assoc:
        if key.startswith("~"):
            name = key[1:]
            if name not in assoc:
                raise TypingError(f"service {name!r} has no acceptor")
            out.append((name, assoc[key], assoc[name]))
        elif "~" + key not in assoc:
            raise TypingError(f"service {key!r} has no requester")
    return out


# ---------------------------------------------------------------------------
# n-role inference, and the endpoint types of every service
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


class MService(metaclass=record):
    name: str
    n: int
    parts: dict  # role -> Request|Accept
    types: dict  # role -> SessionTypeT (own slot unfilled)


def m_service_groups(term: Collaboration) -> dict:
    """Group a multiparty collaboration by service and infer each role's
    type.  Each service needs one requester a[n] and acceptors 1..n-1."""
    groups: dict = {}
    for part in par_parts(term):
        if not isinstance(part, (Request, Accept)) or part.role is None:
            raise TypingError("binary endpoint in multiparty inference")
        groups.setdefault(part.chan, []).append(part)
    out: dict = {}
    for name, parts in groups.items():
        reqs = [p for p in parts if isinstance(p, Request)]
        if len(reqs) != 1:
            raise TypingError(
                f"service {name!r} needs exactly one requester")
        n = reqs[0].role
        if n is None or n < 2:
            raise TypingError(
                f"service {name!r}: requester arity must be at least 2")
        by_role: dict = {n: reqs[0]}
        for p in parts:
            if isinstance(p, Accept):
                if p.role in by_role:
                    raise TypingError(
                        f"service {name!r}: role {p.role} taken twice")
                by_role[p.role] = p
        want = set(range(1, n))
        have = set(by_role) - {n}
        if have != want:
            raise TypingError(
                f"service {name!r}: acceptor roles {sorted(have)} do not "
                f"cover 1..{n - 1}")
        types: dict = {}
        for role, p in by_role.items():
            _check_roles_used(p.body, role, n)
            types[role] = type_of_process(p.body, ChanVar(p.var),
                                          multiparty=True)
        out[name] = MService(name, n, by_role, types)
    return out


def m_infer_collaboration(term: Collaboration) -> dict:
    """Flat association: `~a[n]` for the requester, `a[p]` for acceptors.
    Own-role slots stay open (shown `_`) until `fill_roles`."""
    assoc: dict = {}
    for name, svc in m_service_groups(term).items():
        for role, t in svc.types.items():
            key = (f"~{name}[{role}]" if role == svc.n
                   else f"{name}[{role}]")
            assoc[key] = t
    return assoc


def filled_types(svc: MService) -> tuple:
    """Role types with own roles stamped in, requester-first order."""
    order = [svc.n] + list(range(1, svc.n))
    return tuple(fill_roles(svc.types[r], r) for r in order)


def is_multiparty(term: Collaboration) -> bool:
    """Whether a source collaboration's endpoints carry roles, as
    `SourceProgram.multiparty` records for parsed programs."""
    return any(part.role is not None for part in par_parts(term))


def service_types(term: Collaboration) -> dict:
    """Per service, the endpoint types in log order (requester first): the
    inferred pair of a binary collaboration, the role-filled types of an
    n-role one."""
    if is_multiparty(term):
        return {name: filled_types(svc)
                for name, svc in m_service_groups(term).items()}
    return {name: (t_req, t_acc) for name, t_req, t_acc
            in service_pairs(infer_collaboration(term))}
