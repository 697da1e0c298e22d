"""Sort checking for expressions and session-type inference for processes.

`infer_collaboration` maps each service endpoint of a binary collaboration to
the session type its process realises; the requester side is keyed with a
leading `~` on the service name.
"""

from __future__ import annotations

from .syntax import (Abort, Branch, Call, ChanVar, Commit, If, Inact, Lit,
                     Process, PVar, Rec, Recv, Request, Roll, Select, Send,
                     Ufun, Var, BUILTIN_SIGS, par_parts)
from .sessiontypes import (SessionTypeT, TAbtT, TBrn, TCmt, TEnd, TIn, TMu,
                           TOut, TPlus, TRollT, TSel, TVarT)


class TypingError(Exception):
    pass


def sort_of_expression(e, env: dict) -> str:
    """Sort of an expression under `env` (variable -> sort). [exprs]"""
    match e:
        case Lit():
            return e.sort()
        case Var(n):
            if n not in env:
                raise TypingError(f"unbound variable {n!r}")
            return env[n]
        case Call(op, args):
            arg_sorts = [sort_of_expression(a, env) for a in args]
            if op == "eq":
                if len(arg_sorts) != 2 or arg_sorts[0] != arg_sorts[1]:
                    raise TypingError(
                        f"'==' needs two operands of one sort, got "
                        f"{arg_sorts}")
                return "bool"
            want, result = BUILTIN_SIGS[op]
            if tuple(arg_sorts) != want:
                raise TypingError(
                    f"operator {op!r} expects {want}, got "
                    f"{tuple(arg_sorts)}")
            return result
        case Ufun(fn, args, asorts, rsort, _):
            arg_sorts = tuple(sort_of_expression(a, env) for a in args)
            if arg_sorts != asorts:
                raise TypingError(
                    f"function {fn!r} expects {asorts}, got {arg_sorts}")
            return rsort
    raise TypingError(f"not an expression: {e!r}")


def _fresh_tvar(base: str, taken) -> str:
    if base not in taken:
        return base
    i = 1
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


def type_of_process(p: Process, chan, proc_env: dict | None = None,
                    var_env: dict | None = None,
                    multiparty: bool = False) -> SessionTypeT:
    """Session type of `p` on session identifier `chan`.

    Communication typed prefix-by-prefix; a conditional types as the internal
    choice of its branches; recursion binds a type variable named after the
    process variable.  In multiparty mode every communication must name a
    partner role, which lands in the partner slot of the prefix (the own slot
    stays open for `fill_roles`).
    """
    proc_env = {} if proc_env is None else proc_env
    var_env = {} if var_env is None else var_env

    def need_chan(c):
        if c != chan:
            raise TypingError(
                f"process talks on {c!r}, expected {chan!r}")

    def need_role(role, what: str):
        if multiparty and role is None:
            raise TypingError(f"{what} lacks a partner role annotation")
        if not multiparty and role is not None:
            raise TypingError(
                f"{what} has a role annotation in a binary endpoint")

    def go(p, penv, venv) -> SessionTypeT:
        match p:
            # x!<e>. P  with e: S  gives  ![S]. T
            case Send(c, e, cont, role):
                need_chan(c)
                need_role(role, "output")
                s = sort_of_expression(e, venv)
                return TOut(s, go(cont, penv, venv), None, role)
            # x?(y: S). P  extends the variable environment with y: S
            case Recv(c, y, s, cont, role):
                need_chan(c)
                need_role(role, "input")
                venv2 = dict(venv)
                venv2[y] = s
                return TIn(s, go(cont, penv, venv2), None, role)
            case Select(c, l, cont, role):
                need_chan(c)
                need_role(role, "selection")
                return TSel(l, go(cont, penv, venv), None, role)
            case Branch(c, arms, role):
                need_chan(c)
                need_role(role, "branching")
                return TBrn(tuple((l, go(a, penv, venv)) for l, a in arms),
                            None, role)
            # a conditional offers the internal choice of its two branches
            case If(cond, then, orelse):
                s = sort_of_expression(cond, venv)
                if s != "bool":
                    raise TypingError(
                        f"conditional guard has sort {s}, needs bool")
                return TPlus(go(then, penv, venv), go(orelse, penv, venv))
            case Rec(x, body):
                tv = _fresh_tvar(x, set(penv.values()))
                penv2 = dict(penv)
                penv2[x] = tv
                return TMu(tv, go(body, penv2, venv))
            case PVar(x):
                if x not in penv:
                    raise TypingError(
                        f"unbound recursion variable {x!r}")
                return TVarT(penv[x])
            case Inact():
                return TEnd()
            case Commit(cont):
                return TCmt(go(cont, penv, venv))
            case Roll():
                return TRollT()
            case Abort():
                return TAbtT()
        raise TypingError(f"not a process: {p!r}")

    return go(p, proc_env, var_env)


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
