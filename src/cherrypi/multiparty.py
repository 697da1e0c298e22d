"""Multiparty sessions: n roles with the requester as role n.

The engines in `semantics` and `runtime` step sessions of any number of
parties; what is n-role only lives here: grouping a collaboration's
endpoints by service and inferring each role's type, the `m_*` entry
points, and the transcription of a binary program into its two-role twin
(with the erasure back, for cross-checking).
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (Accept, Branch, ChanVar, CheckpointProcess,
                     Collaboration, ComError, Commit, Endpoint, If, Log,
                     MalformedTerm, MEndpoint, Par, Process, Rec, Recv,
                     Request, RollError, Select, Send, Session, par,
                     par_parts)
from .sessiontypes import fill_roles
from .infer import (TypingError, infer_collaboration, service_pairs,
                    type_of_process)
from .semantics import (ComplianceReport, TransitionSystem,
                        check_compliance, check_rollback_safety, config_key,
                        config_transitions, reachable_system)
from .runtime import (DecisionOracle, ExplorationReport, StepRecord, Trace,
                      explore, reduction_steps, simulate)
from .parser import SourceProgram


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def _check_roles_used(p: Process, own: int, n: int):
    def bad(role, what):
        raise TypingError(
            f"{what} names role {role}, outside 1..{n} minus the own "
            f"role {own}")

    def go(t):
        match t:
            case Send(_, _, c, r) | Select(_, _, c, r):
                if r is None or not (1 <= r <= n) or r == own:
                    bad(r, "communication")
                go(c)
            case Recv(_, _, _, c, r):
                if r is None or not (1 <= r <= n) or r == own:
                    bad(r, "communication")
                go(c)
            case Branch(_, arms, r):
                if r is None or not (1 <= r <= n) or r == own:
                    bad(r, "communication")
                for _, a in arms:
                    go(a)
            case If(_, a, b):
                go(a)
                go(b)
            case Rec(_, b) | Commit(b):
                go(b)
            case _:
                pass

    go(p)


@dataclass
class MService:
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


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def m_check_compliance(types: tuple, budget: int | None = None) \
        -> ComplianceReport:
    """Compliance of role types in log order (requester first), reported
    with n-role names."""
    rep = check_compliance(*types, budget=budget)
    rep.roles = True
    return rep


# rollback safety reads binary or n-role from the collaboration itself
m_check_rollback_safety = check_rollback_safety


# bench/tracing.py times each of the following names as a span of its own,
# so each stays a `def`: an alias of the engine function would be wrapped
# twice and double every span

def m_reachable_system(types: tuple, budget: int | None = None) \
        -> TransitionSystem:
    return reachable_system(*types, budget=budget)


def m_config_key(cfg) -> tuple:
    return config_key(cfg)


def m_config_transitions(cfg) -> list:
    return config_transitions(cfg)


def m_reduction_steps(state: Collaboration, mode: str = "plain",
                      oracle: DecisionOracle | None = None,
                      exhaustive: bool = False) -> list:
    return reduction_steps(state, mode, oracle, exhaustive)


def m_simulate(program: SourceProgram,
               oracle: DecisionOracle | None = None,
               max_steps: int = 1000, mode: str = "plain") -> Trace:
    return simulate(program, oracle, max_steps, mode)


def m_explore(program: SourceProgram, depth: int = 30, mode: str = "plain",
              budget: int | None = None) -> ExplorationReport:
    return explore(program, depth, mode, budget)


# ---------------------------------------------------------------------------
# binary <-> two-party transcription
# ---------------------------------------------------------------------------

def _annotate(p: Process, partner: int) -> Process:
    match p:
        case Send(ch, e, cont, _):
            return Send(ch, e, _annotate(cont, partner), partner)
        case Recv(ch, y, s, cont, _):
            return Recv(ch, y, s, _annotate(cont, partner), partner)
        case Select(ch, l, cont, _):
            return Select(ch, l, _annotate(cont, partner), partner)
        case Branch(ch, arms, _):
            return Branch(ch, tuple((l, _annotate(a, partner))
                                    for l, a in arms), partner)
        case If(c, a, b):
            return If(c, _annotate(a, partner), _annotate(b, partner))
        case Rec(x, b):
            return Rec(x, _annotate(b, partner))
        case Commit(c):
            return Commit(_annotate(c, partner))
        case _:
            return p


def to_multiparty(program: SourceProgram) -> SourceProgram:
    """Two-party transcription of a binary program: the requester becomes
    role 2, the acceptor role 1."""
    parts = []
    for part in par_parts(program.term):
        if part.role is not None:
            raise MalformedTerm("program is already multiparty")
        if isinstance(part, Request):
            parts.append(Request(part.chan, part.var,
                                 _annotate(part.body, 1), 2))
        else:
            parts.append(Accept(part.chan, part.var,
                                _annotate(part.body, 2), 1))
    return SourceProgram(dict(program.decls), par(*parts), True)


def _erase_proc(p: Process) -> Process:
    match p:
        case Send(ch, e, cont, _):
            return Send(_erase_chan(ch), e, _erase_proc(cont), None)
        case Recv(ch, y, s, cont, _):
            return Recv(_erase_chan(ch), y, s, _erase_proc(cont), None)
        case Select(ch, l, cont, _):
            return Select(_erase_chan(ch), l, _erase_proc(cont), None)
        case Branch(ch, arms, _):
            return Branch(_erase_chan(ch),
                          tuple((l, _erase_proc(a)) for l, a in arms), None)
        case If(c, a, b):
            return If(c, _erase_proc(a), _erase_proc(b))
        case Rec(x, b):
            return Rec(x, _erase_proc(b))
        case Commit(c):
            return Commit(_erase_proc(c))
        case _:
            return p


def _erase_chan(ch):
    if isinstance(ch, MEndpoint):
        if ch.role not in (1, 2):
            raise MalformedTerm(
                "role erasure is defined for two-party sessions only")
        return Endpoint(ch.session, ch.role == 2)
    return ch


def erase_to_binary(c: Collaboration) -> Collaboration:
    """Strip a two-party multiparty collaboration back to binary form."""
    match c:
        case Request(a, x, body, _):
            return Request(a, x, _erase_proc(body), None)
        case Accept(a, x, body, _):
            return Accept(a, x, _erase_proc(body), None)
        case Par(parts):
            return par(*(erase_to_binary(p) for p in parts))
        case Session(s, saved, body):
            return Session(s, erase_to_binary(saved),
                           erase_to_binary(body))
        case Log(ep, ckpt, cur):
            return Log(_erase_chan(ep),
                       CheckpointProcess(_erase_proc(ckpt.process),
                                         ckpt.imposed),
                       _erase_proc(cur))
        case RollError() | ComError():
            return c
    raise MalformedTerm(f"not a collaboration: {c!r}")


def erase_rule_name(rule: str) -> str:
    return rule[2:] if rule.startswith("M-") else rule


def erase_trace(tr: Trace) -> Trace:
    """Binary view of a two-party run: roles stripped, rule prefixes
    dropped.  Step texts are positional, so they carry over unchanged."""
    program = None
    if tr.program is not None:
        program = SourceProgram(dict(tr.program.decls),
                                erase_to_binary(tr.program.term), False)
    return Trace(
        erase_to_binary(tr.initial),
        [StepRecord(erase_rule_name(s.rule), s.session, s.party, s.text,
                    s.backward, erase_to_binary(s.state))
         for s in tr.steps],
        tr.status, tr.oracle, program)
