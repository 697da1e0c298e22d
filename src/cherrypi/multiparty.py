"""Multiparty sessions: n roles with the requester as role n.

The engines in `semantics` and `runtime` step sessions of any number of
parties, and `infer` groups a collaboration's endpoints by service and
infers each role's type; what is n-role only lives here: the `m_*` entry
points, and the transcription of a binary program into its two-role twin
(with the erasure back, for cross-checking).
"""

from __future__ import annotations

from .syntax import (Accept, CheckpointProcess, Collaboration, ComError,
                     Endpoint, Log, MalformedTerm, MEndpoint, Par, Process,
                     Request, RollError, Session, _map_proc, par, par_parts)
from .semantics import (ComplianceReport, TransitionSystem,
                        check_compliance, check_rollback_safety, config_key,
                        config_transitions, reachable_system)
from .runtime import (DecisionOracle, ExplorationReport, StepRecord, Trace,
                      explore, reduction_steps, simulate)
from .parser import SourceProgram


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


def m_reduction_steps(state: Collaboration, mode: str = "plain", *,
                      exhaustive: bool = False) -> list:
    return reduction_steps(state, mode, exhaustive=exhaustive)


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
    def go(q):
        return _map_proc(q, go, role=lambda _: partner)

    return go(p)


def to_multiparty(program: SourceProgram) -> SourceProgram:
    """Two-party transcription of a binary program: the requester becomes
    role 2, the acceptor role 1."""
    parts = []
    for part in par_parts(program.term):
        if part.role is not None:
            raise MalformedTerm("program is already multiparty")
        own = 2 if isinstance(part, Request) else 1
        parts.append(type(part)(part.chan, part.var,
                                _annotate(part.body, 3 - own), own))
    return SourceProgram(dict(program.decls), par(*parts), True)


def _erase_proc(p: Process) -> Process:
    return _map_proc(p, _erase_proc, chan=_erase_chan, role=lambda _: None)


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
        case Request(a, x, body) | Accept(a, x, body):
            return type(c)(a, x, _erase_proc(body), None)
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
