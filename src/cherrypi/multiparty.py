"""Multiparty sessions: n roles with the requester as role n.

The engines in `semantics` and `runtime` step sessions of any number of
parties, and `infer` groups a collaboration's endpoints by service and
infers each role's type; what is n-role only lives here: the `m_*` entry
points, and the transcription of a binary program into its two-role twin
(the erasure back, which only the cross-checks use, is in the tests'
`oracle_naive`).
"""

from __future__ import annotations

from .syntax import (Collaboration, MalformedTerm, Process, Request,
                     _map_proc, par, par_parts)
from .semantics import (ComplianceReport, TransitionSystem,
                        check_compliance, check_rollback_safety, config_key,
                        config_transitions, reachable_system)
from .runtime import (DecisionOracle, ExplorationReport, Trace, explore,
                      reduction_steps, simulate)
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

    try:
        return go(p)
    finally:
        del go  # `go` holds itself: break the cycle, free the walk now


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
