"""Type-level transition system for checkpointed sessions of n parties.

A configuration holds, for each party, a checkpoint type (with an imposed
flag) and a current type; parties sit at log positions, the requester first.
A binary session is the two-party case.  Communication meets the partner a
prefix's role annotation names, or the other party when a binary prefix
names none; a commit pins every other party that moved since its own
checkpoint, rollback restores every current from the checkpoints, an imposed
checkpoint turns a later roll into `err` currents, and abort resets the
configuration to the initial types.  Compliance asks that every reachable
configuration with no step has every current `end`, and rollback safety
lifts that check to every service of a collaboration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .sessiontypes import (SessionTypeT, TAbtT, TBrn, TCmt, TEnd, TErr, TIn,
                           TOut, TPlus, TRollT, TSel, head_normal_type,
                           render_type, type_key)
from .syntax import Log, process_key

DEFAULT_BUDGET = 10 ** 6


class InvalidBudget(ValueError):
    """CHERRY_BUDGET is set to something that is not an integer."""


def current_budget(override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get("CHERRY_BUDGET")
    if env:
        try:
            return int(env)
        except ValueError:
            raise InvalidBudget(
                f"CHERRY_BUDGET must be an integer, got {env!r}") from None
    return DEFAULT_BUDGET


class BudgetExceeded(Exception):
    """A breadth-first search found more states than its budget allows.
    `states` were found when it stopped, while it expanded BFS layer
    `depth` (the initial state is layer 0), which held `frontier`
    states."""

    def __init__(self, budget: int, *, states: int, depth: int,
                 frontier: int, what: str = "state"):
        super().__init__(f"{what} budget of {budget} exceeded")
        self.budget = budget
        self.states = states
        self.depth = depth
        self.frontier = frontier


# ---------------------------------------------------------------------------
# single-type transitions
# ---------------------------------------------------------------------------

def type_transitions(t: SessionTypeT) -> list:
    """Labelled steps of one session type: [(label, successor)].

    Labels are tuples: ("out", sort, src, dst), ("in", sort, src, dst),
    ("sel", label, src, dst), ("brn", label, src, dst), ("cmt",), ("roll",),
    ("abt",), ("tau", "L"|"R").  Recursive types step via their unfolding.
    """
    t = head_normal_type(t)
    match t:
        case TOut(s, c, a, b):
            return [(("out", s, a, b), c)]
        case TIn(s, c, a, b):
            return [(("in", s, a, b), c)]
        case TSel(l, c, a, b):
            return [(("sel", l, a, b), c)]
        case TBrn(arms, a, b):
            return [(("brn", l, a, b), c) for l, c in arms]
        case TPlus(l, r):
            return [(("tau", "L"), l), (("tau", "R"), r)]
        case TCmt(c):
            return [(("cmt",), c)]
        case TRollT():
            return [(("roll",), TEnd())]
        case TAbtT():
            return [(("abt",), TEnd())]
        case _:  # end / err
            return []


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckpointType:
    typ: SessionTypeT
    imposed: bool = False


@dataclass(frozen=True)
class TypeConfiguration:
    ckpts: tuple  # CheckpointType per party, in log order
    currents: tuple  # SessionTypeT per party
    inits: tuple  # SessionTypeT per party, fixed along a run


def initial_configuration(*types: SessionTypeT) -> TypeConfiguration:
    return TypeConfiguration(tuple(CheckpointType(t) for t in types),
                             types, types)


def role_of_position(pos: int, n: int) -> int:
    """Log position -> role (0-based position; the requester, role n, sits
    first)."""
    return n if pos == 0 else pos


def position_of_role(role: int, n: int) -> int:
    return 0 if role == n else role


def partner_position(i: int, role: int | None, n: int) -> int | None:
    """Position of the partner that a communication at position `i` names
    by `role`; a binary communication names none and talks to the other of
    two positions.  None when no other position fits."""
    if role is None:
        j = 1 - i if n == 2 else -1
    else:
        j = position_of_role(role, n)
    return j if 0 <= j < n and j != i else None


def config_key(cfg: TypeConfiguration) -> tuple:
    """Identity of a configuration within one run: per party the imposed
    flag and the `type_key`s of checkpoint and current.  The initial types
    are left out because they are fixed along a run.  Like `type_key`, the
    key is meaningful only while the configuration's types are alive."""
    key: list = []
    for ck, cur in zip(cfg.ckpts, cfg.currents):
        key += (ck.imposed, type_key(ck.typ), type_key(cur))
    return tuple(key)


def _ckpt_differs(ck: CheckpointType, current: SessionTypeT) -> bool:
    """Whether a commit imposes on a party (TS-Cmt1 rather than TS-Cmt2):
    an imposed checkpoint never counts as equal to the bare current."""
    return ck.imposed or type_key(ck.typ) != type_key(current)


def _log_ckpt_differs(lg: Log) -> bool:
    """The process-level `_ckpt_differs`: whether a partner's commit imposes
    on the party that owns `lg`."""
    return lg.ckpt.imposed or \
        process_key(lg.ckpt.process) != process_key(lg.current)


def _label_text(lab: tuple) -> str:
    match lab:
        case ("out", s, _, _):
            return f"com[{s}]"
        case ("sel", l, _, _):
            return f"lab[{l}]"
        case ("tau", side):
            return f"tau[{side}]"
        case (kind,):
            return kind
    return str(lab)


def config_transitions(cfg: TypeConfiguration) -> list:
    """All journal steps of a configuration, as (party, rule, label,
    successor) sorted by (party, rule, label); parties are 1-based log
    positions."""
    out: list = []
    cur = cfg.currents
    cks = cfg.ckpts
    n = len(cur)
    steps = [type_transitions(t) for t in cur]
    for i in range(n):
        for lab, nxt in steps[i]:
            match lab:
                # TS-Com: an output meets the partner's same-sort input;
                # TS-Lab: a selection meets the matching branch arm.  The
                # partner is the one the prefix names, and its prefix must
                # name this party back; checkpoints stay put
                case (("out" | "sel") as kind, x, src, dst):
                    j = partner_position(i, dst, n)
                    me = None if dst is None else role_of_position(i, n)
                    if j is None or src != me:
                        continue
                    want = ("in" if kind == "out" else "brn", x, dst, me)
                    rule = "TS-Com" if kind == "out" else "TS-Lab"
                    for plab, pnxt in steps[j]:
                        if plab == want:
                            curs = list(cur)
                            curs[i], curs[j] = nxt, pnxt
                            out.append((i + 1, rule, _label_text(lab),
                                        TypeConfiguration(
                                            cks, tuple(curs), cfg.inits)))
                # TS-Tau: a conditional resolves locally
                case ("tau", _):
                    curs = list(cur)
                    curs[i] = nxt
                    out.append((i + 1, "TS-Tau", _label_text(lab),
                                TypeConfiguration(cks, tuple(curs),
                                                  cfg.inits)))
                # TS-Cmt1: commit while some other party moved since its
                # checkpoint -> that party's current is imposed on it
                # TS-Cmt2: every other party still sits on its own
                # checkpoint -> they are left untouched
                case ("cmt",):
                    curs = list(cur)
                    ncks = list(cks)
                    curs[i] = nxt
                    ncks[i] = CheckpointType(nxt)
                    rule = "TS-Cmt2"
                    for h in range(n):
                        if h != i and _ckpt_differs(cks[h], cur[h]):
                            ncks[h] = CheckpointType(cur[h], imposed=True)
                            rule = "TS-Cmt1"
                    out.append((i + 1, rule, "cmt",
                                TypeConfiguration(tuple(ncks), tuple(curs),
                                                  cfg.inits)))
                # TS-Rll1: roll from an own checkpoint restores every
                # current; TS-Rll2: roll from an imposed checkpoint is
                # unrecoverable -> every current errs
                case ("roll",):
                    if cks[i].imposed:
                        out.append((i + 1, "TS-Rll2", "roll",
                                    TypeConfiguration(
                                        cks, tuple(TErr() for _ in cur),
                                        cfg.inits)))
                    else:
                        out.append((i + 1, "TS-Rll1", "roll",
                                    TypeConfiguration(
                                        cks, tuple(c.typ for c in cks),
                                        cfg.inits)))
                # TS-Abt1: abort resets the whole configuration
                case ("abt",):
                    out.append((i + 1, "TS-Abt1", "abt",
                                initial_configuration(*cfg.inits)))
    out.sort(key=lambda e: (e[0], e[1], e[2]))
    return out


# ---------------------------------------------------------------------------
# reachable transition system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    party: int
    rule: str
    label: str


@dataclass
class TransitionSystem:
    states: list  # list[TypeConfiguration], index = state id
    edges: list  # list[Edge], grouped by src in discovery order
    parents: list  # parents[i] = (state, edge) discovering state i, or None
    initial: int = 0

    def path_to(self, sid: int) -> list:
        """Edges of the discovery path from the initial state to `sid`."""
        path: list = []
        cur = sid
        while self.parents[cur] is not None:
            prev, edge = self.parents[cur]
            path.append(edge)
            cur = prev
        path.reverse()
        return path


def reachable_system(*types: SessionTypeT,
                     budget: int | None = None) -> TransitionSystem:
    """Breadth-first reachable configurations from the initial configuration
    of `types`, one per party in log order.  States are numbered by
    discovery order; per state the successor order is the sorted (party,
    rule, label) order, which makes numbering reproducible."""
    limit = current_budget(budget)
    init = initial_configuration(*types)
    states = [init]
    index = {config_key(init): 0}
    parents: list = [None]
    edges: list = []
    frontier = [0]
    depth = 0
    while frontier:
        nxt_frontier: list = []
        for sid in frontier:
            for party, rule, label, succ in config_transitions(states[sid]):
                key = config_key(succ)
                tid = index.get(key)
                if tid is None:
                    if len(states) >= limit:
                        raise BudgetExceeded(limit, states=len(states),
                                             depth=depth,
                                             frontier=len(frontier))
                    tid = len(states)
                    index[key] = tid
                    states.append(succ)
                    parents.append(None)
                    nxt_frontier.append(tid)
                edge = Edge(sid, tid, party, rule, label)
                edges.append(edge)
                if parents[tid] is None and tid != 0:
                    parents[tid] = (sid, edge)
        frontier = nxt_frontier
        depth += 1
    return TransitionSystem(states, edges, parents)


# ---------------------------------------------------------------------------
# compliance and rollback safety
# ---------------------------------------------------------------------------

def _is_end(t: SessionTypeT) -> bool:
    return isinstance(head_normal_type(t), TEnd)


@dataclass
class Violation:
    state: int
    config: TypeConfiguration
    path: list  # list[Edge] from the initial state


def _describe(cfg: TypeConfiguration, roles: bool) -> dict:
    n = len(cfg.currents)
    return {
        f"role{role_of_position(i, n)}" if roles else f"party{i + 1}": {
            "checkpoint": render_type(cfg.ckpts[i].typ),
            "imposed": cfg.ckpts[i].imposed,
            "current": render_type(cfg.currents[i]),
        }
        for i in range(n)
    }


def describe_configuration(cfg: TypeConfiguration) -> dict:
    """Per party, `party1` first: checkpoint, imposed flag and current."""
    return _describe(cfg, False)


@dataclass
class ComplianceReport:
    compliant: bool
    system: TransitionSystem
    violations: list  # list[Violation]
    # n-role presentation, set by the n-role entry points: rule names get
    # the M- prefix and parties are named role{r} instead of party{i}
    roles: bool = False

    def to_json(self) -> dict:
        prefix = "M-" if self.roles else ""
        return {
            "verdict": "compliant" if self.compliant else "violating",
            "states": len(self.system.states),
            "edges": len(self.system.edges),
            "violations": [
                {
                    "terminal": _describe(v.config, self.roles),
                    "state": v.state,
                    "path": [prefix + e.rule for e in v.path],
                }
                for v in self.violations
            ],
        }


def check_compliance(*types: SessionTypeT,
                     budget: int | None = None) -> ComplianceReport:
    """Types comply when every reachable configuration that offers no step
    has every current at end.  No terminals at all is compliant."""
    ts = reachable_system(*types, budget=budget)
    has_out = [False] * len(ts.states)
    for e in ts.edges:
        has_out[e.src] = True
    violations: list = []
    for sid, cfg in enumerate(ts.states):
        if has_out[sid]:
            continue
        if all(_is_end(t) for t in cfg.currents):
            continue
        violations.append(Violation(sid, cfg, ts.path_to(sid)))
    return ComplianceReport(not violations, ts, violations)


@dataclass
class RollbackSafetyReport:
    safe: bool
    services: dict  # service name -> ComplianceReport

    def to_json(self) -> dict:
        return {
            "verdict": "rollback safe" if self.safe
                       else "not rollback safe",
            "services": {name: rep.to_json()
                         for name, rep in self.services.items()},
        }


def check_rollback_safety(term, budget: int | None = None) \
        -> RollbackSafetyReport:
    """A collaboration is rollback safe when, for every service, the types
    inferred for its endpoints comply: the requester and the acceptor of a
    binary service, every role of an n-role one."""
    # n-role inference lives in `multiparty`, which imports this module
    from .multiparty import is_multiparty, service_types
    roles = is_multiparty(term)
    reports: dict = {}
    for name, types in service_types(term).items():
        reports[name] = check_compliance(*types, budget=budget)
        reports[name].roles = roles
    return RollbackSafetyReport(all(r.compliant for r in reports.values()),
                                reports)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def export_dot(ts: TransitionSystem, violating: set | None = None,
               name: str = "reachable") -> str:
    """Graphviz text for a transition system; violating terminal states get
    a double periphery."""
    violating = violating or set()
    lines = [f"digraph {name} {{", "  rankdir=LR;",
             "  node [shape=circle];"]
    for sid in range(len(ts.states)):
        attrs = [f'label="{sid}"']
        if sid == ts.initial:
            attrs.append("style=bold")
        if sid in violating:
            attrs.append("peripheries=2")
        lines.append(f"  n{sid} [{', '.join(attrs)}];")
    for e in ts.edges:
        lines.append(
            f'  n{e.src} -> n{e.dst} [label="{e.rule} {e.label} '
            f'p{e.party}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def compliance_dot(report: ComplianceReport, name: str = "reachable") -> str:
    return export_dot(report.system, {v.state for v in report.violations},
                      name)
