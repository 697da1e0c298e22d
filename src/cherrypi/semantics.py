"""Type-level transition system for checkpointed binary sessions.

A configuration pairs, for each of the two parties, a checkpoint type (with
an imposed flag) and a current type; rollback restores currents from the
checkpoints, an imposed checkpoint turns a later roll into `err` currents,
and abort resets the configuration to the initial pair.  Compliance asks that
every reachable configuration with no step has both currents `end`, and
rollback safety lifts that check to every service pair of a collaboration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .sessiontypes import (SessionTypeT, TAbtT, TBrn, TCmt, TEnd, TErr, TIn,
                           TMu, TOut, TPlus, TRollT, TSel, head_normal_type,
                           render_type, type_key)
from .infer import infer_collaboration, service_pairs
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
    ckpts: tuple  # (CheckpointType, CheckpointType)
    currents: tuple  # (SessionTypeT, SessionTypeT)
    inits: tuple  # (SessionTypeT, SessionTypeT), fixed along a run


def initial_configuration(t1: SessionTypeT, t2: SessionTypeT) \
        -> TypeConfiguration:
    return TypeConfiguration(
        (CheckpointType(t1), CheckpointType(t2)), (t1, t2), (t1, t2))


def config_key(cfg: TypeConfiguration) -> tuple:
    """Identity of a configuration within one run: per party the imposed
    flag and the `type_key`s of checkpoint and current.  The initial pair is
    left out because it is fixed along a run.  Like `type_key`, the key is
    meaningful only while the configuration's types are alive."""
    (k0, k1), (t0, t1) = cfg.ckpts, cfg.currents
    return (k0.imposed, type_key(k0.typ), type_key(t0),
            k1.imposed, type_key(k1.typ), type_key(t1))


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
    """All journal steps of a binary configuration, as
    (party, rule, label, successor) sorted by (party, rule, label)."""
    out: list = []
    cur = cfg.currents
    cks = cfg.ckpts
    for i in (0, 1):
        j = 1 - i
        for lab, nxt in type_transitions(cur[i]):
            match lab:
                # TS-Com: an output meets the partner's same-sort input;
                # checkpoints stay put
                case ("out", s, _, _):
                    for plab, pnxt in type_transitions(cur[j]):
                        if plab[0] == "in" and plab[1] == s:
                            curs = [None, None]
                            curs[i], curs[j] = nxt, pnxt
                            out.append((i + 1, "TS-Com", _label_text(lab),
                                        TypeConfiguration(
                                            cks, tuple(curs), cfg.inits)))
                # TS-Lab: a selection meets the matching branch arm
                case ("sel", l, _, _):
                    for plab, pnxt in type_transitions(cur[j]):
                        if plab[0] == "brn" and plab[1] == l:
                            curs = [None, None]
                            curs[i], curs[j] = nxt, pnxt
                            out.append((i + 1, "TS-Lab", _label_text(lab),
                                        TypeConfiguration(
                                            cks, tuple(curs), cfg.inits)))
                # TS-Tau: a conditional resolves locally
                case ("tau", _):
                    curs = list(cur)
                    curs[i] = nxt
                    out.append((i + 1, "TS-Tau", _label_text(lab),
                                TypeConfiguration(cks, tuple(curs),
                                                  cfg.inits)))
                # TS-Cmt1: commit against a partner that moved since its
                # checkpoint -> the partner's current is imposed on it
                # TS-Cmt2: partner still sits on its own checkpoint -> the
                # partner is left untouched
                case ("cmt",):
                    curs = list(cur)
                    ncks = list(cks)
                    curs[i] = nxt
                    ncks[i] = CheckpointType(nxt)
                    if _ckpt_differs(cks[j], cur[j]):
                        ncks[j] = CheckpointType(cur[j], imposed=True)
                        rule = "TS-Cmt1"
                    else:
                        rule = "TS-Cmt2"
                    out.append((i + 1, rule, "cmt",
                                TypeConfiguration(tuple(ncks), tuple(curs),
                                                  cfg.inits)))
                # TS-Rll1: roll from an own checkpoint restores both
                # currents; TS-Rll2: roll from an imposed checkpoint is
                # unrecoverable -> both currents err
                case ("roll",):
                    if cks[i].imposed:
                        out.append((i + 1, "TS-Rll2", "roll",
                                    TypeConfiguration(
                                        cks, (TErr(), TErr()), cfg.inits)))
                    else:
                        out.append((i + 1, "TS-Rll1", "roll",
                                    TypeConfiguration(
                                        cks, (cks[0].typ, cks[1].typ),
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


def reachable_system(t1: SessionTypeT, t2: SessionTypeT,
                     budget: int | None = None) -> TransitionSystem:
    """Breadth-first reachable configurations from init(t1, t2).  States are
    numbered by discovery order; per state the successor order is the sorted
    (party, rule, label) order, which makes numbering reproducible."""
    limit = current_budget(budget)
    init = initial_configuration(t1, t2)
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


@dataclass
class ComplianceReport:
    compliant: bool
    system: TransitionSystem
    violations: list  # list[Violation]

    def to_json(self) -> dict:
        return {
            "verdict": "compliant" if self.compliant else "violating",
            "states": len(self.system.states),
            "edges": len(self.system.edges),
            "violations": [
                {
                    "terminal": describe_configuration(v.config),
                    "state": v.state,
                    "path": [e.rule for e in v.path],
                }
                for v in self.violations
            ],
        }


def describe_configuration(cfg: TypeConfiguration) -> dict:
    return {
        f"party{i + 1}": {
            "checkpoint": render_type(cfg.ckpts[i].typ),
            "imposed": cfg.ckpts[i].imposed,
            "current": render_type(cfg.currents[i]),
        }
        for i in (0, 1)
    }


def check_compliance(t1: SessionTypeT, t2: SessionTypeT,
                     budget: int | None = None) -> ComplianceReport:
    """Two types comply when every reachable configuration that offers no
    step has both currents at end.  No terminals at all is compliant."""
    ts = reachable_system(t1, t2, budget)
    has_out = [False] * len(ts.states)
    for e in ts.edges:
        has_out[e.src] = True
    violations: list = []
    for sid, cfg in enumerate(ts.states):
        if has_out[sid]:
            continue
        if _is_end(cfg.currents[0]) and _is_end(cfg.currents[1]):
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
    """A collaboration is rollback safe when, for every service, the
    requester's and acceptor's inferred types comply."""
    assoc = infer_collaboration(term)
    reports: dict = {}
    for name, t_req, t_acc in service_pairs(assoc):
        reports[name] = check_compliance(t_req, t_acc, budget)
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
