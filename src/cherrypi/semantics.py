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

`_party_transitions` is the one stepper of configurations: `search` reads
it through `_keyed_transitions`, and `config_transitions` and the shadow
checker's `shadow._mirror` read it too.  Each step carries its successor's
key, derived from the parent's `config_key` by replacing only the slots the
step changed and kept on the successor, so only a search's root and an
abort's reset configuration are keyed from their types.

`search` is the package's one breadth-first search, under
`reachable_system` and `runtime.explore` alike: it builds a successor only
when its key is new, keeps edges and parent pointers in flat arrays, and
is the only place that checks a state budget.
"""

from __future__ import annotations

import os
from array import array
from functools import cached_property
from operator import itemgetter

from .sessiontypes import (SessionTypeT, TAbtT, TBrn, TCmt, TEnd, TErr, TIn,
                           TOut, TPlus, TRollT, TSel, head_normal_type,
                           _render, type_key)
from .infer import is_multiparty, service_types
from .syntax import par, record

DEFAULT_BUDGET = 10 ** 6


class InvalidBudget(ValueError):
    """A state budget (an argument or CHERRY_BUDGET) below 1 or not an
    integer."""


def current_budget(override: int | None = None) -> int:
    if override is not None:
        if override < 1:
            raise InvalidBudget(f"budget must be positive, got {override}")
        return override
    env = os.environ.get("CHERRY_BUDGET")
    if env:
        try:
            budget = int(env)
        except ValueError:
            raise InvalidBudget(
                f"CHERRY_BUDGET must be an integer, got {env!r}") from None
        if budget < 1:
            raise InvalidBudget(
                f"CHERRY_BUDGET must be positive, got {env!r}")
        return budget
    return DEFAULT_BUDGET


class BudgetExceeded(Exception):
    """A breadth-first search found more states than its budget allows.
    `states` were found when it stopped, while it expanded BFS layer
    `depth` (the initial state is layer 0), which held `frontier`
    states."""

    def __init__(self, budget: int, *, states: int, depth: int,
                 frontier: int):
        super().__init__(f"state budget of {budget} exceeded")
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
    cls = t.__class__
    if cls is TOut:
        return [(("out", t.sort, t.src, t.dst), t.cont)]
    if cls is TIn:
        return [(("in", t.sort, t.src, t.dst), t.cont)]
    if cls is TSel:
        return [(("sel", t.label, t.src, t.dst), t.cont)]
    if cls is TBrn:
        a, b = t.src, t.dst
        return [(("brn", l, a, b), c) for l, c in t.arms]
    if cls is TPlus:
        return [(("tau", "L"), t.left), (("tau", "R"), t.right)]
    if cls is TCmt:
        return [(("cmt",), t.cont)]
    if cls is TRollT:
        return [(("roll",), TEnd())]
    if cls is TAbtT:
        return [(("abt",), TEnd())]
    return []  # end / err


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

class CheckpointType(metaclass=record, frozen=True):
    typ: SessionTypeT
    imposed: bool = False


class TypeConfiguration(metaclass=record, frozen=True):
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
    key is meaningful only while the configuration's types are alive.  It
    is kept on the configuration as `_key`, which the stepper sets on every
    successor it builds."""
    d = cfg.__dict__
    key = d.get("_key")
    if key is None:
        key = []
        for ck, cur in zip(cfg.ckpts, cfg.currents):
            key += (ck.imposed, type_key(ck.typ), type_key(cur))
        key = d["_key"] = tuple(key)
    return key


def config_transitions(cfg: TypeConfiguration) -> list:
    """All journal steps of a configuration, as (party, rule, label,
    successor) sorted by (party, rule, label); parties are 1-based log
    positions."""
    return [step[1:] for step in _keyed_transitions(0, cfg)]


def _keyed(key: list, party: int, rule: str, label: str, ckpts: tuple,
           currents: list, inits: tuple) -> tuple:
    """A step of `_party_transitions`; its successor keeps `key` as
    `_key`."""
    succ = TypeConfiguration(ckpts, tuple(currents), inits)
    key = succ.__dict__["_key"] = tuple(key)
    return key, party, rule, label, succ


def _party_transitions(cfg: TypeConfiguration, i: int, steps: list) -> list:
    """The journal steps of the party at 0-based position `i`, unsorted,
    each (successor key, party, rule, label, successor); `steps` holds
    every party's `type_transitions`.  A successor's key is its parent's
    `config_key` with the slots the step changed replaced."""
    out: list = []
    cur = cfg.currents
    cks = cfg.ckpts
    inits = cfg.inits
    n = len(cur)
    # kept on every configuration a search reached, read without a call
    pkey = cfg.__dict__.get("_key") or config_key(cfg)
    party = i + 1
    at = 3 * i  # this party's key slots: imposed, checkpoint, current
    for lab, nxt in steps[i]:
        kind = lab[0]
        # TS-Com: an output meets the partner's same-sort input;
        # TS-Lab: a selection meets the matching branch arm.  The partner
        # is the one the prefix names, and its prefix must name this party
        # back; checkpoints stay put
        if kind == "out" or kind == "sel":
            _, x, src, dst = lab
            j = partner_position(i, dst, n)
            me = None if dst is None else role_of_position(i, n)
            if j is None or src != me:
                continue
            if kind == "out":
                want, rule, label = ("in", x, dst, me), "TS-Com", f"com[{x}]"
            else:
                want, rule, label = ("brn", x, dst, me), "TS-Lab", f"lab[{x}]"
            for plab, pnxt in steps[j]:
                if plab == want:
                    curs = list(cur)
                    curs[i], curs[j] = nxt, pnxt
                    key = list(pkey)
                    key[at + 2] = type_key(nxt)
                    key[3 * j + 2] = type_key(pnxt)
                    out.append(_keyed(key, party, rule, label, cks, curs,
                                      inits))
        # TS-Tau: a conditional resolves locally
        elif kind == "tau":
            curs = list(cur)
            curs[i] = nxt
            key = list(pkey)
            key[at + 2] = type_key(nxt)
            out.append(_keyed(key, party, "TS-Tau", f"tau[{lab[1]}]", cks,
                              curs, inits))
        # TS-Cmt1: commit while some other party moved since its
        # checkpoint (an imposed checkpoint always counts as moved) ->
        # that party's current is imposed on it
        # TS-Cmt2: every other party still sits on its own checkpoint ->
        # they are left untouched
        elif kind == "cmt":
            curs = list(cur)
            curs[i] = nxt
            ncks = list(cks)
            ncks[i] = CheckpointType(nxt)
            key = list(pkey)
            key[at + 1] = key[at + 2] = type_key(nxt)
            key[at] = False
            rule = "TS-Cmt2"
            for h in range(n):
                k = 3 * h  # the parent's slots tell whether h moved
                if h != i and (pkey[k] or pkey[k + 1] != pkey[k + 2]):
                    ncks[h] = CheckpointType(cur[h], imposed=True)
                    key[k:k + 2] = True, pkey[k + 2]
                    rule = "TS-Cmt1"
            out.append(_keyed(key, party, rule, "cmt", tuple(ncks), curs,
                              inits))
        # TS-Rll1: roll from an own checkpoint restores every current;
        # TS-Rll2: roll from an imposed checkpoint is unrecoverable ->
        # every current errs
        elif kind == "roll":
            key = list(pkey)
            if cks[i].imposed:
                err = TErr()
                key[2::3] = [type_key(err)] * n
                out.append(_keyed(key, party, "TS-Rll2", "roll", cks,
                                  [err] * n, inits))
            else:
                key[2::3] = pkey[1::3]
                out.append(_keyed(key, party, "TS-Rll1", "roll", cks,
                                  [c.typ for c in cks], inits))
        # TS-Abt1: abort resets the whole configuration
        elif kind == "abt":
            succ = initial_configuration(*inits)
            out.append((config_key(succ), party, "TS-Abt1", "abt", succ))
    return out


# ---------------------------------------------------------------------------
# reachable transition system
# ---------------------------------------------------------------------------

class Edge(metaclass=record, frozen=True):
    src: int
    dst: int
    party: int
    rule: str
    label: str


class TransitionSystem(metaclass=record):
    """What `search` found, for types and programs alike, in flat columns:
    per state its node and the index of the edge that found it (-1 for
    state 0); per edge, in source order, its ends and its step's label.
    The views `states`, `edges` and `parents` are built on first read:
    configurations and `Edge`s, or, for `programs` (nodes are tuples of
    items, labels candidates), terms and (src, dst, rule, text, backward)
    tuples."""
    nodes: list
    src: array
    dst: array
    labels: list
    found_by: array
    frontier: list  # the highest ids: found, not expanded (depth cut)
    programs: bool = False

    @cached_property
    def states(self) -> list:
        return ([par(*items) for items in self.nodes] if self.programs
                else self.nodes)

    @cached_property
    def edges(self) -> list:
        if self.programs:
            return [(s, d, c.rule, c.text, c.backward)
                    for s, d, c in zip(self.src, self.dst, self.labels)]
        return [Edge(s, d, step[1], step[2], step[3])
                for s, d, step in zip(self.src, self.dst, self.labels)]

    parents = cached_property(lambda self: [None] + [  # (src, label)
        (self.src[e], self.labels[e]) for e in self.found_by[1:]])

    def path_to(self, sid: int) -> list:
        """Labels of the steps that discovered `sid`, from state 0 on."""
        path: list = []
        while sid:
            e = self.found_by[sid]
            path.append(self.labels[e])
            sid = self.src[e]
        return path[::-1]


def search(root, key, steps, make, programs: bool = False,
           budget: int | None = None, depth: int | None = None) \
        -> TransitionSystem:
    """Breadth-first search from `root`, keyed by `key(root)`.
    `steps(sid, node)` lists a state's steps in successor order, each a
    tuple whose slot 0 is its successor's key; `make(src, node, step)`
    builds a successor's node only when that key is new.  An edge's label
    is its step, or for `programs` the step's candidate, in slot 1.
    Layers from `depth` on are not expanded; more than `budget` states
    raise `BudgetExceeded`."""
    limit = current_budget(budget)
    if depth is not None and depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    nodes = [root]
    index = {key(root): 0}
    known = index.get
    src, dst, labels, found_by = array("l"), array("l"), [], array("l", [-1])
    frontier, layer = [0], 0
    while frontier and layer != depth:
        found: list = []
        for sid in frontier:
            node = nodes[sid]
            for step in steps(sid, node):
                tid = known(step[0])
                if tid is None:
                    tid = len(nodes)
                    if tid >= limit:
                        raise BudgetExceeded(limit, states=tid, depth=layer,
                                             frontier=len(frontier))
                    index[step[0]] = tid
                    nodes.append(make(sid, node, step))
                    found_by.append(len(src))
                    found.append(tid)
                src.append(sid)
                dst.append(tid)
                labels.append(step[1] if programs else step)
        frontier = found
        layer += 1
    return TransitionSystem(nodes, src, dst, labels, found_by, frontier,
                            programs)


_STEP_ORDER = itemgetter(1, 2, 3)  # (party, rule, label)


def _keyed_transitions(sid: int, cfg: TypeConfiguration) -> list:
    """Every party's `_party_transitions`, as `search` steps sorted by
    (party, rule, label)."""
    steps = [type_transitions(t) for t in cfg.currents]
    out: list = []
    for i in range(len(steps)):
        out += _party_transitions(cfg, i, steps)
    out.sort(key=_STEP_ORDER)
    return out


def reachable_system(*types: SessionTypeT,
                     budget: int | None = None) -> TransitionSystem:
    """The configurations reachable from the initial configuration of
    `types`, one per party in log order, found by `search` and keyed by
    `config_key`.  The sorted (party, rule, label) successor order makes
    numbering reproducible.  Edges are `Edge`s, and a path step is (key,
    party, rule, label, successor)."""
    return search(initial_configuration(*types), config_key,
                  _keyed_transitions, lambda src, cfg, s: s[4],
                  budget=budget)


# ---------------------------------------------------------------------------
# compliance and rollback safety
# ---------------------------------------------------------------------------

class Violation(metaclass=record):
    state: int
    config: TypeConfiguration
    path: list  # `reachable_system` steps from the initial state


def _describe(cfg: TypeConfiguration, roles: bool, memo: dict) -> dict:
    """Per party: checkpoint, imposed flag and current, each type rendered
    through `memo` (see `sessiontypes._render`)."""
    n = len(cfg.currents)
    return {
        f"role{role_of_position(i, n)}" if roles else f"party{i + 1}": {
            "checkpoint": _render(cfg.ckpts[i].typ, memo),
            "imposed": cfg.ckpts[i].imposed,
            "current": _render(cfg.currents[i], memo),
        }
        for i in range(n)
    }


class ComplianceReport(metaclass=record):
    compliant: bool
    system: TransitionSystem
    violations: list  # list[Violation]
    # n-role presentation, set by the n-role entry points: rule names get
    # the M- prefix and parties are named role{r} instead of party{i}
    roles: bool = False

    def to_json(self) -> dict:
        prefix = "M-" if self.roles else ""
        # the violating configurations share most of their types' nodes,
        # so each node is rendered once per call
        memo: dict = {}
        return {
            "verdict": "compliant" if self.compliant else "violating",
            "states": len(self.system.nodes),
            "edges": len(self.system.src),
            "violations": [
                {
                    "terminal": _describe(v.config, self.roles, memo),
                    "state": v.state,
                    "path": [prefix + step[2] for step in v.path],
                }
                for v in self.violations
            ],
        }


def check_compliance(*types: SessionTypeT,
                     budget: int | None = None) -> ComplianceReport:
    """Types comply when every reachable configuration that offers no step
    has every current at end.  No terminals at all is compliant."""
    ts = reachable_system(*types, budget=budget)
    live = set(ts.src)
    violations = [Violation(sid, cfg, ts.path_to(sid))
                  for sid, cfg in enumerate(ts.states) if sid not in live
                  and not all(isinstance(head_normal_type(t), TEnd)
                              for t in cfg.currents)]
    return ComplianceReport(not violations, ts, violations)


class RollbackSafetyReport(metaclass=record):
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

def dot_graph(name: str, nstates: int, edges, marked) -> str:
    """Graphviz text for states 0..nstates-1 and `edges`, (src, dst, label)
    triples: the initial state 0 is bold, and `marked` states get a double
    periphery."""
    lines = [f"digraph {name} {{", "  rankdir=LR;",
             "  node [shape=circle];"]
    for sid in range(nstates):
        attrs = f'label="{sid}"'
        if sid == 0:
            attrs += ", style=bold"
        if sid in marked:
            attrs += ", peripheries=2"
        lines.append(f"  n{sid} [{attrs}];")
    lines.extend(f'  n{src} -> n{dst} [label="{label}"];'
                 for src, dst, label in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(ts: TransitionSystem, violating: set | None = None,
               name: str = "reachable") -> str:
    """Graphviz text for a transition system; violating terminal states get
    a double periphery."""
    return dot_graph(name, len(ts.states),
                     ((e.src, e.dst, f"{e.rule} {e.label} p{e.party}")
                      for e in ts.edges), violating or ())


def compliance_dot(report: ComplianceReport, name: str = "reachable") -> str:
    return export_dot(report.system, {v.state for v in report.violations},
                      name)
