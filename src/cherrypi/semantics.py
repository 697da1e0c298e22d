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

A configuration is a node, the tuple (`config_key`, checkpoint types,
current types, initial types), whose key's slots hold the imposed flags.
It is the one shape of a type-level state: a system's `states` are its
nodes, and a compliance report's violations are state ids.
`_party_transitions` is the one stepper of nodes: it steps each party
from the head of its current type, and its steps are (successor key,
(party, rule, label), successor node), read by `search`,
`config_transitions` and the shadow checker's `shadow._mirror`.
A successor's key is derived from the parent's by replacing only the
slots the step changed; an abort returns to the root node of the node's
initial types, which is keyed from those types, as a search's root is.

`search` is the package's one breadth-first search, under `reachable_system`
and `runtime.explore` alike: it keeps edges and parent pointers in flat
arrays, an edge's label being slot 1 of its step, lists the dead states,
those with no step, and alone checks a state budget.
"""

from __future__ import annotations

import os
import sys
from array import array
from functools import cached_property

from .sessiontypes import (SessionTypeT, TAbtT, TBrn, TCmt, TEnd, TErr, TIn,
                           TOut, TPlus, TRollT, TSel, head_normal_type,
                           subtypes, _render, type_key)
from .infer import service_types
from .syntax import MalformedInput, par_parts, record

DEFAULT_BUDGET = 10 ** 6


class InvalidBudget(MalformedInput):
    """A state budget (an argument or CHERRY_BUDGET) below 1 or not an
    integer."""


def current_budget(override: int | None = None) -> int:
    if override is not None:
        if override < 1:
            raise InvalidBudget(f"budget must be positive, got {override}")
        return override
    env = os.environ.get("CHERRY_BUDGET")
    if env:
        # quoted in an error, a long value is cut to its first characters
        shown = repr(env) if len(env) <= 40 else \
            f"{env[:20]!r}... ({len(env)} characters)"
        try:
            budget = int(env)
        except ValueError:
            digits = env.strip()
            if digits[:1] in ("+", "-"):
                digits = digits[1:]
            if digits.isdecimal():  # then it is past `int()`'s digit limit
                raise InvalidBudget(
                    f"CHERRY_BUDGET has more than "
                    f"{sys.get_int_max_str_digits()} digits, got {shown}") \
                    from None
            raise InvalidBudget(
                f"CHERRY_BUDGET must be an integer, got {shown}") from None
        if budget < 1:
            raise InvalidBudget(
                f"CHERRY_BUDGET must be positive, got {shown}")
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
# configurations
# ---------------------------------------------------------------------------

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


def config_key(node: tuple) -> tuple:
    """Identity of a node's configuration within one run, its slot 0: per
    party the imposed flag and the `type_key`s of checkpoint and current,
    and not the initial types, which are fixed along a run.  Like
    `type_key`, it is meaningful only while the node's types are alive."""
    return node[0]


def _root(types: tuple) -> tuple:
    """The node of the initial configuration of `types`."""
    key: list = []
    for t in types:
        k = type_key(t)
        key += (False, k, k)
    return tuple(key), types, types, types


def config_transitions(node: tuple) -> list:
    """All journal steps of a configuration's node, as `_party_transitions`
    gives them."""
    return _party_transitions(node)


def _party_transitions(node: tuple, parties=None) -> list:
    """The journal steps of the parties at the 0-based log positions
    `parties` (all by default), each (successor key, (party, rule, label),
    successor node); an abort returns to the `_root` of its initial types.
    A party steps from the head of its current type, as
    `runtime._session_steps` steps a log.  A head gives steps of one rule,
    in label order, so steps come in (party, rule, label) order only when
    `parties` ascend.  A successor's key is its parent's with the slots
    the step changed replaced."""
    out: list = []
    pkey, cks, cur, inits = node
    n = len(cur)
    heads = list(map(head_normal_type, cur))
    for i in range(n) if parties is None else parties:
        party = i + 1
        at = 3 * i  # this party's key slots: imposed, checkpoint, current
        t = heads[i]
        kind = t.__class__
        # TS-Com: an output meets the partner's same-sort input;
        # TS-Lab: a selection meets the matching branch arm.  The partner
        # is the one the prefix names, and its prefix must name this party
        # back; checkpoints stay put
        if kind is TOut or kind is TSel:
            dst = t.dst
            j = partner_position(i, dst, n)
            me = None if dst is None else role_of_position(i, n)
            if j is None or t.src != me:
                continue
            p = heads[j]
            if kind is TOut:
                if p.__class__ is not TIn or p.sort != t.sort:
                    continue
                rule, label, arms = "TS-Com", f"com[{t.sort}]", (p.cont,)
            elif p.__class__ is TBrn:
                rule, label = "TS-Lab", f"lab[{t.label}]"
                arms = [c for l, c in p.arms if l == t.label]
            else:
                continue
            if p.src != dst or p.dst != me:
                continue
            nxt = t.cont
            for pnxt in arms:
                curs = list(cur)
                curs[i], curs[j] = nxt, pnxt
                key = list(pkey)
                key[at + 2] = type_key(nxt)
                key[3 * j + 2] = type_key(pnxt)
                out.append((key := tuple(key), (party, rule, label),
                            (key, cks, tuple(curs), inits)))
        # TS-Tau: a conditional resolves locally, its left side first
        elif kind is TPlus:
            for side, nxt in ("L", t.left), ("R", t.right):
                curs = list(cur)
                curs[i] = nxt
                key = list(pkey)
                key[at + 2] = type_key(nxt)
                out.append((key := tuple(key),
                            (party, "TS-Tau", f"tau[{side}]"),
                            (key, cks, tuple(curs), inits)))
        # TS-Cmt1: commit while some other party moved since its
        # checkpoint (an imposed checkpoint always counts as moved) ->
        # that party's current is imposed on it
        # TS-Cmt2: every other party still sits on its own checkpoint
        # -> they are left untouched
        elif kind is TCmt:
            nxt = t.cont
            curs, ncks = list(cur), list(cks)
            curs[i] = ncks[i] = nxt
            key = list(pkey)
            key[at + 1] = key[at + 2] = type_key(nxt)
            key[at] = False
            rule = "TS-Cmt2"
            for h in range(n):
                k = 3 * h  # the parent's slots tell whether h moved
                if h != i and (pkey[k] or pkey[k + 1] != pkey[k + 2]):
                    ncks[h] = cur[h]
                    key[k:k + 2] = True, pkey[k + 2]
                    rule = "TS-Cmt1"
            out.append((key := tuple(key), (party, rule, "cmt"),
                        (key, tuple(ncks), tuple(curs), inits)))
        # TS-Rll1: roll from an own checkpoint restores every current;
        # TS-Rll2: roll from an imposed checkpoint is unrecoverable ->
        # every current errs
        elif kind is TRollT:
            key = list(pkey)
            if pkey[at]:
                rule, curs = "TS-Rll2", (TErr(),) * n
                key[2::3] = [type_key(curs[0])] * n
            else:
                rule, curs = "TS-Rll1", cks
                key[2::3] = pkey[1::3]
            out.append((key := tuple(key), (party, rule, "roll"),
                        (key, cks, curs, inits)))
        # TS-Abt1: abort resets the whole configuration
        elif kind is TAbtT:
            root = _root(inits)
            out.append((root[0], (party, "TS-Abt1", "abt"), root))
    return out


# ---------------------------------------------------------------------------
# reachable transition system
# ---------------------------------------------------------------------------

class TransitionSystem(metaclass=record):
    """What `search` found, for types and programs alike, in flat columns: per
    state its node and the index of the edge that found it (-1 for state 0);
    per edge, in source order, its ends and its label, slot 1 of its step; the
    dead states, with no step.  `states` is `nodes`, and `edges` are (src,
    dst, label) triples, built on first read: a type-level label is (party,
    rule, label), a program's the built `runtime.Candidate`."""
    nodes: list
    src: array
    dst: array
    labels: list
    found_by: array
    dead: list  # ids of the states whose `steps` gave none, in id order

    states = property(lambda self: self.nodes)

    @cached_property
    def edges(self) -> list:
        return list(zip(self.src, self.dst, self.labels))

    def path_to(self, sid: int) -> list:
        """Labels of the steps that discovered `sid`, from state 0 on."""
        path: list = []
        while sid:
            e = self.found_by[sid]
            path.append(self.labels[e])
            sid = self.src[e]
        return path[::-1]


def search(root, key, steps, make, budget: int | None = None,
           depth: int | None = None) -> TransitionSystem:
    """Breadth-first search from `root`, whose key is `key`.
    `steps(sid, node)` lists a state's steps in successor order, each a
    tuple whose slot 0 is its successor's key and slot 1 its edge's
    label; `make(src, node, step)` builds a successor's node only when that
    key is new.  A state whose steps are none is `dead`.  Layers from `depth`
    on are not expanded: the first of them is stepped only to find its dead
    states.  More than `budget` states raise `BudgetExceeded`."""
    limit = current_budget(budget)
    if depth is not None and depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    nodes = [root]
    index = {key: 0}
    known = index.get
    src, dst, labels, found_by = array("l"), array("l"), [], array("l", [-1])
    frontier, layer, dead = [0], 0, []
    while frontier and layer != depth:
        found: list = []
        for sid in frontier:
            node = nodes[sid]
            out = steps(sid, node)
            if not out:
                dead.append(sid)
            for step in out:
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
                labels.append(step[1])
        frontier = found
        layer += 1
    dead += [sid for sid in frontier if not steps(sid, nodes[sid])]
    return TransitionSystem(nodes, src, dst, labels, found_by, dead)


def reachable_system(*types: SessionTypeT,
                     budget: int | None = None) -> TransitionSystem:
    """The configurations reachable from the initial configuration of
    `types`, one per party in log order, found by `search` and keyed by
    `config_key`.  The (party, rule, label) successor order makes
    numbering reproducible.  A state is its node, and an edge's label and
    a path step are (party, rule, label)."""
    root = _root(types)
    return search(root, root[0], lambda sid, node: _party_transitions(node),
                  lambda src, node, step: step[2], budget=budget)


# ---------------------------------------------------------------------------
# compliance and rollback safety
# ---------------------------------------------------------------------------

def _describe(node: tuple, roles: bool, memo: dict) -> dict:
    """Per party of a node: checkpoint, imposed flag (key slot `3*i`) and
    current, each type rendered through `memo` (see
    `sessiontypes._render`)."""
    key, cks, curs, _ = node
    n = len(curs)
    return {
        f"role{role_of_position(i, n)}" if roles else f"party{i + 1}": {
            "checkpoint": _render(cks[i], memo),
            "imposed": key[3 * i],
            "current": _render(curs[i], memo),
        }
        for i in range(n)
    }


class ComplianceReport(metaclass=record):
    system: TransitionSystem
    violations: list  # ids of the violating states, in id order
    # n-role presentation, for types that name their own roles: rule
    # names get the M- prefix and parties are named role{r}, not party{i}
    roles: bool = False

    compliant = property(lambda self: not self.violations)

    def to_json(self) -> dict:
        prefix = "M-" if self.roles else ""
        # the violating configurations share most of their types' nodes,
        # so each node is rendered once per call
        memo: dict = {}
        ts = self.system
        return {
            "verdict": "compliant" if self.compliant else "violating",
            "states": len(ts.nodes),
            "edges": len(ts.src),
            "violations": [
                {
                    "terminal": _describe(ts.nodes[sid], self.roles, memo),
                    "state": sid,
                    "path": [prefix + lab[1] for lab in ts.path_to(sid)],
                }
                for sid in self.violations
            ],
        }


def check_compliance(*types: SessionTypeT,
                     budget: int | None = None) -> ComplianceReport:
    """Types comply when every reachable configuration that offers no step
    has every current at end.  No terminals at all is compliant.  The
    report names roles when the types name their own (`_own_roles`)."""
    return _compliance(types, budget, _own_roles(types))


def _compliance(types: tuple, budget: int | None, roles: bool) \
        -> ComplianceReport:
    ts = reachable_system(*types, budget=budget)
    violations = [sid for sid in ts.dead if not all(
        isinstance(head_normal_type(t), TEnd) for t in ts.nodes[sid][2])]
    return ComplianceReport(ts, violations, roles)


def _own_roles(types: tuple) -> bool:
    """Whether the first communication prefix of `types`, in source order,
    names its own role, as every prefix of inferred n-role types does."""
    stack = list(types)[::-1]
    while stack:
        t = stack.pop()
        if type(t) in (TOut, TIn, TSel, TBrn):
            return t.src is not None
        stack += subtypes(t)[::-1]
    return False


class RollbackSafetyReport(metaclass=record):
    services: dict  # service name -> ComplianceReport

    safe = property(lambda self: all(
        rep.compliant for rep in self.services.values()))

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
    binary service, every role of an n-role one.  The reports name roles
    when the endpoints do: the types of an n-role service that never
    communicates name none."""
    roles = any(part.role is not None for part in par_parts(term))
    services = service_types(term)
    if services:  # CHERRY_BUDGET is read once, after inference
        budget = current_budget(budget)
    return RollbackSafetyReport({name: _compliance(types, budget, roles)
                                 for name, types in services.items()})


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


def compliance_dot(report: ComplianceReport, name: str = "reachable") -> str:
    """Graphviz text for a compliance report's system; violating states
    get a double periphery."""
    ts = report.system
    return dot_graph(name, len(ts.nodes),
                     ((src, dst, f"{rule} {label} p{party}")
                      for src, dst, (party, rule, label) in ts.edges),
                     set(report.violations))
