"""Process-level execution for binary and n-role programs alike: decision
oracle, evaluation, barbs, reduction, simulation, exhaustive exploration
and trace replay.  The shadow typechecker, which runs the type-level
configuration alongside a trace, lives in `shadow` and is exported here
too.

A session logs one process per role, the requester first; a binary session
is the two-role case, its requester role 2 and its acceptor role 1.
Communication meets the partner a prefix's role names, or the other log
when a binary prefix names none.  Whether a session is binary shows only
in text: in how its endpoints are shown, and in its rule names, which
carry an `M-` prefix in an n-role session.

Uninterpreted functions are resolved by a `DecisionOracle`; its counters are
never rolled back, so a re-run after a rollback may take another branch.
Every reduction candidate is enumerated one way, lazily (`Candidate`):
enumerating never consumes draws, a step that evaluates an expression is
enumerated unevaluated, and nothing is built until it is taken.  A run
builds the one step it takes, consulting the oracle only then, so it opens
a connection's session only when it takes that connection; exploration
builds every step of a new state, once per outcome of its expression
(`_built`).

Exhaustive exploration runs on `semantics.search`, the breadth-first core
that type-level reachability uses too: it builds a successor only when its
state is new, and its edges are labelled by their candidates.  The report
names error and stuck states by id; their paths come from the search's
parent pointers when the report is serialised.
"""

from __future__ import annotations

import copy
import functools
import itertools
import random
import sys
from operator import itemgetter

from .syntax import (Abort, Accept, Branch, Call, Collaboration, Commit,
                     CheckpointProcess, Endpoint, ErrorState, If, Inact, Lit,
                     Log, MalformedInput, MalformedTerm, Process, Rec, Recv,
                     Request, Roll, Select, Send, Session, Ufun,
                     Var, check_arguments, check_guard, check_operands,
                     endpoint_role, head_normal, operator_of, par, par_parts,
                     process_key, record, substitute, term_rep, value_sort,
                     _TERMS)
from .parser import (SourceProgram, parse_program, render_expr,
                     render_program, show_collaboration)
from .semantics import TransitionSystem, partner_position, search
from .shadow import ShadowReport, shadow_typecheck  # exported here too


class OracleExhausted(MalformedInput):
    """The oracle has no value, or no valid one, for a call."""


class ExploreError(MalformedInput):
    """A call `explore` cannot enumerate: no declared domain."""


def _check_values(draws, what: str) -> None:
    """Refuse a (function, value) pair of a script or transcript whose
    value is not a bool, int or str, naming the function."""
    for fn, v in draws:
        if not isinstance(v, (int, str)):  # a bool is an int
            raise MalformedInput(f"{what} value for {fn!r} is not a bool, "
                                 f"int or str: {v!r}")


# ---------------------------------------------------------------------------
# decision oracle
# ---------------------------------------------------------------------------

_CONSTANT_DEFAULT = {"bool": False, "int": 0, "str": ""}


class DecisionOracle:
    """Resolves uninterpreted function calls.

    Modes: "scripted" replays per-function value lists; "seeded-random" draws
    reproducibly from a seed (a declared domain wins, otherwise bool is a coin
    flip, int is 0..9, str is "v0".."v3"); "constant" returns the first domain
    value or the sort's zero.  Every draw lands on the transcript.
    """

    def __init__(self, mode: str = "constant", script: dict | None = None,
                 seed: int = 0):
        if mode not in ("scripted", "seeded-random", "constant"):
            raise ValueError(f"unknown oracle mode {mode!r}")
        script = {} if script is None else script
        if not isinstance(script, dict) or not all(
                isinstance(fn, str) and isinstance(vals, (list, tuple))
                for fn, vals in script.items()):
            raise MalformedInput("a decision script must map function names "
                                 "to lists of values")
        _check_values(((fn, v) for fn, vals in script.items() for v in vals),
                      "a decision script")
        self.mode = mode
        self.script = {k: list(v) for k, v in script.items()}
        self.pointers: dict = {}
        self.rng = random.Random(seed)
        self.transcript: list = []

    def clone(self) -> "DecisionOracle":
        twin = copy.copy(self)
        twin.script = {k: list(v) for k, v in self.script.items()}
        twin.pointers = dict(self.pointers)
        # a constant seed, which `setstate` overwrites: seeding from the
        # operating system would cost more than the rest of the clone
        twin.rng = random.Random(0)
        twin.rng.setstate(self.rng.getstate())
        twin.transcript = list(self.transcript)
        return twin

    def draw(self, fn: str, result_sort: str, domain: tuple | None):
        if self.mode == "scripted":
            vals = self.script.get(fn)
            ptr = self.pointers.get(fn, 0)
            if vals is None or ptr >= len(vals):
                raise OracleExhausted(
                    f"script has no value for call #{ptr + 1} of {fn!r}")
            v = vals[ptr]
            self.pointers[fn] = ptr + 1
        elif self.mode == "seeded-random":
            if domain is not None:
                v = self.rng.choice(list(domain))
            elif result_sort == "bool":
                v = self.rng.random() < 0.5
            elif result_sort == "int":
                v = self.rng.randrange(10)
            else:
                v = f"v{self.rng.randrange(4)}"
        else:
            v = domain[0] if domain else _CONSTANT_DEFAULT[result_sort]
        if value_sort(v) != result_sort:
            raise OracleExhausted(
                f"oracle produced {v!r} for {fn!r}, which is not of sort "
                f"{result_sort}")
        if domain is not None and v not in domain:
            raise OracleExhausted(
                f"oracle produced {v!r} for {fn!r}, which is not in its "
                f"domain {list(domain)}")
        self.transcript.append((fn, v))
        return v

    def to_json(self) -> dict:
        return {"mode": self.mode,
                "transcript": [[fn, v] for fn, v in self.transcript]}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(e, oracle: DecisionOracle | None = None):
    """Big-step value of a closed expression; arguments evaluate left to
    right, an operator means what its `OPERATORS` row says, and every
    uninterpreted call consults the oracle.  Operands of sorts their
    operator does not take are refused, as typing refuses them."""
    kind = type(e)
    if kind is Lit:
        return e.value
    if kind is Call:
        row = operator_of(e, MalformedTerm)
        vals = [evaluate(a, oracle) for a in e.args]
        check_operands(row, e, list(map(value_sort, vals)), MalformedTerm)
        return row.meaning(*vals)
    if kind is Ufun:
        if e.args:  # argument draws happen first
            check_arguments(e, [value_sort(evaluate(a, oracle))
                                for a in e.args], MalformedTerm)
        if oracle is None:
            raise MalformedTerm(
                f"call of {e.name!r} needs a decision oracle")
        return oracle.draw(e.name, e.result_sort, e.domain)
    if kind is Var:
        raise MalformedTerm(f"unbound variable {e.name!r} in evaluation")
    raise MalformedTerm(f"not an expression: {e!r}")


def enumerate_values(e) -> list:
    """All possible values of an expression, branching over every
    uninterpreted call: [(value, choices)] with choices the assumed draws in
    order.  Calls of undeclared-domain int/str functions cannot be
    enumerated, and operands of sorts their operator does not take are
    refused."""
    kind = type(e)
    if kind is Lit:
        return [(e.value, ())]
    if kind is Call:
        row = operator_of(e, MalformedTerm)
    elif kind is Var:
        raise MalformedTerm(f"unbound variable {e.name!r} in evaluation")
    elif kind is not Ufun:
        raise MalformedTerm(f"not an expression: {e!r}")
    # [(values, choices)] of the arguments, each enumerated once
    combos = [((), ())]
    for a in e.args:
        found = enumerate_values(a)
        combos = [(vals + (v,), ch + ch2) for vals, ch in combos
                  for v, ch2 in found]
    if kind is Call:
        for vals, _ in combos:
            check_operands(row, e, list(map(value_sort, vals)),
                           MalformedTerm)
        return [(row.meaning(*vals), ch) for vals, ch in combos]
    fn, rsort = e.name, e.result_sort
    for vals, _ in combos:
        check_arguments(e, list(map(value_sort, vals)), MalformedTerm)
    if e.domain is not None:
        outcomes = list(e.domain)
    elif rsort == "bool":
        outcomes = [False, True]
    else:
        raise ExploreError(
            f"exploration needs a declared domain for {fn!r} "
            f"(sort {rsort})")
    return [(v, ch + ((fn, v),)) for _, ch in combos for v in outcomes]


def _sort_of(e) -> str | None:
    """The sort of an expression's value, read from its head without
    evaluating it or checking its operands: a literal's, an operator's
    result, an uninterpreted function's result; None for a variable,
    which evaluation then refuses as unbound."""
    kind = type(e)
    if kind is Lit:
        return value_sort(e.value)
    if kind is Call:
        return operator_of(e, MalformedTerm).result
    return e.result_sort if kind is Ufun else None


# ---------------------------------------------------------------------------
# barbs
# ---------------------------------------------------------------------------

def _undecided(x) -> bool:
    kind = type(x)
    if kind is Ufun or kind is Var:
        return True
    if kind is Call:
        return any(_undecided(a) for a in x.args)
    return False


def guard_value(e):
    """The value of a guard, or None when it is not known yet: an
    uninterpreted call makes the outcome oracle-dependent, and a variable
    is bound by a receive that an n-role observer's barbs passed over.  A
    guard that is not a bool is refused."""
    if _undecided(e):
        return None
    v = evaluate(e)
    check_guard(value_sort(v), MalformedTerm)
    return v


def barbs(p: Process, observer: int | None = None) -> frozenset:
    """Weak observables of a process, closed under internal steps.

    Internal steps here are conditional resolutions (both branches count as
    possible whenever the guard consults the oracle; a guard built purely
    from values follows its one branch) and commit consumption.  Barbs:
    ("out", chan, role), ("in", chan, role), ("sel", chan, label, role),
    ("brn", chan, label, role), ("roll",), ("abt",); the role is the partner
    annotation (None on binary endpoints).

    As seen by an `observer` role, communications directed at other roles
    are internal too: the party may get past them without the observer's
    help, so their continuations (all branch arms included) stay
    observable.

    The walk visits each node once by identity: every `rec` node unfolds
    to the same objects each time (`unfold_recursion`), so it reaches
    finitely many nodes.
    """
    if type(p) not in _TERMS:
        raise MalformedTerm(f"not a process or collaboration: {p!r}")
    found: set = set()
    seen: set = set()
    stack = [p]
    while stack:
        q = head_normal(stack.pop())
        if id(q) in seen:
            continue
        seen.add(id(q))
        kind = type(q)
        if kind is Send:
            if observer is None or q.to_role == observer:
                found.add(("out", q.chan, q.to_role))
            else:
                stack.append(q.cont)
        elif kind is Recv:
            if observer is None or q.from_role == observer:
                found.add(("in", q.chan, q.from_role))
            else:
                stack.append(q.cont)
        elif kind is Select:
            if observer is None or q.to_role == observer:
                found.add(("sel", q.chan, q.label, q.to_role))
            else:
                stack.append(q.cont)
        elif kind is Branch:
            if observer is None or q.from_role == observer:
                for l, _ in q.arms:
                    found.add(("brn", q.chan, l, q.from_role))
            else:
                stack.extend(arm for _, arm in q.arms)
        elif kind is If:
            v = guard_value(q.cond)
            if v is None:
                stack.append(q.then)
                stack.append(q.orelse)
            else:
                stack.append(q.then if v else q.orelse)
        elif kind is Commit:
            stack.append(q.cont)
        elif kind is Roll:
            found.add(("roll",))
        elif kind is Abort:
            found.add(("abt",))
    return frozenset(found)


def _stuck(partner: Process, me, *wanted) -> bool:
    """Whether `partner`, as role `me` observes it, can never offer any of
    the `wanted` barbs, nor roll or abort and so recover: the premise of a
    detecting rule."""
    return barbs(partner, me).isdisjoint(wanted + (("roll",), ("abt",)))


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

class Candidate(metaclass=record):
    """One reduction step on offer at a state, or one built.

    `reduction_steps` offers every step lazily: `successor` is None, and
    `outcome(v)` builds the step when it is taken, as (text, successor).
    A step that evaluates an expression (F-Com, F-If) has it as `expr`,
    its text is "" until then, and `v` is the value of `expr`; any other
    step is built by `outcome(None)`.  A built candidate carries its
    `successor` and is a step a run took or an edge `explore` found.
    `simulate` keeps a state's first candidate, calls `outcome` once per
    value drawn and records the step built, the state after it as its
    successor; `explore` forces each candidate into built ones (`_built`),
    which carry the draws they assume."""
    rule: str
    session: str  # session name; a connection step's is the fresh one
    party: int  # 1-based log position; 0 for connection steps
    text: str  # human-readable step label, stable under replay
    # the successor state, or what `_session_steps`' `place` made of the
    # items replacing the session (`explore` keeps that tuple)
    successor: Collaboration | tuple | None = None
    choices: tuple = ()  # assumed draws (explore)
    expr: object = None
    outcome: object = None

    @property
    def backward(self) -> bool:
        """A roll back to the checkpoints (B-Rll, E-Rll1) or an abort."""
        return self.rule.removeprefix("M-") in ("B-Rll", "E-Rll1", "B-Abt")

    def sort_key(self):
        return (self.session, self.party, self.rule, self.text)

    def label(self) -> str:
        return f"{self.rule} {self.text}"


def _fresh_session(items) -> str:
    used = {it.name for it in items if isinstance(it, Session)}
    i = 1
    while f"s{i}" in used:
        i += 1
    return f"s{i}"


def _splice(seq: tuple, group: tuple, repl: tuple) -> tuple:
    """`seq` with the entries at indices `group` taken out and `repl` put
    in at the first of them: how a step rewrites a state's items."""
    if len(group) == 1:
        i = group[0]
        return seq[:i] + repl + seq[i + 1:]
    out = list(seq)
    for k in sorted(group, reverse=True):
        del out[k]
    out[min(group):min(group)] = repl
    return tuple(out)


def _connections(items: list) -> list:
    """Session connections among a state's items, as (rule, session name,
    label, group): a requester of role n (`endpoint_role`) meets one
    acceptor of its service for every role 1..n-1; `group` holds their
    item indices, the requester first, then the acceptors in role order."""
    out: list = []
    sname = None  # every connection of a state opens the same fresh name
    for r, req in enumerate(items):
        if not isinstance(req, Request):
            continue
        sname = sname or _fresh_session(items)
        pools: list = []
        for role in range(1, endpoint_role(req)):
            pools.append([k for k, acc in enumerate(items)
                          if isinstance(acc, Accept) and acc.chan == req.chan
                          and endpoint_role(acc) == role])
            if not pools[-1]:
                break  # no acceptor of this role, so no connection
        rule = "F-Con" if req.role is None else "M-F-Con"
        for combo in itertools.product(*pools):
            out.append((rule, sname, f"{req.chan}:{sname}", (r, *combo)))
    return out


def _open(parts: list, sname: str) -> Session:
    """Session `sname` opened by the endpoints `parts` (see
    `_connections`): it saves them for abort and logs each body on its own
    session endpoint, of the part's role."""
    logs = []
    for part in parts:
        ep = Endpoint(sname, endpoint_role(part))
        p = substitute(part.body, part.var, ep)
        logs.append(Log(ep, CheckpointProcess(p), p))
    return Session(sname, par(*parts), par(*logs))


def _connect(items: tuple, group: tuple, sname: str, text: str, _) -> tuple:
    """A connection's step (see `_connections`): its text and successor
    state."""
    ses = _open([items[k] for k in group], sname)
    return text, par(*_splice(items, group, (ses,)))


def reduction_steps(state: Collaboration, mode: str = "plain") -> list:
    """All reduction candidates of a collaboration, lazy (see `Candidate`)
    and sorted by (session, party, rule, label).

    No successor is built until the step is taken: a connection's session
    is opened then, and a step that evaluates an expression is one
    unevaluated candidate, whose label is unknown; no other candidate
    shares its session, party and rule, so the order never needs it.
    `simulate` asks once per distinct state of a run.

    The candidates are the connections (`_connections`) and each session's
    own steps (`_session_steps`); `explore` uses the two halves directly.
    """
    _check_mode(mode)
    items = par_parts(state)
    cands: list = []
    for rule, sname, text, group in _connections(items):
        cands.append(Candidate(rule, sname, 0, text, outcome=(
            functools.partial(_connect, items, group, sname, text))))
    for idx, it in enumerate(items):
        if isinstance(it, Session):
            place = functools.partial(_place, items, idx)
            cands.extend(_session_steps(it, mode, place))
    if len(cands) > 1:
        cands.sort(key=Candidate.sort_key)
    return cands


def _check_mode(mode: str) -> None:
    if mode not in ("plain", "detect"):
        raise ValueError(f"unknown error mode {mode!r}")


def _place(items: tuple, idx: int, repl: tuple) -> Collaboration:
    """The state `items` with the item at `idx` replaced by `repl`."""
    return par(*_splice(items, (idx,), repl))


def _com(logs, i, j, cont, recv, v):
    """Party i sends `v` to party j: the action shown and the new logs.
    A computed integer past `int()`'s digit limit cannot be shown."""
    try:
        shown = f"!{render_expr(Lit(v))}"
    except ValueError:
        raise MalformedTerm(f"computed integer of more than "
                            f"{sys.get_int_max_str_digits()} digits") \
            from None
    nl = list(logs)
    nl[i] = Log(logs[i].endpoint, logs[i].ckpt, cont)
    nl[j] = Log(logs[j].endpoint, logs[j].ckpt,
                substitute(recv.cont, recv.var, Lit(v)))
    return shown, nl


def _resolve(logs, i, then, orelse, v):
    """Party i's conditional takes the branch guard value `v` selects; a
    guard that is not a bool is refused."""
    check_guard(value_sort(v), MalformedTerm)
    nl = list(logs)
    nl[i] = Log(logs[i].endpoint, logs[i].ckpt, then if v else orelse)
    return ("then" if v else "else"), nl


def _exchange(logs, i, j, cont, arm) -> Collaboration:
    """Party i selects party j's branch `arm`: the new session body."""
    nl = list(logs)
    nl[i] = Log(logs[i].endpoint, logs[i].ckpt, cont)
    nl[j] = Log(logs[j].endpoint, logs[j].ckpt, arm)
    return par(*nl)


def _committed(logs, i, cont, pinned) -> Collaboration:
    """Party i commits to `cont`, and the parties at `pinned` are pinned
    to their current point."""
    nl = list(logs)
    nl[i] = Log(logs[i].endpoint, CheckpointProcess(cont), cont)
    for h in pinned:
        lg = logs[h]
        nl[h] = Log(lg.endpoint, CheckpointProcess(lg.current, imposed=True),
                    lg.current)
    return par(*nl)


def _log_ckpt_differs(lg: Log) -> bool:
    """Whether a partner's commit imposes on the party that owns `lg`
    (E-Cmt1 rather than E-Cmt2): an imposed checkpoint never counts as
    equal to the bare current."""
    return lg.ckpt.imposed or \
        process_key(lg.ckpt.process) != process_key(lg.current)


def _rolled(logs) -> Collaboration:
    """Every party back on its checkpoint."""
    return par(*[Log(lg.endpoint, lg.ckpt, lg.ckpt.process) for lg in logs])


def _session_steps(ses: Session, mode: str, place) -> list:
    """The lazy steps of one session, unsorted.  A step rewrites only this
    session's item: into one item, or by an abort into the endpoints the
    session saved.  `place` turns that tuple of replacement items into the
    candidate's successor when the step is built (see `Candidate`).  The
    steps depend only on the session item and its name, so key-equal
    sessions of one name have key-equal steps with equal labels."""
    if _item_class(ses) in _ERRORS:
        return []  # error states are absorbing
    logs = par_parts(ses.body)
    out: list = []
    sname = ses.name
    n = len(logs)
    heads = [head_normal(lg.current) for lg in logs]
    pre = "M-" if ses.names_roles else ""

    def rewrite(body, *args) -> Collaboration:
        """The successor whose session body is `body(*args)`."""
        return place((Session(sname, ses.saved, body(*args)),))

    def mk(rule, i, action, build, *args):
        """A step of party i that draws nothing and leads to
        `build(*args)`."""
        text = f"{sname}:p{i + 1} {action}"
        out.append(Candidate(pre + rule, sname, i + 1, text,
                             outcome=lambda _: (text, build(*args))))

    def evaluating(rule, i, e, step):
        """A step of party i that evaluates `e`, `step(v)` giving its
        action and logs for the value v."""
        def outcome(v):
            action, nl = step(v)
            return f"{sname}:p{i + 1} {action}", rewrite(par, *nl)
        out.append(Candidate(pre + rule, sname, i + 1, "", expr=e,
                             outcome=outcome))

    for i in range(n):
        li, hi = logs[i], heads[i]
        kind = type(hi)
        if kind is Send or kind is Recv or kind is Select or kind is Branch:
            # the partner the prefix names, whose prefix must name this
            # party back: by its role, or by none when this one names none
            role = hi.to_role if kind is Send or kind is Select \
                else hi.from_role
            j = partner_position(i, role, n)
            if j is None:
                continue
            me = None if role is None else li.endpoint.role
            lj, hj = logs[j], heads[j]
        if kind is Send:
            if isinstance(hj, Recv) and hj.from_role == me \
                    and _sort_of(hi.expr) in (hj.sort, None):
                evaluating("F-Com", i, hi.expr,
                           functools.partial(_com, logs, i, j, hi.cont, hj))
            elif mode == "detect" and _stuck(lj.current, me,
                                             ("in", lj.endpoint, me)):
                mk("E-Com1", i, "stuck-out", rewrite, ErrorState, "com_error")
        elif kind is Recv:
            sender_ready = isinstance(hj, Send) and hj.to_role == me
            if mode == "detect" and not sender_ready and _stuck(
                    lj.current, me, ("out", lj.endpoint, me)):
                mk("E-Com2", i, "stuck-in", rewrite, ErrorState, "com_error")
        elif kind is Select:
            if isinstance(hj, Branch) and hj.from_role == me:
                arm = dict(hj.arms).get(hi.label)
                if arm is not None:
                    mk("F-Lab", i, f"+{hi.label}", rewrite, _exchange,
                       logs, i, j, hi.cont, arm)
                    continue
            if mode == "detect" and _stuck(
                    lj.current, me, ("brn", lj.endpoint, hi.label, me)):
                mk("E-Lab1", i, "stuck-sel", rewrite, ErrorState, "com_error")
        elif kind is Branch:
            selector_ready = isinstance(hj, Select) and hj.to_role == me
            if mode == "detect" and not selector_ready and _stuck(
                    lj.current, me,
                    *[("sel", lj.endpoint, lab, me) for lab, _ in hi.arms]):
                mk("E-Lab2", i, "stuck-brn", rewrite, ErrorState, "com_error")
        elif kind is If:
            evaluating("F-If", i, hi.cond, functools.partial(
                _resolve, logs, i, hi.then, hi.orelse))
        elif kind is Commit:
            # every other party is pinned to its current point unless
            # it still sits on its own checkpoint
            pinned = [h for h, lg in enumerate(logs)
                      if h != i and _log_ckpt_differs(lg)]
            if mode == "detect":
                rule = "E-Cmt1" if pinned else "E-Cmt2"
            else:
                rule = "F-Cmt"
            mk(rule, i, "commit", rewrite, _committed, logs, i, hi.cont,
               pinned)
        elif kind is Roll:
            if mode == "detect" and li.ckpt.imposed:
                mk("E-Rll2", i, "roll", rewrite, ErrorState, "roll_error")
            else:
                rule = "E-Rll1" if mode == "detect" else "B-Rll"
                mk(rule, i, "roll", rewrite, _rolled, logs)
        elif kind is Abort:
            mk("B-Abt", i, "abort", place, par_parts(ses.saved))
    return out


def _built(cands) -> list:
    """Lazy candidates built: each one's one step when it draws nothing,
    otherwise one step per value of its expression, carrying the draws it
    assumes, in `enumerate_values` order.  A stable sort by `sort_key`,
    as `explore` makes, puts them in label order, equal labels (an F-If
    whose guard is false for two values) in that order."""
    return [Candidate(c.rule, c.session, c.party, *c.outcome(v), ch)
            for c in cands for v, ch in ([(None, ())] if c.expr is None
                                         else enumerate_values(c.expr))]


# ---------------------------------------------------------------------------
# state classification
# ---------------------------------------------------------------------------

def classify_state(items: tuple, has_steps: bool) -> str:
    """What the state of `items` (its `par_parts`) is: "roll_error" or
    "com_error" when a session holds that error (the first found, in item
    order), else "live" when it `has_steps`, else "completed" when every
    item is a session whose logs have all finished, else "stuck".
    `explore` and `simulate` share it.

    It composes its items' classes (`_item_class`), each found once per
    item node: items a step left alone are not looked into again."""
    finished = True
    for it in items:
        kind = _item_class(it)
        if kind in _ERRORS:
            return kind
        finished = finished and kind == "completed"
    if has_steps:
        return "live"
    return "completed" if finished else "stuck"


_ERRORS = ("roll_error", "com_error")


def _item_class(it) -> str:
    """A top-level item's part of its state's class: the error its session
    body holds (the first found), "completed" for a session whose logs have
    all finished (each current `0` up to unfolding, as the type level
    reads `mu t. end` as `end`), or "" for any other item.  A session's
    class is kept on its node, like `_tk` and `_fv`."""
    if not isinstance(it, Session):
        return ""
    kept = it.__dict__
    found = kept.get("_class")
    if found is None:
        found = "completed"
        for b in par_parts(it.body):
            if isinstance(b, ErrorState):
                found = b.kind
                break
            cur = b.current if isinstance(b, Log) else None
            if type(cur) is Rec:  # a loop that does nothing has finished
                cur = head_normal(cur)
            if not isinstance(cur, Inact):
                found = ""
        kept["_class"] = found
    return found


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

class Trace(metaclass=record):
    """A run of `program` from its term.  A serialized trace is
    self-contained: its `initial` field is the program's source
    (declarations included), which re-parses to the program."""
    program: SourceProgram
    steps: list  # list[Candidate], the steps taken, built
    status: str  # completed | stuck | roll_error | com_error | cut-off
    oracle: DecisionOracle

    def to_json(self) -> dict:
        return {
            "initial": render_program(self.program),
            "steps": [{"label": label, "state": shown}
                      for label, shown in _shown_steps(self.steps)],
            "oracle": self.oracle.to_json(),
        }


def _shown_steps(steps: list):
    """Each step's label and shown state, in order.  A looping run repeats
    its step objects (see `simulate`), and each distinct one is shown once
    per call; `steps` holds them, so their ids stay their own."""
    shown: dict = {}
    for s in steps:
        got = shown.get(id(s))
        if got is None:
            got = shown[id(s)] = s.label(), show_collaboration(s.successor)
        yield got


def simulate(program: SourceProgram, oracle: DecisionOracle | None = None,
             max_steps: int = 1000, mode: str = "plain") -> Trace:
    """Deterministic run: at every state take the first candidate in
    (session, party, rule, label) order.  Only the step taken is built: a
    connection's session is opened when the run connects it, and only the
    step taken is evaluated, against one clone of `oracle`.  The caller's
    oracle is left untouched, and the trace's transcript holds exactly the
    draws of the steps taken.

    A run loops (a roll restores a checkpoint, a `rec` re-enters its
    body), so one call keeps the step taken from each state it meets: the
    first candidate once per state key (`_state_key`), and the step built
    and its successor's class once per (state key, value drawn).  A state
    object met before is found by identity, without its key.  A state met
    again still evaluates its candidate's expression against the oracle,
    then reuses the recorded successor, so a looping run comes back to the
    very same objects.  A candidate that draws nothing has one step only,
    so once that is built the candidate is let go.

    An `OracleExhausted` raised by a step carries `steps`, the run up to
    that step."""
    oracle = (oracle or DecisionOracle()).clone()
    state = program.term
    steps: list = []
    status = "cut-off"
    # state key -> [the state, which keeps the key's ids meaningful, its
    # first candidate, {value drawn or None: (step built, its successor's
    # class)}], or [the state, None, (step built, class)] once a candidate
    # that draws nothing is built
    memo: dict = {}
    # id(state) -> its memo entry: every state met is the program's or a
    # step's, which `steps` holds, so their ids stay their own
    met: dict = {}
    for _ in range(max_steps):
        entry = met.get(id(state))
        if entry is None:
            key = _state_key(state)
            entry = memo.get(key)
            if entry is None:
                cands = reduction_steps(state, mode)
                if not cands:
                    status = classify_state(par_parts(state), False)
                    break
                entry = memo[key] = [state, cands[0], {}]
            met[id(state)] = entry
        _, c, step = entry
        if c is not None:
            try:
                # a candidate's values share one sort: True and 1 never meet
                v = None if c.expr is None else evaluate(c.expr, oracle)
            except OracleExhausted as ex:
                ex.steps = steps
                raise
            taken = step  # the steps built so far, by value
            step = taken.get(v)
            if step is None:
                text, succ = c.outcome(v)
                step = taken[v] = (Candidate(c.rule, c.session, c.party,
                                             text, succ),
                                   classify_state(par_parts(succ), True))
                if c.expr is None or not _undecided(c.expr):
                    entry[1:] = None, step
        step, kind = step
        steps.append(step)
        state = step.successor
        if kind in _ERRORS:
            status = kind
            break
    return Trace(program, steps, status, oracle)


def _state_key(state: Collaboration) -> tuple:
    """What `simulate` knows a state by: each item by identity, except a
    session, which a step rebuilds, by its name, its saved endpoints and,
    per log, the endpoint, checkpoint process, imposed flag and current
    process.  States of one key are equal terms made of the same
    processes, so they have the same steps."""
    return tuple(id(it) if type(it) is not Session else (
        it.name, id(it.saved), *[
            (lg.endpoint, id(lg.ckpt.process), lg.ckpt.imposed,
             id(lg.current)) if type(lg) is Log else id(lg)
            for lg in par_parts(it.body)])
        for it in par_parts(state))


# ---------------------------------------------------------------------------
# exhaustive exploration
# ---------------------------------------------------------------------------

class ExplorationReport(metaclass=record):
    # a node is a state's items, a label its Candidate, `states` the terms
    system: TransitionSystem
    errors: list  # ids of the error states, in id order
    stuck: list  # ids of the stuck states, in id order
    completed: int
    depth: int

    edges = property(lambda self: len(self.system.src))  # their number

    @functools.cached_property
    def states(self) -> list:
        return [par(*items) for items in self.system.nodes]

    @property
    def ok(self) -> bool:
        return not self.errors and not self.stuck

    def _entry(self, sid: int, kind: str) -> dict:
        path = self.system.path_to(sid)
        return {"kind": kind, "state": sid,
                "path": [c.label() for c in path],
                "script": _script_of([d for c in path for d in c.choices])}

    def to_json(self) -> dict:
        nodes = self.system.nodes
        return {
            "states": len(nodes),
            "edges": self.edges,
            "depth": self.depth,
            "completed": self.completed,
            "errors": [self._entry(sid, classify_state(nodes[sid], True))
                       for sid in self.errors],
            "stuck": [self._entry(sid, "stuck") for sid in self.stuck],
        }


def _script_of(choices: list) -> dict:
    script: dict = {}
    for fn, v in choices:
        script.setdefault(fn, []).append(v)
    return script


def explore(program: SourceProgram, depth: int = 30, mode: str = "plain",
            budget: int | None = None) -> ExplorationReport:
    """Breadth-first state space of a program up to `depth` steps, branching
    over every oracle outcome, found by `semantics.search`.  Bool draws
    branch two ways; int/str draws need a declared domain.

    The search holds a state as the tuple of its top-level items and
    identifies it by the multiset of their keys (`term_key`).  A step
    rewrites one item (a connection several), so a successor's keys are
    its parent's with those entries replaced.  Each distinct (session key,
    session name) is stepped once per call (see `_session_steps`), its
    steps sorted, so a state lays its sessions' entries out in name order;
    a state reached by a session step that keeps the session in its place
    shares its parent's layout.  A successor is made only when its state
    is new, from its parent's own items, so of alpha-variant states the
    first found is kept; its term is built when the report's `states` is
    read.  An edge is one transition, labelled by its built candidate:
    values of an expression that give one labelled step, or key-equal
    endpoints that open one session, make one edge.  States are classified
    after the search: an expanded state is live when it has an out-edge,
    and the final frontier's steps are computed but not expanded.  The
    report holds the ids of the error and stuck states; `to_json` rebuilds
    each one's path and oracle script with `TransitionSystem.path_to`."""
    _check_mode(mode)
    init = program.term
    # state id -> its items' keys in item order; representatives, held
    # here and in the tables below, keep every serial meaningful while the
    # call runs
    roots = [term_rep(it) for it in par_parts(init)]
    serials = [tuple(r.serial for r in roots)]
    plans: list = [None]  # state id -> its layout (see `plan`), or None
    # computed once per call: a connection, by (endpoint keys, session
    # name), as (endpoints, candidate, key of the session opened, its
    # representative); a session's steps, by (session key, session name),
    # as (session, sorted steps, representatives), a step being (candidate,
    # keys of the items it puts in)
    opened: dict = {}
    stepped: dict = {}

    def steps_keyed(ses: Session) -> tuple:
        steps, reps = {}, []
        for c in sorted(_built(_session_steps(ses, mode, tuple)),
                        key=Candidate.sort_key):
            reps.append(tuple(term_rep(x) for x in c.successor))
            keys = tuple(r.serial for r in reps[-1])
            # values giving one labelled step make one edge, the first's
            steps.setdefault((c.text, keys), (c, keys))
        return ses, list(steps.values()), reps

    def plan(sid: int, items: tuple, sers: tuple) -> tuple:
        """State `sid`'s connection steps, one per (endpoint keys, session
        name), as (group, candidate, key) in (rule, label) order, and its
        sessions' positions in name order, -1 for the connections."""
        conns: dict = {}
        for rule, sname, text, group in sorted(_connections(items),
                                               key=itemgetter(0, 2)):
            at = (tuple(sers[k] for k in group), sname)
            if at in conns:
                continue
            parts = [items[k] for k in group]
            hit = opened.get(at)
            # reused only for the very same endpoints, so a successor is
            # always made of its parent's own items; a key-equal
            # alpha-variant is opened afresh
            if hit is None or any(a is not b for a, b in zip(hit[0], parts)):
                ses = _open(parts, sname)
                rep = term_rep(ses)
                hit = opened[at] = (parts, Candidate(
                    rule, sname, 0, text, (ses,)), (rep.serial,), rep)
            conns[at] = (group, *hit[1:3])
        named = [(it.name, idx) for idx, it in enumerate(items)
                 if isinstance(it, Session)]
        if conns:  # they all open the one fresh session name
            named.append((sname, -1))
        plans[sid] = list(conns.values()), [idx for _, idx in sorted(named)]
        return plans[sid]

    def steps_of(sid: int, items: tuple) -> list:
        """The steps of state `sid` in `reduction_steps` order, as
        (successor key, candidate, indices of the items it rewrites, the
        keys of the items it puts in their place)."""
        sers = serials[sid]
        conns, order = plans[sid] or plan(sid, items, sers)
        out: list = []
        for idx in order:
            if idx < 0:
                out += [(tuple(sorted(_splice(sers, group, new))), c, group,
                         new) for group, c, new in conns]
                continue
            it = items[idx]
            at = (sers[idx], it.name)
            hit = stepped.get(at)
            if hit is None or hit[0] is not it:
                hit = stepped[at] = steps_keyed(it)
            group = (idx,)
            rest = sers[:idx] + sers[idx + 1:]
            out += [(tuple(sorted(rest + new)), c, group, new)
                    for c, new in hit[1]]
        return out

    def make(sid: int, items: tuple, step: tuple) -> tuple:
        _, c, group, new = step
        serials.append(_splice(serials[sid], group, new))
        plans.append(plans[sid] if c.party and len(c.successor) == 1
                     == len(group) else None)
        return _splice(items, group, c.successor)

    ts = search(par_parts(init), tuple(sorted(serials[0])), steps_of, make,
                budget=budget, depth=depth)
    live = set(ts.src)
    expanded = len(ts.nodes) - len(ts.frontier)
    errors, stuck, completed = [], [], 0
    for sid, items in enumerate(ts.nodes):
        kind = classify_state(items, sid in live if sid < expanded
                              else bool(steps_of(sid, items)))
        if kind == "completed":
            completed += 1
        elif kind != "live":
            (stuck if kind == "stuck" else errors).append(sid)
    return ExplorationReport(ts, errors, stuck, completed, depth)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

class ReplayReport(metaclass=record):
    divergence: str | None = None  # where the run left the recording

    ok = property(lambda self: self.divergence is None)


def replay(trace_json: dict, mode: str | None = None,
           program: SourceProgram | None = None) -> ReplayReport:
    """Re-execute a recorded trace with a scripted oracle built from its
    transcript and require every label and state to match bit-exactly.

    A trace file is self-contained: its `initial` field holds the program
    (declarations included), so `program` is only needed to override it.
    When `mode` is not given the steps decide: plain and error-detecting
    runs only diverge on the steps the detecting rules relabel (commits,
    rollbacks, errors), so any recorded E- label means detect mode.
    """
    want, transcript = _checked_trace(trace_json)
    if program is None:
        program = parse_program(trace_json["initial"])
    elif render_program(program) != trace_json["initial"]:
        return ReplayReport("initial state differs")
    if mode is None:
        mode = "detect" if any(
            s["label"].split(" ", 1)[0].removeprefix("M-").startswith("E-")
            for s in want) else "plain"
    oracle = DecisionOracle("scripted", _script_of(transcript))
    unfunded = None
    try:
        got = simulate(program, oracle, max_steps=len(want), mode=mode).steps
    except OracleExhausted as ex:
        # the transcript cannot pay for the next step: the run so far must
        # still match, and the recording diverges at that step
        got, unfunded = ex.steps, ex
    if unfunded is None and len(got) != len(want):
        return ReplayReport(
            f"trace length {len(got)} != recorded {len(want)}")
    for k, ((label, shown), w) in enumerate(zip(_shown_steps(got), want)):
        if label != w["label"]:
            return ReplayReport(
                f"step {k}: label {label!r} != {w['label']!r}")
        if shown != w["state"]:
            return ReplayReport(f"step {k}: state mismatch after {label!r}")
    if unfunded is not None:
        return ReplayReport(f"step {len(got)}: {unfunded}")
    return ReplayReport()


def _checked_trace(data) -> tuple:
    """The recorded steps and transcript of a trace file's JSON, checked
    against the shape `Trace.to_json` writes."""
    def need(holds: bool, what: str):
        if not holds:
            raise MalformedInput(f"malformed trace: {what}")

    need(isinstance(data, dict), "not a JSON object")
    need(isinstance(data.get("initial"), str), "'initial' is not a text")
    steps = data.get("steps")
    need(isinstance(steps, list) and all(
        isinstance(s, dict) and isinstance(s.get("label"), str)
        and isinstance(s.get("state"), str) for s in steps),
        "'steps' is not a list of labels and states")
    oracle = data.get("oracle", {})
    draws = oracle.get("transcript", []) if isinstance(oracle, dict) \
        else None
    need(isinstance(draws, list) and all(
        isinstance(d, list) and len(d) == 2 and isinstance(d[0], str)
        for d in draws),
        "the transcript is not a list of [function, value] draws")
    _check_values(draws, "malformed trace: the transcript")
    return steps, draws
