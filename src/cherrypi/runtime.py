"""Process-level execution: decision oracle, evaluation, barbs, reduction,
simulation, exhaustive exploration, trace replay, and a shadow typechecker
that runs the type-level configuration alongside a trace.

Uninterpreted functions are resolved by a `DecisionOracle`; its counters are
never rolled back, so a re-run after a rollback may take another branch.
Reduction candidates are enumerated with a cloned oracle each, and choosing a
candidate adopts its clone — enumeration itself never consumes draws.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field

from .syntax import (Abort, Accept, Branch, Call, Collaboration, ComError,
                     Commit, CheckpointProcess, Endpoint, If, Inact, Lit, Log,
                     MalformedTerm, Process, Recv, Request, Roll, RollError,
                     Select, Send, Session, Ufun, Var, head_normal, par,
                     par_parts, process_key, substitute, term_key)
from .sessiontypes import TErr, canonical_type, type_key
from .parser import (SourceProgram, parse_program, render_expr,
                     render_program, show_collaboration)
from .infer import TypingError, infer_collaboration, type_of_process
from .semantics import (BudgetExceeded, CheckpointType, TypeConfiguration,
                        _ckpt_differs, _log_ckpt_differs, current_budget,
                        initial_configuration, type_transitions)


class OracleExhausted(Exception):
    pass


class ExploreError(Exception):
    pass


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
        self.mode = mode
        self.script = {k: list(v) for k, v in (script or {}).items()}
        self.pointers: dict = {}
        self.rng = random.Random(seed)
        self.seed = seed
        self.transcript: list = []
        # replay sets this: candidate probes the script cannot fund are
        # dropped instead of aborting the rerun (see _guard_candidates)
        self.lenient = False

    def clone(self) -> "DecisionOracle":
        return copy.deepcopy(self)

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
        if Lit(v).sort() != result_sort:
            raise OracleExhausted(
                f"oracle produced {v!r} for {fn!r}, which is not of sort "
                f"{result_sort}")
        self.transcript.append((fn, v))
        return v

    def to_json(self) -> dict:
        return {"mode": self.mode,
                "transcript": [[fn, v] for fn, v in self.transcript]}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _apply_op(op: str, vals: list):
    match op:
        case "add":
            return vals[0] + vals[1]
        case "and":
            return vals[0] and vals[1]
        case "or":
            return vals[0] or vals[1]
        case "not":
            return not vals[0]
        case "eq":
            return vals[0] == vals[1]
        case "lt":
            return vals[0] < vals[1]
        case "concat":
            return vals[0] + vals[1]
    raise MalformedTerm(f"unknown operator {op!r}")


def evaluate(e, oracle: DecisionOracle | None = None):
    """Big-step value of a closed expression; arguments evaluate left to
    right, and every uninterpreted call consults the oracle."""
    match e:
        case Lit(v):
            return v
        case Var(n):
            raise MalformedTerm(f"unbound variable {n!r} in evaluation")
        case Call(op, args):
            return _apply_op(op, [evaluate(a, oracle) for a in args])
        case Ufun(fn, args, _, rsort, dom):
            for a in args:
                evaluate(a, oracle)  # argument draws happen first
            if oracle is None:
                raise MalformedTerm(
                    f"call of {fn!r} needs a decision oracle")
            return oracle.draw(fn, rsort, dom)
    raise MalformedTerm(f"not an expression: {e!r}")


def enumerate_values(e) -> list:
    """All possible values of an expression, branching over every
    uninterpreted call: [(value, choices)] with choices the assumed draws in
    order.  Calls of undeclared-domain int/str functions cannot be
    enumerated."""
    match e:
        case Lit(v):
            return [(v, ())]
        case Var(n):
            raise MalformedTerm(f"unbound variable {n!r} in evaluation")
        case Call(op, args):
            combos = [([], ())]
            for a in args:
                nxt = []
                for vals, ch in combos:
                    for v, ch2 in enumerate_values(a):
                        nxt.append((vals + [v], ch + ch2))
                combos = nxt
            return [(_apply_op(op, vals), ch) for vals, ch in combos]
        case Ufun(fn, args, _, rsort, dom):
            combos = [([], ())]
            for a in args:
                nxt = []
                for vals, ch in combos:
                    for v, ch2 in enumerate_values(a):
                        nxt.append((vals + [v], ch + ch2))
                combos = nxt
            if dom is not None:
                outcomes = list(dom)
            elif rsort == "bool":
                outcomes = [False, True]
            else:
                raise ExploreError(
                    f"exploration needs a declared domain for {fn!r} "
                    f"(sort {rsort})")
            out = []
            for _, ch in combos:
                for v in outcomes:
                    out.append((v, ch + ((fn, v),)))
            return out
    raise MalformedTerm(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# barbs
# ---------------------------------------------------------------------------

def guard_value(e):
    """The value of an oracle-free guard, or None when an uninterpreted
    call makes the outcome oracle-dependent."""
    def has_ufun(x) -> bool:
        if isinstance(x, Ufun):
            return True
        if isinstance(x, Call):
            return any(has_ufun(a) for a in x.args)
        return False
    if has_ufun(e):
        return None
    return evaluate(e)


def barbs(p: Process) -> frozenset:
    """Weak observables of a process, closed under internal steps.

    Internal steps here are conditional resolutions (both branches count as
    possible whenever the guard consults the oracle; a guard built purely
    from values follows its one branch) and commit consumption.  Barbs:
    ("out", chan, role), ("in", chan, role), ("sel", chan, label, role),
    ("brn", chan, label, role), ("roll",), ("abt",); the role is the partner
    annotation (None on binary endpoints).
    """
    found: set = set()
    seen: set = set()
    stack = [p]
    while stack:
        q = head_normal(stack.pop())
        key = process_key(q)
        if key in seen:
            continue
        seen.add(key)
        match q:
            case Send(ch, _, _, role):
                found.add(("out", ch, role))
            case Recv(ch, _, _, _, role):
                found.add(("in", ch, role))
            case Select(ch, l, _, role):
                found.add(("sel", ch, l, role))
            case Branch(ch, arms, role):
                for l, _ in arms:
                    found.add(("brn", ch, l, role))
            case If(cond, then, orelse):
                v = guard_value(cond)
                if v is None:
                    stack.append(then)
                    stack.append(orelse)
                else:
                    stack.append(then if v else orelse)
            case Commit(cont):
                stack.append(cont)
            case Roll():
                found.add(("roll",))
            case Abort():
                found.add(("abt",))
            case _:
                pass
    return frozenset(found)


def _may_recover(bs: frozenset) -> bool:
    """A partner that can still roll or abort is not stuck for good."""
    return ("roll",) in bs or ("abt",) in bs


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

@dataclass
class Candidate:
    rule: str
    session: str  # session name, or the service name for connection steps
    party: int  # 1-based log position; 0 for connection steps
    text: str  # human-readable step label, stable under replay
    successor: Collaboration
    backward: bool = False
    oracle: DecisionOracle | None = None  # post-step oracle (simulate)
    choices: tuple = ()  # assumed draws (explore)

    def sort_key(self):
        return (self.session, self.party, self.rule, self.text)


def _fresh_session(items) -> str:
    used = {it.name for it in items if isinstance(it, Session)}
    i = 1
    while f"s{i}" in used:
        i += 1
    return f"s{i}"


def _rebuild(items: list) -> Collaboration:
    return par(*items) if len(items) > 1 else items[0]


def _connect(items: list, i: int, j: int, sname: str) -> Collaboration:
    req, acc = items[i], items[j]
    saved = par(req, acc)
    p1 = substitute(req.body, req.var, Endpoint(sname, True))
    p2 = substitute(acc.body, acc.var, Endpoint(sname, False))
    body = par(Log(Endpoint(sname, True), CheckpointProcess(p1), p1),
               Log(Endpoint(sname, False), CheckpointProcess(p2), p2))
    ses = Session(sname, saved, body)
    out = []
    for k, it in enumerate(items):
        if k == min(i, j):
            out.append(ses)
        elif k != max(i, j):
            out.append(it)
    return _rebuild(out)


def _with_session(items: list, idx: int, ses: Session, new_body) \
        -> Collaboration:
    out = list(items)
    out[idx] = Session(ses.name, ses.saved, new_body)
    return _rebuild(out)


def _with_logs(items, idx, ses, logs) -> Collaboration:
    return _with_session(items, idx, ses, par(*logs))


def _show_value(v) -> str:
    return render_expr(Lit(v))


def reduction_steps(state: Collaboration, mode: str = "plain",
                    oracle: DecisionOracle | None = None,
                    exhaustive: bool = False) -> list:
    """All reduction candidates of a collaboration, sorted by
    (session, party, rule, label).

    With `exhaustive` the oracle is ignored and every oracle outcome becomes
    its own candidate carrying the assumed draws; otherwise each candidate
    carries its own clone of `oracle`, advanced by whatever that step
    evaluated.
    """
    if mode not in ("plain", "detect"):
        raise ValueError(f"unknown error mode {mode!r}")
    items = list(par_parts(state))
    cands: list = []

    # session connection: one requester meets one acceptor on a service
    for i, it in enumerate(items):
        if not isinstance(it, Request):
            continue
        for j, jt in enumerate(items):
            if not isinstance(jt, Accept) or jt.chan != it.chan:
                continue
            sname = _fresh_session(items)
            cands.append(Candidate(
                "F-Con", sname, 0, f"{it.chan}:{sname}",
                _connect(items, i, j, sname),
                oracle=None if exhaustive or oracle is None
                else oracle.clone()))

    for idx, it in enumerate(items):
        if not isinstance(it, Session):
            continue
        body = par_parts(it.body)
        if any(isinstance(b, (RollError, ComError)) for b in body):
            continue  # error states are absorbing
        logs = list(body)
        cands.extend(_session_steps(items, idx, it, logs, mode, oracle,
                                    exhaustive))

    cands.sort(key=Candidate.sort_key)
    return cands


def _guard_candidates(e, oracle, exhaustive):
    """Value(s) of an evaluated position: [(value, oracle', choices)]."""
    if exhaustive:
        return [(v, None, ch) for v, ch in enumerate_values(e)]
    orc = oracle.clone() if oracle is not None else None
    try:
        return [(evaluate(e, orc), orc, ())]
    except OracleExhausted:
        # a recorded transcript funds only the draws of the steps actually
        # taken; a rival redex it cannot pay for was not the recorded step,
        # and since selection always takes the sort-minimal candidate the
        # recorded one still wins.  outside replay exhaustion stays loud.
        if oracle is not None and oracle.lenient:
            return []
        raise


def _session_steps(items, idx, ses, logs, mode, oracle, exhaustive) -> list:
    out: list = []
    sname = ses.name
    n = len(logs)
    heads = [head_normal(lg.current) for lg in logs]
    barb_cache: dict = {}

    def pbarbs(k: int) -> frozenset:
        if k not in barb_cache:
            barb_cache[k] = barbs(logs[k].current)
        return barb_cache[k]

    def mk(rule, party, text, new_logs=None, new_body=None, backward=False,
           orc=None, choices=()):
        succ = (_with_logs(items, idx, ses, new_logs) if new_logs is not None
                else _with_session(items, idx, ses, new_body))
        out.append(Candidate(rule, sname, party, text, succ,
                             backward=backward, oracle=orc, choices=choices))

    def partner_of(i: int) -> int:
        # binary sessions: the other log
        return 1 - i

    for i in range(n):
        j = partner_of(i)
        li, lj = logs[i], logs[j]
        hi, hj = heads[i], heads[j]
        ep_i = li.endpoint
        match hi:
            case Send(_, e, cont):
                if isinstance(hj, Recv):
                    for v, orc, ch in _guard_candidates(e, oracle,
                                                       exhaustive):
                        nl = list(logs)
                        nl[i] = Log(ep_i, li.ckpt, cont)
                        nl[j] = Log(lj.endpoint, lj.ckpt,
                                    substitute(hj.cont, hj.var, Lit(v)))
                        mk("F-Com", i + 1,
                           f"{sname}:p{i + 1} !{_show_value(v)}",
                           new_logs=nl, orc=orc, choices=ch)
                elif mode == "detect":
                    bs = pbarbs(j)
                    if ("in", lj.endpoint, None) not in bs \
                            and not _may_recover(bs):
                        mk("E-Com1", i + 1, f"{sname}:p{i + 1} stuck-out",
                           new_body=ComError())
            case Recv(_, _, _, _):
                if mode == "detect" and not isinstance(hj, Send):
                    bs = pbarbs(j)
                    if ("out", lj.endpoint, None) not in bs \
                            and not _may_recover(bs):
                        mk("E-Com2", i + 1, f"{sname}:p{i + 1} stuck-in",
                           new_body=ComError())
            case Select(_, lab, cont):
                if isinstance(hj, Branch):
                    arm = dict(hj.arms).get(lab)
                    if arm is not None:
                        nl = list(logs)
                        nl[i] = Log(ep_i, li.ckpt, cont)
                        nl[j] = Log(lj.endpoint, lj.ckpt, arm)
                        mk("F-Lab", i + 1, f"{sname}:p{i + 1} +{lab}",
                           new_logs=nl)
                        continue
                if mode == "detect":
                    bs = pbarbs(j)
                    if ("brn", lj.endpoint, lab, None) not in bs \
                            and not _may_recover(bs):
                        mk("E-Lab1", i + 1, f"{sname}:p{i + 1} stuck-sel",
                           new_body=ComError())
            case Branch(_, arms):
                if mode == "detect" and not isinstance(hj, Select):
                    bs = pbarbs(j)
                    offered = any(("sel", lj.endpoint, lab, None) in bs
                                  for lab, _ in arms)
                    if not offered and not _may_recover(bs):
                        mk("E-Lab2", i + 1, f"{sname}:p{i + 1} stuck-brn",
                           new_body=ComError())
            case If(cond, then, orelse):
                for v, orc, ch in _guard_candidates(cond, oracle,
                                                    exhaustive):
                    nl = list(logs)
                    nl[i] = Log(ep_i, li.ckpt, then if v else orelse)
                    mk("F-If", i + 1,
                       f"{sname}:p{i + 1} {'then' if v else 'else'}",
                       new_logs=nl, orc=orc, choices=ch)
            case Commit(cont):
                nl = list(logs)
                nl[i] = Log(ep_i, CheckpointProcess(cont), cont)
                changed = False
                # the committer's partner is pinned to its current point
                # unless it still sits on its own checkpoint
                pj = logs[j]
                if _log_ckpt_differs(pj):
                    nl[j] = Log(pj.endpoint,
                                CheckpointProcess(pj.current, imposed=True),
                                pj.current)
                    changed = True
                if mode == "detect":
                    rule = "E-Cmt1" if changed else "E-Cmt2"
                else:
                    rule = "F-Cmt"
                mk(rule, i + 1, f"{sname}:p{i + 1} commit", new_logs=nl)
            case Roll():
                if mode == "detect" and li.ckpt.imposed:
                    mk("E-Rll2", i + 1, f"{sname}:p{i + 1} roll",
                       new_body=RollError())
                else:
                    nl = [Log(lg.endpoint, lg.ckpt, lg.ckpt.process)
                          for lg in logs]
                    rule = "E-Rll1" if mode == "detect" else "B-Rll"
                    mk(rule, i + 1, f"{sname}:p{i + 1} roll", new_logs=nl,
                       backward=True)
            case Abort():
                succ_items = list(items)
                succ_items[idx] = ses.saved
                out.append(Candidate(
                    "B-Abt", sname, i + 1, f"{sname}:p{i + 1} abort",
                    _rebuild(succ_items), backward=True))
            case _:
                pass
    return out


# ---------------------------------------------------------------------------
# state classification
# ---------------------------------------------------------------------------

def classify_state(state: Collaboration, has_steps: bool) -> str:
    items = par_parts(state)
    for it in items:
        if isinstance(it, Session):
            for b in par_parts(it.body):
                if isinstance(b, RollError):
                    return "roll_error"
                if isinstance(b, ComError):
                    return "com_error"
    if has_steps:
        return "live"
    completed = all(
        isinstance(it, Session)
        and all(isinstance(lg, Log) and isinstance(lg.current, Inact)
                for lg in par_parts(it.body))
        for it in items)
    return "completed" if completed else "stuck"


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

@dataclass
class StepRecord:
    rule: str
    session: str
    party: int
    text: str
    backward: bool
    state: Collaboration

    def label(self) -> str:
        return f"{self.rule} {self.text}"


@dataclass
class Trace:
    initial: Collaboration
    steps: list  # list[StepRecord]
    status: str  # completed | stuck | roll_error | com_error | cut-off
    oracle: DecisionOracle
    # the source program, so a serialized trace is self-contained: its
    # `initial` field re-parses (declarations included)
    program: SourceProgram | None = None

    def to_json(self) -> dict:
        initial = (render_program(self.program)
                   if self.program is not None
                   else show_collaboration(self.initial))
        return {
            "initial": initial,
            "steps": [{"label": s.label(),
                       "state": show_collaboration(s.state)}
                      for s in self.steps],
            "oracle": self.oracle.to_json(),
        }


def simulate(program: SourceProgram, oracle: DecisionOracle | None = None,
             max_steps: int = 1000, mode: str = "plain",
             stepper=None) -> Trace:
    """Deterministic run: at every state take the first candidate in
    (session, party, rule, label) order, adopting its oracle."""
    stepper = stepper or reduction_steps
    oracle = oracle or DecisionOracle()
    state = program.term
    steps: list = []
    status = "cut-off"
    for _ in range(max_steps):
        cands = stepper(state, mode, oracle)
        if not cands:
            status = classify_state(state, False)
            break
        chosen = cands[0]
        state = chosen.successor
        if chosen.oracle is not None:
            oracle = chosen.oracle
        steps.append(StepRecord(chosen.rule, chosen.session, chosen.party,
                                chosen.text, chosen.backward, state))
        kind = classify_state(state, True)
        if kind in ("roll_error", "com_error"):
            status = kind
            break
    else:
        status = "cut-off"
    return Trace(program.term, steps, status, oracle, program)


# ---------------------------------------------------------------------------
# exhaustive exploration
# ---------------------------------------------------------------------------

@dataclass
class ExploreEntry:
    kind: str  # roll_error | com_error | stuck
    state: int
    path: list  # list[str] step labels from the initial state
    script: dict  # oracle script realising the path

    def to_json(self) -> dict:
        return {"kind": self.kind, "state": self.state, "path": self.path,
                "script": self.script}


@dataclass
class ExplorationReport:
    states: list  # list[Collaboration]
    edges: int
    errors: list  # list[ExploreEntry]
    stuck: list  # list[ExploreEntry]
    completed: int
    depth: int
    # every traversed edge: (src, dst, rule, text, backward)
    transitions: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors and not self.stuck

    def to_json(self) -> dict:
        return {
            "states": len(self.states),
            "edges": self.edges,
            "depth": self.depth,
            "completed": self.completed,
            "errors": [e.to_json() for e in self.errors],
            "stuck": [e.to_json() for e in self.stuck],
        }


def _script_of(choices: list) -> dict:
    script: dict = {}
    for fn, v in choices:
        script.setdefault(fn, []).append(v)
    return script


def explore(program: SourceProgram, depth: int = 30, mode: str = "plain",
            budget: int | None = None, stepper=None) -> ExplorationReport:
    """Breadth-first state space of a program up to `depth` steps, branching
    over every oracle outcome.  Bool draws branch two ways; int/str draws
    need a declared domain."""
    stepper = stepper or reduction_steps
    limit = current_budget(budget)
    init = program.term
    states = [init]
    info: list = [([], [])]  # state id -> (path labels, choices)
    index = {term_key(init): 0}  # meaningful while `states` keeps them
    edges = 0
    transitions: list = []
    errors: list = []
    stuck: list = []
    completed = 0
    classified: set = set()

    def note_terminal(sid: int, has_steps: bool):
        nonlocal completed
        if sid in classified:
            return
        classified.add(sid)
        kind = classify_state(states[sid], has_steps)
        path, choices = info[sid]
        if kind in ("roll_error", "com_error"):
            errors.append(ExploreEntry(kind, sid, list(path),
                                       _script_of(choices)))
        elif kind == "stuck":
            stuck.append(ExploreEntry(kind, sid, list(path),
                                      _script_of(choices)))
        elif kind == "completed":
            completed += 1

    frontier = [0]
    d = 0
    while frontier and d < depth:
        nxt: list = []
        for sid in frontier:
            cands = stepper(states[sid], mode, exhaustive=True)
            note_terminal(sid, bool(cands))
            for c in cands:
                edges += 1
                key = term_key(c.successor)
                tid = index.get(key)
                if tid is None:
                    if len(states) >= limit:
                        raise BudgetExceeded(limit, states=len(states),
                                             depth=d, frontier=len(frontier))
                    tid = len(states)
                    index[key] = tid
                    states.append(c.successor)
                    path, choices = info[sid]
                    info.append((path + [f"{c.rule} {c.text}"],
                                 choices + list(c.choices)))
                    nxt.append(tid)
                transitions.append((sid, tid, c.rule, c.text, c.backward))
        frontier = nxt
        d += 1
    # states on the final frontier still get classified (their steps are
    # computed but not expanded further)
    for sid in frontier:
        cands = stepper(states[sid], mode, exhaustive=True)
        note_terminal(sid, bool(cands))
    return ExplorationReport(states, edges, errors, stuck, completed, depth,
                             transitions)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

@dataclass
class ReplayReport:
    ok: bool
    divergence: str | None = None


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
    if program is None:
        program = parse_program(trace_json["initial"])
    elif render_program(program) != trace_json.get("initial"):
        return ReplayReport(False, "initial state differs")
    if mode is None:
        mode = "detect" if any(
            s.get("label", "").split(" ", 1)[0].removeprefix("M-")
            .startswith("E-") for s in trace_json["steps"]) else "plain"
    transcript = trace_json.get("oracle", {}).get("transcript", [])
    script: dict = {}
    for fn, v in transcript:
        script.setdefault(fn, []).append(v)
    oracle = DecisionOracle("scripted", script)
    oracle.lenient = True
    stepper = None
    if program.multiparty:
        from .multiparty import m_reduction_steps
        stepper = m_reduction_steps
    rerun = simulate(program, oracle, max_steps=len(trace_json["steps"]),
                     mode=mode, stepper=stepper)
    got = rerun.to_json()["steps"]
    want = trace_json["steps"]
    if len(got) != len(want):
        return ReplayReport(
            False, f"trace length {len(got)} != recorded {len(want)}")
    for k, (g, w) in enumerate(zip(got, want)):
        if g["label"] != w["label"]:
            return ReplayReport(
                False, f"step {k}: label {g['label']!r} != {w['label']!r}")
        if g["state"] != w["state"]:
            return ReplayReport(
                False, f"step {k}: state mismatch after {g['label']!r}")
    return ReplayReport(True)


# ---------------------------------------------------------------------------
# shadow typechecking
# ---------------------------------------------------------------------------

@dataclass
class ShadowReport:
    ok: bool
    failures: list  # list[str]


def _find_session(state: Collaboration, name: str) -> Session | None:
    for it in par_parts(state):
        if isinstance(it, Session) and it.name == name:
            return it
    return None


def _step_type_config(cfg: TypeConfiguration, step: StepRecord,
                      failures: list) -> TypeConfiguration | None:
    """Mirror one process step on the type configuration; None drops the
    session (abort)."""
    i = step.party - 1
    j = 1 - i
    cur = list(cfg.currents)
    cks = list(cfg.ckpts)
    rule = step.rule

    def pick(party: int, want: str, lab_filter=None):
        for lab, nxt in type_transitions(cfg.currents[party]):
            if lab[0] == want and (lab_filter is None or lab_filter(lab)):
                return lab, nxt
        return None

    if rule == "F-Com":
        got_i = pick(i, "out")
        got_j = pick(j, "in")
        if not got_i or not got_j or got_i[0][1] != got_j[0][1]:
            failures.append(f"{step.label()}: no matching type-level "
                            f"communication")
            return cfg
        cur[i], cur[j] = got_i[1], got_j[1]
    elif rule == "F-Lab":
        lab = step.text.split("+", 1)[1]
        got_i = pick(i, "sel", lambda t: t[1] == lab)
        got_j = pick(j, "brn", lambda t: t[1] == lab)
        if not got_i or not got_j:
            failures.append(f"{step.label()}: no matching type-level label "
                            f"exchange")
            return cfg
        cur[i], cur[j] = got_i[1], got_j[1]
    elif rule == "F-If":
        side = "L" if step.text.endswith("then") else "R"
        got = pick(i, "tau", lambda t: t[1] == side)
        if not got:
            failures.append(f"{step.label()}: no type-level choice to "
                            f"resolve")
            return cfg
        cur[i] = got[1]
    elif rule in ("F-Cmt", "E-Cmt1", "E-Cmt2"):
        got = pick(i, "cmt")
        if not got:
            failures.append(f"{step.label()}: no type-level commit")
            return cfg
        cur[i] = got[1]
        cks[i] = CheckpointType(got[1])
        differs = _ckpt_differs(cks[j], cfg.currents[j])
        if differs:
            cks[j] = CheckpointType(cfg.currents[j], imposed=True)
        if rule == "E-Cmt1" and not differs:
            failures.append(f"{step.label()}: partner imposition disagrees "
                            f"with the type level")
        if rule == "E-Cmt2" and differs:
            failures.append(f"{step.label()}: partner imposition disagrees "
                            f"with the type level")
    elif rule in ("B-Rll", "E-Rll1"):
        if not pick(i, "roll"):
            failures.append(f"{step.label()}: no type-level roll")
            return cfg
        if cks[i].imposed:
            failures.append(f"{step.label()}: rolled on an imposed "
                            f"type-level checkpoint")
        cur[0], cur[1] = cks[0].typ, cks[1].typ
    elif rule == "E-Rll2":
        if not cks[i].imposed:
            failures.append(f"{step.label()}: error roll without an imposed "
                            f"type-level checkpoint")
        cur[0], cur[1] = TErr(), TErr()
    elif rule == "B-Abt":
        return None
    else:  # com_error steps have no type analogue on well-typed programs
        failures.append(f"{step.label()}: step has no type analogue")
        return cfg
    return TypeConfiguration(tuple(cks), tuple(cur), cfg.inits)


def shadow_typecheck(program: SourceProgram, trace: Trace) -> ShadowReport:
    """Validate a trace against the type semantics: every step must have the
    matching type-level transition, and after every step each log's current
    and checkpoint must retype to the tracked configuration, imposed flags
    included."""
    try:
        assoc = infer_collaboration(program.term)
    except TypingError as ex:
        return ShadowReport(False, [f"inference failed: {ex}"])
    configs: dict = {}  # session name -> TypeConfiguration
    failures: list = []
    for step in trace.steps:
        if step.rule == "F-Con":
            service = step.text.split(":", 1)[0]
            t_req, t_acc = assoc["~" + service], assoc[service]
            configs[step.session] = initial_configuration(t_req, t_acc)
        elif step.session in configs:
            cfg = _step_type_config(configs[step.session], step, failures)
            if cfg is None:
                del configs[step.session]
            else:
                configs[step.session] = cfg
        # correspondence: retype every live log against the tracked types
        ses_state = _find_session(step.state, step.session)
        cfg = configs.get(step.session)
        if ses_state is None or cfg is None:
            continue
        body = par_parts(ses_state.body)
        if any(isinstance(b, (RollError, ComError)) for b in body):
            for k, t in enumerate(cfg.currents):
                if not isinstance(t, TErr):
                    failures.append(
                        f"{step.label()}: error state but party {k + 1} "
                        f"type is {canonical_type(t)}")
            continue
        for k, lg in enumerate(body):
            try:
                got_cur = type_of_process(lg.current, lg.endpoint)
                got_ck = type_of_process(lg.ckpt.process, lg.endpoint)
            except TypingError as ex:
                failures.append(f"{step.label()}: retyping failed: {ex}")
                continue
            if type_key(got_cur) != type_key(cfg.currents[k]):
                failures.append(
                    f"{step.label()}: party {k + 1} current retypes off "
                    f"the tracked type")
            if type_key(got_ck) != type_key(cfg.ckpts[k].typ):
                failures.append(
                    f"{step.label()}: party {k + 1} checkpoint retypes off "
                    f"the tracked checkpoint type")
            if lg.ckpt.imposed != cfg.ckpts[k].imposed:
                failures.append(
                    f"{step.label()}: party {k + 1} imposed flag "
                    f"disagrees with the type level")
    return ShadowReport(not failures, failures)
