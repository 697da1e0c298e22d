"""Multiparty sessions: n roles with the requester as role n.

Session logs (and type configurations) keep the requester first, then roles
1..n-1, so the two-party instance lines up position-for-position with the
binary engine.  Communication is pairwise and role-directed; commits pin
every other participant, roll restores (or errs) all of them, abort resets
the whole session.  A binary program can be transcribed to its two-party
counterpart and multiparty runs erased back for cross-checking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .syntax import (Abort, Accept, Branch, CheckpointProcess, Collaboration,
                     ComError, Commit, Endpoint, If, Lit, Log, MEndpoint,
                     Par, Process, Rec, Recv, Request, Roll, RollError,
                     Select, Send, Session, par, par_parts, substitute,
                     MalformedTerm)
from .syntax import ChanVar, process_key
from .sessiontypes import TErr, fill_roles, render_type, type_key
from .infer import TypingError, type_of_process
from .semantics import (BudgetExceeded, CheckpointType, Edge,
                        TransitionSystem, current_budget, type_transitions,
                        _ckpt_differs, _is_end, _log_ckpt_differs)
from .runtime import (Candidate, DecisionOracle, ExplorationReport,
                      StepRecord, Trace, _fresh_session, _guard_candidates,
                      _may_recover, _rebuild, _show_value, classify_state,
                      explore, guard_value, head_normal, simulate)
from .parser import SourceProgram


def role_of_position(pos: int, n: int) -> int:
    """Log position -> role (0-based position; the requester sits first)."""
    return n if pos == 0 else pos


def position_of_role(role: int, n: int) -> int:
    return 0 if role == n else role


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


# ---------------------------------------------------------------------------
# type configurations (n parties)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MTypeConfiguration:
    ckpts: tuple  # tuple[CheckpointType, ...]
    currents: tuple  # tuple[SessionTypeT, ...]
    inits: tuple
    n: int  # number of roles; position 0 is the requester (role n)


def m_initial_configuration(types: tuple) -> MTypeConfiguration:
    return MTypeConfiguration(tuple(CheckpointType(t) for t in types),
                              tuple(types), tuple(types), len(types))


def m_config_key(cfg: MTypeConfiguration) -> tuple:
    """Identity of an n-party configuration within one run: per position
    the imposed flag and the `type_key`s of checkpoint and current.  The
    initial types and `n` are left out because they are fixed along a run;
    the key is meaningful only while the configuration's types are alive."""
    key: list = []
    for ck, cur in zip(cfg.ckpts, cfg.currents):
        key += (ck.imposed, type_key(ck.typ), type_key(cur))
    return tuple(key)


def m_config_transitions(cfg: MTypeConfiguration) -> list:
    """Journal steps of an n-party configuration, (party, rule, label,
    successor) sorted by (party, rule, label).  Parties are 1-based log
    positions."""
    out: list = []
    n = cfg.n
    cur = cfg.currents
    cks = cfg.ckpts
    for i in range(n):
        role_i = role_of_position(i, n)
        for lab, nxt in type_transitions(cur[i]):
            match lab:
                case ("out", s, src, dst):
                    if src != role_i:
                        continue
                    j = position_of_role(dst, n)
                    for plab, pnxt in type_transitions(cur[j]):
                        if plab[0] == "in" and plab[1] == s \
                                and plab[2] == dst and plab[3] == role_i:
                            curs = list(cur)
                            curs[i], curs[j] = nxt, pnxt
                            out.append((i + 1, "M-TS-Com", f"com[{s}]",
                                        MTypeConfiguration(
                                            cks, tuple(curs), cfg.inits,
                                            n)))
                case ("sel", l, src, dst):
                    if src != role_i:
                        continue
                    j = position_of_role(dst, n)
                    for plab, pnxt in type_transitions(cur[j]):
                        if plab[0] == "brn" and plab[1] == l \
                                and plab[2] == dst and plab[3] == role_i:
                            curs = list(cur)
                            curs[i], curs[j] = nxt, pnxt
                            out.append((i + 1, "M-TS-Lab", f"lab[{l}]",
                                        MTypeConfiguration(
                                            cks, tuple(curs), cfg.inits,
                                            n)))
                case ("tau", side):
                    curs = list(cur)
                    curs[i] = nxt
                    out.append((i + 1, "M-TS-Tau", f"tau[{side}]",
                                MTypeConfiguration(cks, tuple(curs),
                                                   cfg.inits, n)))
                # the committer checkpoints its continuation; every other
                # participant still sitting on its own checkpoint is left
                # alone, anyone else gets the current imposed
                case ("cmt",):
                    curs = list(cur)
                    ncks = list(cks)
                    curs[i] = nxt
                    ncks[i] = CheckpointType(nxt)
                    any_diff = False
                    for h in range(n):
                        if h == i:
                            continue
                        if _ckpt_differs(cks[h], cur[h]):
                            ncks[h] = CheckpointType(cur[h], imposed=True)
                            any_diff = True
                    rule = "M-TS-Cmt1" if any_diff else "M-TS-Cmt2"
                    out.append((i + 1, rule, "cmt",
                                MTypeConfiguration(tuple(ncks), tuple(curs),
                                                   cfg.inits, n)))
                case ("roll",):
                    if cks[i].imposed:
                        out.append((i + 1, "M-TS-Rll2", "roll",
                                    MTypeConfiguration(
                                        cks, tuple(TErr() for _ in cur),
                                        cfg.inits, n)))
                    else:
                        out.append((i + 1, "M-TS-Rll1", "roll",
                                    MTypeConfiguration(
                                        cks, tuple(c.typ for c in cks),
                                        cfg.inits, n)))
                case ("abt",):
                    out.append((i + 1, "M-TS-Abt1", "abt",
                                m_initial_configuration(cfg.inits)))
    out.sort(key=lambda e: (e[0], e[1], e[2]))
    return out


def m_reachable_system(types: tuple, budget: int | None = None) \
        -> TransitionSystem:
    limit = current_budget(budget)
    init = m_initial_configuration(types)
    states = [init]
    index = {m_config_key(init): 0}
    parents: list = [None]
    edges: list = []
    frontier = [0]
    depth = 0
    while frontier:
        nxt: list = []
        for sid in frontier:
            for party, rule, label, succ in m_config_transitions(
                    states[sid]):
                key = m_config_key(succ)
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
                    nxt.append(tid)
                edge = Edge(sid, tid, party, rule, label)
                edges.append(edge)
                if parents[tid] is None and tid != 0:
                    parents[tid] = (sid, edge)
        frontier = nxt
        depth += 1
    return TransitionSystem(states, edges, parents)


@dataclass
class MViolation:
    state: int
    config: MTypeConfiguration
    path: list


@dataclass
class MComplianceReport:
    compliant: bool
    system: TransitionSystem
    violations: list

    def to_json(self) -> dict:
        return {
            "verdict": "compliant" if self.compliant else "violating",
            "states": len(self.system.states),
            "edges": len(self.system.edges),
            "violations": [
                {"terminal": m_describe_configuration(v.config),
                 "state": v.state,
                 "path": [e.rule for e in v.path]}
                for v in self.violations
            ],
        }


def m_describe_configuration(cfg: MTypeConfiguration) -> dict:
    out: dict = {}
    for i in range(cfg.n):
        role = role_of_position(i, cfg.n)
        out[f"role{role}"] = {
            "checkpoint": render_type(cfg.ckpts[i].typ),
            "imposed": cfg.ckpts[i].imposed,
            "current": render_type(cfg.currents[i]),
        }
    return out


def m_check_compliance(types: tuple, budget: int | None = None) \
        -> MComplianceReport:
    ts = m_reachable_system(types, budget)
    has_out = [False] * len(ts.states)
    for e in ts.edges:
        has_out[e.src] = True
    violations: list = []
    for sid, cfg in enumerate(ts.states):
        if has_out[sid]:
            continue
        if all(_is_end(t) for t in cfg.currents):
            continue
        violations.append(MViolation(sid, cfg, ts.path_to(sid)))
    return MComplianceReport(not violations, ts, violations)


@dataclass
class MRollbackSafetyReport:
    safe: bool
    services: dict

    def to_json(self) -> dict:
        return {
            "verdict": "rollback safe" if self.safe
                       else "not rollback safe",
            "services": {name: rep.to_json()
                         for name, rep in self.services.items()},
        }


def m_check_rollback_safety(term: Collaboration,
                            budget: int | None = None) \
        -> MRollbackSafetyReport:
    reports: dict = {}
    for name, svc in m_service_groups(term).items():
        reports[name] = m_check_compliance(filled_types(svc), budget)
    return MRollbackSafetyReport(
        all(r.compliant for r in reports.values()), reports)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def _m_connect(items: list, group: dict, n: int, sname: str) \
        -> Collaboration:
    """Build the session from a complete role->index map."""
    order = [n] + list(range(1, n))
    saved = par(*(items[group[r]] for r in order))
    logs = []
    for r in order:
        part = items[group[r]]
        p = substitute(part.body, part.var, MEndpoint(sname, r))
        logs.append(Log(MEndpoint(sname, r), CheckpointProcess(p), p))
    ses = Session(sname, saved, par(*logs))
    first = min(group.values())
    out = []
    for k, it in enumerate(items):
        if k == first:
            out.append(ses)
        elif k not in group.values():
            out.append(it)
    return _rebuild(out)


def m_reduction_steps(state: Collaboration, mode: str = "plain",
                      oracle: DecisionOracle | None = None,
                      exhaustive: bool = False) -> list:
    """Multiparty counterpart of the binary reduction enumeration."""
    if mode not in ("plain", "detect"):
        raise ValueError(f"unknown error mode {mode!r}")
    items = list(par_parts(state))
    cands: list = []

    # connection: a requester a[n] plus one acceptor for every role 1..n-1
    by_service: dict = {}
    for k, it in enumerate(items):
        if isinstance(it, (Request, Accept)) and it.role is not None:
            by_service.setdefault(it.chan, []).append(k)
    for service, idxs in sorted(by_service.items()):
        reqs = [k for k in idxs if isinstance(items[k], Request)]
        for rk in reqs:
            n = items[rk].role
            pools = [[k for k in idxs
                      if isinstance(items[k], Accept)
                      and items[k].role == role]
                     for role in range(1, n)]
            if any(not pool for pool in pools):
                continue
            for combo in itertools.product(*pools):
                group = {n: rk}
                group.update({role: k
                              for role, k in zip(range(1, n), combo)})
                sname = _fresh_session(items)
                cands.append(Candidate(
                    "M-F-Con", sname, 0, f"{service}:{sname}",
                    _m_connect(items, group, n, sname),
                    oracle=None if exhaustive or oracle is None
                    else oracle.clone()))

    for idx, it in enumerate(items):
        if not isinstance(it, Session):
            continue
        body = par_parts(it.body)
        if any(isinstance(b, (RollError, ComError)) for b in body):
            continue
        if not all(isinstance(b, Log)
                   and isinstance(b.endpoint, MEndpoint) for b in body):
            continue  # binary sessions belong to the binary engine
        cands.extend(_m_session_steps(items, idx, it, list(body), mode,
                                      oracle, exhaustive))

    cands.sort(key=Candidate.sort_key)
    return cands


def m_barbs_toward(p: Process, observer: int) -> frozenset:
    """Weak observables of `p` as seen by role `observer`.

    Like the binary barb set, but communications directed at third roles
    are treated as internal: the party may get past them without the
    observer's help, so their continuations (all branch arms included)
    stay observable.  With only two roles this coincides with the plain
    barb set."""
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
            case Send(ch, _, cont, role):
                if role == observer:
                    found.add(("out", ch, role))
                else:
                    stack.append(cont)
            case Recv(ch, _, _, cont, role):
                if role == observer:
                    found.add(("in", ch, role))
                else:
                    stack.append(cont)
            case Select(ch, l, cont, role):
                if role == observer:
                    found.add(("sel", ch, l, role))
                else:
                    stack.append(cont)
            case Branch(ch, arms, role):
                if role == observer:
                    for l, _ in arms:
                        found.add(("brn", ch, l, role))
                else:
                    for _, arm in arms:
                        stack.append(arm)
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


def _m_session_steps(items, idx, ses, logs, mode, oracle, exhaustive) \
        -> list:
    out: list = []
    sname = ses.name
    n = len(logs)
    heads = [head_normal(lg.current) for lg in logs]
    barb_cache: dict = {}

    def pbarbs(k: int, toward: int) -> frozenset:
        if (k, toward) not in barb_cache:
            barb_cache[k, toward] = m_barbs_toward(logs[k].current, toward)
        return barb_cache[k, toward]

    def mk(rule, party, text, new_logs=None, new_body=None, backward=False,
           orc=None, choices=()):
        if new_logs is not None:
            new_body = par(*new_logs)
        succ_items = list(items)
        succ_items[idx] = Session(sname, ses.saved, new_body)
        out.append(Candidate(rule, sname, party, text,
                             _rebuild(succ_items), backward=backward,
                             oracle=orc, choices=choices))

    for i in range(n):
        role_i = role_of_position(i, n)
        li, hi = logs[i], heads[i]
        ep_i = li.endpoint
        match hi:
            case Send(_, e, cont, to_role):
                j = position_of_role(to_role, n)
                lj, hj = logs[j], heads[j]
                if isinstance(hj, Recv) and hj.from_role == role_i:
                    for v, orc, ch in _guard_candidates(e, oracle,
                                                        exhaustive):
                        nl = list(logs)
                        nl[i] = Log(ep_i, li.ckpt, cont)
                        nl[j] = Log(lj.endpoint, lj.ckpt,
                                    substitute(hj.cont, hj.var, Lit(v)))
                        mk("M-F-Com", i + 1,
                           f"{sname}:p{i + 1} !{_show_value(v)}",
                           new_logs=nl, orc=orc, choices=ch)
                elif mode == "detect":
                    bs = pbarbs(j, role_i)
                    if ("in", lj.endpoint, role_i) not in bs \
                            and not _may_recover(bs):
                        mk("M-E-Com1", i + 1,
                           f"{sname}:p{i + 1} stuck-out",
                           new_body=ComError())
            case Recv(_, _, _, _, from_role):
                j = position_of_role(from_role, n)
                lj, hj = logs[j], heads[j]
                sender_ready = isinstance(hj, Send) \
                    and hj.to_role == role_i
                if mode == "detect" and not sender_ready:
                    bs = pbarbs(j, role_i)
                    if ("out", lj.endpoint, role_i) not in bs \
                            and not _may_recover(bs):
                        mk("M-E-Com2", i + 1,
                           f"{sname}:p{i + 1} stuck-in",
                           new_body=ComError())
            case Select(_, lab, cont, to_role):
                j = position_of_role(to_role, n)
                lj, hj = logs[j], heads[j]
                if isinstance(hj, Branch) and hj.from_role == role_i:
                    arm = dict(hj.arms).get(lab)
                    if arm is not None:
                        nl = list(logs)
                        nl[i] = Log(ep_i, li.ckpt, cont)
                        nl[j] = Log(lj.endpoint, lj.ckpt, arm)
                        mk("M-F-Lab", i + 1, f"{sname}:p{i + 1} +{lab}",
                           new_logs=nl)
                        continue
                if mode == "detect":
                    bs = pbarbs(j, role_i)
                    if ("brn", lj.endpoint, lab, role_i) not in bs \
                            and not _may_recover(bs):
                        mk("M-E-Lab1", i + 1,
                           f"{sname}:p{i + 1} stuck-sel",
                           new_body=ComError())
            case Branch(_, arms, from_role):
                j = position_of_role(from_role, n)
                lj, hj = logs[j], heads[j]
                selector_ready = isinstance(hj, Select) \
                    and hj.to_role == role_i
                if mode == "detect" and not selector_ready:
                    bs = pbarbs(j, role_i)
                    offered = any(
                        ("sel", lj.endpoint, lab, role_i) in bs
                        for lab, _ in arms)
                    if not offered and not _may_recover(bs):
                        mk("M-E-Lab2", i + 1,
                           f"{sname}:p{i + 1} stuck-brn",
                           new_body=ComError())
            case If(cond, then, orelse):
                for v, orc, ch in _guard_candidates(cond, oracle,
                                                    exhaustive):
                    nl = list(logs)
                    nl[i] = Log(ep_i, li.ckpt, then if v else orelse)
                    mk("M-F-If", i + 1,
                       f"{sname}:p{i + 1} {'then' if v else 'else'}",
                       new_logs=nl, orc=orc, choices=ch)
            case Commit(cont):
                nl = list(logs)
                nl[i] = Log(ep_i, CheckpointProcess(cont), cont)
                any_diff = False
                for h in range(n):
                    if h == i:
                        continue
                    ph = logs[h]
                    if _log_ckpt_differs(ph):
                        nl[h] = Log(ph.endpoint,
                                    CheckpointProcess(ph.current,
                                                      imposed=True),
                                    ph.current)
                        any_diff = True
                if mode == "detect":
                    rule = "M-E-Cmt1" if any_diff else "M-E-Cmt2"
                else:
                    rule = "M-F-Cmt"
                mk(rule, i + 1, f"{sname}:p{i + 1} commit", new_logs=nl)
            case Roll():
                if mode == "detect" and li.ckpt.imposed:
                    mk("M-E-Rll2", i + 1, f"{sname}:p{i + 1} roll",
                       new_body=RollError())
                else:
                    nl = [Log(lg.endpoint, lg.ckpt, lg.ckpt.process)
                          for lg in logs]
                    rule = "M-E-Rll1" if mode == "detect" else "M-B-Rll"
                    mk(rule, i + 1, f"{sname}:p{i + 1} roll",
                       new_logs=nl, backward=True)
            case Abort():
                succ_items = list(items)
                succ_items[idx] = ses.saved
                out.append(Candidate(
                    "M-B-Abt", sname, i + 1, f"{sname}:p{i + 1} abort",
                    _rebuild(succ_items), backward=True))
            case _:
                pass
    return out


def m_simulate(program: SourceProgram,
               oracle: DecisionOracle | None = None,
               max_steps: int = 1000, mode: str = "plain") -> Trace:
    return simulate(program, oracle, max_steps, mode,
                    stepper=m_reduction_steps)


def m_explore(program: SourceProgram, depth: int = 30, mode: str = "plain",
              budget: int | None = None) -> ExplorationReport:
    return explore(program, depth, mode, budget,
                   stepper=m_reduction_steps)


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
