"""Independent reference implementations used as oracles by the tests.

Everything here re-derives successor relations with deliberately plain
recursive code that shares no stepping logic with the production engines
(AST classes and the canonical-form printers are reused as data plumbing
only).  Tests compare state sets, counts, and verdicts between the two.
The one exception is `naive_explore_report`: it checks how `explore`
shares work between states, so it steps and keys whole states with the
production stepper and key instead; `forced_steps` builds that stepper's
lazy candidates with a loop of its own.  `naive_show` and `naive_barbs` are
the plain forms of a renderer and a barbs walk that keep work on the
nodes: the first builds every text afresh, the second tells visited
processes apart by their keys, not by identity.  `naive_tokenize` and
`naive_endpoint_check` are the lexer that matches one token at a time and
three separate walks over a parsed endpoint body, against which the
parser's one `findall` and the check it makes while it parses are
compared.  `erase_trace`
strips a two-role run back to binary form, so that a binary program's run
can be compared with its `to_multiparty` twin's.
"""

from __future__ import annotations

import re
from array import array
from typing import NamedTuple

from cherrypi.parser import (KEYWORDS, SourceProgram, _diag, _diag_at,
                             _lex_error, render_expr, show_chan)
from cherrypi.syntax import (Abort, Accept, Branch, Call, CheckpointProcess,
                             Commit, Endpoint, ErrorState, If, Inact, Lit,
                             Log, MalformedTerm, Par, PVar, Rec, Recv,
                             Request, Roll, Select, Send, Session,
                             Ufun, _map_proc, _names, canonicalize,
                             head_normal, par, par_parts,
                             process_key, subprocesses, substitute, term_key,
                             unfold_recursion)
from cherrypi.runtime import (Candidate, ExplorationReport, Trace,
                              classify_state, enumerate_values, guard_value,
                              reduction_steps)
from cherrypi.semantics import TransitionSystem
from cherrypi.sessiontypes import (TAbtT, TBrn, TCmt, TEnd, TErr, TIn, TMu,
                                   TOut, TPlus, TRollT, TSel, canonical_type,
                                   subst_type)

# ---------------------------------------------------------------------------
# type-level reference enumerator
# ---------------------------------------------------------------------------


def _nhead(t):
    while isinstance(t, TMu):
        t = subst_type(t.body, t.var, t)
    return t


def _nmoves(t):
    """[(kind, detail, successor)] of a single type, naively."""
    t = _nhead(t)
    if isinstance(t, TOut):
        return [("out", t.sort, t.cont)]
    if isinstance(t, TIn):
        return [("in", t.sort, t.cont)]
    if isinstance(t, TSel):
        return [("sel", t.label, t.cont)]
    if isinstance(t, TBrn):
        return [("brn", lab, cont) for lab, cont in t.arms]
    if isinstance(t, TPlus):
        return [("tau", "L", t.left), ("tau", "R", t.right)]
    if isinstance(t, TCmt):
        return [("cmt", None, t.cont)]
    if isinstance(t, TRollT):
        return [("roll", None, TEnd())]
    if isinstance(t, TAbtT):
        return [("abt", None, TEnd())]
    return []


def _nsucc(cfg):
    """Successor configurations of ((ck1,i1),(ck2,i2),c1,c2,(n1,n2))."""
    (ck1, i1), (ck2, i2), c1, c2, inits = cfg
    cks = [(ck1, i1), (ck2, i2)]
    cur = [c1, c2]
    out = []
    for me in (0, 1):
        other = 1 - me
        for move in _nmoves(cur[me]):
            kind = move[0]
            if kind == "out":
                for pmove in _nmoves(cur[other]):
                    if pmove[0] == "in" and pmove[1] == move[1]:
                        nc = list(cur)
                        nc[me], nc[other] = move[2], pmove[2]
                        out.append((cks[0], cks[1], nc[0], nc[1], inits))
            elif kind == "sel":
                for pmove in _nmoves(cur[other]):
                    if pmove[0] == "brn" and pmove[1] == move[1]:
                        nc = list(cur)
                        nc[me], nc[other] = move[2], pmove[2]
                        out.append((cks[0], cks[1], nc[0], nc[1], inits))
            elif kind == "tau":
                nc = list(cur)
                nc[me] = move[2]
                out.append((cks[0], cks[1], nc[0], nc[1], inits))
            elif kind == "cmt":
                nc = list(cur)
                nc[me] = move[2]
                ncks = list(cks)
                ncks[me] = (move[2], False)
                mine, imp = cks[other]
                if imp or canonical_type(mine) != canonical_type(cur[other]):
                    ncks[other] = (cur[other], True)
                out.append((ncks[0], ncks[1], nc[0], nc[1], inits))
            elif kind == "roll":
                if cks[me][1]:
                    out.append((cks[0], cks[1], TErr(), TErr(), inits))
                else:
                    out.append((cks[0], cks[1], cks[0][0], cks[1][0],
                                inits))
            elif kind == "abt":
                t1, t2 = inits
                out.append(((t1, False), (t2, False), t1, t2, inits))
    return out


def _nkey(cfg):
    (ck1, i1), (ck2, i2), c1, c2, inits = cfg
    return "|".join([
        ("i" if i1 else "o") + canonical_type(ck1), canonical_type(c1),
        ("i" if i2 else "o") + canonical_type(ck2), canonical_type(c2),
        canonical_type(inits[0]), canonical_type(inits[1]),
    ])


def naive_type_reach(t1, t2, cap=100000):
    """Reachable configuration count + compliance verdict, naively."""
    init = ((t1, False), (t2, False), t1, t2, (t1, t2))
    seen = {_nkey(init): init}
    work = [init]
    compliant = True
    while work:
        cfg = work.pop()
        succs = _nsucc(cfg)
        if not succs:
            if not (isinstance(_nhead(cfg[2]), TEnd)
                    and isinstance(_nhead(cfg[3]), TEnd)):
                compliant = False
        for s in succs:
            k = _nkey(s)
            if k not in seen:
                if len(seen) >= cap:
                    raise RuntimeError("oracle cap exceeded")
                seen[k] = s
                work.append(s)
    return len(seen), compliant


# ---------------------------------------------------------------------------
# process-level reference enumerator (plain mode only)
# ---------------------------------------------------------------------------


def naive_values(e):
    """All values an expression can evaluate to, naively."""
    if isinstance(e, Lit):
        return [e.value]
    if isinstance(e, Ufun):
        if e.domain is not None:
            return list(e.domain)
        if e.result_sort == "bool":
            return [False, True]
        raise RuntimeError(f"no domain for {e.name}")
    if isinstance(e, Call):
        outs = [[]]
        for a in e.args:
            outs = [prev + [v] for prev in outs for v in naive_values(a)]
        res = []
        for vals in outs:
            res.append(_apply(e.op, vals))
        return res
    raise RuntimeError(f"open expression {e!r}")


def _apply(op, vals):
    if op == "add":
        return vals[0] + vals[1]
    if op == "and":
        return vals[0] and vals[1]
    if op == "or":
        return vals[0] or vals[1]
    if op == "not":
        return not vals[0]
    if op == "eq":
        return vals[0] == vals[1]
    if op == "lt":
        return vals[0] < vals[1]
    if op == "concat":
        return vals[0] + vals[1]
    raise RuntimeError(op)


def _phead(p):
    while isinstance(p, Rec):
        p = unfold_recursion(p)
    return p


def _freshname(items):
    used = set()
    for it in items:
        if isinstance(it, Session):
            used.add(it.name)
    k = 1
    while f"s{k}" in used:
        k += 1
    return f"s{k}"


def naive_steps(state):
    """All plain-mode successors of a collaboration, naively."""
    items = list(par_parts(state))
    out = []
    for i, a in enumerate(items):
        if not isinstance(a, Request):
            continue
        for j, b in enumerate(items):
            if not isinstance(b, Accept) or b.chan != a.chan:
                continue
            if a.role is not None or b.role is not None:
                continue
            name = _freshname(items)
            p1 = substitute(a.body, a.var, Endpoint(name, 2))
            p2 = substitute(b.body, b.var, Endpoint(name, 1))
            logs = [Log(Endpoint(name, 2), CheckpointProcess(p1), p1),
                    Log(Endpoint(name, 1), CheckpointProcess(p2), p2)]
            ses = Session(name, par(a, b), par(*logs))
            rest = [it for k, it in enumerate(items) if k not in (i, j)]
            pos = min(i, j)
            rest.insert(pos if pos < len(rest) else len(rest), ses)
            out.append(par(*rest))
    for i, it in enumerate(items):
        if not isinstance(it, Session):
            continue
        logs = list(par_parts(it.body))
        if len(logs) != 2 or not all(isinstance(lg, Log) for lg in logs) \
                or any(p.role is not None for p in par_parts(it.saved)):
            continue
        for succ_body in _naive_session(logs):
            nitems = list(items)
            nitems[i] = Session(it.name, it.saved, succ_body)
            out.append(par(*nitems))
        if any(isinstance(_phead(lg.current), Abort) for lg in logs):
            nitems = list(items)
            nitems[i] = it.saved
            out.append(par(*nitems))
    return out


def _naive_session(logs):
    """Successor session bodies (log lists) of a two-log session."""
    out = []
    heads = [_phead(lg.current) for lg in logs]
    for me in (0, 1):
        other = 1 - me
        h, g = heads[me], heads[other]
        lg, lo = logs[me], logs[other]
        if isinstance(h, Send) and isinstance(g, Recv):
            for v in naive_values(h.expr):
                nl = list(logs)
                nl[me] = Log(lg.endpoint, lg.ckpt, h.cont)
                nl[other] = Log(lo.endpoint, lo.ckpt,
                                substitute(g.cont, g.var, Lit(v)))
                out.append(par(*nl))
        if isinstance(h, Select) and isinstance(g, Branch):
            for lab, arm in g.arms:
                if lab == h.label:
                    nl = list(logs)
                    nl[me] = Log(lg.endpoint, lg.ckpt, h.cont)
                    nl[other] = Log(lo.endpoint, lo.ckpt, arm)
                    out.append(par(*nl))
        if isinstance(h, If):
            for v in naive_values(h.cond):
                nl = list(logs)
                nl[me] = Log(lg.endpoint, lg.ckpt,
                             h.then if v else h.orelse)
                out.append(par(*nl))
        if isinstance(h, Commit):
            nl = list(logs)
            nl[me] = Log(lg.endpoint, CheckpointProcess(h.cont), h.cont)
            if lo.ckpt.imposed or canonicalize(lo.ckpt.process).text != \
                    canonicalize(lo.current).text:
                nl[other] = Log(lo.endpoint,
                                CheckpointProcess(lo.current, imposed=True),
                                lo.current)
            out.append(par(*nl))
        if isinstance(h, Roll):
            nl = [Log(x.endpoint, x.ckpt, x.ckpt.process) for x in logs]
            out.append(par(*nl))
    return out


def naive_explore(term, depth):
    """Canonical forms reachable within `depth` plain-mode steps."""
    seen = {canonicalize(term).text}
    frontier = [term]
    for _ in range(depth):
        nxt = []
        for st in frontier:
            for succ in naive_steps(st):
                key = canonicalize(succ).text
                if key not in seen:
                    seen.add(key)
                    nxt.append(succ)
        frontier = nxt
    return seen


def forced_steps(state, mode="plain") -> list:
    """Every step of `state`, built: each lazy candidate of
    `reduction_steps`, a step that evaluates an expression once per value
    `enumerate_values` gives it, with the draws that value assumes; sorted
    by (session, party, rule, label), ties in enumeration order."""
    out = []
    for c in reduction_steps(state, mode):
        values = [(None, ())] if c.expr is None else enumerate_values(c.expr)
        for v, ch in values:
            text, succ = c.outcome(v)
            out.append(Candidate(c.rule, c.session, c.party, text, succ,
                                 ch))
    out.sort(key=Candidate.sort_key)
    return out


def naive_explore_report(program, depth=30, mode="plain"):
    """`runtime.explore`'s report of `program` and its error and stuck
    entries (errors first), each with the path and script its state
    carries.  Whole states are stepped by `reduction_steps`, built by
    `forced_steps`, and keyed by `term_key` (`explore` steps and keys
    items).  Steps of one state with the same (successor, rule, label,
    backward) are one edge, the first.  A state is dead when it has no
    step, whether expanded or on the frontier a depth cut leaves."""
    states, info = [program.term], [([], [])]
    index = {term_key(program.term): 0}
    found_by, transitions, errors, stuck, dead = [-1], [], [], [], []
    seen = set()
    completed = 0

    def entry(kind, sid):
        path, choices = info[sid]
        script = {}
        for fn, v in choices:
            script.setdefault(fn, []).append(v)
        return dict(kind=kind, state=sid, path=path, script=script)

    def note(sid, cands):
        nonlocal completed
        if not cands:
            dead.append(sid)
        kind = classify_state(par_parts(states[sid]), bool(cands))
        if kind in ("roll_error", "com_error", "stuck"):
            (stuck if kind == "stuck" else errors).append(entry(kind, sid))
        elif kind == "completed":
            completed += 1

    frontier = [0]
    for _ in range(depth):
        if not frontier:
            break
        nxt = []
        for sid in frontier:
            cands = forced_steps(states[sid], mode)
            note(sid, cands)
            for c in cands:
                key = term_key(c.successor)
                if key not in index:
                    index[key] = len(states)
                    states.append(c.successor)
                    path, choices = info[sid]
                    info.append((path + [f"{c.rule} {c.text}"],
                                 choices + list(c.choices)))
                    found_by.append(len(transitions))
                    nxt.append(index[key])
                edge = (sid, index[key], c.rule, c.text, c.backward)
                if edge not in seen:
                    seen.add(edge)
                    transitions.append((edge, c))
        frontier = nxt
    for sid in frontier:
        note(sid, forced_steps(states[sid], mode))
    system = TransitionSystem(
        [par_parts(t) for t in states],
        array("l", [e[0] for e, _ in transitions]),
        array("l", [e[1] for e, _ in transitions]),
        [c for _, c in transitions], array("l", found_by), dead)
    ids = [[e["state"] for e in es] for es in (errors, stuck)]
    return ExplorationReport(system, *ids, completed, depth), errors + stuck


# ---------------------------------------------------------------------------
# rendering and barbs references
# ---------------------------------------------------------------------------

def _naive_at(role):
    return "" if role is None else f"@{role}"


def naive_render(pr):
    """Source text of a process, built afresh by plain recursion."""
    match pr:
        case Send(ch, e, cont, tr):
            return (f"{show_chan(ch, tr is not None)}!<{render_expr(e)}>"
                    f"{_naive_at(tr)}. "
                    f"{naive_render(cont)}")
        case Recv(ch, y, s, cont, fr):
            return (f"{show_chan(ch, fr is not None)}?({y}: {s})"
                    f"{_naive_at(fr)}. "
                    f"{naive_render(cont)}")
        case Select(ch, l, cont, tr):
            return (f"{show_chan(ch, tr is not None)}<+ {l}{_naive_at(tr)}. "
                    f"{naive_render(cont)}")
        case Branch(ch, arms, fr):
            inner = ", ".join(f"{l}: {naive_render(a)}" for l, a in arms)
            return (f"{show_chan(ch, fr is not None)}>+{{ {inner} }}"
                    f"{_naive_at(fr)}")
        case If(c, t, e):
            return (f"if {render_expr(c)} then {naive_render(t)} "
                    f"else {naive_render(e)}")
        case Rec(x, body):
            return f"rec {x}. {naive_render(body)}"
        case PVar(x):
            return x
        case Inact():
            return "0"
        case Commit(cont):
            return f"commit. {naive_render(cont)}"
        case Roll():
            return "roll"
        case Abort():
            return "abort"
    raise TypeError(f"not a process: {pr!r}")


def naive_show(c, tagged=False):
    """The text `show_collaboration` gives a state, built afresh; a log
    shows its endpoint as its session's saved endpoints name roles
    (`tagged`) or not."""
    match c:
        case Request(a, x, body, role):
            rr = "" if role is None else f"[{role}]"
            return f"request {a}{rr}({x}). {naive_render(body)}"
        case Accept(a, x, body, role):
            rr = "" if role is None else f"[{role}]"
            return f"accept {a}{rr}({x}). {naive_render(body)}"
        case Par(parts):
            return " | ".join(f"({naive_show(p, tagged)})"
                              if isinstance(p, Par) else naive_show(p, tagged)
                              for p in parts)
        case Session(name, saved, body):
            tagged = any(p.role is not None for p in par_parts(saved))
            return (f"<{name}: {naive_show(saved)}>"
                    f"({naive_show(body, tagged)})")
        case Log(ep, ckpt, current):
            tag = "^imp" if ckpt.imposed else ""
            return (f"{show_chan(ep, tagged)}:"
                    f"<{naive_render(ckpt.process)}>{tag} "
                    f"{naive_render(current)}")
        case ErrorState(kind):
            return kind
    raise TypeError(f"not a collaboration: {c!r}")


def naive_barbs(p, observer=None):
    """`runtime.barbs` of a process, by a walk that visits each process
    key once."""
    found = set()
    seen = set()
    stack = [p]
    while stack:
        q = head_normal(stack.pop())
        key = process_key(q)
        if key in seen:
            continue
        seen.add(key)
        match q:
            case Send(ch, _, cont, role):
                if observer is None or role == observer:
                    found.add(("out", ch, role))
                else:
                    stack.append(cont)
            case Recv(ch, _, _, cont, role):
                if observer is None or role == observer:
                    found.add(("in", ch, role))
                else:
                    stack.append(cont)
            case Select(ch, l, cont, role):
                if observer is None or role == observer:
                    found.add(("sel", ch, l, role))
                else:
                    stack.append(cont)
            case Branch(ch, arms, role):
                if observer is None or role == observer:
                    for l, _ in arms:
                        found.add(("brn", ch, l, role))
                else:
                    stack.extend(arm for _, arm in arms)
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
    return frozenset(found)


# ---------------------------------------------------------------------------
# lexer and endpoint-check references
# ---------------------------------------------------------------------------

# a string body: escapes are \" \\ and \n
_STRING_BODY = r'[^"\\]*(?:\\["\\n][^"\\]*)*'
_NAIVE_TOKEN = re.compile(r"""
    (?: [ \t\r\n]+ | //[^\n]* | /\*.*?\*/ )*
    (?: (?P<ident>[A-Za-z_]\w*)
      | (?P<sym><\+|>\+|\+\+|&&|\|\||==|[!?<>(){}\[\]:.,|@;+])
      | (?P<int>\d+)
      | (?P<string>"%s")
      | (?P<word>\w+)
      | (?P<eof>\Z)
      | (?P<bad>.) )""" % _STRING_BODY, re.VERBOSE | re.DOTALL)
_ESCAPE = re.compile(r"\\(.)")


class NaiveToken(NamedTuple):
    kind: str
    text: str
    start: int  # offset into the source text
    end: int


def naive_tokenize(src):
    """The tokens of `src`, one match and one Python step per token, each
    kind from the alternative that matched, each with its offsets."""
    toks = []
    for m in _NAIVE_TOKEN.finditer(src):
        kind = m.lastgroup
        text = m[kind]
        end = m.end()
        start = end - len(text)
        if kind == "sym":
            kind = text
        elif kind == "ident":
            if text in KEYWORDS:
                kind = "kw"
        elif kind == "string":
            text = _ESCAPE.sub(
                lambda e: "\n" if e[1] == "n" else e[1], text[1:-1])
        elif kind == "word":
            if not text[0].isalpha():
                raise _diag_at(src, start, start + 1,
                               f"unexpected character {text[0]!r}")
            kind = "ident"
        elif kind == "eof":
            return toks + [NaiveToken("eof", "", end, end)] * 3
        elif kind == "bad":
            raise _lex_error(src, start)
        toks.append(NaiveToken(kind, text, start, end))


def free_names(term):
    """Free (value vars, process vars, session vars) of a process or
    collaboration."""
    names = _names(term)
    return tuple(frozenset(n for k, n in names if k == kind)
                 for kind in "vxc")


def naive_endpoint_check(src, body, session_var, where):
    """An endpoint body's static checks as three walks, each raising at
    the token at index `where`: unguarded recursion, then rebinding, then
    unbound names."""
    def contractive(t, pending):
        if isinstance(t, PVar) and t.name in pending:
            raise _diag(src, where, where,
                        f"unguarded recursion on {t.name!r}")
        if isinstance(t, Rec):
            pending = pending | {t.var}
        elif not isinstance(t, If):  # a conditional is no guard
            pending = frozenset()
        for q in subprocesses(t):
            contractive(q, pending)

    def rebinding(t, vals, procs):
        match t:
            case Recv(_, y):
                if y in vals or y == session_var:
                    raise _diag(src, where, where,
                                f"variable {y!r} rebound inside its own "
                                f"scope")
                vals = vals | {y}
            case Rec(x):
                if x in procs:
                    raise _diag(src, where, where,
                                f"recursion variable {x!r} rebound inside "
                                f"its own scope")
                procs = procs | {x}
        for q in subprocesses(t):
            rebinding(q, vals, procs)

    contractive(body, frozenset())
    rebinding(body, frozenset(), frozenset())
    vs, xs, cs = free_names(body)
    if vs:
        raise _diag(src, where, where,
                    f"unbound variable {sorted(vs)[0]!r}")
    if xs:
        raise _diag(src, where, where,
                    f"unbound recursion variable {sorted(xs)[0]!r}")
    extra = cs - {session_var}
    if extra:
        raise _diag(src, where, where,
                    f"unbound session variable {sorted(extra)[0]!r}")


# ---------------------------------------------------------------------------
# binary erasure of two-party runs
# ---------------------------------------------------------------------------

def _erase_proc(p):
    return _map_proc(p, _erase_proc, chan=_erase_chan, role=lambda _: None)


def _erase_chan(ch):
    if isinstance(ch, Endpoint) and ch.role not in (1, 2):
        raise MalformedTerm(
            "role erasure is defined for two-party sessions only")
    return ch


def erase_to_binary(c):
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
        case ErrorState():
            return c
    raise MalformedTerm(f"not a collaboration: {c!r}")


def erase_rule_name(rule):
    return rule[2:] if rule.startswith("M-") else rule


def erase_trace(tr):
    """Binary view of a two-party run: roles stripped, rule prefixes
    dropped.  Step texts are positional, so they carry over unchanged."""
    return Trace(
        SourceProgram(dict(tr.program.decls),
                      erase_to_binary(tr.program.term), False),
        [Candidate(erase_rule_name(s.rule), s.session, s.party, s.text,
                   erase_to_binary(s.successor))
         for s in tr.steps],
        tr.status, tr.oracle)
