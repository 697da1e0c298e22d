"""Plain references the tests compare the program's faster forms with.

`naive_explore_report` checks how `explore` shares work between states,
so it steps and keys whole states with the production stepper and key;
`forced_steps` builds that stepper's lazy candidates with a loop of its
own.  `naive_show` and `naive_barbs` are the plain forms of a renderer and
a barbs walk that keep work on the nodes: the first builds every text
afresh, the second tells visited processes apart by their keys, not by
identity.  `naive_tokenize` and `naive_endpoint_check` are the lexer that
matches one token at a time and three separate walks over a parsed
endpoint body, against which the parser's one `findall` and the check it
makes while it parses are compared.  `erase_trace` strips a two-role run
back to binary form, so that a binary program's run can be compared with
its `to_multiparty` twin's.  The enumerators that share no stepping logic
with the program are in `oracle_naive.py`.
"""

from __future__ import annotations

import re
from array import array
from typing import NamedTuple

from cherrypi.parser import (KEYWORDS, SourceProgram, _diag, _diag_at,
                             _lex_error, render_expr, show_chan)
from cherrypi.syntax import (Abort, Accept, Branch, CheckpointProcess,
                             Commit, Endpoint, ErrorState, If, Inact, Log,
                             MalformedTerm, Par, PVar, Rec, Recv, Request,
                             Roll, Select, Send, Session, _map_proc, _names,
                             head_normal, par, par_parts, process_key,
                             subprocesses, term_key)
from cherrypi.runtime import (Candidate, ExplorationReport, Trace,
                              classify_state, enumerate_values, guard_value,
                              reduction_steps)
from cherrypi.semantics import TransitionSystem


# ---------------------------------------------------------------------------
# whole-state exploration reference
# ---------------------------------------------------------------------------

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
