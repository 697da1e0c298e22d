"""Independent reference enumerators used as oracles by the tests and the
benchmark.

Everything here re-derives successor relations with deliberately plain
recursive code that shares no stepping logic with the production engines
(AST classes and the canonical-form printers are reused as data plumbing
only): `naive_type_reach` for the type level and `naive_explore` for plain
process-level runs.  Tests compare state sets, counts, and verdicts
between the two.  `bench/` imports this module afresh on each set-up, so
it holds only these enumerators; the tests' other plain references are in
`references.py`.
"""

from __future__ import annotations

from cherrypi.syntax import (Abort, Accept, Branch, Call, CheckpointProcess,
                             Commit, Endpoint, If, Lit, Log, Rec, Recv,
                             Request, Roll, Select, Send, Session, Ufun,
                             canonicalize, par, par_parts, substitute,
                             unfold_recursion)
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
