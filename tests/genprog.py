"""Seeded random generators: session types and dual two-party programs.

The program generator transcribes one random interaction tree into both
endpoint processes, so the pair is dual (hence deadlock-free) by
construction.  With `safe=True` only the requester ever commits or rolls:
the acceptor never commits, the requester's checkpoint is never imposed,
and every rollback restores a plain checkpoint — roll-safe by
construction.  With `safe=False` commits/rolls land on either side and
an occasional abort leaf appears; recursion is disabled there so that
commit persistency is checkable by canonical-state absence.  With
`int_guards=True` every guard is `f() == 1` over a fresh
`fun f(): int in { 1, 2, 3 }`, so two drawn values take one branch; the
mode draws nothing of its own, so with it off every output is as before.
"""

from __future__ import annotations

import random

from cherrypi.parser import FunDecl, SourceProgram
from cherrypi.sessiontypes import (TAbtT, TBrn, TCmt, TEnd, TIn, TMu, TOut,
                                   TPlus, TRollT, TSel, TVarT)
from cherrypi.syntax import (Abort, Accept, Branch, Call, ChanVar, Commit, If,
                             Inact, Lit, PVar, Rec, Recv, Request, Roll,
                             Select, Send, Ufun, par)

SORTS = ("bool", "int", "str")
_LIT_POOL = {"bool": (True, False), "int": (0, 1, 2, 7),
             "str": ("a", "b", "ok")}


# ---------------------------------------------------------------------------
# random session types (criterion: exploration terminates on arbitrary pairs)
# ---------------------------------------------------------------------------

def random_type(rng: random.Random, depth: int = 8):
    """A closed, contractive session type of nesting depth <= `depth`."""
    counter = [0]

    def go(d: int, scope: tuple, pending: frozenset):
        usable = [v for v in scope if v not in pending]
        if d <= 0:
            pool = ["end", "end", "roll", "abt"] + usable
            pick = rng.choice(pool)
            if pick == "end":
                return TEnd()
            if pick == "roll":
                return TRollT()
            if pick == "abt":
                return TAbtT()
            return TVarT(pick)
        kinds = ["out", "in", "sel", "brn", "plus", "cmt", "mu",
                 "end", "roll", "abt"] + (["var"] * 2 if usable else [])
        weights = [18, 18, 8, 8, 10, 10, 8, 8, 3, 3] + \
            ([6] * 2 if usable else [])
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == "out":
            return TOut(rng.choice(SORTS), go(d - 1, scope, frozenset()))
        if kind == "in":
            return TIn(rng.choice(SORTS), go(d - 1, scope, frozenset()))
        if kind == "sel":
            counter[0] += 1
            return TSel(f"l{counter[0]}", go(d - 1, scope, frozenset()))
        if kind == "brn":
            arms = []
            for _ in range(rng.randint(1, 3)):
                counter[0] += 1
                arms.append((f"l{counter[0]}",
                             go(d - 1, scope, frozenset())))
            return TBrn(tuple(arms))
        if kind == "plus":
            return TPlus(go(d - 1, scope, frozenset()),
                         go(d - 1, scope, frozenset()))
        if kind == "cmt":
            return TCmt(go(d - 1, scope, frozenset()))
        if kind == "mu":
            counter[0] += 1
            v = f"t{counter[0]}"
            return TMu(v, go(d - 1, scope + (v,), pending | {v}))
        if kind == "var":
            return TVarT(rng.choice(usable))
        if kind == "roll":
            return TRollT()
        if kind == "abt":
            return TAbtT()
        return TEnd()

    return go(rng.randint(1, depth), (), frozenset())


# ---------------------------------------------------------------------------
# random dual programs from interaction trees
# ---------------------------------------------------------------------------

class _Gen:
    def __init__(self, rng: random.Random, safe: bool, allow_rec: bool,
                 int_guards: bool = False):
        self.rng = rng
        self.int_guards = int_guards
        self.safe = safe
        self.allow_rec = allow_rec and safe
        self.decls: dict = {}
        self.nfun = 0
        self.nvar = 0
        self.nlab = 0
        self.used_loop = False

    def fresh_fun(self, sort: str, domain: tuple | None) -> Ufun:
        self.nfun += 1
        name = f"f{self.nfun}"
        self.decls[name] = FunDecl(name, (), sort, domain)
        return Ufun(name, (), (), sort, domain)

    def guard(self):
        if self.int_guards:
            return Call("eq", (self.fresh_fun("int", (1, 2, 3)), Lit(1)))
        return self.fresh_fun("bool", None)

    def payload(self, sort: str):
        pool = _LIT_POOL[sort]
        if self.rng.random() < 0.6:
            return Lit(self.rng.choice(pool))
        k = self.rng.randint(1, 2)
        dom = tuple(self.rng.sample(pool, k))
        return self.fresh_fun(sort, dom)

    def gen(self, size: int, guarded: bool):
        """Build both endpoint bodies at once; returns (req, acc)."""
        rng = self.rng
        if size <= 0:
            if self.allow_rec and guarded and rng.random() < 0.55:
                self.used_loop = True
                return PVar("X"), PVar("Y")
            return Inact(), Inact()
        kinds = ["com", "com", "com", "lab", "cmt", "roll"]
        if not self.safe and rng.random() < 0.10:
            kinds = ["abt"]
        kind = rng.choice(kinds)
        if kind == "com":
            sort = rng.choice(SORTS)
            req, acc = self.gen(size - 1, True)
            self.nvar += 1
            v = f"v{self.nvar}"
            if rng.random() < 0.5:
                return (Send(ChanVar("x"), self.payload(sort), req),
                        Recv(ChanVar("y"), v, sort, acc))
            return (Recv(ChanVar("x"), v, sort, req),
                    Send(ChanVar("y"), self.payload(sort), acc))
        if kind == "lab":
            self.nlab += 1
            la, lb = f"l{self.nlab}a", f"l{self.nlab}b"
            r1, a1 = self.gen(size - 1, True)
            r2, a2 = self.gen(size - 1, True)
            if rng.random() < 0.5:
                sel = If(self.guard(), Select(ChanVar("x"), la, r1),
                         Select(ChanVar("x"), lb, r2))
                brn = Branch(ChanVar("y"), ((la, a1), (lb, a2)))
                return sel, brn
            sel = If(self.guard(), Select(ChanVar("y"), la, a1),
                     Select(ChanVar("y"), lb, a2))
            brn = Branch(ChanVar("x"), ((la, r1), (lb, r2)))
            return brn, sel
        if kind == "cmt":
            req, acc = self.gen(size - 1, guarded)
            if self.safe or rng.random() < 0.5:
                return Commit(req), acc
            return req, Commit(acc)
        if kind == "roll":
            req, acc = self.gen(size - 1, guarded)
            if self.safe or rng.random() < 0.5:
                return If(self.guard(), Roll(), req), acc
            return req, If(self.guard(), Roll(), acc)
        # abort leaf: one side gives up, the other has nothing left to say
        if rng.random() < 0.5:
            return Abort(), Inact()
        return Inact(), Abort()


def random_program(rng: random.Random, safe: bool = True,
                   allow_rec: bool = True, size: int | None = None,
                   int_guards: bool = False) -> SourceProgram:
    g = _Gen(rng, safe, allow_rec, int_guards)
    req, acc = g.gen(size if size is not None else rng.randint(2, 6), False)
    if g.used_loop:
        req, acc = Rec("X", req), Rec("Y", acc)
    term = par(Request("a", "x", req), Accept("a", "y", acc))
    return SourceProgram(g.decls, term, False)
