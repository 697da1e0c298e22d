"""The recursive-descent parsers that `cherrypi.parser` replaced, kept as
the reference its one-loop parsers are compared against.

`RecursiveProgParser.process` and `RecursiveTypeParser.type_` take two
Python frames per nesting level (`process` and `_prefixed`, `type_` and
`_prefix`), and `collaboration` two per parenthesis; `parse_program` and
`parse_type` here are the package's entry points over them.  Every
construct is read a token at a time through the cursor's `at`, `eat`
and `expect`: declarations, request and accept heads, role pairs and
expression atoms too, where the package matches tokens at fixed
offsets.  Tokens, the expression climber, sorts and the endpoint
checks' bookkeeping are the package's own.
"""

from __future__ import annotations

from cherrypi import sessiontypes as st
from cherrypi.parser import (FunDecl, SourceProgram, _P, _ProgParser,
                             _parse_sort, _TYPE_ATOMS)
from cherrypi.sessiontypes import TIn, TOut, TSel
from cherrypi.syntax import (Abort, Accept, Branch, ChanVar, Commit, If,
                             Inact, Lit, PVar, Rec, Recv, Request, Roll,
                             Select, Send, Ufun, Var, par, value_sort,
                             _NO_NAMES)


_TYPE_PREFIXES = {"!": TOut, "?": TIn, "sel": TSel}


class Cursor(_P):
    """The package's cursor with the token tests the reference reads by."""

    def at(self, kind: str, text: str | None = None) -> bool:
        return self.kinds[self.pos] == kind and (
            text is None or self.texts[self.pos] == text)

    def eat(self, kind: str, text: str | None = None) -> str | None:
        if self.at(kind, text):
            self.pos += 1
            return self.texts[self.pos - 1]
        return None


def _lit_from_token(p: Cursor) -> Lit | None:
    i = p.pos
    kind, value = p.kinds[i], p.texts[i]
    if kind == "kw" and value in ("true", "false"):
        value = value == "true"
    elif kind == "int":
        value = int(value)
    elif kind != "string":
        return None
    p.pos = i + 1
    return Lit(value)


def parse_fun_decl(p: Cursor) -> FunDecl:
    p.expect("kw", "fun")
    name_at = p.pos
    name = p.expect("ident")
    p.expect("(")
    arg_sorts: list = []
    if not p.at(")"):
        arg_sorts.append(_parse_sort(p))
        while p.eat(","):
            arg_sorts.append(_parse_sort(p))
    p.expect(")")
    p.expect(":")
    result = _parse_sort(p)
    domain = None
    if p.eat("kw", "in"):
        p.expect("{")
        vals: list = []
        first = _lit_from_token(p)
        if first is None:
            p.fail("expected a literal in the outcome domain")
        vals.append(first.value)
        while p.eat(","):
            nxt = _lit_from_token(p)
            if nxt is None:
                p.fail("expected a literal in the outcome domain")
            vals.append(nxt.value)
        p.expect("}")
        for v in vals:
            if value_sort(v) != result:
                p.fail(f"domain value {v!r} is not of sort {result}",
                       name_at)
        if len(set(map(repr, vals))) != len(vals):
            p.fail("duplicate value in outcome domain", name_at)
        domain = tuple(vals)
    return FunDecl(name, tuple(arg_sorts), result, domain)


class RecursiveProgParser(_ProgParser):
    """The package's program parser with its processes, collaborations and
    expression atoms read by recursive descent."""

    def _atom(self):
        p = self.p
        lit = _lit_from_token(p)
        if lit is not None:
            return lit
        if p.eat("("):
            e = self.expr()
            p.expect(")")
            return e
        if p.at("ident"):
            at = p.pos
            p.pos += 1
            name = p.texts[at]
            if p.eat("("):
                args: list = []
                if not p.at(")"):
                    args.append(self.expr())
                    while p.eat(","):
                        args.append(self.expr())
                p.expect(")")
                close = p.pos - 1
                decl = self.decls.get(name)
                if decl is None:
                    p.fail(f"call of undeclared function {name!r}", at,
                           close)
                if len(args) != len(decl.arg_sorts):
                    p.fail(f"{name!r} takes {len(decl.arg_sorts)} "
                           f"argument(s), got {len(args)}", at, close)
                dom = None if decl.domain is None else \
                    tuple(decl.domain)
                return Ufun(name, tuple(args), decl.arg_sorts,
                            decl.result_sort, dom)
            if name not in self.vals:
                self.free.add((0, name))
            return Var(name)
        p.fail("expected an expression")

    def collaboration(self):
        parts = [self._coll_atom()]
        while self.p.eat("|"):
            parts.append(self._coll_atom())
        return par(*parts)

    def _coll_atom(self):
        p = self.p
        if p.eat("("):
            c = self.collaboration()
            p.expect(")")
            return c
        i = p.pos
        head = p.texts[i]
        if p.kinds[i] == "kw" and head in ("request", "accept"):
            p.pos = i + 1
            name = p.expect("ident")
            role = None
            if p.eat("["):
                role = int(p.expect("int"))
                p.expect("]")
            self.tagged.add(role is not None)
            p.expect("(")
            x = p.expect("ident")
            p.expect(")")
            p.expect(".")
            self._start(x)
            body = self.process()
            self._finish(i)
            if head == "request":
                return Request(name, x, body, role)
            return Accept(name, x, body, role)
        p.fail("expected 'request', 'accept', or a parenthesised "
               "collaboration")

    def _start(self, session_var: str) -> None:
        super()._start(session_var)
        self.pending = _NO_NAMES  # recursion variables no prefix guards

    def process(self) -> Process:
        p = self.p
        i = p.pos
        kind, text = p.kinds[i], p.texts[i]
        if kind == "kw":
            p.pos = i + 1
            if text == "if":
                cond = self.expr()
                p.expect("kw", "then")
                pending = self.pending  # a conditional is no guard
                then = self.process()
                self.pending = pending
                p.expect("kw", "else")
                return If(cond, then, self.process())
            if text == "rec":
                x = p.expect("ident")
                p.expect(".")
                if x in self.recs and self.rebound is None:
                    self.rebound = (f"recursion variable {x!r} rebound "
                                    f"inside its own scope")
                self.recs.add(x)
                self.pending = self.pending | {x}
                body = self.process()
                self.recs.discard(x)
                return Rec(x, body)
            if text == "commit":
                p.expect(".")
                self.pending = _NO_NAMES
                return Commit(self.process())
            if text == "roll":
                return Roll()
            if text == "abort":
                return Abort()
            p.fail(f"unexpected keyword {text!r} in process", i)
        if kind == "int":
            if text == "0":
                p.pos = i + 1
                return Inact()
            p.fail("expected a process (a bare number is not one)")
        if kind == "(":
            p.pos = i + 1
            body = self.process()
            p.expect(")")
            return body
        if kind == "ident":
            p.pos = i + 1
            if p.kinds[i + 1] in ("!", "?", "<+", ">+"):
                if text != self.session_var:
                    self.free.add((2, text))
                self.pending = _NO_NAMES
                return self._prefixed(self.session_chan if text ==
                                      self.session_var else ChanVar(text))
            if text in self.pending and self.unguarded is None:
                self.unguarded = f"unguarded recursion on {text!r}"
            if text not in self.recs:
                self.free.add((1, text))
            return PVar(text)
        p.fail("expected a process")

    def _role_suffix(self) -> int | None:
        """A prefix's role tag, or None; either is noted in `tagged`."""
        role = int(self.p.expect("int")) if self.p.eat("@") else None
        self.tagged.add(role is not None)
        return role

    def _prefixed(self, ch) -> Process:
        p = self.p
        if p.eat("!"):
            p.expect("<")
            e = self.expr()
            p.expect(">")
            role = self._role_suffix()
            p.expect(".")
            return Send(ch, e, self.process(), role)
        if p.eat("?"):
            p.expect("(")
            y = p.expect("ident")
            p.expect(":")
            sort = _parse_sort(p)
            p.expect(")")
            role = self._role_suffix()
            p.expect(".")
            if (y in self.vals or y == self.session_var) \
                    and self.rebound is None:
                self.rebound = f"variable {y!r} rebound inside its own scope"
            self.vals.add(y)
            cont = self.process()
            self.vals.discard(y)
            return Recv(ch, y, sort, cont, role)
        if p.eat("<+"):
            lab = p.expect("ident")
            role = self._role_suffix()
            p.expect(".")
            return Select(ch, lab, self.process(), role)
        if p.eat(">+"):
            p.expect("{")
            arms: list = []
            seen: set = set()
            while True:
                at = p.pos
                lab = p.expect("ident")
                if lab in seen:
                    p.fail(f"duplicate branch label {lab!r}", at)
                seen.add(lab)
                p.expect(":")
                self.pending = _NO_NAMES
                arms.append((lab, self.process()))
                if not p.eat(","):
                    break
            p.expect("}")
            return Branch(ch, tuple(arms), self._role_suffix())
        p.fail("expected !, ?, <+ or >+ after a session variable")


def parse_program(src: str) -> SourceProgram:
    p = Cursor(src)
    decls: dict = {}
    while p.at("kw", "fun"):
        start = p.pos
        d = parse_fun_decl(p)
        if d.name in decls:
            p.fail(f"function {d.name!r} declared twice", start)
        decls[d.name] = d
    pp = RecursiveProgParser(p, decls)
    first = p.pos
    term = pp.collaboration()
    p.expect("eof")
    if pp.offence is not None:
        p.fail(*pp.offence)
    if len(pp.tagged) == 2:
        p.fail("mixed multiparty and binary endpoints", first)
    return SourceProgram(decls, term, True in pp.tagged)


def _type_roles(p: Cursor) -> tuple:
    """The role pair `[p,q]` that may open a prefix, each side `_` or an
    integer, or (None, None); the prefix's own `[…]` starts with neither."""
    i = p.pos
    if p.kinds[i] != "[" or not (p.kinds[i + 1] == "int" or (
            p.kinds[i + 1], p.texts[i + 1]) == ("ident", "_")):
        return (None, None)

    def side():
        return None if p.eat("ident", "_") else int(p.expect("int"))

    p.pos = i + 1
    a = side()
    p.expect(",")
    b = side()
    p.expect("]")
    return a, b


class RecursiveTypeParser:
    """Parses a type and checks its variables on the way: the first
    unguarded variable in the text is rejected at its own token, else the
    alphabetically first free variable at its first occurrence.  Scope is
    decided on the way down (`bound`), guardedness on the way up: `(+)`
    guards its left operand too, which is parsed before the `(+)` is
    seen.  So `chain` is the variable that ends the chain of `mu`s just
    parsed (`mu t. mu u. t` ends in `t`), which every prefix and `(+)`
    clears, and a `mu` whose own variable ends its body's chain is
    unguarded."""

    def __init__(self, p: Cursor):
        self.p = p
        self.bound: set = set()  # the `mu` variables in scope
        self.chain = None  # the token index of that variable, or None
        self.unguarded = None  # the first one's (message, token index)
        self.free: dict = {}  # free variable -> its first token's index

    def type_(self) -> st.SessionTypeT:
        return self._plus(self._prefix())

    def _plus(self, t: st.SessionTypeT) -> st.SessionTypeT:
        """`t` followed by its `(+) T` operands, each a prefix."""
        p = self.p
        while p.kinds[p.pos:p.pos + 3] == ["(", "+", ")"]:
            p.pos += 3
            t = st.TPlus(t, self._prefix())
            self.chain = None
        return t

    def _prefix(self) -> st.SessionTypeT:
        p = self.p
        i = p.pos
        p.pos += 1
        kind, text = p.kinds[i], p.texts[i]
        key = text if kind == "kw" else kind
        if key in _TYPE_PREFIXES:
            src, dst = _type_roles(p)
            p.expect("[")
            x = p.expect("ident") if key == "sel" else _parse_sort(p)
            p.expect("]")
            p.expect(".")
            t = _TYPE_PREFIXES[key](x, self.type_(), src, dst)
        elif key == "brn":
            src, dst = _type_roles(p)
            p.expect("[")
            arms: list = []
            seen: set = set()
            while True:
                at = p.pos
                lab = p.expect("ident")
                if lab in seen:
                    p.fail(f"duplicate branch label {lab!r}", at)
                seen.add(lab)
                p.expect(":")
                arms.append((lab, self.type_()))
                if not p.eat(";"):
                    break
            p.expect("]")
            t = st.TBrn(tuple(arms), src, dst)
        elif key == "mu":
            v = p.expect("ident")
            p.expect(".")
            bound = self.bound
            fresh = v not in bound
            bound.add(v)
            t = st.TMu(v, self.type_())
            if fresh:
                bound.discard(v)
            at = self.chain
            if at is not None and p.texts[at] == v and self.unguarded is None:
                self.unguarded = (f"unguarded recursive type on {v!r}", at)
            return t  # the chain goes on through the `mu`
        elif key == "cmt":
            p.expect(".")
            t = st.TCmt(self.type_())
        elif key in _TYPE_ATOMS:
            t = _TYPE_ATOMS[key]()
        elif key == "(":
            inner = self.type_()
            p.expect(")")
            return self._plus(inner)
        elif key == "ident":
            if text not in self.bound:
                self.free.setdefault(text, i)
            self.chain = i
            return st.TVarT(text)
        else:
            p.fail(f"unexpected keyword {text!r} in type" if kind == "kw"
                   else "expected a session type", i)
        self.chain = None
        return t


def parse_type(src: str) -> st.SessionTypeT:
    p = Cursor(src)
    tp = RecursiveTypeParser(p)
    t = tp.type_()
    p.expect("eof")
    if tp.unguarded is not None:
        p.fail(*tp.unguarded)
    if tp.free:
        name = min(tp.free)
        p.fail(f"unbound type variable {name!r}", tp.free[name])
    return t
