"""The recursive-descent parsers that `cherrypi.parser` replaced, kept as
the reference its one-loop parsers are compared against.

`RecursiveProgParser.process` and `RecursiveTypeParser.type_` take two
Python frames per nesting level (`process` and `_prefixed`, `type_` and
`_prefix`); `parse_program` and `parse_type` here are the package's entry
points over them.  Tokens, expressions, collaborations and declarations
are the package's own: only the process and type grammars differ.
"""

from __future__ import annotations

from cherrypi import sessiontypes as st
from cherrypi.parser import (SourceProgram, _P, _ProgParser, _parse_fun_decl,
                             _parse_sort, _type_roles, _TYPE_ATOMS,
                             _TYPE_PREFIXES)
from cherrypi.syntax import (Abort, Branch, ChanVar, Commit, If, Inact, PVar,
                             Rec, Recv, Roll, Select, Send, _NO_NAMES)


class RecursiveProgParser(_ProgParser):
    """The package's program parser with its processes read by recursive
    descent."""

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
                    self.free[2].add(text)
                self.pending = _NO_NAMES
                return self._prefixed(self.session_chan if text ==
                                      self.session_var else ChanVar(text))
            if text in self.pending and self.unguarded is None:
                self.unguarded = f"unguarded recursion on {text!r}"
            if text not in self.recs:
                self.free[1].add(text)
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
            # a role tag before the arm block ...
            role = self._role_suffix() if p.at("@") else None
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
            if role is None:  # ... or after it
                role = self._role_suffix()
            return Branch(ch, tuple(arms), role)
        p.fail("expected !, ?, <+ or >+ after a session variable")


def parse_program(src: str) -> SourceProgram:
    p = _P(src)
    decls: dict = {}
    while p.at("kw", "fun"):
        start = p.pos
        d = _parse_fun_decl(p)
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

    def __init__(self, p: _P):
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
    p = _P(src)
    tp = RecursiveTypeParser(p)
    t = tp.type_()
    p.expect("eof")
    if tp.unguarded is not None:
        p.fail(*tp.unguarded)
    if tp.free:
        name = min(tp.free)
        p.fail(f"unbound type variable {name!r}", tp.free[name])
    return t
