"""Concrete syntax: tokenizer, program and type parsers, renderers.

Program files (.chpi) hold uninterpreted-function declarations followed by a
collaboration; type files (.chty) hold a single session type.  Both share one
tokenizer.  `render_program` emits source that parses back to an equal
program (`sessiontypes.render_type` does the same for types).

`tokenize` reads the whole text before either parser runs, so a lexical
error wins over a syntax error earlier in the text.  Its per-token work
runs in C: one `findall` gives the tokens' texts and a dict lookup each
one's kind (keywords and symbols by text, the rest by first character).
It keeps no offsets: the parsers hold a token by its index, and `_spans`
matches the text again only when a diagnostic needs them.
Processes and types are each read by one loop over an explicit stack
(predictive parsing), and a collaboration by a loop that counts its open
parentheses, so none of them takes a Python frame per nesting level.
Expressions parse by precedence climbing over `syntax.OPERATORS`, a
frame or two per operand, so a deeply nested expression still meets the
recursion limit.  Both grammars pay about one lookup per token: a
construct's head and the tokens between its parts (a prefix's `(v: s).`,
`if v then`, an arm's `l:`) are matched by their kinds at fixed offsets
from an index of the loop's own, and only a token out of place goes
through the cursor, which raises its diagnostic.  What is read once per
declaration or endpoint (`fun f(s): s`, `request a(x).`), and a type's
role pair `[p,q]`, the cursor reads in grammar order.

The parsers check well-formedness as they go: each carries the names its
binders (`rec X`, a receive's variable, the endpoint's session variable,
`mu t`) put in scope down to what it reads next, and notes the first
unguarded recursion, rebinding or unbound name.  `parse_program` and
`parse_type` raise that offence only once the whole text has parsed, so
a syntax error anywhere wins over it.  Nothing is kept on the nodes: the
free-name cache `_fv` is filled by the runtime on first use.
`render_expr` parenthesises expressions by the strengths and groupings
they parse by.
"""

from __future__ import annotations

import re
import sys
from itertools import accumulate
from operator import itemgetter
from string import ascii_letters, digits

from .syntax import (Abort, Accept, Branch, Call, ChanVar, Collaboration,
                     Commit, Endpoint, ErrorState, If, Inact, Lit, Par, PVar,
                     Process, Rec, Recv, Request, Roll, Select, Send, Session,
                     Log, Ufun, Var, par,
                     par_parts, record, operator_of,
                     OPERATORS, SORTS, MalformedTerm, _NO_NAMES, _role_tag)
from . import sessiontypes as st
from .sessiontypes import TBrn, TCmt, TIn, TMu, TOut, TPlus, TSel, TVarT

KEYWORDS = {"request", "accept", "if", "then", "else", "rec", "commit",
            "roll", "abort", "true", "false", "fun", "in", "bool", "int",
            "str", "sel", "brn", "mu", "end", "err", "cmt", "abt"}

# a string body: escapes are \" \\ and \n
_STRING_BODY = r'[^"\\]*(?:\\["\\n][^"\\]*)*'
_COMMENT = r"/(?: /[^\n]* | \*.*?\*/ )"  # to the line's end, or to `*/`
# One match is the blanks and comments before a token, skipped, then the
# token, the one group, so `findall` gives the tokens' texts.  The comment
# loop is a branch that starts with `/`: one character test where there is
# no comment.  A token is a symbol that starts no longer one, a run of
# decimal digits, a run of word characters, any other symbol (two-character
# symbols win over their one-character prefixes), a string, the empty token
# at the end of the text, or, from any other character on, the rest of the
# text: every match ends in a token or at the end of the text, and only the
# last token can start with a character that starts no token.
_TOKEN = re.compile(r"""
    [ \t\r\n]* (?: %s (?: [ \t\r\n]+ | %s )* | )
    ( [!?(){}\[\]:.,@;] | \d+ | \w+ | <\+|>\+|\+\+|&&|\|\||==|[<>|+]
    | "%s" | \Z | .+ )""" % (_COMMENT, _COMMENT, _STRING_BODY),
                    re.VERBOSE | re.DOTALL)
_STRING = re.compile('"%s"' % _STRING_BODY)
_STRING_REST = re.compile(_STRING_BODY)
_ESCAPE = re.compile(r"\\(.)")
_SYMBOLS = "<+ >+ ++ && || == ! ? < > ( ) { } [ ] : . , | @ ; +".split()
# A token's kind: a keyword's or a symbol's from its text ...
_KIND = dict.fromkeys(KEYWORDS, "kw") | dict(zip(_SYMBOLS, _SYMBOLS))
# ... any other token's from its first character, here if that is ASCII
_FIRST = (dict.fromkeys(ascii_letters + "_", "ident")
          | dict.fromkeys(digits, "int") | {'"': "string"})
_FIRST_CHAR = itemgetter(0)


class ParseDiagnostic(metaclass=record, frozen=True):
    message: str
    start: int
    end: int
    line: int
    col: int


class ParseError(Exception):
    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(f"{diagnostic.line}:{diagnostic.col}: "
                         f"{diagnostic.message}")
        self.diagnostic = diagnostic


def _diag_at(src: str, start: int, end: int, message: str) -> ParseError:
    line = src.count("\n", 0, start) + 1
    col = start - (src.rfind("\n", 0, start) + 1) + 1
    return ParseError(ParseDiagnostic(message, start, end, line, col))


def _spans(src: str) -> list:
    """The offsets of each token of `tokenize(src)`, eof entries included,
    found by matching the lexer's pattern again, for a diagnostic only."""
    spans = [m.span(1) for m in _TOKEN.finditer(src)]
    while spans and spans[-1][0] == len(src):
        spans.pop()
    return spans + [(len(src), len(src))] * 3


def _diag(src: str, first: int, last: int, message: str) -> ParseError:
    """The error from the token at index `first` to the one at `last`."""
    spans = _spans(src)
    return _diag_at(src, spans[first][0], spans[last][1], message)


def _unescape(m: re.Match) -> str:
    return "\n" if m[1] == "n" else m[1]


def _lex_error(src: str, i: int) -> ParseError:
    """The diagnostic for offset `i`, where no token starts."""
    if src.startswith("/*", i):
        return _diag_at(src, i, len(src), "unterminated block comment")
    if src[i] == '"':
        j = _STRING_REST.match(src, i + 1).end()
        if j < len(src) - 1:  # stopped at a backslash that escapes nothing
            return _diag_at(src, j, j + 2,
                            f"unknown escape \\{src[j + 1]} in string")
        return _diag_at(src, i, len(src), "unterminated string literal")
    return _diag_at(src, i, i + 1, f"unexpected character {src[i]!r}")


def _kind_by_first(text: str) -> str | None:
    """The kind of a token that neither `_KIND` nor `_FIRST` gives: one
    that starts with a non-ASCII character, or with a character that
    starts no token (None)."""
    c = text[0]
    return "int" if c.isdecimal() else "ident" if c.isalpha() else None


def tokenize(src: str) -> tuple:
    """The tokens' kinds ("ident", "int", "string", "kw", a symbol's text)
    and texts (a string's unescaped body), as two lists that end in three
    "eof" entries, so the cursor looks two tokens ahead by plain indexing.
    Integers are runs of decimal digits (what `int()` reads); an
    identifier starts with a letter or `_` and goes on with letters,
    digits and `_`.  A string that a final backslash cuts off is
    unterminated.  A token is its index: `_spans` finds offsets.

    The per-token work runs in C: one `findall`, then each kind by a dict
    lookup of the token's text, defaulting to one of its first character.
    Only the last token can start with a character that starts no token,
    so in ASCII text a test of the last kind finds a lexical error, and
    of the last text an unterminated string.  Python steps are taken only
    for strings, for tokens that start with a non-ASCII character and for
    the first character that starts no token, whose diagnostic is raised
    before any parsing, so it wins over a syntax error earlier in the
    text."""
    texts = _TOKEN.findall(src)
    # the end of the text gives an empty token, twice after trailing blanks
    while texts and not texts[-1]:
        texts.pop()
    kinds = list(map(_KIND.get, texts,
                     map(_FIRST.get, map(_FIRST_CHAR, texts))))
    if not src.isascii() or kinds and kinds[-1] is None:
        i = -1
        for _ in range(kinds.count(None)):
            i = kinds.index(None, i + 1)
            kinds[i] = _kind_by_first(texts[i])
            if kinds[i] is None:
                raise _lex_error(src, _spans(src)[i][0])
    if '"' in src and kinds:  # a `"` in a comment may leave no token
        if kinds[-1] == "string" and not _STRING.fullmatch(texts[-1]):
            raise _lex_error(src, _spans(src)[len(texts) - 1][0])
        i = -1
        for _ in range(kinds.count("string")):
            i = kinds.index("string", i + 1)
            text = texts[i][1:-1]
            texts[i] = _ESCAPE.sub(_unescape, text) if "\\" in text else text
    kinds += ("eof",) * 3
    texts += ("",) * 3
    return kinds, texts


class FunDecl(metaclass=record, frozen=True):
    name: str
    arg_sorts: tuple  # tuple[str, ...]
    result_sort: str
    domain: tuple | None  # tuple of python values, or None


class SourceProgram(metaclass=record):
    """A program.  `decls` declares every uninterpreted function the term
    calls, with the call's argument and result sorts and domain, and is
    all `render_program` writes of them."""
    decls: dict  # name -> FunDecl, declaration order
    term: Collaboration
    multiparty: bool


class _P:
    """Cursor over `tokenize`'s lists, shared by the program and type
    parsers.  What keeps a token for a later diagnostic keeps its index.
    The grammars read most constructs by their tokens' kinds at fixed
    offsets from an index of their own, and come here where a token is
    out of place, for its diagnostic."""

    def __init__(self, src: str):
        self.src = src
        self.kinds, self.texts = tokenize(src)
        self.pos = 0  # past the first eof entry only to end or to fail

    def expect(self, kind: str, text: str | None = None) -> str:
        i = self.pos
        found = self.kinds[i]
        if found != kind or (text is not None and self.texts[i] != text):
            raise _diag(self.src, i, i, f"expected {text or kind!r}, "
                        f"found {self.texts[i] or found!r}")
        self.pos = i + 1
        return self.texts[i]

    def expect_all(self, i: int, *kinds: str) -> None:
        """`expect` each of `kinds` ("sort" for `_parse_sort`) from token
        `i` on: where a fixed-offset match failed, this raises the
        diagnostic of the first token out of place."""
        self.pos = i
        for kind in kinds:
            _parse_sort(self) if kind == "sort" else self.expect(kind)

    def fail(self, message: str, first: int | None = None,
             last: int | None = None):
        """Raise `message` at tokens `first` (else the current) to `last`."""
        first = self.pos if first is None else first
        raise _diag(self.src, first, first if last is None else last, message)


# ---------------------------------------------------------------------------
# program parser
# ---------------------------------------------------------------------------

def _parse_sort(p: _P) -> str:
    i = p.pos
    if p.kinds[i] == "kw" and p.texts[i] in SORTS:
        p.pos = i + 1
        return p.texts[i]
    p.fail("expected a sort (bool, int, or str)")


def _int(p: _P, i: int) -> int:
    """The value of integer token `i`, refused past `int()`'s limit."""
    try:
        return int(p.texts[i])
    except ValueError:
        p.fail(f"integer of more than {sys.get_int_max_str_digits()} "
               f"digits", i)


def _value(p: _P, i: int) -> tuple | None:
    """The value and sort of the literal token `i` is, or None."""
    kind, text = p.kinds[i], p.texts[i]
    if kind == "int":
        return _int(p, i), "int"
    if kind == "string":
        return text, "str"
    if kind == "kw" and text in ("true", "false"):
        return text == "true", "bool"
    return None


def _parse_fun_decl(p: _P) -> FunDecl:
    """`fun f(s, ...): s`, then maybe its domain `in { v, ... }`."""
    kinds, texts = p.kinds, p.texts
    at = p.pos = p.pos + 1  # the name
    name = p.expect("ident")
    p.expect("(")
    arg_sorts = []
    if kinds[p.pos] != ")":
        arg_sorts.append(_parse_sort(p))
        while kinds[p.pos] == ",":
            p.pos += 1
            arg_sorts.append(_parse_sort(p))
    p.expect(")")
    p.expect(":")
    result = _parse_sort(p)
    domain = None
    if kinds[p.pos] == "kw" and texts[p.pos] == "in":
        p.pos += 1
        p.expect("{")
        vals, bad = [], None  # bad: the first literal of another sort
        while True:  # a literal, then `,` and one more, or `}`
            v = _value(p, p.pos)
            if v is None:
                p.fail("expected a literal in the outcome domain")
            if bad is None and v[1] != result:
                bad = v
            vals.append(v[0])
            p.pos += 1
            if kinds[p.pos] != ",":
                break
            p.pos += 1
        p.expect("}")
        if bad is not None:
            p.fail(f"domain value {bad[0]!r} is not of sort {result}", at)
        if len(set(vals)) != len(vals):  # one sort: no `True == 1`
            p.fail("duplicate value in outcome domain", at)
        domain = tuple(vals)
    return FunDecl(name, tuple(arg_sorts), result, domain)


# the operators by symbol, as (name, row): the prefix ones and the others
_PREFIX = {row.symbol: (op, row) for op, row in OPERATORS.items()
           if row.grouping == "prefix"}
_INFIX = {row.symbol: (op, row) for op, row in OPERATORS.items()
          if row.grouping != "prefix"}
_TIGHTEST = max(row.prec for row in OPERATORS.values())


_UNBOUND = ("variable", "recursion variable", "session variable")
# the prefixes by the token after their session variable, the kinds of a
# receive's `(v: s)`, and the tokens that are a whole process
_PREFIX_OPS = {"!": Send, "?": Recv, "<+": Select, ">+": Branch}
_RECV = ["(", "ident", ":", "kw", ")"]
_LEAVES = {("int", "0"): Inact, ("kw", "roll"): Roll, ("kw", "abort"): Abort}
# the kinds of an arm's label and `:`
_ARM = ["ident", ":"]


def _next_arm(p: _P, i: int, arms: dict) -> int:
    """The index past an arm's `label:` at token `i`, whose label no
    earlier arm has."""
    if p.kinds[i:i + 2] != _ARM or p.texts[i] in arms:
        p.pos = i
        if p.expect("ident") in arms:
            p.fail(f"duplicate branch label {p.texts[i]!r}", i)
        p.expect(":")  # raises
    return i + 2


class _ProgParser:
    """Parses a collaboration and checks each endpoint body on the way
    down: it rejects a body that recurses unguarded, rebinds a value or
    recursion variable inside its own scope (which keeps substitution and
    trace reading unambiguous) or uses a name nothing binds.  The first
    unguarded recursion in the body wins; else the first rebinding; else
    the alphabetically first unbound value, recursion or session
    variable.  `offence` is the first endpoint's that has one, at the
    endpoint's first token.  A binder adds its name to the scope for its
    continuation and takes it out after, inline: a scope costs no copy
    and no frame per level.  A rebinding takes out the outer binder's
    name too, but it wins over any unbound name."""

    def __init__(self, p: _P, decls: dict):
        self.p = p
        self.decls = decls
        self.offence = None  # (message, token index)
        self.tagged: set = set()  # whether each endpoint and prefix has a role
        self._start("")

    def _start(self, session_var: str) -> None:
        """An endpoint body's scope, empty."""
        self.session_var = session_var
        self.session_chan = ChanVar(session_var)  # shared by its prefixes
        self.vals: set = set()  # the bound values ...
        self.recs: set = set()  # ... and recursion variables
        self.unguarded = self.rebound = None  # the first of each's message
        self.free: set = set()  # unbound names, as (`_UNBOUND` index, name)

    def _finish(self, head: int) -> None:
        """Note the body's offence at token `head`, if it is the first."""
        if self.offence is not None:
            return
        message = self.unguarded or self.rebound
        if message is None and self.free:
            what, name = min(self.free)
            message = f"unbound {_UNBOUND[what]} {name!r}"
        if message is not None:
            self.offence = (message, head)

    # -- expressions --------------------------------------------------------

    def expr(self, floor: int = 0):
        """An expression whose infix operators bind tighter than `floor`
        (precedence climbing over `OPERATORS`).  After an operator that
        groups left, another of its strength may follow; after one that
        does not chain, only a looser one, so in `a == b == c` the second
        `==` is left to the caller, which refuses it."""
        p = self.p
        kinds = p.kinds
        found = _PREFIX.get(kinds[p.pos])
        if found is None:
            e = self._atom()
        else:
            p.pos += 1
            e = Call(found[0], (self.expr(found[1].prec),))
        cap = _TIGHTEST
        while True:
            found = _INFIX.get(kinds[p.pos])
            if found is None or not floor < found[1].prec <= cap:
                return e
            p.pos += 1
            op, row = found
            e = Call(op, (e, self.expr(row.prec)))
            cap = row.prec if row.grouping == "left" else row.prec - 1

    def _operand(self, i: int) -> tuple:
        """The literal, variable or call without arguments that starts at
        token `i`, read at fixed offsets, and the index after it; None in
        place of any other expression."""
        kinds, texts = self.p.kinds, self.p.texts
        name = texts[i]
        if kinds[i] != "ident":
            v = _value(self.p, i)
            return None if v is None else Lit(v[0]), i + 1
        if kinds[i + 1] != "(":
            if name not in self.vals:
                self.free.add((0, name))
            return Var(name), i + 1
        decl = self.decls.get(name)
        if kinds[i + 2] != ")" or decl is None or decl.arg_sorts:
            return None, i
        return Ufun(name, (), (), decl.result_sort, decl.domain), i + 3

    def _atom(self):
        p = self.p
        i = p.pos
        e, p.pos = self._operand(i)
        if e is not None:
            return e
        p.pos = i + 1
        if p.kinds[i] == "(":
            e = self.expr()
            p.expect(")")
            return e
        if p.kinds[i] != "ident":
            p.fail("expected an expression", i)
        # a call with arguments, or one `_operand` refused
        name, args = p.texts[i], []
        p.pos = i + 2
        if p.kinds[i + 2] != ")":
            args.append(self.expr())
            while p.kinds[p.pos] == ",":
                p.pos += 1
                args.append(self.expr())
        p.expect(")")
        decl = self.decls.get(name)
        if decl is None:
            p.fail(f"call of undeclared function {name!r}", i, p.pos - 1)
        if len(args) != len(decl.arg_sorts):
            p.fail(f"{name!r} takes {len(decl.arg_sorts)} argument(s), "
                   f"got {len(args)}", i, p.pos - 1)
        return Ufun(name, tuple(args), decl.arg_sorts, decl.result_sort,
                    decl.domain)

    # -- processes ----------------------------------------------------------

    def process(self) -> Process:
        """A process, read by one loop over an explicit stack: what a
        process follows (a prefix, `commit`, `rec`, `if`, an arm group, a
        parenthesis) pushes a frame, a tuple of its tag and fields, and a
        leaf folds the frames until one needs more text or none is left.
        Heads and the tokens between a construct's parts are matched by
        their kinds at fixed offsets from the index `i`; where one is out
        of place, the cursor's `expect` raises its diagnostic.  Scope and
        offences change in the order of a recursive descent; `pending`
        holds the recursion variables no prefix guards."""
        p, vals, recs, own = self.p, self.vals, self.recs, self.session_var
        kinds, texts, tagged, chan = p.kinds, p.texts, self.tagged, \
            self.session_chan
        pending = _NO_NAMES
        stack: list = []
        push, pop = stack.append, stack.pop
        i = p.pos
        while True:
            kind, text = kinds[i], texts[i]
            made = _PREFIX_OPS.get(kinds[i + 1]) if kind == "ident" else None
            if made is not None:
                ch = chan
                if text != own:
                    self.free.add((2, text))
                    ch = ChanVar(text)
                pending, b = _NO_NAMES, None
                if made is Branch:  # its role tag follows the arm block
                    if kinds[i + 2] != "{":
                        p.expect_all(i + 2, "{")
                    arms = {}
                    i = _next_arm(p, i + 3, arms)
                    push((Branch, ch, arms, texts[i - 2]))
                    continue
                if made is Recv:
                    if kinds[i + 2:i + 7] != _RECV \
                            or texts[i + 5] not in SORTS:
                        p.expect_all(i + 2, "(", "ident", ":", "sort", ")")
                    a, b, i = texts[i + 3], texts[i + 5], i + 7
                    if (a in vals or a == own) and self.rebound is None:
                        self.rebound = (f"variable {a!r} rebound inside "
                                        f"its own scope")
                    vals.add(a)
                elif made is Select:
                    if kinds[i + 2] != "ident":
                        p.expect_all(i + 2, "ident")
                    a, i = texts[i + 2], i + 3
                else:
                    a, j = self._operand(i + 3)
                    if kinds[i + 2] == "<" and a is not None \
                            and kinds[j] == ">":
                        i = j + 1
                    else:
                        p.pos = i + 2
                        p.expect("<")
                        a = self.expr()
                        p.expect(">")
                        i = p.pos
                if kinds[i] == ".":
                    role, i = None, i + 1
                    tagged.add(False)
                else:
                    p.pos = i
                    role = self._role_suffix()
                    p.expect(".")
                    i = p.pos
                push((made, ch, a, b, role))
                continue
            if kind == "kw" and text == "if":
                cond, j = self._operand(i + 1)
                if cond is None or kinds[j] != "kw" or texts[j] != "then":
                    p.pos = i + 1
                    cond = self.expr()
                    p.expect("kw", "then")
                    j = p.pos - 1
                push(("then", cond, pending))  # a conditional is no guard
                i = j + 1
            elif kind == "kw" and text == "rec":
                if kinds[i + 1:i + 3] != ["ident", "."]:
                    p.expect_all(i + 1, "ident", ".")
                x, i = texts[i + 1], i + 3
                if x in recs and self.rebound is None:
                    self.rebound = (f"recursion variable {x!r} rebound "
                                    f"inside its own scope")
                recs.add(x)
                pending = pending | {x}
                push((Rec, x))
            elif kind == "kw" and text == "commit":
                if kinds[i + 1] != ".":
                    p.expect_all(i + 1, ".")
                i, pending = i + 2, _NO_NAMES
                push((Commit,))
            elif kind == "(":
                push(("(",))
                i += 1
            else:
                leaf = _LEAVES.get((kind, text))
                if leaf is not None:
                    node = leaf()
                elif kind == "ident":
                    if text in pending and self.unguarded is None:
                        self.unguarded = f"unguarded recursion on {text!r}"
                    if text not in recs:
                        self.free.add((1, text))
                    node = PVar(text)
                else:
                    p.fail(f"unexpected keyword {text!r} in process"
                           if kind == "kw" else "expected a process (a "
                           "bare number is not one)" if kind == "int"
                           else "expected a process", i)
                i += 1
                while stack:
                    frame = pop()
                    tag = frame[0]
                    if tag is Send or tag is Recv or tag is Select:
                        _, ch, a, b, role = frame
                        if tag is Recv:
                            vals.discard(a)
                            node = Recv(ch, a, b, node, role)
                        else:
                            node = tag(ch, a, node, role)
                    elif tag is Commit:
                        node = Commit(node)
                    elif tag is Rec:
                        recs.discard(frame[1])
                        node = Rec(frame[1], node)
                    elif tag is If:
                        node = If(frame[1], frame[2], node)
                    elif tag is Branch:  # one frame for the arm group
                        _, ch, arms, lab = frame
                        arms[lab] = node
                        if kinds[i] == ",":
                            i = _next_arm(p, i + 1, arms)
                            push((tag, ch, arms, texts[i - 2]))
                            pending = _NO_NAMES
                            break
                        if kinds[i] != "}":
                            p.expect_all(i, "}")
                        p.pos = i + 1
                        node = Branch(ch, tuple(arms.items()),
                                      self._role_suffix())
                        i = p.pos
                    elif tag == "then":  # the else-branch follows
                        if kinds[i] != "kw" or texts[i] != "else":
                            p.pos = i
                            p.expect("kw", "else")
                        pending = frame[2]
                        push((If, frame[1], node))
                        i += 1
                        break
                    elif kinds[i] == ")":
                        i += 1
                    else:
                        p.expect_all(i, ")")
                else:
                    p.pos = i
                    return node

    def _role_suffix(self) -> int | None:
        """A prefix's role tag, or None; either is noted in `tagged`."""
        p, role = self.p, None
        if p.kinds[p.pos] == "@":
            p.pos += 1
            p.expect("int")
            role = _int(p, p.pos - 1)
        self.tagged.add(role is not None)
        return role

    # -- collaborations -----------------------------------------------------

    def collaboration(self) -> Collaboration:
        """Endpoints separated by `|`, any group of them in parentheses:
        `par` flattens the nesting, so the loop only counts the open
        parentheses."""
        p = self.p
        kinds, texts = p.kinds, p.texts
        parts: list = []
        depth, i = 0, p.pos
        while True:
            while kinds[i] == "(":
                depth, i = depth + 1, i + 1
            head = texts[i]
            if kinds[i] != "kw" or head not in ("request", "accept"):
                p.fail("expected 'request', 'accept', or a parenthesised "
                       "collaboration", i)
            # `request a(x).` or `accept a[r](x).`
            p.pos = i + 1
            p.expect("ident")
            tagged = kinds[p.pos] == "["
            if tagged:
                p.pos += 1
                p.expect("int")
                p.expect("]")
            p.expect("(")
            x = p.expect("ident")
            p.expect(")")
            p.expect(".")
            role = _int(p, i + 3) if tagged else None
            self.tagged.add(tagged)  # whether the head names a role
            self._start(x)
            body = self.process()
            self._finish(i)
            parts.append((Request if head == "request" else Accept)(
                texts[i + 1], x, body, role))
            i = p.pos
            while depth and kinds[i] == ")":
                depth, i = depth - 1, i + 1
            if kinds[i] == "|":
                i += 1
            elif depth:
                p.expect_all(i, ")")
            else:
                p.pos = i
                return par(*parts)


def parse_program(src: str) -> SourceProgram:
    p = _P(src)
    decls: dict = {}
    while p.kinds[p.pos] == "kw" and p.texts[p.pos] == "fun":
        start = p.pos
        d = _parse_fun_decl(p)
        if d.name in decls:
            p.fail(f"function {d.name!r} declared twice", start)
        decls[d.name] = d
    pp = _ProgParser(p, decls)
    first = p.pos
    term = pp.collaboration()
    p.expect("eof")
    if pp.offence is not None:
        p.fail(*pp.offence)
    if len(pp.tagged) == 2:
        p.fail("mixed multiparty and binary endpoints", first)
    return SourceProgram(decls, term, True in pp.tagged)


# ---------------------------------------------------------------------------
# type parser
# ---------------------------------------------------------------------------

def _type_roles(p: _P) -> tuple:
    """The role pair `[p,q]` that may open a prefix, each side `_` or an
    integer, or (None, None); the prefix's own `[…]` starts with neither."""
    i = p.pos
    if p.kinds[i] != "[" or not (p.kinds[i + 1] == "int" or (
            p.kinds[i + 1], p.texts[i + 1]) == ("ident", "_")):
        return (None, None)

    def side():
        if p.texts[p.pos] == "_" and p.kinds[p.pos] == "ident":
            p.pos += 1
            return None
        p.expect("int")
        return _int(p, p.pos - 1)

    p.pos = i + 1
    a = side()
    p.expect(",")
    b = side()
    p.expect("]")
    return a, b


# what a type starts with, by keyword or symbol: ![sort]. T, ?[sort]. T,
# sel[label]. T and brn[label: T; ...], each with the kinds of the tokens
# after it (a `brn`'s up to its first label and `:`) and their number; a
# role pair `[p,q]` may come before them
_TYPE_HEADS = {"!": (TOut, ["[", "kw", "]", "."], 4),
               "?": (TIn, ["[", "kw", "]", "."], 4),
               "sel": (TSel, ["[", "ident", "]", "."], 4),
               "brn": (TBrn, ["[", "ident", ":"], 3)}
_TYPE_ATOMS = {"end": st.TEnd, "err": st.TErr, "roll": st.TRollT,
               "abt": st.TAbtT}


def _read_type(p: _P) -> tuple:
    """A type, read as `_ProgParser.process` reads a process; the first
    unguarded variable's (message, token index), or None; and each free
    variable's first token index.  A type is a prefix and its `(+)`
    operands, each a prefix, grouped to the left; a parenthesised type
    takes the operands that follow it, even as an operand itself.  Scope
    is decided on the way down (`bound`), guardedness on the way up:
    `chain` is the variable that ends the chain of `mu`s just read (`mu t.
    mu u. t` ends in `t`), which every prefix and `(+)` clears, so a `mu`
    whose own variable ends its body's chain is unguarded."""
    kinds, texts = p.kinds, p.texts
    bound: set = set()
    chain = unguarded = None
    free: dict = {}
    stack: list = []
    push, pop = stack.append, stack.pop
    i = p.pos
    while True:
        kind, text = kinds[i], texts[i]
        key = text if kind == "kw" else kind
        head = _TYPE_HEADS.get(key)
        if head is not None:  # a prefix, or `brn`
            made, shape, n = head
            x = texts[i + 2]
            # `[_` opens a role pair, which `_type_roles` reads
            if kinds[i + 1:i + 1 + n] == shape and (
                    x in SORTS if shape[1] == "kw" else x != "_"):
                src = dst = None
                i += 1 + n
            else:
                p.pos = i + 1
                src, dst = _type_roles(p)
                p.expect("[")
                if made is TBrn:
                    p.pos = _next_arm(p, p.pos, {})
                else:
                    p.expect_all(p.pos, "ident" if made is TSel else "sort",
                                 "]", ".")
                    x = texts[p.pos - 3]
                i = p.pos
            push((made, src, dst, {}, texts[i - 2]) if made is TBrn
                 else (made, x, src, dst))
        elif key == "mu":
            if kinds[i + 1:i + 3] != ["ident", "."]:
                p.expect_all(i + 1, "ident", ".")
            v = texts[i + 1]
            push((TMu, v, v not in bound))
            bound.add(v)
            i += 3
        elif key == "cmt":
            if kinds[i + 1] != ".":
                p.expect_all(i + 1, ".")
            push((key,))
            i += 2
        elif key == "(":
            push((key,))
            i += 1
        else:
            if key == "ident":
                if text not in bound:
                    free.setdefault(text, i)
                chain, node = i, TVarT(text)
            elif key in _TYPE_ATOMS:
                chain, node = None, _TYPE_ATOMS[key]()
            else:
                p.fail(f"unexpected keyword {text!r} in type" if kind == "kw"
                       else "expected a session type", i)
            i += 1
            tag = None
            while True:
                # a node takes `(+)` operands unless it is one, the `(+)`
                # frame below it; a parenthesised one takes them anyway
                if kinds[i] == "(" and kinds[i + 1:i + 3] == ["+", ")"] and (
                        tag == "(" or not stack or stack[-1][0] is not TPlus):
                    push((TPlus, node))
                    i += 3
                    break
                if not stack:
                    p.pos = i
                    return node, unguarded, free
                frame = pop()
                tag = frame[0]
                if tag is TOut or tag is TIn or tag is TSel:
                    node = tag(frame[1], node, frame[2], frame[3])
                elif tag is TMu:
                    _, v, fresh = frame
                    if fresh:
                        bound.discard(v)
                    node = TMu(v, node)
                    if chain is not None and texts[chain] == v \
                            and unguarded is None:
                        unguarded = (f"unguarded recursive type on {v!r}",
                                     chain)
                    continue  # the chain goes on through the `mu`
                elif tag is TPlus:
                    node = TPlus(frame[1], node)
                elif tag is TBrn:  # one frame for the arm group
                    _, src, dst, arms, lab = frame
                    arms[lab] = node
                    if kinds[i] == ";":
                        i = _next_arm(p, i + 1, arms)
                        push((tag, src, dst, arms, texts[i - 2]))
                        break
                    if kinds[i] != "]":
                        p.expect_all(i, "]")
                    i += 1
                    node = TBrn(tuple(arms.items()), src, dst)
                elif tag == "cmt":
                    node = TCmt(node)
                else:
                    if kinds[i] != ")":
                        p.expect_all(i, ")")
                    i += 1
                    continue
                chain = None


def parse_type(src: str) -> st.SessionTypeT:
    p = _P(src)
    t, unguarded, free = _read_type(p)
    p.expect("eof")
    if unguarded is not None:
        p.fail(*unguarded)
    if free:
        name = min(free)
        p.fail(f"unbound type variable {name!r}", free[name])
    return t


# ---------------------------------------------------------------------------
# rendering (source emission) and showing (runtime pretty-printing)
# ---------------------------------------------------------------------------

def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n") + '"'


def render_expr(e, parent: int = 0) -> str:
    """Source text of an expression; an operator that binds looser than
    `parent`, its context's strength, is parenthesised."""
    kind = type(e)
    if kind is Lit:
        v = e.value
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, int):
            return str(v)
        return _quote(v)
    if kind is Var:
        return e.name
    if kind is Call:
        row, args = operator_of(e, MalformedTerm), e.args
        prec = row.prec
        if row.grouping == "prefix":
            inner = f"{row.symbol}{render_expr(args[0], prec)}"
        else:  # an as strong left operand is bare if the operator groups
            left = prec if row.grouping == "left" else prec + 1
            inner = (f"{render_expr(args[0], left)} {row.symbol} "
                     f"{render_expr(args[1], prec + 1)}")
        return f"({inner})" if prec < parent else inner
    if kind is Ufun:
        return f"{e.name}(" + ", ".join(map(render_expr, e.args)) + ")"
    raise MalformedTerm(f"not an expression: {e!r}")


def show_chan(r, tagged: bool) -> str:
    """A session identifier's text: an endpoint shows as `s[r]` if its
    session names roles (`tagged`), else as `~s` (requester) or `s`."""
    kind = type(r)
    if kind is Endpoint:
        if tagged:
            return f"{r.session}[{r.role}]"
        return f"~{r.session}" if r.role == 2 else r.session
    if kind is ChanVar:
        return r.name
    raise MalformedTerm(f"not a session identifier: {r!r}")


def render_process(pr: Process) -> str:
    """Source text of a process.

    A render records where each node's text sits in the text it builds.
    Every node it walks keeps (place, first, last): `place` holds the
    render's text and the offsets of its pieces, shared by all the nodes
    of that render, so memory stays linear in the term.  A node that
    already has a place is emitted as a slice of it, not walked again.
    A run's continuations, branch arms and conditional branches, and the
    subtrees that substitution and `rec` unfolding share with an earlier
    term, were placed when that term was rendered, so each costs one
    slice."""
    seg = getattr(pr, "__dict__", {}).get("_seg")
    if seg is not None:
        return _slice(seg)
    out: list = []
    place: list = [None, None]
    try:
        _emit(pr, out, place)
    finally:
        # the nodes walked before a failure keep correct places too
        place[0] = text = "".join(out)
        place[1] = [0, *accumulate(map(len, out))]
    return text


def _slice(seg: tuple) -> str:
    (text, ends), first, last = seg
    return text[ends[first]:ends[last]]


def _emit(pr: Process, out: list, place: list) -> None:
    """Append `pr`'s text to `out` in pieces, and give each node walked
    its place: the pieces its text spans.  Dispatch is on the exact class
    and fields are read by name, which keeps a fresh term's render as
    cheap as a plain recursive one."""
    kept = getattr(pr, "__dict__", None)
    if kept is None:
        raise MalformedTerm(f"not a process: {pr!r}")
    seg = kept.get("_seg")
    if seg is not None:
        if seg[0] is place:
            # placed earlier in this render, whose text is not joined yet
            # (`rec` unfolding puts one node at several places)
            out.extend(out[seg[1]:seg[2]])
        else:
            out.append(_slice(seg))
        return
    start = len(out)
    kind = type(pr)
    if kind is Send:
        tag = _role_tag(pr.to_role)
        out.append(f"{show_chan(pr.chan, bool(tag))}!<"
                   f"{render_expr(pr.expr)}>{tag}. ")
        _emit(pr.cont, out, place)
    elif kind is Recv:
        tag = _role_tag(pr.from_role)
        out.append(f"{show_chan(pr.chan, bool(tag))}?({pr.var}: {pr.sort})"
                   f"{tag}. ")
        _emit(pr.cont, out, place)
    elif kind is Select:
        tag = _role_tag(pr.to_role)
        out.append(f"{show_chan(pr.chan, bool(tag))}<+ {pr.label}{tag}. ")
        _emit(pr.cont, out, place)
    elif kind is Branch:
        tag = _role_tag(pr.from_role)
        out.append(f"{show_chan(pr.chan, bool(tag))}>+{{ ")
        sep = ""
        for l, a in pr.arms:
            out.append(f"{sep}{l}: ")
            _emit(a, out, place)
            sep = ", "
        out.append(f" }}{tag}")
    elif kind is If:
        out.append(f"if {render_expr(pr.cond)} then ")
        _emit(pr.then, out, place)
        out.append(" else ")
        _emit(pr.orelse, out, place)
    elif kind is Rec:
        out.append(f"rec {pr.var}. ")
        _emit(pr.body, out, place)
    elif kind is Commit:
        out.append("commit. ")
        _emit(pr.cont, out, place)
    elif kind is PVar:
        out.append(pr.name)
    else:
        leaf = _LEAF_TEXT.get(kind)
        if leaf is None:
            raise MalformedTerm(f"not a process: {pr!r}")
        out.append(leaf)
    kept["_seg"] = (place, start, len(out))


_LEAF_TEXT = {Inact: "0", Roll: "roll", Abort: "abort"}


def _kept(node, render, *args) -> str:
    """`render(node, *args)`, kept on the node.  The logs, the sessions and
    the endpoints a session saved recur from state to state (a step replaces
    one or two logs and their session), so across a run each is rendered
    once.  A whole state's text is not kept: a looping run meets a state
    again as the same object (`runtime.simulate`), whose items' texts
    are kept already, and a run that never loops would hold the text of
    every state it passed."""
    text = node.__dict__.get("_shown")
    if text is None:
        text = render(node, *args)
        object.__setattr__(node, "_shown", text)
    return text


def _show_session(c: Session) -> str:
    """A session's text: its logs are tagged as its endpoints are."""
    tagged = c.names_roles
    logs = " | ".join(_kept(lg, _show_log, tagged) if type(lg) is Log
                      else show_collaboration(lg) for lg in par_parts(c.body))
    return f"<{c.name}: {_kept(c.saved, show_collaboration)}>({logs})"


def _show_log(c: Log, tagged: bool) -> str:
    ckpt = render_process(c.ckpt.process)
    tag = "^imp" if c.ckpt.imposed else ""
    return (f"{show_chan(c.endpoint, tagged)}:<{ckpt}>{tag} "
            f"{render_process(c.current)}")


def show_collaboration(c: Collaboration) -> str:
    """Pretty form covering runtime constructs; not re-parsable once sessions
    or logs appear."""
    kind = type(c)
    if kind is Par:
        return " | ".join(
            f"({show_collaboration(p)})" if type(p) is Par
            else show_collaboration(p) for p in c.parts)
    if kind is Session:
        return _kept(c, _show_session)
    if kind is Request or kind is Accept:
        rr = _role_tag(c.role, "[{}]")
        return (f"{'request' if kind is Request else 'accept'} {c.chan}{rr}"
                f"({c.var}). {render_process(c.body)}")
    if kind is ErrorState:
        return c.kind
    raise MalformedTerm(f"not a collaboration: {c!r}")


def render_fun_decl(d: FunDecl) -> str:
    head = f"fun {d.name}({', '.join(d.arg_sorts)}): {d.result_sort}"
    if d.domain is not None:
        vals = ", ".join(render_expr(Lit(v)) for v in d.domain)
        head += f" in {{ {vals} }}"
    return head


def render_program(prog: SourceProgram) -> str:
    """Emit source for a program, its `decls` first; parsing the output
    gives the program back."""
    lines = [render_fun_decl(d) for d in prog.decls.values()]
    if lines:
        lines.append("")
    lines.append("\n| ".join(show_collaboration(p)
                              for p in par_parts(prog.term)))
    return "\n".join(lines) + "\n"

