import importlib.util
import random
import re
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from genprog import random_program, random_type
from conftest import ALL_PROGRAMS, parse_expression_text, parse_process_text
from oracle_naive import naive_endpoint_check, naive_tokenize
import parser_reference
from cherrypi import corpus_dir, parser, sessiontypes, syntax
from cherrypi.multiparty import to_multiparty
from cherrypi.parser import (FunDecl, ParseError, SourceProgram, _P,
                             _ProgParser, _TOKEN, _diag, _read_type,
                             _parse_fun_decl, _spans, parse_program,
                             parse_type, render_expr, render_program,
                             tokenize)
from cherrypi.sessiontypes import (TBrn, TCmt, TIn, TMu, TOut, TPlus, TVarT,
                                   _map_type, canonical_type, render_type,
                                   subtypes)
from cherrypi.syntax import (OPERATORS, Branch, Call, ChanVar, If, Lit, PVar,
                             Rec, Recv, Select, Send, Ufun, Var, _map_proc,
                             canonicalize, par, par_parts, subprocesses)


# -- programs ---------------------------------------------------------------

def test_corpus_programs_round_trip(corpus):
    for name in ALL_PROGRAMS:
        src = (corpus / f"{name}.chpi").read_text()
        prog = parse_program(src)
        again = parse_program(render_program(prog))
        assert canonicalize(again.term).text == canonicalize(prog.term).text
        assert again.decls == prog.decls
        assert again.multiparty == prog.multiparty


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_generated_programs_round_trip(seed):
    prog = random_program(random.Random(seed), safe=(seed % 3 != 0))
    again = parse_program(render_program(prog))
    assert canonicalize(again.term).text == canonicalize(prog.term).text
    assert again.decls == prog.decls


def test_comments_and_whitespace_are_ignored():
    prog = parse_program("""
        // a comment line
        request a(x). x!<1>. 0   // trailing note
        | accept a(y). y?(v: int). 0
    """)
    assert not prog.multiparty
    assert prog.decls == {}


def test_operators_parse_to_builtins():
    e = parse_expression_text('1 + 2 == 3 && !("a" < "b")')
    assert isinstance(e, Call) and e.op == "and"


_F = FunDecl("f", ("int",), "bool", None)
_ATOMS = (st.integers(0, 99) | st.booleans() | st.text('a"\\\n ', max_size=3)
          ).map(Lit) | st.sampled_from(["x", "y1", "_z"]).map(Var)


def _operator_calls(operands):
    """A call of any builtin operator, or of `f`, on drawn operands."""
    def call(op):
        return st.tuples(*[operands] * len(OPERATORS[op].operands)).map(
            lambda args: Call(op, args))
    return (st.sampled_from(sorted(OPERATORS)).flatmap(call)
            | operands.map(lambda a: Ufun("f", (a,), ("int",), "bool")))


def _bin(op, a, b):
    return Call(op, (a, b))


@settings(max_examples=300, deadline=None)
@given(st.recursive(_ATOMS, _operator_calls, max_leaves=12))
@example(_bin("eq", _bin("eq", Lit(1), Lit(1)), Lit(True)))
@example(_bin("eq", Lit(True), _bin("lt", Lit(1), Lit(2))))
@example(_bin("lt", _bin("add", Lit(1), Lit(2)), Lit(3)))
@example(_bin("add", Lit(1), _bin("add", Lit(2), Lit(3))))
@example(Call("not", (_bin("or", Lit(True), Call("not", (Var("x"),))),)))
def test_rendered_expressions_parse_back_to_themselves(e):
    # every operator, nested under every other: the parentheses the
    # renderer writes are the ones the parser needs
    assert parse_expression_text(render_expr(e), {"f": _F}) == e


def test_the_readme_operator_table_is_the_operator_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    head = "| operator | strength | grouping | operands | result |\n"
    rows = readme.split(head, 1)[1].split("\n\n", 1)[0].splitlines()[1:]
    shown = []
    for row in rows:
        form, prec, grouping, operands, result = \
            row.replace("`", "").replace("\\|", "|").strip("| ").split(" | ")
        sorts = (None, None) if operands == "any one sort" \
            else tuple(operands.split(", "))
        shown.append((form.replace("a", "").replace("b", "").strip(),
                      int(prec), grouping, sorts, result))
    assert shown == sorted((row[:5] for row in OPERATORS.values()),
                           key=lambda row: row[1])


def test_string_escapes():
    e = parse_expression_text(r'"a\"b\\c"')
    assert e == Lit('a"b\\c')


def test_parse_error_reports_line_and_column():
    with pytest.raises(ParseError) as ei:
        parse_program("request a(x). x!<1>\n| accept a(y). 0")
    msg = str(ei.value)
    assert msg.startswith("1:") or msg.startswith("2:")


def test_undeclared_function_is_rejected():
    with pytest.raises(ParseError, match="undeclared function"):
        parse_process_text("if f() then 0 else 0")


def test_unguarded_recursion_is_rejected():
    with pytest.raises(ParseError, match="unguarded recursion"):
        parse_program("request a(x). rec X. X | accept a(y). 0")


def test_conditional_does_not_guard_recursion():
    with pytest.raises(ParseError, match="unguarded recursion"):
        parse_program("fun f(): bool\n"
                      "request a(x). rec X. if f() then X else 0"
                      " | accept a(y). 0")


def test_commit_guards_recursion():
    prog = parse_program("request a(x). rec X. commit. X | accept a(y). 0")
    assert prog.decls == {}


def test_rebinding_value_variable_is_rejected():
    with pytest.raises(ParseError):
        parse_program(
            "request a(x). x?(v: int). x?(v: str). 0"
            " | accept a(y). y!<1>. y!<\"s\">. 0")


def test_body_must_only_use_its_session_variable():
    with pytest.raises(ParseError):
        parse_program("request a(x). z!<1>. 0 | accept a(y). 0")


def test_mixed_multiparty_and_binary_roles_rejected():
    with pytest.raises(ParseError, match="mixed"):
        parse_program("request a[3](x). 0 | accept a(y). 0")


# -- types ------------------------------------------------------------------

def test_corpus_types_round_trip(types):
    for name, t in types.items():
        assert canonical_type(parse_type(render_type(t))) \
            == canonical_type(t), name


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_generated_types_round_trip(seed):
    t = random_type(random.Random(seed))
    assert canonical_type(parse_type(render_type(t))) == canonical_type(t)


def test_plus_under_prefix_needs_no_parens():
    t = parse_type("![int]. end (+) roll")
    assert isinstance(t, TOut)  # the (+) binds inside the continuation


def test_parenthesised_left_operand_closes_the_prefix():
    t = parse_type("(![int]. end) (+) roll")
    assert not isinstance(t, TOut)


def test_role_pairs_parse_and_render():
    t = parse_type("![_,2][int]. ?[3,_][str]. end")
    assert isinstance(t, TOut) and (t.src, t.dst) == (None, 2)
    assert isinstance(t.cont, TIn) and (t.cont.src, t.cont.dst) == (3, None)
    assert canonical_type(parse_type(render_type(t))) == canonical_type(t)


def test_unguarded_recursive_type_is_rejected():
    with pytest.raises(ParseError, match="unguarded recursive type"):
        parse_type("mu t. mu u. t")


def test_unbound_type_variable_is_rejected():
    with pytest.raises(ParseError, match="unbound type variable"):
        parse_type("![int]. t")


def test_branch_type_arms_use_semicolons():
    t = parse_type("brn[l: end; r: cmt. end]")
    assert isinstance(t, TBrn) and [l for l, _ in t.arms] == ["l", "r"]


def test_mu_scopes_over_full_body():
    t = parse_type("mu t. ![int]. t")
    assert isinstance(t, TMu) and isinstance(t.body, TOut)


# -- declarations -----------------------------------------------------------

def test_fun_decl_with_domain():
    prog = parse_program(
        'fun f(): str in {"a", "b"}\n'
        "request a(x). x!<f()>. 0 | accept a(y). y?(v: str). 0")
    assert prog.decls["f"].domain == ("a", "b")
    body = prog.term.parts[0].body
    assert isinstance(body, Send) and isinstance(body.expr, Ufun)
    assert body.expr.domain == ("a", "b")


def _ufuns(term) -> list:
    """Every uninterpreted call in a collaboration's processes."""
    procs, exprs, found = [part.body for part in par_parts(term)], [], []
    while procs:
        p = procs.pop()
        if isinstance(p, Send):
            exprs.append(p.expr)
        elif isinstance(p, If):
            exprs.append(p.cond)
        procs.extend(subprocesses(p))
    while exprs:
        e = exprs.pop()
        if isinstance(e, Ufun):
            found.append(e)
        if isinstance(e, (Call, Ufun)):
            exprs.extend(e.args)
    return found


def test_decls_declare_every_call_and_render_back(corpus):
    # `render_program` writes `decls` only: every call must find its
    # declaration there, with its own sorts and domain
    progs = [parse_program(path.read_text())
             for path in sorted(corpus.glob("*.chpi"))]
    rng = random.Random("decls")
    progs += [random_program(rng, safe=i < 20) for i in range(40)]
    progs += [to_multiparty(p) for p in progs if not p.multiparty]
    assert len(progs) == 91
    calls = 0
    for prog in progs:
        for u in _ufuns(prog.term):
            d = prog.decls[u.name]
            assert (d.arg_sorts, d.result_sort, d.domain) == \
                (u.arg_sorts, u.result_sort, u.domain)
            calls += 1
        assert parse_program(render_program(prog)) == prog
    assert calls > 40


def test_fun_arity_checked_at_call_site():
    with pytest.raises(ParseError):
        parse_program("fun f(int): bool\n"
                      "request a(x). if f() then 0 else 0 | accept a(y). 0")


# -- exact diagnostics of the static checks ---------------------------------
# Each check reports the first offence in source order (an earlier check's
# offence wins over a later check's), at the first token of the endpoint
# that holds it.

@pytest.mark.parametrize("src, want", [
    ("request a(x). rec X. X | accept a(y). 0",
     ("unguarded recursion on 'X'", 1, 1)),
    ("fun f(): bool\nrequest a(x). rec X. if f() then X else 0\n"
     "| accept a(y). 0",
     ("unguarded recursion on 'X'", 2, 1)),
    ("request a(x). x!<1>. 0 | accept a(y). rec Y. y>+{l: Y, r: rec Z. Z}",
     ("unguarded recursion on 'Z'", 1, 26)),
    ("request a(x). x>+{l: rec X. rec Y. X, r: x?(v: int). x?(v: int). 0}"
     " | accept a(y). 0",
     ("unguarded recursion on 'X'", 1, 1)),
    ("request a(x). rec X. x!<1>. rec X. X | accept a(y). 0",
     ("unguarded recursion on 'X'", 1, 1)),
    ("request a(x). x?(v: int). x?(v: str). 0"
     " | accept a(y). y!<1>. y!<\"s\">. 0",
     ("variable 'v' rebound inside its own scope", 1, 1)),
    ("request a(x). rec X. x!<1>. rec X. x!<2>. X | accept a(y). 0",
     ("recursion variable 'X' rebound inside its own scope", 1, 1)),
    ("request a(x). x?(x: int). 0 | accept a(y). 0",
     ("variable 'x' rebound inside its own scope", 1, 1)),
    ("  request a(x). x>+{l: x?(v: int). x?(v: int). 0,"
     " r: rec X. x!<1>. rec X. x!<1>. X} | accept a(y). 0",
     ("variable 'v' rebound inside its own scope", 1, 3)),
    ("request a(x). x!<1>. 0\n| (accept a(y). y?(v: int). y?(v: int). 0)",
     ("variable 'v' rebound inside its own scope", 2, 4)),
    # each branch of a conditional starts from the recursion variables no
    # prefix guards yet, each arm of a branch from none
    ("request a(x). rec X. if true then rec Y. x!<1>. Y else X"
     " | accept a(y). 0", ("unguarded recursion on 'X'", 1, 1)),
    ("request a(x). x>+{l: rec X. 0, r: X} | accept a(y). 0",
     ("unbound recursion variable 'X'", 1, 1)),
])
def test_program_check_diagnostics_are_exact(src, want):
    with pytest.raises(ParseError) as ei:
        parse_program(src)
    d = ei.value.diagnostic
    assert (d.message, d.line, d.col) == want


# A type's offences are reported at the offending variable.

@pytest.mark.parametrize("src, want", [
    ("mu t. mu u. t", ("unguarded recursive type on 't'", 1, 13)),
    ("brn[l: end; r: mu t. mu u. u]",
     ("unguarded recursive type on 'u'", 1, 28)),
    ("![int]. t", ("unbound type variable 't'", 1, 9)),
    ("mu t. brn[l: t; r: u]", ("unbound type variable 'u'", 1, 20)),
    ("mu t. ![int].\n  brn[l: v; r: mu u. u]",
     ("unguarded recursive type on 'u'", 2, 22)),
])
def test_type_check_diagnostics_are_exact(src, want):
    with pytest.raises(ParseError) as ei:
        parse_type(src)
    d = ei.value.diagnostic
    assert (d.message, d.line, d.col) == want


# A parser keeps a token's index and finds its offsets only to report it:
# a call's offence spans from its name to its closing parenthesis, the
# others sit at one token.

@pytest.mark.parametrize("parse, src, want", [
    (parse_program, "fun f(int): bool\nrequest a(x). if f( 1 , 2 ) then 0 "
     "else 0 | accept a(y). 0",
     ("'f' takes 1 argument(s), got 2", 34, 44, 2, 18)),
    (parse_program, "request a(x). if g(1) then 0 else 0 | accept a(y). 0",
     ("call of undeclared function 'g'", 17, 21, 1, 18)),
    (parse_program, "fun f(): int\n  fun f(): bool\nrequest a(x). 0 "
     "| accept a(y). 0", ("function 'f' declared twice", 15, 18, 2, 3)),
    (parse_program, "request a(x). x>+{l: 0, m: 0,\n l: 0} | accept a(y). 0",
     ("duplicate branch label 'l'", 31, 32, 2, 2)),
    (parse_type, "brn[l: end;  l: end]",
     ("duplicate branch label 'l'", 13, 14, 1, 14)),
    (parse_program, " request a[1](x). 0 | accept a(y). 0",
     ("mixed multiparty and binary endpoints", 1, 8, 1, 2)),
    (parse_program, "fun f(): int in {1, true}\nrequest a(x). 0 "
     "| accept a(y). 0", ("domain value True is not of sort int", 4, 5, 1, 5)),
    (parse_type, "  \n", ("expected a session type", 3, 3, 2, 1)),
])
def test_token_diagnostics_are_exact(parse, src, want):
    with pytest.raises(ParseError) as ei:
        parse(src)
    d = ei.value.diagnostic
    assert (d.message, d.start, d.end, d.line, d.col) == want


# -- exact lexical diagnostics ----------------------------------------------
# An integer is a run of decimal digits; any other digit or numeric character
# is an unexpected character where it stands.

@pytest.mark.parametrize("parse, src, want", [
    (parse_program, "request a(x). /* never closed\n x!<1>. 0",
     ("unterminated block comment", 14, 39, 1, 15)),
    (parse_type, "![int]. end /* x",
     ("unterminated block comment", 12, 16, 1, 13)),
    (parse_program, 'request a(x). x!<"abc> . 0 | accept a(y). 0',
     ("unterminated string literal", 17, 43, 1, 18)),
    (parse_program, r'request a(x). x!<"a\qb">. 0 | accept a(y). 0',
     (r"unknown escape \q in string", 19, 21, 1, 20)),
    # a backslash that ends the input escapes nothing: the string is open
    (parse_program, 'request a(x). x!<"ab\\',
     ("unterminated string literal", 17, 21, 1, 18)),
    (parse_program, "request a(x). x!<1>. 0\r\n| accept a(y). y?(v: int) # 0",
     ("unexpected character '#'", 50, 51, 2, 27)),
    (parse_type, "![int]. end\r\n$", ("unexpected character '$'", 13, 14, 2, 1)),
    (parse_type, "mu ½. end", ("unexpected character '½'", 3, 4, 1, 4)),
    (parse_program, "request a(x). x!<1> 0 | accept a(y). 0",
     ("expected '.', found '0'", 20, 21, 1, 21)),
    (parse_program, "request a(x). x!<1>. 0 | accept a(y)",
     ("expected '.', found 'eof'", 36, 36, 1, 37)),
    (parse_type, "![int] end", ("expected '.', found 'end'", 7, 10, 1, 8)),
    (parse_program, "request a[²](x). 0 | accept a[1](y). 0",
     ("unexpected character '²'", 10, 11, 1, 11)),
    (parse_program, "request a(x). x!<1>. 0 | accept a(y). y!<²>. 0",
     ("unexpected character '²'", 41, 42, 1, 42)),
    (parse_program,
     "request a[1](x). x!<1>@². 0 | accept a[2](y). y?(v: int)@1. 0",
     ("unexpected character '²'", 23, 24, 1, 24)),
    (parse_program, "request a(x). x!<1¹>. 0 | accept a(y). 0",
     ("unexpected character '¹'", 18, 19, 1, 19)),
    (parse_type, "?[¹str]. end", ("unexpected character '¹'", 2, 3, 1, 3)),
    (parse_type, "sel[¹³l]. end", ("unexpected character '¹'", 4, 5, 1, 5)),
    (parse_type, "![int]. ²", ("unexpected character '²'", 8, 9, 1, 9)),
    (parse_expression_text, '"ab\\',
     ("unterminated string literal", 0, 4, 1, 1)),
])
def test_lexical_diagnostics_are_exact(parse, src, want):
    with pytest.raises(ParseError) as ei:
        parse(src)
    d = ei.value.diagnostic
    assert (d.message, d.start, d.end, d.line, d.col) == want


def test_identifiers_start_with_a_letter_and_continue_alphanumeric():
    t = parse_type("mu é². ![int]. é²")
    assert isinstance(t, TMu) and t.var == "é²"
    assert parse_expression_text("٣٤") == Lit(34)


# -- the parsers raise nothing but ParseError --------------------------------

_CORPUS_TEXTS = [p.read_text() for p in sorted(corpus_dir().glob("*.ch*"))]


def _texts():
    texts = list(_CORPUS_TEXTS)
    for seed in range(6):
        prog = random_program(random.Random(seed), safe=seed % 2 == 0)
        texts += [render_program(prog), render_program(to_multiparty(prog)),
                  render_type(random_type(random.Random(seed)))]
    return texts


_TEXTS = _texts()
# integer literals are where the tokenizer's digit rule meets `int()`
_INT_SPOTS = {src: [m.start() for m in re.finditer(r"(?<!\w)\d", src)] or [0]
              for src in _TEXTS}
# characters at the edges of the lexical rules: non-decimal digits and
# numerics, a non-ASCII decimal digit and letter, string and comment marks
_EDGE_CHARS = "²¹½٣é_\"\\/*#\r"


@st.composite
def _mutants(draw):
    """A corpus or generated text with one to three characters inserted or
    replaced, each at a random place or at the start of an integer."""
    src = draw(st.sampled_from(_TEXTS))
    spots = _INT_SPOTS[src]
    for _ in range(draw(st.integers(1, 3))):
        i = min(draw(st.integers(0, len(src)) | st.sampled_from(spots)),
                len(src))
        c = draw(st.sampled_from(_EDGE_CHARS) | st.characters())
        src = src[:i] + c + src[i + draw(st.integers(0, 1)):]
    return src


def _parses_or_rejects(src):
    for parse in (parse_program, parse_type):
        try:
            parse(src)
        except ParseError:
            pass


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_parsers_raise_only_parse_errors_on_any_text(src):
    _parses_or_rejects(src)


@settings(max_examples=400, deadline=None)
@given(_mutants())
def test_parsers_raise_only_parse_errors_on_mutated_texts(src):
    _parses_or_rejects(src)


# -- the lexer against the reference lexer -----------------------------------
# `tokenize` runs its per-token work in C and keeps no offsets: `_spans`
# finds them again when a diagnostic needs them.  `oracle_naive.
# naive_tokenize` is the lexer that takes one match and one Python step per
# token and keeps each token's offsets.  Both must give the same kinds,
# texts and spans, or the same diagnostic, on every text, and the parsers
# must report the same diagnostics on either.

def _lexed(src):
    """(kind, text, start, end) of each token of `src`, or its lexical
    diagnostic."""
    try:
        kinds, texts = tokenize(src)
    except ParseError as e:
        return e.diagnostic
    return [(kind, text, *span) for kind, text, span
            in zip(kinds, texts, _spans(src), strict=True)]


def _naive_lexed(src):
    try:
        return [tuple(t) for t in naive_tokenize(src)]
    except ParseError as e:
        return e.diagnostic


def _naive_lists(src):
    toks = naive_tokenize(src)
    return [t.kind for t in toks], [t.text for t in toks]


def _naive_spans(src):
    return [(t.start, t.end) for t in naive_tokenize(src)]


def _parsed(src):
    """Each parser's diagnostic on `src`, or None where it parses."""
    out = []
    for parse in (parse_program, parse_type):
        try:
            parse(src)
            out.append(None)
        except ParseError as e:
            out.append(e.diagnostic)
    return out


def _agrees_with_reference_lexer(src):
    assert _lexed(src) == _naive_lexed(src)
    with mock.patch.multiple(parser, tokenize=_naive_lists,
                             _spans=_naive_spans):
        want = _parsed(src)
    assert _parsed(src) == want


@pytest.mark.parametrize("src", [
    "", "  ", "end", "end  \n\t", "mu t. ![int]. t // note", "/* a */ end",
    "end /* a */ /* b */\n", 'request a(x). x!<"a\\"b\\n\\\\">. 0',
    "١٢", "x١٢ ١٢x", "ǅx", "é²", "_", "12abc", "a\rb", "x<+l >+{ ++ || &&",
    "²", '"ab', '"a\\qb"', '"ab\\', "/* x", "\x00", "a #", "x = y", "&",
    "request ) a(x). ²", "![int]. end\r\n$", "a\u00a0b", "五 ½",
    "end // c", 'x!<"a\\"b\\n"> )', "/* a\n b */\n end )", "é² )",
    " \n ²", "/* c */ #", '// "a', '/* "a */', '/* "a */ end "b',
])
def test_tokens_and_diagnostics_match_the_reference_lexer(src):
    _agrees_with_reference_lexer(src)


@pytest.mark.parametrize("src, want", [
    # the end of the text, after trailing blanks and after a comment
    ("end  \n\t", [(0, 3)]),
    ("end // c", [(0, 3)]),
    # after a string whose escapes make its text shorter than its source
    ('x!<"a\\"b\\n"> )', [(0, 1), (1, 2), (2, 3), (3, 11), (11, 12),
                           (13, 14)]),
    # after a block comment over two lines
    ("/* a\n b */\n end )", [(12, 15), (16, 17)]),
    # a non-ASCII identifier
    ("é² )", [(0, 2), (3, 4)]),
])
def test_token_spans_are_found_on_demand(src, want):
    """Each token's offsets, then the three eof entries' at the end."""
    eof = [(len(src), len(src))] * 3
    assert _spans(src) == want + eof
    assert _naive_spans(src) == want + eof
    for i, (start, end) in enumerate(want + eof):
        d = _diag(src, i, i, "m").diagnostic
        assert (d.start, d.end) == (start, end)


def test_findall_gives_the_end_of_the_text_twice_after_trailing_blanks():
    # the match at the end has an empty token; after a match that ends in
    # blanks `findall` finds it again, so the lexer and `_spans` drop both
    assert _TOKEN.findall("end") == ["end", ""]
    assert _TOKEN.findall("end \n") == ["end", "", ""]
    assert tokenize("end \n") == (["kw"] + ["eof"] * 3, ["end"] + [""] * 3)
    assert _spans("end \n") == [(0, 3)] + [(5, 5)] * 3


def test_non_ascii_decimal_digits_are_an_integer():
    # `\d` matches every decimal digit, not just ASCII ones, and `int()`
    # reads them; a digit that is not decimal starts no token
    assert re.fullmatch(r"\d+", "١٢")
    assert tokenize("١٢") == (["int"] + ["eof"] * 3, ["١٢"] + [""] * 3)
    assert _spans("١٢")[0] == (0, 2)
    assert parse_expression_text("١٢") == Lit(12)
    with pytest.raises(ParseError, match="unexpected character '²'"):
        tokenize("1²")


def test_lexical_error_wins_over_an_earlier_syntax_error():
    with pytest.raises(ParseError) as ei:
        parse_program("request ) a(x). x!<1>. 0 | accept a(y). 0 #")
    assert ei.value.diagnostic.message == "unexpected character '#'"


# what the mutations put in: the lexical rules' edge characters
_LEX_PIECES = ("²", "١٢", "ǅ", '"', '"ab', '"a\\qb"', "\\q", "\\", "/*",
               "/* c", "*/", "//", "\r", "\r\n", "\x00", " ", "\n")


@st.composite
def _lex_mutants(draw):
    """A corpus text, a generated program or a rendered generated type, with
    up to three pieces put in and blanks maybe appended."""
    seed = draw(st.integers(0, 10 ** 6))
    kind = draw(st.sampled_from(("corpus", "program", "n-role", "type")))
    if kind == "corpus":
        src = draw(st.sampled_from(_CORPUS_TEXTS))
    elif kind == "type":
        src = render_type(random_type(random.Random(seed)))
    else:
        prog = random_program(random.Random(seed), safe=seed % 2 == 0)
        src = render_program(to_multiparty(prog) if kind == "n-role"
                             else prog)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(src)))
        piece = draw(st.sampled_from(_LEX_PIECES) | st.characters())
        src = src[:i] + piece + src[i + draw(st.integers(0, 1)):]
    return src + draw(st.sampled_from(("", " ", "\n", " \t\r\n ")))


@settings(max_examples=300, deadline=None)
@given(_lex_mutants())
def test_lexer_matches_the_reference_lexer_on_mutated_texts(src):
    _agrees_with_reference_lexer(src)


# -- the endpoint check against the three walks it replaces ------------------
# `parse_program` checks each endpoint body while it parses it;
# `oracle_naive.naive_endpoint_check` is three walks over the parsed body.
# Faults put into generated programs must draw the same diagnostic from both.

def _unguarded(p, chan, rng):
    x = rng.choice(("X", "Y", "U"))
    return Rec(x, If(Lit(True), PVar(x), p) if rng.random() < 0.5
               else PVar(x))


def _rebound_value(p, chan, rng):
    return Recv(ChanVar(chan), rng.choice(("v1", "v2", "w", "x", "y")),
                "int", p)


def _rebound_recursion(p, chan, rng):
    return Rec(rng.choice(("X", "Y", "U")), p)


def _unbound_value(p, chan, rng):
    e = Var(rng.choice(("v1", "v2", "w", "zz")))
    if rng.random() < 0.5:
        return Send(ChanVar(chan), e, p)
    return If(Call("eq", (e, Lit(1))), p, p)


def _unbound_recursion(p, chan, rng):
    return PVar(rng.choice(("X", "Y", "Q")))


def _unbound_session(p, chan, rng):
    return Send(ChanVar(rng.choice(("x", "y", "q"))), Lit(1), p)


_FAULTS = (_unguarded, _rebound_value, _rebound_recursion, _unbound_value,
           _unbound_recursion, _unbound_session)


def _size(p):
    return 1 + sum(map(_size, subprocesses(p)))


def _with_faults(rng, body, chan, count):
    """`body` with `count` faults put in at nodes drawn in pre-order."""
    spots = set(rng.sample(range(_size(body)), min(count, _size(body))))
    at = [0]

    def go(p):
        i = at[0]
        at[0] += 1
        q = _map_proc(p, go)
        return rng.choice(_FAULTS)(q, chan, rng) if i in spots else q

    return go(body)


def _faulty_program(seed):
    rng = random.Random(seed)
    prog = random_program(rng, safe=seed % 2 == 0)
    parts = [type(e)(e.chan, e.var,
                     _with_faults(rng, e.body, e.var, rng.randint(0, 4)))
             for e in par_parts(prog.term)]
    prog = SourceProgram(prog.decls, par(*parts), False)
    # a two-role twin tags the faults' prefixes too, so no program mixes
    return render_program(to_multiparty(prog) if seed % 3 == 0 else prog)


def _check_diagnostic(src, parse=parse_program):
    try:
        parse(src)
    except ParseError as e:
        return e.diagnostic
    return None


def _prefix_roles(p):
    """The partner roles of `p`'s prefixes, None where a prefix has none."""
    kind = type(p)
    if kind in (Send, Select):
        yield p.to_role
    elif kind in (Recv, Branch):
        yield p.from_role
    for q in subprocesses(p):
        yield from _prefix_roles(q)


def _reference_check_diagnostic(src):
    """`parse_program`'s diagnostic, with each endpoint's checks made by
    the three walks over its parsed body, at the endpoint's first token
    (the one `request` or `accept` keyword that starts it)."""
    p = _P(src)
    try:
        decls: dict = {}
        while (p.kinds[p.pos], p.texts[p.pos]) == ("kw", "fun"):
            d = _parse_fun_decl(p)
            decls[d.name] = d
        first = p.pos
        term = _ProgParser(p, decls).collaboration()
        p.expect("eof")
        heads = [i for i, (kind, text) in enumerate(zip(p.kinds, p.texts))
                 if kind == "kw" and text in ("request", "accept")]
        for e, head in zip(par_parts(term), heads):
            naive_endpoint_check(src, e.body, e.var, head)
        # every endpoint and prefix is tagged with a role, or none is
        if len({r is None for e in par_parts(term)
                for r in (e.role, *_prefix_roles(e.body))}) == 2:
            p.fail("mixed multiparty and binary endpoints", first)
    except ParseError as e:
        return e.diagnostic
    return None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_endpoint_check_matches_the_three_walks(seed):
    src = _faulty_program(seed)
    assert _check_diagnostic(src) == _reference_check_diagnostic(src)


def test_fault_injection_draws_every_endpoint_diagnostic():
    """The injected faults reach every diagnostic of the check, and the
    one walk reports each as the three walks do."""
    seen = set()
    for seed in range(300):
        src = _faulty_program(seed)
        got = _check_diagnostic(src)
        assert got == _reference_check_diagnostic(src), src
        if got is not None:
            seen.add(re.sub(r"'[^']*'", "N", got.message))
    assert seen == {"unguarded recursion on N",
                    "variable N rebound inside its own scope",
                    "recursion variable N rebound inside its own scope",
                    "unbound variable N", "unbound recursion variable N",
                    "unbound session variable N"}


@pytest.mark.parametrize("src, want", [
    # rebinding before unguarded recursion in the text: recursion wins
    ("request a(x). x?(v: int). x?(v: int). rec X. X | accept a(y). 0",
     "unguarded recursion on 'X'"),
    # unbound names before a rebinding in the text: the rebinding wins
    ("request a(x). q!<zz>. rec X. rec X. x!<1>. X | accept a(y). 0",
     "recursion variable 'X' rebound inside its own scope"),
    # value, then recursion, then session variable; each the first by name
    ("request a(x). q!<1>. x!<zz>. x!<b>. Q | accept a(y). 0",
     "unbound variable 'b'"),
    ("request a(x). q!<1>. p!<1>. if true then R else Q | accept a(y). 0",
     "unbound recursion variable 'Q'"),
    ("request a(x). q!<1>. p!<1>. 0 | accept a(y). 0",
     "unbound session variable 'p'"),
    # the first endpoint with an offence is reported, at its first token
    ("request a(x). q!<1>. 0 | accept a(y). rec Y. Y",
     "unbound session variable 'q'"),
])
def test_endpoint_check_priority_is_exact(src, want):
    got = _check_diagnostic(src)
    assert (got.message, got.start) == (want, 0)
    assert got == _reference_check_diagnostic(src)


# -- the type check against the walk it replaces ------------------------------
# `parse_type` checks a type's variables while it parses it; `_check_type_vars`
# is the walk over the parsed type that did it before.

def _check_type_vars(p, t, var_tokens):
    """Reject the first unguarded recursion variable in source order, else
    the alphabetically first free variable, at its first occurrence;
    `var_tokens` gives the variables' token indices in source order."""
    free: dict = {}

    def go(t, bound: frozenset, pending: frozenset):
        if isinstance(t, TVarT):
            at = next(var_tokens)
            if t.name in pending:
                p.fail(f"unguarded recursive type on {t.name!r}", at)
            if t.name not in bound:
                free.setdefault(t.name, at)
        if isinstance(t, TMu):
            bound, pending = bound | {t.var}, pending | {t.var}
        else:
            pending = frozenset()
        for c in subtypes(t):
            go(c, bound, pending)

    go(t, frozenset(), frozenset())
    if free:
        name = min(free)
        p.fail(f"unbound type variable {name!r}", free[name])


def _reference_type_diagnostic(src):
    """`parse_type`'s diagnostic, with the checks made by the walk.  A
    variable is the one identifier that starts a type where a type may
    start: first, or after `.`, `:`, `(` or the `)` of `(+)` (a label, a
    `mu`'s variable and a role's `_` follow none of these)."""
    p = _P(src)
    try:
        t = _read_type(p)[0]
        p.expect("eof")
        _check_type_vars(p, t, iter([
            i for i, kind in enumerate(p.kinds) if kind == "ident"
            and (i == 0 or p.kinds[i - 1] in (".", ":", "(", ")"))]))
    except ParseError as e:
        return e.diagnostic
    return None


def _type_fault(t, rng):
    """`t` under a `mu` no prefix guards, as a free variable, or with a
    `(+)` that may or may not guard a `mu`'s variable."""
    v, w = (rng.choice(("t1", "t2", "t3", "zz")) for _ in range(2))
    return rng.choice((
        TMu(v, t),
        TMu(v, TMu(w, TVarT(rng.choice((v, w))))),
        TVarT(v),
        TMu(v, TPlus(TVarT(v), t)),
        TMu(v, TPlus(t, TMu(w, TVarT(v)))),
        TPlus(t, TMu(v, TVarT(v))),
        TPlus(TMu(v, TCmt(TVarT(w))), t),
    ))


def _faulty_type(seed):
    rng = random.Random(seed)
    count = rng.randint(0, 3)

    def go(t):
        t = _map_type(t, go)
        return _type_fault(t, rng) if rng.random() < count / 8 else t

    return render_type(go(random_type(rng)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_type_check_matches_the_walk(seed):
    src = _faulty_type(seed)
    assert _check_diagnostic(src, parse_type) == _reference_type_diagnostic(src)


def test_type_fault_injection_draws_every_type_diagnostic():
    seen = set()
    for seed in range(300):
        src = _faulty_type(seed)
        got = _check_diagnostic(src, parse_type)
        assert got == _reference_type_diagnostic(src), src
        seen.add(got and re.sub(r"'[^']*'", "N", got.message))
    assert seen == {None, "unguarded recursive type on N",
                    "unbound type variable N"}


@pytest.mark.parametrize("src", [
    "mu t. t (+) end", "mu t. (mu u. t) (+) end", "(mu u. u) (+) end",
    "end (+) mu u. u", "mu t. end (+) t", "mu t. (end (+) mu u. t)",
    "mu t. ((mu u. (t)))", "brn[l: u; r: mu t. t]",
    "[_,1]![int]. t", "sel[l]. mu l. l", "mu t. brn[_: t; t: end] ]",
])
def test_type_check_matches_the_walk_on_plus_and_parentheses(src):
    assert _check_diagnostic(src, parse_type) == _reference_type_diagnostic(src)


# -- one pass -----------------------------------------------------------------

def test_parsing_walks_no_parsed_term_again(corpus):
    # `parser` imports neither walker, so patching their modules suffices
    assert not hasattr(parser, "subprocesses")
    with mock.patch.object(syntax, "subprocesses") as procs, \
            mock.patch.object(sessiontypes, "subtypes") as types:
        for path in sorted(corpus.glob("*.chpi")):
            parse_program(path.read_text())
        for path in sorted(corpus.glob("*.chty")):
            parse_type(path.read_text())
    assert not procs.called and not types.called


def _parse_peak(k: int) -> int:
    """tracemalloc peak of parsing a program whose acceptor receives k
    values, each bound to a name of its own, in a fresh thread, so the
    test runner's own frames do not count against the parser's depth.
    One unmeasured parse of the same text runs first, so every measured
    parse meets the allocator's free lists warm, whichever runs first."""
    src = ("request a(x). " + "".join(f"x!<{i}>. " for i in range(k))
           + "0\n| accept a(y). "
           + "".join(f"y?(v{i}: int). " for i in range(k)) + "0")
    peak = []

    def body():
        parse_program(src)
        tracemalloc.start()
        try:
            parse_program(src)
            peak.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=body)
    thread.start()
    thread.join()
    assert peak, "the parse failed"
    return peak[0]


def test_a_parse_keeps_its_scope_linear_in_the_nesting():
    # a scope copied per binder would hold k * k / 2 names at the deepest
    # point: four times as much at twice the depth
    assert _parse_peak(400) <= 2.5 * _parse_peak(200)


# -- the one-loop parsers against the recursive ones -------------------------
# `parse_program` and `parse_type` read processes and types by one loop
# over an explicit stack; `parser_reference` keeps the recursive descent
# they replaced.  On any text both give equal terms or equal diagnostics.

def _bench_gen():
    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclass finds it by name
    return module


# where a scope ends inside a body: a binder in one branch or arm and a
# use or binder of its name in the next, a guard pending across `if`;
# `(+)` operands around a parenthesised type; and a lone prefix operator
# where a send's expression starts
_EDGE_TEXTS = [
    "request a(x). x!<!>. 0 | accept a(y). 0",
    "request a(x). x!<(>. 0 | accept a(y). 0",
    "request a(x). x>+{l: x?(v: int). 0, r: x!<v>. 0} | accept a(y). 0",
    "request a(x). x>+{l: x?(v: int). 0, r: x?(v: int). 0}"
    " | accept a(y). 0",
    "request a(x). if true then x?(v: int). 0 else x!<v>. 0"
    " | accept a(y). 0",
    "request a(x). rec X. if true then (X) else X | accept a(y). 0",
    "request a(x). rec X. if true then x!<1>. X else X | accept a(y). 0",
    "request a(x). x>+{l: rec Y. 0, r: Y} | accept a(y). 0",
    "request a(x). x>+{l: rec X. x!<1>. X, r: X} | accept a(y). 0",
    "request a(x). x>+{l: rec X. x!<1>. X, r: rec X. x!<1>. X}"
    " | accept a(y). 0",
    "end (+) (end) (+) end", "(end) (+) end (+) end",
    "end (+) (mu t. t) (+) end", "mu t. (t) (+) end",
    "mu t. end (+) (t)", "end (+) brn[l: end] (+) end",
    "mu t. mu u. (t)", "mu t. brn[l: t; r: mu t. t]",
    "mu t. ![int]. mu t. t", "mu t. cmt. (mu u. t (+) u)",
    "brn[l: mu u. ![int]. u; r: u]",
]


def _menu_program(n: int) -> str:
    """An `if` chain n deep over a declared domain, each branch selecting
    its label, against an n-arm branch block."""
    conds = "".join(f"if f() == {k} then x<+ l{k}. x!<{k}>. 0 else "
                    for k in range(1, n))
    arms = ", ".join(f"l{k}: y?(v{k}: int). 0" for k in range(1, n + 1))
    return (f"fun f(): int in {{ {', '.join(map(str, range(1, n + 1)))} }}"
            f"\nrequest a(x). {conds}x<+ l{n}. x!<{n}>. 0\n"
            f"| accept a(y). y>+{{ {arms} }}")


# what the parsers read at fixed offsets: `if` heads over each kind of
# operand, arm groups, declarations with none to two argument sorts and
# with domains, n-role heads and role-tagged prefixes (and an untagged
# branch among them), parenthesised collaborations, and role pairs, `brn`
# groups and `(+)` around parentheses in types, with the heads that only
# look like one (`[_` and `[3` open a role pair, a keyword in the place
# of a sort, a `)` that no `(` opened)
_HEAD_TEXTS = [
    _menu_program(16),
    "fun f(): bool\nfun g(int): str in { \"a\", \"b\" }\n"
    "fun h(int, bool): int in { 1, 2, 3 }\n"
    "request a(x). x!<h(1, g(2) == \"a\")>. if f() then x!<g(h(1, true))>. "
    "0 else if true then 0 else if 7 then 0 else if \"s\" then 0 else "
    "x?(v: bool). if v then x!<v>. 0 else if !v then 0 else "
    "if g(1) == \"b\" then 0 else 0 | accept a(y). y?(u: int). y!<f()>. 0",
    "fun e(): str in { \"a\" }\nfun d(bool): bool in { true, false }\n"
    "request a(x). x!<d(e() == \"a\")>. x!<e()>. 0 | accept a(y). 0",
    "request a[3](x). x!<1>@2. x?(v: int)@1. x<+ l@2. x>+@1{ l: 0, r: 0 }"
    " | accept a[2](y). y?(v: int)@3. y>+{ l: y!<1>@3. 0 }@3"
    " | accept a[1](z). z!<2>@3. z<+ l@3. 0",
    "(request a(x). x!<1>. 0 | (accept a(y). y?(v: int). 0))"
    " | ((request b(u). (u<+ l. 0)) | accept b(w). w>+{ l: 0 })",
    "brn[1,2][l: ![2,1][int]. end; r: sel[1,2][_]. ?[_,1][str]. end]",
    "![2,1][int]. brn[l: (end (+) end); r: ((sel[m]. end))] (+) end",
    "((![int]. end) (+) (?[int]. end)) (+) (mu t. ![int]. t) (+) end",
    "request a[2](x). x>+{ l: 0 } | accept a[1](y). y<+ l@2. 0",
    "sel[_]. end", "brn[_: end; r: end]", "brn[3: end]",
    "![1,2][end]. end", "?[end]. end", "sel[1,2][l]. brn[_,1][l: end]",
    "request a(x). 0) | accept a(y). 0", "(request a(x). 0)) | accept b(y). 0",
]


def _differential_texts():
    """The corpus, generated programs (and their two-role twins), types
    and faulty texts, check-large's menu and chain shapes, and the edge
    and head texts above."""
    texts = list(_TEXTS) + _EDGE_TEXTS + _HEAD_TEXTS
    for seed in range(6, 12):
        prog = random_program(random.Random(seed), safe=seed % 2 == 0)
        texts += [render_program(prog), render_program(to_multiparty(prog)),
                  render_type(random_type(random.Random(seed)))]
    texts += [_faulty_program(seed) for seed in range(12)]
    texts += [_faulty_type(seed) for seed in range(12)]
    gen, rng = _bench_gen(), random.Random(0)
    shapes = [gen.menu(rng, "", 4, 4, violating)
              for violating in (False, True)]
    shapes += [gen.chain(rng, "", 10, dense, violating)
               for dense in (False, True) for violating in (False, True)]
    for shape in shapes:
        twin = to_multiparty(parse_program(shape.program))
        texts += [shape.left, shape.right, shape.program,
                  render_program(twin)]
    return texts


_DIFFERENTIAL = _differential_texts()


def _outcome(parse, src):
    try:
        return parse(src)
    except ParseError as e:
        return e.diagnostic


def _parses_as_the_reference(src):
    for parse, reference in ((parse_program, parser_reference.parse_program),
                             (parse_type, parser_reference.parse_type)):
        assert _outcome(parse, src) == _outcome(reference, src)


def test_the_parsers_match_the_recursive_ones_on_every_source():
    for src in _DIFFERENTIAL:
        _parses_as_the_reference(src)


@st.composite
def _token_mutants(draw):
    """A text with one token deleted, duplicated, or swapped with the
    next, or cut off after it."""
    src = draw(st.sampled_from(_DIFFERENTIAL))
    spans = [span for span in _spans(src) if span[0] < len(src)]
    k = draw(st.integers(0, len(spans) - 1))
    (a, b), how = spans[k], draw(st.sampled_from(("delete", "duplicate",
                                                   "swap", "cut")))
    if how == "cut":
        return src[:b]
    if how == "delete":
        return src[:a] + src[b:]
    if how == "duplicate" or k + 1 == len(spans):
        return src[:b] + " " + src[a:]
    c, d = spans[k + 1]
    return src[:a] + src[c:d] + src[b:c] + src[a:b] + src[d:]


@settings(max_examples=400, deadline=None)
@given(_token_mutants())
def test_the_parsers_match_the_recursive_ones_on_token_mutants(src):
    _parses_as_the_reference(src)


def _every_token_mutant(src):
    """Every text `_token_mutants` can draw from `src`: each token cut off
    after, deleted, duplicated, and swapped with the next.
    `tests/token_mutants.py` checks them all over `_DIFFERENTIAL`."""
    spans = [span for span in _spans(src) if span[0] < len(src)]
    for j, (a, b) in enumerate(spans):
        yield src[:b]
        yield src[:a] + src[b:]
        yield src[:b] + " " + src[a:]
        if j + 1 < len(spans):
            c, d = spans[j + 1]
            yield src[:a] + src[c:d] + src[b:c] + src[a:b] + src[d:]


@pytest.mark.parametrize("k", range(len(_HEAD_TEXTS)))
def test_the_parsers_match_the_recursive_ones_on_every_head_mutant(k):
    # every single-token mutant of the texts the fixed-offset heads read,
    # not a sample: a head that accepts a token out of place shows here;
    # the menu is 3 deep here, since the 16-deep one's 2,000 mutants of
    # 500 tokens each take seconds
    src = _menu_program(3) if k == 0 else _HEAD_TEXTS[k]
    for mutant in _every_token_mutant(src):
        _parses_as_the_reference(mutant)
