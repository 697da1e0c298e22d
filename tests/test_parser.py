import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from genprog import random_program, random_type
from conftest import ALL_PROGRAMS
from cherrypi import corpus_dir
from cherrypi.multiparty import to_multiparty
from cherrypi.parser import (ParseError, parse_expression_text,
                             parse_process_text, parse_program, parse_type,
                             render_program, render_type)
from cherrypi.sessiontypes import TBrn, TIn, TMu, TOut, canonical_type
from cherrypi.syntax import Call, Lit, Recv, Send, Ufun, canonicalize


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

def _texts():
    corpus = corpus_dir()
    texts = [p.read_text() for p in sorted(corpus.glob("*.ch*"))]
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
