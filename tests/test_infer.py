import pytest

from conftest import BINARY_PROGRAMS
from cherrypi.infer import (TypingError, infer_collaboration,
                            m_infer_collaboration, service_pairs,
                            type_of_process)
from cherrypi.parser import parse_process_text, parse_program, parse_type
from cherrypi.sessiontypes import canonical_type, render_type
from cherrypi.syntax import (ChanVar, Endpoint, Inact, Recv, Send, Var,
                             substitute, unfold_recursion)


def ceq(a, b):
    return canonical_type(a) == canonical_type(b)


def test_trivial_collaboration_has_end_types():
    prog = parse_program("request a(x). 0 | accept a(y). 0")
    inf = infer_collaboration(prog.term)
    assert ceq(inf["~a"], parse_type("end"))
    assert ceq(inf["a"], parse_type("end"))


def test_corpus_inferred_types_match_shipped_files(corpus, programs,
                                                  verdicts):
    for fname_prog, files in verdicts["inferred"].items():
        name = fname_prog.removesuffix(".chpi")
        inf = infer_collaboration(programs[name].term)
        for party, fname in files.items():
            want = parse_type((corpus / fname).read_text())
            assert ceq(inf[party], want), \
                (name, party, render_type(inf[party]))


def test_vod_b_requester_type_shape(programs):
    inf = infer_collaboration(programs["vod_b"].term)
    assert render_type(inf["~a"]) == (
        "![str]. ?[int]. cmt. ?[str]. "
        "((sel[l_HD]. ?[str]. ((?[str]. end) (+) roll)) "
        "(+) sel[l_SD]. ?[str]. ((?[str]. end) (+) abt))")
    assert render_type(inf["a"]) == (
        "?[str]. ![int]. ![str]. brn[l_HD: cmt. ![str]. ![str]. end; "
        "l_SD: cmt. ![str]. ![str]. end]")


def test_nested_rec_binders_take_fresh_names_whatever_was_typed_first():
    # unfolding `rec X. rec Y. ...` puts the whole loop inside a `rec Y`,
    # so the inner `rec Y` is named after the binders around it.  A
    # session endpoint's subterm keeps its type only outside every `rec`
    # of the walk, so typing the inner loop on its own, before or after
    # the whole, changes neither answer
    body = unfold_recursion(parse_process_text(
        "rec X. rec Y. x!<1>. x>+{ a: Y, c: X }"))
    whole = ("mu Y. ![int]. brn[a: Y; c: mu X. mu Y_1. ![int]. "
             "brn[a: Y_1; c: X]]")
    alone = "mu X. mu Y. ![int]. brn[a: Y; c: X]"
    assert render_type(type_of_process(body, ChanVar("x"))) == whole
    for first in (0, 1):
        ep = Endpoint(f"s{first}", True)
        p = substitute(body, "x", ep)
        order = [(p, whole), (p.body.cont.arms[1][1], alone)]
        if first:
            order.reverse()
        for q, want in order + order:
            assert render_type(type_of_process(q, ep)) == want


def test_a_kept_type_depends_on_no_binder_around_it():
    # a subterm that reads a received value types by that value's sort, so
    # it keeps no type: under another receive, or alone, it types afresh
    ep = Endpoint("s1", True)
    reads = Send(ep, Var("v"), Inact())
    assert render_type(type_of_process(Recv(ep, "v", "int", reads), ep)) \
        == "?[int]. ![int]. end"
    assert render_type(type_of_process(Recv(ep, "v", "str", reads), ep)) \
        == "?[str]. ![str]. end"
    with pytest.raises(TypingError, match="unbound variable 'v'"):
        type_of_process(reads, ep)


def test_service_pairs_orders_requester_first(programs):
    inf = infer_collaboration(programs["vod_b"].term)
    pairs = service_pairs(inf)
    assert [name for name, _, _ in pairs] == ["a"]
    _, treq, tacc = pairs[0]
    assert ceq(treq, inf["~a"]) and ceq(tacc, inf["a"])


def test_service_pairs_demands_both_sides():
    with pytest.raises(TypingError, match="no acceptor"):
        service_pairs({"~a": parse_type("end")})


def test_conditional_types_as_internal_choice():
    prog = parse_program(
        "fun f(): bool\n"
        "request a(x). if f() then x!<1>. 0 else roll"
        " | accept a(y). y?(v: int). 0")
    inf = infer_collaboration(prog.term)
    assert render_type(inf["~a"]) == "((![int]. end) (+) roll)"


def test_guard_must_be_bool():
    prog = parse_program(
        "request a(x). if 1 + 2 then 0 else 0 | accept a(y). 0")
    with pytest.raises(TypingError):
        infer_collaboration(prog.term)


def test_operator_argument_sorts_checked():
    prog = parse_program(
        'request a(x). x!<1 + "s">. 0 | accept a(y). y?(v: int). 0')
    with pytest.raises(TypingError):
        infer_collaboration(prog.term)


def test_received_variable_gets_declared_sort():
    prog = parse_program(
        "request a(x). x?(v: int). x!<v + 1>. 0"
        " | accept a(y). y!<41>. y?(w: int). 0")
    inf = infer_collaboration(prog.term)
    assert render_type(inf["~a"]) == "?[int]. ![int]. end"


def test_multiparty_program_rejected_by_binary_inference(programs):
    with pytest.raises(TypingError):
        infer_collaboration(programs["three_party_job"].term)


def test_three_party_inferred_role_types(programs):
    inf = m_infer_collaboration(programs["three_party_job"].term)
    assert render_type(inf["~a[3]"]) == \
        "![_,1][str]. ?[_,2][int]. cmt. ((sel[_,1][l_ok]. end) (+) roll)"
    assert render_type(inf["a[1]"]) == \
        "?[_,3][str]. ![_,2][int]. brn[_,3][l_ok: end]"
    assert render_type(inf["a[2]"]) == "?[_,1][int]. ![_,3][int]. end"


def test_multiparty_service_needs_every_role():
    prog = parse_program(
        "request a[3](x). x!<1>@1. 0 | accept a[1](y). y?(v: int)@3. 0")
    with pytest.raises(TypingError):
        m_infer_collaboration(prog.term)


def test_duplicate_role_rejected():
    prog = parse_program(
        "request a[2](x). 0 | accept a[1](y). 0 | accept a[1](z). 0")
    with pytest.raises(TypingError):
        m_infer_collaboration(prog.term)
