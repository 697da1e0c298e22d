import pytest

import cherrypi.multiparty as mp
from conftest import BINARY_PROGRAMS, fill_roles, parse_process_text
from references import erase_rule_name, erase_to_binary, erase_trace
from cherrypi.infer import infer_collaboration, service_types
from cherrypi.parser import parse_program, parse_type
from cherrypi.runtime import (DecisionOracle, barbs, explore,
                              shadow_typecheck, simulate)
from cherrypi.semantics import (check_rollback_safety, position_of_role,
                                role_of_position)
from cherrypi.sessiontypes import render_type
from cherrypi.syntax import ChanVar, canonicalize


def test_role_position_round_trip():
    n = 4
    for pos in range(n):
        assert position_of_role(role_of_position(pos, n), n) == pos
    # the requester (role n) leads, acceptors 1..n-1 follow in order
    assert [role_of_position(i, 3) for i in range(3)] == [3, 1, 2]


def test_fill_roles_stamps_own_slot():
    t = parse_type("![_,2][int]. end")
    assert render_type(fill_roles(t, 1)) == "![1,2][int]. end"
    # already-filled slots stay put
    assert render_type(fill_roles(fill_roles(t, 1), 9)) == "![1,2][int]. end"


def test_three_party_job_is_rollback_safe(programs):
    rep = mp.m_check_rollback_safety(programs["three_party_job"].term)
    assert rep.safe
    assert rep.services["a"].compliant


def test_sort_mismatch_across_roles_is_violating():
    prog = parse_program(
        "request a[3](x). x!<1>@1. 0\n"
        "| accept a[1](y). y?(v: str)@3. 0\n"
        "| accept a[2](z). 0")
    rep = mp.m_check_rollback_safety(prog.term)
    assert not rep.safe
    svc = rep.services["a"]
    assert len(svc.violations) == 1
    desc = svc.to_json()["violations"][0]["terminal"]
    # stuck with a non-end current on both mismatched roles
    assert desc["role3"]["current"] == "![3,1][int]. end"
    assert desc["role1"]["current"] == "?[1,3][str]. end"


def test_binary_pairs_agree_with_binary_compliance(programs, corpus,
                                                   verdicts):
    from cherrypi.infer import infer_collaboration, service_pairs
    from cherrypi.semantics import check_compliance
    for name in BINARY_PROGRAMS:
        binary = check_compliance(
            *service_pairs(infer_collaboration(programs[name].term))[0][1:])
        mterm = mp.to_multiparty(programs[name]).term
        (types,) = service_types(mterm).values()
        mrep = check_compliance(*types)
        assert mrep.compliant == binary.compliant, name
        assert len(mrep.system.states) == len(binary.system.states), name


def test_barbs_toward_look_through_third_parties():
    x = ChanVar("x")
    p = parse_process_text("x?(v: int)@3. x!<v>@1. 0")
    assert barbs(p, 1) == {("out", x, 1)}
    assert barbs(p, 3) == {("in", x, 3)}
    # without an observer every communication is a barb, as on binary ends
    assert barbs(p) == {("in", x, 3)}


def test_barbs_toward_take_both_arms_of_a_guard_on_a_skipped_receive():
    # `v` is bound by a receive from role 3, which role 1 does not see:
    # its guard is undecided, like one that calls the oracle
    x = ChanVar("x")
    p = parse_process_text(
        "x?(v: int)@3. if v < 2 then x!<v>@1. 0 else roll")
    assert barbs(p, 1) == {("out", x, 1), ("roll",)}


def test_barbs_toward_keep_recovery_visible():
    p = parse_process_text("x!<1>@3. roll")
    assert barbs(p, 2) == {("roll",)}


def test_barbs_toward_open_all_arms_of_third_party_branches():
    x = ChanVar("x")
    p = parse_process_text("x >+ {l: x!<1>@2. 0, r: x?(v: int)@2. 0}@3")
    assert barbs(p, 2) == {("out", x, 2), ("in", x, 2)}


def test_three_party_demo_run(programs):
    o = DecisionOracle("scripted", script={"f_job": ["batch-7"],
                                           "f_result": [7],
                                           "f_grade": [False, True]})
    t = mp.m_simulate(programs["three_party_job"], o, 60, mode="detect")
    assert t.status == "completed"
    labels = [s.label() for s in t.steps]
    assert labels == [
        "M-F-Con a:s1",
        'M-F-Com s1:p1 !"batch-7"',
        "M-F-Com s1:p2 !7",
        "M-F-Com s1:p3 !7",
        "M-E-Cmt1 s1:p1 commit",
        "M-F-If s1:p1 else",
        "M-E-Rll1 s1:p1 roll",
        "M-F-If s1:p1 then",
        "M-F-Lab s1:p1 +l_ok",
    ]


def test_commit_by_one_role_replaces_all_logs(programs):
    o = DecisionOracle("scripted", script={"f_job": ["batch-7"],
                                           "f_result": [7],
                                           "f_grade": [True]})
    t = mp.m_simulate(programs["three_party_job"], o, 60, mode="plain")
    cmt = next(i for i, s in enumerate(t.steps)
               if s.label().endswith("commit"))
    state = t.steps[cmt].successor
    from cherrypi.syntax import Log, Session, par_parts
    ses = next(p for p in par_parts(state) if isinstance(p, Session))
    logs = [lg for lg in par_parts(ses.body) if isinstance(lg, Log)]
    assert len(logs) == 3
    # the committing requester keeps a plain checkpoint; parties that had
    # moved past theirs get imposed ones
    assert not logs[0].ckpt.imposed
    assert any(lg.ckpt.imposed for lg in logs[1:])


def test_abort_restores_all_initiators():
    prog = parse_program(
        "request a[3](x). x!<1>@1. abort\n"
        "| accept a[1](y). y?(v: int)@3. 0\n"
        "| accept a[2](z). 0")
    rep = mp.m_explore(prog, depth=10, mode="plain")
    init = canonicalize(prog.term).text
    assert any(canonicalize(s).text == init
               for i, s in enumerate(rep.states) if i > 0) or \
        any(dst == 0 for _, dst, _ in rep.system.edges)


def test_three_party_exploration_is_clean(programs):
    rep = mp.m_explore(programs["three_party_job"], depth=25, mode="detect")
    assert len(rep.states) == 9 and rep.ok and rep.completed == 1


def _summary(rep):
    data = rep.to_json()
    return (len(rep.states), rep.edges, rep.completed, data["errors"],
            data["stuck"])


def test_one_engine_steps_binary_and_n_role_programs(programs):
    three = programs["three_party_job"]
    for mode in ("plain", "detect"):
        for seed in range(5):
            t = simulate(three, DecisionOracle("seeded-random", seed=seed),
                         60, mode=mode)
            tm = mp.m_simulate(three, DecisionOracle("seeded-random",
                                                     seed=seed), 60,
                               mode=mode)
            assert [s.label() for s in t.steps] == \
                [s.label() for s in tm.steps], (mode, seed)
            assert t.status == tm.status
            assert t.steps[0].label() == "M-F-Con a:s1"
    rep = explore(three, depth=25, mode="detect")
    assert _summary(rep) == _summary(mp.m_explore(three, depth=25,
                                                  mode="detect"))
    assert (len(rep.states), rep.ok, rep.completed) == (9, True, 1)
    vod = mp.m_explore(programs["vod_c"], depth=40, mode="detect")
    assert _summary(vod) == _summary(explore(programs["vod_c"], depth=40,
                                             mode="detect"))
    assert (len(vod.states), vod.edges, vod.ok) == (19, 22, True)
    safety = check_rollback_safety(three.term)
    assert safety.safe
    assert safety.to_json() == mp.m_check_rollback_safety(three.term).to_json()


def test_n_role_violations_use_role_names(programs):
    prog = parse_program(
        "request a[3](x). x!<1>@1. 0\n"
        "| accept a[1](y). y?(v: str)@3. 0\n"
        "| accept a[2](z). 0")
    (v,) = check_rollback_safety(prog.term).to_json()["services"]["a"][
        "violations"]
    assert list(v["terminal"]) == ["role3", "role1", "role2"]
    assert v["path"] == []
    # the two-role twin of a binary program: the same paths and terminals
    # under n-role names
    twin = mp.to_multiparty(programs["vod_b"])
    (w,) = check_rollback_safety(twin.term).to_json()["services"]["a"][
        "violations"]
    (b,) = check_rollback_safety(programs["vod_b"].term).to_json()[
        "services"]["a"]["violations"]
    assert w["path"] == ["M-" + r for r in b["path"]]
    assert list(w["terminal"]) == ["role2", "role1"]
    assert list(b["terminal"]) == ["party1", "party2"]


def test_shadow_accepts_detect_runs_of_n_role_programs(programs):
    runs = [programs["three_party_job"]] + \
        [mp.to_multiparty(programs[name]) for name in BINARY_PROGRAMS]
    for prog in runs:
        for seed in range(10):
            t = simulate(prog, DecisionOracle("seeded-random", seed=seed), 60,
                         mode="detect")
            rep = shadow_typecheck(prog, t)
            assert rep.ok, (seed, rep.failures)


def test_shadow_rejects_plain_rolls_of_the_vod_b_twin(programs):
    twin = mp.to_multiparty(programs["vod_b"])
    hits = []
    for seed in range(20):
        t = simulate(twin, DecisionOracle("seeded-random", seed=seed), 60,
                     mode="plain")
        rep = shadow_typecheck(twin, t)
        if not rep.ok:
            hits.append(rep.failures[0])
    assert hits
    assert all("imposed" in h for h in hits)


def test_m_explore_needs_every_role_to_connect():
    prog = parse_program(
        "request a[3](x). x!<1>@1. 0 | accept a[1](y). y?(v: int)@3. 0")
    # role 2 is missing: the session can never start
    from cherrypi.infer import TypingError
    with pytest.raises(TypingError):
        infer_collaboration(prog.term)
    rep = mp.m_explore(prog, depth=5, mode="plain")
    assert len(rep.states) == 1 and rep.completed == 0


def test_a_service_shape_or_a_program_the_api_refuses():
    from cherrypi.infer import TypingError
    from cherrypi.syntax import Inact, MalformedTerm, par
    two = parse_program("request a[2](x). 0 | request a[2](y). 0 "
                        "| accept a[1](z). 0")
    with pytest.raises(TypingError,
                       match="service 'a' needs exactly one requester"):
        service_types(two.term)
    with pytest.raises(TypingError, match=r"not an endpoint: Inact\(\)"):
        service_types(par(two.term.parts[0], Inact()))
    with pytest.raises(MalformedTerm, match="program is already multiparty"):
        mp.to_multiparty(two)


# -- n=2 conservativity -----------------------------------------------------

def test_to_multiparty_round_trips_through_erasure(programs):
    for name in BINARY_PROGRAMS:
        m = mp.to_multiparty(programs[name])
        assert m.multiparty
        back = erase_to_binary(m.term)
        assert canonicalize(back).text == \
            canonicalize(programs[name].term).text, name


def test_rule_name_erasure():
    assert erase_rule_name("M-F-Com") == "F-Com"
    assert erase_rule_name("M-E-Rll2") == "E-Rll2"
    assert erase_rule_name("F-Com") == "F-Com"


@pytest.mark.parametrize("name", BINARY_PROGRAMS)
def test_n2_traces_erase_bit_exactly(programs, name):
    m = mp.to_multiparty(programs[name])
    for mode in ("plain", "detect"):
        tb = simulate(programs[name], DecisionOracle("seeded-random", seed=1),
                      60, mode=mode)
        tm = mp.m_simulate(m, DecisionOracle("seeded-random", seed=1), 60,
                           mode=mode)
        assert erase_trace(tm).to_json() == tb.to_json(), (name, mode)


@pytest.mark.parametrize("name", BINARY_PROGRAMS)
def test_n2_exploration_counts_match(programs, name):
    m = mp.to_multiparty(programs[name])
    rb = explore(programs[name], depth=12, mode="detect")
    rm = mp.m_explore(m, depth=12, mode="detect")
    assert (len(rb.states), rb.edges, len(rb.errors), len(rb.stuck),
            rb.completed) == \
        (len(rm.states), rm.edges, len(rm.errors), len(rm.stuck),
         rm.completed), name


@pytest.mark.parametrize("src, want", [
    ("request a[2](x). x!<1>@2. 0 | accept a[1](y). y?(v: int)@2. 0",
     "communication names role 2, outside 1..2 minus the own role 2"),
    ("request a[3](x). x!<1>@1. x<+ l@4. 0 | accept a[1](y). y?(v: int)@3."
     " 0 | accept a[2](z). 0",
     "communication names role 4, outside 1..3 minus the own role 3"),
    # a branching's own role is checked before its arms
    ("request a[2](x). x!<1>@1. 0"
     " | accept a[1](y). y>+{l: y!<1>@7. 0}@0",
     "communication names role 0, outside 1..2 minus the own role 1"),
    ("request a[2](x). if true then rec X. x?(v: int)@2. X"
     " else x!<1>@0. 0 | accept a[1](y). 0",
     "communication names role 2, outside 1..2 minus the own role 2"),
])
def test_role_check_messages_are_exact(src, want):
    from cherrypi.infer import TypingError
    with pytest.raises(TypingError) as ei:
        infer_collaboration(parse_program(src).term)
    assert str(ei.value) == want
