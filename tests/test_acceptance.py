"""Acceptance suite: the eight headline checks for the package.

Each criterion is one test, so a verbose pytest run prints exactly one
pass/fail line per criterion.  Time tolerances are asserted inside the
tests (wall clock, generous enough for a loaded CI box but tight enough
to catch a blow-up in the search spaces).
"""

import json
import random
import re
import time
from collections import defaultdict, deque

import cherrypi.multiparty as mp
from conftest import BINARY_PROGRAMS
from cherrypi.infer import (infer_collaboration, service_pairs,
                            service_types)
from cherrypi.parser import parse_type
from cherrypi.runtime import DecisionOracle, explore, shadow_typecheck, simulate
from cherrypi.semantics import (check_compliance, check_rollback_safety,
                                compliance_dot, reachable_system)
from cherrypi.sessiontypes import canonical_type, render_type
from genprog import random_program, random_type
from oracle_naive import erase_trace


def describe_configuration(node):
    """Per party of a search node, `party1` first: checkpoint, imposed flag
    (the key's slot 3*i) and current."""
    key, ckpts, currents = node[0], node[1], node[2]
    return {f"party{i + 1}": {"checkpoint": render_type(ck),
                              "imposed": key[3 * i],
                              "current": render_type(cur)}
            for i, (ck, cur) in enumerate(zip(ckpts, currents))}


def _report(n, t0):
    dt = time.perf_counter() - t0
    print(f"criterion {n}: PASS ({dt:.2f}s)")
    return dt


# -- 1: inference on the on-demand-video requester/server pair --------------

def test_criterion_1_vod_inference_and_violation(programs, types):
    t0 = time.perf_counter()
    inferred = infer_collaboration(programs["vod_b"].term)
    assert canonical_type(inferred["~a"]) == canonical_type(types["vod_user"])
    assert canonical_type(inferred["a"]) == canonical_type(types["vod_server"])
    rep = check_compliance(types["vod_user"], types["vod_server"])
    assert not rep.compliant
    assert len(rep.system.states) == 20
    # the witness terminal leaves both parties unrecoverably stuck
    terminals = [describe_configuration(rep.system.nodes[sid])
                 for sid in rep.violations]
    assert any(d["party1"]["current"] == d["party2"]["current"] == "err"
               for d in terminals)
    assert _report(1, t0) < 1.0


# -- 2: whole-program rollback safety verdicts ------------------------------

def test_criterion_2_rollback_safety_verdicts(programs):
    t0 = time.perf_counter()
    assert check_rollback_safety(programs["vod_c"].term).safe
    dt_c = time.perf_counter() - t0
    t1 = time.perf_counter()
    assert not check_rollback_safety(programs["vod_d"].term).safe
    dt_d = time.perf_counter() - t1
    assert dt_c < 1.0 and dt_d < 1.0
    _report(2, t0)


# -- 3: the consumer/producer pair and its two recovery violations ----------

def test_criterion_3_two_recovery_violations(types):
    t0 = time.perf_counter()
    ok = check_compliance(types["consumer"], types["producer"])
    assert ok.compliant
    assert (len(ok.system.states), len(ok.system.edges)) == (10, 12)

    bad = check_compliance(types["consumer"], types["producer_commit"])
    assert not bad.compliant
    assert (len(bad.system.states), len(bad.system.edges)) == (18, 22)
    assert len(bad.violations) == 2

    tp_prime = canonical_type(types["producer_commit"])
    sol1 = canonical_type(parse_type("roll"))
    sol2 = canonical_type(parse_type(
        "roll (+) cmt. mu t. ![str]."
        " brn[l_spec: ?[str]. ?[str]. (roll (+) cmt. t);"
        " l_nonSpec: ?[str]. cmt. t]"))
    found = set()
    for sid in bad.violations:
        node = bad.system.nodes[sid]
        d = describe_configuration(node)
        assert d["party1"]["current"] == "err"
        assert d["party2"]["current"] == "err"
        # the consumer is stranded on a checkpoint the partner imposed on
        # it; the partner still sits on its own original checkpoint
        assert d["party1"]["imposed"]
        assert not d["party2"]["imposed"]
        assert canonical_type(node[1][1]) == tp_prime
        found.add(canonical_type(node[1][0]))
    assert found == {sol1, sol2}
    assert _report(3, t0) < 1.0


# -- 4: commit edges close cycles, and the DOT export is well-formed --------

_DOT_HEADER = re.compile(r"digraph [A-Za-z_][A-Za-z_0-9]* \{")
_DOT_NODE = re.compile(
    r'  (n\d+) \[label="[^"\\]*"(?:, style=bold)?(?:, peripheries=2)?\];')
_DOT_EDGE = re.compile(r'  (n\d+) -> (n\d+) \[label="[^"\\]*"\];')


def _assert_valid_dot(text):
    """Grammar check for the emitted graph language: a single digraph with
    the two fixed defaults, then node statements, then edge statements over
    declared nodes only."""
    assert text.endswith("}\n")
    lines = text.splitlines()
    assert _DOT_HEADER.fullmatch(lines[0]), lines[0]
    assert lines[1] == "  rankdir=LR;"
    assert lines[2] == "  node [shape=circle];"
    assert lines[-1] == "}"
    declared = set()
    in_edges = False
    for line in lines[3:-1]:
        node = _DOT_NODE.fullmatch(line)
        if node:
            assert not in_edges, f"node statement after edges: {line}"
            assert node.group(1) not in declared, f"duplicate: {line}"
            declared.add(node.group(1))
            continue
        edge = _DOT_EDGE.fullmatch(line)
        assert edge, f"statement outside the grammar: {line}"
        in_edges = True
        assert edge.group(1) in declared and edge.group(2) in declared, line


def test_criterion_4_commit_edge_to_initial_and_valid_dot(types):
    t0 = time.perf_counter()
    rep = check_compliance(types["consumer"], types["producer"])
    cycles = [e for e in rep.system.edges
              if e[3] in ("TS-Cmt1", "TS-Cmt2") and e[1] == 0]
    assert cycles, "no commit transition re-arms the initial configuration"
    _assert_valid_dot(compliance_dot(rep))
    # the violating variant exercises the double-periphery branch too
    bad = check_compliance(types["consumer"], types["producer_commit"])
    bad_dot = compliance_dot(bad)
    assert "peripheries=2" in bad_dot
    _assert_valid_dot(bad_dot)
    _report(4, t0)


# -- 5: the configuration search stays finite on random guarded types -------

def test_criterion_5_random_type_pairs_terminate():
    t0 = time.perf_counter()
    rng = random.Random(20260822)
    for i in range(1000):
        left = random_type(rng, depth=8)
        right = random_type(rng, depth=8)
        ts = reachable_system(left, right, budget=20_000)
        assert ts.states, i
    assert _report(5, t0) < 60.0


# -- 6: behavioural properties of exploration -------------------------------

def _bfs(n_states, adjacency, start):
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for succ in adjacency[node]:
            if succ not in dist:
                dist[succ] = dist[node] + 1
                queue.append(succ)
    return dist


def test_criterion_6_exploration_properties(programs):
    t0 = time.perf_counter()

    # (a-c) in detect mode a rollback-safe collaboration never raises a
    # runtime error flag and never wedges: corpus programs first, then a
    # batch of generated programs that keep every checkpoint self-imposed.
    for name in ("vod_c", "producer_consumer"):
        rep = explore(programs[name], depth=30, mode="detect")
        assert not rep.errors and not rep.stuck, name
    mrep = mp.m_explore(programs["three_party_job"], depth=25, mode="detect")
    assert not mrep.errors and not mrep.stuck

    rng = random.Random(6)
    for i in range(200):
        prog = random_program(rng, safe=True)
        rep = explore(prog, depth=30, mode="detect")
        assert not rep.errors and not rep.stuck, i
        # independent route to the same promise
        assert check_rollback_safety(prog.term).safe, i

    # (d-g) structural laws of the plain-mode transition graph, on programs
    # with commits and rolls placed freely (no recursion, so the graphs are
    # finite and rollback distance is meaningful).
    rng = random.Random(7)
    rll_edges = cmt_edges = 0
    for i in range(200):
        prog = random_program(rng, safe=False, allow_rec=False)
        rep = explore(prog, depth=60, mode="plain")
        n = len(rep.states)
        forward = defaultdict(list)
        no_abort = defaultdict(list)
        for src, dst, rule, text, backward in rep.transitions:
            if not backward:
                forward[src].append(dst)
            if rule != "B-Abt":
                no_abort[src].append(dst)
        dist0 = _bfs(n, forward, 0)

        # (f) exploration discovers no state that forward steps alone
        # cannot reach: rolling back never invents new behaviour
        assert set(dist0) == set(range(n)), i

        by_session = defaultdict(set)
        for src, dst, rule, text, backward in rep.transitions:
            if rule == "B-Rll":
                rll_edges += 1
                # (d) recovery lands on a state no deeper than the original
                # road in: replaying from the restored checkpoint costs at
                # most the forward distance of the pre-roll state
                back_dist = _bfs(n, forward, dst)
                assert back_dist.get(src, n + 1) <= dist0[src], (i, src, dst)
                by_session[(src, text.split(":", 1)[0])].add(dst)
            elif rule == "F-Cmt":
                cmt_edges += 1
                # (g) commits are persistent: once past one, nothing short
                # of an abort revisits the pre-commit state
                assert src not in _bfs(n, no_abort, dst), (i, src, dst)
        # (e) rolling a session is deterministic: every roll of the same
        # session from the same state restores one single state
        for key, dsts in by_session.items():
            assert len(dsts) == 1, (i, key)

    # the batch genuinely exercised both edge kinds
    assert rll_edges > 100 and cmt_edges > 100, (rll_edges, cmt_edges)
    assert _report(6, t0) < 300.0


# -- 7: a thousand seeded runs all shadow-typecheck -------------------------

def test_criterion_7_shadow_typechecks_thousand_traces(programs):
    t0 = time.perf_counter()
    checked = 0
    for name in BINARY_PROGRAMS:
        for seed in range(120):
            oracle = DecisionOracle("seeded-random", seed=seed)
            trace = simulate(programs[name], oracle, 200, mode="detect")
            rep = shadow_typecheck(programs[name], trace)
            assert rep.ok, (name, seed, rep.failures[:1])
            checked += 1
    # plain mode keeps checkpoint accordance only on rollback-safe programs
    for name in ("vod_c", "producer_consumer"):
        for seed in range(200):
            oracle = DecisionOracle("seeded-random", seed=seed)
            trace = simulate(programs[name], oracle, 200, mode="plain")
            rep = shadow_typecheck(programs[name], trace)
            assert rep.ok, (name, seed, rep.failures[:1])
            checked += 1
    assert checked == 1000
    _report(7, t0)


# -- 8: the general machinery is conservative over the two-party one --------

def test_criterion_8_n2_conservativity(programs, verdicts):
    t0 = time.perf_counter()
    for name in BINARY_PROGRAMS:
        prog = programs[name]
        m = mp.to_multiparty(prog)

        expected_safe = verdicts["programs"][f"{name}.chpi"]["safe"]
        assert check_rollback_safety(prog.term).safe is expected_safe, name
        assert mp.m_check_rollback_safety(m.term).safe is expected_safe, name

        binary = check_compliance(
            *service_pairs(infer_collaboration(prog.term))[0][1:])
        (types,) = service_types(m.term).values()
        mrep = check_compliance(*types)
        assert mrep.roles and not binary.roles
        assert mrep.compliant == binary.compliant, name
        assert len(mrep.system.states) == len(binary.system.states), name
        assert len(mrep.system.edges) == len(binary.system.edges), name

        for mode in ("plain", "detect"):
            for seed in (0, 1, 2):
                tb = simulate(prog, DecisionOracle("seeded-random", seed=seed),
                              60, mode=mode)
                tm = mp.m_simulate(m, DecisionOracle("seeded-random",
                                                     seed=seed), 60, mode=mode)
                assert erase_trace(tm).to_json() == tb.to_json(), \
                    (name, mode, seed)

        rb = explore(prog, depth=12, mode="detect")
        rm = mp.m_explore(m, depth=12, mode="detect")
        assert (len(rb.states), rb.edges, len(rb.errors), len(rb.stuck),
                rb.completed) == \
            (len(rm.states), rm.edges, len(rm.errors), len(rm.stuck),
             rm.completed), name
    _report(8, t0)
