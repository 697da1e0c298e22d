"""A metamorphic property: names and the order of endpoints mean nothing.

Renaming every identifier of a program injectively (services, session,
value and recursion variables, labels, functions) and shuffling its
top-level endpoints must leave `check`'s verdict, each service's state and
edge counts, and the state, edge, completed, error and stuck counts of a
depth-10 exploration in both error modes as they were.  The inputs are
the corpus, generated programs, inhabitant pairs, the benchmark's kpar and
ring shapes, and two-role twins of binary programs.  Likewise renaming the
`mu` binders and labels of a pair of types and swapping the two must
leave `comply`'s verdict, state and edge counts and number of violations
as they were, over every pair of corpus types and generated pairs.
"""

import random
import re

import contract
from genprog import random_program, random_type
from test_inhabitants import inhabitant_pair
from cherrypi import corpus_dir
from cherrypi.multiparty import to_multiparty
from cherrypi.parser import (KEYWORDS, ParseError, parse_program,
                             parse_type, render_fun_decl, render_program,
                             show_collaboration)
from cherrypi.runtime import ExploreError, explore
from cherrypi.semantics import check_compliance, check_rollback_safety
from cherrypi.sessiontypes import render_type
from cherrypi.syntax import par_parts

# a string literal, left alone, or an identifier
_WORD = re.compile(r'"(?:[^"\\]|\\.)*"|[A-Za-z_]\w*')


def _inputs() -> list:
    """The programs the property is checked on."""
    progs = [parse_program(p.read_text())
             for p in sorted(corpus_dir().glob("*.chpi"))]
    rng = random.Random("metamorphic")
    progs += [random_program(rng, safe=i % 2 == 0) for i in range(60)]
    for seed in range(150):
        try:  # an `if`-guarded loop renders as unguarded recursion
            progs.append(parse_program(render_program(
                inhabitant_pair(seed)[1])))
        except ParseError:
            continue
    gen = contract._bench_gen()
    progs += [parse_program(gen.kpar("c", k)) for k in (1, 2)]
    progs += [parse_program(gen.ring(rng, "c", n)) for n in (2, 3, 4)]
    progs += [to_multiparty(p) for p in progs[:80]
              if not p.multiparty][:40]
    return progs


def _renaming(texts: list, rng: random.Random) -> tuple:
    """An injective renaming of the identifiers of `texts` that are not
    keywords, keeping the case of their first letter, and a function that
    applies it to a text."""
    names = sorted({w for text in texts for w in _WORD.findall(text)
                    if w[0] != '"' and w not in KEYWORDS})
    fresh = rng.sample(range(len(names)), len(names))
    renamed = {w: ("R" if w[0].isupper() else "r") + str(k)
               for w, k in zip(names, fresh)}

    def rename(text: str) -> str:
        return _WORD.sub(lambda m: renamed.get(m[0], m[0]), text)

    return renamed, rename


def _variant(prog, rng: random.Random) -> tuple:
    """The program with its identifiers renamed injectively, keeping the
    case of their first letter, and its top-level endpoints shuffled, and
    the renaming."""
    decls = [render_fun_decl(d) for d in prog.decls.values()]
    parts = [show_collaboration(p) for p in par_parts(prog.term)]
    renamed, rename = _renaming(decls + parts, rng)
    rng.shuffle(parts)
    text = "\n".join(map(rename, decls)) + "\n\n" + "\n| ".join(
        map(rename, parts))
    return parse_program(text), renamed


def _observed(prog, renamed: dict) -> tuple:
    """What the property compares: the verdict, the counts per service
    (named as `renamed` names it) and the explorations' counts."""
    rep = check_rollback_safety(prog.term)
    services = {renamed.get(name, name): (len(r.system.nodes),
                                          len(r.system.src))
                for name, r in rep.services.items()}
    explored = []
    for mode in ("plain", "detect"):
        try:
            e = explore(prog, 10, mode)
        except ExploreError:  # a ring's draw of an undeclared domain
            explored.append(None)
            continue
        explored.append((len(e.system.nodes), e.edges, e.completed,
                         len(e.errors), len(e.stuck)))
    return rep.safe, services, explored


def test_renaming_and_shuffling_endpoints_change_no_count():
    rng = random.Random(0)
    progs = _inputs()
    assert len(progs) >= 250
    for i, prog in enumerate(progs):
        for _ in range(2):
            variant, renamed = _variant(prog, rng)
            assert _observed(variant, {}) == _observed(prog, renamed), \
                (i, render_program(prog))


def _compliance_counts(left, right) -> tuple:
    rep = check_compliance(left, right)
    return (rep.compliant, len(rep.system.nodes), len(rep.system.src),
            len(rep.violations))


def test_renaming_and_swapping_types_change_no_compliance_count():
    # one renaming for both types, so a selection still meets its branch
    types = [parse_type(p.read_text())
             for p in sorted(corpus_dir().glob("*.chty"))]
    rng = random.Random("comply")
    pairs = [(a, b) for a in types for b in types] + \
        [(random_type(rng), random_type(rng)) for _ in range(100)]
    assert len(pairs) == 164
    for a, b in pairs:
        texts = [render_type(a), render_type(b)]
        _, rename = _renaming(texts, rng)
        left, right = (parse_type(rename(t)) for t in texts)
        assert _compliance_counts(right, left) == \
            _compliance_counts(a, b), texts
