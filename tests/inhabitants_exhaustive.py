"""Every small session type against its dual and the dual's one-edit
mutants: `check` and detect-mode `explore` agree on their inhabitants.

    python3 tests/inhabitants_exhaustive.py [--size N]

Bounded-exhaustive testing in the manner of SmallCheck (Runciman, Naylor
& Lindblad, 2008): where `tests/test_inhabitants.py` draws seeded random
types, this takes every guarded type of at most N constructors (default
5) over one sort, two labels and one variable: `![int].`, `?[int].`,
`sel[l1].`, `sel[l2].`, `cmt.`, `mu t.`, `brn[l1: ]`, `brn[l1: ; l2: ]`,
`(+)`, `end`, `roll`, `abt` and `t` (bound, and behind a prefix or a
`cmt` since its `mu`, so the inhabitants' `rec` is guarded).  Each type
is paired with its dual, with its dual after a `cmt`, and with every
distinct single-edit mutant of its dual: a `cmt` inserted above any
subterm, `roll` and `abt` swapped, a `(+)` losing one arm (a dual has
no two-arm `brn`: a branch's dual is a choice of selections), or a
direction flipped (`!` and `?`, `sel[l]` and `brn[l: ]`).
For each pair, `check_rollback_safety(...).safe` must equal
`explore(..., 30, "detect").ok`, save for the one class
`tests/test_inhabitants.py` lists (a side that commits forever: safe,
and only detecting rules' communication errors).

Prints the counts and each disagreement; exits 1 on any.  At N = 5:
14,485 types, 28,970 dual pairs and 134,454 mutant pairs, about two
minutes on a 2-vCPU host.  Imports cherrypi from the `src/` next to this
directory.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from cherrypi.sessiontypes import (TAbtT, TBrn, TCmt, TEnd, TIn,  # noqa: E402
                                   TMu, TOut, TPlus, TRollT, TSel, TVarT,
                                   _map_type, render_type, subtypes)
from test_inhabitants import agree, dual, inhabitants  # noqa: E402

_LEAVES = (TEnd(), TRollT(), TAbtT())
_VAR = TVarT("t")


@functools.cache
def types_of_size(n: int, bound: bool = False, guarded: bool = True) \
        -> tuple:
    """Every type of exactly `n` constructors.  `bound`: `t` is in scope
    (there is one variable, so no `mu` inside a `mu`); `guarded`: a
    prefix or `cmt` stands between here and that `mu`."""
    found: list = []
    if n == 1:
        found += _LEAVES
        if bound and guarded:
            found.append(_VAR)
    else:
        for c in types_of_size(n - 1, bound):
            found += (TOut("int", c), TIn("int", c), TSel("l1", c),
                      TSel("l2", c), TCmt(c), TBrn((("l1", c),)))
        if not bound:
            found += (TMu("t", c) for c in types_of_size(n - 1, True, False))
        for k in range(1, n - 1):
            found += (TBrn((("l1", a), ("l2", b)))
                      for a in types_of_size(k, bound)
                      for b in types_of_size(n - 1 - k, bound))
            found += (TPlus(a, b) for a in types_of_size(k, bound, guarded)
                      for b in types_of_size(n - 1 - k, bound, guarded))
    return tuple(found)


def _edits(t):
    """The single edits at the root of `t`, besides a `cmt` above it."""
    if isinstance(t, TRollT):
        yield TAbtT()
    elif isinstance(t, TAbtT):
        yield TRollT()
    elif isinstance(t, TOut):
        yield TIn(t.sort, t.cont)
    elif isinstance(t, TIn):
        yield TOut(t.sort, t.cont)
    elif isinstance(t, TSel):
        yield TBrn(((t.label, t.cont),))
    elif isinstance(t, TBrn) and len(t.arms) == 1:
        yield TSel(*t.arms[0])
    elif isinstance(t, TPlus):
        yield t.left
        yield t.right


def mutants(t) -> list:
    """Every distinct type one edit away from `t`, in a fixed order."""
    found = [TCmt(t), *_edits(t)]
    subs = subtypes(t)
    for k, s in enumerate(subs):
        for m in mutants(s):
            edited = iter(subs[:k] + (m,) + subs[k + 1:])
            found.append(_map_type(t, lambda _: next(edited)))
    return list(dict.fromkeys(found))


def pairs(size: int):
    """(kind, left, right) for every type of at most `size` constructors:
    its dual pairs first, then its mutant pairs."""
    for n in range(1, size + 1):
        for t in types_of_size(n):
            d = dual(t)
            yield "dual", t, d
            yield "dual", t, TCmt(d)
            for m in mutants(d):
                yield "mutant", t, m


def run(size: int) -> tuple:
    """The numbers of types, dual pairs and mutant pairs of at most
    `size` constructors, and the pairs that disagree."""
    counts = {"dual": 0, "mutant": 0}
    wrong = []
    for kind, left, right in pairs(size):
        counts[kind] += 1
        if not agree((left, right), inhabitants(left, right)):
            wrong.append((kind, left, right))
    types = sum(len(types_of_size(n)) for n in range(1, size + 1))
    return types, counts["dual"], counts["mutant"], wrong


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--size", type=int, default=5,
                    help="the most constructors a type has (default 5)")
    size = ap.parse_args().size
    types, duals, mutant_pairs, wrong = run(size)
    for kind, left, right in wrong:
        print(f"{kind}: {render_type(left)} against {render_type(right)}")
    print(f"{types} types of at most {size} constructors, {duals} dual "
          f"pairs, {mutant_pairs} mutant pairs, {len(wrong)} disagreements")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
