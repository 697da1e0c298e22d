"""No walker call leaves a reference cycle behind.

A recursive helper defined inside the function that calls it holds itself
through its closure cell, so each call would leave a function <-> cell
cycle, and everything the helper's frame reached (a parser's whole token
list, say) would wait for the cyclic collector instead of going when the
call returns.  This runs the pipeline over the corpus with the collector
saving what it finds, and asserts that no function or cell is among it.
"""

import gc
import types
from collections import Counter

from cherrypi import corpus_dir
from cherrypi.multiparty import to_multiparty
from cherrypi.parser import parse_program, parse_type
from cherrypi.runtime import (DecisionOracle, explore, replay,
                              shadow_typecheck, simulate)
from cherrypi.semantics import check_compliance, check_rollback_safety


def _pipeline(corpus) -> int:
    """Parse, check, run, shadow-check, serialise, replay and explore every
    corpus program and its two-role twin, and check every ordered pair of
    corpus types; the number of operations."""
    ops = 0
    programs = []
    for path in sorted(corpus.glob("*.chpi")):
        prog = parse_program(path.read_text())
        programs.append(prog)
        if not prog.multiparty:
            programs.append(to_multiparty(prog))
    for prog in programs:
        check_rollback_safety(prog.term)
        for mode in ("plain", "detect"):
            for seed in (1, 3):
                trace = simulate(prog, DecisionOracle("seeded-random",
                                                      seed=seed),
                                 100, mode)
                shadow_typecheck(prog, trace)
                replay(trace.to_json(), mode)
            explore(prog, 8, mode)
        ops += 1
    kinds = [parse_type(p.read_text()) for p in sorted(corpus.glob("*.chty"))]
    for left in kinds:
        for right in kinds:
            check_compliance(left, right)
            ops += 1
    return ops


def test_no_walker_call_leaves_a_function_cell_cycle():
    corpus = corpus_dir()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        ops = _pipeline(corpus)
        gc.collect()
        found = Counter(type(x).__name__ for x in gc.garbage
                        if isinstance(x, (types.FunctionType,
                                          types.CellType)))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert ops >= 75
    assert found == Counter()
