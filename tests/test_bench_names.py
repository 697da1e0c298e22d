"""The names the benchmark reaches in cherrypi still resolve.

`bench/tracing.py` wraps the functions it names by `getattr`, and
`bench/workloads.py` and `bench/test_bench.py` call cherrypi through
`C.<module>.<name>` chains; a renamed or deleted name breaks only a
benchmark run.  This checks every such name without running one.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

from cherrypi.parser import SourceProgram

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name: str):
    """A module of the benchmark's table (`bench/run.py`'s `modules`)."""
    if name in ("cherrypi", "genprog", "oracle_naive"):
        return importlib.import_module(name)
    return importlib.import_module(f"cherrypi.{name}")


def _traced():
    tracing = _tracing()
    return [pytest.param(layer, fn, traced, id=f"{layer}.{fn}")
            for table, traced in ((tracing.LAYERS, True),
                                  (tracing.COUNTED, False))
            for layer, fns in table.items() for fn in fns]


@pytest.mark.parametrize("layer, fn, traced", _traced())
def test_every_traced_and_counted_name_resolves(layer, fn, traced):
    owner = _module(layer)
    *cls, name = fn.split(".")
    if cls:
        owner = getattr(owner, cls[0])
        found = vars(owner)[name]
    else:
        found = getattr(owner, name)
    assert inspect.isfunction(found), fn
    if traced:
        # a span of its own: a `def` of that name, not an alias of another
        # traced function, which would be wrapped twice
        assert found.__name__ == name, fn


def _chains():
    chains = set()
    for path in (BENCH / "workloads.py", BENCH / "test_bench.py"):
        text = path.read_text()
        chains |= set(re.findall(r"\bC\.(\w+)\.(\w+)", text))
        chains |= {("genprog", n) for n in re.findall(r"\bG\.(\w+)", text)}
    return sorted(chains)


def test_the_benchmark_reaches_the_names_it_always_did():
    assert {("infer", "service_pairs"), ("infer", "infer_collaboration"),
            ("multiparty", "to_multiparty"),
            ("multiparty", "m_check_rollback_safety")} <= set(_chains())


@pytest.mark.parametrize("module, name", _chains())
def test_every_module_chain_of_the_benchmark_resolves(module, name):
    assert hasattr(_module(module), name), f"C.{module}.{name}"


def test_a_parsed_program_still_says_whether_it_is_multiparty():
    # the workloads pick the n-role entry points by `prog.multiparty`
    assert "multiparty" in SourceProgram.__match_args__


def test_every_size_the_benchmark_reads_counts_a_real_result(programs,
                                                            types):
    # `_SIZES` reads the views of what the traced functions return; a view
    # reshaped here would break only a traced benchmark run
    from cherrypi import multiparty, runtime, semantics
    pair = types["consumer"], types["producer_commit"]
    prog = programs["vod_b"]
    results = {
        "semantics.reachable_system": semantics.reachable_system(*pair),
        "multiparty.m_reachable_system":
            multiparty.m_reachable_system(pair),
        "runtime.explore": runtime.explore(prog, 40, "detect"),
        "runtime.reduction_steps": runtime.reduction_steps(prog.term),
        "multiparty.m_reduction_steps":
            multiparty.m_reduction_steps(prog.term, "detect"),
        "runtime.simulate": runtime.simulate(prog),
    }
    sizes = _tracing()._SIZES
    assert set(sizes) == set(results)
    for name, result in results.items():
        if name.endswith("reduction_steps"):
            want = len(result), 0
        elif name.endswith("simulate"):
            want = len(result.steps), 0
        else:
            ts = getattr(result, "system", result)
            want = len(ts.nodes), len(ts.src)
            assert min(want) > 1, name
        assert sizes[name](result) == want, name
        assert want[0] > 0, name
