"""A pytest plugin that holds every function of `cherrypi` to the lines
tier-1 runs.  Stdlib only.

    PYTHONPATH=src:tests python -m pytest -q -p line_coverage

A `sys.settrace` tracer records the lines of the package that run, from
when the plugin loads, before the package is imported.  It is installed
again before every test, since CPython drops a tracer that raises (a
test that exhausts the stack makes it raise), and for every thread a
test starts.  At the end of the session each function's lines are read
off its code object (`co_lines`), so the lines of a module's or a
class's own body do not count; a lambda or comprehension counts with
the function around it.  The session fails when a function leaves more
lines unreached than `ALLOWED` grants it (0 when it is not listed).
Lines only a subprocess runs are not seen.  Run it on the whole tier-1:
a subset leaves lines unreached.
"""

from __future__ import annotations

import importlib.util
import inspect
import os
import sys
import threading
import types

import pytest

# function (module.qualified name) -> lines tier-1 leaves unreached
ALLOWED = {
    # the BrokenPipe and RecursionError handlers: only the tests that run
    # the command line in a subprocess reach them
    "cli.main": 6,
    # shims only the benchmark's tracer calls
    "multiparty.m_config_key": 1,
    "multiparty.m_config_transitions": 1,
    # refusals of malformed API terms, which the entry checks and the
    # parsers keep from every input, and the unfolding fuel
    "sessiontypes.head_normal_type": 1,
    "sessiontypes.unfold_type": 1,
    "syntax._canon_chan": 1,
    "syntax._canon_coll": 1,
    "syntax._canon_expr": 1,
    "syntax._canon_proc": 1,
    "syntax._chan_names": 1,
    "syntax._chan_sig": 1,
    "syntax._expr_sig": 1,
    "syntax._names": 1,
    "syntax.head_normal": 1,
    "syntax.par": 1,
    "syntax.substitute": 2,
    "syntax.unfold_recursion": 1,
    "syntax.value_sort": 1,
}

_HITS: dict = {}  # file name -> the line numbers that ran
_LOCALS: dict = {}  # code object -> its line tracer, or None
_FOUND: list = [{}, {}]  # unreached lines, and those over their allowance
# found without importing it, so that its import is traced
_PACKAGE = os.path.dirname(importlib.util.find_spec("cherrypi").origin)


def _local_tracer(code):
    """The tracer of one code object's lines, None outside the package."""
    if not code.co_filename.startswith(_PACKAGE):
        return None
    hits = _HITS.setdefault(code.co_filename, set())
    hits.add(code.co_firstlineno)  # reached: it was called
    add = hits.add

    def local(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return local
    return local


def _trace(frame, event, arg):
    code = frame.f_code
    local = _LOCALS.get(code, _trace)
    if local is _trace:
        local = _LOCALS[code] = _local_tracer(code)
    return local


def _functions(code, scope: str, owner: str | None, out: dict) -> None:
    """Each function's lines below `code`, by name, into `out`: `scope`
    names `code`, and `owner` is the named function an anonymous one
    counts with (None at module or class level)."""
    for const in code.co_consts:
        if not isinstance(const, types.CodeType):
            continue
        name = f"{scope}.{const.co_name}"
        if not const.co_flags & inspect.CO_NEWLOCALS:  # a class body
            _functions(const, name, None, out)
            continue
        key = owner if owner and const.co_name.startswith("<") else name
        out.setdefault(key, set()).update(
            line for _, _, line in const.co_lines() if line is not None)
        _functions(const, name, key, out)


def unreached(package: str, hits: dict) -> dict:
    """Function name -> its lines that are not among `hits` (file name ->
    lines run), for every module of `package`."""
    found: dict = {}
    for entry in sorted(os.listdir(package)):
        if not entry.endswith(".py"):
            continue
        path = os.path.join(package, entry)
        with open(path) as fh:
            module = compile(fh.read(), path, "exec")
        lines: dict = {}
        _functions(module, entry[:-3], None, lines)
        ran = hits.get(path, set())
        for name, own in lines.items():
            missed = sorted(own - ran)
            if missed:
                found[name] = missed
    return found


def _install():
    sys.settrace(_trace)
    threading.settrace(_trace)


_install()


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    _install()


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    missed = unreached(_PACKAGE, _HITS)
    over = {name: lines for name, lines in missed.items()
            if len(lines) > ALLOWED.get(name, 0)}
    _FOUND[:] = missed, over
    if over and session.exitstatus == 0:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    missed, over = _FOUND
    write = terminalreporter.write_line
    write(f"line coverage: {sum(map(len, missed.values()))} lines of "
          f"{len(missed)} functions unreached, {len(over)} over their "
          f"allowance")
    for name, lines in sorted(over.items()):
        write(f"  {name}: {len(lines)} unreached > {ALLOWED.get(name, 0)} "
              f"allowed, lines {lines}")
    for name, allowed in sorted(ALLOWED.items()):
        if len(missed.get(name, ())) < allowed:
            write(f"  {name}: {len(missed.get(name, ()))} unreached, "
                  f"{allowed} allowed; lower its entry")
