"""The command line's observable behaviour, as one digest per section.

    python3 tests/contract.py               # check against contract.json
    python3 tests/contract.py --write       # record the current digests
    python3 tests/contract.py --dump DIR    # also write each section's text
    python3 tests/contract.py --full [...]  # the generated inputs instead,
                                            # against contract_full.json

Runs `cli.main` in-process over the bundled corpus.  Sections:

- infer, check: every program, text and `--json`;
- explore: every program, `--depth 12`, both error modes, text and
  `--json`;
- run: every program, `--seed 1` and `--seed 3`, both error modes, text
  and `--json`, with `--trace`; the trace file is part of the section;
- replay: each of those traces, in its run's mode and output format;
- comply, graph: every ordered pair of corpus types, `comply` in text and
  `--json`, `graph --dot` with the file written;
- expr: the operator programs of `tests/expr/`, which nest every builtin
  operator: `infer` and `check`, text and `--json`, and `run --seed 1`
  and `--seed 2` with `--trace` and the trace's `replay`, both error
  modes, text and `--json`;
- diagnostics: the ill-formed programs of `BAD_PROGRAMS` under `check`
  and the types of `BAD_TYPES` under `comply` against `end`: each static
  offence, the order in which they win over one another and over a
  syntax error later in the text, and the guard rules of `(+)`;
- rules: the programs of `tests/rules/`, which take the process rules
  the corpus never takes, in their binary and two-role forms, and the
  partners that keep a detecting rule from firing: `check`, `explore
  --depth 12` in both error modes with its `--dot` file, and `run --seed
  1` and `--seed 2`, both error modes, with `--max-steps 12` and
  `--trace`, and the trace's `replay`.

`--full` runs the generated inputs of the benchmark's families instead,
for a CI job (about 5 s on a 2-vCPU host; its kpar section alone is
91,531 lines):

- kpar: `bench/gen.py`'s kpar k = 1-3 and rings n = 2-6, each with its
  `to_multiparty` twin: `infer`, `check`, `run --seed 1` in detect mode
  with its trace and `replay`, and `explore` with its `--dot` file;
- genprog: 40 `tests/genprog.py` programs (20 safe, 20 unsafe) and their
  twins: `check`, `explore --depth 10` in both modes, and a detect-mode
  `run --seed 1` with its trace and `replay`;
- budgets: `check`, `explore --depth 12` and `comply` over the corpus
  with `--budget` 1, 3 and 7, which print the exit-3 lines;
- large: the check-large shapes of the benchmark (menus, chains and dense
  chains: `comply`, `check` and the twin's `check`, text and `--json`)
  and its depth probes (a 500-message chain and a 200-message dense
  chain), which print their verdicts.

Each invocation adds its arguments, stdout, stderr and exit code to its
section.  The corpus directory, the directory the generated inputs are
written to and the trace and dot paths are replaced by fixed names, so
the digests do not depend on where the tree lives.  A section's digest is
the SHA-256 of its text and its line count.  Imports cherrypi from the
`src/` next to this directory, and for `--full` `bench/gen.py` and
`tests/genprog.py`; needs no pytest.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
for path in (SRC, HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import genprog  # noqa: E402
from cherrypi import cli, corpus_dir  # noqa: E402
from cherrypi.multiparty import to_multiparty  # noqa: E402
from cherrypi.parser import parse_program, render_program  # noqa: E402

DIGESTS = HERE / "contract.json"
FULL_DIGESTS = HERE / "contract_full.json"
EXPR = HERE / "expr"
RULES = HERE / "rules"
SECTIONS = ("infer", "check", "explore", "run", "replay", "comply", "graph",
            "expr", "diagnostics", "rules")
FULL_SECTIONS = ("kpar", "genprog", "budgets", "large")
MODES = ("plain", "detect")
FORMATS = ((), ("--json",))
# each endpoint check's offence; within an endpoint unguarded recursion
# wins, then the first rebinding, then the first unbound value, recursion
# and session variable by name; the first endpoint with an offence wins,
# and a later syntax error wins over all of them
BAD_PROGRAMS = (
    "request a(x). rec X. X | accept a(y). 0",
    "fun f(): bool\nrequest a(x). rec X. if f() then X else 0\n"
    "| accept a(y). 0",
    "request a(x). x!<1>. 0 | accept a(y). rec Y. y>+{l: Y, r: rec Z. Z}",
    "request a(x). x>+{l: rec X. rec Y. X, r: x?(v: int). x?(v: int). 0}"
    " | accept a(y). 0",
    "request a(x). rec X. x!<1>. rec X. X | accept a(y). 0",
    "request a(x). x?(v: int). x?(v: str). 0"
    " | accept a(y). y!<1>. y!<\"s\">. 0",
    "request a(x). rec X. x!<1>. rec X. x!<2>. X | accept a(y). 0",
    "request a(x). x?(x: int). 0 | accept a(y). 0",
    "  request a(x). x>+{l: x?(v: int). x?(v: int). 0,"
    " r: rec X. x!<1>. rec X. x!<1>. X} | accept a(y). 0",
    "request a(x). x!<1>. 0\n| (accept a(y). y?(v: int). y?(v: int). 0)",
    "request a(x). x?(v: int). x?(v: int). rec X. X | accept a(y). 0",
    "request a(x). q!<zz>. rec X. rec X. x!<1>. X | accept a(y). 0",
    "request a(x). q!<1>. x!<zz>. x!<b>. Q | accept a(y). 0",
    "request a(x). q!<1>. p!<1>. if true then R else Q | accept a(y). 0",
    "request a(x). q!<1>. p!<1>. 0 | accept a(y). 0",
    "request a(x). q!<1>. 0 | accept a(y). rec Y. Y",
    "request a(x). x?(v: int). if v == w then x!<v>. 0 else 0\n"
    "| accept a(y). y!<1>. 0",
    "request a(x). if true then x?(v: int). 0 else x!<v>. 0"
    " | accept a(y). 0",
    "request a(x). if true then rec X. x!<1>. X else X | accept a(y). 0",
    "request a(x). rec X. (if true then x!<1>. X else (X))"
    " | accept a(y). 0",
    "request a(x). rec X. commit. X | accept a(y). rec Y. y?(v: int). Y",
    "request a(x). rec X. if true then rec Y. x!<1>. Y else X"
    " | accept a(y). 0",
    "request a(x). x>+{l: rec X. 0, r: X} | accept a(y). 0",
    "request a(x). x?(v: int). x?(v: int). x!<v>. 0"
    " | accept a(y). y!<1>. y!<2>. 0",
    " request a[1](x). 0 | accept a(y). 0",
    "request a[1](x). rec X. X | accept a(y). 0",
    "request a[1](x). x!<1>@2. 0 | accept a[2](y). y?(x: int)@1. 0",
    "request a[1](x). x?(x: int)@2. 0 | accept a[2](y). y!<1>@1. 0",
    "fun f(int): bool\nrequest a(x). if f(1 + w) then 0 else 0"
    " | accept a(y). 0",
    "request a(x). rec X. X | accept a(y). y?(v: int)",
    "request a(x). q!<zz>. 0 | accept a(y). 0 0",
    "request a(x). x?(v: int). x?(v: int). 0 | accept a(y). y!<1>. 0 $",
)
# each type check's offence: the first unguarded variable at its own
# token, else the free variable first by name at its first occurrence;
# `(+)` guards what follows it, and what it follows
BAD_TYPES = (
    "mu t. mu u. t",
    "brn[l: end; r: mu t. mu u. u]",
    "![int]. t",
    "mu t. brn[l: t; r: u]",
    "mu t. ![int].\n  brn[l: v; r: mu u. u]",
    "mu t. t (+) end",
    "mu t. (mu u. t) (+) end",
    "(mu u. u) (+) end",
    "end (+) mu u. u",
    "mu t. end (+) t",
    "mu t. (end (+) mu u. t)",
    "mu t. ((mu u. (t)))",
    "mu t. ![int]. (t (+) mu u. t)",
    "brn[l: zz; r: aa; s: mu t. aa]",
    "brn[l: u; r: mu t. cmt. t; s: mu v. v]",
    "mu t. t ]",
    "![int]. u (+)",
)


def _call(argv: list, names: tuple) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = (f"$ {' '.join(argv)}\n{out.getvalue()}{err.getvalue()}"
            f"exit {code}\n")
    for real, shown in names:
        text = text.replace(real, shown)
    return text


class _Transcript:
    """The text of every invocation, by section."""

    def __init__(self, tmp: Path, sections: tuple):
        self.tmp = tmp
        self.trace, self.dot = tmp / "trace.json", tmp / "graph.dot"
        self.names = ((str(self.trace), "TRACE"), (str(self.dot), "DOT"),
                      (str(corpus_dir()), "CORPUS"), (str(tmp), "TMP"))
        self.out: dict = {name: [] for name in sections}

    def call(self, section: str, *argv) -> None:
        self.out[section].append(_call([str(a) for a in argv], self.names))

    def written(self, section: str, path: Path) -> None:
        self.out[section].append(f"{path.name}:\n{path.read_text()}"
                                 if path.exists() else f"no {path.name}\n")

    def run(self, section: str, prog, *argv, fmt=(), replay=None) -> None:
        """`run prog argv --trace fmt` and the trace file, then the trace's
        replay in the run's mode and format, in section `replay` (by
        default `section` too)."""
        self.trace.unlink(missing_ok=True)
        self.call(section, "run", prog, *argv, "--trace", self.trace, *fmt)
        self.written(section, self.trace)
        if self.trace.exists():
            mode = argv[argv.index("--error-mode") + 1]
            self.call(replay or section, "replay", self.trace,
                      "--error-mode", mode, *fmt)

    def explore(self, section: str, prog, *argv) -> None:
        """`explore prog argv --dot`, and the dot file."""
        self.dot.unlink(missing_ok=True)
        self.call(section, "explore", prog, *argv, "--dot", self.dot)
        self.written(section, self.dot)

    def source(self, name: str, text: str) -> Path:
        path = self.tmp / name
        path.write_text(text, encoding="utf-8")
        return path

    def texts(self) -> dict:
        return {name: "".join(texts) for name, texts in self.out.items()}


def sections(tmp: Path) -> dict:
    """Section name -> the text of every invocation in it."""
    corpus = corpus_dir()
    t = _Transcript(tmp, SECTIONS)
    for prog in sorted(corpus.glob("*.chpi")):
        for fmt in FORMATS:
            t.call("infer", "infer", prog, *fmt)
            t.call("check", "check", prog, *fmt)
            for mode in MODES:
                t.call("explore", "explore", prog, "--depth", 12,
                       "--error-mode", mode, *fmt)
                for seed in (1, 3):
                    t.run("run", prog, "--seed", seed, "--error-mode",
                          mode, fmt=fmt, replay="replay")
    types = sorted(corpus.glob("*.chty"))
    for left in types:
        for right in types:
            for fmt in FORMATS:
                t.call("comply", "comply", left, right, *fmt)
            t.dot.unlink(missing_ok=True)
            t.call("graph", "graph", left, right, "--dot", t.dot)
            t.written("graph", t.dot)
    for path in sorted(EXPR.glob("*.chpi")):
        prog = t.source(path.name, path.read_text())
        for fmt in FORMATS:
            t.call("expr", "infer", prog, *fmt)
            t.call("expr", "check", prog, *fmt)
            for mode in MODES:
                for seed in (1, 2):
                    t.run("expr", prog, "--seed", seed, "--error-mode", mode,
                          fmt=fmt)
    for i, text in enumerate(BAD_PROGRAMS):
        t.call("diagnostics", "check", t.source(f"bad-{i}.chpi", text))
    end = t.source("end.chty", "end\n")
    for i, text in enumerate(BAD_TYPES):
        t.call("diagnostics", "comply", t.source(f"bad-{i}.chty", text), end)
    for path in sorted(RULES.glob("*.chpi")):
        prog = t.source(path.name, path.read_text())
        t.call("rules", "check", prog)
        for mode in MODES:
            t.explore("rules", prog, "--depth", 12, "--error-mode", mode)
            for seed in (1, 2):
                t.run("rules", prog, "--seed", seed, "--error-mode", mode,
                      "--max-steps", 12)
    return t.texts()


def _bench_gen():
    """`bench/gen.py`, the benchmark's input families, read as it is."""
    spec = importlib.util.spec_from_file_location(
        "contract_bench_gen", HERE.parent / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def _with_twin(t: _Transcript, name: str, text: str) -> list:
    """The program file and, for a binary program, its two-role twin's."""
    files = [t.source(f"{name}.chpi", text)]
    prog = parse_program(text)
    if not prog.multiparty:
        files.append(t.source(f"{name}-twin.chpi",
                              render_program(to_multiparty(prog))))
    return files


def full_sections(tmp: Path) -> dict:
    """`sections` for `--full`: the generated inputs."""
    gen = _bench_gen()
    corpus = corpus_dir()
    t = _Transcript(tmp, FULL_SECTIONS)

    rng = random.Random("contract")
    shapes = [(f"kpar-{k}", gen.kpar("c", k)) for k in (1, 2, 3)]
    shapes += [(f"ring-{n}", gen.ring(rng, "c", n)) for n in range(2, 7)]
    for name, text in shapes:
        for prog in _with_twin(t, name, text):
            t.call("kpar", "infer", prog)
            t.call("kpar", "check", prog)
            t.run("kpar", prog, "--seed", 1, "--error-mode", "detect")
            t.explore("kpar", prog, "--error-mode", "detect")

    rng = random.Random("contract-genprog")
    for i in range(40):
        made = genprog.random_program(rng, safe=i < 20)
        for prog in _with_twin(t, f"gen-{i}", render_program(made)):
            t.call("genprog", "check", prog)
            for mode in MODES:
                t.call("genprog", "explore", prog, "--depth", 10,
                       "--error-mode", mode)
            t.run("genprog", prog, "--seed", 1, "--error-mode", "detect",
                  "--max-steps", 200)

    for budget in (1, 3, 7):
        for prog in sorted(corpus.glob("*.chpi")):
            t.call("budgets", "check", prog, "--budget", budget)
            t.call("budgets", "explore", prog, "--depth", 12, "--budget",
                   budget)
        types = sorted(corpus.glob("*.chty"))
        for left in types:
            for right in types:
                t.call("budgets", "comply", left, right, "--budget", budget)

    rng = random.Random("check-large")
    inputs = [gen.menu(rng, "c", n, n, False) for n in (4, 8, 16)]
    inputs += [gen.menu(rng, "c", n, n, True) for n in (4, 8)]
    inputs += [gen.chain(rng, "c", k, False, v)
               for k in (10, 40, 80, 160) for v in (False, True)]
    inputs += [gen.chain(rng, "c", k, True, v)
               for k in (10, 40) for v in (False, True)]
    for inp in inputs:
        left = t.source(f"{inp.name}-left.chty", inp.left)
        right = t.source(f"{inp.name}-right.chty", inp.right)
        for fmt in FORMATS:
            t.call("large", "comply", left, right, *fmt)
            for prog in _with_twin(t, inp.name, inp.program):
                t.call("large", "check", prog, *fmt)
    # the benchmark's depth probes: deeper than a parser that took a Python
    # frame per nesting level could read
    rng = random.Random("probes")
    deep = gen.chain(rng, "c", 500, False, False)
    dense = gen.chain(rng, "c", 200, True, False)
    t.call("large", "comply", t.source("deep-left.chty", deep.left),
           t.source("deep-right.chty", deep.right))
    t.call("large", "check", t.source("deep.chpi", deep.program))
    t.call("large", "comply", t.source("dense-left.chty", dense.left),
           t.source("dense-right.chty", dense.right))
    return t.texts()


def transcripts(full: bool = False) -> dict:
    """Section name -> its text, of the corpus or (`full`) the generated
    inputs."""
    with tempfile.TemporaryDirectory() as tmp:
        return (full_sections if full else sections)(Path(tmp))


def digests(texts: dict) -> dict:
    return {name: {"sha256": hashlib.sha256(text.encode()).hexdigest(),
                   "lines": text.count("\n")}
            for name, text in texts.items()}


def main(argv: list) -> int:
    full = "--full" in argv
    texts = transcripts(full)
    if "--dump" in argv:
        dump = Path(argv[argv.index("--dump") + 1])
        dump.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (dump / f"{name}.txt").write_text(text, encoding="utf-8")
    got = digests(texts)
    path = FULL_DIGESTS if full else DIGESTS
    if "--write" in argv:
        path.write_text(json.dumps(got, indent=2) + "\n")
        return 0
    want = json.loads(path.read_text())
    for name in got:
        mark = "" if want.get(name) == got[name] else "  differs"
        print(f"{name:8} {got[name]['lines']:7} {got[name]['sha256']}{mark}")
    return 0 if want == got else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
