"""The command line's observable behaviour, as one digest per section.

    python3 tests/contract.py               # check against contract.json
    python3 tests/contract.py --write       # record the current digests
    python3 tests/contract.py --dump DIR    # also write each section's text

Runs `cli.main` in-process over the bundled corpus.  Sections:

- infer, check: every program, text and `--json`;
- explore: every program, `--depth 12`, both error modes, text and
  `--json`;
- run: every program, `--seed 1` and `--seed 3`, both error modes, text
  and `--json`, with `--trace`; the trace file is part of the section;
- replay: each of those traces, in its run's mode and output format;
- comply, graph: every ordered pair of corpus types, `comply` in text and
  `--json`, `graph --dot` with the file written.

Each invocation adds its arguments, stdout, stderr and exit code to its
section.  The corpus directory and the trace and dot paths are replaced by
fixed names, so the digests do not depend on where the tree lives.  A
section's digest is the SHA-256 of its text and its line count.  Imports
cherrypi from the `src/` next to this directory; needs no pytest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from cherrypi import cli, corpus_dir  # noqa: E402

DIGESTS = Path(__file__).with_name("contract.json")
SECTIONS = ("infer", "check", "explore", "run", "replay", "comply", "graph")
MODES = ("plain", "detect")
FORMATS = ((), ("--json",))


def _call(argv: list, names: tuple) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = (f"$ {' '.join(argv)}\n{out.getvalue()}{err.getvalue()}"
            f"exit {code}\n")
    for real, shown in names:
        text = text.replace(real, shown)
    return text


def sections(tmp: Path) -> dict:
    """Section name -> the text of every invocation in it."""
    corpus = corpus_dir()
    trace, dot = tmp / "trace.json", tmp / "graph.dot"
    names = ((str(trace), "TRACE"), (str(dot), "DOT"),
             (str(corpus), "CORPUS"))
    out: dict = {name: [] for name in SECTIONS}

    def call(section: str, *argv) -> None:
        out[section].append(_call([str(a) for a in argv], names))

    def written(section: str, path: Path) -> None:
        out[section].append(f"{path.name}:\n{path.read_text()}"
                            if path.exists() else f"no {path.name}\n")

    for prog in sorted(corpus.glob("*.chpi")):
        for fmt in FORMATS:
            call("infer", "infer", prog, *fmt)
            call("check", "check", prog, *fmt)
            for mode in MODES:
                call("explore", "explore", prog, "--depth", 12,
                     "--error-mode", mode, *fmt)
                for seed in (1, 3):
                    trace.unlink(missing_ok=True)
                    call("run", "run", prog, "--seed", seed, "--error-mode",
                         mode, "--trace", trace, *fmt)
                    written("run", trace)
                    if trace.exists():
                        call("replay", "replay", trace, "--error-mode",
                             mode, *fmt)
    types = sorted(corpus.glob("*.chty"))
    for left in types:
        for right in types:
            for fmt in FORMATS:
                call("comply", "comply", left, right, *fmt)
            dot.unlink(missing_ok=True)
            call("graph", "graph", left, right, "--dot", dot)
            written("graph", dot)
    return {name: "".join(texts) for name, texts in out.items()}


def digests(dump: Path | None = None) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        texts = sections(Path(tmp))
    if dump is not None:
        dump.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (dump / f"{name}.txt").write_text(text, encoding="utf-8")
    return {name: {"sha256": hashlib.sha256(text.encode()).hexdigest(),
                   "lines": text.count("\n")}
            for name, text in texts.items()}


def main(argv: list) -> int:
    dump = Path(argv[argv.index("--dump") + 1]) if "--dump" in argv \
        else None
    got = digests(dump)
    if "--write" in argv:
        DIGESTS.write_text(json.dumps(got, indent=2) + "\n")
        return 0
    want = json.loads(DIGESTS.read_text())
    for name in SECTIONS:
        mark = "" if want.get(name) == got[name] else "  differs"
        print(f"{name:8} {got[name]['lines']:7} {got[name]['sha256']}{mark}")
    return 0 if want == got else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
