"""Command line front end.

Exit codes: 0 success (or a compliant / safe / matching verdict), 1 a
violation or error verdict, 2 usage, parse, or input errors, 3 exploration
budget exceeded, input nested too deeply or out of memory, 4 internal error.

`comply`, `graph`, `check` and `infer` do not load `runtime`: the
subcommands that use it import it when they run.
"""

from __future__ import annotations

import argparse
import json
import sys

from .infer import TypingError, infer_collaboration
from .parser import ParseError, parse_program, parse_type, render_program
from .semantics import (BudgetExceeded, check_compliance,
                        check_rollback_safety, compliance_dot, dot_graph)
from .sessiontypes import render_type
from .syntax import MalformedInput, MalformedTerm


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise MalformedInput(f"{path}: not UTF-8 text ({e.reason} at byte "
                             f"{e.start})") from None


def _read_json(path: str):
    text = _read(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # `int()` refuses an integer past its digit limit
        raise MalformedInput(f"{path}: an integer has more than "
                             f"{sys.get_int_max_str_digits()} digits") \
            from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _at_least(least: int):
    """An argparse `type`: an integer no smaller than `least`."""
    def count(text: str) -> int:
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {n}")
        return n
    count.__name__ = "int"  # argparse says "invalid int value: 'x'"
    return count


def _emit(args, payload: dict, text_lines: list) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _states(n: int) -> str:
    return f"{n} state" if n == 1 else f"{n} states"


def _dq(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_infer(args) -> int:
    program = parse_program(_read(args.file))
    rendered = {name: render_type(t)
                for name, t in infer_collaboration(program.term).items()}
    _emit(args, rendered, [f"{k}: {v}" for k, v in rendered.items()])
    return 0


def cmd_check(args) -> int:
    program = parse_program(_read(args.file))
    report = check_rollback_safety(program.term, args.budget)
    data = report.to_json()
    lines = [data["verdict"]]
    for name, svc in data["services"].items():
        lines.append(f"  service {name}: {svc['verdict']} "
                     f"({svc['states']} states, {svc['edges']} edges)")
        for v in svc["violations"]:
            lines.append(f"    violating terminal {v['state']}: "
                         f"{' -> '.join(v['path']) or '<initial>'}")
    _emit(args, data, lines)
    return 0 if report.safe else 1


def cmd_comply(args) -> int:
    t1 = parse_type(_read(args.left))
    t2 = parse_type(_read(args.right))
    report = check_compliance(t1, t2, budget=args.budget)
    data = report.to_json()
    lines = [data["verdict"],
             f"  {data['states']} states, {data['edges']} edges"]
    for v in data["violations"]:
        lines.append(f"  violating terminal {v['state']}: "
                     f"{' -> '.join(v['path']) or '<initial>'}")
        for party, side in v["terminal"].items():
            mark = "^imposed" if side["imposed"] else ""
            lines.append(f"    {party}: <{side['checkpoint']}>{mark} "
                         f"{side['current']}")
    _emit(args, data, lines)
    return 0 if report.compliant else 1


def _oracle_from(args):
    from .runtime import DecisionOracle
    if args.script is not None:
        script = _read_json(args.script)
        return DecisionOracle("scripted", script)
    if args.seed is not None:
        return DecisionOracle("seeded-random", seed=args.seed)
    return DecisionOracle()


def cmd_run(args) -> int:
    from .runtime import simulate
    program = parse_program(_read(args.file))
    oracle = _oracle_from(args)
    trace = simulate(program, oracle, max_steps=args.max_steps,
                     mode=args.error_mode)
    # only a trace file and JSON output hold the rendered states
    data = trace.to_json() if args.trace or args.json else None
    if args.trace:
        _write(args.trace, json.dumps(data, indent=2) + "\n")
    lines = [render_program(program)]
    for k, step in enumerate(trace.steps):
        lines.append(f"{k + 1}. {step.label()}")
    lines.append(f"status: {trace.status}")
    _emit(args, data, lines)
    return 0 if trace.status in ("completed", "cut-off") else 1


def cmd_explore(args) -> int:
    from .runtime import explore
    program = parse_program(_read(args.file))
    report = explore(program, depth=args.depth, mode=args.error_mode,
                     budget=args.budget)
    if args.dot:
        _write(args.dot, _explore_dot(report))
    data = report.to_json()
    lines = [f"{data['states']} states, {data['edges']} edges, "
             f"{data['completed']} completed (depth {data['depth']})"]
    for entry in report.errors + report.stuck:
        lines.append(f"  {entry.kind} at state {entry.state}: "
                     f"{' -> '.join(entry.path) or '<initial>'}")
        if entry.script:
            lines.append(f"    script: {json.dumps(entry.script)}")
    if report.ok:
        lines.append("no errors, no stuck states")
    _emit(args, data, lines)
    return 0 if report.ok else 1


def _explore_dot(report) -> str:
    bad = {e.state for e in report.errors} | {e.state for e in report.stuck}
    return dot_graph("explored", len(report.system.nodes),
                     ((src, dst, f"{_dq(rule)} {_dq(text)}")
                      for src, dst, rule, text, _ in report.transitions), bad)


def cmd_graph(args) -> int:
    t1 = parse_type(_read(args.left))
    t2 = parse_type(_read(args.right))
    report = check_compliance(t1, t2, budget=args.budget)
    dot = compliance_dot(report)
    if args.dot:
        _write(args.dot, dot)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    elif not args.dot:
        sys.stdout.write(dot)
    return 0 if report.compliant else 1


def cmd_replay(args) -> int:
    from .runtime import replay
    trace_json = _read_json(args.trace)
    program = parse_program(_read(args.program)) if args.program else None
    report = replay(trace_json, mode=args.error_mode, program=program)
    payload = {"ok": report.ok, "divergence": report.divergence}
    lines = (["replay ok"] if report.ok
             else [f"replay diverged: {report.divergence}"])
    _emit(args, payload, lines)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cherrypi",
        description="Checkpointed session calculus: inference, compliance "
                    "checking, execution, and exploration.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, budget=False, mode=False):
        p.add_argument("--json", action="store_true",
                       help="machine readable output")
        if budget:
            p.add_argument("--budget", type=_at_least(1), default=None,
                           help="state budget (default CHERRY_BUDGET or "
                                "1000000)")
        if mode:
            p.add_argument("--error-mode", choices=("plain", "detect"),
                           default="plain", help="communication safety "
                           "checking during execution")

    p = sub.add_parser("infer", help="session types of a program")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("check", help="rollback safety of a program")
    p.add_argument("file")
    common(p, budget=True)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("comply", help="compliance of a type pair")
    p.add_argument("left")
    p.add_argument("right")
    common(p, budget=True)
    p.set_defaults(fn=cmd_comply)

    p = sub.add_parser("run", help="run a program to completion")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=None,
                   help="seeded random decisions")
    p.add_argument("--script", default=None,
                   help="JSON file scripting decision outcomes")
    p.add_argument("--max-steps", type=_at_least(0), default=1000)
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="record the run as a replayable trace file")
    common(p, mode=True)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("explore",
                       help="exhaustive bounded exploration of a program")
    p.add_argument("file")
    p.add_argument("--depth", type=_at_least(0), default=30)
    p.add_argument("--dot", default=None, metavar="PATH",
                   help="write the explored graph as Graphviz text")
    common(p, budget=True, mode=True)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("graph",
                       help="reachable configuration graph of a type pair")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--dot", default=None, metavar="PATH",
                   help="write Graphviz text here instead of stdout")
    common(p, budget=True)
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("replay", help="re-run a recorded trace")
    p.add_argument("trace")
    p.add_argument("program", nargs="?", default=None,
                   help="program file (defaults to the one embedded in "
                        "the trace)")
    common(p, mode=True)
    # no explicit flag: let the recorded labels pick the mode
    p.set_defaults(fn=cmd_replay, error_mode=None)

    return ap


# the exceptions reported as input errors (exit 2); a bad budget and the
# runtime's oracle and exploration errors are `MalformedInput`s
_INPUT_ERRORS = (ParseError, TypingError, MalformedTerm, MalformedInput,
                 OSError, json.JSONDecodeError)


def main(argv: list | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as e:
        print(f"error: {e} ({_states(e.states)} found, stopped while "
              f"expanding BFS layer {e.depth}, which held "
              f"{_states(e.frontier)})", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"error: input nested too deeply (Python recursion limit "
              f"{sys.getrecursionlimit()} reached)", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory (the input needs more memory than "
              "this process could get)", file=sys.stderr)
        return 3
    except Exception as e:  # never a traceback, never a verdict's code
        print(f"error: internal error: {type(e).__name__}: {e}",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
