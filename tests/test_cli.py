"""End-to-end exercises of the ``cherrypi`` command line.

Everything runs in-process through ``cli.main`` so the pinned outputs stay
cheap to check; exit codes follow the usual convention (0 ok / 1 negative
verdict or failed run / 2 usage or input error / 3 budget or input nested
too deeply / 4 internal error / 141 standard output's reader left early).
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cherrypi
from cherrypi import corpus_dir
from cherrypi.cli import main
from cherrypi.parser import parse_program, parse_type, render_program
from cherrypi.runtime import DecisionOracle, explore, simulate
from cherrypi.semantics import check_compliance, check_rollback_safety
from cherrypi.sessiontypes import render_type
from cherrypi.syntax import par_parts
from genprog import random_program, random_type
from test_dispatch import _chain

CORPUS = corpus_dir()


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def steps_of(output):
    """The numbered step lines of a ``run``/``replay`` transcript."""
    lines = []
    for line in output.splitlines():
        head, dot, rest = line.partition(". ")
        if dot and head.isdigit():
            lines.append(rest)
    return lines


# ---------------------------------------------------------------- infer

def test_python_m_cherrypi_runs_the_command_line():
    program = CORPUS / "vod_b.chpi"
    src = str(Path(cherrypi.__file__).parents[1])
    done = subprocess.run([sys.executable, "-m", "cherrypi", "infer",
                           str(program)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout, done.stderr) == \
        cli("infer", program)


def test_infer_prints_both_endpoint_types():
    code, out, _ = cli("infer", CORPUS / "vod_b.chpi")
    assert code == 0
    assert out == (
        "~a: ![str]. ?[int]. cmt. ?[str]. "
        "((sel[l_HD]. ?[str]. ((?[str]. end) (+) roll)) "
        "(+) sel[l_SD]. ?[str]. ((?[str]. end) (+) abt))\n"
        "a: ?[str]. ![int]. ![str]. "
        "brn[l_HD: cmt. ![str]. ![str]. end; "
        "l_SD: cmt. ![str]. ![str]. end]\n"
    )


# ---------------------------------------------------------------- check

def test_check_unsafe_program_exits_one():
    code, out, _ = cli("check", CORPUS / "vod_b.chpi")
    assert code == 1
    assert out == (
        "not rollback safe\n"
        "  service a: violating (20 states, 20 edges)\n"
        "    violating terminal 18: TS-Com -> TS-Com -> TS-Cmt1 -> TS-Com"
        " -> TS-Tau -> TS-Lab -> TS-Cmt1 -> TS-Com -> TS-Tau -> TS-Rll2\n"
    )


def test_check_safe_program_exits_zero():
    code, out, _ = cli("check", CORPUS / "vod_c.chpi")
    assert code == 0
    assert out == "rollback safe\n  service a: compliant (17 states, 20 edges)\n"


def test_check_covers_multiparty_services():
    code, out, _ = cli("check", CORPUS / "three_party_job.chpi")
    assert code == 0
    assert out == "rollback safe\n  service a: compliant (8 states, 8 edges)\n"


# ------------------------------------------------------ role tags, all or none

# a program tags every endpoint and every prefix with a role, or none of
# them; a mix is refused as the program is parsed, by every subcommand
MIXED_TAGS = {
    "tagged-output": "request a(x). x!<1>@2. 0 | accept a(y). y?(v: int). 0",
    "untagged-output":
        "request a[2](x). x!<1>. 0 | accept a[1](y). y?(v: int)@2. 0",
    "untagged-lone-output": "request a[2](x). x!<1>. 0 | accept a[1](y). 0",
}


@pytest.mark.parametrize("command", ["check", "infer", "run", "explore"])
@pytest.mark.parametrize("name", MIXED_TAGS)
def test_prefix_role_tags_that_mix_with_untagged_ones_are_refused(
        tmp_path, name, command):
    path = tmp_path / "mixed.chpi"
    path.write_text(MIXED_TAGS[name])
    assert cli(command, path) == (
        2, "", "error: 1:1: mixed multiparty and binary endpoints\n")


# ---------------------------------------------------------------- comply

def test_comply_compliant_pair():
    code, out, _ = cli("comply", CORPUS / "consumer.chty", CORPUS / "producer.chty")
    assert code == 0
    assert out == "compliant\n  10 states, 12 edges\n"


def test_comply_names_roles_when_the_types_name_their_own(tmp_path):
    # types whose prefixes name their own roles are reported like an n-role
    # service: parties by role, rules with the M- prefix
    left, right = tmp_path / "left.chty", tmp_path / "right.chty"
    left.write_text("![2,1][int]. ![2,1][int]. end\n")
    right.write_text("?[1,2][int]. ?[1,2][str]. end\n")
    code, out, _ = cli("comply", left, right)
    assert code == 1
    assert out == (
        "violating\n"
        "  2 states, 1 edges\n"
        "  violating terminal 1: M-TS-Com\n"
        "    role2: <![2,1][int]. ![2,1][int]. end> ![2,1][int]. end\n"
        "    role1: <?[1,2][int]. ?[1,2][str]. end> ?[1,2][str]. end\n")


def test_comply_violating_pair_lists_terminals():
    code, out, _ = cli(
        "comply", CORPUS / "consumer.chty", CORPUS / "producer_commit.chty"
    )
    assert code == 1
    assert out == (
        "violating\n"
        "  18 states, 22 edges\n"
        "  violating terminal 16: TS-Com -> TS-Tau -> TS-Lab -> TS-Com"
        " -> TS-Com -> TS-Tau -> TS-Cmt1 -> TS-Rll2\n"
        "    party1: <roll>^imposed err\n"
        "    party2: <mu t. ?[str]. ((sel[l_spec]. ![str]. ![str]. cmt. t)"
        " (+) sel[l_nonSpec]. ![str]. cmt. t)> err\n"
        "  violating terminal 17: TS-Com -> TS-Tau -> TS-Lab -> TS-Com"
        " -> TS-Com -> TS-Cmt1 -> TS-Tau -> TS-Rll2\n"
        "    party1: <(roll (+) cmt. mu t. ![str]."
        " brn[l_spec: ?[str]. ?[str]. (roll (+) cmt. t);"
        " l_nonSpec: ?[str]. cmt. t])>^imposed err\n"
        "    party2: <mu t. ?[str]. ((sel[l_spec]. ![str]. ![str]. cmt. t)"
        " (+) sel[l_nonSpec]. ![str]. cmt. t)> err\n"
    )


# ---------------------------------------------------------------- run / replay

def test_run_detect_hits_roll_error(tmp_path):
    script = tmp_path / "s.json"
    script.write_text(json.dumps({"f_eval": [True], "f_HD": [False]}))
    trace = tmp_path / "t.json"
    code, out, _ = cli(
        "run", CORPUS / "vod_b.chpi", "--script", script,
        "--error-mode", "detect", "--trace", trace,
    )
    assert code == 1
    assert out.endswith("status: roll_error\n")
    assert steps_of(out) == [
        "F-Con a:s1",
        'F-Com s1:p1 !"attack of the killer tomatoes"',
        "F-Com s1:p2 !3",
        "E-Cmt1 s1:p1 commit",
        'F-Com s1:p2 !"trailer"',
        "F-If s1:p1 then",
        "F-Lab s1:p1 +l_HD",
        "E-Cmt1 s1:p2 commit",
        'F-Com s1:p2 !"hd-part-1"',
        "F-If s1:p1 else",
        "E-Rll2 s1:p1 roll",
    ]
    # the emitted trace replays on its own, no flags needed
    assert cli("replay", trace) == (0, "replay ok\n", "")


def test_run_completed_exits_zero(tmp_path):
    script = tmp_path / "s.json"
    script.write_text(
        json.dumps({"f_eval": [True, False], "f_HD": [False], "f_SD": [True]})
    )
    trace = tmp_path / "t.json"
    code, out, _ = cli(
        "run", CORPUS / "vod_c.chpi", "--script", script,
        "--error-mode", "detect", "--trace", trace,
    )
    assert code == 0
    assert out.endswith("status: completed\n")
    assert "E-Rll1 s1:p1 roll" in out  # recovered mid-run, then finished
    assert cli("replay", trace)[0] == 0


def test_run_replay_multiparty(tmp_path):
    trace = tmp_path / "t.json"
    code, out, _ = cli(
        "run", CORPUS / "three_party_job.chpi",
        "--seed", "7", "--error-mode", "detect", "--trace", trace,
    )
    assert code == 0
    assert steps_of(out) == [
        "M-F-Con a:s1",
        'M-F-Com s1:p1 !"batch-7"',
        "M-F-Com s1:p2 !7",
        "M-F-Com s1:p3 !7",
        "M-E-Cmt1 s1:p1 commit",
        "M-F-If s1:p1 then",
        "M-F-Lab s1:p1 +l_ok",
    ]
    # replay infers both the error mode and the party count from the trace
    assert cli("replay", trace) == (0, "replay ok\n", "")
    assert cli("replay", trace, "--error-mode", "detect")[0] == 0
    # forcing the wrong mode must report the divergence, not mask it
    code, out, _ = cli("replay", trace, "--error-mode", "plain")
    assert code == 1
    assert out == (
        "replay diverged: step 4: label 'M-F-Cmt s1:p1 commit'"
        " != 'M-E-Cmt1 s1:p1 commit'\n"
    )


@pytest.mark.parametrize("mode", ["plain", "detect"])
def test_text_run_renders_no_state(monkeypatch, mode):
    # a text transcript is the program, the step labels and the status;
    # only a trace file and JSON output need the states rendered, so a text
    # run renders only the program's own endpoints
    import cherrypi.parser as parser
    import cherrypi.runtime as runtime
    shown = []

    def counting(c):
        shown.append(c)
        return show(c)
    show = parser.show_collaboration
    for path in sorted(CORPUS.glob("*.chpi")):
        program = parser.parse_program(path.read_text())
        trace = runtime.simulate(
            program, runtime.DecisionOracle("seeded-random", seed=3),
            mode=mode)
        data = trace.to_json()
        want = "".join(f"{line}\n" for line in [
            data["initial"],
            *(f"{k + 1}. {s['label']}" for k, s in enumerate(data["steps"])),
            f"status: {trace.status}"])
        monkeypatch.setattr(runtime, "show_collaboration", counting)
        monkeypatch.setattr(parser, "show_collaboration", counting)
        code, out, _ = cli("run", path, "--seed", "3", "--error-mode", mode)
        monkeypatch.undo()
        assert out == want and len(data["steps"]) > 3
        assert shown == list(par_parts(program.term))
        shown.clear()


def test_a_trace_through_a_nested_comparison_replays(tmp_path):
    # the trace shows each state as source: the renderer must keep the
    # parentheses of `(1 == 1) == true`, since `==` does not chain
    prog, trace = tmp_path / "p.chpi", tmp_path / "t.json"
    prog.write_text("request a(x). if (1 == 1) == true then x!<1>. 0 "
                    "else x!<2>. 0 | accept a(y). y?(v: int). 0")
    code, out, _ = cli("run", prog, "--trace", trace)
    assert code == 0 and "if (1 == 1) == true then" in out
    assert cli("replay", trace) == (0, "replay ok\n", "")


def test_replay_of_an_underfunded_transcript_diverges(tmp_path):
    trace = tmp_path / "t.json"
    assert cli("run", CORPUS / "vod_c.chpi", "--seed", "2",
               "--trace", trace)[0] == 0
    data = json.loads(trace.read_text())
    data["oracle"]["transcript"].pop()
    trace.write_text(json.dumps(data))
    code, out, err = cli("replay", trace)
    assert (code, err) == (1, "")
    assert out.startswith("replay diverged: step ")
    assert "script has no value for call #" in out


_IN_DOMAIN = ("fun f(): int in { 1, 2 }\n"
              "request a(x). x!<f()>. 0 | accept a(y). y?(v: int). 0\n")


def test_a_scripted_value_outside_its_domain_exits_two(tmp_path):
    prog, script = tmp_path / "p.chpi", tmp_path / "s.json"
    prog.write_text(_IN_DOMAIN)
    script.write_text(json.dumps({"f": [7]}))
    assert cli("run", prog, "--script", script) == (
        2, "", "error: oracle produced 7 for 'f', which is not in its "
               "domain [1, 2]\n")


def test_replay_of_a_value_outside_its_domain_diverges(tmp_path):
    # the trace a run wrote before scripted values were held to their
    # domain: `explore` never reaches its second state
    prog, script, trace = (tmp_path / n for n in ("p.chpi", "s.json",
                                                  "t.json"))
    prog.write_text(_IN_DOMAIN)
    script.write_text(json.dumps({"f": [2]}))
    assert cli("run", prog, "--script", script, "--trace", trace)[0] == 0
    data = json.loads(trace.read_text().replace("!2", "!7"))
    assert data["oracle"]["transcript"] == [["f", 2]]
    data["oracle"]["transcript"] = [["f", 7]]
    trace.write_text(json.dumps(data))
    assert cli("replay", trace) == (
        1, "replay diverged: step 1: oracle produced 7 for 'f', which is "
           "not in its domain [1, 2]\n", "")


def test_a_scripted_value_of_another_sort_exits_two(tmp_path):
    prog, script = tmp_path / "p.chpi", tmp_path / "s.json"
    prog.write_text("fun f(): bool\n"
                    "request a(x). if f() then 0 else 0 | accept a(y). 0\n")
    script.write_text(json.dumps({"f": [1]}))
    assert cli("run", prog, "--script", script) == (
        2, "", "error: oracle produced 1 for 'f', which is not of sort "
               "bool\n")


def test_replay_of_a_trace_with_an_extra_step_diverges(tmp_path):
    prog, trace = tmp_path / "p.chpi", tmp_path / "t.json"
    prog.write_text("request a(x). x!<1>. x!<2>. 0 "
                    "| accept a(y). y?(v: int). y?(w: int). 0\n")
    assert cli("run", prog, "--trace", trace)[0] == 0
    data = json.loads(trace.read_text())
    data["steps"].append(data["steps"][-1])
    trace.write_text(json.dumps(data))
    assert cli("replay", trace) == (
        1, "replay diverged: trace length 3 != recorded 4\n", "")


# ---------------------------------------------------------------- imports

def _fresh_main(*argvs) -> str:
    """In a fresh interpreter, run `cli.main` on each argv in turn; the
    exit codes, then which of `runtime` and `multiparty` got loaded."""
    script = ("import sys\n"
              "from cherrypi import cli\n"
              f"codes = [cli.main(argv) for argv in {list(argvs)!r}]\n"
              "print(*codes, [m for m in ('cherrypi.runtime', "
              "'cherrypi.multiparty') if m in sys.modules])\n")
    src = str(Path(cherrypi.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


@pytest.mark.parametrize("command", ["comply", "graph"])
def test_type_level_subcommands_load_no_runtime(command):
    """In a fresh interpreter, `comply` and `graph` leave `runtime` and
    `multiparty` unloaded."""
    assert _fresh_main([command, str(CORPUS / "consumer.chty"),
                        str(CORPUS / "producer.chty")]) == "0 []"


def test_binary_check_and_infer_load_no_runtime():
    """`check` and `infer` of a binary program leave `runtime` and
    `multiparty` unloaded too: n-role inference lives in `infer`."""
    program = str(CORPUS / "producer_consumer.chpi")
    assert _fresh_main(["check", program], ["infer", program]) == "0 0 []"


# ---------------------------------------------------------------- graph / explore

def test_graph_dot_output(tmp_path):
    dot = tmp_path / "g.dot"
    code, out, _ = cli(
        "graph", CORPUS / "consumer.chty", CORPUS / "producer.chty", "--dot", dot
    )
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph reachable {")
    assert "rankdir=LR;" in text
    assert 'n0 [label="0", style=bold];' in text
    assert 'n0 -> n1 [label="TS-Com com[str] p1"];' in text
    assert text.count("->") == 12


def test_graph_writes_its_dot_text_without_a_file():
    code, out, _ = cli("graph", CORPUS / "consumer.chty",
                       CORPUS / "producer.chty")
    assert code == 0 and out.startswith("digraph reachable {\n")


def test_a_script_that_is_not_json_exits_two(tmp_path):
    script = tmp_path / "s.json"
    script.write_text("{")
    assert cli("run", CORPUS / "vod_c.chpi", "--script", script) == (
        2, "", "error: Expecting property name enclosed in double quotes: "
               "line 1 column 2 (char 1)\n")


def test_graph_json_output():
    code, out, _ = cli(
        "graph", CORPUS / "consumer.chty", CORPUS / "producer.chty", "--json"
    )
    assert code == 0
    assert json.loads(out) == {
        "verdict": "compliant",
        "states": 10,
        "edges": 12,
        "violations": [],
    }


def test_explore_json_output():
    code, out, _ = cli(
        "explore", CORPUS / "vod_c.chpi", "--depth", "40",
        "--error-mode", "detect", "--json",
    )
    assert code == 0
    assert json.loads(out) == {
        "states": 19,
        "edges": 22,
        "depth": 40,
        "completed": 1,
        "errors": [],
        "stuck": [],
    }


# a guard whose false branch two domain values take: one F-If edge, not two
_TWO_VALUES_ONE_BRANCH = (
    "fun f(): int in { 1, 2, 3 }\n"
    "request a(x). if f() == 1 then x!<1>. 0 else x!<2>. 0"
    " | accept a(y). y?(v: int). 0\n")


def test_explore_counts_transitions_not_values_drawn(tmp_path):
    prog = tmp_path / "twice.chpi"
    prog.write_text(_TWO_VALUES_ONE_BRANCH)
    code, out, _ = cli("explore", prog, "--depth", "5", "--json")
    assert code == 0
    assert (json.loads(out)["states"], json.loads(out)["edges"]) == (5, 5)
    dot = tmp_path / "twice.dot"
    assert cli("explore", prog, "--depth", "5", "--dot", dot)[0] == 0
    arrows = [ln for ln in dot.read_text().splitlines() if "->" in ln]
    assert len(arrows) == len(set(arrows)) == 5
    assert '  n1 -> n2 [label="F-If s1:p1 else"];' in arrows


@pytest.mark.parametrize("depth", ["1", "2"])
def test_a_stuck_state_is_reported_on_and_behind_the_depth_cut(tmp_path,
                                                               depth):
    # at depth 1 state 1 is on the cut frontier, stepped but not expanded;
    # at depth 2 it is expanded; either way it has no step
    prog = tmp_path / "stuck.chpi"
    prog.write_text("request a(x). x!<1>. 0 | accept a(y). y!<2>. 0\n")
    assert cli("explore", prog, "--depth", depth) == (
        1, f"2 states, 1 edges, 0 completed (depth {depth})\n"
           "  stuck at state 1: F-Con a:s1\n", "")


def test_exit_codes_are_the_library_verdicts_on_generated_inputs(tmp_path):
    # safe and unsafe programs, with and without int guards, and type
    # pairs: each command exits 0 exactly when the library's report says
    # so, and otherwise 1, never 2, 3 or 4
    src, trace = tmp_path / "p.chpi", tmp_path / "t.json"
    left, right = tmp_path / "l.chty", tmp_path / "r.chty"
    for seed in range(40):
        rng = random.Random(seed)
        src.write_text(render_program(random_program(
            rng, safe=seed % 2 == 0, int_guards=seed % 4 >= 2)))
        left.write_text(render_type(random_type(rng)))
        right.write_text(render_type(random_type(rng)))
        prog = parse_program(src.read_text())
        run = simulate(prog, DecisionOracle("seeded-random", seed=seed),
                       max_steps=40, mode="detect")
        verdicts = [
            (("check", src), check_rollback_safety(prog.term).safe),
            (("comply", left, right), check_compliance(
                parse_type(left.read_text()),
                parse_type(right.read_text())).compliant),
            (("explore", src, "--depth", 10, "--error-mode", "detect"),
             explore(prog, depth=10, mode="detect").ok),
            (("run", src, "--seed", seed, "--max-steps", 40,
              "--error-mode", "detect", "--trace", trace),
             run.status in ("completed", "cut-off")),
            (("replay", trace), True)]
        for argv, ok in verdicts:
            assert cli(*argv)[0] == (0 if ok else 1), (seed, argv)


# ---------------------------------------------------------------- failure modes

def test_budget_flag_exits_three():
    code, out, err = cli("check", CORPUS / "vod_b.chpi", "--budget", "3")
    assert code == 3
    assert err == ("error: state budget of 3 exceeded (3 states found, "
                   "stopped while expanding BFS layer 2, which held 1 "
                   "state)\n")


def test_malformed_budget_env_var_exits_two(monkeypatch):
    monkeypatch.setenv("CHERRY_BUDGET", "lots")
    code, out, err = cli("check", CORPUS / "vod_b.chpi")
    assert code == 2
    assert out == ""
    assert err == "error: CHERRY_BUDGET must be an integer, got 'lots'\n"


@pytest.mark.parametrize("value", ["-1", "0"])
def test_non_positive_budget_env_var_exits_two(monkeypatch, value):
    monkeypatch.setenv("CHERRY_BUDGET", value)
    assert cli("explore", CORPUS / "vod_b.chpi") == (
        2, "", f"error: CHERRY_BUDGET must be positive, got '{value}'\n")


@pytest.mark.parametrize("argv, message", [
    (("check", "vod_b.chpi", "--budget", "-3"),
     "argument --budget: must be at least 1, got -3"),
    (("check", "vod_b.chpi", "--budget", "0"),
     "argument --budget: must be at least 1, got 0"),
    (("explore", "vod_b.chpi", "--budget", "-3"),
     "argument --budget: must be at least 1, got -3"),
    (("explore", "vod_b.chpi", "--depth", "-1"),
     "argument --depth: must be at least 0, got -1"),
    (("run", "vod_b.chpi", "--max-steps", "-2"),
     "argument --max-steps: must be at least 0, got -2"),
    (("run", "vod_b.chpi", "--max-steps", "many"),
     "argument --max-steps: invalid int value: 'many'"),
], ids=["negative-budget", "zero-budget", "explore-budget", "negative-depth",
        "negative-max-steps", "word-max-steps"])
def test_out_of_range_numeric_flag_exits_two(capsys, argv, message):
    command, name, *flags = argv
    with pytest.raises(SystemExit) as stop:
        main([command, str(CORPUS / name), *flags])
    assert stop.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"cherrypi {command}: error: {message}\n")


def test_zero_depth_and_steps_are_in_range():
    assert cli("explore", CORPUS / "vod_b.chpi", "--depth", "0")[1] == (
        "1 states, 0 edges, 0 completed (depth 0)\n"
        "no errors, no stuck states\n")
    code, out, _ = cli("run", CORPUS / "vod_b.chpi", "--max-steps", "0")
    assert (code, out.splitlines()[-1]) == (0, "status: cut-off")


@pytest.mark.parametrize("argv", [
    ("infer", "{bad}"), ("check", "{bad}"),
    ("comply", "{bad}", "{chty}"), ("comply", "{chty}", "{bad}"),
    ("graph", "{bad}", "{chty}"), ("run", "{chpi}", "--script", "{bad}"),
    ("replay", "{bad}"), ("explore", "{bad}"),
], ids=lambda argv: "-".join(a.strip("{}") for a in argv if a[0] != "-"))
def test_non_utf8_file_is_an_input_error(tmp_path, argv):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00")
    paths = {"bad": bad, "chty": CORPUS / "consumer.chty",
             "chpi": CORPUS / "vod_c.chpi"}
    code, out, err = cli(*(a.format(**paths) for a in argv))
    assert (code, out) == (2, "")
    assert err == (f"error: {bad}: not UTF-8 text "
                   f"(invalid start byte at byte 0)\n")


def test_missing_file_exits_two():
    code, _, err = cli("check", "/nonexistent.chpi")
    assert code == 2
    assert "No such file" in err


def test_parse_error_exits_two(tmp_path):
    bad = tmp_path / "bad.chpi"
    bad.write_text("request a(x. 0 | accept a(y). 0")
    code, out, err = cli("check", bad)
    assert code == 2
    assert out == ""
    assert err == "error: 1:12: expected ')', found '.'\n"


def test_non_decimal_digit_is_a_parse_error(tmp_path):
    bad = tmp_path / "bad.chpi"
    bad.write_text("request a[²](x). 0 | accept a[1](y). 0")
    assert cli("check", bad) == (
        2, "", "error: 1:11: unexpected character '²'\n")


@pytest.fixture
def digit_limit():
    """`int()`'s digit limit set to CPython's default, 4,300, for the test
    alone, whatever the interpreter started with."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts integers of any length")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


LONG = "7" * 5000  # an integer past the digit limit


@pytest.mark.parametrize("text, at", [
    (f"request a(x). x!<{LONG}>. 0 | accept a(y). y?(v: int). 0", 18),
    (f"request a[{LONG}](x). x!<1>@1. 0 | accept a[1](y). y?(v: int)@2. 0",
     11),
    (f"request a[2](x). x!<1>@{LONG}. 0 | accept a[1](y). y?(v: int)@2. 0",
     24),
    (f"fun f(): int in {{ 1, {LONG} }}\n"
     "request a(x). x!<f()>. 0 | accept a(y). y?(v: int). 0", 22),
], ids=["literal", "arity", "role-tag", "domain"])
def test_an_integer_past_the_digit_limit_is_a_parse_error(tmp_path,
                                                          digit_limit, text,
                                                          at):
    bad = tmp_path / "bad.chpi"
    bad.write_text(text)
    for command in ("check", "run", "explore"):
        assert cli(command, bad) == (
            2, "", f"error: 1:{at}: integer of more than 4300 digits\n")


def test_a_type_role_past_the_digit_limit_is_a_parse_error(tmp_path,
                                                           digit_limit):
    left, right = tmp_path / "l.chty", tmp_path / "r.chty"
    left.write_text(f"![_,{LONG}][int]. end")
    right.write_text("?[1,_][int]. end")
    assert cli("comply", left, right) == (
        2, "", "error: 1:5: integer of more than 4300 digits\n")


@pytest.mark.parametrize("command, flag", [("run", "--script"),
                                           ("replay", None)])
def test_json_with_an_integer_past_the_digit_limit_exits_two(
        tmp_path, digit_limit, command, flag):
    path = tmp_path / "in.json"
    path.write_text(f'{{"f_HD": [{LONG}]}}')
    argv = [CORPUS / "vod_c.chpi", flag, path] if flag else [path]
    assert cli(command, *argv) == (
        2, "", f"error: {path}: an integer has more than 4300 digits\n")


def test_a_computed_integer_past_the_digit_limit_exits_two(tmp_path,
                                                           digit_limit):
    # the type-level check never computes it
    nines = "9" * 4300
    program = tmp_path / "sum.chpi"
    program.write_text(f"request a(x). x!<{nines} + {nines}>. 0 "
                       "| accept a(y). y?(v: int). 0")
    assert cli("check", program)[0] == 0
    for command in ("run", "explore"):
        assert cli(command, program) == (
            2, "", "error: computed integer of more than 4300 digits\n")


@pytest.mark.parametrize("command", ["check", "explore"])
def test_a_budget_past_the_digit_limit_is_quoted_short(
        tmp_path, monkeypatch, digit_limit, command):
    monkeypatch.setenv("CHERRY_BUDGET", LONG)
    code, out, err = cli(command, CORPUS / "vod_c.chpi")
    assert (code, out) == (2, "")
    assert err == ("error: CHERRY_BUDGET has more than 4300 digits, got "
                   "'77777777777777777777'... (5000 characters)\n")
    assert len(err.encode()) < 200


def test_a_signed_budget_past_the_digit_limit_is_quoted_short(
        monkeypatch, digit_limit):
    monkeypatch.setenv("CHERRY_BUDGET", "-" + LONG)
    assert cli("check", CORPUS / "vod_c.chpi") == (
        2, "", "error: CHERRY_BUDGET has more than 4300 digits, got "
               "'-7777777777777777777'... (5001 characters)\n")


# `check` refuses each of these ill-sorted programs, with the message
# evaluation gives when `run` or `explore` meets the same expression (a
# function's arguments are checked before its oracle draw); the last one is
# well-formed, but its int receiver gets a str
_ILL_SORTED = {
    "int-plus-str": (
        'request a(x). x!<1 + "a">. 0 | accept a(y). y?(v: int). 0',
        "operator 'add' expects ('int', 'int'), got ('int', 'str')"),
    "int-guard": (
        "request a(x). if 5 then x!<1>. 0 else 0"
        " | accept a(y). y?(v: int). 0",
        "conditional guard has sort int, needs bool"),
    "not-int": (
        "request a(x). x!<!5>. 0 | accept a(y). y?(v: bool). 0",
        "operator 'not' expects ('bool',), got ('int',)"),
    "str-argument-of-int-function": (
        'fun f(int): bool\nrequest a(x). if f("a") then x!<1>. 0'
        " else x!<2>. 0 | accept a(y). y?(v: int). 0",
        "function 'f' expects ('int',), got ('str',)"),
    # a value is received only by a binding of its own sort, as `TS-Com`
    # requires, so these runs are stuck (no message): the sort is read
    # from the sent expression's head without evaluating it
    "str-received-as-int": (
        'request a(x). x!<"a">. 0'
        " | accept a(y). y?(v: int). if v < 3 then 0 else 0",
        None),
    "bool-received-as-str": (
        "request a(x). x!<true>. 0 | accept a(y). y?(v: str). 0", None),
    "sum-received-as-str": (
        "request a(x). x!<1 + 2>. 0 | accept a(y). y?(v: str). 0", None),
    "call-received-as-int": (
        "fun f(): bool\n"
        "request a(x). x!<f()>. 0 | accept a(y). y?(v: int). 0", None),
}


@pytest.mark.parametrize("name", list(_ILL_SORTED))
def test_ill_sorted_values_are_refused_at_evaluation(tmp_path, name):
    text, message = _ILL_SORTED[name]
    program = tmp_path / "ill.chpi"
    program.write_text(text)
    code, out, err = cli("check", program)
    if message is None:
        assert (code, err) == (1, "")
        assert out.startswith("not rollback safe\n")
    else:
        assert (code, out, err) == (2, "", f"error: {message}\n")
    for mode in ("plain", "detect"):
        for command, stuck in (("run", "status: stuck\n"),
                               ("explore", "stuck at state 1: F-Con")):
            code, out, err = cli(command, program, "--error-mode", mode)
            if message is None:
                assert (code, err) == (1, "") and stuck in out
            else:
                assert (code, out, err) == (2, "", f"error: {message}\n"), \
                    (command, mode)


def test_a_loop_that_does_nothing_completes(tmp_path):
    # the type level reads `mu t. end` as `end`
    program = tmp_path / "idle.chpi"
    program.write_text("request a(x). rec X. 0 | accept a(y). 0")
    assert cli("check", program)[0] == 0
    for mode in ("plain", "detect"):
        code, out, err = cli("run", program, "--error-mode", mode)
        assert (code, err) == (0, "") and out.endswith("status: completed\n")
        code, out, err = cli("explore", program, "--error-mode", mode)
        assert (code, err) == (0, "")
        assert "1 completed" in out and "no errors, no stuck states" in out


def test_a_huge_role_tag_costs_time_by_endpoints_not_by_value(tmp_path):
    n = 10 ** 9
    program = tmp_path / "wide.chpi"
    program.write_text(f"request a[{n}](x). x!<1>@1. 0 "
                       f"| accept a[1](y). y?(v: int)@{n}. 0")
    t0 = time.perf_counter()
    assert cli("check", program) == (
        2, "", f"error: service 'a': acceptor roles [1] do not cover "
               f"1..{n - 1}\n")
    code, out, err = cli("run", program)
    assert (code, err) == (1, "") and out.endswith("status: stuck\n")
    code, out, err = cli("explore", program)
    assert (code, err) == (1, "") and "stuck at state 0" in out
    assert time.perf_counter() - t0 < 1.0


def test_type_file_diagnostic_counts_leading_blank_lines(tmp_path):
    left, right = tmp_path / "l.chty", tmp_path / "r.chty"
    left.write_text("\n\n?[int]. end @")
    right.write_text("![int]. end\n")
    assert cli("comply", left, right) == (
        2, "", "error: 3:13: expected 'eof', found '@'\n")


def test_deeply_nested_type_exits_three_not_a_verdict(tmp_path):
    # parsing takes no frame per level, but `type_key` takes one
    left, right = tmp_path / "l.chty", tmp_path / "r.chty"
    left.write_text("![int]. " * 3000 + "end")
    right.write_text("?[int]. " * 3000 + "end")
    code, out, err = cli("comply", left, right)
    assert code == 3
    assert out == ""
    assert err.startswith("error: input nested too deeply")
    assert err.count("\n") == 1


def test_a_chain_of_900_messages_complies(tmp_path):
    left, right = tmp_path / "l.chty", tmp_path / "r.chty"
    left.write_text("![int]. " * 900 + "end")
    right.write_text("?[int]. " * 900 + "end")
    code, out, err = cli("comply", left, right)
    assert (code, err) == (0, "")
    assert "901 states, 900 edges" in out


def test_eighteen_nested_loops_comply_in_one_state_per_loop(tmp_path):
    # every unfolding of an inner loop holds the outer ones in full
    n = 18
    left, right = tmp_path / "l.chty", tmp_path / "r.chty"
    left.write_text("".join(f"mu t{i}. ![int]. " for i in range(n)) + "brn["
                    + "; ".join(f"l{i}: t{i}" for i in range(n)) + "]\n")
    right.write_text("".join(f"mu s{i}. ?[int]. " for i in range(n))
                     + "sel[l0]. s0\n")
    code, out, err = cli("comply", left, right)
    assert (code, err) == (0, "")
    assert out.startswith("compliant\n  19 states, 19 edges\n")


def test_a_chain_of_900_messages_is_rollback_safe(tmp_path):
    program = tmp_path / "chain.chpi"
    program.write_text(_chain(900)[2])
    code, out, err = cli("check", program)
    assert (code, err) == (0, "")
    assert "904 states" in out


def test_a_collaboration_in_5000_parentheses_is_checked(tmp_path):
    # the parser counts a collaboration's open parentheses, and `par`
    # keeps no nesting for any later walk to recurse into
    flat, nested = tmp_path / "flat.chpi", tmp_path / "nested.chpi"
    program = "request a(x). x!<1>. 0 | accept a(y). y?(v: int). 0"
    flat.write_text(program)
    nested.write_text("(" * 5000 + program + ")" * 5000)
    code, out, err = cli("check", nested)
    assert (code, err) == (0, "")
    assert out == cli("check", flat)[1] == (
        "rollback safe\n  service a: compliant (2 states, 1 edges)\n")


def _recorded(tmp_path):
    trace = tmp_path / "t.json"
    assert cli("run", CORPUS / "vod_c.chpi", "--seed", "2",
               "--trace", trace)[0] == 0
    return json.loads(trace.read_text())


def _unlabelled(data):
    del data["steps"][1]["label"]
    return data


def _bad_draw(data):
    data["oracle"]["transcript"][0] = [1]
    return data


def _listed_oracle(data):
    data["oracle"] = []
    return data


@pytest.mark.parametrize("make, message", [
    (lambda d: {}, "malformed trace: 'initial' is not a text"),
    (lambda d: [], "malformed trace: not a JSON object"),
    (lambda d: {"initial": 5, "steps": []},
     "malformed trace: 'initial' is not a text"),
    (_unlabelled, "malformed trace: 'steps' is not a list of labels and "
                  "states"),
    (_bad_draw, "malformed trace: the transcript is not a list of "
                "[function, value] draws"),
    (_listed_oracle, "malformed trace: the transcript is not a list of "
                     "[function, value] draws"),
], ids=["empty-object", "list", "numeric-initial", "step-without-label",
        "one-element-draw", "oracle-not-an-object"])
def test_malformed_trace_file_exits_two(tmp_path, make, message):
    trace = tmp_path / "bad.json"
    trace.write_text(json.dumps(make(_recorded(tmp_path))))
    assert cli("replay", trace) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("script", [{"f": 3}, [1], {"f_HD": "ab"}],
                         ids=["number", "list", "string"])
def test_malformed_script_exits_two(tmp_path, script):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(script))
    assert cli("run", CORPUS / "vod_c.chpi", "--script", path) == (
        2, "", "error: a decision script must map function names to lists "
               "of values\n")


@pytest.mark.parametrize("value", [1.5, None, [1]],
                         ids=["float", "null", "list"])
def test_trace_value_of_no_sort_exits_two(tmp_path, value):
    data = _recorded(tmp_path)
    fn = data["oracle"]["transcript"][0][0]
    data["oracle"]["transcript"][0][1] = value
    trace = tmp_path / "bad.json"
    trace.write_text(json.dumps(data))
    assert cli("replay", trace) == (
        2, "", f"error: malformed trace: the transcript value for {fn!r} is "
               f"not a bool, int or str: {value!r}\n")


@pytest.mark.parametrize("value", [1.5, None, [1]],
                         ids=["float", "null", "list"])
def test_script_value_of_no_sort_exits_two(tmp_path, value):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"f_HD": [True, value]}))
    assert cli("run", CORPUS / "vod_c.chpi", "--script", path) == (
        2, "", "error: a decision script value for 'f_HD' is not a bool, "
               f"int or str: {value!r}\n")


def test_out_of_memory_exits_three_without_traceback(monkeypatch):
    import cherrypi.cli as cli_module

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli_module, "cmd_check", exhausted)
    assert cli("check", CORPUS / "vod_b.chpi") == (
        3, "", "error: out of memory (the input needs more memory than this "
               "process could get)\n")


def test_unexpected_exception_exits_four_without_traceback(monkeypatch):
    import cherrypi.cli as cli_module

    def broken(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli_module, "cmd_check", broken)
    code, out, err = cli("check", CORPUS / "vod_b.chpi")
    assert code == 4
    assert out == ""
    assert err == "error: internal error: KeyError: 'boom'\n"


class _ClosedPipe(io.StringIO):
    """A standard output whose reader has left."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_exits_141_without_a_message():
    err = io.StringIO()
    with contextlib.redirect_stdout(_ClosedPipe()), \
            contextlib.redirect_stderr(err):
        code = main(["check", str(CORPUS / "vod_b.chpi")])
    assert (code, err.getvalue()) == (141, "")


def test_a_reader_that_leaves_early_ends_the_command_quietly(tmp_path):
    # 3,000 services infer to about 115 KB of types, more than a pipe
    # holds, so the command meets the closed pipe however late it closes
    program = tmp_path / "many.chpi"
    program.write_text(" | ".join(
        f"request a{i}(x). x!<{i}>. 0 | accept a{i}(y). y?(v: int). 0"
        for i in range(3000)))
    script = ("import sys\nfrom cherrypi.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(cherrypi.__file__).parents[1])
    with subprocess.Popen([sys.executable, "-c", script, "infer",
                           str(program)], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": src}) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait()
    assert (code, err) == (141, b"")
