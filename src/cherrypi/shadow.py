"""Shadow typechecking: the type-level configuration run alongside a trace.

The paper's design-time check rests on subject reduction: every process
step has a matching type-level step.  `shadow_typecheck` checks that of a
recorded run.  It mirrors each step on its session's tracked configuration,
a `semantics.config_transitions` node, and, after every step, retypes each
live log's current and checkpoint process and compares their type keys
with the node's key.  The retype is independent of the mirror: a log's
type is inferred from its process, never derived by stepping the tracked
type.

A run pays once per distinct step.  A looping run repeats its steps as
the very same built `runtime.Candidate`s (see `runtime.simulate`), so a
step is checked once per call for each configuration it meets, and a
repeat replays the configuration it led to and the failures it added.
A continuation is a subterm of the process retyped before it, whose type
`type_of_process` keeps on the node, so a run that never loops is
retyped in linear time.
"""

from __future__ import annotations

from .syntax import ErrorState, Session, par_parts, record
from .sessiontypes import TErr, render_type, type_key
from .infer import TypingError, service_types, type_of_process
from .semantics import _root, config_transitions


class ShadowReport(metaclass=record):
    failures: list  # list[str]

    ok = property(lambda self: not self.failures)


def _find_session(state, name: str) -> Session | None:
    for it in par_parts(state):
        if isinstance(it, Session) and it.name == name:
            return it
    return None


_IMPOSED = "rolled on an imposed type-level checkpoint"
_IMPOSITION = "partner imposition disagrees with the type level"
# process rule (M- prefix dropped) -> (the type-level rules that mirror it,
# the failure when the party has no type-level step with the step's label,
# the failure when it has one but under another rule)
_MIRRORS = {
    "F-Com": (("TS-Com",), "no matching type-level communication", None),
    "F-Lab": (("TS-Lab",), "no matching type-level label exchange", None),
    "F-If": (("TS-Tau",), "no type-level choice to resolve", None),
    "F-Cmt": (("TS-Cmt1", "TS-Cmt2"), "no type-level commit", None),
    "E-Cmt1": (("TS-Cmt1",), "no type-level commit", _IMPOSITION),
    "E-Cmt2": (("TS-Cmt2",), "no type-level commit", _IMPOSITION),
    "B-Rll": (("TS-Rll1",), "no type-level roll", _IMPOSED),
    "E-Rll1": (("TS-Rll1",), "no type-level roll", _IMPOSED),
    "E-Rll2": (("TS-Rll2",), "no type-level roll",
               "error roll without an imposed type-level checkpoint"),
    "B-Abt": (("TS-Abt1",), "no type-level abort", None),
}


def _type_label(rule: str, text: str) -> str:
    """The type-level label of a process step: the sort of the value sent,
    the label selected, the branch a conditional took, or the step kind."""
    action = text.split(" ", 1)[1]  # what follows "<session>:p<party> "
    match rule:
        case "F-Com":
            shown = action[1:]
            sort = ("str" if shown.startswith('"') else
                    "bool" if shown in ("true", "false") else "int")
            return f"com[{sort}]"
        case "F-Lab":
            return f"lab[{action[1:]}]"
        case "F-If":
            return "tau[L]" if action == "then" else "tau[R]"
    return {"commit": "cmt", "abort": "abt"}.get(action, action)


def _mirror(node: tuple, step, failures: list) -> tuple:
    """The type-level successor of `node` that mirrors one process step:
    the same party's transition with the step's label and a matching rule.
    On a mismatch, a failure and `node`."""
    rule = step.rule.removeprefix("M-")
    if rule not in _MIRRORS:
        # com_error steps have no type analogue on well-typed programs
        failures.append(f"{step.label()}: step has no type analogue")
        return node
    rules, missing, disagrees = _MIRRORS[rule]
    want = _type_label(rule, step.text)
    # only the stepping party's transitions
    found = [(r, succ) for _, (_, r, lab), succ in config_transitions(
        node, (step.party - 1,)) if lab == want]
    for r, succ in found:
        if r in rules:
            return succ
    failures.append(f"{step.label()}: {(found and disagrees) or missing}")
    return node


def shadow_typecheck(program, trace) -> ShadowReport:
    """Validate a trace against the type semantics: every step must have the
    matching type-level transition, and after every step each log's current
    and checkpoint must retype to the tracked configuration, imposed flags
    included."""
    try:
        types = service_types(program.term)
    except TypingError as ex:
        return ShadowReport([f"inference failed: {ex}"])
    configs: dict = {}  # session name -> its tracked node
    failures: list = []
    # (id(step), key of the node it met) -> (the node after it, None when
    # its session is gone, and the failures it added).  A step's session
    # fixes the initial types an abort returns to, and the trace holds its
    # steps, so their ids stay their own
    checked: dict = {}
    for step in trace.steps:
        name = step.session
        tracked = configs.get(name)
        at = id(step), None if tracked is None else tracked[0]
        hit = checked.get(at)
        if hit is None:
            start = len(failures)
            tracked = _check_step(step, tracked, types, failures)
            hit = checked[at] = tracked, failures[start:]
        else:
            failures += hit[1]
        if hit[0] is None:
            configs.pop(name, None)
        else:
            configs[name] = hit[0]
    return ShadowReport(failures)


def _check_step(step, node, types: dict, failures: list):
    """One step of `shadow_typecheck` on its session's tracked `node`
    (None when it has none): the node after it, or None when it has none,
    with its failures appended to `failures`."""
    ses = _find_session(step.successor, step.session)
    if step.party == 0:  # connection: the service of the endpoints it saved
        node = _root(types[par_parts(ses.saved)[0].chan])
    elif node is not None:
        node = _mirror(node, step, failures)
    # correspondence: retype every live log against the tracked types
    if ses is None or node is None:  # aborted, or never connected
        return None
    key = node[0]
    body = par_parts(ses.body)
    if any(isinstance(b, ErrorState) for b in body):
        for k, t in enumerate(node[2]):
            if not isinstance(t, TErr):
                failures.append(
                    f"{step.label()}: error state but party {k + 1} "
                    f"type is {render_type(t)}")
        return node
    for k, lg in enumerate(body):
        try:
            got_cur = type_of_process(lg.current, lg.endpoint)
            got_ck = type_of_process(lg.ckpt.process, lg.endpoint)
        except TypingError as ex:
            failures.append(f"{step.label()}: retyping failed: {ex}")
            continue
        if type_key(got_cur) != key[3 * k + 2]:
            failures.append(
                f"{step.label()}: party {k + 1} current retypes off "
                f"the tracked type")
        if type_key(got_ck) != key[3 * k + 1]:
            failures.append(
                f"{step.label()}: party {k + 1} checkpoint retypes off "
                f"the tracked checkpoint type")
        if lg.ckpt.imposed != key[3 * k]:
            failures.append(
                f"{step.label()}: party {k + 1} imposed flag "
                f"disagrees with the type level")
    return node
