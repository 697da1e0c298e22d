"""How the walkers dispatch, and what that asks of the records.

Every walker on the run and check paths dispatches on a node's exact class
and reads its fields by name.  This holds the package to that: no `match`
of class patterns outside the test-only walkers, no subclass of a record
class (exact dispatch would not see it), a foreign object gets the
walker's own error, and no recursive walker takes more Python frames per
nesting level than `FRAMES` records.
"""

import ast
import importlib
import pkgutil
import sys
import threading

import pytest

import cherrypi
from conftest import fill_roles
from cherrypi import infer, sessiontypes
from cherrypi.infer import (TypingError, _check_roles_used, _type_of,
                            sort_of_expression, type_of_process)
from cherrypi.parser import (parse_program, parse_type,
                             render_expr, render_process, show_chan,
                             show_collaboration)
from cherrypi.runtime import (DecisionOracle, barbs, enumerate_values,
                              evaluate, replay, shadow_typecheck, simulate)
from cherrypi.multiparty import to_multiparty
from cherrypi.semantics import check_compliance, check_rollback_safety
from cherrypi.sessiontypes import (TEnd, TOut, TVarT, canonical_type,
                                   render_type, subst_type, type_key)
from cherrypi.syntax import (_NO_DEPTH, Call, ChanVar, Inact, Lit,
                             MalformedTerm, PVar, Send, Var,
                             _expr_names, _expr_sig, _names, _subst_expr,
                             process_key, substitute, term_key)

MODULES = [importlib.import_module(f"cherrypi.{m.name}")
           for m in pkgutil.iter_modules(cherrypi.__path__)]

# test-only walkers, which keep their class patterns until they move out
# of the package
TEST_ONLY = {("syntax", "_canon_expr"), ("syntax", "_canon_chan"),
             ("syntax", "_canon_proc"), ("syntax", "_canon_coll")}


class _ClassMatches(ast.NodeVisitor):
    """(enclosing function's qualified name, line) of every `match` that
    has a class pattern."""

    def __init__(self):
        self.scope, self.found = [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Match(self, node):
        if any(isinstance(p, ast.MatchClass)
               for case in node.cases for p in ast.walk(case.pattern)):
            self.found.append((".".join(self.scope), node.lineno))
        self.generic_visit(node)


def test_no_class_pattern_match_outside_the_test_only_walkers():
    stray = []
    for module in MODULES:
        finder = _ClassMatches()
        with open(module.__file__) as fh:
            finder.visit(ast.parse(fh.read()))
        name = module.__name__.rsplit(".", 1)[1]
        stray += [f"{name}.{where}:{line}" for where, line in finder.found
                  if (name, where) not in TEST_ONLY]
    assert stray == []


def test_no_class_subclasses_a_record():
    records = [obj for module in MODULES for obj in vars(module).values()
               if isinstance(obj, type)
               and obj.__module__ == module.__name__
               and "__match_args__" in vars(obj)
               and not issubclass(obj, tuple)]  # a NamedTuple
    assert len(records) == 48  # the census of test_records.py
    assert [(r.__qualname__, r.__subclasses__()) for r in records
            if r.__subclasses__()] == []


# the third is a token-shaped plain tuple; the last three are malformed
# operator calls: an unknown operator, and known ones with too many or too
# few operands
FOREIGN = [None, "x", ("ident", "x", 0, 1), object(),
           Call("xor", (Lit(True), Lit(False))),
           Call("not", (Lit(True), Lit(False))), Call("add", (Lit(1),))]
FOREIGN_IDS = ["None", "str", "Token", "object", "xor", "not-2", "add-1"]


def _typed(p):
    return type_of_process(p, ChanVar("x"))


def _sorted(e):
    return sort_of_expression(e, {})


def _substituted(p):
    return substitute(p, "v", Lit(1))


def _shown(r):
    return show_chan(r, False)


_shown.__name__ = "show_chan"  # the rows are named by their walkers


# each walker's error and the head of its message: "<head>: <repr>"
WALKERS = [
    (render_expr, MalformedTerm, "not an expression"),
    (_shown, MalformedTerm, "not a session identifier"),
    (show_collaboration, MalformedTerm, "not a collaboration"),
    (render_process, MalformedTerm, "not a process"),
    (evaluate, MalformedTerm, "not an expression"),
    (enumerate_values, MalformedTerm, "not an expression"),
    (canonical_type, MalformedTerm, "not a session type"),
    (render_type, MalformedTerm, "not a session type"),
    (type_key, MalformedTerm, "not a session type"),
    (_typed, TypingError, "not a process"),
    (_sorted, TypingError, "not an expression"),
]
# checked once, at the entry, instead of by every node
ENTRIES = [(fn, MalformedTerm, "not a process or collaboration")
           for fn in (barbs, _substituted, term_key, process_key)]


def _raises(call, obj, error, head):
    with pytest.raises(Exception) as info:
        call(obj)
    assert type(info.value) is error
    assert str(info.value) == f"{head}: {obj!r}"


@pytest.mark.parametrize("obj", FOREIGN, ids=FOREIGN_IDS)
@pytest.mark.parametrize("call, error, head", WALKERS,
                         ids=[w[0].__name__ for w in WALKERS])
def test_foreign_object_gets_the_walkers_error(call, error, head, obj):
    _raises(call, obj, error, head)


@pytest.mark.parametrize("obj", FOREIGN, ids=FOREIGN_IDS)
@pytest.mark.parametrize("call, error, head", ENTRIES,
                         ids=[e[0].__name__ for e in ENTRIES])
def test_foreign_object_is_refused_at_the_entry(call, error, head, obj):
    _raises(call, obj, error, head)


# -- depth ------------------------------------------------------------------

_SORTS = ("int", "str", "bool")
_LIT = {"int": "7", "str": '"v"', "bool": "true"}


def _chain(k: int) -> tuple:
    """k messages, then the consumer commits or rolls: the compliant type
    pair and the program that infers it."""
    sorts = [_SORTS[i % 3] for i in range(k)]
    left = "".join(f"?[{s}]. " for s in sorts) + "(roll (+) cmt. end)"
    right = "".join(f"![{s}]. " for s in sorts) + "end"
    req = "".join(f"x?(v{i}: {s}). " for i, s in enumerate(sorts))
    acc = "".join(f"y!<{_LIT[s]}>. " for s in sorts)
    program = (f"fun f(): bool\nrequest a(x). {req}if f() then roll else "
               f"commit. 0\n| accept a(y). {acc}0")
    return left, right, program


def _comply(left, right, _):
    return check_compliance(parse_type(left), parse_type(right)).compliant


def _check(_, __, program):
    return check_rollback_safety(parse_program(program).term).safe


def _run(_, __, program):
    prog = parse_program(program)
    trace = simulate(prog, DecisionOracle("scripted", {"f": [False]}),
                     mode="detect")
    return (trace.status == "completed"
            and shadow_typecheck(prog, trace).ok
            and replay(trace.to_json()).ok)


@pytest.mark.parametrize("path, k", [(_comply, 900), (_check, 900),
                                     (_run, 480)],
                         ids=["comply", "check", "run-shadow-replay"])
def test_a_chain_of_480_messages_passes_every_path(path, k):
    # in a fresh thread, so the test runner's own frames do not count.
    # Parsing takes no frame per level; `type_key` and `_type_of` take
    # one, which sets the deepest chain comply and check accept at about
    # 950, and substitution two, which sets run's at about 490.  So a
    # walker on these paths that took one more fails here; `FRAMES`
    # below pins each walker's own count
    inputs = _chain(k)
    result = []

    def body():
        try:
            result.append(path(*inputs))
        except RecursionError as e:
            result.append(e)

    thread = threading.Thread(target=body)
    thread.start()
    thread.join()
    assert result == [True]


def _shadow_visits(k: int, twin: bool, monkeypatch) -> list:
    """Calls of `infer._type_of` and of `sessiontypes._map_type` (the
    walk of type substitution) while the shadow checks the detect run of
    `_chain(k)`, or of its two-role twin."""
    prog = parse_program(_chain(k)[2])
    if twin:
        prog = to_multiparty(prog)
    trace = simulate(prog, DecisionOracle("scripted", {"f": [False]}),
                     mode="detect")
    visits = [0, 0]

    def counting(at, walk):
        def counted(*args):
            visits[at] += 1
            return walk(*args)
        return counted

    with monkeypatch.context() as m:
        m.setattr(infer, "_type_of", counting(0, infer._type_of))
        m.setattr(sessiontypes, "_map_type",
                  counting(1, sessiontypes._map_type))
        assert shadow_typecheck(prog, trace).ok
    return visits


@pytest.mark.parametrize("twin", [False, True], ids=["binary", "two-role"])
def test_the_shadow_retypes_a_chain_in_linear_time(twin, monkeypatch):
    # a step's continuation is a subterm of the process retyped before it:
    # its type, own role stamped in, is kept on the node, so doubling the
    # chain doubles the nodes walked, where walking each continuation
    # whole would quadruple them; and no type is walked again to stamp
    # its own role in.  In a fresh thread, as above, since the counting
    # wrapper doubles the walk's frames
    result = []

    def body():
        result.append([_shadow_visits(k, twin, monkeypatch)
                       for k in (120, 240)])

    thread = threading.Thread(target=body)
    thread.start()
    thread.join()
    (typed, filled), (typed2, filled2) = result[0]
    assert 0 < typed and typed2 <= 2.2 * typed
    assert filled == filled2 == 0


def _procs(d: int):
    """d nested outputs of the free value v, then the free process X."""
    p = PVar("X")
    for _ in range(d):
        p = Send(ChanVar("x"), Var("v"), p, 2)
    return p


def _exprs(d: int):
    e = Lit(1)
    for _ in range(d):
        e = Call("add", (Lit(1), e))
    return e


def _types(d: int):
    t = TVarT("t")
    for _ in range(d):
        t = TOut("int", t)
    return t


# every recursive walker the conversion to exact dispatch touched, on a
# term nested d deep, and the Python frames it takes per level (3.10 and
# 3.11; a comprehension is a frame of its own there)
FRAMES = {
    "_names": (_procs, _names, 1),
    "term_key": (_procs, term_key, 1),
    "process_key": (_procs, process_key, 1),
    "substitute-value": (_procs, lambda p: substitute(p, "v", Lit(1)), 2),
    "substitute-process": (_procs, lambda p: substitute(p, "X", Inact()),
                           2),
    "type_of_process": (_procs, lambda p: _type_of(
        p, ChanVar("x"), True, {"X"}, {"v": "int"}), 1),
    "_check_roles_used": (_procs, lambda p: _check_roles_used(p, 1, 2), 1),
    "render_process": (_procs, render_process, 1),
    "render_expr": (_exprs, render_expr, 1),
    "sort_of_expression": (_exprs, lambda e: sort_of_expression(e, {}), 2),
    "evaluate": (_exprs, evaluate, 2),
    "enumerate_values": (_exprs, enumerate_values, 1),
    "_expr_names": (_exprs, _expr_names, 2),
    "_expr_sig": (_exprs, lambda e: _expr_sig(e, {}, _NO_DEPTH), 2),
    "_subst_expr": (_exprs, lambda e: _subst_expr(e, "v", Lit(2)), 2),
    "canonical_type": (_types, canonical_type, 1),
    "render_type": (_types, render_type, 1),
    "type_key": (_types, type_key, 1),
    "fill_roles": (_types, lambda t: fill_roles(t, 1), 2),
    "subst_type": (_types, lambda t: subst_type(t, "t", TEnd()), 2),
}


def _endpoint(head: str, leaf: str, tail: str = ""):
    """A program whose requester nests `head` d deep around `leaf`."""
    return lambda d: (f"request a(x). {head * d}{leaf}{tail * d} "
                      f"| accept a(y). 0")


def _nested(head: str, leaf: str, tail: str = ""):
    return lambda d: head * d + leaf + tail * d


# the parsers read every construct that nests by a loop: no frame per level
FRAMES.update({
    "parse_program-prefixes": (lambda d: "request a(x). " + "".join(
        f"x!<{i}>. x?(v{i}: int). x<+ l. " for i in range(d))
        + "0 | accept a(y). 0", parse_program, 0),
    "parse_program-commit": (_endpoint("commit. ", "0"), parse_program, 0),
    "parse_program-rec": (lambda d: "request a(x). " + "".join(
        f"rec X{i}. " for i in range(d)) + "x!<1>. X0 | accept a(y). 0",
        parse_program, 0),
    "parse_program-then": (_endpoint("if true then ", "0", " else 0"),
                           parse_program, 0),
    "parse_program-else": (_endpoint("if true then 0 else ", "0"),
                           parse_program, 0),
    "parse_program-arms": (_endpoint("x>+{l: 0, r: ", "0", "}"),
                           parse_program, 0),
    "parse_program-parentheses": (_endpoint("(", "0", ")"),
                                  parse_program, 0),
    "parse_program-collaboration-parentheses": (
        _nested("(request a(x). 0 | ", "accept a(y). 0", ")"),
        parse_program, 0),
    "parse_type-prefixes": (_nested("![int]. ?[str]. sel[l]. ", "end"),
                            parse_type, 0),
    "parse_type-plus": (_nested("end (+) ![int]. ", "end"), parse_type, 0),
    "parse_type-cmt": (_nested("cmt. ", "end"), parse_type, 0),
    "parse_type-mu": (lambda d: "".join(f"mu t{i}. " for i in range(d))
                      + "![int]. t0", parse_type, 0),
    "parse_type-brn": (_nested("brn[l: end; r: ", "end", "]"),
                       parse_type, 0),
    "parse_type-parentheses": (_nested("(", "end", ")"), parse_type, 0),
})


def _deepest(call) -> int:
    """The deepest Python call stack, in frames, that `call()` reaches."""
    depth = deepest = 0

    def profile(frame, event, arg):
        nonlocal depth, deepest
        if event == "call":
            depth += 1
            deepest = max(deepest, depth)
        elif event == "return":
            depth -= 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return deepest


@pytest.mark.parametrize("name", FRAMES)
def test_a_walker_takes_no_more_frames_per_level_than_before(name):
    build, walk, frames = FRAMES[name]
    shallow, deep = build(40), build(80)  # fresh nodes: no caches yet
    per_level = (_deepest(lambda: walk(deep))
                 - _deepest(lambda: walk(shallow))) / 40
    assert round(per_level) <= frames
