"""The `record` metaclass against `dataclasses.dataclass`, and the import
cost it exists for.

Every class the metaclass made in cherrypi's modules is paired with a
dataclass twin built from the same annotations and defaults; both must
construct, compare, hash, print and refuse changes alike.  A record keeps
its fields in slots and its caches in a `__dict__` that starts empty.
"""

import copy
import dataclasses
import itertools
import os
import pickle
import subprocess
import sys
import tokenize
import types
from pathlib import Path

import pytest

import cherrypi
from cherrypi import (cli, infer, multiparty, parser, runtime, semantics,
                      sessiontypes, shadow, syntax)
from cherrypi.sessiontypes import TEnd, TErr
from cherrypi.syntax import Lit, Var

SRC = Path(syntax.__file__).resolve().parent.parent


def _records():
    found = {}
    for module in (syntax, sessiontypes, semantics, parser, runtime,
                   shadow, multiparty, infer, cli):
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and "__match_args__" in vars(obj)
                    and not issubclass(obj, tuple)):  # a NamedTuple
                found[obj.__qualname__] = obj
    return [found[name] for name in sorted(found)]


RECORDS = _records()


def _frozen(cls):
    return cls.__setattr__ is syntax._refuse_set


def _defaults(cls):
    """Field name -> default: a record keeps them as `__init__`
    defaults only, since a class attribute of a field's name is its slot."""
    names, vals = cls.__match_args__, cls.__init__.__defaults__ or ()
    return dict(zip(names[len(names) - len(vals):], vals))


def _twin(cls):
    ns = {"__annotations__": dict(cls.__annotations__)}
    ns.update(_defaults(cls))
    return dataclasses.dataclass(frozen=_frozen(cls))(
        type(cls.__name__, (), ns))


def _values(cls, tag):
    return [f"{tag}{i}" for i in range(len(cls.__match_args__))]


def _required(cls):
    return [n for n in cls.__match_args__ if n not in _defaults(cls)]


def _fields(x):
    return [getattr(x, f.name) for f in dataclasses.fields(x)] \
        if dataclasses.is_dataclass(x) \
        else [getattr(x, n) for n in type(x).__match_args__]


def test_every_record_class_is_found():
    assert len(RECORDS) == 48
    assert sum(map(_frozen, RECORDS)) == 39


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_record_matches_its_dataclass_twin(cls):
    twin = _twin(cls)
    names = cls.__match_args__
    assert names == twin.__match_args__
    # every field is a slot, and `__dict__` is kept for the caches
    assert cls.__slots__ == names + ("__dict__",)
    assert all(type(vars(cls)[n]) is types.MemberDescriptorType
               for n in names)
    vals = _values(cls, "v")
    # positional, keyword, and defaults left out
    built = [(cls(*vals), twin(*vals)),
             (cls(**dict(zip(names, vals))), twin(**dict(zip(names, vals)))),
             (cls(*vals[:len(_required(cls))]),
              twin(*vals[:len(_required(cls))]))]
    for ours, theirs in built:
        assert _fields(ours) == _fields(theirs)
        assert repr(ours) == repr(theirs)
        assert ours.__dict__ == {}  # a fresh node has no cache yet
    a, b = cls(*vals), twin(*vals)
    for other in [cls(*vals)] + [
            cls(*(vals[:i] + ["changed"] + vals[i + 1:]))
            for i in range(len(vals))]:
        theirs = twin(*_fields(other))
        assert (a == other) == (b == theirs)
        assert (a != other) == (b != theirs)
    assert a.__eq__(object()) is NotImplemented
    assert a != b  # a record never equals an instance of another class
    with pytest.raises(TypeError):
        cls(*vals, "one too many")
    if _frozen(cls):
        assert hash(a) == hash(b) == hash(cls(*vals))
        for name in names + ("_cache",):
            with pytest.raises(AttributeError):
                setattr(a, name, "x")
            with pytest.raises(AttributeError):
                delattr(a, name)
        # private caches are written past the refusal and ignored
        object.__setattr__(a, "_cache", "kept")
        assert a.__dict__ == {"_cache": "kept"}
        assert a == cls(*vals) and hash(a) == hash(cls(*vals))
        assert repr(a) == repr(b)
    else:
        for x in (a, b):
            with pytest.raises(TypeError):
                hash(x)
        if names:
            setattr(a, names[0], "set")
            assert getattr(a, names[0]) == "set"


def test_records_copy_and_pickle_by_their_fields():
    for cls in RECORDS:
        a = cls(*_values(cls, "v"))
        if _frozen(cls):
            object.__setattr__(a, "_cache", "kept")
        for twin in (copy.copy(a), copy.deepcopy(a),
                     pickle.loads(pickle.dumps(a))):
            assert type(twin) is cls and twin == a, cls.__qualname__
            if _frozen(cls):  # a cache is derived: a copy starts without
                assert twin.__dict__ == {}, cls.__qualname__


def test_a_search_copies_pickles_and_compares_by_its_columns(programs,
                                                             types):
    # a report's system holds its columns and a level tag, no per-call
    # function: two identical searches are equal, and a copy rebuilds a
    # view read before it alike
    for search in (lambda: runtime.explore(programs["vod_b"], 40, "detect"),
                   lambda: semantics.check_compliance(types["consumer"],
                                                      types["producer"])):
        rep = search()
        assert rep == search() and " at 0x" not in repr(rep.system)
        views = rep.system.states, rep.system.edges
        for twin in (copy.copy(rep), copy.deepcopy(rep),
                     pickle.loads(pickle.dumps(rep))):
            assert twin == rep
            assert (twin.system.states, twin.system.edges) == views


def test_records_of_different_classes_differ_like_dataclasses():
    for left, right in itertools.permutations(RECORDS, 2):
        arity = len(_required(left))
        if arity == len(_required(right)):
            vals = _values(left, "v")[:arity]
            assert (left(*vals) == right(*vals)) is False
            assert (_twin(left)(*vals) == _twin(right)(*vals)) is False


def test_a_field_without_a_default_may_not_follow_one_with_a_default():
    with pytest.raises(TypeError, match="follows one with a default"):
        class Bad(metaclass=syntax.record):
            first: int = 0
            second: int


def test_equal_fields_compare_by_class_then_by_value():
    assert TEnd() != TErr() and TEnd() == TEnd()
    assert hash(TEnd()) == hash(TErr())  # both hash the empty tuple
    assert Lit(True) == Lit(1)  # field tuples compare by value, as before
    assert Lit(1) != Var(1)
    match Lit(3):
        case Lit(v):
            assert v == 3


def _fresh_python(code: str) -> str:
    """The output of `code` in a new interpreter without `site`, whose
    `.pth` files may import modules of their own, and with cherrypi's
    `src` first on the path."""
    path = [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_imports_neither_dataclasses_nor_inspect():
    # nor `typing` and `pathlib`, which `corpus_dir` imports when called
    out = _fresh_python(
        "import cherrypi.cli, cherrypi.multiparty, sys; "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'pathlib'} "
        "& set(sys.modules)))")
    assert out == "[]\n"
    assert isinstance(cherrypi.corpus_dir(), Path)


def test_import_compiles_one_init_per_shape_and_leaves_no_dead_class():
    out = _fresh_python("""if True:
        import gc, sys
        compiled = []
        sys.addaudithook(lambda event, args: compiled.append(str(args[1]))
                         if event == "compile" else None)
        import cherrypi.cli, cherrypi.runtime, cherrypi.multiparty
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        print(sorted(f for f in compiled if not f.endswith(".py")))
        print([x.__qualname__ for x in gc.garbage if isinstance(x, type)
               and x.__module__.startswith("cherrypi")])""")
    # one `__init__` template per (arity, frozen) shape of the 49 records,
    # and two `namedtuple`s: `functools`' own and `syntax.Operator`
    assert out.splitlines() == [str(["<record>"] * 12 + ["<string>"] * 2),
                                "[]"]


def _parser_tokens(path: Path) -> int:
    """The tokens CPython's parser reads from a source file: every token
    but comments, non-logical newlines and the encoding marker."""
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    with open(path, "rb") as fh:
        return sum(tok.type not in skipped
                   for tok in tokenize.tokenize(fh.readline))


def test_every_module_stays_under_8192_parser_tokens():
    # the parser's token array doubles past 8,192 tokens: `runtime.py`
    # at 8,169 tokens compiled with a 2,920 KiB peak, and padded to 8,649
    # with 3,530 KiB (tracemalloc of `compile`, CPython 3.11.7); every
    # import from source pays it
    sizes = {path.name: _parser_tokens(path)
             for path in sorted((SRC / "cherrypi").glob("*.py"))}
    assert len(sizes) >= 10
    assert {name: n for name, n in sizes.items() if n >= 8192} == {}
