import json
from pathlib import Path

import pytest

from cherrypi import corpus_dir
from cherrypi.parser import parse_program, parse_type
from cherrypi.sessiontypes import (TBrn, TIn, TMu, TOut, TSel, TVarT,
                                   _map_type, subtypes)

BINARY_PROGRAMS = ("vod_b", "vod_c", "vod_d", "producer_consumer",
                   "producer_consumer_commit")
ALL_PROGRAMS = BINARY_PROGRAMS + ("three_party_job",)


# type walks that only the tests use, so the package does not carry them

def free_type_vars(t) -> frozenset:
    if isinstance(t, TVarT):
        return frozenset({t.name})
    if isinstance(t, TMu):
        return free_type_vars(t.body) - {t.var}
    return frozenset().union(*map(free_type_vars, subtypes(t)))


def fill_roles(t, own: int):
    """`t` with `own` stamped into the open own-role slot of every
    prefix; a subtree with no open slot comes back as the same object, so
    a filled type comes back as it is.  Inference stamps the own role as
    it types, so only tests fill a type afterwards."""

    def go(t):
        kind = type(t)
        if kind is TOut or kind is TIn or kind is TSel:
            c, a = go(t.cont), own if t.src is None else t.src
            return t if c is t.cont and a == t.src else kind(
                t.label if kind is TSel else t.sort, c, a, t.dst)
        if kind is TBrn:
            arms = tuple((l, go(c)) for l, c in t.arms)
            a = own if t.src is None else t.src
            if a == t.src and all(
                    n is c for (_, n), (_, c) in zip(arms, t.arms)):
                return t
            return TBrn(arms, a, t.dst)
        return _map_type(t, go)

    return go(t)


@pytest.fixture(scope="session")
def corpus() -> Path:
    return corpus_dir()


@pytest.fixture(scope="session")
def programs(corpus):
    return {name: parse_program((corpus / f"{name}.chpi").read_text())
            for name in ALL_PROGRAMS}


@pytest.fixture(scope="session")
def types(corpus):
    return {p.stem: parse_type(p.read_text())
            for p in sorted(corpus.glob("*.chty"))}


@pytest.fixture(scope="session")
def verdicts(corpus):
    return json.loads((corpus / "verdicts.json").read_text())
