"""The command line's observable behaviour against the committed digests
(`tests/contract.py`; on a mismatch, `python3 tests/contract.py --dump
DIR` writes each section's text for a diff against another tree)."""

import json
import re

import pytest

import contract

# every process rule, each also taken in an n-role session under its M-
# prefixed name
PROCESS_RULES = ("F-Con", "F-Com", "F-Lab", "F-If", "F-Cmt", "E-Cmt1",
                 "E-Cmt2", "B-Rll", "E-Rll1", "E-Rll2", "B-Abt", "E-Com1",
                 "E-Com2", "E-Lab1", "E-Lab2")


@pytest.fixture(scope="module")
def texts():
    return contract.transcripts()


def test_cli_transcripts_match_the_committed_digests(texts):
    assert contract.digests(texts) == json.loads(contract.DIGESTS.read_text())


def test_the_transcripts_take_every_process_rule_in_both_forms(texts):
    # a step's label is its rule, a space and its text
    named = set(re.findall(r'[ "]((?:M-)?[BEF]-[A-Z][a-z]+\d?) ',
                           "".join(texts.values())))
    assert [name for rule in PROCESS_RULES for name in (rule, "M-" + rule)
            if name not in named] == []
