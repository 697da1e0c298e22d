"""The command line's observable behaviour against the committed digests
(`tests/contract.py`; on a mismatch, `python3 tests/contract.py --dump
DIR` writes each section's text for a diff against another tree)."""

import json

import contract


def test_cli_transcripts_match_the_committed_digests():
    assert contract.digests() == json.loads(contract.DIGESTS.read_text())
