"""Every single-token mutant of the parsers' differential texts, against
the recursive reference parsers.

    python3 tests/token_mutants.py

Tier-1 draws 400 of these mutants
(`test_the_parsers_match_the_recursive_ones_on_token_mutants`) and checks
every mutant of the head texts only, so a fault in a path that only some
texts reach can pass or fail there by the draw.  This checks them all:
each token of each text in `test_parser._DIFFERENTIAL` cut off after,
deleted, duplicated and swapped with the next, parsed as a program and
as a type by both parsers, which must give equal results or equal
diagnostics (about 50,000 mutants, 40 s on a 2-vCPU host).  Prints each
mismatch and the count checked; exits 1 on any mismatch.  Imports
cherrypi from the `src/` next to this directory, and `test_parser`, which
needs pytest and hypothesis.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import parser_reference  # noqa: E402
from cherrypi.parser import parse_program, parse_type  # noqa: E402
from test_parser import (_DIFFERENTIAL, _every_token_mutant,  # noqa: E402
                         _outcome)

PAIRS = (("program", parse_program, parser_reference.parse_program),
         ("type", parse_type, parser_reference.parse_type))


def main() -> int:
    checked = wrong = 0
    for k, src in enumerate(_DIFFERENTIAL):
        for mutant in _every_token_mutant(src):
            checked += 1
            for grammar, parse, reference in PAIRS:
                if _outcome(parse, mutant) != _outcome(reference, mutant):
                    wrong += 1
                    print(f"text {k}, {grammar}: {mutant!r}")
    print(f"{checked} mutants of {len(_DIFFERENTIAL)} texts, "
          f"{wrong} mismatches")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
