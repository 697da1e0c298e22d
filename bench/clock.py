"""A clock that counts seconds of work at the host's full speed.

On a shared virtual machine the same Python code runs at one speed for a
while, then about twice as slow for a while (another tenant on the same
core), switching every half second to few seconds.  Wall-clock times of
the same work then move by 30-60 % from run to run.  This clock removes
most of that: every `TICK` seconds a SIGALRM handler times `calibrate`, a
fixed pure-Python routine that shares no code with cherrypi, and the wall
time since the last tick is scaled by `NOMINAL` ÷ the median of the last
`WINDOW` calibration times.  `NOMINAL` is the time of `calibrate` in a
quiet period, so one reference second is about one second of work on an
idle host.  The handler's own time is left out.  What it cannot remove:
time the process spends descheduled counts as work done at the current
speed.

The clock runs in the benchmark's only thread; `start` and `stop` bracket
the code it measures.  Code that recurses to the interpreter's limit must
run with it stopped, since the handler needs a few frames of its own.
"""

from __future__ import annotations

import difflib
import random
import signal
import statistics
from time import perf_counter

TICK = 0.025  # seconds between calibrations
WINDOW = 5  # the speed is the median of this many latest samples
# `calibrate` in a quiet period, on the 2-vCPU x86-64 machine of BASELINE.md
NOMINAL = 4.3e-4


# two fixed texts of words, the second with every fifth word changed
_rng = random.Random(0)
_WORDS = [_rng.choice(("x!<v>", "y?(t)", "commit", "roll", "rec X", "mu t",
                       "brn[l]", "sel[l]", "if f() then", "else", "end"))
          + str(_rng.randrange(10)) for _ in range(30)]
_OLD = " ".join(_WORDS)
_NEW = " ".join(w if i % 5 else w[::-1] for i, w in enumerate(_WORDS))


def calibrate() -> float:
    """Pure-Python work with a mix like cherrypi's: dict lookups, lists,
    tuples and small loops over text (difflib's matcher, which tracked
    cherrypi's slow-down on a busy host within 3 % where a tight dict
    loop missed it by 7 to 14 %)."""
    return difflib.SequenceMatcher(None, _OLD, _NEW).ratio()


def _sample() -> float:
    t0 = perf_counter()
    calibrate()
    return perf_counter() - t0


class Clock:
    """Reference seconds; see the module's docstring."""

    def __init__(self):
        # (reference seconds at `last`, `last` in perf_counter seconds,
        # reference seconds per second since): one tuple, so that `now`
        # reads a consistent state even if a tick lands inside it.  A
        # stopped clock stands still: its rate is 0 and `paused` keeps it.
        self.state = (0.0, perf_counter(), 0.0)
        self.recent = [_sample() for _ in range(WINDOW)]
        self.paused = NOMINAL / statistics.median(self.recent)

    def _tick(self, signum, frame) -> None:
        t = perf_counter()
        ref, last, factor = self.state
        # a median, so that one disturbed sample does not set the speed
        self.recent = self.recent[1 - WINDOW:] + [_sample()]
        new = NOMINAL / statistics.median(self.recent)
        # the speed over the interval: the mean of its two ends
        self.state = (ref + (t - last) * (factor + new) / 2, perf_counter(),
                      new)

    def now(self) -> float:
        ref, last, factor = self.state
        return ref + (perf_counter() - last) * factor

    def start(self) -> None:
        self.state = (self.state[0], perf_counter(), self.paused)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK, TICK)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.paused = self.state[2]
        self.state = (self.now(), perf_counter(), 0.0)
