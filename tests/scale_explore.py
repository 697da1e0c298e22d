"""Exhaustive exploration at scale, in a fresh process: `explore` of k
speculative producer/consumer sessions side by side (`_kpar`, the shape
the runtime tests use), printed as one JSON line with the states, edges,
seconds and peak RSS.  It exits 1 when the counts are not kpar's 11**k
states and 13 * k * 11**(k - 1) edges, or when the peak RSS is above
`--max-rss-mb`.  Standard library only; run it from the repository root:

    PYTHONPATH=src python3 tests/scale_explore.py --k 5 --max-rss-mb 143

At k = 5 and depth 200 that is 161,051 states and 951,665 edges.
"""

import argparse
import json
import resource
import sys
import time

from cherrypi.parser import parse_program
from cherrypi.runtime import explore

_PC = """\
request b{t}(x).
  rec X.
  x!<f{t}_req()>.
  x>+{{ l_spec:
         x?(partial: str).
         x?(final: str).
         if f{t}_compare(partial, final) then roll else commit. X,
       l_nonSpec:
         x?(computed: str).
         commit. X }}
| accept b{t}(y).
  rec Y.
  y?(req: str).
  if f{t}_eval(req) then
    y<+ l_spec. y!<f{t}_partial()>. y!<f{t}_final()>. Y
  else
    y<+ l_nonSpec. y!<f{t}_compute()>. Y"""
_PC_DECLS = """\
fun f{t}_req(): str in {{ "job" }}
fun f{t}_eval(str): bool
fun f{t}_compare(str, str): bool
fun f{t}_partial(): str in {{ "draft" }}
fun f{t}_final(): str in {{ "full" }}
fun f{t}_compute(): str in {{ "exact" }}"""


def _kpar(k):
    """k copies of the speculative producer/consumer, side by side."""
    tags = [chr(ord("a") + i) for i in range(k)]
    return parse_program("\n".join(
        [_PC_DECLS.format(t=t) for t in tags] +
        ["\n| ".join(_PC.format(t=t) for t in tags)]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--k", type=int, default=5)
    ap.add_argument("--depth", type=int, default=200)
    ap.add_argument("--max-rss-mb", type=float, default=None)
    args = ap.parse_args(argv)
    program = _kpar(args.k)
    t0 = time.perf_counter()
    rep = explore(program, args.depth)
    seconds = time.perf_counter() - t0
    # ru_maxrss is in KiB on Linux
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    got = {"k": args.k, "states": len(rep.system.nodes), "edges": rep.edges,
           "seconds": round(seconds, 3), "peak_rss_mb": round(rss_mb, 1)}
    print(json.dumps(got))
    want = (11 ** args.k, 13 * args.k * 11 ** (args.k - 1))
    if (got["states"], got["edges"]) != want:
        print(f"expected {want[0]} states and {want[1]} edges",
              file=sys.stderr)
        return 1
    if args.max_rss_mb is not None and rss_mb > args.max_rss_mb:
        print(f"peak RSS {rss_mb:.1f} MB is above {args.max_rss_mb} MB",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
