"""Seeded, size-parametric input families for the benchmark.

Every generator takes a `random.Random` for the shape (payload sorts) and
a tag that goes into every name it makes (functions, labels, services),
and returns source text only: the program under test parses it like any
user file.  The same shape with another tag costs the same while sharing
no name, so a benchmark can time one shape several times with fresh names
each time.

Families and what is known about them by construction:

- menu(n, m): the consumer loops, picks one of n services by internal
  choice, reads m values, then rolls or commits.  The producer offers n
  arms of m sends.  Only the consumer commits, so every rollback lands on
  its own checkpoint: compliant.  With `violating` the producer commits at
  the end of every arm, so a consumer rollback can land on a checkpoint the
  producer imposed: violating.
- chain(k): k messages, then the consumer commits or rolls (or, `dense`,
  a commit-or-roll choice after every message).  Same verdict argument.
- kpar(k): k independent copies of the speculative producer/consumer
  protocol on k services.  One copy has 11 process states and 13
  transitions, so k copies have 11**k states and 13*k*11**(k-1)
  transitions.
- ring(n): an n-role token ring; the requester (role n) commits or rolls
  after every round and no one else commits: rollback safe.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

SORTS = ("int", "str", "bool")
# names in tests/genprog.py output (f1, v2, l3a, t4) and in the corpus
# (f_eval, l_spec)
_NAME = re.compile(r"\b([fvlt]\d+[ab]?|[fl]_\w+)\b")
_LIT = {"int": "7", "str": '"v"', "bool": "true"}


@dataclass(frozen=True)
class TypedInput:
    """One check-large input: a type pair and the program inferring it."""
    name: str
    left: str  # consumer / requester type, .chty text
    right: str  # producer / acceptor type, .chty text
    program: str  # .chpi text
    compliant: bool  # verdict by construction
    states: int  # closed-form configuration count
    edges: int  # closed-form transition count


def rename(text: str, tag: str) -> str:
    """`text` with every generated or corpus name suffixed by `tag`."""
    return _NAME.sub(lambda m: f"{m.group(1)}_{tag}", text)


def _right_plus(arms: list) -> str:
    """Right-nested internal choice, the shape `if/else` chains infer to."""
    out = arms[-1]
    for arm in reversed(arms[:-1]):
        out = f"({arm}) (+) ({out})"
    return out


def _right_if(guards: list, arms: list) -> str:
    out = arms[-1]
    for g, arm in zip(reversed(guards), reversed(arms[:-1])):
        out = f"if {g}() then {arm} else {out}"
    return out


# Configuration and transition counts of violating menus, which grow
# quadratically; bench/test_bench.py re-derives every entry with the naive
# enumerator of tests/oracle_naive.py.
MENU_VIOLATING = {(4, 4): (88, 121), (8, 8): (272, 359)}


def menu(rng: random.Random, tag: str, n: int, m: int,
         violating: bool) -> TypedInput:
    labels = [f"l{tag}{i}" for i in range(n)]
    # one payload sequence for every arm: the continuations after the
    # label exchange coincide, which the closed-form counts rely on
    sorts = [[rng.choice(SORTS) for _ in range(m)]] * n
    tail = "cmt. t" if violating else "t"
    left = "mu t. " + _right_plus([
        f"sel[{lab}]. " + "".join(f"?[{s}]. " for s in ss)
        + "(roll (+) cmt. t)" for lab, ss in zip(labels, sorts)])
    right = "mu t. brn[ " + "; ".join(
        f"{lab}: " + "".join(f"![{s}]. " for s in ss) + tail
        for lab, ss in zip(labels, sorts)) + " ]"

    decls = [f"fun f{tag}_pick{i}(): bool" for i in range(n - 1)]
    decls += [f"fun f{tag}_roll{i}(): bool" for i in range(n)]
    req_arms = [
        f"x<+ {lab}. " + "".join(f"x?(v{i}_{j}: {s}). "
                                 for j, s in enumerate(ss))
        + f"if f{tag}_roll{i}() then roll else commit. X"
        for i, (lab, ss) in enumerate(zip(labels, sorts))]
    acc_tail = "commit. Y" if violating else "Y"
    acc_arms = [f"{lab}: " + "".join(f"y!<{_LIT[s]}>. " for s in ss)
                + acc_tail for lab, ss in zip(labels, sorts)]
    program = "\n".join(decls + [
        "request a(x). rec X. " + _right_if(
            [f"f{tag}_pick{i}" for i in range(n - 1)], req_arms),
        "| accept a(y). rec Y. y>+{ " + ", ".join(acc_arms) + " }"])
    if violating:
        states, edges = MENU_VIOLATING[(n, m)]
    else:
        states, edges = 2 * n + m + 2, 3 * n + m + 2
    return TypedInput(f"menu-{n}x{m}-{'viol' if violating else 'ok'}",
                      left, right, program, not violating, states, edges)


def chain(rng: random.Random, tag: str, k: int, dense: bool,
          violating: bool) -> TypedInput:
    sorts = [rng.choice(SORTS) for _ in range(k)]
    end_p = "cmt. end" if violating else "end"
    right = "".join(f"![{s}]. " for s in sorts) + end_p
    acc = "".join(f"y!<{_LIT[s]}>. " for s in sorts) + \
        ("commit. 0" if violating else "0")
    if dense:
        left, req = "end", "0"
        for i, s in reversed(list(enumerate(sorts))):
            left = f"?[{s}]. (roll (+) cmt. {left})"
            req = f"x?(v{i}: {s}). if f{tag}() then roll else commit. {req}"
        states, edges = 4 * k + 1, 5 * k
    else:
        left = "".join(f"?[{s}]. " for s in sorts) + "(roll (+) cmt. end)"
        req = "".join(f"x?(v{i}: {s}). " for i, s in enumerate(sorts)) + \
            f"if f{tag}() then roll else commit. 0"
        states, edges = k + 4, k + 4
    if violating:
        states, edges = states + 8, edges + 10
    program = (f"fun f{tag}(): bool\nrequest a(x). {req}\n"
               f"| accept a(y). {acc}")
    kind = "dense" if dense else "chain"
    return TypedInput(f"{kind}-{k}-{'viol' if violating else 'ok'}",
                      left, right, program, not violating, states, edges)


_PC_DECLS = """\
fun f{t}_req(): str in {{ "job" }}
fun f{t}_eval(str): bool
fun f{t}_compare(str, str): bool
fun f{t}_partial(): str in {{ "draft" }}
fun f{t}_final(): str in {{ "full" }}
fun f{t}_compute(): str in {{ "exact" }}"""

_PC_BODY = """\
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


def kpar(tag: str, k: int) -> str:
    """k speculative producer/consumer sessions side by side."""
    tags = [f"{tag}{i}" for i in range(k)]
    return "\n".join([_PC_DECLS.format(t=t) for t in tags] +
                     ["\n| ".join(_PC_BODY.format(t=t) for t in tags)])


def kpar_counts(k: int) -> tuple:
    return 11 ** k, 13 * k * 11 ** (k - 1)


def ring(rng: random.Random, tag: str, n: int) -> str:
    """n-role token ring: role n sends to 1, role i forwards to i+1, and
    role n receives it back, then commits or rolls the round."""
    sort = rng.choice(SORTS)
    lines = [f"fun f{tag}_tok(): {sort}", f"fun f{tag}_ok({sort}): bool",
             f"request a{tag}[{n}](x). rec X. x!<f{tag}_tok()>@1. "
             f"x?(t: {sort})@{n - 1}. "
             f"if f{tag}_ok(t) then commit. X else roll"]
    for r in range(1, n):
        src = n if r == 1 else r - 1
        lines.append(f"| accept a{tag}[{r}](y). rec Y. "
                     f"y?(t: {sort})@{src}. y!<t>@{r + 1}. Y")
    return "\n".join(lines)
