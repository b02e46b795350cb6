"""Seeded `.bt` model families for the benchmark, with their pinned answers.

Each family has a fixed shape per size; the seed only varies thresholds and
initial values, in ways that provably leave the reachable state graph the
same size, so every seed has the same expected verdict and the timings of
different seeds are comparable:

- nondet_search: each of the four variables is independently mirrored
  (v -> HI - v) in its initial value, guards, effects and invariant, and
  the declaration order is shuffled. Mirroring is an isomorphism of the
  state graph, so state and transition counts do not depend on the seed.
- deep_counterexample: the invariant limit, the start value, the condition
  thresholds, y's value and the action's split point move, but every
  condition threshold stays at or below the limit, and the action's two
  SUCCESS outcomes split on x + y but have the same effect, so every
  condition succeeds on the path, the action decrements x whatever y is,
  and the counterexample has the same length for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("nondet_search", "deep_counterexample")
SIZES = ("full", "small")


@dataclass(frozen=True)
class Expected:
    status: str
    states: int
    transitions: int
    trace_len: int | None  # counterexample length; None when the model HOLDS


@dataclass(frozen=True)
class Instance:
    source: str
    expected: Expected


def generate(workload: str, seed: int, size: str = "full") -> Instance:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{workload}:{seed}")
    return _FAMILIES[workload](rng, size == "small")


# --- nondet_search -------------------------------------------------------------

_CMP_MIRROR = {"<=": ">=", ">=": "<="}

# Variable domain top and the pinned (states, transitions) for each size.
# The counts are seed independent (see the module docstring) and were
# confirmed against a naive enumerator that does not use btv.checker.
_NONDET = {False: (3, 7601, 8841), True: (2, 2354, 2707)}


def _nondet(rng: random.Random, small: bool) -> Instance:
    hi, states, transitions = _NONDET[small]
    names = ["a", "b", "c", "d"]
    mirrored = {v: rng.random() < 0.5 for v in names}

    def val(v: str, k: int) -> int:
        return hi - k if mirrored[v] else k

    def cmp(v: str, op: str, k: int) -> str:
        return f"{v} {_CMP_MIRROR[op] if mirrored[v] else op} {val(v, k)}"

    def add(v: str, d: int) -> str:
        d = -d if mirrored[v] else d
        return f"{{ {v} := {v} {'+' if d > 0 else '-'} {abs(d)}; }}"

    def term(v: str) -> str:
        return f"({hi} - {v})" if mirrored[v] else v

    top, step = hi - 1, min(3, hi)  # `step` keeps `c := c - 3` in range
    order = names[:]
    rng.shuffle(order)
    lines = [
        "tree { root {",
        "  fallback fb {",
        "    sequence work { condition ready; action move; action mix; }",
        "    action reset;",
        "  }",
        "} }",
        "env {",
        *(f"  var {v}: int in 0..{hi} = {val(v, 0)};" for v in order),
        "}",
        f"condition ready {{ success_when: {cmp('a', '<=', hi - 2)} || "
        f"{cmp('c', '>=', hi - 2)}; }}",
        "action move {",
        f"  outcome SUCCESS when {cmp('a', '<=', top)} {add('a', 1)}",
        f"  outcome SUCCESS when {cmp('b', '<=', top)} {add('b', 1)}",
        f"  outcome RUNNING when {cmp('b', '>=', 1)} {add('b', -1)}",
        f"  outcome FAILURE when {cmp('a', '>=', hi)} && {cmp('b', '>=', hi)};",
        f"  outcome FAILURE when {cmp('a', '>=', hi // 2)} {add('a', -1)}",
        "}",
        "action mix {",
        f"  outcome SUCCESS when {cmp('c', '<=', top)} {add('c', 1)}",
        f"  outcome FAILURE when {cmp('d', '<=', top)} {add('d', 1)}",
        f"  outcome SUCCESS when {cmp('c', '>=', step)} {add('c', -step)}",
        f"  outcome RUNNING when {cmp('c', '>=', hi)} && {cmp('d', '>=', hi)};",
        "}",
        "action reset {",
        f"  outcome SUCCESS when {cmp('a', '>=', 2)} {add('a', -2)}",
        f"  outcome FAILURE when {cmp('d', '>=', 1)} {add('d', -1)}",
        f"  outcome RUNNING when {cmp('a', '<=', 1)} || {cmp('c', '>=', hi - 1)};",
        f"  outcome SUCCESS when {cmp('b', '>=', 2)} {add('b', -2)}",
        "}",
        f"invariant bounded {{ {' + '.join(term(v) for v in names)} <= {4 * hi}; }}",
    ]
    return Instance("\n".join(lines) + "\n",
                    Expected("HOLDS", states, transitions, None))


# --- deep_counterexample ---------------------------------------------------------

def _deep_cex(rng: random.Random, small: bool) -> Instance:
    # `depth` nested sequences around a sequence of `width` conditions and an
    # action: the nesting makes validate_tree's closure, and the action's
    # guards over x and a `ydom`-valued y make the exhaustiveness check, the
    # bulk of loading; the wide sequence makes every state large.
    depth, width, cycles, ydom = (5, 5, 2, 10) if small else (100, 100, 1, 400)
    limit = rng.randint(20, 80)
    start = limit + cycles
    conds = [f"c{i}" for i in range(width)]
    split = rng.randint(ydom // 4, ydom)
    lines = ["tree { root {"]
    lines += [f"{'  ' * (i + 1)}sequence s{i} {{" for i in range(depth)]
    pad = "  " * (depth + 1)
    lines += [f"{pad}sequence wide {{", *(f"{pad}  condition {c};" for c in conds),
              f"{pad}  action descend;", f"{pad}}}"]
    lines += [f"{'  ' * (i + 1)}}}" for i in reversed(range(depth))]
    lines += [
        "} }",
        f"env {{ var x: int in 0..99 = {start}; "
        f"var y: int in 0..{ydom - 1} = {rng.randrange(ydom)}; }}",
    ]
    for c in conds:
        t = rng.randint(0, limit)
        pred = f"x >= {t}" if rng.random() < 0.5 else f"x > {t - 1}"
        lines.append(f"condition {c} {{ success_when: {pred}; }}")
    lines += [
        "action descend {",
        f"  outcome SUCCESS when x >= 1 && x + y <= {split} {{ x := x - 1; }}",
        f"  outcome SUCCESS when x >= 1 && x + y > {split} {{ x := x - 1; }}",
        "  outcome FAILURE when x <= 0;",
        "}",
        f"invariant above {{ x >= {limit}; }}",
    ]
    # One tick cycle is 2*(depth + width) + 7 events and the action fires as
    # event depth + 2*width + 4; the (cycles+1)-th firing takes x below the
    # limit.
    trace_len = cycles * (2 * (depth + width) + 7) + depth + 2 * width + 4
    return Instance("\n".join(lines) + "\n",
                    Expected("VIOLATED", trace_len + 1, trace_len, trace_len))


_FAMILIES = {"nondet_search": _nondet, "deep_counterexample": _deep_cex}
