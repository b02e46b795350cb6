"""Checks of the benchmark itself: pinned answers, the correctness gate, a smoke run.

The pinned answers are confirmed at the small size against a naive
breadth-first enumerator that walks enabled_events/apply_event directly and
shares no code with btv.checker.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
from btv.envmodel import DomainViolationError, check_invariants  # noqa: E402
from btv.frontend import elaborate, parse  # noqa: E402
from btv.semantics import apply_event, enabled_events, initial_state  # noqa: E402

SEEDS = range(6)


def naive_answer(source: str) -> gen.Expected:
    """Level-by-level search in canonical event order, stopping at the first
    state that breaks an invariant, as the checker's verdict is defined."""
    model = elaborate(parse(source))
    init = initial_state(model)
    seen = {init}
    frontier = [(init, 0)]
    transitions = 0
    while frontier:
        nxt = []
        for state, depth in frontier:
            for event in enabled_events(model, state):
                transitions += 1
                try:
                    succ = apply_event(model, state, event)
                except DomainViolationError:
                    raise AssertionError("workloads must not leave a domain") from None
                if succ in seen:
                    continue
                seen.add(succ)
                if check_invariants(model.env, succ.env):
                    return gen.Expected("VIOLATED", len(seen), transitions, depth + 1)
                nxt.append((succ, depth + 1))
        frontier = nxt
    return gen.Expected("HOLDS", len(seen), transitions, None)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_pinned_answer_matches_naive_enumerator(workload):
    insts = [gen.generate(workload, seed, "small") for seed in SEEDS]
    for seed, inst in zip(SEEDS, insts):
        assert naive_answer(inst.source) == inst.expected, seed
    assert len({i.source for i in insts}) > 1, "the seed must vary the model"
    assert gen.generate(workload, 3, "small") == insts[3]


def test_gate_rejects_a_wrong_answer(tmp_path):
    inst = gen.generate("deep_counterexample", 0, "small")
    model = tmp_path / "deep.bt"
    model.write_text(inst.source)
    e = inst.expected
    sample = run.run_sample(model, 0, e, trace=False)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(run.end_to_end([sample])) == sorted(m["name"] for m in spec["end_to_end"])
    wrong = gen.Expected(e.status, e.states, e.transitions, e.trace_len + 1)
    with pytest.raises(run.SampleError):
        run.run_sample(model, 0, wrong, trace=False)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_smoke_smallest_size(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", "1", "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    assert all(v >= 0 for k, v in metrics.items() if k != "trace.overhead_s")
    # every state once inside explore, the replayed run's end state once in the gate
    states = gen.generate(workload, 7, "small").expected.states
    assert metrics["envmodel.check_invariants.calls"] == states + 1
    assert metrics["checker.explore.calls"] == metrics["frontend.parse.calls"] == 1
