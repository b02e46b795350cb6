"""The checker's packed-state search against the spec-driven oracle.

explore runs over control ids and compiled expressions; spec_explore in
conftest walks MachineState objects with enabled_events/apply_event. Their
verdicts, counterexamples and state deltas must agree exactly. The events
of each control id, derived from its one active node, must equal those of
conftest's every-node walk.
"""

import dataclasses
import json

import pytest

from btv import bundled_model_path, load_model
from btv.checker import (
    ExploreOptions,
    Status,
    _Automaton,
    explore,
    load_trace_file,
    replay,
    step_from_json,
    verdict_to_json,
)
from btv.envmodel import BinOp, DomainViolationError, IntLit, VarRef, eval_predicate
from btv.frontend import elaborate, parse
from btv.randmodels import GenParams, random_model_source
from btv.semantics import _candidates, apply_event, deterministic_policy, enabled_events

from conftest import naive_reachable, priority_key, spec_explore, walk_candidates

BUNDLED = ("robot_wall.bt", "robot_wall_buggy.bt", "fallback_running.bt")
SEEDS = range(300)
# Options, and the verdicts the corpus must reach under them.
OPTION_SETS = {
    "defaults": (ExploreOptions(),
                 {"HOLDS", "VIOLATED", "DEADLOCK", "DOMAIN_VIOLATION"}),
    "max_states=50": (ExploreOptions(max_states=50),
                      {"HOLDS", "VIOLATED", "DEADLOCK", "DOMAIN_VIOLATION",
                       "BOUND_EXCEEDED"}),
    "max_depth=7": (ExploreOptions(max_depth=7),
                    {"HOLDS", "VIOLATED", "DEADLOCK", "BOUND_EXCEEDED"}),
}

DRAIN = """
tree { root { sequence s { condition ok; action drain; } } }
env { var x: int in 0..3 = 3; var f: bool = false; }
condition ok { success_when: !f; }
action drain { outcome SUCCESS when true { x := x - 1; f := x == 1; } }
on_root_result { x := x + 2; }
"""

DEADLOCK = """
tree { root { action a; } }
env { var x: int in 0..500 = 0; var y: int in 0..500 = 0; var z: int in 0..200 = 0; }
action a { outcome SUCCESS when x + y + z >= 1; }
"""


def with_probe_invariant(model, seed: int):
    """The model plus an invariant that its first variable avoids one value."""
    var = model.env.variables[0]
    value = var.lo + seed % (var.hi - var.lo + 1)
    probe = ("probe", BinOp("!=", VarRef(var.name), IntLit(value)))
    return dataclasses.replace(model, env=dataclasses.replace(model.env, invariants=(probe,)))


def corpus():
    """Bundled models, two hand-written edge cases, and 300 deterministic and
    300 nondeterministic random models, each also with a probe invariant."""
    for name in BUNDLED:
        yield name, load_model(bundled_model_path(name))
    yield "drain", elaborate(parse(DRAIN))
    yield "deadlock", elaborate(parse(DEADLOCK))
    for deterministic in (True, False):
        params = GenParams(deterministic=deterministic)
        for seed in SEEDS:
            name = f"{'det' if deterministic else 'nondet'}:{seed}"
            model = elaborate(parse(random_model_source(seed, params)))
            yield name, model
            yield name + "+probe", with_probe_invariant(model, seed)


def comparable(verdict, model) -> dict:
    payload = verdict_to_json(verdict, model)
    del payload["stats"]["wall_time_s"]
    return payload


@pytest.mark.parametrize("options,reached", OPTION_SETS.values(), ids=OPTION_SETS.keys())
def test_verdicts_match_spec_oracle(options, reached):
    statuses = set()
    for name, model in corpus():
        kernel = comparable(explore(model, options), model)
        oracle = comparable(spec_explore(model, options), model)
        assert kernel == oracle, name
        statuses.add(kernel["status"])
    assert statuses == reached


def test_on_state_sees_exactly_the_reachable_states():
    for name, model in corpus():
        if name.endswith("+probe") or name in ("robot_wall_buggy.bt", "drain", "deadlock"):
            continue  # the search may stop early on these
        seen = []
        explore(model, on_state=seen.append)
        assert len(seen) == len(set(seen)), name
        assert set(seen) == naive_reachable(model), name


def deeper_random_models():
    for deterministic in (True, False):
        params = GenParams(max_nodes=40, max_depth=8, deterministic=deterministic)
        for seed in range(200):
            name = f"deep-{'det' if deterministic else 'nondet'}:{seed}"
            yield name, elaborate(parse(random_model_source(seed, params)))


def test_candidates_match_every_node_walk(monkeypatch):
    interned = set()
    intern = _Automaton.intern

    def recording_intern(self, control):
        interned.add(control)
        return intern(self, control)

    monkeypatch.setattr(_Automaton, "intern", recording_intern)
    for name, model in (*corpus(), *deeper_random_models()):
        interned.clear()
        explore(model)
        for ticks, results, _ in interned:
            assert _candidates(model, ticks, results) == \
                walk_candidates(model, ticks, results), name


def test_deterministic_policy_matches_priority_key():
    for name in BUNDLED:
        model = load_model(bundled_model_path(name))
        key = priority_key(model)
        for state in naive_reachable(model):
            enabled = enabled_events(model, state)
            if enabled:
                assert deterministic_policy(enabled, model, state) == \
                    min(enabled, key=key), name


def test_every_counterexample_replays_through_the_trace_file(tmp_path):
    path = tmp_path / "trace.json"
    replayed = set()
    for name, model in corpus():
        verdict = explore(model)
        if verdict.status is Status.HOLDS:
            continue
        path.write_text(json.dumps(verdict_to_json(verdict, model)))
        events, sha256 = load_trace_file(path)
        state = replay(model, events, trace_sha256=sha256)
        if verdict.status is Status.VIOLATED:
            pred = dict(model.env.invariants)[verdict.violated_invariant]
            assert not eval_predicate(pred, state.env), name
        elif verdict.status is Status.DEADLOCK:
            assert enabled_events(model, state) == [], name
        else:
            event = step_from_json(json.loads(path.read_text())["violating_event"])
            assert event in enabled_events(model, state), name
            with pytest.raises(DomainViolationError):
                apply_event(model, state, event)
        replayed.add(verdict.status)
    assert replayed == {Status.VIOLATED, Status.DEADLOCK, Status.DOMAIN_VIOLATION}
