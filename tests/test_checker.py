import json

import pytest

from btv.checker import (
    INTERRUPTED,
    ExploreOptions,
    ReplayError,
    Status,
    explore,
    load_trace_file,
    replay,
    step_from_json,
    step_to_json,
    verdict_to_json,
)
from btv.core import TickResult
from btv.envmodel import DomainViolationError
from btv.frontend import elaborate, parse
from btv.semantics import Event, EventKind, apply_event, initial_state

from conftest import (bfs_depth_of_first, cycle_outcomes, naive_reachable, named,
                      no_dedup_states)
from randmodels import GenParams, random_model_source

S, F = TickResult.SUCCESS, TickResult.FAILURE


def min_distance(model, states):
    return min(named(model.env, s.env)["distance_to_object"] for s in states)


def test_holds_and_agrees_with_naive_oracle(robot_wall):
    verdict = explore(robot_wall)
    oracle_states = naive_reachable(robot_wall)
    assert verdict.status is Status.HOLDS
    assert verdict.states_explored == len(oracle_states) == 761
    assert verdict.counterexample is None
    assert min_distance(robot_wall, oracle_states) == 4


def test_fallback_running_state_count(fallback_running):
    verdict = explore(fallback_running)
    assert verdict.status is Status.HOLDS
    assert verdict.states_explored == len(naive_reachable(fallback_running))


def test_violation_names_invariant_and_replays(robot_wall_buggy):
    verdict = explore(robot_wall_buggy)
    assert verdict.status is Status.VIOLATED
    assert verdict.violated_invariant == "safe"
    final = replay(robot_wall_buggy, verdict.counterexample)
    assert named(robot_wall_buggy.env, final.env)["distance_to_object"] == 2


def test_counterexample_is_bfs_minimal(robot_wall_buggy):
    verdict = explore(robot_wall_buggy)
    shortest = bfs_depth_of_first(
        robot_wall_buggy, lambda s: named(robot_wall_buggy.env, s.env)["distance_to_object"] < 3)
    assert len(verdict.counterexample) == shortest == 69


def test_verdicts_are_reproducible(robot_wall_buggy):
    v1 = explore(robot_wall_buggy)
    v2 = explore(robot_wall_buggy)
    assert [s.event for s in v1.counterexample] == [s.event for s in v2.counterexample]
    assert (v1.states_explored, v1.transitions) == (v2.states_explored, v2.transitions)


def test_initial_state_already_violating():
    model = elaborate(parse("""
    tree { root { condition c; } }
    env { var x: int in 0..9 = 0; }
    condition c { success_when: x == 0; }
    invariant positive { x >= 1; }
    """))
    verdict = explore(model)
    assert verdict.status is Status.VIOLATED
    assert verdict.counterexample == []
    assert verdict.violated_invariant == "positive"


DRAIN = """
tree { root { action drain; } }
env { var x: int in 0..3 = 3; }
action drain { outcome SUCCESS when true { x := x - 1; } }
"""


def test_domain_violation_detected_with_replayable_prefix():
    model = elaborate(parse(DRAIN))
    verdict = explore(model)
    assert verdict.status is Status.DOMAIN_VIOLATION
    assert verdict.violating_event is not None
    assert verdict.violating_event.kind is EventKind.ACT_OUTCOME
    # prefix replays cleanly to the state the violating event fires from
    state = replay(model, verdict.counterexample)
    assert named(model.env, state.env)["x"] == 0
    with pytest.raises(DomainViolationError) as err:
        apply_event(model, state, verdict.violating_event)
    assert err.value.name == "x"
    assert err.value.value == -1


def test_deadlock_verdict():
    model = elaborate(parse("""
    tree { root { action a; } }
    env { var x: int in 0..500 = 0; var y: int in 0..500 = 0;
          var z: int in 0..200 = 0; }
    action a { outcome SUCCESS when x + y + z >= 1; }
    """))
    # the guard's variables span 501*501*201 > 10^6 valuations, which skips
    # the load-time check; the guard never holds at runtime, so the ticked
    # action deadlocks.
    assert model.warnings
    verdict = explore(model)
    assert verdict.status is Status.DEADLOCK
    assert verdict.counterexample is not None
    deadlocked = replay(model, verdict.counterexample)
    from btv.semantics import enabled_events
    assert enabled_events(model, deadlocked) == []


def test_bound_exceeded_by_states(robot_wall):
    verdict = explore(robot_wall, ExploreOptions(max_states=10))
    assert verdict.status is Status.BOUND_EXCEEDED
    assert verdict.states_explored == 10


def test_bound_exceeded_by_depth(robot_wall):
    verdict = explore(robot_wall, ExploreOptions(max_depth=5))
    assert verdict.status is Status.BOUND_EXCEEDED


def test_interrupt_returns_the_partial_search(robot_wall):
    seen = []

    def interrupt_at_100(state):
        seen.append(state)
        if len(seen) == 100:
            raise KeyboardInterrupt

    verdict = explore(robot_wall, on_state=interrupt_at_100)
    assert verdict.status is Status.BOUND_EXCEEDED
    assert verdict.detail == INTERRUPTED
    assert verdict.states_explored == 100
    assert verdict.counterexample is None
    complete = explore(robot_wall)
    assert 0 < verdict.stats.depth < complete.stats.depth
    assert 0 < verdict.stats.peak_frontier <= complete.stats.peak_frontier
    assert 0 < verdict.transitions < complete.transitions


def test_dedup_misses_nothing(fallback_running):
    discovered = set()
    explore(fallback_running, on_state=discovered.add)
    assert no_dedup_states(fallback_running, depth=12) <= discovered


def test_cycle_outcomes_on_nondeterministic_model():
    model = elaborate(parse("""
    tree { root { action a; } }
    env { var x: int in 0..9 = 0; }
    action a {
      outcome SUCCESS when x >= 0 { x := 1; }
      outcome FAILURE when x >= 0 { x := 2; }
    }
    """))
    outcomes = cycle_outcomes(model, initial_state(model))
    assert outcomes == {(S, (("x", 1),)), (F, (("x", 2),))}


def test_cycle_outcomes_deterministic_is_singleton(robot_wall):
    outcomes = cycle_outcomes(robot_wall, initial_state(robot_wall))
    assert len(outcomes) == 1
    ((result, env),) = outcomes
    assert result is S
    assert dict(env)["distance_to_object"] == 9


def test_nondeterministic_model_explored_fully():
    model = elaborate(parse(random_model_source(3, GenParams(deterministic=False))))
    verdict = explore(model, ExploreOptions(max_states=5000))
    assert verdict.status is Status.HOLDS
    assert verdict.states_explored == len(naive_reachable(model))


def test_replay_empty_trace_is_initial(robot_wall):
    assert replay(robot_wall, []) == initial_state(robot_wall)


def test_replay_rejects_bogus_event(robot_wall):
    bogus = [Event(EventKind.TICK_ROOT, "root"),
             Event(EventKind.TICK_ROOT, "root")]
    with pytest.raises(ReplayError) as err:
        replay(robot_wall, bogus)
    assert err.value.step == 1


def test_replay_rejects_model_mismatch(robot_wall):
    with pytest.raises(ReplayError):
        replay(robot_wall, [], trace_sha256="0" * 64)


def test_trace_json_round_trip(robot_wall_buggy, tmp_path):
    verdict = explore(robot_wall_buggy)
    payload = verdict_to_json(verdict, robot_wall_buggy)
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(payload))
    events, sha = load_trace_file(path)
    assert sha == robot_wall_buggy.source_sha256
    assert events == [s.event for s in verdict.counterexample]
    final = replay(robot_wall_buggy, events, trace_sha256=sha)
    assert named(robot_wall_buggy.env, final.env)["distance_to_object"] == 2


def test_step_json_round_trip():
    e = Event(EventKind.ACT_OUTCOME, "a", outcome=(S, 1))
    from btv.checker import TraceStep
    assert step_from_json(step_to_json(TraceStep(e, {}))) == e
