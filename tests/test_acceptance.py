"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

from btv import bundled_model_path, load_model
from btv.checker import ExploreOptions, Status, explore, replay
from btv.core import NodeType, TickResult, TreeSpec, validate_tree
from btv.frontend import elaborate, parse
from btv.semantics import initial_state, tick_cycle

from conftest import (
    bfs_depth_of_first,
    cycle_outcomes,
    machine_invariant_checker,
    naive_reachable,
    named,
    reference_tick,
)
from randmodels import random_model_source

BUNDLED = ("robot_wall.bt", "robot_wall_buggy.bt", "fallback_running.bt")


def report(n: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok


def test_criterion_1_case_study_holds():
    """robot_wall.bt: HOLDS, exhaustive, min reachable distance 4, < 5 s."""
    started = time.perf_counter()
    model = load_model(bundled_model_path("robot_wall.bt"))
    assert model.env.decl("time").hi == 100
    assert named(model.env, model.env.initial_state())["distance_to_object"] == 10
    verdict = explore(model)
    elapsed = time.perf_counter() - started
    oracle_states = naive_reachable(model)
    min_distance = min(named(model.env, s.env)["distance_to_object"] for s in oracle_states)
    ok = (verdict.status is Status.HOLDS
          and verdict.states_explored == len(oracle_states)
          and min_distance == 4
          and elapsed < 5.0)
    report(1, ok, f"HOLDS over {verdict.states_explored} states, "
                  f"min distance {min_distance}, {elapsed:.2f}s")


def test_criterion_2_mutation_detected():
    """Threshold 2 variant: VIOLATED on "safe", replays to distance 2,
    trace minimal in transition count, < 5 s."""
    started = time.perf_counter()
    model = load_model(bundled_model_path("robot_wall_buggy.bt"))
    verdict = explore(model)
    elapsed = time.perf_counter() - started
    final = replay(model, verdict.counterexample)
    shortest = bfs_depth_of_first(
        model, lambda s: named(model.env, s.env)["distance_to_object"] < 3)
    ok = (verdict.status is Status.VIOLATED
          and verdict.violated_invariant == "safe"
          and named(model.env, final.env)["distance_to_object"] == 2
          and len(verdict.counterexample) == shortest
          and elapsed < 5.0)
    report(2, ok, f"VIOLATED on 'safe', counterexample length "
                  f"{len(verdict.counterexample)} (minimal), replays to "
                  f"distance 2, {elapsed:.2f}s")


def test_criterion_3_oracle_equivalence():
    """1000 seeded random deterministic models: machine == reference, < 60 s."""
    started = time.perf_counter()
    models = 0
    mismatches = 0
    for seed in range(1000):
        model = elaborate(parse(random_model_source(seed)))
        assert len(model.tree.node_order) <= 10
        assert max(model.tree.depth.values()) <= 4
        assert len(model.env.variables) <= 3
        state = initial_state(model)
        env = model.env.initial_state()
        for _ in range(3):
            state, result, _ = tick_cycle(model, state)
            ref_result, env = reference_tick(model, env)
            if result is not ref_result or state.env != env:
                mismatches += 1
                break
        models += 1
    elapsed = time.perf_counter() - started
    ok = models >= 1000 and mismatches == 0 and elapsed < 60.0
    report(3, ok, f"{models} models, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_4_confluence():
    """Every <= 7-node model of criterion 3: one terminal (result, env) pair."""
    checked = 0
    non_confluent = 0
    for seed in range(1000):
        model = elaborate(parse(random_model_source(seed)))
        if len(model.tree.node_order) > 7:
            continue
        outcomes = cycle_outcomes(model, initial_state(model))
        if len(outcomes) != 1:
            non_confluent += 1
        checked += 1
    ok = checked > 0 and non_confluent == 0
    report(4, ok, f"{checked} models, {non_confluent} non-confluent")


def test_criterion_5_well_formedness_suite():
    """Eight malformed shapes, each rejected with the right tag."""
    C, A, SEQ, ROOT = (NodeType.CONDITION, NodeType.ACTION, NodeType.SEQUENCE,
                       NodeType.ROOT)
    cases = [
        ("REQ1", TreeSpec.build({"r1": ROOT, "r2": ROOT, "c": C},
                                {"r1": 0, "r2": 1, "c": 2},
                                {"r2": "r1", "c": "r2"})),
        ("REQ2", TreeSpec.build({"root": ROOT, "c": C, "orphan": C},
                                {"root": 0, "c": 1, "orphan": 2},
                                {"c": "root"})),
        ("REQ3", TreeSpec.build({"root": ROOT, "c": C, "a": SEQ, "b": C},
                                {"root": 0, "c": 1, "a": 2, "b": 3},
                                {"c": "root", "a": "b", "b": "a"})),
        ("REQ4", TreeSpec.build({"root": ROOT, "c": C, "isle": SEQ, "leaf": C},
                                {"root": 0, "c": 1, "isle": 2, "leaf": 3},
                                {"c": "root", "leaf": "isle", "isle": "leaf"})),
        ("ID_UNIQUE", TreeSpec.build({"root": ROOT, "s": SEQ, "c1": C, "c2": A},
                                     {"root": 0, "s": 1, "c1": 2, "c2": 2},
                                     {"s": "root", "c1": "s", "c2": "s"})),
        ("ROOT_ARITY", TreeSpec.build({"root": ROOT, "c1": C, "c2": C},
                                      {"root": 0, "c1": 1, "c2": 2},
                                      {"c1": "root", "c2": "root"})),
        ("LEAF_ARITY", TreeSpec.build({"root": ROOT, "s": SEQ},
                                      {"root": 0, "s": 1},
                                      {"s": "root"})),
        ("ID_BFS", TreeSpec.build({"root": ROOT, "s": SEQ, "c1": C, "c2": C},
                                  {"root": 0, "s": 1, "c1": 5, "c2": 9},
                                  {"s": "root", "c1": "s", "c2": "s"})),
    ]
    hits = 0
    for expected_tag, spec in cases:
        report_ = validate_tree(spec)
        if expected_tag in report_.tags() and not report_.ok:
            hits += 1
    report(5, hits == 8, f"{hits}/8 shapes rejected with the expected tag")


def test_criterion_6_fallback_running_semantics():
    """Failing condition + RUNNING action under a fallback => root RUNNING,
    by both the simulator and the checker's cycle graph."""
    model = load_model(bundled_model_path("fallback_running.bt"))
    _, sim_result, _ = tick_cycle(model, initial_state(model))
    outcomes = cycle_outcomes(model, initial_state(model))
    results = {r for r, _ in outcomes}
    ok = sim_result is TickResult.RUNNING and results == {TickResult.RUNNING}
    report(6, ok, f"simulate: {sim_result.value}, cycle graph: "
                  f"{sorted(r.value for r in results)}")


def test_criterion_7_machine_state_invariants():
    """result=>ticked and ticked=>parent-ticked in every discovered state,
    across bundled models (full) and the 1000 random models (capped)."""
    states_seen = 0

    def counting(checker):
        def cb(state):
            nonlocal states_seen
            states_seen += 1
            checker(state)
        return cb

    for name in BUNDLED:
        model = load_model(bundled_model_path(name))
        explore(model, on_state=counting(machine_invariant_checker(model)))
    for seed in range(1000):
        model = elaborate(parse(random_model_source(seed)))
        explore(model, ExploreOptions(max_states=2000),
                on_state=counting(machine_invariant_checker(model)))
    report(7, True, f"invariants held in all {states_seen} discovered states")

