"""Shared fixtures and independent oracles.

The enumeration helpers here deliberately avoid checker.py's machinery
(packed states, control ids, compiled expressions): they walk the raw
semantics so the checker has something independent to be compared against.
"""

from __future__ import annotations

import pytest

from btv import bundled_model_path, load_model
from btv.checker import ExploreOptions, Stats, Status, TraceStep, Verdict
from btv.core import TickResult
from btv.envmodel import DomainViolationError, eval_predicate
from btv.semantics import Model, apply_event, enabled_events, initial_state


@pytest.fixture(scope="session")
def robot_wall() -> Model:
    return load_model(bundled_model_path("robot_wall.bt"))


@pytest.fixture(scope="session")
def robot_wall_buggy() -> Model:
    return load_model(bundled_model_path("robot_wall_buggy.bt"))


@pytest.fixture(scope="session")
def fallback_running() -> Model:
    return load_model(bundled_model_path("fallback_running.bt"))


def naive_reachable(model: Model, cap: int = 50_000) -> set:
    """Depth-first enumeration of reachable states with a plain visited set."""
    init = initial_state(model)
    seen = {init}
    stack = [init]
    while stack:
        state = stack.pop()
        for event in enabled_events(model, state):
            succ = apply_event(model, state, event)
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
                if len(seen) > cap:
                    raise AssertionError("oracle cap exceeded")
    return seen


def bfs_depth_of_first(model: Model, predicate) -> int:
    """Transition count to the first state satisfying `predicate`, by level."""
    init = initial_state(model)
    if predicate(init):
        return 0
    seen = {init}
    frontier = [init]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for state in frontier:
            for event in enabled_events(model, state):
                succ = apply_event(model, state, event)
                if succ in seen:
                    continue
                seen.add(succ)
                if predicate(succ):
                    return depth
                nxt.append(succ)
        frontier = nxt
    raise AssertionError("no state satisfies the predicate")


def no_dedup_states(model: Model, depth: int) -> set:
    """States reachable within `depth` transitions, no visited set at all."""
    out = set()

    def walk(state, remaining):
        out.add(state)
        if remaining == 0:
            return
        for event in enabled_events(model, state):
            walk(apply_event(model, state, event), remaining - 1)

    walk(initial_state(model), depth)
    return out


def machine_invariant_checker(model: Model):
    """Callback asserting result=>ticked and ticked=>parent-ticked."""
    tree = model.tree
    idx = tree.node_index

    def check(state):
        for i, node in enumerate(tree.node_order):
            if state.results[i] is not TickResult.UNKNOWN:
                assert state.ticks[i], f"{node} has a result but is not ticked"
            parent = tree.parent.get(node)
            if state.ticks[i] and parent is not None:
                assert state.ticks[idx[parent]], \
                    f"{node} is ticked but its parent {parent} is not"

    return check


def spec_explore(model: Model, options: ExploreOptions | None = None,
                 on_state=None) -> Verdict:
    """checker.explore's verdict, computed over MachineState objects with
    enabled_events/apply_event and the tree-walking invariant evaluator.

    Same BFS order, dedup, bounds and first-problem-wins rules as the
    checker, but none of its code, so the two can be compared verdict for
    verdict. stats.wall_time_s is left at 0.
    """
    opts = options or ExploreOptions()
    stats = Stats()
    init = initial_state(model)
    parents = {init: None}
    transitions = 0
    if on_state:
        on_state(init)

    def broken(state):
        return [name for name, pred in model.env.invariants
                if not eval_predicate(pred, state.env)]

    def finish(status, bad_state=None, **fields):
        trace = None if bad_state is None else _spec_trace(model, parents, bad_state)
        return Verdict(status, len(parents), transitions, counterexample=trace,
                       stats=stats, **fields)

    violated = broken(init)
    if violated:
        return finish(Status.VIOLATED, init, violated_invariant=violated[0],
                      detail=f"invariant {violated[0]!r} false in the initial state")
    frontier = [init]
    depth = 0
    while frontier:
        stats.peak_frontier = max(stats.peak_frontier, len(frontier))
        stats.depth = depth
        if opts.max_depth is not None and depth >= opts.max_depth:
            return finish(Status.BOUND_EXCEEDED,
                          detail=f"max depth {opts.max_depth} reached with "
                                 f"{len(frontier)} frontier states unexplored")
        next_frontier = []
        for state in frontier:
            events = enabled_events(model, state)
            if not events:
                return finish(Status.DEADLOCK, state,
                              detail="no event enabled in a non-final state")
            for event in events:
                transitions += 1
                try:
                    successor = apply_event(model, state, event)
                except DomainViolationError as err:
                    return finish(Status.DOMAIN_VIOLATION, state, violating_event=event,
                                  detail=f"{event.describe()}: {err.name} := "
                                         f"{err.value} leaves the declared domain")
                if successor in parents:
                    continue
                if len(parents) >= opts.max_states:
                    return finish(Status.BOUND_EXCEEDED,
                                  detail=f"max states {opts.max_states} reached")
                parents[successor] = (state, event)
                if on_state:
                    on_state(successor)
                violated = broken(successor)
                if violated:
                    return finish(Status.VIOLATED, successor,
                                  violated_invariant=violated[0])
                next_frontier.append(successor)
        frontier = next_frontier
        depth += 1
    return Verdict(Status.HOLDS, len(parents), transitions, stats=stats)


def _spec_trace(model: Model, parents, target) -> list[TraceStep]:
    events = []
    while parents[target] is not None:
        target, event = parents[target]
        events.append(event)
    events.reverse()
    steps = []
    state = initial_state(model)
    for event in events:
        successor = apply_event(model, state, event)
        steps.append(TraceStep(event, _spec_delta(model, state, successor)))
        state = successor
    return steps


def _spec_delta(model: Model, before, after) -> dict:
    delta = {}
    for attr, label in (("ticks", "n_tick"), ("results", "n_result"),
                        ("analyzing", "analyzing_subtree")):
        changed = {}
        for i, node in enumerate(model.tree.node_order):
            b, a = getattr(before, attr)[i], getattr(after, attr)[i]
            if b != a:
                changed[node] = a.value if isinstance(a, TickResult) else a
        if changed:
            delta[label] = changed
    env = {name: a for name, a in after.env.as_dict().items()
           if a != before.env.get(name)}
    if env:
        delta["env"] = env
    return delta
