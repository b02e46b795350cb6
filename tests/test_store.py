"""Which states the search stores, against independent oracles.

explore keeps a visited entry only for the initial state and the targets
of transitions marked `store` (btv.semantics._Automaton). Every other
state has exactly one predecessor state, so it is produced once and is
counted without a lookup. conftest's control_graph builds the whole
guard-free control graph eagerly from the tuple-based oracles: a control
code that two edges, or an edge with effects, lead into must be entered
only by `store` transitions, and _Automaton.pred must name the one source
of every other. spec_explore stores every state; explore must agree with
it on counts, on where max_states stops the search, and on
counterexamples that end at or pass through unstored states.
checker._trace_to rebuilds a counterexample by walking back through both
kinds of state; conftest.trace_to, the earlier rebuild that unpacks every
key and runs every step's guards and effects, must give the same steps.
"""

import collections
import dataclasses
import json
import random

from btv import bundled_model_path, load_model
import btv.checker
from btv.checker import ExploreOptions, Status, explore, replay, step_to_json
from btv.envmodel import Assignment, BinOp, DomainViolationError, IntLit, VarRef
from btv.frontend import elaborate, parse
from btv.semantics import EventKind, _Automaton, initial_state

import conftest
from conftest import apply_event, control_graph, enabled_events, spec_explore
from randmodels import GenParams, random_model_source
from test_frontend import bundled_and_benchmark_sources
from test_kernel import BUNDLED, comparable, corpus, with_probe_invariant


def random_models(params: GenParams, seeds, prefix: str = ""):
    for seed in seeds:
        yield f"{prefix}{seed}", elaborate(parse(random_model_source(seed, params)))


# Models whose root's only child is a leaf. Under the root, a condition's
# outcome clears the root's analyzing bit, which is 0 before and after.
ROOT_CONDITION = """
tree { root { condition c; } }
env { var x: int in 0..3 = 0; }
condition c { success_when: x <= 1; }
on_root_result { x := x + 1; }
invariant i { x <= 3; }
"""
ROOT_ACTION = """
tree { root { action a; } }
env { var x: int in 0..3 = 0; }
action a {
  outcome SUCCESS when x < 3 { x := x + 1; }
  outcome RUNNING when x >= 1;
  outcome RUNNING when x == 3;
}
invariant i { x <= 3; }
"""


def store_rule_models():
    for name in BUNDLED:
        yield name, load_model(bundled_model_path(name))
    yield "root-condition", elaborate(parse(ROOT_CONDITION))
    yield "root-action", elaborate(parse(ROOT_ACTION))
    for deterministic in (True, False):
        kind = "det" if deterministic else "nondet"
        yield from random_models(GenParams(deterministic=deterministic), range(150),
                                 f"{kind}:")
        yield from random_models(GenParams(max_nodes=40, max_depth=8,
                                           deterministic=deterministic),
                                 range(100), f"deep-{kind}:")


def test_store_marks_every_control_id_that_can_be_entered_twice():
    unstored_kinds = collections.Counter()
    merged_kinds = collections.Counter()
    for name, model in store_rule_models():
        graph = control_graph(model)
        auto = _Automaton(model)
        assert auto.intern(initial_state(model).code) == 0
        for code in graph:
            auto.transitions(auto.intern(code))
        assert set(auto.controls) == set(graph), name
        into = collections.defaultdict(list)
        for cid, transitions in enumerate(auto.table):
            for event, _, _, nxt, _, store in transitions:
                into[nxt].append((cid, event, store))
        for cid, code in enumerate(auto.controls):
            sources = graph[code]
            # The tool's edges into the code are the oracle's, entry aside.
            assert sorted((auto.controls[src], event.kind.value, event.node, event.outcome)
                          for src, event, _ in into[cid]) == \
                sorted((src, event.kind.value, event.node, event.outcome)
                       for src, event, _ in sources if event is not None), name
            if len(sources) != 1 or any(effects for *_, effects in sources):
                assert all(store for *_, store in into[cid]), (name, code)
                assert cid not in auto.pred, (name, code)
                merged_kinds.update(event.kind for _, event, _ in into[cid])
            elif into[cid] and not into[cid][0][2]:
                (src, event, _), = into[cid]
                assert auto.pred[cid] == src, (name, code)
                unstored_kinds[event.kind] += 1
        assert len(auto.pred) == sum(not store for edges in into.values()
                                     for *_, store in edges), name
        # A condition's outcome has one predecessor state, so it is never stored.
        assert not any(store for edges in into.values() for _, event, store in edges
                       if event.kind is EventKind.COND_OUTCOME), name
    # Every kind outside the store rule leaves some target unstored, and
    # each kind the rule names for merging does merge somewhere.
    assert set(unstored_kinds) == set(EventKind) - {
        EventKind.ACT_OUTCOME, EventKind.ROOT_REINITIALIZE, EventKind.ROOT_TICKED}
    assert {EventKind.ROOT_REINITIALIZE, EventKind.ROOT_TICKED, EventKind.ACT_OUTCOME,
            EventKind.RESULT_ARRIVED} <= set(merged_kinds)


def counted_explore(model, options):
    """explore's verdict and the number of on_state calls it made."""
    seen = []
    verdict = explore(model, options, on_state=seen.append)
    return verdict, len(seen)


def test_max_states_stops_at_exactly_that_count():
    params = GenParams(max_nodes=6, max_vars=2, max_domain=4)
    stopped = 0
    for name, model in (*random_models(params, range(40)),
                        *random_models(dataclasses.replace(params, deterministic=False),
                                       range(40), "nondet:")):
        full, calls = counted_explore(model, None)
        assert calls == full.states_explored, name
        assert comparable(full, model) == comparable(spec_explore(model), model), name
        if full.states_explored > 150:
            continue
        for k in range(1, full.states_explored + 1):
            options = ExploreOptions(max_states=k)
            verdict, calls = counted_explore(model, options)
            assert comparable(verdict, model) == \
                comparable(spec_explore(model, options), model), (name, k)
            assert calls == verdict.states_explored, (name, k)
            if verdict.status is Status.BOUND_EXCEEDED:
                assert verdict.states_explored == k, (name, k)
                stopped += 1
    assert stopped > 1000


def with_gap(model, rng: random.Random):
    """The model with one action's last outcome rule dropped, so that the
    action may have no enabled rule: a DEADLOCK."""
    actions = [node for node, behavior in model.behaviors.items()
               if len(getattr(behavior, "outcomes", ())) > 1]
    if not actions:
        return None
    node = rng.choice(actions)
    behavior = model.behaviors[node]
    narrowed = dataclasses.replace(behavior, outcomes=behavior.outcomes[:-1])
    return dataclasses.replace(model, behaviors={**model.behaviors, node: narrowed})


def with_overflow(model, rng: random.Random):
    """The model with one action rule also adding 1 to an int variable, so
    that the effect may leave the domain: a DOMAIN_VIOLATION."""
    actions = [node for node, behavior in model.behaviors.items()
               if hasattr(behavior, "outcomes")]
    ints = [var.name for var in model.env.variables if not var.is_bool]
    if not actions:
        return None
    node = rng.choice(actions)
    behavior = model.behaviors[node]
    rule = rng.randrange(len(behavior.outcomes))
    name = rng.choice(ints)
    bump = Assignment(name, BinOp("+", VarRef(name), IntLit(1)))
    outcome = behavior.outcomes[rule]
    outcomes = list(behavior.outcomes)
    outcomes[rule] = dataclasses.replace(
        outcome, effects=tuple(a for a in outcome.effects if a.name != name) + (bump,))
    bumped = dataclasses.replace(behavior, outcomes=tuple(outcomes))
    return dataclasses.replace(model, behaviors={**model.behaviors, node: bumped})


def step_shapes(model, trace) -> list[tuple[bool, bool, int]]:
    """For each step of `trace`: whether explore left its target unstored,
    whether it changed the values, and how many transitions lead from its
    control id to its target's."""
    auto = _Automaton(model)
    cid = auto.intern(initial_state(model).code)
    out = []
    for step in trace:
        transitions = auto.transitions(cid)
        store, nxt = next((store, nxt) for event, _, _, nxt, _, store in transitions
                          if event == step.event)
        out.append((not store, "env" in step.state_delta,
                    sum(t[3] == nxt for t in transitions)))
        cid = nxt
    return out


def test_counterexamples_through_unstored_states():
    # (status, whether the last state is unstored, whether an earlier one is).
    cases = collections.Counter()
    for deterministic in (True, False):
        params = GenParams(max_nodes=12, deterministic=deterministic)
        for seed in range(150):
            base = elaborate(parse(random_model_source(seed, params)))
            rng = random.Random(seed)
            for model in (with_gap(base, rng), with_overflow(base, rng),
                          with_probe_invariant(base, seed)):
                if model is None:
                    continue
                verdict, calls = counted_explore(model, None)
                assert calls == verdict.states_explored, seed
                assert comparable(verdict, model) == comparable(spec_explore(model), model), seed
                if verdict.counterexample is None:
                    continue
                trace = verdict.counterexample
                state = replay(model, trace)
                if verdict.status is Status.DEADLOCK:
                    assert enabled_events(model, state) == [], seed
                elif verdict.status is Status.DOMAIN_VIOLATION:
                    assert verdict.violating_event in enabled_events(model, state), seed
                    try:
                        apply_event(model, state, verdict.violating_event)
                    except DomainViolationError:
                        pass
                    else:
                        raise AssertionError(f"{seed}: the violating event stays in domain")
                else:
                    pred = dict(model.env.invariants)[verdict.violated_invariant]
                    assert not conftest.eval_predicate(pred, conftest.named(model.env, state.env)), seed
                unstored = [unstored for unstored, _, _ in step_shapes(model, trace)]
                cases[verdict.status, bool(unstored and unstored[-1]),
                      any(unstored[:-1])] += 1
    for status in (Status.DEADLOCK, Status.DOMAIN_VIOLATION):
        assert cases[status, True, True] > 5, cases
    assert sum(n for (status, _, through), n in cases.items()
               if status is Status.VIOLATED and through) > 5, cases


def test_trace_rebuild_matches_the_earlier_rebuild(monkeypatch):
    rebuilt = []

    def both(model, auto, visited, target):
        steps = rebuild(model, auto, visited, target)
        oracle = conftest.trace_to(model, auto, visited, target)
        # As JSON text, so that the key order of every delta counts too.
        assert [json.dumps(step_to_json(s)) for s in steps] == \
            [json.dumps(step_to_json(s)) for s in oracle]
        rebuilt.append(steps)
        return steps

    rebuild = btv.checker._trace_to
    monkeypatch.setattr(btv.checker, "_trace_to", both)

    def models():
        yield from corpus()
        for name, text in bundled_and_benchmark_sources():
            yield name, elaborate(parse(text))
        for deterministic in (True, False):
            params = GenParams(max_nodes=12, deterministic=deterministic)
            for seed in range(150):
                base = elaborate(parse(random_model_source(seed, params)))
                rng = random.Random(seed)
                yield f"gap:{seed}", with_gap(base, rng)
                yield f"overflow:{seed}", with_overflow(base, rng)

    # (status, a run of two unstored steps, a step that changed values, a tie).
    cases = collections.Counter()
    for name, model in models():
        if model is None:
            continue
        del rebuilt[:]
        verdict = explore(model)
        if verdict.counterexample is None:
            assert not rebuilt, name
            continue
        assert rebuilt == [verdict.counterexample], name
        shapes = step_shapes(model, verdict.counterexample)
        runs = any(a[0] and b[0] for a, b in zip(shapes, shapes[1:]))
        cases[verdict.status, runs, any(env for _, env, _ in shapes),
              any(ties > 1 for *_, ties in shapes)] += 1
    for status in (Status.VIOLATED, Status.DEADLOCK, Status.DOMAIN_VIOLATION):
        assert sum(n for (kind, through, changed, _), n in cases.items()
                   if kind is status and through and changed) > 5, cases
    for status in (Status.VIOLATED, Status.DOMAIN_VIOLATION):
        assert cases[status, True, True, True] > 5, cases
