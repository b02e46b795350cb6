import random

import pytest

from btv.core import ModelError, NodeType, TickResult
from btv.envmodel import (
    MAX_COMPILED_DEPTH,
    ActionBehavior,
    ActionOutcome,
    Assignment,
    BinOp,
    BoolLit,
    ConditionBehavior,
    ExpressionTypeError,
    IntLit,
    NotOp,
    VarRef,
    expr_depth,
)
from btv.frontend import bundled_model_path, elaborate, load_model, parse
from btv.semantics import (
    DeadlockError,
    Event,
    EventKind,
    EventNotEnabledError,
    Model,
    apply_event,
    cycle_step_budget,
    deterministic_policy,
    enabled_events,
    initial_state,
    random_policy,
    tick_cycle,
)

from conftest import OracleInapplicableError, _candidates, named, reference_tick
from randmodels import GenParams, random_model_source

S, R, F, U = TickResult.SUCCESS, TickResult.RUNNING, TickResult.FAILURE, TickResult.UNKNOWN


def step(model, state, *events):
    for e in events:
        state = apply_event(model, state, e)
    return state


def only_enabled(model, state):
    events = enabled_events(model, state)
    assert len(events) == 1, events
    return events[0]


def robot_wall_src(initial=10, threshold=5):
    return f"""
    tree {{
      root {{
        sequence sequence_1 {{
          condition condition_1;
          action action_1;
        }}
      }}
    }}
    env {{
      var distance_to_object: int in 0..10 = {initial};
      var time: int in 0..100 = 0;
      var prev_time: int in 0..100 = 0;
    }}
    condition condition_1 {{ success_when: distance_to_object >= {threshold}; }}
    action action_1 {{
      outcome SUCCESS when true {{ distance_to_object := distance_to_object - 1; }}
    }}
    on_root_result {{ prev_time := time; time := time + 1; }}
    invariant safe {{ distance_to_object >= 3; }}
    """


@pytest.fixture(scope="module")
def rw():
    return elaborate(parse(robot_wall_src()))


def test_initial_state_shape(rw):
    state = initial_state(rw)
    assert all(not t for t in state.ticks)
    assert all(r is U for r in state.results)
    assert all(not a for a in state.analyzing)
    assert named(rw.env, state.env)["distance_to_object"] == 10


def test_only_tick_root_enabled_initially(rw):
    e = only_enabled(rw, initial_state(rw))
    assert e == Event(EventKind.TICK_ROOT, "root")


def test_success_cycle_event_chain(rw):
    """The full event chain of one successful cycle, hand stepped."""
    state = initial_state(rw)
    expected = [
        Event(EventKind.TICK_ROOT, "root"),
        Event(EventKind.ROOT_TICKED, "root", "sequence_1"),
        Event(EventKind.SEQ_INITIAL, "sequence_1", "condition_1"),
        Event(EventKind.COND_OUTCOME, "condition_1", outcome=(S, 0)),
        Event(EventKind.SEQ_CONTINUE, "sequence_1", "action_1"),
        Event(EventKind.ACT_OUTCOME, "action_1", outcome=(S, 0)),
        Event(EventKind.SEQ_SUCCESS, "sequence_1"),
        Event(EventKind.RESULT_ARRIVED, "root", "sequence_1"),
        Event(EventKind.ROOT_REINITIALIZE, "root"),
    ]
    for expected_event in expected:
        assert only_enabled(rw, state) == expected_event
        state = apply_event(rw, state, expected_event)
    assert named(rw.env, state.env)["distance_to_object"] == 9
    assert named(rw.env, state.env)["time"] == 1
    assert named(rw.env, state.env)["prev_time"] == 0
    assert all(r is U for r in state.results)
    assert all(not t for t in state.ticks)


def test_seq_continue_after_condition_success(rw):
    state = initial_state(rw)
    state = step(rw, state,
                 Event(EventKind.TICK_ROOT, "root"),
                 Event(EventKind.ROOT_TICKED, "root", "sequence_1"),
                 Event(EventKind.SEQ_INITIAL, "sequence_1", "condition_1"),
                 Event(EventKind.COND_OUTCOME, "condition_1", outcome=(S, 0)))
    assert enabled_events(rw, state) == \
        [Event(EventKind.SEQ_CONTINUE, "sequence_1", "action_1")]


def test_reinitialize_is_the_only_event_after_root_result(rw):
    state = initial_state(rw)
    for _ in range(8):
        state = apply_event(rw, state, only_enabled(rw, state))
    # after RESULT_ARRIVED the root result is SUCCESS
    root_i = rw.tree.node_index["root"]
    assert state.results[root_i] is S
    assert enabled_events(rw, state) == [Event(EventKind.ROOT_REINITIALIZE, "root")]


def test_apply_tick_root_changes_only_root_tick(rw):
    before = initial_state(rw)
    after = apply_event(rw, before, Event(EventKind.TICK_ROOT, "root"))
    root_i = rw.tree.node_index["root"]
    assert after.ticks[root_i] is True
    assert sum(after.ticks) == 1
    assert after.results == before.results
    assert after.analyzing == before.analyzing
    assert after.env == before.env


def test_apply_action_outcome_bundles_result_effect_and_flag(rw):
    state = initial_state(rw)
    state = step(rw, state,
                 Event(EventKind.TICK_ROOT, "root"),
                 Event(EventKind.ROOT_TICKED, "root", "sequence_1"),
                 Event(EventKind.SEQ_INITIAL, "sequence_1", "condition_1"),
                 Event(EventKind.COND_OUTCOME, "condition_1", outcome=(S, 0)),
                 Event(EventKind.SEQ_CONTINUE, "sequence_1", "action_1"))
    seq_i = rw.tree.node_index["sequence_1"]
    act_i = rw.tree.node_index["action_1"]
    assert state.analyzing[seq_i] is True
    after = apply_event(rw, state, Event(EventKind.ACT_OUTCOME, "action_1",
                                         outcome=(S, 0)))
    assert named(rw.env, after.env)["distance_to_object"] == 9
    assert after.results[act_i] is S
    assert after.analyzing[seq_i] is False


def test_apply_reinitialize_keeps_env(rw):
    state = initial_state(rw)
    for _ in range(8):
        state = apply_event(rw, state, only_enabled(rw, state))
    env_before = state.env
    after = apply_event(rw, state, Event(EventKind.ROOT_REINITIALIZE, "root"))
    assert all(not t for t in after.ticks)
    assert all(r is U for r in after.results)
    assert after.env == env_before


def test_apply_rejects_disabled_event(rw):
    with pytest.raises(EventNotEnabledError):
        apply_event(rw, initial_state(rw), Event(EventKind.ROOT_REINITIALIZE, "root"))


def test_tick_cycle_success_then_failure():
    model = elaborate(parse(robot_wall_src(initial=10)))
    state, result, trace = tick_cycle(model, initial_state(model))
    assert result is S
    assert named(model.env, state.env)["distance_to_object"] == 9
    assert len(trace) == 9

    low = elaborate(parse(robot_wall_src(initial=4)))
    state, result, trace = tick_cycle(low, initial_state(low))
    assert result is F
    assert named(low.env, state.env)["distance_to_object"] == 4
    assert len(trace) == 7


def test_tick_cycle_requires_cycle_start(rw):
    state = apply_event(rw, initial_state(rw), Event(EventKind.TICK_ROOT, "root"))
    with pytest.raises(ValueError):
        tick_cycle(rw, state)


def test_tick_cycle_within_step_budget(rw):
    _, _, trace = tick_cycle(rw, initial_state(rw))
    assert len(trace) <= cycle_step_budget(rw.tree)


def test_a_cycle_fires_at_most_two_events_per_node_and_one_more():
    """The root fires 4 events, and every other node is ticked at most once
    and resolved at most once per cycle, so a cycle of n nodes fires at
    most 2n + 1 events: exactly that when it ticks every node."""
    def models():
        for name in ("robot_wall.bt", "robot_wall_buggy.bt", "fallback_running.bt"):
            yield load_model(bundled_model_path(name))
        for deterministic in (True, False):
            for params in (GenParams(deterministic=deterministic),
                           GenParams(max_nodes=40, max_depth=8, deterministic=deterministic)):
                for seed in range(60):
                    yield elaborate(parse(random_model_source(seed, params)))

    cycles = at_bound = 0
    for k, model in enumerate(models()):
        bound = 2 * len(model.tree.node_order) + 1
        policy = random_policy(random.Random(k))
        state = initial_state(model)
        for _ in range(5):
            state, _, trace = tick_cycle(model, state, policy)
            assert len(trace) <= bound, k
            cycles += 1
            at_bound += len(trace) == bound
    assert k + 1 >= 240
    assert 0 < at_bound < cycles


def test_fallback_running(fallback_running):
    state, result, _ = tick_cycle(fallback_running, initial_state(fallback_running))
    assert result is R
    assert named(fallback_running.env, state.env)["progress"] == 1


def test_deadlock_on_non_exhaustive_action(rw):
    # bypass elaborate: an action whose single outcome guard is false
    broken = Model(rw.tree, rw.env, {
        "condition_1": rw.behaviors["condition_1"],
        "action_1": ActionBehavior((ActionOutcome(BoolLit(False), S),)),
    })
    with pytest.raises(DeadlockError) as err:
        tick_cycle(broken, initial_state(broken))
    assert len(err.value.trace) == 5  # stuck right after the action was ticked


def _state_where_moves(model, node):
    """The first state of the deterministic cycle in which `node` moves;
    its transition list is not built yet."""
    state = initial_state(model)
    while _candidates(model, state.ticks, state.results)[0][0].node != node:
        state = apply_event(model, state, enabled_events(model, state)[0])
    return state


@pytest.mark.parametrize("node, behavior", [
    ("condition_1", ConditionBehavior(BinOp("+", VarRef("distance_to_object"), IntLit(1)))),
    ("condition_1", ConditionBehavior(BinOp("&&", VarRef("time"), BoolLit(True)))),
    ("action_1", ActionBehavior((ActionOutcome(
        BoolLit(True), S, (Assignment("time", BoolLit(True)),)),))),
], ids=["int-guard", "int-operand-of-and", "bool-into-int"])
def test_ill_typed_behavior_is_refused_when_its_transitions_are_built(rw, node, behavior):
    # bypass elaborate, which would refuse each of these at load time
    broken = Model(rw.tree, rw.env, {**rw.behaviors, node: behavior})
    auto = broken.automaton
    cid = auto.intern(_state_where_moves(broken, node).code)
    with pytest.raises(ExpressionTypeError):
        auto.transitions(cid)


def _negated(pred, times):
    for _ in range(times):
        pred = NotOp(pred)
    return pred


@pytest.mark.parametrize("height", [MAX_COMPILED_DEPTH + 1, 5000])
def test_too_deep_guard_is_a_model_error(rw, height):
    # a comparison is 2 levels high, each `!` one more
    guard = _negated(BinOp(">=", VarRef("time"), IntLit(0)), height - 2)
    broken = Model(rw.tree, rw.env, {**rw.behaviors,
                                     "action_1": ActionBehavior((ActionOutcome(guard, S),))})
    auto = broken.automaton
    cid = auto.intern(_state_where_moves(broken, "action_1").code)
    with pytest.raises(ModelError, match=f"deeper than {MAX_COMPILED_DEPTH} levels"):
        auto.transitions(cid)


def test_guard_at_the_compiled_depth_limit_runs(rw):
    guard = _negated(BinOp(">=", VarRef("time"), IntLit(0)), MAX_COMPILED_DEPTH - 2)
    deep = Model(rw.tree, rw.env, {**rw.behaviors,
                                   "action_1": ActionBehavior((ActionOutcome(guard, S),))})
    state, result, _ = tick_cycle(deep, initial_state(deep))
    assert result is S  # an even number of `!` around a true comparison
    assert named(deep.env, state.env)["distance_to_object"] == 10


def test_condition_at_the_compiled_depth_limit_runs(rw):
    # Both of a condition's tests come from one rendering of its predicate,
    # so the predicate may be as deep as any guard.
    pred = rw.behaviors["condition_1"].success_when
    extra = MAX_COMPILED_DEPTH - expr_depth(pred)
    deep, shallow = (Model(rw.tree, rw.env, {**rw.behaviors,
                                             "condition_1": ConditionBehavior(_negated(pred, n))})
                     for n in (extra, extra % 2))
    ours, theirs = initial_state(deep), initial_state(shallow)
    for _ in range(3):
        step, expected = tick_cycle(deep, ours), tick_cycle(shallow, theirs)
        assert step == expected
        ours, theirs = step[0], expected[0]


def test_random_policy_reproducible(rw):
    def run(seed):
        state = initial_state(rw)
        policy = random_policy(random.Random(seed))
        out = []
        for _ in range(3):
            state, result, trace = tick_cycle(rw, state, policy)
            out.append((result, tuple(trace)))
        return out

    assert run(7) == run(7)


def test_event_field_shape_over_exploration(rw, fallback_running):
    """child is bound exactly by the six delegating/copying kinds, outcome
    exactly by the two leaf kinds, and condition outcomes are never RUNNING."""
    child_kinds = {EventKind.ROOT_TICKED, EventKind.RESULT_ARRIVED,
                   EventKind.FB_INITIAL, EventKind.FB_CONTINUE,
                   EventKind.SEQ_INITIAL, EventKind.SEQ_CONTINUE}
    leaf_kinds = {EventKind.COND_OUTCOME, EventKind.ACT_OUTCOME}
    for model in (rw, fallback_running):
        seen = {initial_state(model)}
        stack = [initial_state(model)]
        while stack:
            state = stack.pop()
            for e in enabled_events(model, state):
                assert (e.child is not None) == (e.kind in child_kinds)
                assert (e.outcome is not None) == (e.kind in leaf_kinds)
                if e.kind is EventKind.COND_OUTCOME:
                    assert e.outcome[0] in (S, F)
                succ = apply_event(model, state, e)
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)


# --- reference interpreter ----------------------------------------------------

def test_reference_single_condition_true():
    model = elaborate(parse("""
    tree { root { condition c; } }
    env { var x: int in 0..1 = 0; }
    condition c { success_when: x == 0; }
    """))
    result, env = reference_tick(model, model.env.initial_state())
    assert result is S
    assert env == model.env.initial_state()


def test_reference_sequence_second_condition_false():
    model = elaborate(parse("""
    tree { root { sequence s { condition c1; condition c2; } } }
    env { var x: int in 0..9 = 3; }
    condition c1 { success_when: x >= 1; }
    condition c2 { success_when: x >= 5; }
    """))
    result, env = reference_tick(model, model.env.initial_state())
    assert result is F
    assert env == model.env.initial_state()


def test_reference_case_study(rw):
    result, env = reference_tick(rw, rw.env.initial_state())
    assert result is S
    assert named(rw.env, env)["distance_to_object"] == 9


def test_reference_rejects_nondeterministic_leaf(rw):
    nondet = Model(rw.tree, rw.env, {
        "condition_1": rw.behaviors["condition_1"],
        "action_1": ActionBehavior((
            ActionOutcome(BoolLit(True), S),
            ActionOutcome(BoolLit(True), F),
        )),
    })
    with pytest.raises(OracleInapplicableError):
        reference_tick(nondet, nondet.env.initial_state())


def test_machine_agrees_with_reference_on_case_study(rw):
    state = initial_state(rw)
    env = rw.env.initial_state()
    for _ in range(9):
        state, result, _ = tick_cycle(rw, state)
        ref_result, env = reference_tick(rw, env)
        assert result is ref_result
        assert state.env == env


# --- fallback/sequence duality -------------------------------------------------

def dualize(model: Model) -> Model:
    """Swap SEQUENCE and FALLBACK and negate every condition."""
    swapped = {}
    for node, t in model.tree.n_type.items():
        if t is NodeType.SEQUENCE:
            swapped[node] = NodeType.FALLBACK
        elif t is NodeType.FALLBACK:
            swapped[node] = NodeType.SEQUENCE
        else:
            swapped[node] = t
    tree = type(model.tree).build(swapped, dict(model.tree.n_id),
                                  dict(model.tree.parent))
    behaviors = {name: type(b)(NotOp(b.success_when))
                 for name, b in model.behaviors.items()}
    return Model(tree, model.env, behaviors)


def random_condition_tree_src(rng: random.Random) -> str:
    counter = [0]
    behaviors = []

    def fresh(prefix):
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def grow(depth, budget):
        if depth >= 3 or budget <= 1 or rng.random() < 0.4:
            name = fresh("c")
            op = rng.choice([">=", "<", "==", "!="])
            behaviors.append(f"condition {name} {{ success_when: x {op} {rng.randint(0, 5)}; }}")
            return f"condition {name};", 1
        kind = rng.choice(["sequence", "fallback"])
        name = fresh("n")
        used = 1
        lines = []
        for _ in range(rng.randint(1, 3)):
            if budget - used < 1:
                break
            text, cost = grow(depth + 1, budget - used)
            lines.append("  " + text)
            used += cost
        if not lines:
            text, cost = grow(depth + 1, 1)
            lines.append("  " + text)
            used += cost
        return f"{kind} {name} {{\n" + "\n".join(lines) + "\n}", used

    body, _ = grow(1, 7)
    x_init = rng.randint(0, 5)
    return ("tree { root {\n" + body + "\n} }\n"
            f"env {{ var x: int in 0..5 = {x_init}; }}\n" + "\n".join(behaviors))


DUAL = {S: F, F: S}


def test_duality_over_random_condition_trees():
    rng = random.Random(2024)
    for _ in range(200):
        model = elaborate(parse(random_condition_tree_src(rng)))
        dual = dualize(model)
        result, _ = reference_tick(model, model.env.initial_state())
        dual_result, _ = reference_tick(dual, dual.env.initial_state())
        assert dual_result is DUAL[result]
        _, machine_result, _ = tick_cycle(model, initial_state(model))
        _, dual_machine, _ = tick_cycle(dual, initial_state(dual))
        assert machine_result is result
        assert dual_machine is dual_result
