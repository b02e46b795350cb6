"""The compiled transition system against the tree-walking oracle.

explore runs over control ids and compiled expressions; spec_explore in
conftest walks MachineState objects with conftest's tree-walking
enabled_events/apply_event. Their verdicts, counterexamples and state
deltas must agree exactly, and so must btv.semantics' enabled_events and
apply_event, which step through the same compiled transition lists as
explore, and conftest's copies, in every reachable state. A MachineState
is (control code, env), with one byte per node; the events and successor
codes _candidates derives from a code must be what conftest's tuple-based
_candidates and _fire_control give, encoded by conftest's _encode_control,
and the events must equal those of conftest's every-node walk. Visited
states are stored as exact packed ints, which must unpack to the same
control id and values.
"""

import contextlib
import dataclasses
import functools
import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from btv.core import ModelError, TickResult, TreeSpec, bfs_numbering, validate_tree
from btv.envmodel import (
    BinOp,
    DomainViolationError,
    EnvSpec,
    IntLit,
    VarDecl,
    VarRef,
)
from btv.frontend import elaborate, parse
from btv.semantics import (
    MachineState,
    StatePacking,
    _candidates,
    _decode_control,
    deterministic_policy,
    initial_state,
)
import btv.semantics

import conftest
from conftest import (
    _encode_control,
    apply_event,
    enabled_events,
    eval_predicate,
    naive_reachable,
    named,
    priority_key,
    spec_explore,
    walk_candidates,
)
from randmodels import GenParams, random_model_source

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


def outcome(fn, *args):
    """fn's result, or the type and text of the ModelError it raised."""
    try:
        return fn(*args)
    except ModelError as err:
        return type(err), str(err)


def test_on_state_sees_exactly_the_reachable_states():
    for name, model in corpus():
        if name.endswith("+probe") or name in ("robot_wall_buggy.bt", "drain", "deadlock"):
            continue  # the search may stop early on these
        seen = []
        explore(model, on_state=seen.append)
        assert len(seen) == len(set(seen)), name
        vectors = {(s.ticks, s.results, s.analyzing, s.env) for s in seen}
        assert len(seen) == len(vectors), name
        reachable = naive_reachable(model)
        assert set(seen) == reachable, name
        # The event API steps through the compiled transition lists.
        for state in reachable:
            assert btv.semantics.enabled_events(model, state) == \
                enabled_events(model, state), name
            for event, _ in walk_candidates(model, state.ticks, state.results):
                assert outcome(btv.semantics.apply_event, model, state, event) == \
                    outcome(apply_event, model, state, event), name


# x = 2 breaks `zeta` and `alpha` at once; `ok` always holds.
TWO_BREAKS = """
tree {{ root {{ action a; }} }}
env {{ var x: int in 0..3 = {init}; }}
action a {{ outcome SUCCESS when x < 3 {{ x := x + 1; }}
           outcome FAILURE when x == 3; }}
invariant ok {{ x >= 0; }}
invariant zeta {{ x < 2; }}
invariant alpha {{ x != 2; }}
"""


@pytest.mark.parametrize("init,steps", [(2, 0), (0, 8)], ids=["initial", "deeper"])
def test_simultaneous_breaks_name_the_first_declared(init, steps):
    model = elaborate(parse(TWO_BREAKS.format(init=init)))
    seen, oracle_seen = [], []
    verdict = explore(model, on_state=seen.append)
    assert verdict.status is Status.VIOLATED
    assert verdict.violated_invariant == "zeta"
    assert len(verdict.counterexample) == steps
    assert named(model.env, replay(model, verdict.counterexample).env)["x"] == 2
    assert comparable(verdict, model) == \
        comparable(spec_explore(model, on_state=oracle_seen.append), model)
    # on_state gets MachineStates over values tuples laid out by the spec.
    assert seen == oracle_seen
    for state in seen:
        assert type(state) is MachineState and type(state.env) is tuple
        assert len(state.env) == len(model.env.slots)


def deeper_random_models():
    for deterministic in (True, False):
        params = GenParams(max_nodes=40, max_depth=8, deterministic=deterministic)
        for seed in range(200):
            name = f"deep-{'det' if deterministic else 'nondet'}:{seed}"
            yield name, elaborate(parse(random_model_source(seed, params)))


@contextlib.contextmanager
def recorded_interns():
    """A set that collects every control code _Automaton.intern is given."""
    interned = set()
    intern = _Automaton.intern

    def recording_intern(self, code):
        interned.add(code)
        return intern(self, code)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Automaton, "intern", recording_intern)
        yield interned


@functools.cache
def interned_controls() -> list:
    """(name, model, the control codes explore interned) for the corpus and
    the deeper random models."""
    out = []
    with recorded_interns() as interned:
        for name, model in (*corpus(), *deeper_random_models()):
            interned.clear()
            explore(model)
            out.append((name, model, frozenset(interned)))
    return out


def test_candidates_match_every_node_walk():
    for name, model, codes in interned_controls():
        for code in codes:
            ticks, results, _ = _decode_control(code)
            assert [c[:2] for c in _candidates(model, code)] == \
                walk_candidates(model, ticks, results), name


def test_control_codes_step_like_the_tuple_oracles():
    for name, model, codes in interned_controls():
        for code in codes:
            control = _decode_control(code)
            assert _encode_control(*control) == code, name
            candidates = _candidates(model, code)
            assert [c[:2] for c in candidates] == \
                conftest._candidates(model, *control[:2]), name
            for event, _, successor in candidates:
                assert successor == \
                    _encode_control(*conftest._fire_control(model, control, event)), name


def with_shuffled_ids(model, seed: int):
    """The model with its n_ids permuted: siblings may swap places, and the
    ids are mostly no longer breadth-first."""
    tree = model.tree
    ids = list(range(len(tree.node_order)))
    random.Random(seed).shuffle(ids)
    shuffled = TreeSpec.build(tree.n_type, dict(zip(tree.node_order, ids)), tree.parent)
    return dataclasses.replace(model, tree=shuffled)


def test_trees_without_breadth_first_ids():
    """validate_tree reports ID_BFS for a shuffle whose ids are not
    breadth-first, and stepping the model raises ModelError; a shuffle that
    is still breadth-first (the identity, say) explores as spec_explore
    does."""
    unordered = 0
    for deterministic in (True, False):
        params = GenParams(max_nodes=25, max_depth=6, deterministic=deterministic)
        for seed in range(60):
            model = with_shuffled_ids(elaborate(parse(random_model_source(seed, params))), seed)
            if model.tree.n_id == bfs_numbering(model.tree):
                assert validate_tree(model.tree).ok, seed
                assert comparable(explore(model), model) == \
                    comparable(spec_explore(model), model), seed
                continue
            unordered += 1
            assert validate_tree(model.tree).tags() == {"ID_BFS"}, seed
            state = initial_state(model)
            for step in (explore, lambda m: btv.semantics.enabled_events(m, state),
                         lambda m: btv.semantics.tick_cycle(m, state)):
                with pytest.raises(ModelError, match="breadth-first"):
                    step(model)
    assert unordered > 60


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
    # (event kind, whether the step changed the environment) over every step.
    step_kinds = set()
    for name, model in corpus():
        verdict = explore(model)
        if verdict.status is Status.HOLDS:
            continue
        # Each step's delta is the full-vector oracle's along the same path.
        state = initial_state(model)
        for step in verdict.counterexample:
            successor = apply_event(model, state, step.event)
            assert step.state_delta == conftest._state_delta(model, state, successor), name
            step_kinds.add((step.event.kind.value, "env" in step.state_delta))
            state = successor
        path.write_text(json.dumps(verdict_to_json(verdict, model)))
        events, sha256 = load_trace_file(path)
        state = replay(model, events, trace_sha256=sha256)
        if verdict.status is Status.VIOLATED:
            pred = dict(model.env.invariants)[verdict.violated_invariant]
            assert not eval_predicate(pred, named(model.env, state.env)), name
        elif verdict.status is Status.DEADLOCK:
            assert enabled_events(model, state) == [], name
        else:
            event = step_from_json(json.loads(path.read_text())["violating_event"])
            assert event in enabled_events(model, state), name
            with pytest.raises(DomainViolationError):
                apply_event(model, state, event)
            assert outcome(btv.semantics.apply_event, model, state, event) == \
                outcome(apply_event, model, state, event), name
        replayed.add(verdict.status)
    assert replayed == {Status.VIOLATED, Status.DEADLOCK, Status.DOMAIN_VIOLATION}
    # ROOT_REINITIALIZE changes every node; RESULT_ARRIVED runs a root-result hook.
    assert {("ROOT_REINITIALIZE", False), ("RESULT_ARRIVED", True)} <= step_kinds


# --- the packed-int state store ---------------------------------------------------

def in_domain(var: VarDecl):
    return st.booleans() if var.is_bool else st.integers(var.lo, var.hi)


@st.composite
def packed_pairs(draw):
    """A random EnvSpec and two (control id, values) pairs over it; the
    second is often the first with one component changed."""
    domains = draw(st.lists(st.one_of(
        st.none(), st.tuples(st.integers(-1000, 1000), st.integers(0, 40))), max_size=6))
    spec = EnvSpec(tuple(
        VarDecl(f"v{i}", None, None, False) if d is None
        else VarDecl(f"v{i}", d[0], d[0] + d[1], d[0])
        for i, d in enumerate(domains)))
    cids = st.integers(0, 10**6)
    first = (draw(cids), tuple(draw(in_domain(v)) for v in spec.variables))
    if spec.variables and draw(st.booleans()):
        slot = draw(st.integers(0, len(spec.variables) - 1))
        values = list(first[1])
        values[slot] = draw(in_domain(spec.variables[slot]))
        second = (first[0], tuple(values))
    else:
        second = (draw(cids), tuple(draw(in_domain(v)) for v in spec.variables))
    return spec, first, second


NEG = VarDecl("n", -7, -3, -5)
POINT = VarDecl("p", 4, 4, 4)
FLAG = VarDecl("f", None, None, False)


@settings(max_examples=400, deadline=None)
@given(packed_pairs())
@example((EnvSpec(()), (0, ()), (5, ())))
@example((EnvSpec((NEG,)), (3, (-7,)), (3, (-3,))))
@example((EnvSpec((POINT, NEG)), (1, (4, -3)), (2, (4, -7))))
@example((EnvSpec((FLAG, VarDecl("g", None, None, True))),
          (0, (True, False)), (0, (False, True))))
def test_packing_is_an_exact_bijection(case):
    spec, first, second = case
    packing = StatePacking(spec)
    for cid, values in (first, second):
        unpacked = packing.unpack(packing.pack(cid, values))
        assert unpacked == (cid, *values)
        assert list(map(type, unpacked)) == [int, *map(type, values)]
    assert (packing.pack(*first) == packing.pack(*second)) == (first == second)
    if spec.domain_product_size(spec.slots) <= 500:
        # Three control ids' valuations fill the keys 0 .. 3 * span - 1.
        keys = {packing.pack(cid, values) for cid in range(3)
                for values in spec.valuations(spec.slots)}
        assert keys == set(range(3 * packing.span))


# --- control codes -----------------------------------------------------------

node_fields = st.tuples(st.booleans(), st.sampled_from(TickResult), st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.lists(node_fields, max_size=60))
def test_control_code_round_trips(nodes):
    control = tuple(map(tuple, zip(*nodes))) or ((), (), ())
    code = _encode_control(*control)
    assert len(code) == len(nodes)
    assert _decode_control(code) == control
    assert all(type(flag) is bool for flag in control[0] + control[2])


def test_every_node_code_round_trips():
    code = bytes(range(16))
    ticks, results, analyzing = _decode_control(code)
    assert _encode_control(ticks, results, analyzing) == code
    # Bit 0 ticked, bits 1-2 the result, bit 3 analyzing; 16 distinct nodes.
    assert ticks == tuple(bool(c & 1) for c in code)
    assert analyzing == tuple(bool(c & 8) for c in code)
    assert all(results[c] is results[c & 6] for c in code)
    assert results[0] is TickResult.UNKNOWN
    assert set(results[0:8:2]) == set(TickResult)


@st.composite
def explored_states(draw):
    """A random model and a few of the states explore hands to on_state."""
    seed = draw(st.integers(0, 10**6))
    params = GenParams(max_nodes=draw(st.integers(2, 30)), max_depth=6,
                       deterministic=draw(st.booleans()))
    model = elaborate(parse(random_model_source(seed, params)))
    seen = []
    explore(model, ExploreOptions(max_states=2000), on_state=seen.append)
    picks = draw(st.lists(st.integers(0, len(seen) - 1), min_size=1, max_size=8))
    return model, [seen[i] for i in picks]


@settings(max_examples=60, deadline=None)
@given(explored_states())
def test_decoded_state_steps_like_a_hand_built_one(case):
    model, states = case
    for state in states:
        assert state.code is not None
        hand = MachineState(_encode_control(state.ticks, state.results, state.analyzing),
                            state.env)
        assert hand == state and hash(hand) == hash(state)
        events = btv.semantics.enabled_events(model, state)
        assert btv.semantics.enabled_events(model, hand) == events
        for event in events:
            assert outcome(btv.semantics.apply_event, model, hand, event) == \
                outcome(btv.semantics.apply_event, model, state, event)


@settings(max_examples=60, deadline=None)
@given(explored_states())
def test_on_state_states_give_the_oracles_enabled_events(case):
    model, states = case
    for state in states:
        assert btv.semantics.enabled_events(model, state) == enabled_events(model, state)


# About 14k states over four integer variables (one with a negative lower
# bound) and a bool: big enough that the store, not the fixed cost of the
# transition table and generated functions, sets the peak.
MEMORY_MODEL = """
tree { root {
  fallback fb {
    sequence work { condition ready; action move; action mix; }
    action reset;
  }
} }
env {
  var a: int in -2..1 = -2;
  var b: int in 0..3 = 0;
  var c: int in 0..3 = 0;
  var d: int in 0..3 = 0;
  var up: bool = true;
}
condition ready { success_when: a <= -1 || c >= 1; }
action move {
  outcome SUCCESS when a <= 0 { a := a + 1; up := !up; }
  outcome SUCCESS when b <= 2 { b := b + 1; }
  outcome RUNNING when b >= 1 { b := b - 1; }
  outcome FAILURE when a >= 1 && b >= 3;
  outcome FAILURE when a >= -1 { a := a - 1; }
}
action mix {
  outcome SUCCESS when c <= 2 { c := c + 1; }
  outcome FAILURE when d <= 2 && up { d := d + 1; }
  outcome SUCCESS when c >= 3 { c := c - 3; }
  outcome RUNNING when c >= 3 && d >= 3 || !up;
}
action reset {
  outcome SUCCESS when a >= 0 { a := a - 2; }
  outcome FAILURE when d >= 1 { d := d - 1; }
  outcome RUNNING when a <= -1 || c >= 2;
  outcome SUCCESS when b >= 2 { b := b - 2; }
}
invariant bounded { a + b + c + d <= 10; }
"""

# Traced peak of explore per state on MEMORY_MODEL: about 135 B with a tuple
# per visited state and parent link, about 95 B with packed ints (Python
# 3.10-3.13). Allocation counts, unlike RSS, do not move from run to run.
MAX_PEAK_BYTES_PER_STATE = 115


def test_explore_peak_memory_per_state():
    model = elaborate(parse(MEMORY_MODEL))
    tracemalloc.start()
    try:
        verdict = explore(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.status is Status.HOLDS
    assert verdict.states_explored >= 5000
    assert peak / verdict.states_explored < MAX_PEAK_BYTES_PER_STATE
