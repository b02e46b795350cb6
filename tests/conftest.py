"""Shared fixtures and independent oracles.

The tool evaluates every guard, effect list and fused invariant with one
Python function generated once per model (btv.envmodel.compile_expr and
friends), and steps every
state, in the search, simulation and replay alike, through the compiled
transition lists of btv.semantics._Automaton, over control codes of one
byte per node. eval_expr, eval_predicate and apply_effects here are a
tree-walking evaluator of the same expressions, which reads variables by
name from the mapping named() makes of a values tuple, and enabled_events,
apply_event and _fire step MachineState objects with it; the tests hold
the tool's generated functions and event API to them. _candidates, _fire_control and
_state_delta are the tool's earlier derivation of a state's events, next
control vectors and counterexample deltas over (ticks, results, analyzing)
tuples, kept as the oracles for their byte-code versions; _encode_control
packs such vectors into the control code a MachineState holds.
control_graph walks them eagerly, guards ignored, into every reachable
control code with the edges into it: the oracle for which transitions the
search must store. The
enumeration helpers below (naive_reachable, spec_explore, ...) walk only
these copies, so they share no generated function and no step over control
codes with the tool, and the checker has something independent to be
compared against.
walk_candidates and priority_key are the still earlier every-node
derivation of a state's events and the deterministic policy's old key,
kept as the oracles for _candidates and deterministic_policy.
reference_tick is a deliberately separate implementation of a tick (plain
recursion, no events), and cycle_outcomes collects every outcome of one
cycle's interleavings; both cross-check the event machine.
naive_exhaustiveness is the earlier per-valuation outcome exhaustiveness
check, one compiled predicate call per guard and valuation, kept as the
oracle for check_outcome_exhaustiveness, which evaluates each guard as a
bitmask over one variable's values per valuation of the others.
_tokenize and its frozen Token are the earlier character-at-a-time
tokenizer, kept as the oracle for btv.frontend's one-regex _tokenize.
trace_to, with event_between and _control_delta, is the earlier
counterexample rebuild, which unpacks every key on the path and runs each
step's guards and effects, kept as the oracle for btv.checker._trace_to.
render_model and render_expr write a model back as .bt source, for the
parser's round-trip tests; they read btv.frontend's operator precedences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import pytest

from btv import bundled_model_path, load_model
from btv.checker import ExploreOptions, Stats, Status, TraceStep, Verdict
from btv.core import ModelError, NodeType, TickResult, TreeSpec
from btv.envmodel import (
    EXHAUSTIVENESS_ENUM_LIMIT,
    ActionBehavior,
    Assignment,
    BinOp,
    BoolLit,
    ConditionBehavior,
    DomainViolationError,
    EnvSpec,
    ExhaustivenessError,
    ExpressionTypeError,
    Expr,
    IntLit,
    NotOp,
    VarRef,
    compile_predicate,
    expr_variables,
)
from btv.frontend import _CMP_PREC, _NOT_PREC, _PREC, ParseError
from btv.semantics import (
    ANALYZING,
    RESULT_BITS,
    TICKED,
    _ANALYZING_OF,
    _RESULT_CODE,
    _RESULT_OF,
    _TICKED_OF,
    Event,
    EventKind,
    EventNotEnabledError,
    Guard,
    MachineState,
    Model,
    _Automaton,
    initial_state,
)


@pytest.fixture(scope="session")
def robot_wall() -> Model:
    return load_model(bundled_model_path("robot_wall.bt"))


@pytest.fixture(scope="session")
def robot_wall_buggy() -> Model:
    return load_model(bundled_model_path("robot_wall_buggy.bt"))


@pytest.fixture(scope="session")
def fallback_running() -> Model:
    return load_model(bundled_model_path("fallback_running.bt"))


# --- the tree-walking evaluator and event machine -----------------------------

def named(spec: EnvSpec, values: tuple) -> dict:
    """A values tuple laid out by spec.slots as {name: value}: the form the
    evaluator here reads variables in, by name."""
    return dict(zip(spec.slots, values))


def eval_expr(e: Expr, env: Mapping):
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, VarRef):
        return env[e.name]
    if isinstance(e, NotOp):
        return not eval_expr(e.operand, env)
    if isinstance(e, BinOp):
        l = eval_expr(e.left, env)
        if e.op == "&&":  # short-circuit
            return bool(l) and bool(eval_expr(e.right, env))
        if e.op == "||":
            return bool(l) or bool(eval_expr(e.right, env))
        r = eval_expr(e.right, env)
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r
        if e.op == "<":
            return l < r
        if e.op == "<=":
            return l <= r
        if e.op == ">":
            return l > r
        if e.op == ">=":
            return l >= r
        if e.op == "==":
            return l == r
        if e.op == "!=":
            return l != r
    raise TypeError(f"not an expression node: {e!r}")


def eval_predicate(p: Expr, env: Mapping) -> bool:
    value = eval_expr(p, env)
    if not isinstance(value, bool):
        raise ExpressionTypeError(f"predicate evaluated to non-boolean {value!r}")
    return value


def apply_effects(spec: EnvSpec, effects: Iterable[Assignment], values: tuple,
                  *, wrap: bool = False) -> tuple:
    """Apply assignments with simultaneous-read, sequential-write semantics.

    Every right-hand side is evaluated against the incoming values, then
    values are written by name in listed order. Out-of-domain integer
    results raise DomainViolationError, or wrap into the domain when `wrap`
    is set (used for root-result hooks).
    """
    env = named(spec, values)
    staged = [(a.name, eval_expr(a.expr, env)) for a in effects]
    for name, value in staged:
        env[name] = domain_checked(spec.decl(name), value, wrap)
    return tuple(env[v.name] for v in spec.variables)


def domain_checked(decl, value, wrap: bool):
    """`value` if `decl`'s domain holds it; else wrapped into an integer
    domain when `wrap` is set, else DomainViolationError."""
    if decl.contains(value):
        return value
    if wrap and not decl.is_bool and isinstance(value, int):
        return decl.lo + (value - decl.lo) % (decl.hi - decl.lo + 1)
    raise DomainViolationError(decl.name, value)


def enabled_events(model: Model, state: MachineState) -> list[Event]:
    """All events whose guard holds, in rule order.

    Defined on states reached from initial_state: the derivation in
    _candidates relies on the shape those states have.
    """
    return [e for e, guard in _candidates(model, state.ticks, state.results)
            if guard is None
            or eval_predicate(guard[0], named(model.env, state.env)) == guard[1]]


def apply_event(model: Model, state: MachineState, e: Event) -> MachineState:
    """Successor state for an enabled event; the input state is not mutated.

    Raises EventNotEnabledError when the guard does not hold (a scheduler
    bug) and DomainViolationError when an action effect leaves a domain.
    """
    if e not in enabled_events(model, state):
        raise EventNotEnabledError(f"event not enabled: {e.describe()}")
    return _fire(model, state, e)


def _fire(model: Model, state: MachineState, e: Event) -> MachineState:
    """apply_event without the guard check."""
    control = _fire_control(model, (state.ticks, state.results, state.analyzing), e)
    effects, wrap = _event_effects(model, e)
    env = apply_effects(model.env, effects, state.env, wrap=wrap) if effects else state.env
    return MachineState(_encode_control(*control), env)


def _event_effects(model: Model, e: Event) -> tuple[tuple[Assignment, ...], bool]:
    """The assignments an event makes, and whether they wrap into the domain."""
    if e.kind is EventKind.RESULT_ARRIVED:
        return model.env.root_result_hook, True
    if e.kind is EventKind.ACT_OUTCOME:
        return model.behaviors[e.node].outcomes[e.outcome[1]].effects, False
    return (), False


# --- the tuple-based control step that control codes replaced ---------------

def _candidates(model: Model, ticks: tuple, results: tuple
                ) -> list[tuple[Event, Guard | None]]:
    """Events the per-node vectors allow, each with the environment guard it
    still needs (None for control events), in rule order.

    The ticked nodes still waiting for a result form one path down from the
    root, and only the last node on it can move, so every event belongs to
    that node. Only leaf outcomes read the environment, so this is
    everything about a state's enabled events that does not depend on the
    valuation.
    """
    tree = model.tree
    idx = tree.node_index
    node = tree.root
    while True:
        # Follow the last ticked child while it is still waiting for a result.
        kids = tree.children[node]
        pos = len(kids) - 1
        while pos >= 0 and not ticks[idx[kids[pos]]]:
            pos -= 1
        if pos < 0 or results[idx[kids[pos]]] is not TickResult.UNKNOWN:
            break
        node = kids[pos]
    i = idx[node]
    ntype = tree.n_type[node]

    if ntype is NodeType.ROOT:
        if not ticks[i]:
            return [(Event(EventKind.TICK_ROOT, node), None)]
        if results[i] is not TickResult.UNKNOWN:
            return [(Event(EventKind.ROOT_REINITIALIZE, node), None)]
        if pos < 0:
            return [(Event(EventKind.ROOT_TICKED, node, kids[0]), None)]
        return [(Event(EventKind.RESULT_ARRIVED, node, kids[pos]), None)]

    if ntype is NodeType.CONDITION:
        pred = model.behaviors[node].success_when
        return [(Event(EventKind.COND_OUTCOME, node, outcome=(TickResult.SUCCESS, 0)),
                 (pred, True)),
                (Event(EventKind.COND_OUTCOME, node, outcome=(TickResult.FAILURE, 1)),
                 (pred, False))]

    if ntype is NodeType.ACTION:
        return [(Event(EventKind.ACT_OUTCOME, node, outcome=(outcome.result, rule_i)),
                 (outcome.guard, True))
                for rule_i, outcome in enumerate(model.behaviors[node].outcomes)]

    # A sequence moves on to its next child after a SUCCESS, a fallback after
    # a FAILURE; any other result of the last child is the node's own.
    seq = ntype is NodeType.SEQUENCE
    if pos < 0:
        kind = EventKind.SEQ_INITIAL if seq else EventKind.FB_INITIAL
        return [(Event(kind, node, kids[0]), None)]
    last = results[idx[kids[pos]]]
    if last is TickResult.RUNNING:
        kind = EventKind.SEQ_RUNNING if seq else EventKind.FB_RUNNING
    elif last is not (TickResult.SUCCESS if seq else TickResult.FAILURE):
        kind = EventKind.SEQ_FAILURE if seq else EventKind.FB_SUCCESS
    elif pos + 1 < len(kids):
        kind = EventKind.SEQ_CONTINUE if seq else EventKind.FB_CONTINUE
        return [(Event(kind, node, kids[pos + 1]), None)]
    else:
        kind = EventKind.SEQ_SUCCESS if seq else EventKind.FB_FAILURE
    return [(Event(kind, node), None)]


def _encode_control(ticks: tuple, results: tuple, analyzing: tuple) -> bytes:
    """The control code of three per-node vectors: one byte per node."""
    return bytes([(TICKED if t else 0) | _RESULT_CODE[r] | (ANALYZING if a else 0)
                  for t, r, a in zip(ticks, results, analyzing)])


def _set(tup: tuple, i: int, value) -> tuple:
    return tup[:i] + (value,) + tup[i + 1:]


def _fire_control(model: Model, control: tuple[tuple, tuple, tuple], e: Event
                  ) -> tuple[tuple, tuple, tuple]:
    """The (ticks, results, analyzing) vectors after event `e`."""
    ticks, results, analyzing = control
    tree = model.tree
    idx = tree.node_index
    i = idx[e.node]
    k = e.kind

    if k is EventKind.TICK_ROOT:
        return _set(ticks, i, True), results, analyzing

    if k is EventKind.ROOT_TICKED:
        ci = idx[e.child]
        return _set(ticks, ci, True), results, _set(analyzing, ci, True)

    if k is EventKind.RESULT_ARRIVED:
        return ticks, _set(results, i, results[idx[e.child]]), analyzing

    if k is EventKind.ROOT_REINITIALIZE:
        n = len(tree.node_order)
        return (False,) * n, (TickResult.UNKNOWN,) * n, analyzing

    if k in (EventKind.FB_INITIAL, EventKind.SEQ_INITIAL,
             EventKind.FB_CONTINUE, EventKind.SEQ_CONTINUE):
        return _set(ticks, idx[e.child], True), results, _set(analyzing, i, True)

    if k in (EventKind.FB_SUCCESS, EventKind.SEQ_SUCCESS):
        result = TickResult.SUCCESS
    elif k in (EventKind.FB_RUNNING, EventKind.SEQ_RUNNING):
        result = TickResult.RUNNING
    elif k in (EventKind.FB_FAILURE, EventKind.SEQ_FAILURE):
        result = TickResult.FAILURE
    elif k in (EventKind.COND_OUTCOME, EventKind.ACT_OUTCOME):
        result = e.outcome[0]
    else:
        raise AssertionError(f"unhandled event kind {k}")
    # Record the node's result and clear the parent's analyzing flag.
    parent = tree.parent.get(e.node)
    if parent is not None:
        analyzing = _set(analyzing, idx[parent], False)
    return ticks, _set(results, i, result), analyzing


def _state_delta(model: Model, before: MachineState, after: MachineState) -> dict:
    order = model.tree.node_order
    delta: dict = {}
    for b_vec, a_vec, label in ((before.ticks, after.ticks, "n_tick"),
                                (before.results, after.results, "n_result"),
                                (before.analyzing, after.analyzing, "analyzing_subtree")):
        if b_vec == a_vec:
            continue
        delta[label] = {node: a.value if isinstance(a, TickResult) else a
                        for node, b, a in zip(order, b_vec, a_vec) if b != a}
    before_env = named(model.env, before.env)
    env_changed = {name: value for name, value in named(model.env, after.env).items()
                   if value != before_env[name]}
    if env_changed:
        delta["env"] = env_changed
    return delta


# --- the eager control graph -------------------------------------------------

def control_graph(model: Model) -> dict[bytes, list[tuple[bytes | None, Event | None, bool]]]:
    """Every control code reachable from the initial one when guards are
    ignored, each with the edges into it: (source code, event, whether the
    event has effects). The initial code also has the entry edge
    (None, None, False), so a code has in-degree 1 exactly when one edge
    leads into it. Built with the tuple-based _candidates and _fire_control,
    not the tool's byte-code step."""
    n = len(model.tree.node_order)
    start = ((False,) * n, (TickResult.UNKNOWN,) * n, (False,) * n)
    init = _encode_control(*start)
    incoming = {init: [(None, None, False)]}
    stack = [start]
    while stack:
        control = stack.pop()
        code = _encode_control(*control)
        for event, _ in _candidates(model, *control[:2]):
            successor = _fire_control(model, control, event)
            target = _encode_control(*successor)
            if target not in incoming:
                incoming[target] = []
                stack.append(successor)
            incoming[target].append((code, event, bool(_event_effects(model, event)[0])))
    return incoming


# --- enumerators over the tree-walking machine --------------------------------

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
                if not eval_predicate(pred, named(model.env, state.env))]

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
        steps.append(TraceStep(event, _state_delta(model, state, successor)))
        state = successor
    return steps


# --- the every-node walk that semantics._candidates replaced -----------------

# EventKind declaration order: the walk's order between nodes.
_KIND_ORDER = {k: i for i, k in enumerate(EventKind)}


def event_sort_key(event: Event, tree) -> tuple:
    rule = event.outcome[1] if event.outcome else -1
    return (_KIND_ORDER[event.kind], tree.n_id[event.node], rule)


def _min_unticked_child(tree: TreeSpec, ticks: tuple, node: str) -> str | None:
    for c in tree.children[node]:  # already ordered by n_id
        if not ticks[tree.node_index[c]]:
            return c
    return None


def _last_ticked_child(tree: TreeSpec, ticks: tuple, node: str) -> str | None:
    last = None
    for c in tree.children[node]:
        if ticks[tree.node_index[c]]:
            last = c
    return last


def walk_candidates(model: Model, ticks: tuple, results: tuple) -> list:
    """semantics._candidates as a literal reading of each event's guard: test
    every node of the tree, then sort what was found by event_sort_key."""
    tree = model.tree
    idx = tree.node_index
    events: list[tuple[Event, Guard | None]] = []

    for node in tree.node_order:
        i = idx[node]
        ntype = tree.n_type[node]
        ticked = ticks[i]
        result = results[i]

        if ntype is NodeType.ROOT:
            if not ticked and result is TickResult.UNKNOWN:
                events.append((Event(EventKind.TICK_ROOT, node), None))
            if ticked:
                child = _min_unticked_child(tree, ticks, node)
                if child is not None:
                    events.append((Event(EventKind.ROOT_TICKED, node, child), None))
                if result is TickResult.UNKNOWN:
                    for c in tree.children[node]:
                        if results[idx[c]] is not TickResult.UNKNOWN:
                            events.append((Event(EventKind.RESULT_ARRIVED, node, c), None))
                else:
                    events.append((Event(EventKind.ROOT_REINITIALIZE, node), None))

        elif ntype in (NodeType.SEQUENCE, NodeType.FALLBACK):
            if not ticked or result is not TickResult.UNKNOWN:
                continue
            fb = ntype is NodeType.FALLBACK
            last = _last_ticked_child(tree, ticks, node)
            if last is None:
                child = _min_unticked_child(tree, ticks, node)
                kind = EventKind.FB_INITIAL if fb else EventKind.SEQ_INITIAL
                events.append((Event(kind, node, child), None))
                continue
            last_result = results[idx[last]]
            next_child = _min_unticked_child(tree, ticks, node)
            if last_result is TickResult.RUNNING:
                kind = EventKind.FB_RUNNING if fb else EventKind.SEQ_RUNNING
                events.append((Event(kind, node), None))
            elif last_result is TickResult.SUCCESS:
                if fb:
                    events.append((Event(EventKind.FB_SUCCESS, node), None))
                elif next_child is None:
                    events.append((Event(EventKind.SEQ_SUCCESS, node), None))
                else:
                    events.append((Event(EventKind.SEQ_CONTINUE, node, next_child), None))
            elif last_result is TickResult.FAILURE:
                if not fb:
                    events.append((Event(EventKind.SEQ_FAILURE, node), None))
                elif next_child is None:
                    events.append((Event(EventKind.FB_FAILURE, node), None))
                else:
                    events.append((Event(EventKind.FB_CONTINUE, node, next_child), None))
            # last child still UNKNOWN: subtree being analyzed, nothing enabled

        elif ntype is NodeType.CONDITION:
            if ticked and result is TickResult.UNKNOWN:
                behavior = model.behaviors[node]
                assert isinstance(behavior, ConditionBehavior)
                pred = behavior.success_when
                events.append((Event(EventKind.COND_OUTCOME, node,
                                     outcome=(TickResult.SUCCESS, 0)), (pred, True)))
                events.append((Event(EventKind.COND_OUTCOME, node,
                                     outcome=(TickResult.FAILURE, 1)), (pred, False)))

        elif ntype is NodeType.ACTION:
            if ticked and result is TickResult.UNKNOWN:
                behavior = model.behaviors[node]
                assert isinstance(behavior, ActionBehavior)
                for rule_i, outcome in enumerate(behavior.outcomes):
                    events.append((Event(EventKind.ACT_OUTCOME, node,
                                         outcome=(outcome.result, rule_i)),
                                   (outcome.guard, True)))

    events.sort(key=lambda pair: event_sort_key(pair[0], tree))
    return events


def priority_key(model: Model):
    """The key deterministic_policy once took the min of: TICK_ROOT, then
    control events deepest-first, then leaf outcomes; ties broken by minimal
    n_id, then rule index."""
    def key(e: Event):
        if e.kind is EventKind.TICK_ROOT:
            group = 0
        elif e.kind in (EventKind.COND_OUTCOME, EventKind.ACT_OUTCOME):
            group = 2
        else:
            group = 1
        depth = model.tree.depth.get(e.node, 0)
        rule = e.outcome[1] if e.outcome else -1
        return (group, -depth, model.tree.n_id[e.node], rule)
    return key


# --- independent reference interpreter --------------------------------------

class OracleInapplicableError(ModelError):
    pass


def reference_tick(model: Model, values: tuple) -> tuple[TickResult, tuple]:
    """Classic recursive tick, used only as an oracle for the event machine.

    Sequences run children left-to-right until a non-SUCCESS result;
    fallbacks until a non-FAILURE result. Requires deterministic leaves:
    an action with zero or several enabled outcomes is outside the oracle's
    domain. The root-result hook is applied after the pass, mirroring the
    machine's RESULT_ARRIVED.
    """
    tree = model.tree

    def tick(node: str, values: tuple) -> tuple[TickResult, tuple]:
        ntype = tree.n_type[node]
        if ntype is NodeType.ROOT:
            return tick(tree.children[node][0], values)
        env = named(model.env, values)
        if ntype is NodeType.CONDITION:
            behavior = model.behaviors[node]
            ok = eval_predicate(behavior.success_when, env)
            return (TickResult.SUCCESS if ok else TickResult.FAILURE), values
        if ntype is NodeType.ACTION:
            behavior = model.behaviors[node]
            live = [o for o in behavior.outcomes if eval_predicate(o.guard, env)]
            if len(live) != 1:
                raise OracleInapplicableError(
                    f"action {node!r} has {len(live)} enabled outcomes; oracle "
                    "requires exactly one")
            return live[0].result, apply_effects(model.env, live[0].effects, values)
        stop = TickResult.SUCCESS if ntype is NodeType.SEQUENCE else TickResult.FAILURE
        for child in tree.children[node]:
            result, values = tick(child, values)
            if result is not stop:
                return result, values
        return stop, values

    result, values = tick(tree.root, values)
    values = apply_effects(model.env, model.env.root_result_hook, values, wrap=True)
    return result, values


def cycle_outcomes(model: Model, start: MachineState) -> set[tuple[TickResult, tuple]]:
    """All (root result, env) pairs reachable by interleavings of one cycle.

    Explores every enabled-event branch from a cycle-start state until each
    path fires ROOT_REINITIALIZE. Deterministic-leaf models must yield a
    singleton (confluence).
    """
    if any(start.ticks):
        raise ValueError("cycle_outcomes requires a cycle-start state")
    root_index = model.tree.node_index[model.tree.root]
    outcomes: set[tuple[TickResult, tuple]] = set()
    seen = {start}
    frontier = [start]
    while frontier:
        next_frontier = []
        for state in frontier:
            for event in enabled_events(model, state):
                successor = apply_event(model, state, event)
                if event.kind is EventKind.ROOT_REINITIALIZE:
                    outcomes.add((state.results[root_index],
                                  tuple(named(model.env, successor.env).items())))
                    continue
                if successor not in seen:
                    seen.add(successor)
                    next_frontier.append(successor)
        frontier = next_frontier
    return outcomes


def naive_exhaustiveness(spec: EnvSpec, leaf: str,
                         behavior: ActionBehavior) -> str | None:
    """Verify at least one outcome guard holds for every valuation.

    Enumerates only the variables the guards mention (other variables cannot
    influence them). When those variables span more than
    EXHAUSTIVENESS_ENUM_LIMIT valuations the check is skipped and a warning
    is returned; a non-exhaustive action then surfaces at run time as a
    deadlock. Returns None when the check ran and passed.
    """
    names = sorted(set().union(*[expr_variables(o.guard) for o in behavior.outcomes]))
    size = spec.domain_product_size(names)
    if size > EXHAUSTIVENESS_ENUM_LIMIT:
        return (f"action {leaf!r}: outcome exhaustiveness not checked, its guards "
                f"range over {size} valuations of {', '.join(names)} (limit "
                f"{EXHAUSTIVENESS_ENUM_LIMIT})")
    # A spec of just these variables lays values out in the order of `names`.
    guard_spec = EnvSpec(tuple(map(spec.decl, names)))
    guards = [compile_predicate(o.guard, guard_spec) for o in behavior.outcomes]
    for values in spec.valuations(names):
        if not any(holds(values) for holds in guards):
            raise ExhaustivenessError(f"action {leaf!r}: no outcome guard holds "
                                      f"for {dict(zip(names, values))}")
    return None


# --- the character-at-a-time tokenizer that frontend._tokenize replaced -------

_TWO_CHAR = (":=", "==", "!=", "<=", ">=", "&&", "||", "..")
_ONE_CHAR = "{}();:=<>+-!,"


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | punct | eof
    text: str
    line: int
    col: int

    @property
    def span(self) -> str:
        return f"{self.line}:{self.col}"


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in "\r\n":  # "\r\n", "\r" and "\n" each end a line
            line += 1
            col = 1
            i += 2 if text.startswith("\r\n", i) else 1
            continue
        if c in " \t":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] not in "\r\n":
                i += 1
            continue
        start_col = col
        if "0" <= c <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        two = text[i:i + 2]
        if two in _TWO_CHAR:
            tokens.append(Token("punct", two, line, start_col))
            i += 2
            col += 2
            continue
        if c in _ONE_CHAR:
            tokens.append(Token("punct", c, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(line, start_col, f"unexpected character {c!r}")
    tokens.append(Token("eof", "", line, col))
    return tokens


# --- the counterexample rebuild that checker._trace_to replaced ---------------

def event_between(auto: _Automaton, state: tuple, successor: tuple) -> Event:
    """The first event, in rule order, leading from state to successor."""
    values = state[1:]
    for event, test, apply, nxt, _, _ in auto.transitions(state[0]):
        if nxt != successor[0] or test is not None and not test(values):
            continue
        if (apply(values) if apply is not None else values) == successor[1:]:
            return event
    raise AssertionError("no event connects the two states")


# The per-node fields of a counterexample's state delta, in key order:
# label, the field's bits in a node's byte, and its JSON value by byte.
_DELTA_FIELDS = (
    ("n_tick", TICKED, _TICKED_OF),
    ("n_result", RESULT_BITS, tuple(r.value for r in _RESULT_OF)),
    ("analyzing_subtree", ANALYZING, _ANALYZING_OF),
)


def _control_delta(model: Model, event: Event, before: bytes, after: bytes) -> dict:
    """The per-node fields `event` changed, from the control codes around it.

    Only ROOT_REINITIALIZE changes bytes other than those of the event's
    node, its child and its node's parent, so only it compares every node.
    """
    tree = model.tree
    if event.kind is EventKind.ROOT_REINITIALIZE:
        touched = range(len(before))
    else:
        idx = tree.node_index
        nodes = {event.node, event.child, tree.parent.get(event.node)}
        nodes.discard(None)
        touched = sorted(idx[node] for node in nodes)
    order = tree.node_order
    delta: dict = {}
    for label, bits, value_of in _DELTA_FIELDS:
        changed = {order[i]: value_of[after[i]] for i in touched
                   if (before[i] ^ after[i]) & bits}
        if changed:
            delta[label] = changed
    return delta


def trace_to(model: Model, auto: _Automaton, visited: dict,
             target: int) -> list[TraceStep]:
    """Rebuild the event path to the state keyed `target`, annotating each
    step with deltas. Only the keys on the path are unpacked, each once.

    A stored key's parent is in `visited`. Any other key was reached
    without effects from its control id's one predecessor, so its parent
    has the same values under auto.pred's control id.
    """
    span, pred = auto.packing.span, auto.pred

    def parent(key: int) -> int | None:
        if key in visited:
            return visited[key]
        cid, values = divmod(key, span)
        return pred[cid] * span + values

    path = [target]
    while (key := parent(path[-1])) is not None:
        path.append(key)
    path.reverse()
    unpack = auto.packing.unpack
    names = model.env.slots
    state = unpack(path[0])
    steps = []
    for key in path[1:]:
        successor = unpack(key)
        event = event_between(auto, state, successor)
        delta = _control_delta(model, event, auto.controls[state[0]],
                               auto.controls[successor[0]])
        env_changed = {name: a for name, b, a in zip(names, state[1:], successor[1:])
                       if a != b}
        if env_changed:
            delta["env"] = env_changed
        steps.append(TraceStep(event, delta))
        state = successor
    return steps


# --- the .bt renderer, the parser's round-trip oracle -------------------------

def render_expr(e: Expr, parent_prec: int = 0, tie: bool = False) -> str:
    """Source text for `e` inside an operator of `parent_prec`; `tie`
    parenthesizes an operator of that same precedence too."""
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, NotOp):
        text = "!" + render_expr(e.operand, _NOT_PREC)
        return f"({text})" if parent_prec > _NOT_PREC else text
    if isinstance(e, BinOp):
        prec = _PREC[e.op]
        text = (f"{render_expr(e.left, prec, tie=prec == _CMP_PREC)} {e.op} "
                f"{render_expr(e.right, prec, tie=True)}")
        if parent_prec > prec or (tie and parent_prec == prec):
            return f"({text})"
        return text
    raise TypeError(f"not an expression node: {e!r}")


def render_model(model: Model) -> str:
    """Serialize an elaborated model back to .bt source."""
    tree = model.tree
    lines: list[str] = ["tree {"]

    def emit_node(node: str, indent: int) -> None:
        pad = "  " * indent
        kind = tree.n_type[node].value.lower()
        kids = tree.children[node]
        head = "root" if tree.n_type[node] is NodeType.ROOT else f"{kind} {node}"
        if kids:
            lines.append(f"{pad}{head} {{")
            for c in kids:
                emit_node(c, indent + 1)
            lines.append(f"{pad}}}")
        else:
            lines.append(f"{pad}{head};")

    emit_node(tree.root, 1)
    lines.append("}")

    lines.append("env {")
    for v in model.env.variables:
        if v.is_bool:
            init = "true" if v.initial else "false"
            lines.append(f"  var {v.name}: bool = {init};")
        else:
            lines.append(f"  var {v.name}: int in {v.lo}..{v.hi} = {v.initial};")
    lines.append("}")

    for node in tree.node_order:
        behavior = model.behaviors.get(node)
        if isinstance(behavior, ConditionBehavior):
            lines.append(f"condition {node} {{ success_when: "
                         f"{render_expr(behavior.success_when)}; }}")
        elif isinstance(behavior, ActionBehavior):
            lines.append(f"action {node} {{")
            for outcome in behavior.outcomes:
                head = f"  outcome {outcome.result.value} when {render_expr(outcome.guard)}"
                if outcome.effects:
                    body = " ".join(f"{a.name} := {render_expr(a.expr)};"
                                    for a in outcome.effects)
                    lines.append(f"{head} {{ {body} }}")
                else:
                    lines.append(f"{head};")
            lines.append("}")

    if model.env.root_result_hook:
        body = " ".join(f"{a.name} := {render_expr(a.expr)};"
                        for a in model.env.root_result_hook)
        lines.append(f"on_root_result {{ {body} }}")
    for name, pred in model.env.invariants:
        lines.append(f"invariant {name} {{ {render_expr(pred)}; }}")
    return "\n".join(lines) + "\n"
