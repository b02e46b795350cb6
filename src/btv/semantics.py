"""Guarded-event tick semantics over a behavior tree.

The machine state is (ticked?, result, analyzing-subtree?) per node plus the
environment valuation. Each event is enabled by a guard over that state and
rewrites it atomically. Control nodes advance left-to-right through their
children by n_id. In every reachable state the ticked nodes still waiting
for a result form one path down from the root, and only the last node on
that path can move: all enabled events are that node's, in rule order.

A tick cycle runs from an all-unticked state until ROOT_REINITIALIZE fires;
the root result of the cycle is the one copied up by RESULT_ARRIVED, which
also runs the model's root-result hook (e.g. timestep bookkeeping).

Only leaf outcomes read the environment. enabled_events is therefore the
environment-free candidate list of _candidates filtered by each candidate's
guard, and apply_event is a guard check followed by _fire, whose control
part (_fire_control) and assignments (_event_effects) the checker reuses to
build its per-control-id transition lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping

from .core import ModelError, NodeType, TickResult, TreeSpec
from .envmodel import (
    Assignment,
    EnvSpec,
    EnvState,
    Expr,
    LeafBehavior,
    apply_effects,
    eval_predicate,
)


class EventNotEnabledError(ModelError):
    pass


class DeadlockError(ModelError):
    def __init__(self, msg: str, trace: list["Event"]):
        super().__init__(msg)
        self.trace = trace


class NonterminationError(ModelError):
    def __init__(self, msg: str, trace: list["Event"]):
        super().__init__(msg)
        self.trace = trace


class EventKind(Enum):
    TICK_ROOT = "TICK_ROOT"
    ROOT_TICKED = "ROOT_TICKED"
    RESULT_ARRIVED = "RESULT_ARRIVED"
    ROOT_REINITIALIZE = "ROOT_REINITIALIZE"
    FB_INITIAL = "FB_INITIAL"
    FB_SUCCESS = "FB_SUCCESS"
    FB_RUNNING = "FB_RUNNING"
    FB_FAILURE = "FB_FAILURE"
    FB_CONTINUE = "FB_CONTINUE"
    SEQ_INITIAL = "SEQ_INITIAL"
    SEQ_SUCCESS = "SEQ_SUCCESS"
    SEQ_RUNNING = "SEQ_RUNNING"
    SEQ_FAILURE = "SEQ_FAILURE"
    SEQ_CONTINUE = "SEQ_CONTINUE"
    COND_OUTCOME = "COND_OUTCOME"
    ACT_OUTCOME = "ACT_OUTCOME"

    __hash__ = object.__hash__  # see TickResult


@dataclass(frozen=True)
class Event:
    kind: EventKind
    node: str
    child: str | None = None
    outcome: tuple[TickResult, int] | None = None  # (result, rule index) for leaves

    def describe(self) -> str:
        parts = [self.kind.value, self.node]
        if self.child:
            parts.append(f"-> {self.child}")
        if self.outcome:
            parts.append(f"[{self.outcome[0].value}]")
        return " ".join(parts)


@dataclass(frozen=True)
class Model:
    """An elaborated model: topology, environment, and leaf behaviors."""

    tree: TreeSpec
    env: EnvSpec
    behaviors: Mapping[str, LeafBehavior]
    source_sha256: str | None = field(default=None, compare=False)
    # Load-time checks that had to be skipped, one message each.
    warnings: tuple[str, ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class MachineState:
    """Per-node dynamic state plus environment, aligned with tree.node_order."""

    ticks: tuple[bool, ...]
    results: tuple[TickResult, ...]
    analyzing: tuple[bool, ...]
    env: EnvState


def initial_state(model: Model) -> MachineState:
    n = len(model.tree.node_order)
    return MachineState(
        ticks=(False,) * n,
        results=(TickResult.UNKNOWN,) * n,
        analyzing=(False,) * n,
        env=model.env.initial_state(),
    )


# An outcome event's guard: the predicate and the value it must have. Control
# events need none; they depend on the per-node vectors alone.
Guard = tuple[Expr, bool]


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


def enabled_events(model: Model, state: MachineState) -> list[Event]:
    """All events whose guard holds, in rule order.

    Defined on states reached from initial_state: the derivation in
    _candidates relies on the shape those states have.
    """
    return [e for e, guard in _candidates(model, state.ticks, state.results)
            if guard is None or eval_predicate(guard[0], state.env) == guard[1]]


def _set(tup: tuple, i: int, value) -> tuple:
    return tup[:i] + (value,) + tup[i + 1:]


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
    return MachineState(*control, env=env)


def _event_effects(model: Model, e: Event) -> tuple[tuple[Assignment, ...], bool]:
    """The assignments an event makes, and whether they wrap into the domain."""
    if e.kind is EventKind.RESULT_ARRIVED:
        return model.env.root_result_hook, True
    if e.kind is EventKind.ACT_OUTCOME:
        return model.behaviors[e.node].outcomes[e.outcome[1]].effects, False
    return (), False


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


# --- schedulers and cycles --------------------------------------------------

Policy = Callable[[list[Event], "Model", MachineState], Event]


def deterministic_policy(enabled: list[Event], model: Model, state: MachineState) -> Event:
    """The first enabled event. All of them belong to the one node that can
    move, so this is its lowest enabled rule."""
    return enabled[0]


def random_policy(rng: random.Random) -> Policy:
    def pick(enabled: list[Event], model: Model, state: MachineState) -> Event:
        return rng.choice(enabled)
    return pick


def cycle_step_budget(tree: TreeSpec) -> int:
    # Each node ticks at most once and resolves at most once per cycle.
    return 4 * len(tree.node_order) + 2


def tick_cycle(model: Model, state: MachineState,
               policy: Policy = deterministic_policy,
               ) -> tuple[MachineState, TickResult, list[Event]]:
    """Run one full cycle from an all-unticked state until reinitialization.

    Returns the post-reinitialize state, the root result that arrived, and
    the fired event trace.
    """
    if any(state.ticks):
        raise ValueError("tick_cycle requires a cycle-start state (all unticked)")
    budget = cycle_step_budget(model.tree)
    trace: list[Event] = []
    root_result = None
    while True:
        enabled = enabled_events(model, state)
        if not enabled:
            raise DeadlockError("no event enabled before cycle completion", trace)
        e = policy(enabled, model, state)
        if e.kind is EventKind.RESULT_ARRIVED:
            root_result = state.results[model.tree.node_index[e.child]]
        state = apply_event(model, state, e)
        trace.append(e)
        if e.kind is EventKind.ROOT_REINITIALIZE:
            return state, root_result, trace
        if len(trace) > budget:
            raise NonterminationError(
                f"cycle exceeded step budget of {budget} events", trace)

