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

Only leaf outcomes read the environment, so the (ticks, results, analyzing)
vectors fix a state's candidate events and where each leads. _Automaton
builds that transition list once per distinct triple, with guards and
effects compiled to closures over the env values tuple; the search,
enabled_events, apply_event, tick_cycle and replay all step through it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import mul
from typing import Callable, Mapping

from .core import ModelError, NodeType, TickResult, TreeSpec
from .envmodel import (
    DomainViolationError,
    EnvSpec,
    EnvState,
    Expr,
    LeafBehavior,
    compile_effects,
    compile_predicate,
)


class EventNotEnabledError(ModelError):
    pass


class CycleError(ModelError):
    """A tick cycle that stopped before ROOT_REINITIALIZE; `trace` holds the
    events fired before the failure."""

    def __init__(self, msg: str, trace: list["Event"]):
        super().__init__(msg)
        self.trace = trace


class DeadlockError(CycleError):
    pass


class NonterminationError(CycleError):
    pass


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

    @cached_property
    def automaton(self) -> "_Automaton":
        """The transition lists enabled_events and apply_event step through."""
        return _Automaton(self)


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


def _transitions(model: Model, state: MachineState) -> list:
    auto = model.automaton
    return auto.transitions(auto.intern((state.ticks, state.results, state.analyzing)))


def enabled_events(model: Model, state: MachineState) -> list[Event]:
    """All events whose guard holds, in rule order.

    Defined on states reached from initial_state: the derivation in
    _candidates relies on the shape those states have.
    """
    values = state.env.values
    return [event for event, test, _, _, _ in _transitions(model, state)
            if test is None or test(values)]


def apply_event(model: Model, state: MachineState, e: Event) -> MachineState:
    """Successor state for an enabled event; the input state is not mutated.

    Raises EventNotEnabledError when the guard does not hold (a scheduler
    bug) and DomainViolationError when an action effect leaves a domain.
    """
    values = state.env.values
    for event, test, apply, nxt, _ in _transitions(model, state):
        if event == e and (test is None or test(values)):
            return model.automaton.decode((nxt, *(values if apply is None else apply(values))))
    raise EventNotEnabledError(f"event not enabled: {e.describe()}")


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


# --- the compiled transition system -------------------------------------------

class StatePacking:
    """Exact ints for (control id, env values) pairs of one EnvSpec.

    The key is cid * span + sum((v_i - lo_i) * w_i): bools count as 0/1 with
    lo 0, span is the product of the domain sizes and w_i the product of the
    sizes of the slots after i. On in-domain values this is a bijection, so
    keys are equal exactly when the pairs are.
    """

    def __init__(self, spec: EnvSpec):
        # (size, lo, is_bool) from the last slot to the first, as unpack
        # peels the digits off.
        self._digits = []
        weights = []
        weight = 1
        for var in reversed(spec.variables):
            lo = 0 if var.is_bool else var.lo
            size = 2 if var.is_bool else var.hi - var.lo + 1
            self._digits.append((size, lo, var.is_bool))
            weights.append(weight)
            weight *= size
        self.span = weight
        self.weights = tuple(reversed(weights))
        # Folds the lower bounds in, so a key is base + dot(values, weights).
        self.base = -sum(lo * w for (_, lo, _), w in zip(self._digits, weights))

    def pack(self, cid: int, values: tuple) -> int:
        return cid * self.span + self.base + sum(map(mul, values, self.weights))

    def unpack(self, key: int) -> tuple:
        """(cid, *values), with bools as bool."""
        cid, rest = divmod(key, self.span)
        values = []
        for size, lo, is_bool in self._digits:
            rest, digit = divmod(rest, size)
            values.append(digit == 1 if is_bool else lo + digit)
        values.append(cid)
        return tuple(reversed(values))


class _Automaton:
    """Control ids and their transition lists, built on first use.

    A transition is (event, guard, effects, next control id, shift): `guard`
    maps the env values tuple to whether the event is enabled, `effects`
    maps it to the successor's values; either is None when the event has
    none. `shift` gives the successor's key: without effects it is
    key + shift, with effects it is shift + dot(new values, weights).
    """

    def __init__(self, model: Model):
        self.model = model
        self.packing = StatePacking(model.env)
        self.ids: dict[tuple, int] = {}
        self.controls: list[tuple] = []
        self.table: list[list | None] = []
        self._compiled: dict[Event, tuple] = {}

    def intern(self, control: tuple) -> int:
        cid = self.ids.get(control)
        if cid is None:
            cid = self.ids[control] = len(self.controls)
            self.controls.append(control)
            self.table.append(None)
        return cid

    def transitions(self, cid: int) -> list:
        out = self.table[cid]
        if out is None:
            model, control = self.model, self.controls[cid]
            span, base = self.packing.span, self.packing.base
            out = []
            for event, guard in _candidates(model, control[0], control[1]):
                test, apply = self._compile(event, guard)
                nxt = self.intern(_fire_control(model, control, event))
                shift = (nxt - cid) * span if apply is None else nxt * span + base
                out.append((event, test, apply, nxt, shift))
            self.table[cid] = out
        return out

    def _compile(self, event: Event, guard: Guard | None) -> tuple:
        compiled = self._compiled.get(event)
        if compiled is None:
            env = self.model.env
            test = None
            if guard is not None:
                pred, wanted = guard
                test = compile_predicate(pred, env.slots)
                if not wanted:
                    test = _negate(test)
            effects, wrap = (), False
            if event.kind is EventKind.RESULT_ARRIVED:
                effects, wrap = env.root_result_hook, True
            elif event.kind is EventKind.ACT_OUTCOME:
                effects = self.model.behaviors[event.node].outcomes[event.outcome[1]].effects
            apply = compile_effects(env, effects, wrap=wrap) if effects else None
            compiled = self._compiled[event] = (test, apply)
        return compiled

    def decode(self, state: tuple) -> MachineState:
        ticks, results, analyzing = self.controls[state[0]]
        return MachineState(ticks, results, analyzing,
                            EnvState(state[1:], self.model.env.slots))

    def event_between(self, state: tuple, successor: tuple) -> Event:
        """The first event, in rule order, leading from state to successor."""
        values = state[1:]
        for event, test, apply, nxt, _ in self.transitions(state[0]):
            if nxt != successor[0] or test is not None and not test(values):
                continue
            if (apply(values) if apply is not None else values) == successor[1:]:
                return event
        raise AssertionError("no event connects the two states")


def _negate(test):
    return lambda values: not test(values)


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
    the fired event trace. Raises a CycleError when the cycle cannot
    complete: DeadlockError, NonterminationError, or CycleError itself when
    an effect leaves a variable's domain.
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
        try:
            state = apply_event(model, state, e)
        except DomainViolationError as err:
            raise CycleError(
                f"{e.describe()}: {err.name} := {err.value} leaves the declared domain",
                trace) from err
        trace.append(e)
        if e.kind is EventKind.ROOT_REINITIALIZE:
            return state, root_result, trace
        if len(trace) > budget:
            raise NonterminationError(
                f"cycle exceeded step budget of {budget} events", trace)

