"""Guarded-event tick semantics over a behavior tree.

The machine state is (ticked?, result, analyzing-subtree?) per node plus the
environment valuation. Each event is enabled by a guard over that state and
rewrites it atomically. The tree's n_ids must be its breadth-first
numbering, so a node comes after its parent in tree.node_order and each
node's children are consecutive there. Control nodes advance left-to-right
through their children by n_id. In every reachable state the ticked nodes
still waiting for a result form one path down from the root, and only the
last node on that path can move: all enabled events are that node's, in
rule order.

A tick cycle runs from an all-unticked state until ROOT_REINITIALIZE fires;
the root result of the cycle is the one copied up by RESULT_ARRIVED, which
also runs the model's root-result hook (e.g. timestep bookkeeping).

The per-node part of a state is its control code: one `bytes` object with
one byte per node in tree.node_order, bit 0 ticked, bits 1-2 the result
and bit 3 analyzing. A MachineState is (control code, env); its (ticks,
results, analyzing) tuples are decoded from the code when read. An event
edits one or two of those bytes, and ROOT_REINITIALIZE is one
bytes.translate.

Only leaf outcomes read the environment, so a state's control code fixes
its candidate events and the control code each leads to; _candidates
states both, once per event. _Automaton refuses a tree whose n_ids are not
breadth-first, interns the codes as control ids and builds each one's
transition list once, with each guard and each effect list compiled to one
generated function of the env values tuple (btv.envmodel), type-checked as
it is compiled; the search, enabled_events, apply_event, tick_cycle and
replay all step through it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import itemgetter, mul
from typing import Callable, Mapping

from .core import ModelError, NodeType, TickResult, TreeSpec, bfs_numbering
from .envmodel import (
    DomainViolationError,
    EnvSpec,
    Expr,
    LeafBehavior,
    NotOp,
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
    """The control code, one byte per node in tree.node_order, plus the
    environment's values tuple, laid out by model.env.slots. ticks, results
    and analyzing are decoded from the code."""

    code: bytes
    env: tuple

    @property
    def ticks(self) -> tuple[bool, ...]:
        return _decode_control(self.code)[0]

    @property
    def results(self) -> tuple[TickResult, ...]:
        return _decode_control(self.code)[1]

    @property
    def analyzing(self) -> tuple[bool, ...]:
        return _decode_control(self.code)[2]


# The bits of a node's byte in a control code. The result code is
# _RESULT_CODE[result]; 0 is UNKNOWN, so a byte & RESULT_BITS is true
# exactly when the node has a result.
TICKED = 1
RESULT_BITS = 6
ANALYZING = 8
_RESULT_CODE = {TickResult.UNKNOWN: 0, TickResult.SUCCESS: 2,
                TickResult.FAILURE: 4, TickResult.RUNNING: 6}
# Each field of a node, indexed by its byte.
_TICKED_OF = tuple(bool(c & TICKED) for c in range(16))
_RESULT_OF = tuple({code: r for r, code in _RESULT_CODE.items()}[c & RESULT_BITS]
                   for c in range(16))
_ANALYZING_OF = tuple(bool(c & ANALYZING) for c in range(16))
# ROOT_REINITIALIZE clears ticks and results and keeps the analyzing flags.
_REINITIALIZED = bytes(c & ANALYZING for c in range(256))
# 1 for a ticked node, and for a ticked node still waiting for its result.
_TICKED_MASK = bytes(c & TICKED for c in range(256))
_WAITING_MASK = bytes(c & (TICKED | RESULT_BITS) == TICKED for c in range(256))


def _decode_control(code: bytes) -> tuple[tuple, tuple, tuple]:
    """The (ticks, results, analyzing) vectors of a control code."""
    if len(code) < 2:  # itemgetter needs an index, and returns a lone one bare
        return (tuple(map(_TICKED_OF.__getitem__, code)),
                tuple(map(_RESULT_OF.__getitem__, code)),
                tuple(map(_ANALYZING_OF.__getitem__, code)))
    get = itemgetter(*code)
    return get(_TICKED_OF), get(_RESULT_OF), get(_ANALYZING_OF)


def initial_state(model: Model) -> MachineState:
    return MachineState(bytes(len(model.tree.node_order)), model.env.initial_state())


# An outcome event's guard: the predicate and the value it must have. Control
# events need none; they depend on the control code alone.
Guard = tuple[Expr, bool]


def _edit(code: bytes, *edits: tuple[int, int, int]) -> bytes:
    """`code` with, for each (i, clear, bits), byte i's `clear` bits cleared
    and its `bits` set."""
    out = bytearray(code)
    for i, clear, bits in edits:
        out[i] = out[i] & ~clear | bits
    return bytes(out)


def _candidates(model: Model, code: bytes) -> list[tuple[Event, Guard | None, bytes]]:
    """Events the control code allows, each with the environment guard it
    still needs (None for control events) and the control code it leads
    to, in rule order.

    The ticked nodes still waiting for a result form one path down from the
    root, and only the last node on it can move, so every event belongs to
    that node. Only leaf outcomes read the environment, so this is
    everything about a state's enabled events that does not depend on the
    valuation. The code is in breadth-first order, where the last node of
    that path is the last waiting one and a node's children are
    consecutive, so both scans below are one bytes.rfind.
    """
    tree = model.tree
    idx = tree.node_index
    deepest = code.translate(_WAITING_MASK).rfind(1)
    node = tree.root if deepest < 0 else tree.node_order[deepest]
    # The node's last ticked child, by position in kids, or -1.
    kids = tree.children[node]
    pos = -1
    if kids:
        first = idx[kids[0]]
        pos = code.translate(_TICKED_MASK).rfind(1, first, first + len(kids))
        pos = pos - first if pos >= 0 else -1
    i = idx[node]
    own = code[i]
    ntype = tree.n_type[node]

    if ntype is NodeType.ROOT:
        if not own & TICKED:
            return [(Event(EventKind.TICK_ROOT, node), None, _edit(code, (i, 0, TICKED)))]
        if own & RESULT_BITS:
            return [(Event(EventKind.ROOT_REINITIALIZE, node), None,
                     code.translate(_REINITIALIZED))]
        if pos < 0:
            return [(Event(EventKind.ROOT_TICKED, node, kids[0]), None,
                     _edit(code, (idx[kids[0]], 0, TICKED | ANALYZING)))]
        child = idx[kids[pos]]
        return [(Event(EventKind.RESULT_ARRIVED, node, kids[pos]), None,
                 _edit(code, (i, RESULT_BITS, code[child] & RESULT_BITS)))]

    # Any other node either records its result and clears its parent's
    # analyzing flag, or ticks a child and becomes analyzing.
    parent = idx[tree.parent[node]]

    def resolve(result: TickResult) -> bytes:
        return _edit(code, (i, RESULT_BITS, _RESULT_CODE[result]), (parent, ANALYZING, 0))

    def tick(child: str) -> bytes:
        return _edit(code, (idx[child], 0, TICKED), (i, 0, ANALYZING))

    if ntype is NodeType.CONDITION:
        pred = model.behaviors[node].success_when
        return [(Event(EventKind.COND_OUTCOME, node, outcome=(TickResult.SUCCESS, 0)),
                 (pred, True), resolve(TickResult.SUCCESS)),
                (Event(EventKind.COND_OUTCOME, node, outcome=(TickResult.FAILURE, 1)),
                 (pred, False), resolve(TickResult.FAILURE))]

    if ntype is NodeType.ACTION:
        return [(Event(EventKind.ACT_OUTCOME, node, outcome=(outcome.result, rule_i)),
                 (outcome.guard, True), resolve(outcome.result))
                for rule_i, outcome in enumerate(model.behaviors[node].outcomes)]

    # A sequence moves on to its next child after a SUCCESS, a fallback after
    # a FAILURE; any other result of the last child is the node's own.
    seq = ntype is NodeType.SEQUENCE
    if pos < 0:
        kind = EventKind.SEQ_INITIAL if seq else EventKind.FB_INITIAL
        return [(Event(kind, node, kids[0]), None, tick(kids[0]))]
    last = _RESULT_OF[code[idx[kids[pos]]]]
    if last is TickResult.RUNNING:
        kind = EventKind.SEQ_RUNNING if seq else EventKind.FB_RUNNING
    elif last is not (TickResult.SUCCESS if seq else TickResult.FAILURE):
        kind = EventKind.SEQ_FAILURE if seq else EventKind.FB_SUCCESS
    elif pos + 1 < len(kids):
        kind = EventKind.SEQ_CONTINUE if seq else EventKind.FB_CONTINUE
        return [(Event(kind, node, kids[pos + 1]), None, tick(kids[pos + 1]))]
    else:
        kind = EventKind.SEQ_SUCCESS if seq else EventKind.FB_FAILURE
    return [(Event(kind, node), None, resolve(last))]


def _transitions(model: Model, state: MachineState) -> list:
    auto = model.automaton
    return auto.transitions(auto.intern(state.code))


def enabled_events(model: Model, state: MachineState) -> list[Event]:
    """All events whose guard holds, in rule order.

    Defined on states reached from initial_state: the derivation in
    _candidates relies on the shape those states have.
    """
    values = state.env
    return [event for event, test, _, _, _, _ in _transitions(model, state)
            if test is None or test(values)]


def apply_event(model: Model, state: MachineState, e: Event) -> MachineState:
    """Successor state for an enabled event; the input state is not mutated.

    Raises EventNotEnabledError when the guard does not hold (a scheduler
    bug) and DomainViolationError when an action effect leaves a domain.
    """
    values = state.env
    for event, test, apply, nxt, _, _ in _transitions(model, state):
        if event == e and (test is None or test(values)):
            return model.automaton.decode((nxt, *(values if apply is None else apply(values))))
    raise EventNotEnabledError(f"event not enabled: {e.describe()}")


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
    Any other event changes each field of at most one node, so the order
    in which those three are read does not show in the delta.
    """
    tree = model.tree
    if event.kind is EventKind.ROOT_REINITIALIZE:
        touched = [i for i, (b, a) in enumerate(zip(before, after)) if b != a]
    else:
        idx = tree.node_index
        touched = [idx[event.node]]
        if event.child is not None:
            touched.append(idx[event.child])
        if event.node in tree.parent:
            touched.append(idx[tree.parent[event.node]])
    order = tree.node_order
    delta: dict = {}
    for label, bits, value_of in _DELTA_FIELDS:
        for i in touched:
            if (before[i] ^ after[i]) & bits:
                if label in delta:
                    delta[label][order[i]] = value_of[after[i]]
                else:
                    delta[label] = {order[i]: value_of[after[i]]}
    return delta


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


# The events whose target control code another edge may enter too: a
# reinitialize clears every tick and result, ROOT_TICKED sets an analyzing
# flag that an earlier cycle may have left set, and two action rules can
# lead to the same code. Any other event without effects enters its target
# from one control id only. COND_OUTCOME, say, sets only the condition's
# result bits and clears its parent's analyzing bit, which the parent set
# when it ticked the condition (the root sets none, so there it stays 0).
# After it the condition is the last ticked child of the deepest waiting
# node, so the code after names the event, and the code before is the code
# after with those two edits undone.
_MERGING = frozenset({EventKind.ACT_OUTCOME, EventKind.ROOT_REINITIALIZE,
                      EventKind.ROOT_TICKED})


class _Automaton:
    """Control ids and their transition lists, built on first use.

    A control id names one interned control code (a `bytes` object, so its
    hash is cached and equality is a memcmp); `controls[cid]` is the code.
    A transition is (event, guard, effects, next control id, shift, store):
    `guard` maps the env values tuple to whether the event is enabled,
    `effects` maps it to the successor's values; either is None when the
    event has none. `shift` gives the successor's key: without effects it
    is key + shift, with effects it is shift + dot(new values, weights).
    `store` is true when the event has effects or is in _MERGING
    (ACT_OUTCOME, ROOT_REINITIALIZE, ROOT_TICKED): its target may be
    reached twice. Any other transition is the only edge into its target,
    from `pred[target]`, and keeps the values, so a state there has exactly
    one predecessor state: the same values under `pred[target]`.

    Raises ModelError when the tree's n_ids are not its breadth-first
    numbering, which _candidates reads the control code in.
    """

    def __init__(self, model: Model):
        if bfs_numbering(model.tree) != model.tree.n_id:
            raise ModelError("the tree's n_ids are not its breadth-first numbering "
                             "(validate_tree reports ID_BFS)")
        self.model = model
        self.packing = StatePacking(model.env)
        self.ids: dict[bytes, int] = {}
        self.controls: list[bytes] = []
        self.table: list[list | None] = []
        # The one predecessor control id of each unstored target built so far.
        self.pred: dict[int, int] = {}
        self._compiled: dict[Event, tuple] = {}

    def intern(self, code: bytes) -> int:
        cid = self.ids.get(code)
        if cid is None:
            cid = self.ids[code] = len(self.controls)
            self.controls.append(code)
            self.table.append(None)
        return cid

    def transitions(self, cid: int) -> list:
        out = self.table[cid]
        if out is None:
            model, code = self.model, self.controls[cid]
            span, base = self.packing.span, self.packing.base
            out = []
            for event, guard, successor in _candidates(model, code):
                test, apply = self._compile(event, guard)
                nxt = self.intern(successor)
                shift = (nxt - cid) * span if apply is None else nxt * span + base
                store = apply is not None or event.kind in _MERGING
                if not store:
                    self.pred[nxt] = cid
                out.append((event, test, apply, nxt, shift, store))
            self.table[cid] = out
        return out

    def _compile(self, event: Event, guard: Guard | None) -> tuple:
        compiled = self._compiled.get(event)
        if compiled is None:
            env = self.model.env
            test = None
            if guard is not None:
                pred, wanted = guard
                test = compile_predicate(pred if wanted else NotOp(pred, pred.span), env)
            effects, wrap = (), False
            if event.kind is EventKind.RESULT_ARRIVED:
                effects, wrap = env.root_result_hook, True
            elif event.kind is EventKind.ACT_OUTCOME:
                effects = self.model.behaviors[event.node].outcomes[event.outcome[1]].effects
            apply = compile_effects(env, effects, wrap=wrap) if effects else None
            compiled = self._compiled[event] = (test, apply)
        return compiled

    def decode(self, state: tuple) -> MachineState:
        """The MachineState of a (control id, *values) tuple."""
        return MachineState(self.controls[state[0]], state[1:])


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

