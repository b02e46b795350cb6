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
its candidate events and the control code each leads to. _Automaton
refuses a tree whose n_ids are not breadth-first, interns the codes as
control ids and builds each one's transition list once; the search,
enabled_events, apply_event, tick_cycle and replay all step through it.
What does not depend on the code it builds once per tree (a node table)
or once per leaf (the leaf's events with their guards and effects
compiled to generated functions of the env values tuple, btv.envmodel);
per code it only finds the node that can move and edits copies of the
code.
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
    LeafBehavior,
    compile_condition,
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
_SUCCESS_BITS, _FAILURE_BITS, _RUNNING_BITS = (
    _RESULT_CODE[r] for r in (TickResult.SUCCESS, TickResult.FAILURE, TickResult.RUNNING))
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


def _transitions(model: Model, state: MachineState) -> list:
    auto = model.automaton
    return auto.transitions(auto.intern(state.code))


def enabled_events(model: Model, state: MachineState) -> list[Event]:
    """All events whose guard holds, in rule order.

    Defined on states reached from initial_state: the derivation in
    _Automaton._moves relies on the shape those states have.
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
_RESULT_VALUE_OF = tuple(r.value for r in _RESULT_OF)
_REINITIALIZE = EventKind.ROOT_REINITIALIZE
_DELTA_FIELDS = (
    ("n_tick", TICKED, _TICKED_OF),
    ("n_result", RESULT_BITS, _RESULT_VALUE_OF),
    ("analyzing_subtree", ANALYZING, _ANALYZING_OF),
)

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


# What a sequence and a fallback do, by the result of their last ticked
# child: the event that ticks their first child, the event that ticks the
# next one, the result bits on which they go on to it, and, by result bits,
# the event that makes the last child's result their own once they do not
# go on (or have no next child).
_SEQUENCE_EVENTS = (EventKind.SEQ_INITIAL, EventKind.SEQ_CONTINUE, _SUCCESS_BITS,
                    {_SUCCESS_BITS: EventKind.SEQ_SUCCESS, _FAILURE_BITS: EventKind.SEQ_FAILURE,
                     _RUNNING_BITS: EventKind.SEQ_RUNNING})
_FALLBACK_EVENTS = (EventKind.FB_INITIAL, EventKind.FB_CONTINUE, _FAILURE_BITS,
                    {_SUCCESS_BITS: EventKind.FB_SUCCESS, _FAILURE_BITS: EventKind.FB_FAILURE,
                     _RUNNING_BITS: EventKind.FB_RUNNING})

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

    Each part of the work is done once per automaton, once per leaf or
    once per code. Per automaton: the node table, by node index in
    tree.node_order: each node's name, type, parent index, first child
    index and child count (the children are consecutive) and, for a
    sequence or fallback, its events (_SEQUENCE_EVENTS, _FALLBACK_EVENTS);
    and, at the first RESULT_ARRIVED, the root-result hook's compiled
    effects. Per leaf, at its first move: its rows, one per outcome rule,
    of event, compiled guard, compiled effects and result bits; a
    condition's predicate is type-checked and rendered once for both of
    its tests (compile_condition). Per code, in _moves: the one node that
    can move and its last ticked child, each with a bytes.translate and a
    bytes.rfind, that node's events, and each successor code as a copy
    with one or two bytes edited. control_delta reads a counterexample
    step's per-node delta through the same table.

    Raises ModelError when the tree's n_ids are not its breadth-first
    numbering, which the node table and _moves rely on, or when a sequence
    or fallback has no child to tick.
    """

    def __init__(self, model: Model):
        tree = model.tree
        if bfs_numbering(tree) != tree.n_id:
            raise ModelError("the tree's n_ids are not its breadth-first numbering "
                             "(validate_tree reports ID_BFS)")
        self.model = model
        self.packing = StatePacking(model.env)
        self.ids: dict[bytes, int] = {}
        self.controls: list[bytes] = []
        self.table: list[list | None] = []
        # The one predecessor control id of each unstored target built so far.
        self.pred: dict[int, int] = {}
        # The node table. The root is node 0, with no parent (-1).
        idx = tree.node_index
        self.names: tuple[str, ...] = tree.node_order
        self.index: Mapping[str, int] = idx
        self.types = tuple(map(tree.n_type.__getitem__, self.names))
        kids = tuple(map(tree.children.__getitem__, self.names))
        self.child_count = tuple(map(len, kids))
        self.first_child = tuple(idx[k[0]] if k else 0 for k in kids)
        self.parents = (-1, *map(idx.__getitem__, map(tree.parent.__getitem__, self.names[1:])))
        sequence, fallback = NodeType.SEQUENCE, NodeType.FALLBACK
        self.control_events = tuple(_SEQUENCE_EVENTS if t is sequence else
                                    _FALLBACK_EVENTS if t is fallback else None
                                    for t in self.types)
        for name, events, count in zip(self.names, self.control_events, self.child_count):
            if events is not None and not count:
                raise ModelError(f"control node {name!r} has no children "
                                 "(validate_tree reports LEAF_ARITY)")
        # Each leaf's rows, by node index, once it has moved.
        self.rows: list[list | None] = [None] * len(self.names)

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
            span, base = self.packing.span, self.packing.base
            out = []
            for event, test, apply, successor in self._moves(self.controls[cid]):
                nxt = self.intern(successor)
                shift = (nxt - cid) * span if apply is None else nxt * span + base
                store = apply is not None or event.kind in _MERGING
                if not store:
                    self.pred[nxt] = cid
                out.append((event, test, apply, nxt, shift, store))
            self.table[cid] = out
        return out

    def _moves(self, code: bytes) -> list[tuple]:
        """(event, guard, effects, successor code) for each event the
        control code allows, in rule order.

        The ticked nodes still waiting for a result form one path down from
        the root, and only the last node on it can move, so every event
        belongs to that node. Only leaf outcomes read the environment, so
        this is everything about a state's enabled events that does not
        depend on the valuation. The code is in breadth-first order, where
        the last node of that path is the last waiting one and a node's
        children are consecutive, so both scans below are one bytes.rfind.
        """
        i = code.translate(_WAITING_MASK).rfind(1)
        if i < 0:  # none waiting: the root, node 0
            i = 0
        own = code[i]
        name = self.names[i]
        edit = bytearray(code)
        first = self.first_child[i]
        # The node's last ticked child, or -1.
        last = code.translate(_TICKED_MASK).rfind(1, first, first + self.child_count[i])

        if i == 0:
            if not own & TICKED:
                edit[0] = own | TICKED
                return [(Event(EventKind.TICK_ROOT, name), None, None, bytes(edit))]
            if own & RESULT_BITS:
                return [(Event(EventKind.ROOT_REINITIALIZE, name), None, None,
                         code.translate(_REINITIALIZED))]
            if last < 0:
                edit[first] |= TICKED | ANALYZING
                return [(Event(EventKind.ROOT_TICKED, name, self.names[first]), None, None,
                         bytes(edit))]
            edit[0] = own | code[last] & RESULT_BITS
            return [(Event(EventKind.RESULT_ARRIVED, name, self.names[last]), None,
                     self.hook, bytes(edit))]

        # Any other node either records its result and clears its parent's
        # analyzing flag, or ticks a child and becomes analyzing. The node
        # is waiting, so its result bits are 0.
        control = self.control_events[i]
        if control is None:
            rows = self.rows[i]
            if rows is None:
                rows = self._leaf_rows(i)
            edit[self.parents[i]] &= ~ANALYZING
            moves = []
            for event, test, apply, bits in rows:
                edit[i] = own | bits
                moves.append((event, test, apply, bytes(edit)))
            return moves

        tick_first, tick_next, goes_on, resolve = control
        if last < 0:
            kind, child = tick_first, first
        else:
            result = code[last] & RESULT_BITS
            if result != goes_on or last + 1 == first + self.child_count[i]:
                edit[i] = own | result
                edit[self.parents[i]] &= ~ANALYZING
                return [(Event(resolve[result], name), None, None, bytes(edit))]
            kind, child = tick_next, last + 1
        edit[child] |= TICKED
        edit[i] = own | ANALYZING
        return [(Event(kind, name, self.names[child]), None, None, bytes(edit))]

    def _leaf_rows(self, i: int) -> list[tuple]:
        """(event, guard, effects, result bits) for each outcome rule of leaf
        i, in rule order, with its guard and effects compiled; built once."""
        name, env = self.names[i], self.model.env
        behavior = self.model.behaviors[name]
        if self.types[i] is NodeType.CONDITION:
            success, failure = compile_condition(behavior.success_when, env)
            rows = [(Event(EventKind.COND_OUTCOME, name, outcome=(TickResult.SUCCESS, 0)),
                     success, None, _SUCCESS_BITS),
                    (Event(EventKind.COND_OUTCOME, name, outcome=(TickResult.FAILURE, 1)),
                     failure, None, _FAILURE_BITS)]
        else:
            rows = [(Event(EventKind.ACT_OUTCOME, name, outcome=(outcome.result, rule_i)),
                     compile_predicate(outcome.guard, env),
                     compile_effects(env, outcome.effects) if outcome.effects else None,
                     _RESULT_CODE[outcome.result])
                    for rule_i, outcome in enumerate(behavior.outcomes)]
        self.rows[i] = rows
        return rows

    @cached_property
    def hook(self) -> Callable[[tuple], tuple] | None:
        """The root-result hook's compiled effects, which wrap into the
        domains; None for a model without one."""
        env = self.model.env
        return compile_effects(env, env.root_result_hook, wrap=True) \
            if env.root_result_hook else None

    def control_delta(self, event: Event, before: bytes, after: bytes) -> dict:
        """The per-node fields `event` changed, by field and then in node
        order, from the control codes around it.

        Only ROOT_REINITIALIZE changes bytes other than those of the event's
        node and its child, or its node and its parent, so only it compares
        every node. Any other event changes each field of at most one node:
        its edits in _moves set the child's tick (and, under the root, the
        child's analyzing flag) and the node's analyzing flag, or the
        node's tick or result and the parent's analyzing flag.
        """
        names = self.names
        delta = {}
        if event.kind is _REINITIALIZE:
            for label, bits, value_of in _DELTA_FIELDS:
                fields = {names[j]: value_of[a] for j, (b, a) in enumerate(zip(before, after))
                          if (b ^ a) & bits}
                if fields:
                    delta[label] = fields
            return delta
        # The two nodes whose bytes the event may change: its node i and
        # its child, or its parent (the root, node 0, has none).
        i = self.index[event.node]
        j = self.index[event.child] if event.child is not None else self.parents[i] if i else i
        changed_i, changed_j = before[i] ^ after[i], before[j] ^ after[j]
        changed = changed_i | changed_j
        if changed & TICKED:
            k = i if changed_i & TICKED else j
            delta["n_tick"] = {names[k]: _TICKED_OF[after[k]]}
        if changed & RESULT_BITS:
            k = i if changed_i & RESULT_BITS else j
            delta["n_result"] = {names[k]: _RESULT_VALUE_OF[after[k]]}
        if changed & ANALYZING:
            k = i if changed_i & ANALYZING else j
            delta["analyzing_subtree"] = {names[k]: _ANALYZING_OF[after[k]]}
        return delta

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

