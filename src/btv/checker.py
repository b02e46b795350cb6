"""Exhaustive explicit-state exploration of the tick semantics.

Breadth-first search over all event interleavings from the initial state,
with global deduplication of states. Every discovered state (including the
initial one) is checked against the model's invariants; the first problem in
BFS order wins, tie-broken by the rule order of the enabled events, so
counterexamples are minimal in transition count and reproducible.

The search steps packed states through btv.semantics._Automaton, whose
control ids name distinct control codes (one byte per node: ticked, result
and analyzing); it builds its own rather than Model.automaton, so that the
control table is freed with the search. A state is named by one exact
mixed-radix int of its control id and values (see
btv.semantics.StatePacking). Only the states that can be reached twice are
stored, in a dict from that int to its parent's int: the initial state,
and the targets of transitions marked `store` (effects, ACT_OUTCOME,
ROOT_REINITIALIZE and ROOT_TICKED). Any other state has one predecessor
state, the same values under its control id's one predecessor control id
(_Automaton.pred), which is produced at most once, so it is produced at
most once too and needs no dedup; it is counted and goes on the frontier.
states_explored and max_states count every state, stored or not. Values
tuples live only on the frontier, where guards and effects read them.
A counterexample is rebuilt in one walk back from its last state: through
the dict for a stored key, and through _Automaton.pred for any other,
with the values unchanged. A step's event is the one transition from the
parent's control id to the child's; guards and effects run only when
several lead there, to pick the first in rule order. Its state delta is
read from the control codes of the nodes the event touched (all nodes only
for ROOT_REINITIALIZE) and, when the key's values part changed, from the
two unpacked valuations. Each discovered state's invariants are evaluated
on its values tuple, and on_state gets each state as a MachineState of its
interned control code and that tuple.
replay applies a trace through the same compiled guards and effects, so it
does not check a counterexample independently; the tests' oracles do.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from enum import Enum
from operator import mul

from .core import TickResult
from .envmodel import DomainViolationError, check_invariants
from .semantics import (
    Event,
    EventKind,
    EventNotEnabledError,
    MachineState,
    Model,
    _Automaton,
    apply_event,
    initial_state,
)


# Verdict.detail of a search stopped by KeyboardInterrupt (Ctrl-C).
INTERRUPTED = "interrupted"


class ReplayError(Exception):
    def __init__(self, msg: str, step: int | None = None):
        super().__init__(msg)
        self.step = step


class Status(Enum):
    HOLDS = "HOLDS"
    VIOLATED = "VIOLATED"
    DEADLOCK = "DEADLOCK"
    DOMAIN_VIOLATION = "DOMAIN_VIOLATION"
    BOUND_EXCEEDED = "BOUND_EXCEEDED"


@dataclass
class ExploreOptions:
    max_states: int = 1_000_000
    max_depth: int | None = None


@dataclass
class TraceStep:
    event: Event
    state_delta: dict


@dataclass
class Stats:
    peak_frontier: int = 0
    wall_time_s: float = 0.0
    depth: int = 0


@dataclass
class Verdict:
    status: Status
    states_explored: int
    transitions: int
    violated_invariant: str | None = None
    counterexample: list[TraceStep] | None = None
    # For DOMAIN_VIOLATION: the event whose effect left the domain. It is not
    # part of the counterexample so that the trace replays cleanly to the
    # state the event fires from.
    violating_event: Event | None = None
    detail: str | None = None
    stats: Stats = field(default_factory=Stats)


def explore(model: Model, options: ExploreOptions | None = None,
            on_state=None) -> Verdict:
    """Breadth-first exploration of every reachable machine state.

    Returns HOLDS with the exact reachable-state count, or the first
    VIOLATED / DEADLOCK / DOMAIN_VIOLATION in BFS order with a replayable
    counterexample, or BOUND_EXCEEDED when max_states/max_depth cut the
    search short or KeyboardInterrupt stops it (detail INTERRUPTED), with
    the counts so far. `on_state` is called once per discovered state.
    """
    opts = options or ExploreOptions()
    started = time.perf_counter()
    stats = Stats()
    spec = model.env
    auto = _Automaton(model)
    span, weights = auto.packing.span, auto.packing.weights

    start = initial_state(model)
    init_values = start.env
    init = auto.packing.pack(auto.intern(start.code), init_values)
    # Each stored state's key maps to the key it was first reached from.
    visited: dict[int, int | None] = {init: None}
    explored = 1
    transitions = 0
    if on_state:
        on_state(start)

    def finish(status: Status, *, bad_state=None, violating_event=None,
               invariant=None, detail=None) -> Verdict:
        stats.wall_time_s = time.perf_counter() - started
        trace = None
        if bad_state is not None:
            trace = _trace_to(model, auto, visited, bad_state)
        return Verdict(status, explored, transitions,
                       violated_invariant=invariant, counterexample=trace,
                       violating_event=violating_event, detail=detail, stats=stats)

    violated = check_invariants(spec, init_values)
    if violated:
        return finish(Status.VIOLATED, bad_state=init, invariant=violated[0],
                      detail=f"invariant {violated[0]!r} false in the initial state")

    table = auto.table
    max_states = opts.max_states
    # The frontier: parallel lists of keys and their values tuples.
    keys, frontier_values = [init], [init_values]
    depth = 0
    try:
        while keys:
            stats.peak_frontier = max(stats.peak_frontier, len(keys))
            stats.depth = depth
            if opts.max_depth is not None and depth >= opts.max_depth:
                return finish(Status.BOUND_EXCEEDED,
                              detail=f"max depth {opts.max_depth} reached with "
                                     f"{len(keys)} frontier states unexplored")
            next_keys: list[int] = []
            next_values: list[tuple] = []
            for key, values in zip(keys, frontier_values):
                cid = key // span
                enabled = False
                for event, test, apply, nxt, shift, store in table[cid] or auto.transitions(cid):
                    if test is not None and not test(values):
                        continue
                    enabled = True
                    transitions += 1
                    if apply is None:
                        new_values = values
                        successor = key + shift
                    else:
                        try:
                            new_values = apply(values)
                        except DomainViolationError as err:
                            return finish(
                                Status.DOMAIN_VIOLATION, bad_state=key,
                                violating_event=event,
                                detail=f"{event.describe()}: {err.name} := {err.value} "
                                       "leaves the declared domain")
                        successor = shift + sum(map(mul, new_values, weights))
                    if store and successor in visited:
                        continue
                    if explored >= max_states:
                        return finish(Status.BOUND_EXCEEDED,
                                      detail=f"max states {max_states} reached")
                    explored += 1
                    if store:
                        visited[successor] = key
                    if on_state:
                        on_state(auto.decode((nxt,) + new_values))
                    violated = check_invariants(spec, new_values)
                    if violated:
                        return finish(Status.VIOLATED, bad_state=successor,
                                      invariant=violated[0])
                    next_keys.append(successor)
                    next_values.append(new_values)
                if not enabled:
                    return finish(Status.DEADLOCK, bad_state=key,
                                  detail="no event enabled in a non-final state")
            keys, frontier_values = next_keys, next_values
            depth += 1
    except KeyboardInterrupt:
        return finish(Status.BOUND_EXCEEDED, detail=INTERRUPTED)

    return finish(Status.HOLDS)


def _trace_to(model: Model, auto: _Automaton, visited: dict,
              target: int) -> list[TraceStep]:
    """Rebuild the event path to the state keyed `target`, annotating each
    step with deltas, in one walk back from `target`.

    A stored key's parent is in `visited`. Any other key was reached
    without effects from its control id's one predecessor, so its parent
    has the same values under auto.pred's control id. A step's event is the
    parent control id's one transition into the child's; only when several
    lead there are guards and effects run, to pick the first in rule order
    that gives the child's values. Keys are unpacked only for that and for
    the env delta, which a step whose values part is unchanged lacks. The
    control delta is read from the bytes of the nodes the event touched,
    found through the automaton's node table (_Automaton.control_delta).
    """
    span, pred, table, controls = auto.packing.span, auto.pred, auto.table, auto.controls
    unpack = auto.packing.unpack
    names = model.env.slots
    steps = []
    key = target
    cid, rest = divmod(key, span)
    values = None  # the values of `key`, once unpacked
    while (parent := visited.get(key, -1)) is not None:
        if parent < 0:
            pcid, prest = pred[cid], rest
            parent = pcid * span + rest
        else:
            pcid, prest = divmod(parent, span)
        same = prest == rest
        arrows = table[pcid]
        if len(arrows) > 1:
            arrows = [t for t in arrows if t[3] == cid]
        if values is None and (len(arrows) > 1 or not same):
            values = unpack(key)[1:]
        pvalues = values if same else unpack(parent)[1:]
        if len(arrows) == 1:
            event = arrows[0][0]
        else:
            event = next(event for event, test, apply, *_ in arrows
                         if (test is None or test(pvalues))
                         and (pvalues if apply is None else apply(pvalues)) == values)
        delta = auto.control_delta(event, controls[pcid], controls[cid])
        if not same:
            delta["env"] = {name: a for name, b, a in zip(names, pvalues, values)
                            if a != b}
        steps.append(TraceStep(event, delta))
        key, cid, rest, values = parent, pcid, prest, pvalues
    steps.reverse()
    return steps


def replay(model: Model, trace, *, trace_sha256: str | None = None) -> MachineState:
    """Re-apply a trace from the initial state, checking each guard.

    `trace` is a list of Event or TraceStep. Raises ReplayError with the
    failing step index when an event is not enabled, and on a model hash
    mismatch when both hashes are known.
    """
    if trace_sha256 is not None and model.source_sha256 is not None \
            and trace_sha256 != model.source_sha256:
        raise ReplayError("trace was produced against a different model "
                          f"(trace {trace_sha256[:12]}, model {model.source_sha256[:12]})")
    state = initial_state(model)
    for k, step in enumerate(trace):
        event = step.event if isinstance(step, TraceStep) else step
        try:
            state = apply_event(model, state, event)
        except EventNotEnabledError:
            raise ReplayError(f"event {event.describe()} not enabled at step {k}",
                              step=k) from None
    return state


# --- JSON trace format --------------------------------------------------------

def step_to_json(step: TraceStep) -> dict:
    e = step.event
    out = {"event": e.kind.value, "node": e.node, "child": e.child,
           "state_delta": step.state_delta}
    out["outcome"] = ({"result": e.outcome[0].value, "rule": e.outcome[1]}
                      if e.outcome else None)
    return out


def step_from_json(data: dict) -> Event:
    outcome = None
    if data.get("outcome"):
        outcome = (TickResult(data["outcome"]["result"]), data["outcome"]["rule"])
    return Event(EventKind(data["event"]), data["node"], data.get("child"), outcome)


def verdict_to_json(verdict: Verdict, model: Model) -> dict:
    violating = None
    if verdict.violating_event is not None:
        violating = step_to_json(TraceStep(verdict.violating_event, {}))
    return {
        "status": verdict.status.value,
        "states_explored": verdict.states_explored,
        "transitions": verdict.transitions,
        "violated_invariant": verdict.violated_invariant,
        "detail": verdict.detail,
        "counterexample": ([step_to_json(s) for s in verdict.counterexample]
                           if verdict.counterexample is not None else None),
        "violating_event": violating,
        "stats": {
            "peak_frontier": verdict.stats.peak_frontier,
            "wall_time_s": round(verdict.stats.wall_time_s, 6),
            "depth": verdict.stats.depth,
        },
        "model_sha256": model.source_sha256,
        "warnings": list(model.warnings),
    }


def load_trace_file(path) -> tuple[list[Event], str | None]:
    """Events and model hash from a trace JSON file (verdict or simulation)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    steps = data.get("counterexample") or data.get("trace") or []
    return [step_from_json(s) for s in steps], data.get("model_sha256")
