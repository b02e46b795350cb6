"""btv: behavior tree verifier.

Validates tree well-formedness, executes guarded-event tick semantics over
user-modeled environments, and exhaustively explores the reachable state
space to prove or refute safety invariants with counterexample traces.
"""

from .checker import ExploreOptions, Status, Verdict, explore, replay
from .core import (
    NodeType,
    TickResult,
    TreeSpec,
    ValidationReport,
    validate_tree,
)
from .envmodel import EnvSpec, check_invariants
from .frontend import bundled_model_path, elaborate, load_model, parse
from .semantics import (
    Event,
    EventKind,
    MachineState,
    Model,
    apply_event,
    enabled_events,
    initial_state,
    tick_cycle,
)

__version__ = "0.1.0"

__all__ = [
    "EnvSpec", "Event", "EventKind", "ExploreOptions", "MachineState",
    "Model", "NodeType", "Status", "TickResult", "TreeSpec",
    "ValidationReport", "Verdict", "apply_event", "bundled_model_path",
    "check_invariants", "elaborate", "enabled_events", "explore",
    "initial_state", "load_model", "parse", "replay", "tick_cycle",
    "validate_tree",
]
