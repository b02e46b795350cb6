"""Self time and call counts of btv's public functions, measured from outside.

`install` rebinds every public function of btv.frontend, btv.checker and
btv.semantics, plus the core/envmodel functions the per-layer metrics name,
to a timing wrapper in every btv module namespace that holds it, so calls
made through `from .x import f` bindings are counted too. Nothing inside
btv changes.

Each thread keeps its own span stack, because explore's thread pool runs
enabled_events/apply_event on worker threads. A span's self time is the
CPU time of its thread (`time.thread_time`) during the span, minus that of
its traced children on the same thread. A pool thread waiting for the
interpreter lock is asleep, so that wait is not counted, and one layer's
speed does not change another layer's figure.

explore's children run on other threads, so its self time is wall clock
instead: its duration minus the union, across all threads, of the spans
directly under it. A shared counter of open child spans accumulates the
time during which at least one is open.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from collections import defaultdict
from time import perf_counter, thread_time

EXPLORE = "checker.explore"

# Functions outside the three wrapped namespaces that a per-layer metric names.
_EXTRA = {
    ("btv.core", "validate_tree"): "core.validate_tree",
    ("btv.envmodel", "check_outcome_exhaustiveness"): "envmodel.exhaustiveness",
    ("btv.envmodel", "check_invariants"): "envmodel.check_invariants",
    ("btv.envmodel", "apply_effects"): "envmodel.apply_effects",
}


class Tracer:
    def __init__(self):
        self.active = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[tuple[dict, dict]] = []
        self._explore_thread: int | None = None
        self._explore_frame: list | None = None
        self._open_children = 0
        self._busy_since = 0.0
        self._busy_s = 0.0
        self.explore_self_s = 0.0

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], defaultdict(float), defaultdict(int))
            self._local.state = state
            with self._lock:
                self._per_thread.append(state[1:])
        return state

    def _child_opened(self, now: float) -> None:
        with self._lock:
            if self._open_children == 0:
                self._busy_since = now
            self._open_children += 1

    def _child_closed(self, now: float) -> None:
        with self._lock:
            self._open_children -= 1
            if self._open_children == 0:
                self._busy_s += now - self._busy_since

    def _under_explore(self, stack) -> bool:
        """Whether a span opening now is a direct child of explore."""
        if self._explore_thread is None:
            return False
        if threading.get_ident() == self._explore_thread:
            return bool(stack) and stack[-1] is self._explore_frame
        return not stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack, self_s, calls = self._thread_state()
            frame = [0.0]  # CPU time of traced children on this thread
            is_explore = name == EXPLORE and self._explore_thread is None
            if is_explore:
                self._explore_thread = threading.get_ident()
                self._explore_frame = frame
                self._busy_s = 0.0
            start = perf_counter()
            cpu_start = thread_time()
            child_of_explore = self._under_explore(stack)
            if child_of_explore:
                self._child_opened(start)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = thread_time() - cpu_start
                end = perf_counter()
                stack.pop()
                if child_of_explore:
                    self._child_closed(end)
                if stack:
                    stack[-1][0] += cpu
                self_s[name] += cpu - frame[0]
                calls[name] += 1
                if is_explore:
                    self.explore_self_s += end - start - self._busy_s
                    self._explore_thread = self._explore_frame = None
        return traced

    def totals(self) -> tuple[dict, dict]:
        """Self seconds and call counts per function, summed over threads."""
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        with self._lock:
            for t_self, t_calls in self._per_thread:
                for k, v in t_self.items():
                    self_s[k] += v
                for k, v in t_calls.items():
                    calls[k] += v
        self_s[EXPLORE] = self.explore_self_s
        return dict(self_s), dict(calls)


def install(tracer: Tracer) -> None:
    """Rebind the traced btv functions in every loaded btv module."""
    targets = {}
    for short in ("frontend", "checker", "semantics"):
        module = sys.modules[f"btv.{short}"]
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                    and not attr.startswith("_"):
                targets[id(obj)] = (obj, f"{short}.{attr}")
    for (module_name, attr), label in _EXTRA.items():
        obj = getattr(sys.modules[module_name], attr)
        targets[id(obj)] = (obj, label)
    wrapped = {key: (fn, tracer.wrap(label, fn)) for key, (fn, label) in targets.items()}
    for module_name, module in list(sys.modules.items()):
        if module_name != "btv" and not module_name.startswith("btv."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
