"""Command-line entry point: validate, check, and simulate model files.

Exit codes: 0 ok/holds, 1 violated/deadlock/domain-violation/failed
validation, 2 usage/parse/I-O error, 3 bound exceeded, 4 internal error,
130 interrupted (Ctrl-C; `check` still prints the partial verdict).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import random
import sys
import traceback

from .checker import (
    INTERRUPTED,
    ExploreOptions,
    Status,
    TraceStep,
    Verdict,
    explore,
    step_to_json,
    verdict_to_json,
)
from .core import ModelError, validate_tree
from .frontend import _elaborate_tree, build_tree, load_model, parse, read_source
from .semantics import (
    CycleError,
    Model,
    deterministic_policy,
    initial_state,
    random_policy,
    tick_cycle,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_BOUND = 3
EXIT_INTERNAL = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as shells report it

_STATUS_EXIT = {
    Status.HOLDS: EXIT_OK,
    Status.VIOLATED: EXIT_VIOLATED,
    Status.DEADLOCK: EXIT_VIOLATED,
    Status.DOMAIN_VIOLATION: EXIT_VIOLATED,
    Status.BOUND_EXCEEDED: EXIT_BOUND,
}


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btv", description="Behavior tree verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("model", help="path to a .bt model file")
        p.add_argument("--output", choices=("text", "json"), default="text")

    p_validate = sub.add_parser("validate", help="check tree well-formedness")
    common(p_validate)

    p_check = sub.add_parser("check", help="exhaustively verify invariants")
    common(p_check)
    p_check.add_argument("--max-states", type=positive_int,
                         default=ExploreOptions.max_states)
    p_check.add_argument("--max-depth", type=nonnegative_int, default=None)
    p_check.add_argument("--trace-out", default=None,
                         help="write the verdict (with any counterexample) as JSON")

    p_sim = sub.add_parser("simulate", help="run tick cycles and print results")
    common(p_sim)
    p_sim.add_argument("--ticks", type=positive_int, default=10)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--policy", choices=("deterministic", "random"),
                       default="deterministic")
    p_sim.add_argument("--trace-out", default=None,
                       help="write the fired events as a JSON trace")
    return parser


def _print_warnings(warnings: tuple[str, ...]) -> None:
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)


def cmd_validate(args) -> int:
    text, _ = read_source(args.model)
    doc = parse(text)
    tree = build_tree(doc)
    report = validate_tree(tree)
    error = None
    warnings: tuple[str, ...] = ()
    if report.ok:
        # The remaining load-time checks: types, behaviors, exhaustiveness.
        try:
            warnings = _elaborate_tree(doc, tree).warnings
        except ModelError as err:
            error = str(err)
    _print_warnings(warnings)
    if args.output == "json":
        payload = {
            "ok": report.ok and error is None,
            "nodes": len(tree.nodes),
            "violations": [{"tag": tag, "detail": detail}
                           for tag, detail in report.violations],
            "error": error,
            "warnings": list(warnings),
        }
        _write_json(payload, args.output, None)
    elif error is not None:
        print(f"error: {error}", file=sys.stderr)
    else:
        if report.ok:
            print(f"OK: {len(tree.nodes)} nodes, ids BFS-consistent")
        else:
            print(f"INVALID: {len(tree.nodes)} nodes")
        for tag, detail in report.violations:
            print(f"  {tag}: {detail}")
    if error is not None:
        return EXIT_USAGE
    return EXIT_OK if report.ok else EXIT_VIOLATED


def _print_verdict_text(verdict: Verdict, model: Model) -> None:
    names = ", ".join(name for name, _ in model.env.invariants) or "none declared"
    if verdict.status is Status.HOLDS:
        print(f"HOLDS: invariants [{names}] hold in all {verdict.states_explored} "
              f"reachable states ({verdict.transitions} transitions)")
        return
    print(f"{verdict.status.value}: {verdict.detail or verdict.violated_invariant or ''}"
          .rstrip(": "))
    if verdict.status is Status.VIOLATED:
        print(f"  invariant {verdict.violated_invariant!r} is false after "
              f"{len(verdict.counterexample)} transitions")
    print(f"  states explored: {verdict.states_explored}, "
          f"transitions: {verdict.transitions}")
    if verdict.counterexample:
        print("  counterexample:")
        for i, step in enumerate(verdict.counterexample, 1):
            env_delta = step.state_delta.get("env", {})
            env_text = ""
            if env_delta:
                env_text = "  " + " ".join(f"{k}={v}" for k, v in sorted(env_delta.items()))
            print(f"    {i:3d}. {step.event.describe()}{env_text}")
    if verdict.violating_event is not None:
        print(f"  violating event: {verdict.violating_event.describe()}")


def _open_trace_out(path: str | None):
    """The --trace-out file, opened before any work so that an unwritable
    path is reported at once, not after the search."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext()


# json.dumps(indent=2) itself runs CPython's pure-Python encoder, one
# generator per container, because the C encoder only runs without
# indentation. _render writes the same text with a plain recursive call per
# container, about three times faster on a long counterexample.
_string = json.encoder.encode_basestring_ascii


def _render(value, newline: str) -> str:
    """json.dumps(value, indent=2) with `newline` ("\n" and the enclosing
    indentation) starting each line after the first. Only the values btv
    writes are rendered: a dict with str keys, a list, str, int, bool, None
    and a finite float. Any other type raises TypeError, and NaN or an
    infinity raises ValueError."""
    kind = type(value)
    if kind is str:
        return _string(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = [f"{_string(k)}: {_render(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is int:
        return int.__repr__(value)
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        return f"[{inner}{(',' + inner).join([_render(v, inner) for v in value])}{newline}]"
    if kind is float:
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError(f"btv writes no float {value!r}: it is not valid JSON")
    raise TypeError(f"btv writes no value of type {kind.__name__}")


def _json_chunks(payload: dict):
    """json.dumps(payload, indent=2), byte for byte, in pieces: one
    top-level value, or one item of a top-level list, at a time, so that
    the whole document, or a whole counterexample, is never held as one
    string. The values allowed are those of _render."""
    if not payload:
        yield "{}"
        return
    opening = "{\n  "
    for key, value in payload.items():
        yield f"{opening}{_string(key)}: "
        opening = ",\n  "
        if type(value) is list and value:
            item_opening = "[\n    "
            for item in value:
                yield item_opening + _render(item, "\n    ")
                item_opening = ",\n    "
            yield "\n  ]"
        else:
            yield _render(value, "\n  ")
    yield "\n}"


def _write_json(payload: dict, output: str, trace_out) -> None:
    """Render `payload` once with _json_chunks, byte-identical to
    json.dumps(payload, indent=2); write each piece to the --trace-out file
    if one is open, and to stdout for --output json, where a newline ends
    it. Every JSON document btv prints or writes goes through here."""
    files = [f for f in (trace_out, sys.stdout if output == "json" else None) if f]
    if files:
        for chunk in _json_chunks(payload):
            for f in files:
                f.write(chunk)
    if output == "json":
        sys.stdout.write("\n")


def cmd_check(args) -> int:
    with _open_trace_out(args.trace_out) as trace_out:
        model = load_model(args.model)
        _print_warnings(model.warnings)
        options = ExploreOptions(max_states=args.max_states, max_depth=args.max_depth)
        verdict = explore(model, options)
        _write_json(verdict_to_json(verdict, model), args.output, trace_out)
    if args.output == "text":
        _print_verdict_text(verdict, model)
    if verdict.status is Status.BOUND_EXCEEDED and verdict.detail == INTERRUPTED:
        return EXIT_INTERRUPTED
    return _STATUS_EXIT[verdict.status]


def cmd_simulate(args) -> int:
    with _open_trace_out(args.trace_out) as trace_out:
        return _simulate(args, trace_out)


def _simulate(args, trace_out) -> int:
    model = load_model(args.model)
    if args.policy == "random":
        policy = random_policy(random.Random(args.seed))
    else:
        policy = deterministic_policy
    state = initial_state(model)
    all_steps: list[TraceStep] = []
    results = []
    snapshots = []
    failed = False
    error_text = None
    for cycle in range(1, args.ticks + 1):
        try:
            state, result, events = tick_cycle(model, state, policy)
        except CycleError as err:
            all_steps.extend(TraceStep(e, {}) for e in err.trace)
            error_text = str(err)
            if args.output == "text":
                print(f"cycle {cycle}: ERROR {err}")
            failed = True
            break
        all_steps.extend(TraceStep(e, {}) for e in events)
        results.append(result)
        env = dict(zip(model.env.slots, state.env))
        snapshots.append(env)
        if args.output == "text":
            env_text = " ".join(f"{k}={v}" for k, v in env.items())
            print(f"cycle {cycle}: {result.value}  {env_text}")
    payload = {
        "status": "SIMULATED" if not failed else "ABORTED",
        "cycles": len(results),
        "results": [r.value for r in results],
        "env_per_cycle": snapshots,
        "error": error_text,
        "trace": [step_to_json(s) for s in all_steps],
        "model_sha256": model.source_sha256,
    }
    _write_json(payload, args.output, trace_out)
    return EXIT_VIOLATED if failed else EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args)
        if args.command == "check":
            return cmd_check(args)
        return cmd_simulate(args)
    except (ModelError, OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Exception:  # a bug in btv, not in the model: never read as a verdict
        traceback.print_exc()
        print("error: internal error (see traceback above)", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
