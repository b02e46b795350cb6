"""One benchmark sample in a fresh interpreter: `btv check MODEL --output json`.

Usage: python3 child.py SRC_DIR MODEL --seed N [--trace]

Runs the CLI itself, `btv.cli.main(["check", MODEL, "--output", "json"])`,
with its default options, and times it whole. `load_model` and `explore`
are timed by rebinding them in `btv.cli` to thin timing wrappers. Then the
verdict is checked with btv.replay: a counterexample must replay and end
in a state that breaks the reported invariant; for a model that holds, a
seeded random run of one tick cycle must replay and end in a state where
every invariant holds.

Standard output is the CLI's JSON verdict followed by one line of JSON with
this sample's measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import random
import resource
import sys
from time import perf_counter


def _rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed(times: dict, results: dict, name: str, fn):
    """`fn`, storing its duration in `times[name]` and its result in `results[name]`."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        results[name] = fn(*args, **kwargs)
        times[name] = perf_counter() - start
        return results[name]
    return wrapper


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("src")
    ap.add_argument("model")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import btv
    from btv import checker, cli, envmodel, semantics
    if not btv.__file__.startswith(args.src):
        raise SystemExit(f"btv imported from {btv.__file__}, not from {args.src}")

    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    times: dict[str, float] = {}
    results: dict = {}
    cli.load_model = _timed(times, results, "load_model", cli.load_model)
    cli.explore = _timed(times, results, "explore", cli.explore)

    out = io.StringIO()
    rss_base = _rss_mb()
    start = perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", args.model, "--output", "json"])
    wall_s = perf_counter() - start
    rss_peak = _rss_mb()
    sys.stdout.write(out.getvalue())
    sys.stdout.flush()

    if tracer:
        tracer.active = False
    payload = json.loads(out.getvalue())
    model = results["load_model"]
    if payload["counterexample"] is not None:
        events = [checker.step_from_json(s) for s in payload["counterexample"]]
        if tracer:
            tracer.active = True
        end = checker.replay(model, events, trace_sha256=payload["model_sha256"])
        replay_ok = payload["violated_invariant"] in envmodel.check_invariants(
            model.env, end.env)
    else:
        policy = semantics.random_policy(random.Random(args.seed))
        walk_end, _, events = semantics.tick_cycle(model, semantics.initial_state(model), policy)
        if tracer:
            tracer.active = True
        end = checker.replay(model, events, trace_sha256=payload["model_sha256"])
        replay_ok = end == walk_end and not envmodel.check_invariants(model.env, end.env)

    record = {
        "setup_s": times["load_model"],
        "explore_s": times["explore"],
        "wall_s": wall_s,
        "rss_base_mb": rss_base,
        "peak_rss_mb": rss_peak,
        "exit_code": code,
        "replay_ok": replay_ok,
    }
    if tracer:
        record["self_s"], record["calls"] = tracer.totals()
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
