"""btv benchmark: `btv check` with the CLI's default options on seeded models.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's model from the seed, then runs samples one after
another for about S seconds, each in a fresh interpreter (child.py). Every
sample's verdict is checked against the workload's pinned answer and its
counterexample (or a random run, for models that hold) is replayed.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end medians over the samples. With --trace 1 untraced and traced
samples alternate, and the metrics are the per-layer medians of the traced
samples plus the tracing overhead (traced minus untraced wall_s).
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

SAMPLE_TIMEOUT_S = 150
# The first round warms the file cache and writes btv's bytecode; it is
# checked by the gate but left out of the metrics.
WARMUP_ROUNDS = 1
MIN_SAMPLES = 2

# `btv check` exit code per verdict status, as the CLI documents it.
EXIT_CODES = {"HOLDS": 0, "VIOLATED": 1}

# Per-layer metrics: metric name -> traced function, reported as its self
# seconds and, under `<function>.calls`, its call count.
LAYER_TIMES = {
    "frontend.parse_s": "frontend.parse",
    "frontend.elaborate_self_s": "frontend.elaborate",
    "core.validate_tree_s": "core.validate_tree",
    "envmodel.exhaustiveness_s": "envmodel.exhaustiveness",
    "envmodel.check_invariants_s": "envmodel.check_invariants",
    "envmodel.apply_effects_s": "envmodel.apply_effects",
    "semantics.enabled_events_s": "semantics.enabled_events",
    "semantics.apply_event_s": "semantics.apply_event",
    "checker.explore_self_s": "checker.explore",
    "checker.replay_s": "checker.replay",
    "checker.verdict_to_json_s": "checker.verdict_to_json",
}


class SampleError(Exception):
    pass


def run_sample(model: Path, seed: int, expected: gen.Expected, trace: bool) -> dict:
    """Run child.py once; return its record plus the verdict counts."""
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT / "src"), str(model),
           "--seed", str(seed)] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise SampleError(f"sample timed out after {err.timeout} s") from None
    if proc.returncode != 0:
        raise SampleError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    verdict_text, _, record_line = proc.stdout.rstrip("\n").rpartition("\n")
    try:
        record = json.loads(record_line)
        verdict = json.loads(verdict_text)
        cex = verdict["counterexample"]
        got = gen.Expected(verdict["status"], verdict["states_explored"],
                           verdict["transitions"], None if cex is None else len(cex))
    except (ValueError, KeyError, TypeError) as err:
        raise SampleError(f"unreadable sample output: {err!r}") from None
    if got != expected:
        raise SampleError(f"verdict {got} differs from expected {expected}")
    if record["exit_code"] != EXIT_CODES[expected.status]:
        raise SampleError(f"exit code {record['exit_code']} for status {got.status}")
    if not record["replay_ok"]:
        raise SampleError("replay rejected the trace or ended in the wrong state")
    record.update(states=got.states, transitions=got.transitions,
                  peak_frontier=verdict["stats"]["peak_frontier"],
                  depth=verdict["stats"]["depth"])
    return record


def end_to_end(samples: list[dict]) -> dict:
    def med(f):
        return statistics.median(f(s) for s in samples)
    return {
        "wall_s": (med(lambda s: s["wall_s"]), "s"),
        "setup_s": (med(lambda s: s["setup_s"]), "s"),
        "states_per_s": (med(lambda s: s["states"] / s["explore_s"]), "1/s"),
        "peak_rss_mb": (med(lambda s: s["peak_rss_mb"]), "MiB"),
        "bytes_per_state": (med(lambda s: (s["peak_rss_mb"] - s["rss_base_mb"])
                                * 2**20 / s["states"]), "B"),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    def med(f):
        return statistics.median(f(s) for s in traced)
    out = {}
    for metric, fn in LAYER_TIMES.items():
        out[metric] = (med(lambda s: s["self_s"].get(fn, 0.0)), "s")
        out[f"{fn}.calls"] = (statistics.median_low(s["calls"].get(fn, 0) for s in traced),
                              "count")
    s = traced[0]  # the counts below are exact and the same in every sample
    out["semantics.events_per_state"] = (s["transitions"] / s["states"], "ratio")
    out["checker.dedup_hit_ratio"] = (
        (s["transitions"] - (s["states"] - 1)) / s["transitions"], "ratio")
    out["checker.peak_frontier"] = (s["peak_frontier"], "count")
    out["checker.depth"] = (s["depth"], "count")
    out["trace.overhead_s"] = (
        med(lambda s: s["wall_s"]) - statistics.median(u["wall_s"] for u in untraced), "s")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=gen.SIZES, default="full")
    args = ap.parse_args()
    # SystemExit unwinds through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "btv" / "__init__.py").is_file():
        print(f"error: no btv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    inst = gen.generate(args.workload, args.seed, args.size)
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    model = work / f"{args.workload}-{args.size}-{args.seed}.bt"
    model.write_text(inst.source, encoding="utf-8")

    # One round is one sample, or an untraced and a traced sample. Rounds
    # run back to back; another starts while one as long as the last still
    # fits in the time left. Warm-up rounds count towards that time.
    kinds = (False, True) if args.trace else (False,)
    results: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    start = perf_counter()
    while True:
        round_start = perf_counter()
        warmup = attempted // len(kinds) < WARMUP_ROUNDS
        for trace in kinds:
            attempted += 1
            try:
                sample = run_sample(model, args.seed, inst.expected, trace)
            except SampleError as err:
                failed += 1
                print(f"sample {attempted} failed: {err}", file=sys.stderr)
                continue
            if not warmup:
                results[trace].append(sample)
            print(f"sample {attempted}{' (traced)' if trace else ''}"
                  f"{' (warm-up)' if warmup else ''}: "
                  f"wall_s {sample['wall_s']:.4f}", file=sys.stderr)
        now = perf_counter()
        rounds = attempted // len(kinds) - WARMUP_ROUNDS
        if failed or (rounds >= MIN_SAMPLES
                      and now - start + (now - round_start) > args.seconds):
            break

    if args.trace:
        ok = results[True] and results[False]
        metrics = per_layer(results[True], results[False]) if ok else {}
    else:
        metrics = end_to_end(results[False]) if results[False] else {}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
