import enum
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import btv
import btv.cli
from btv import bundled_model_path, load_model
from btv.checker import explore, replay, load_trace_file
from btv.cli import main
from btv.core import validate_tree
from btv.frontend import MAX_TREE_DEPTH

from conftest import named

ROBOT_WALL = str(bundled_model_path("robot_wall.bt"))
BUGGY = str(bundled_model_path("robot_wall_buggy.bt"))
# `btv check robot_wall_buggy.bt --output json` without stats.wall_time_s.
# CI diffs the installed entry point's output against the same file.
GOLDEN_BUGGY_VERDICT = Path(__file__).parent / "golden" / "robot_wall_buggy.check.json"
# The same for the HOLDS verdict of `btv check robot_wall.bt --output json`.
GOLDEN_HOLDS_VERDICT = Path(__file__).parent / "golden" / "robot_wall.check.json"
# The same for `btv check tests/golden/nested_hook.bt --output json`: a
# 188-step counterexample over four tick cycles, whose RESULT_ARRIVED steps
# run the root-result hook.
NESTED_HOOK = Path(__file__).parent / "golden" / "nested_hook.bt"
GOLDEN_NESTED_VERDICT = Path(__file__).parent / "golden" / "nested_hook.check.json"
# `btv simulate robot_wall.bt --output json`, byte for byte; CI diffs the
# installed entry point's output against it too.
GOLDEN_SIMULATION = Path(__file__).parent / "golden" / "robot_wall.simulate.json"
# `btv validate robot_wall.bt --output json`, byte for byte; CI diffs the
# installed entry point's output against it too.
GOLDEN_VALIDATION = Path(__file__).parent / "golden" / "robot_wall.validate.json"
# `btv simulate robot_wall.bt`, byte for byte: one line per cycle, naming
# three variables in declaration order; CI diffs against it too.
GOLDEN_SIMULATION_TEXT = Path(__file__).parent / "golden" / "robot_wall.simulate.txt"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", ROBOT_WALL)
    assert code == 0
    assert out.startswith("OK: 4 nodes")
    assert "BFS-consistent" in out


def test_validate_two_roots(capsys, tmp_path):
    path = tmp_path / "tworoots.bt"
    path.write_text("""
    tree { root { root inner { condition c; } } }
    env { var x: int in 0..1 = 0; }
    condition c { success_when: x == 0; }
    """)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "REQ1" in out


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.bt")
    assert code == 2
    assert "error:" in err


def test_validate_parse_error(capsys, tmp_path):
    path = tmp_path / "broken.bt"
    path.write_text("tree { root {")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "expected" in err


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate", ROBOT_WALL, "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["nodes"] == 4


def test_check_holds(capsys):
    code, out, _ = run(capsys, "check", ROBOT_WALL)
    assert code == 0
    assert out.startswith("HOLDS")
    assert "761" in out


def test_check_violated_text_lists_steps(capsys):
    code, out, _ = run(capsys, "check", BUGGY)
    assert code == 1
    assert "VIOLATED" in out
    assert "counterexample:" in out
    assert "ACT_OUTCOME action_1" in out
    assert "distance_to_object=2" in out


def test_check_json_verdict(capsys):
    code, out, _ = run(capsys, "check", BUGGY, "--output", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "VIOLATED"
    assert payload["violated_invariant"] == "safe"
    assert payload["counterexample"][-1]["event"] == "ACT_OUTCOME"
    assert payload["model_sha256"]
    assert payload["warnings"] == []


def test_check_bound_exceeded(capsys):
    code, out, _ = run(capsys, "check", ROBOT_WALL, "--max-states", "10")
    assert code == 3
    assert "BOUND_EXCEEDED" in out


def test_check_trace_out_replays(capsys, tmp_path):
    trace_path = tmp_path / "cx.json"
    model = load_model(BUGGY)
    for output in ("text", "json"):
        code, out, _ = run(capsys, "check", BUGGY, "--output", output,
                           "--trace-out", str(trace_path))
        assert code == 1
        if output == "json":
            # The verdict is rendered once, for the file and for stdout.
            assert out == trace_path.read_text(encoding="utf-8") + "\n"
        events, sha = load_trace_file(trace_path)
        final = replay(model, events, trace_sha256=sha)
        assert named(model.env, final.env)["distance_to_object"] == 2


def test_check_json_matches_the_golden_verdict(capsys):
    code, out, _ = run(capsys, "check", BUGGY, "--output", "json")
    assert code == 1
    payload = json.loads(out)
    del payload["stats"]["wall_time_s"]
    assert json.dumps(payload, indent=2) + "\n" == \
        GOLDEN_BUGGY_VERDICT.read_text(encoding="utf-8")


def test_check_json_matches_the_golden_holds_verdict(capsys):
    code, out, _ = run(capsys, "check", ROBOT_WALL, "--output", "json")
    assert code == 0
    payload = json.loads(out)
    del payload["stats"]["wall_time_s"]
    assert json.dumps(payload, indent=2) + "\n" == \
        GOLDEN_HOLDS_VERDICT.read_text(encoding="utf-8")


def test_check_json_matches_the_golden_long_counterexample(capsys):
    code, out, err = run(capsys, "check", str(NESTED_HOOK), "--output", "json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    del payload["stats"]["wall_time_s"]
    assert json.dumps(payload, indent=2) + "\n" == \
        GOLDEN_NESTED_VERDICT.read_text(encoding="utf-8")
    steps = payload["counterexample"]
    assert sum(s["event"] == "ROOT_REINITIALIZE" for s in steps) >= 3
    assert all("env" in s["state_delta"] for s in steps if s["event"] == "RESULT_ARRIVED")


def test_validate_json_matches_the_golden_file(capsys):
    code, out, _ = run(capsys, "validate", ROBOT_WALL, "--output", "json")
    assert code == 0
    assert out == GOLDEN_VALIDATION.read_text(encoding="utf-8")


def test_simulate_json_matches_the_golden_simulation(capsys):
    code, out, _ = run(capsys, "simulate", ROBOT_WALL, "--output", "json")
    assert code == 0
    assert out == GOLDEN_SIMULATION.read_text(encoding="utf-8")


def test_simulate_text_matches_the_golden_simulation(capsys):
    code, out, err = run(capsys, "simulate", ROBOT_WALL)
    assert (code, err) == (0, "")
    assert out == GOLDEN_SIMULATION_TEXT.read_text(encoding="utf-8")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda sub: st.lists(sub, max_size=4) | st.dictionaries(st.text(max_size=5), sub, max_size=4),
    max_leaves=20)


@given(st.dictionaries(st.text(max_size=8), json_values, max_size=6))
@example({})
@example({"counterexample": [], "warnings": []})
@example({"a": [], "b": [[]], "c": {}, "d": [{}, []]})
@example({"neg_zero": -0.0, "big": 1e16, "floats": [-0.0, 1e16, 0.1]})
@example({"flags": [True, 1, False, 0, None], "one": 1, "true": True})
@example({"é\u2028\x00\n\"\\": "ß\x1f\t\x7f😀", "keys": {"\x01é": ["\r", "\u0000"]}})
def test_rendered_json_is_json_dumps_with_indent_2(payload):
    chunks = list(btv.cli._json_chunks(payload))
    assert "".join(chunks) == json.dumps(payload, indent=2)
    # A key, then its value or each item of its list and the closing bracket.
    pieces = [len(v) + 1 if isinstance(v, list) and v else 1 for v in payload.values()]
    assert len(chunks) == (1 + sum(1 + n for n in pieces) if payload else 1)


class Level(enum.IntEnum):
    HIGH = 2


# Values that no payload btv builds holds. json.dumps writes all but the
# set (NaN and the infinities as invalid JSON); the writer refuses them all.
@pytest.mark.parametrize("payload", [
    {"pair": (1, 2)}, {"steps": [{"x": (3,)}]}, {"level": Level.HIGH}, {"levels": [Level.HIGH]},
    {"names": {"a", "b"}}, {1: "top-level key"}, {"keys": {None: "nested key"}},
    {"nan": math.nan}, {"inf": [math.inf]}, {"-inf": {"x": -math.inf}},
], ids=["tuple", "nested-tuple", "intenum", "intenum-in-list", "set", "int-key",
        "nested-none-key", "nan", "inf", "-inf"])
def test_render_refuses_values_btv_never_writes(payload):
    with pytest.raises((TypeError, ValueError)):
        "".join(btv.cli._json_chunks(payload))


@pytest.mark.parametrize("argv", [("check", BUGGY), ("simulate", ROBOT_WALL, "--ticks", "3"),
                                  ("validate", ROBOT_WALL)])
def test_json_output_is_json_dumps_with_indent_2(capsys, argv):
    _, out, _ = run(capsys, *argv, "--output", "json")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_unwritable_trace_out_fails_before_loading(capsys, monkeypatch, tmp_path, command):
    def no_load(path):
        raise AssertionError("model loaded before --trace-out was opened")

    monkeypatch.setattr(btv.cli, "load_model", no_load)
    code, out, err = run(capsys, command, BUGGY,
                         "--trace-out", str(tmp_path / "missing" / "x.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "No such file or directory" in err


def test_simulate_robot_wall(capsys):
    code, out, _ = run(capsys, "simulate", ROBOT_WALL, "--ticks", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all("SUCCESS" in line for line in lines[:6])
    assert all("FAILURE" in line for line in lines[6:])
    assert "distance_to_object=4" in lines[5]
    assert "distance_to_object=4" in lines[7]


def test_simulate_single_condition(capsys, tmp_path):
    path = tmp_path / "mini.bt"
    path.write_text("""
    tree { root { condition c; } }
    env { var x: int in 0..1 = 0; }
    condition c { success_when: x == 0; }
    """)
    code, out, _ = run(capsys, "simulate", str(path), "--ticks", "1")
    assert code == 0
    assert out.strip().splitlines() == ["cycle 1: SUCCESS  x=0"]


def test_simulate_random_policy_reproducible(capsys):
    _, out1, _ = run(capsys, "simulate", ROBOT_WALL, "--policy", "random",
                     "--seed", "42", "--ticks", "5")
    _, out2, _ = run(capsys, "simulate", ROBOT_WALL, "--policy", "random",
                     "--seed", "42", "--ticks", "5")
    assert out1 == out2


def test_simulate_trace_out_replays(capsys, tmp_path):
    trace_path = tmp_path / "sim.json"
    model = load_model(ROBOT_WALL)
    for output in ("text", "json"):
        code, out, _ = run(capsys, "simulate", ROBOT_WALL, "--ticks", "3",
                           "--output", output, "--trace-out", str(trace_path))
        assert code == 0
        if output == "json":
            assert out == trace_path.read_text(encoding="utf-8") + "\n"
        events, sha = load_trace_file(trace_path)
        final = replay(model, events, trace_sha256=sha)
        assert named(model.env, final.env)["time"] == 3


def test_simulate_json_output(capsys):
    code, out, _ = run(capsys, "simulate", ROBOT_WALL, "--ticks", "2",
                       "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"] == ["SUCCESS", "SUCCESS"]
    assert payload["env_per_cycle"][1]["distance_to_object"] == 8


# The third cycle's effect leaves x's domain, which `check` reports as a
# DOMAIN_VIOLATION.
LEAVES_DOMAIN = """
tree { root { action a; } }
env { var x: int in 0..2 = 0; }
action a { outcome SUCCESS when true { x := x + 1; } }
"""


@pytest.mark.parametrize("output", ["text", "json"])
def test_simulate_aborts_on_a_domain_violation(capsys, tmp_path, output):
    path = tmp_path / "dv.bt"
    path.write_text(LEAVES_DOMAIN)
    trace_path = tmp_path / "sim.json"
    code, out, err = run(capsys, "simulate", str(path), "--output", output,
                         "--trace-out", str(trace_path))
    assert (code, err) == (1, "")
    error = "ACT_OUTCOME a [SUCCESS]: x := 3 leaves the declared domain"
    payload = json.loads(trace_path.read_text())
    if output == "text":
        assert out.splitlines() == ["cycle 1: SUCCESS  x=1", "cycle 2: SUCCESS  x=2",
                                    f"cycle 3: ERROR {error}"]
    else:
        assert json.loads(out) == payload
    assert (payload["status"], payload["cycles"], payload["error"]) == ("ABORTED", 2, error)
    # The trace ends just before the violating event.
    events, sha = load_trace_file(trace_path)
    assert events[-1].describe() == "ROOT_TICKED root -> a"
    model = load_model(str(path))
    assert named(model.env, replay(model, events, trace_sha256=sha).env)["x"] == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x.bt"])
    assert exc.value.code == 2


def test_nonpositive_ticks_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", ROBOT_WALL, "--ticks", "0"])
    assert exc.value.code == 2


def test_nonpositive_max_states_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", ROBOT_WALL, "--max-states", "0"])
    assert exc.value.code == 2


def test_negative_max_depth_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", ROBOT_WALL, "--max-depth", "-3"])
    assert exc.value.code == 2
    # Depth 0 checks the initial state only.
    code, out, _ = run(capsys, "check", ROBOT_WALL, "--max-depth", "0")
    assert code == 3
    assert "max depth 0 reached with 1 frontier states unexplored" in out


def test_exhaustiveness_failure_stops_before_explore(capsys, tmp_path):
    path = tmp_path / "gap.bt"
    path.write_text("""
    tree { root { action a; } }
    env { var x: int in 0..5 = 0; }
    action a { outcome SUCCESS when false; }
    """)
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "no outcome guard" in err


def test_exhaustiveness_bounded_by_guard_variables(capsys, tmp_path):
    # 10^7 valuations in all, which once skipped the check and let `check`
    # report HOLDS; the guard reads only x, whose 100 values are enumerated.
    path = tmp_path / "half.bt"
    path.write_text("""
    tree { root { action a; } }
    env { var x: int in 0..99 = 0; var y: int in 0..999 = 0; var z: int in 0..99 = 0; }
    action a { outcome SUCCESS when x < 50; }
    """)
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "no outcome guard holds for {'x': 50}" in err


def test_validate_reports_load_errors(capsys, tmp_path, monkeypatch):
    path = tmp_path / "half.bt"
    path.write_text("""
    tree { root { action a; } }
    env { var x: int in 0..99 = 0; }
    action a { outcome SUCCESS when x < 50; }
    """)
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert "error: action 'a': no outcome guard holds for {'x': 50}" in err

    import btv.cli
    import btv.frontend
    calls = []

    def counted(tree):
        calls.append(tree)
        return validate_tree(tree)
    monkeypatch.setattr(btv.cli, "validate_tree", counted)
    monkeypatch.setattr(btv.frontend, "validate_tree", counted)
    code, out, _ = run(capsys, "validate", str(path), "--output", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["nodes"] == 2
    assert "no outcome guard holds for {'x': 50}" in payload["error"]
    assert len(calls) == 1


def test_skipped_exhaustiveness_is_reported(capsys, tmp_path):
    path = tmp_path / "wide.bt"
    path.write_text("""
    tree { root { action a; } }
    env { var x: int in 0..500 = 1; var y: int in 0..500 = 0; var z: int in 0..200 = 0; }
    action a { outcome SUCCESS when x + y + z >= 1; }
    """)
    for command in ("validate", "check"):
        code, _, err = run(capsys, command, str(path))
        assert code == 0
        assert err.startswith("warning: action 'a': outcome exhaustiveness not checked")
        code, out, _ = run(capsys, command, str(path), "--output", "json")
        assert code == 0
        assert json.loads(out)["warnings"] == [err.removeprefix("warning: ").rstrip("\n")]
    trace = tmp_path / "verdict.json"
    run(capsys, "check", str(path), "--trace-out", str(trace))
    assert json.loads(trace.read_text())["warnings"] == json.loads(out)["warnings"]


def test_a_domain_wider_than_sys_maxsize(capsys, tmp_path):
    """len() of such a range raises OverflowError; no command may take it."""
    path = tmp_path / "huge.bt"
    path.write_text("""
    tree { root { action a; } }
    env { var x: int in 0..99999999999999999999 = 0; }
    action a { outcome SUCCESS when x >= 0 { x := x + 1; } }
    invariant small { x < 3; }
    """)
    assert 10**20 > sys.maxsize
    warning = ("warning: action 'a': outcome exhaustiveness not checked, its guards "
               "range over 100000000000000000000 valuations of x (limit 1000000)\n")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out, err) == (0, "OK: 2 nodes, ids BFS-consistent\n", warning)
    code, out, err = run(capsys, "check", str(path))
    assert (code, err) == (1, warning)
    assert out.startswith("VIOLATED: small\n  invariant 'small' is false after 13 "
                          "transitions\n  states explored: 14, transitions: 13\n")
    code, out, err = run(capsys, "simulate", str(path))
    assert (code, err) == (0, warning)
    assert out.splitlines()[-1] == "cycle 10: SUCCESS  x=10"


def test_validate_and_check_read_a_file_alike(capsys, tmp_path):
    # CR-only line endings and a syntax error on the third line.
    path = tmp_path / "cr.bt"
    path.write_bytes(b"tree { root { condition c; } }\r"
                     b"env { var x: int in 0..1 = 0; }\r"
                     b"condition c { success_when: x == ; }\r")
    errors = set()
    for command in ("validate", "check"):
        code, _, err = run(capsys, command, str(path))
        assert code == 2
        errors.add(err)
    assert len(errors) == 1, errors


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_line_endings_are_equivalent(capsys, tmp_path, newline):
    # A `//` comment ends at any line ending, so the invariant after it is
    # read and breaks in the initial state.
    path = tmp_path / "ends.bt"
    path.write_bytes(newline.join([
        "tree { root { action a; } }",
        "env { var x: int in 0..1 = 0; }",
        "action a { outcome SUCCESS when true { x := 1; } } // safety below",
        "invariant never { x == 1; }",
        "",
    ]).encode())
    code, out, _ = run(capsys, "check", str(path), "--output", "json")
    assert (code, json.loads(out)["status"]) == (1, "VIOLATED")

    path.write_bytes(newline.join([
        "tree { root { condition c; } }",
        "env { var x: int in 0..1 = 0; }",
        "condition c { success_when: x == ; }",
        "",
    ]).encode())
    for command in ("validate", "check"):
        code, _, err = run(capsys, command, str(path))
        assert code == 2
        assert err.startswith("error: 3:34: "), err


def nested_tree(depth: int) -> str:
    opening = "".join(f"sequence s{i} {{ " for i in range(depth))
    return (f"tree {{ root {{ {opening}condition c; {'} ' * depth}}} }}\n"
            "env { var x: int in 0..1 = 0; }\n"
            "condition c { success_when: x == 0; }\n")


def test_deep_nesting_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "deep.bt"
    path.write_text(nested_tree(2000))
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "tree nested deeper than" in err

    path.write_text("tree { root { condition c; } }\n"
                    "env { var x: int in 0..1 = 0; }\n"
                    f"condition c {{ success_when: {'(' * 3000}x == 0{')' * 3000}; }}\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "expression nested deeper than" in err

    chain = " + ".join(["x"] * 2000)
    path.write_text("tree { root { condition c; } }\n"
                    "env { var x: int in 0..1 = 0; }\n"
                    f"condition c {{ success_when: {chain} == 0; }}\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "expression nested deeper than" in err


def test_tree_at_the_depth_limit_loads_and_checks(capsys, tmp_path):
    path = tmp_path / "deep.bt"
    path.write_text(nested_tree(MAX_TREE_DEPTH - 1))  # the condition is one level lower
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert out.startswith("HOLDS")


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    import btv.cli

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(btv.cli, "explore", broken)
    code, out, err = run(capsys, "check", ROBOT_WALL)
    assert code == btv.cli.EXIT_INTERNAL == 4
    assert out == ""
    assert "RuntimeError: boom" in err and "internal error" in err


def interrupting_explore(after: int):
    """checker.explore with an on_state that presses Ctrl-C at state `after`."""
    def run_explore(model, options):
        seen = 0

        def on_state(_):
            nonlocal seen
            seen += 1
            if seen == after:
                raise KeyboardInterrupt
        return explore(model, options, on_state=on_state)
    return run_explore


@pytest.mark.parametrize("output", ["text", "json"])
def test_interrupted_check_prints_the_partial_verdict(capsys, monkeypatch, output):
    import btv.cli
    monkeypatch.setattr(btv.cli, "explore", interrupting_explore(50))
    code, out, err = run(capsys, "check", ROBOT_WALL, "--output", output)
    assert code == btv.cli.EXIT_INTERRUPTED == 130
    assert "Traceback" not in err
    if output == "json":
        payload = json.loads(out)
        assert (payload["status"], payload["detail"]) == ("BOUND_EXCEEDED", "interrupted")
        assert payload["states_explored"] == 50
    else:
        assert out.startswith("BOUND_EXCEEDED: interrupted\n")
        assert "states explored: 50," in out


@pytest.mark.parametrize("command,target", [("validate", "validate_tree"),
                                            ("simulate", "tick_cycle")])
def test_interrupted_validate_and_simulate(capsys, monkeypatch, command, target):
    import btv.cli

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(btv.cli, target, interrupted)
    code, out, err = run(capsys, command, ROBOT_WALL)
    assert code == 130
    assert (out, err) == ("", "error: interrupted\n")


# Millions of states: x and y step independently. The guards range over
# 2001 * 1001 valuations, so loading prints the skipped-exhaustiveness warning
# just before the search starts.
LONG_SEARCH = """
tree { root { action step; } }
env { var x: int in 0..2000 = 0; var y: int in 0..1000 = 0; }
action step {
  outcome SUCCESS when x < 2000 { x := x + 1; }
  outcome SUCCESS when y < 1000 { y := y + 1; }
  outcome FAILURE when x >= 2000 && y >= 1000;
}
"""


def test_sigint_during_check_exits_130_with_partial_verdict(tmp_path):
    path = tmp_path / "long.bt"
    path.write_text(LONG_SEARCH)
    env = dict(os.environ, PYTHONPATH=str(Path(btv.__file__).parents[1]))
    # A suite started with SIGINT ignored (a background job of a
    # non-interactive shell) would pass that on, and Python installs its
    # KeyboardInterrupt handler only over the default disposition.
    proc = subprocess.Popen(
        [sys.executable, "-m", "btv.cli", "check", str(path), "--output", "json",
         "--max-states", "1000000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        assert proc.stderr.readline().startswith("warning: action 'step'")
        time.sleep(0.3)  # into the search loop
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130, err
    assert "Traceback" not in err
    payload = json.loads(out)
    assert (payload["status"], payload["detail"]) == ("BOUND_EXCEEDED", "interrupted")
    assert 0 < payload["states_explored"] < 1000000
