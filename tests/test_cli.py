"""Command-line interface: exit codes and output formats."""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import LOOP_SRC, scenario_src, workload_source

import graduator
from graduator import __version__, testkit
from graduator.cli import main
from graduator.syntax import MAX_NESTING
from graduator.testkit import corpus_dir

LOOP_LINES = LOOP_SRC


def picl(tmp_path, src, name="prog.picl"):
    p = tmp_path / name
    p.write_text(src)
    return str(p)


def corpus(name):
    return str(corpus_dir() / name)


def test_check_clean_program(tmp_path, capsys):
    path = picl(tmp_path, scenario_src(ret_ann="NonNull"))
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert f"{path}: mode=gradual" in out
    assert re.search(r"0 warning\(s\), 0 check\(s\), 0 boundary check\(s\)", out)
    assert "1/1 dereference site(s) check-free (100%)" in out


def test_check_reports_a_check_site_without_failing(tmp_path, capsys):
    path = picl(tmp_path, scenario_src())  # unannotated return: optimistic deref
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "GRADUAL_CHECK" in out
    assert "0/1 dereference site(s) check-free (0%)" in out


def test_check_warning_exits_1(tmp_path, capsys):
    path = picl(tmp_path, scenario_src(ret_ann="Nullable"))
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "GRADUAL_STATIC" in out
    assert "'reversed' is Nullable, position requires NonNull" in out


def test_check_json_report(tmp_path, capsys):
    path = picl(tmp_path, scenario_src())
    assert main(["check", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == 1
    assert report["tool"] == "graduator"
    assert report["version"] == __version__
    assert report["source"] == path
    assert report["mode"] == "gradual"
    assert report["warnings"] == []
    (c,) = report["checks"]
    assert c["category"] == "GRADUAL_CHECK" and c["variable"] == "reversed"
    assert report["summary"] == {
        "static": 0,
        "check": 1,
        "boundary": 0,
        "dereference_sites": 1,
        "eliminated": 0,
        "eliminated_pct": 0,
    }


_CHECK_TEXT = """\
PATH: mode=gradual
  22:21: GRADUAL_CHECK: 'reversed' is ?, position requires NonNull (main, v12)
  0 warning(s), 1 check(s), 0 boundary check(s); 0/1 dereference site(s) check-free (0%)
"""

_CHECK_JSON = """\
{
  "schema": 1,
  "tool": "graduator",
  "version": "VERSION",
  "source": "PATH",
  "mode": "gradual",
  "warnings": [],
  "checks": [
    {
      "category": "GRADUAL_CHECK",
      "proc": "main",
      "vertex": 12,
      "line": 22,
      "col": 21,
      "variable": "reversed",
      "required": "NonNull",
      "found": "?"
    }
  ],
  "summary": {
    "static": 0,
    "check": 1,
    "boundary": 0,
    "dereference_sites": 1,
    "eliminated": 0,
    "eliminated_pct": 0
  }
}
"""


@pytest.mark.parametrize("fmt, expected", [("text", _CHECK_TEXT), ("json", _CHECK_JSON)])
def test_check_stdout_is_pinned_byte_for_byte(tmp_path, capsys, fmt, expected):
    # Key order, indentation and wording are part of the output contract.
    path = picl(tmp_path, scenario_src())
    assert main(["check", path, "--format", fmt]) == 0
    assert capsys.readouterr().out == expected.replace("PATH", path).replace("VERSION", __version__)


def test_check_static_mode_needs_full_annotations(tmp_path, capsys):
    path = picl(tmp_path, scenario_src())
    assert main(["check", path, "--mode", "static"]) == 2
    assert "static mode requires a fully annotated program" in capsys.readouterr().err
    path2 = picl(tmp_path, LOOP_LINES, name="full.picl")
    assert main(["check", path2, "--mode", "static"]) == 0


def test_check_missing_file(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.picl")]) == 2
    assert "absent.picl" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "stats"])
def test_non_utf8_input_exits_2_with_the_byte_offset(tmp_path, capsys, command):
    path = tmp_path / "bad.picl"
    path.write_bytes(b"main {\xff var x; x := null; return x; }")
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"{path}: error: not valid UTF-8 at byte offset 6"]


def test_check_parse_error_position(tmp_path, capsys):
    path = picl(tmp_path, "main {\n    x = null;\n}\n")
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert f"{path}:2:" in err and "error:" in err


def test_check_surface_error(tmp_path, capsys):
    path = picl(tmp_path, "main { var x; var x; x := null; return x; }")
    assert main(["check", path]) == 2
    assert "error:" in capsys.readouterr().err


AND_CHAIN = " && ".join(["y"] * 2000)
FIELD_CHAIN = "y" + ".f" * 2000


@pytest.mark.parametrize(
    "command, chain, code",
    [
        pytest.param("check", AND_CHAIN, 0, id="check"),
        pytest.param("run", AND_CHAIN, 0, id="run"),
        # Every read after the first is of a Nullable field, hence a warning.
        pytest.param("check", FIELD_CHAIN, 1, id="check-field"),
        pytest.param("run", FIELD_CHAIN, 0, id="run-field"),
    ],
)
def test_long_boolean_chains_need_no_deep_recursion(tmp_path, capsys, command, chain, code):
    path = picl(tmp_path, f"field f; main {{ var x; var y; y := new {{f}}; y.f := y; x := {chain}; return x; }}")
    assert main([command, path]) == code
    assert capsys.readouterr().err == ""


def nested_ifs(depth):
    """main's body and depth - 1 if-blocks inside it: depth levels of nesting."""
    inner = "x := null;"
    for _ in range(depth - 1):
        inner = f"if (x == null) {{ {inner} }} else {{ skip; }}"
    return f"main {{ var x; x := null; {inner} return x; }}"


def nested_calls(depth):
    """main's body and depth - 1 call arguments inside it."""
    arg = "x"
    for _ in range(depth - 1):
        arg = f"q({arg})"
    return f"proc q(y) {{ return y; }} main {{ var x; x := null; x := {arg}; return x; }}"


def half_and_half(depth):
    """Blocks and call arguments counted together: about half of each."""
    blocks = depth // 2
    arg = "x"
    for _ in range(depth - blocks):
        arg = f"q({arg})"
    inner = f"x := {arg};"
    for _ in range(blocks - 1):
        inner = f"while (x != null) {{ {inner} }}"
    return f"proc q(y) {{ return y; }} main {{ var x; x := null; {inner} return x; }}"


@pytest.mark.parametrize("command", ["check", "run", "cfg", "stats", "compare"])
@pytest.mark.parametrize(
    "shape, innermost",
    [(nested_ifs, "{ x := null;"), (nested_calls, "(x)"), (half_and_half, "(x)")],
    ids=["blocks", "calls", "both"],
)
def test_nesting_past_the_limit_exits_2_at_the_opening_token(tmp_path, capsys, command, shape, innermost):
    path = picl(tmp_path, shape(MAX_NESTING))
    assert main([command, path]) == 0
    out = capsys.readouterr()
    assert "Traceback" not in out.err and "error" not in out.err

    src = shape(MAX_NESTING + 1)
    path = picl(tmp_path, src)
    assert main([command, path]) == 2
    # The first opening token past the limit opens the innermost level.
    col = src.index(innermost) + 1
    message = f"blocks and call arguments nest deeper than {MAX_NESTING} levels"
    assert capsys.readouterr().err.splitlines() == [f"{path}:1:{col}: error: {message}"]


def test_run_final(tmp_path, capsys):
    path = picl(tmp_path, LOOP_LINES)
    assert main(["run", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1  # no trace without --trace
    assert re.fullmatch(r"final: returned 1 in \d+ step\(s\)", out[0])


def test_run_trace(tmp_path, capsys):
    path = picl(tmp_path, LOOP_LINES)
    assert main(["run", path, "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"final: returned 1 in (\d+) step\(s\)", lines[-1])
    steps = int(re.search(r"in (\d+) step", lines[-1]).group(1))
    assert len(lines) == steps + 1
    assert lines[0] == "0: main/v9: main"
    assert all(re.fullmatch(r"\d+: [\w$]+/v\d+: .+", ln) for ln in lines[:-1])


def test_run_checked_error_exits_3(tmp_path, capsys):
    path = picl(tmp_path, scenario_src(null_body=True))
    assert main(["run", path]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["category"] == "GRADUAL_CHECK"
    assert payload["variable"] == "reversed"
    assert payload["required"] == "NonNull" and payload["found"] == "Null"
    assert payload["value"] == 0


def test_run_plain_gets_stuck_exits_4(tmp_path, capsys):
    path = picl(tmp_path, scenario_src(null_body=True))
    assert main(["run", path, "--mode", "plain"]) == 4
    out = capsys.readouterr().out
    assert re.search(r"stuck at v\d+ after \d+ step\(s\): null dereference: reversed is null", out)


def test_run_fuel_exits_5(tmp_path, capsys):
    path = picl(tmp_path, "main { var x; x := null; while (x == null) { skip; } return x; }")
    assert main(["run", path, "--max-steps", "40"]) == 5
    assert "fuel exhausted after 40 step(s)" in capsys.readouterr().out


def test_run_fuel_from_environment(tmp_path, capsys, monkeypatch):
    path = picl(tmp_path, LOOP_LINES)
    monkeypatch.setenv("GRADUATOR_MAX_STEPS", "3")
    assert main(["run", path]) == 5
    capsys.readouterr()
    # an explicit flag wins over the environment
    assert main(["run", path, "--max-steps", "1000"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("GRADUATOR_MAX_STEPS", "plenty")
    assert main(["run", path]) == 2
    assert "GRADUATOR_MAX_STEPS must be an integer" in capsys.readouterr().err


def test_run_rejects_negative_fuel(tmp_path, capsys, monkeypatch):
    path = picl(tmp_path, LOOP_LINES)
    assert main(["run", path, "--max-steps", "-3"]) == 2
    assert capsys.readouterr() == ("", "--max-steps must not be negative, got -3\n")
    monkeypatch.setenv("GRADUATOR_MAX_STEPS", "-1")
    assert main(["run", path]) == 2
    assert capsys.readouterr() == ("", "GRADUATOR_MAX_STEPS must not be negative, got -1\n")
    # zero fuel is a budget like any other
    assert main(["run", path, "--max-steps", "0"]) == 5
    assert capsys.readouterr().out == "fuel exhausted after 0 step(s)\n"


def test_cfg_listing(tmp_path, capsys):
    path = picl(tmp_path, LOOP_LINES)
    assert main(["cfg", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13  # bar 3, foo 6, main 4 (the literal argument gets a temp)
    assert lines[0].startswith("v0: bar: proc bar@NonNull(y@Nullable)")
    assert all(re.fullmatch(r"v\d+: [\w$]+: .+?(  -> v\d+(, v\d+)*)?", ln) for ln in lines)
    assert any("-> v5, v6" in ln or "-> v6, v5" in ln for ln in lines)  # the branch fan-out


def test_cfg_dot(tmp_path, capsys):
    path = picl(tmp_path, LOOP_LINES)
    assert main(["cfg", path, "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph picl {") and out.rstrip().endswith("}")


def test_stats_table(capsys):
    files = [corpus("new_heavy.picl"), corpus("unannotated_calls.picl")]
    assert main(["stats", *files, "--ignore-annotations"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["program", "derefs", "checks", "eliminated", "pct"]
    rows = {ln.split()[0]: ln.split()[1:] for ln in lines[1:]}
    assert rows[files[0]] == ["4", "0", "4", "100%"]
    assert rows[files[1]] == ["2", "2", "0", "0%"]
    assert rows["TOTAL"] == ["6", "2", "4", "67%"]


def test_stats_without_erasure_uses_the_annotations(capsys):
    assert main(["stats", corpus("unannotated_calls.picl")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2  # no TOTAL row for a single file


def test_compare_policies(capsys):
    assert main(["compare", corpus("unannotated_calls.picl")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["policy", "warnings", "checks"]
    table = {ln.split()[0]: tuple(map(int, ln.split()[1:])) for ln in lines[1:]}
    assert table["gradual"] == (0, 2)
    assert table["nonnull-default"] == (1, 0)
    assert table["nullable-default"] == (2, 0)


@pytest.fixture
def caller_thresholds():
    """Distinctive collector thresholds for the test's calls; the suite's own come back after."""
    saved = gc.get_threshold()
    gc.set_threshold(701, 11, 12)
    yield (701, 11, 12)
    gc.set_threshold(*saved)


def test_selftest(capsys, monkeypatch, caller_thresholds):
    # The front-end fuzz oracle calls main hundreds of times; it runs at the
    # caller's thresholds, and each nested call sets and restores its own.
    seen = []
    oracle = testkit.oracle_frontend_fuzz

    def fuzz(seed):
        seen.append(gc.get_threshold())
        return oracle(seed=seed)

    monkeypatch.setattr(testkit, "oracle_frontend_fuzz", fuzz)
    assert main(["selftest", "--trials", "300", "--programs", "6", "--seed", "0"]) == 0
    assert seen == [caller_thresholds] and gc.get_threshold() == caller_thresholds
    out = capsys.readouterr().out
    for name in ("lattice", "local-soundness", "propositions", "frontend-fuzz"):
        assert re.search(rf"PASS  {name}  \(\d+ checks\)", out)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"graduator {__version__}"


def test_in_process_calls_leak_no_state_between_them(capsys):
    # Tests, selftest and the benchmark call main many times in one process: a
    # flag given to one call must not reach the next, and each call prints
    # what a fresh process does.
    path = corpus("maybe_head.picl")
    calls = [
        ["run", path, "--trace"],
        ["run", path],
        ["check", path, "--mode", "static", "--format", "json"],
        ["check", path],
    ]
    outputs = []
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        outputs.append((code, captured.out, captured.err))
    traced, plain = outputs[0][1].splitlines(), outputs[1][1].splitlines()
    assert len(plain) == 1 and plain[0].startswith("final: ") and len(traced) > 1 and traced[-1] == plain[0]
    assert json.loads(outputs[2][1])["mode"] == "static"
    assert outputs[3][1].startswith(f"{path}: mode=gradual\n")
    src = str(Path(graduator.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for argv, output in zip(calls, outputs):
        fresh = subprocess.run([sys.executable, "-B", "-m", "graduator.cli", *argv], capture_output=True, text=True, env=env)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == output, argv


@pytest.mark.parametrize(
    "command", [["check"], ["check", "--format", "json"], ["run"], ["run", "--mode", "plain"]]
)
def test_a_call_leaves_no_garbage_that_grows_with_the_program(tmp_path, capsys, command):
    # What one call leaves only for the cyclic collector (argparse's parser
    # tree, json's encoder closures) must not hold any part of the program.
    def garbage(scale):
        argv = [command[0], picl(tmp_path, workload_source("chain", scale), f"chain{scale}.picl"), *command[1:]]
        main(argv)
        gc.collect()
        gc.disable()
        try:
            main(argv)
            return gc.collect()
        finally:
            gc.enable()
            capsys.readouterr()

    assert garbage(4) == garbage(1)


def test_main_restores_the_callers_collector_thresholds(tmp_path, capsys, caller_thresholds):
    clean = picl(tmp_path, scenario_src(ret_ann="NonNull"), "clean.picl")
    warns = picl(tmp_path, scenario_src(ret_ann="Nullable"), "warns.picl")
    fails = picl(tmp_path, scenario_src(null_body=True), "fails.picl")
    loops = picl(tmp_path, "main { var x; x := null; while (x == null) { skip; } return x; }", "loops.picl")
    calls = [
        (["check", clean], 0),
        (["check", warns], 1),
        (["check", str(tmp_path / "missing.picl")], 2),
        (["run", fails], 3),
        (["run", fails, "--mode", "plain"], 4),
        (["run", loops, "--max-steps", "40"], 5),
    ]
    for argv, code in calls:
        assert main(argv) == code, argv
        assert gc.get_threshold() == caller_thresholds, argv
    for argv in (["--version"], ["check", clean, "--no-such-flag"]):
        with pytest.raises(SystemExit):
            main(argv)
        assert gc.get_threshold() == caller_thresholds, argv
    capsys.readouterr()


@pytest.mark.parametrize("scale", [1, 4])
@pytest.mark.parametrize("command", [["check", "--mode", "static", "--format", "json"], ["run", "--mode", "plain"]])
def test_a_command_starts_no_collector_pass(tmp_path, capsys, command, scale):
    # What a command builds holds no cycles (the garbage test above), so a
    # pass over it would free nothing, and main defers every pass until the
    # command returns.
    argv = [command[0], picl(tmp_path, workload_source("chain", scale)), *command[1:]]
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        assert main(argv) == 0
    finally:
        gc.callbacks.remove(count)
    capsys.readouterr()
    assert passes == []
