"""Command-line interface: exit codes and output formats."""

import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import LOOP_SRC, growth_per_vertex, peak_bytes, scenario_src, workload_source

import graduator
from graduator import __version__, testkit
from graduator.analysis import site_category
from graduator.analysis import analyze
from graduator.cfg import lower
from graduator.cli import _front_end, main
from graduator.lattice import GradAbst, grad_conc_contains
from graduator.runtime import run
from graduator.syntax import MAX_NESTING, parse, render_program
from graduator.testkit import GenConfig, corpus_dir, corpus_paths, gen_program

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
    # The only '?' is the return of a procedure that nobody calls: no call or
    # parameter reads it, yet static mode refuses the program.
    path3 = picl(tmp_path, "proc idle(x @NonNull) { return x; } main { var r; r := null; return r; }", name="idle.picl")
    assert main(["check", path3, "--mode", "static"]) == 2
    assert capsys.readouterr().err == f"{path3}: static mode requires a fully annotated program ('?' present)\n"


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


NOTES_SRC = """field f;
field g;
proc mk(a) {
    var b;
    b := new {f};
    return b;
}
main {
    var x;
    var y;
    x := mk(null);
    y := new {g};
    y.f := x;
    x := x.g;
    return x;
}
"""


def test_text_check_prints_allocation_notes_to_stderr_in_walk_order(tmp_path, capsys):
    path = picl(tmp_path, NOTES_SRC)
    assert main(["check", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        f"{path}:5:10: note: allocation omits field 'g', which the program dereferences elsewhere\n"
        f"{path}:12:10: note: allocation omits field 'f', which the program dereferences elsewhere\n"
    )
    assert captured.out.startswith(f"{path}: mode=gradual\n")
    assert main(["check", path, "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and json.loads(captured.out)["source"] == path


def test_a_surface_error_suppresses_the_notes(tmp_path, capsys):
    path = picl(tmp_path, NOTES_SRC.replace("var y;", "var y; var y;"))
    for argv in (["check", path], ["check", path, "--format", "json"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}:10:12: error: redeclaration of variable 'y'\n"


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


# `run --trace` output, byte for byte: one line per step taken, then the
# outcome line (or a checked stop's JSON).
TRACE_LOOP = """\
0: main/v9: main
1: main/v10: $0 := null
2: main/v11: r := foo@NonNull($0@Nullable)
3: foo/v3: proc foo@NonNull(x@Nullable)
4: foo/v4: branch(x)
5: foo/v6: else(x)
6: foo/v7: x := bar@NonNull(x@Nullable)
"""
TRACE_LOOP_END = """\
7: bar/v0: proc bar@NonNull(y@Nullable)
8: bar/v1: t := new {f}
9: bar/v2: return t@NonNull
10: foo/v4: branch(x)
11: foo/v5: if(x)
12: foo/v8: return x@NonNull
final: returned 1 in 13 step(s)
"""
TRACE_ERROR = """\
0: main/v7: main
1: main/v8: $0 := null
2: main/v9: reversed := reverse@?($0@?)
3: reverse/v0: proc reverse@?(str@?)
4: reverse/v1: branch(str)
5: reverse/v3: else(str)
6: reverse/v5: out := null
7: reverse/v6: return out@?
8: main/v10: tmp := new {chars}
9: main/v11: frown := reverse@?(tmp@?)
10: reverse/v0: proc reverse@?(str@?)
11: reverse/v1: branch(str)
12: reverse/v2: if(str)
13: reverse/v4: out := new {chars}
14: reverse/v6: return out@?
{
  "category": "GRADUAL_CHECK",
  "proc": "main",
  "vertex": 12,
  "line": 22,
  "col": 21,
  "variable": "reversed",
  "required": "NonNull",
  "found": "Null",
  "value": 0
}
"""


def test_run_trace(tmp_path, capsys):
    loop, error = picl(tmp_path, LOOP_LINES), picl(tmp_path, scenario_src(null_body=True), name="err.picl")
    for argv, code, out in [
        ([loop], 0, TRACE_LOOP + TRACE_LOOP_END),
        ([loop, "--max-steps", "7"], 5, TRACE_LOOP + "fuel exhausted after 7 step(s)\n"),
        ([error], 3, TRACE_ERROR),
    ]:
        assert main(["run", *argv, "--trace"]) == code, argv
        assert capsys.readouterr() == (out, ""), argv


def test_a_closed_stdout_exits_141_and_says_nothing(tmp_path, capsys):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    path = picl(tmp_path, LOOP_LINES)
    for argv in (["run", path, "--trace"], ["run", path], ["check", path, "--format", "json"], ["cfg", path, "--dot"]):
        with contextlib.redirect_stdout(Closed()):
            assert main(argv) == 141, argv
        assert capsys.readouterr() == ("", ""), argv


def test_a_pipe_closed_after_the_first_trace_line_ends_the_run_quietly(tmp_path):
    # The trace (about 480 KB) outgrows the pipe's buffer, so the command is
    # still writing when the reader goes; what is left in stdout's buffer must
    # not reach the pipe at interpreter shutdown either.
    path = picl(tmp_path, workload_source("alloc", 4))
    env = {**os.environ, "PYTHONPATH": str(Path(graduator.__file__).resolve().parents[1])}
    argv = [sys.executable, "-B", "-m", "graduator.cli", "run", path, "--trace"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait()
    assert first.startswith(b"0: main/")
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert (code, err) == (141, "")


def test_run_checked_error_exits_3(tmp_path, capsys):
    path = picl(tmp_path, scenario_src(null_body=True))
    assert main(["run", path]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["category"] == "GRADUAL_CHECK"
    assert payload["variable"] == "reversed"
    assert payload["required"] == "NonNull" and payload["found"] == "Null"
    assert payload["value"] == 0


def test_a_checked_run_stops_at_a_position_that_check_reports(tmp_path, capsys):
    # A stop's JSON, without its value, names the same position (procedure,
    # vertex, line, column, variable, required fact) as exactly one check site
    # or static warning, with the keys in the same order.  Its category is the
    # check site's, or the site's own at a warning, and its found fact is the
    # value's, which the analysis fact admits.
    def position(record):
        return {k: v for k, v in record.items() if k not in ("category", "found")}

    paths = [str(p) for p in corpus_paths()]
    paths += [picl(tmp_path, render_program(gen_program(GenConfig(seed=s))), f"gen{s}.picl") for s in range(200)]
    kinds = []
    for path in paths:
        if main(["run", path, "--max-steps", "3000"]) != 3:
            capsys.readouterr()
            continue
        stop = json.loads(capsys.readouterr().out)
        value = stop.pop("value")
        main(["check", path, "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        [(kind, finding)] = [
            (kind, f) for kind in ("checks", "warnings") for f in report[kind] if position(f) == position(stop)
        ]
        assert list(stop) == list(finding), path
        site = site_category(lower(parse(Path(path).read_text())).instr[stop["vertex"]])
        assert stop["category"] == (finding["category"] if kind == "checks" else site), path
        assert stop["found"] == ("Null" if value == 0 else "NonNull"), path
        assert grad_conc_contains(GradAbst(finding["found"]), value), path
        kinds.append(kind)
    assert kinds.count("checks") >= 5 and kinds.count("warnings") >= 5, kinds


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


def test_compare_analyses_each_distinct_graph_once(tmp_path, capsys, monkeypatch):
    # A fill that changes no annotation leaves the graph as it is, and reuses
    # the gradual findings: chain is fully annotated, arg_check is not.
    calls = []
    analyze = graduator.cli.analyze
    monkeypatch.setattr(graduator.cli, "analyze", lambda cfg, mode: calls.append(mode) or analyze(cfg, mode))
    for path, analyses in ((picl(tmp_path, workload_source("chain", 1)), 1), (corpus("arg_check.picl"), 3)):
        calls.clear()
        assert main(["compare", path]) == 0
        assert calls == ["gradual"] * analyses, path
    capsys.readouterr()


def test_compare_prints_nothing_before_a_front_end_failure(capsys, monkeypatch):
    # The table's header comes only once the graph that every policy edits
    # has validated, so a failing front end leaves stdout empty.
    monkeypatch.setattr(graduator.cli, "validate", lambda cfg: ["boom"])
    assert main(["compare", corpus("unannotated_calls.picl")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip().endswith("malformed control flow: boom")


@pytest.fixture
def caller_thresholds():
    """Distinctive collector thresholds for the test's calls; the suite's own come back after."""
    saved = gc.get_threshold()
    gc.set_threshold(701, 11, 12)
    yield (701, 11, 12)
    gc.set_threshold(*saved)


def test_selftest(capsys, monkeypatch, caller_thresholds):
    # selftest runs at main's threshold like every command, so the front-end
    # fuzz oracle starts at it; the caller's thresholds come back afterwards.
    seen = []
    oracle = testkit.oracle_frontend_fuzz

    def fuzz(seed):
        seen.append(gc.get_threshold())
        return oracle(seed=seed)

    monkeypatch.setattr(testkit, "oracle_frontend_fuzz", fuzz)
    assert main(["selftest", "--trials", "300", "--programs", "6", "--seed", "0"]) == 0
    assert seen == [(200_000, 11, 12)] and gc.get_threshold() == caller_thresholds
    assert capsys.readouterr().out == (
        "PASS  lattice  (394 checks)\n"
        "PASS  local-soundness  (271 checks)\n"
        "PASS  propositions  (18 checks)\n"
        "PASS  frontend-fuzz  (616 checks)\n"
    )


def test_frontend_fuzz_leaves_little_garbage_at_mains_threshold(caller_thresholds):
    # Each of the oracle's ~400 main calls leaves its argparse tree as cyclic
    # garbage, and no collector pass runs at this threshold unless the oracle
    # starts one: it collects the youngest generation before each case.
    gc.collect()
    gc.set_threshold(200_000, 11, 12)
    assert testkit.oracle_frontend_fuzz(seed=0).passed
    assert gc.collect() < 5_000


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


# The commands whose bytes the refactors keep identical, each run on every
# pinned input.
_PINNED_COMMANDS = (
    ["check"],
    ["check", "--format", "json"],
    ["check", "--mode", "static"],
    ["run"],
    ["run", "--mode", "plain"],
    ["run", "--trace", "--max-steps", "300"],
    ["cfg"],
    ["cfg", "--dot"],
    ["stats"],
    ["stats", "--ignore-annotations"],
    ["compare"],
)

# Inputs that stop in the front end, print a note or stop a checked run at a
# dereference, beside the corpus and the workloads at 1x.
_PINNED_FAULTS = {
    "lexer_error.picl": "main { var x; x := $null; return x; }",
    "parse_error.picl": "main { var x; x := ; return x; }",
    "surface_error.picl": "main { var x; var x; x := null; return x; }",
    "lint_note.picl": NOTES_SRC,
    "empty.picl": "",
    "deref_error.picl": scenario_src(null_body=True),
}

# SHA-256 of every command's exit code, stdout and stderr on each input, and of
# `stats` over every corpus and workload file at once (its TOTAL row).
_PINNED_DIGESTS = {
    "arg_check.picl": "1f8c7ecdc5c6b58b236e0fecc0fbde395b472a8435df9d5995087e853256284e",
    "boolean_guard.picl": "4eff146c120556cbfd29f045e2a6e257887f5554ec3c4f4a5eeb713c9fd7849e",
    "builder.picl": "256f2e67c573c6de59a17c5e1f2cb657d90ecaf9ac44b0d713ff54822a2bf548",
    "cache.picl": "84a71ce3913daa868c729810e2c24feadcfb828bfa1dcc5234f1f934203dfa83",
    "chain.picl": "c1fca316249aad680bd7d71883911a57cd56e7fd57ac72c481ea33ff1f6e69c8",
    "copy_prop.picl": "cf876142565ad14f1e6d06b5233107f73bde6300fc0ad401c5510879dcc8ec1a",
    "default_fill.picl": "0f948d176c7d60ededcaa11e8846d8673be0e324a2594172889d2dfb1f950c90",
    "double_guard.picl": "9d0761580cca585ccf1fd593678f2e6e30b6383e638cc5cfed4a11ae2c63ae03",
    "field_swap.picl": "b8ff2a08ec63c400473ddd7f0c92e78a44fe5f9d445c84303bce2072dd3f1f58",
    "guarded_list.picl": "0d4b226972fcd245882eeef9ea5ff8f17375dca724583a5d56dbbf1a51b9e854",
    "linked_pair.picl": "1be79e39735f735c64e71f98615665f068551ea08e963caf2368406bcffd9c96",
    "maybe_head.picl": "9b3dd7d9ba802ba0e0e0ab59ffc71729a54156d23942f9c9318fbf8dabf46641",
    "nested_if.picl": "7ede51132b287156779850e7534ede62af6fe073b878169c6d23d33797bfe9e5",
    "new_heavy.picl": "02c6b715d1d56e4aab136f06b3f2bac7bf0e5998f6fa1b964a295e793c12094e",
    "queue_pop.picl": "4d7a159c0aceda46ca51b2c3b82b08ca60c8206fac4eb111184b495c2afb1b05",
    "reset_fields.picl": "c31c5fac1e8b4497db67c8c0f79cf628234030738a94860896f97ec8f1d85260",
    "retry_loop.picl": "fd22563b1589e2065f915b7e0a9d2495415bddfc5a806d21df9a58760a714221",
    "sentinel.picl": "bdb8116133699510f3b740d32334cf26265a95f018710d0c2016ddbaec3ed1d2",
    "unannotated_calls.picl": "dd1bd7616164bf91eca08a0068a7480173a5738ce95d55d5fa49ae8472d05513",
    "while_new.picl": "7a5183ba8be674bd17ba8626fa73d47d608e0685954b1f1e621e493251bfa3da",
    "chain_1x.picl": "8c09b081bb13dbc36b4b569fb126cccfebe4349c1fc1e8200b85966f7b07434d",
    "wide_1x.picl": "79f20b2ff4886d6104edaa0e2f57dc4095017ee99bf1f49837e15884fbcc808c",
    "alloc_1x.picl": "eecfa13647162da861269d95723ea06116070dcf218a1c548bd9866f369d405e",
    "lexer_error.picl": "abedae835d16c56ef78e2c08dc5e0104e8c4c774fe35b5bc57fb385cd9701f5a",
    "parse_error.picl": "71e52987f167e5a3139686cb2b3b8655334b5a66bab540772e908697e7b3fcf0",
    "surface_error.picl": "e4eb41e6eddc907f59c0b7bd1a5026fa8a0bf16801467fc2acbccdbe95e35758",
    "lint_note.picl": "ff6e27547e9f54998a42e6f638a1cd9b9939cbdd42a7224e1803fdc873b353a8",
    "empty.picl": "9ae65f8a6f0e8b2e5d2a623edb2913273d3803854af34dd1a9b25223ebb525dd",
    "deref_error.picl": "9c47662317a65260a6fd6f34258c4cd53085a789bce1f4f8fa5b2b3674a57446",
    "stats *": "7c9de1eb6394833396f123747c5ae75f9e631cec5364cf27b824a26bbe1934c9",
}


def _pinned_digests(capsys) -> dict:
    """The digest of each pinned input, written to and named relative to the working directory.

    A relative name keeps the output free of the directory, whose length
    would otherwise set the width of `stats`' first column.
    """
    inputs = {p.name: p.read_text() for p in corpus_paths()}
    inputs |= {f"{name}_1x.picl": workload_source(name, 1) for name in ("chain", "wide", "alloc")}
    files = inputs | _PINNED_FAULTS
    for name, src in files.items():
        Path(name).write_text(src)

    def digest(calls) -> str:
        h = hashlib.sha256()
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            for part in (str(code), captured.out, captured.err):
                h.update(part.encode() + b"\0")
        return h.hexdigest()

    digests = {name: digest([command[0], name, *command[1:]] for command in _PINNED_COMMANDS) for name in files}
    digests["stats *"] = digest((["stats", *inputs], ["stats", *inputs, "--ignore-annotations"]))
    return digests


def test_cli_outputs_are_pinned(tmp_path, capsys, monkeypatch):
    # A tripwire for byte identity: every digest was computed before the
    # refactors it guards, and a mismatch names its input.
    monkeypatch.chdir(tmp_path)
    digests = _pinned_digests(capsys)
    assert digests.keys() == _PINNED_DIGESTS.keys()
    for name, expected in _PINNED_DIGESTS.items():
        assert digests[name] == expected, name


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



# Bounds on the peak bytes per source byte of one in-process command, at
# most 15 % above what was measured on Python 3.11 with the source lexed a
# window of lines at a time, the tree freed procedure by procedure and
# main's statements one by one as they are lowered, positions kept as
# integers and equal parts of the graph, the states and the interpreter's
# sites shared: chain (200 procedures) 14.2 for check, 15.2 for run, 14.2
# for compare and 14.2 for stats --ignore-annotations; wide (100 locals)
# 22.0, 22.2, 21.8 and 20.4.  With every token lexed first and no part
# shared they were 18.5, 20.7, 18.5 and 18.5 on chain, 24.8, 24.1, 24.7 and
# 23.4 on wide; with the tree freed only once lowered, 25.3, 23.6, 25.3 and
# 25.3 on chain, 30.3, 26.3, 30.9 and 29.4 on wide; with the tree alive
# through the command, 37.3 for check on chain and 48.1 on wide.  Before
# 3.11 the caller's stack keeps the tree until lower returns, so the
# earlier bounds apply there.
_PER_BYTE_BOUNDS = (
    [("chain", (16, 17.5, 16, 16)), ("wide", (25, 25.5, 25, 23))]
    if sys.version_info >= (3, 11)
    else [("chain", (29.5, 27.5, 30.5, 29.5)), ("wide", (35, 31, 35.5, 35))]
)


@pytest.mark.parametrize("workload, bounds", _PER_BYTE_BOUNDS)
def test_peak_memory_per_source_byte(tmp_path, workload, bounds):
    source = workload_source(workload, 4)
    path, warm = picl(tmp_path, source), picl(tmp_path, LOOP_SRC, name="warm.picl")

    def quiet(*argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(list(argv))

    commands = (["check"], ["run"], ["compare"], ["stats", "--ignore-annotations"])
    for (command, *flags), bound in zip(commands, bounds, strict=True):
        quiet(command, str(warm), *flags)  # what a first call imports or compiles lazily is not counted
        per_byte = peak_bytes(quiet, command, str(path), *flags) / len(source.encode())
        assert per_byte <= bound, f"{' '.join([command, *flags])} on {workload}: {per_byte:.1f} bytes per source byte"


# One program per construct, each grown by its size n (ROADMAP item 2).
def _and_or_chain(n):
    """One assignment of n operands joined by && and ||: one temporary per operand."""
    operands = "x" + "".join(" || x" if i % 3 == 0 else " && x" for i in range(n - 1))
    return f"field f;\nmain {{\n  var x;\n  x := new {{f}};\n  x := {operands};\n  return x;\n}}\n"


def _field_chain(n):
    """One read of n fields in a chain: one temporary per link."""
    return f"field f;\nmain {{\n  var x;\n  x := new {{f}};\n  x.f := x;\n  x := x{'.f' * n};\n  return x;\n}}\n"


def _locals(n):
    """One main with n locals, each copied from the last."""
    names = [f"v{i}" for i in range(n)]
    copies = "".join(f"  {b} := {a};\n" for a, b in zip(names, names[1:]))
    return "main {\n" + "".join(f"  var {v};\n" for v in names) + f"  v0 := null;\n{copies}  return {names[-1]};\n}}\n"


def _procedures(n):
    """n procedures, each called once from main."""
    procs = "".join(f"proc p{i}(y) {{\n  var z;\n  z := y;\n  return z;\n}}\n" for i in range(n))
    calls = "".join(f"  x := p{i}(x);\n" for i in range(n))
    return f"{procs}main {{\n  var x;\n  x := null;\n{calls}  return x;\n}}\n"


def _if_while(n):
    """n if/else statements and n while loops, one after another."""
    pair = "  if (x != null) { y := x; } else { skip; }\n  y := null;\n  while (y == null) { y := new {f}; }\n"
    return "field f;\nmain {\n  var x;\n  var y;\n  x := new {f};\n" + pair * n + "  return x;\n}\n"


def _nesting(n):
    """Blocks nested n deep and a call whose argument nests n deep, at most MAX_NESTING levels each."""
    depth = min(n, MAX_NESTING - 1)  # main's body is the first level
    blocks = "if (x != null) { " * depth + "x := x; " + "} else { skip; } " * depth
    call = "p(" * depth + "x" + ")" * depth
    main = f"main {{\n  var x;\n  x := null;\n  {blocks}\n  x := {call};\n  return x;\n}}\n"
    return "proc p(y) {\n  return y;\n}\n" + main


def _one_line(n):
    """n statements on one line."""
    return "main { var x; x := null; " + "x := x; " * n + "return x; }"


# A row fails strictly where the fixpoint's states, one byte per variable of
# the procedure at each vertex whose instruction changes its state, grow with
# the program.  The locals row passes since a copy that changes no byte
# passes its input state on: its copies share one state.
_STATES = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: the fixpoint keeps V states of U bytes, and U grows with this construct",
)


def _check(path):
    cfg, _ = _front_end(path)
    analyze(cfg)


def _run(path):
    cfg, _ = _front_end(path)
    assert run(cfg).outcome == "final"


# The rows that failed are sized so that their growth shows: 1,200 to 1,600
# vertices at 8n.  The others reach about 600 at 8n (486 for nesting, at 120
# levels), so that the table costs about 2 s.  Measured on Python 3.11, peak
# bytes per source byte of check from n to 8n: &&/|| chains 148 -> 357
# (2.4x), field chains 348 -> 940 (2.7x), locals 20.7 -> 21.2 (1.0x; 33 ->
# 78 while every vertex held its own state), the other rows 0.9-1.1x; of
# run, 0.97-1.21x on every row.  CPU per vertex of check
# and run read 0.5-0.9x, since the smaller program pays a larger share of
# fixed costs.
@pytest.mark.parametrize(
    "generate, n",
    [
        pytest.param(_and_or_chain, 150, marks=_STATES, id="and-or-chain"),
        pytest.param(_field_chain, 150, marks=_STATES, id="field-chain"),
        pytest.param(_locals, 200, id="locals"),
        pytest.param(_procedures, 20, id="procedures"),
        pytest.param(_if_while, 8, id="if-while"),
        pytest.param(_nesting, 15, id="nesting"),
        pytest.param(_one_line, 75, id="one-line"),
    ],
)
def test_check_and_run_grow_linearly_in_each_construct(tmp_path, generate, n):
    # From size n to 8n, neither the peak memory per source byte nor the CPU
    # time per vertex of check and run may grow more than 2x.
    sizes = []
    for size in (n, 8 * n):
        path = tmp_path / f"{size}.picl"
        path.write_text(generate(size))
        sizes.append((path, len(_front_end(path)[0].instr)))
    gc.collect()
    gc.freeze()  # each measurement's collection then skips what the rest of the suite keeps alive
    try:
        for name, command in (("check", _check), ("run", _run)):
            at_n, at_8n = (peak_bytes(command, path) / path.stat().st_size for path, _ in sizes)
            assert at_8n <= 2 * at_n, f"{name}: {at_n:.0f} -> {at_8n:.0f} bytes per source byte"
    finally:
        gc.unfreeze()
    # Both commands in one timed call: each timing pays for a full collection first.
    ratio = growth_per_vertex(lambda path: (_check(path), _run(path)), *sizes)
    assert ratio <= 2, f"check and run: {ratio:.2f}x the CPU time per vertex at 8x the size"
