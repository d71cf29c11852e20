"""Tests for the benchmark's own code: python3 -m pytest bench"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

import run
import workloads
from graduator.cfg import lower, validate
from graduator.syntax import check_surface, parse
from verdict import Result

CORPUS_SAMPLE = 40


def cases(workload: str, seed: int) -> list:
    return list(itertools.islice(workloads.build(workload, seed), CORPUS_SAMPLE))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_case_is_surface_valid_and_validate_clean(workload):
    built = cases(workload, 3)
    assert [c.scale for c in built][:3] == ([1, 1, 1] if workload == "corpus" else list(workloads.SCALES))
    for case in built:
        program = parse(case.source)
        assert check_surface(program) == [], case.name
        assert validate(lower(program)) == [], case.name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_sources(workload):
    assert [c.source.encode() for c in cases(workload, 11)] == [c.source.encode() for c in cases(workload, 11)]


def test_seed_changes_the_generated_corpus():
    one = [c.source for c in cases("corpus", 1) if "gen" in c.name]
    two = [c.source for c in cases("corpus", 2) if "gen" in c.name]
    assert one and len(one) == len(two)
    assert sum(a != b for a, b in zip(one, two)) > len(one) // 2


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_outputs_meet_their_verdicts(workload, tmp_path):
    bench = run.Bench(workload, tmp_path)
    for case in cases(workload, 5):
        if case.scale == 1:
            bench.call(case, "check")
            bench.call(case, "run")
    assert bench.attempted > 0
    assert (bench.failed, bench.problems) == (0, [])


def _judged(bench, case, command, res) -> int:
    before = bench.failed
    bench.judge(case, command, res)
    return bench.failed - before


def test_tampered_outputs_count_as_failed(tmp_path):
    bench = run.Bench("wide", tmp_path)
    case = workloads.wide(0, 1)
    bench.call(case, "check")
    bench.call(case, "run")
    assert bench.failed == 0
    report = bench.reports[case.name]

    dropped = dict(report, checks=report["checks"][1:])
    assert _judged(bench, case, "check", Result(0, json.dumps(dropped), "")) == 1
    warned = dict(report, warnings=[report["checks"][0]])
    assert _judged(bench, case, "check", Result(0, json.dumps(warned), "")) == 1
    assert _judged(bench, case, "check", Result(None, "", "Traceback ...")) == 1
    assert _judged(bench, case, "run", Result(0, "final: returned 0 in 139 step(s)\n", "")) == 1
    assert _judged(bench, case, "run", Result(5, "fuel exhausted after 9 step(s)\n", "")) == 1
    assert bench.failed == 5
    assert bench.attempted == 7


def test_corpus_soundness_verdict_rejects_unlisted_stops(tmp_path):
    bench = run.Bench("corpus", tmp_path)
    case = workloads._corpus_case("corpus-x", "main {\n    var x;\n    x := null;\n    return x;\n}\n")
    report = {"warnings": [], "checks": [{"vertex": 4, "variable": "a"}]}
    bench.reports[case.name] = report
    stop = {"vertex": 4, "variable": "a"}
    assert _judged(bench, case, "run", Result(3, json.dumps(stop), "")) == 0
    assert _judged(bench, case, "run", Result(3, json.dumps(dict(stop, vertex=5)), "")) == 1
    assert _judged(bench, case, "run", Result(4, "stuck at v2 after 1 step(s): x\n", "")) == 1
    assert _judged(bench, case, "check", Result(1, json.dumps(report), "")) == 1


def test_alloc_builds_its_heap_and_stack_by_construction():
    k = workloads.ALLOC_K[0]
    case = workloads.alloc(0, 1)
    assert case.expect["returned"] == 2 * k + k * k
    cfg = lower(parse(case.source))
    assert run.max_stack_depth(cfg, "gradual", 100_000) == k * k + 2


def test_tail_is_the_eleventh_largest():
    assert run.percentile_tail([float(i) for i in range(100)]) == (89.0, 90.0)
    with pytest.raises(ValueError):
        run.percentile_tail([1.0] * 10)


def test_host_speed_rescales_by_the_reference_runs_around_the_calls(monkeypatch):
    runs = iter([0.5, 0.010, 0.010, 0.015])  # the first run only warms up
    monkeypatch.setattr(run, "reference_seconds", lambda: next(runs))
    speed = run.HostSpeed()
    assert speed.factor() == pytest.approx(run.REFERENCE_MS / 10.0)
    assert speed.factor() == pytest.approx(run.REFERENCE_MS / 12.5)
    assert speed.factors == pytest.approx([run.REFERENCE_MS / 10.0, run.REFERENCE_MS / 12.5])
