"""Seeded benchmark for graduator's `check` and `run` commands.

    python3 bench/run.py --workload {corpus,chain,wide,alloc} --seed N \
        --seconds S --trace {0,1}

A closed loop in one process: one `graduator.cli.main` call at a time, the
next only after the previous returned.  Every call's output is judged
against a verdict known before it ran (see verdict.py); a call that breaks
it, or raises, counts as failed.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, measured untraced and rescaled to
a fixed host speed (see HostSpeed).  --trace 1
alternates untraced and traced calls, reports the per-layer metrics at the
workload's largest scale, prints a self-time table for every scale and
writes every span to .bench_out/.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import tokenize
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("corpus", "chain", "wide", "alloc")  # built by workloads.py

# Calls are timed on the process CPU clock.  They are single-threaded and
# compute-bound, reading one small file, so CPU time is their latency on an
# unshared core; wall time would add whatever a shared host takes away.
CLOCK = time.process_time

# The CPU time of the same call is not the same from minute to minute on a
# shared host: on the 2-core host the benchmark was tuned on, it ran about
# 1.7 times faster for a minute at a time, now and then, and drifted by a
# sixth over ten minutes.  So the typical times are rescaled to a fixed host
# speed: the speed at which a reference job, fixed Python work that no
# change to graduator can touch, takes REFERENCE_MS.  The reference runs in
# this process between the timed calls, at least every CALIBRATE_S.  The
# tails are not rescaled: the host also changes speed for moments shorter
# than CALIBRATE_S, and the noise of the factor, small for a median,
# stretches the top of the distribution.  Unscaled, the fast minutes only
# lower the samples, and the tail, ten samples from the top, stays at the
# host's usual speed unless a fast minute covers nearly the whole run.
REFERENCE_TEXT = "".join(f"def f{i}(a, b=({i}, 'x')):\n    return a * {i} + b[0]  # note {i}\n\n"
                         for i in range(80))
REFERENCE_MS = 10.0
CALIBRATE_S = 0.25

# CPU seconds per slice of a sized workload, one call at least.  A round is a
# block of base-scale `check` calls, one of base-scale `run` calls, the 4x
# and 16x `check` calls in turn, and the same again for `run`.  The base
# scale gets about half the time, spread across the window, for its latency
# tail; the paired 4x and 16x calls give the growth exponents.
BASE_SLICE_S = 0.5
PAIR_SLICE_S = 1.0
SETUP_LAUNCHES = 9
RSS_CORPUS_PROGRAMS = 100

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from graduator.cli import main
sys.exit(main(["check", sys.argv[2]]))
"""

# Builds its own cases, so that the benchmark process can start it before it
# grows: exec carries the parent's high-water mark over into the child's
# ru_maxrss.
RSS_CODE = """
import contextlib, io, sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import run
from graduator.cli import main
bench = run.Bench(sys.argv[3], Path(sys.argv[5]))
for case in run.rss_cases(sys.argv[3], int(sys.argv[4])):
    for command in ("check", "run"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(bench.argv(case, command))
        if code not in (0, 1, 3, 4, 5):
            sys.exit(f"{case.name} {command}: exit {code}")
"""


def reference_seconds() -> float:
    """CPU seconds of one run of the reference job: tokenizing REFERENCE_TEXT."""
    gc.collect()
    start = CLOCK()
    for _ in tokenize.generate_tokens(io.StringIO(REFERENCE_TEXT).readline):
        pass
    return CLOCK() - start


class HostSpeed:
    """Factors that rescale CPU times to the speed at which the reference takes REFERENCE_MS."""

    def __init__(self) -> None:
        reference_seconds()  # the first run also compiles tokenize's patterns
        self.last = reference_seconds()
        self.factors: list[float] = []

    def factor(self) -> float:
        """Run the reference again; return the factor for the calls made since the last run."""
        now = reference_seconds()
        factor = REFERENCE_MS / 1000.0 / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return factor


def percentile_tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return ordered[n - 11], 100.0 * (n - 10) / n


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


@dataclass
class Bench:
    """One workload's cases, files and judged invocations."""

    workload: str
    work: Path
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    reports: dict[str, dict] = field(default_factory=dict)  # case name -> check report
    steps: dict[str, int] = field(default_factory=dict)  # case name -> run steps

    def path(self, case) -> Path:
        p = self.work / f"{case.name}.picl"
        if not p.exists():
            p.write_text(case.source)
        return p

    def argv(self, case, command: str) -> list[str]:
        extra = case.check_args if command == "check" else case.run_args
        return [command, *extra, str(self.path(case))]

    def call(self, case, command: str, tracer=None, invocation: int = 0) -> float:
        """Make one CLI call, judge its output, return its CPU time in seconds."""
        from graduator import cli
        from verdict import Result

        argv = self.argv(case, command)
        out, err = io.StringIO(), io.StringIO()
        # Each CLI call normally starts in a fresh process: do not let it pay
        # for collecting the garbage of the call before.
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = CLOCK()
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.invoke(invocation, cli.main, argv)
            except Exception:
                code = None
                traceback.print_exc()
            elapsed = CLOCK() - start
        self.judge(case, command, Result(code, out.getvalue(), err.getvalue()))
        return elapsed

    def judge(self, case, command: str, res) -> None:
        import verdict

        self.attempted += 1
        if command == "check":
            problem, report = verdict.check_report(case, res)
            if problem is None:
                self.reports.setdefault(case.name, report)
        elif case.name not in self.reports:
            problem = "no valid check report to judge the run against"
        else:
            problem = verdict.run_problem(case, res, self.reports[case.name])
            steps = verdict.steps_of(res)
            if problem is None and case.name not in self.steps:
                self.steps[case.name] = steps if steps is not None else self.library_steps(case)
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{case.name} {command}: {problem}")

    def library_steps(self, case) -> int:
        """Steps of a run whose output omits them (exit 3), from the library."""
        from graduator.cfg import lower
        from graduator.runtime import run
        from graduator.syntax import parse

        return run(lower(parse(case.source)), mode=case.run_mode, max_steps=case.fuel).steps


# ---------------------------------------------------------------------------
# Fresh-process measurements
# ---------------------------------------------------------------------------


def child_usage(cmd: list[str], err_path: Path):
    """Run one child to completion and return its own rusage."""
    with open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        try:
            # wait4 reports this child's own rusage; RUSAGE_CHILDREN would be
            # the maximum (or sum) over every child this process ever had.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"child {cmd[:3]} failed: {err_path.read_text()[-500:]}")
    return usage


def measure_setup(work: Path, speed: HostSpeed) -> tuple[list[float], list[float]]:
    """CPU seconds of fresh interpreters that import the CLI and check a tiny
    file: as measured, and each rescaled by the reference runs around it."""
    tiny = work / "setup.picl"
    tiny.write_text("field f;\n\nmain {\n    var x;\n    x := new {f};\n    return x;\n}\n")
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(tiny)]
    child_usage(cmd, work / "setup.err")  # may compile bytecode; not counted
    speed.factor()
    measured, rescaled = [], []
    for _ in range(SETUP_LAUNCHES):
        usage = child_usage(cmd, work / "setup.err")
        measured.append(usage.ru_utime + usage.ru_stime)
        rescaled.append(measured[-1] * speed.factor())
    return measured, rescaled


def rss_cases(workload: str, seed: int) -> list:
    """The cases whose peak RSS is reported: the largest scale, or the head of the corpus."""
    import workloads

    head = head_of(workload, workloads.build(workload, seed))
    return head if workload == "corpus" else head[-1:]


def measure_peak_rss(workload: str, seed: int, work: Path) -> float:
    """Peak RSS in MB of one child that checks and runs the rss_cases."""
    here = str(Path(__file__).resolve().parent)
    cmd = [sys.executable, "-c", RSS_CODE, str(SRC), here, workload, str(seed), str(work)]
    return child_usage(cmd, work / "rss.err").ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def head_of(workload: str, cases_iter) -> list:
    """The cases a run starts with: a sized workload's three scales, or the
    first programs of the corpus stream, the bundled files first.  The rest
    of the stream stays in cases_iter, to be read for as long as the run lasts.
    """
    if workload == "corpus":
        return list(itertools.islice(cases_iter, RSS_CORPUS_PROGRAMS))
    return list(cases_iter)


def warm_up(bench: Bench, head: list) -> None:
    """Make the untimed warm-up calls.

    A sized workload calls each of its scales once, so that no timed call
    pays for first growing the process's heap to its size; the corpus calls
    its bundled files.  Everything alive afterwards is frozen out of the
    garbage collector.
    """
    from graduator import testkit

    warm = head[: len(testkit.corpus_paths())] if bench.workload == "corpus" else head
    for case in warm:
        bench.call(case, "check"), bench.call(case, "run")
    # Keep the modules and the benchmark's own long-lived objects out of the
    # collection made before every call: it took 5 ms a call otherwise.
    gc.collect()
    gc.freeze()


def run_for(seconds: float, rounds, fn) -> None:
    """Call fn on each job of each round until the wall-clock window closes.

    The first round always completes, so every scale has a sample.
    """
    deadline = time.perf_counter() + seconds
    for round_no, jobs in enumerate(rounds):
        for job in jobs:
            if round_no and time.perf_counter() >= deadline:
                return
            fn(job)


def end_to_end(bench: Bench, cases_iter, seconds: float) -> tuple[dict, list[str]]:
    from workloads import SCALES

    speed = HostSpeed()
    measured_setup, setup = measure_setup(bench.work, speed)

    times: dict[tuple[int, str], list[float]] = {}  # rescaled ms, by scale and command
    raw: dict[str, list[float]] = {"check": [], "run": []}  # base-scale CPU ms as measured, for the tails
    rates: list[float] = []  # steps per rescaled second of each base-scale run call
    corpus_points: dict[str, list[tuple[float, float]]] = {"check": [], "run": []}
    pending: list[tuple[object, str, float]] = []  # calls since the reference last ran

    # Each 16x call is divided by the mean of the 4x calls just before and
    # just after it, so that a drift of the host's speed cancels out of the
    # ratio without rescaling.
    growth_ratios: dict[str, list[float]] = {"check": [], "run": []}

    def sample(case, command: str) -> float:
        """One timed call; returns its CPU seconds."""
        secs = bench.call(case, command)
        pending.append((case, command, secs))
        return secs

    def calibrate(force: bool = False) -> None:
        """Rescale the pending calls, once they have run long enough."""
        if not pending or (not force and sum(secs for _, _, secs in pending) < CALIBRATE_S):
            return
        factor = speed.factor()
        for case, command, secs in pending:
            ms = 1000.0 * secs * factor
            times.setdefault((case.scale, command), []).append(ms)
            if case.scale == 1:
                raw[command].append(1000.0 * secs)
            if command == "check":
                continue
            steps = bench.steps.get(case.name, 0)
            if case.scale == 1:
                rates.append(1000.0 * steps / ms)
            if bench.workload == "corpus":
                corpus_points["check"].append((len(case.source), times[(1, "check")][-1]))
                corpus_points["run"].append((max(steps, 1), ms))
        pending.clear()

    def block(case, command: str, slice_s: float) -> None:
        spent = sample(case, command)
        while spent < slice_s:
            spent += sample(case, command)

    def paired(mid, big, command: str) -> None:
        before = spent = sample(mid, command)
        while True:
            at_big = sample(big, command)
            after = sample(mid, command)
            growth_ratios[command].append(at_big / ((before + after) / 2))
            spent, before = spent + at_big + after, after
            if spent >= PAIR_SLICE_S:
                return

    def job_then_calibrate(job) -> None:
        job()
        calibrate()

    head = head_of(bench.workload, cases_iter)
    warm_up(bench, head)
    if bench.workload == "corpus":
        rounds = ([functools.partial(block, c, cmd, 0.0) for cmd in ("check", "run")]
                  for c in itertools.chain(head, cases_iter))
    else:
        base, mid, big = head
        rounds = itertools.repeat([
            job
            for cmd in ("check", "run")
            for job in (functools.partial(block, base, "check", BASE_SLICE_S),
                        functools.partial(block, base, "run", BASE_SLICE_S),
                        functools.partial(paired, mid, big, cmd))
        ])
    run_for(seconds, rounds, job_then_calibrate)
    calibrate(force=True)

    check, run = times[(1, "check")], times[(1, "run")]
    check_tail, check_pct = percentile_tail(raw["check"])
    run_tail, run_pct = percentile_tail(raw["run"])
    if bench.workload == "corpus":
        check_growth = loglog_slope(corpus_points["check"])
        run_growth = loglog_slope(corpus_points["run"])
    else:
        growth = {
            cmd: math.log(statistics.median(growth_ratios[cmd])) / math.log(SCALES[-1] / SCALES[-2])
            for cmd in ("check", "run")
        }
        check_growth, run_growth = growth["check"], growth["run"]
    metrics = {
        "check_p50_ms": (statistics.median(check), "ms"),
        "check_tail_ms": (check_tail, "ms"),
        "run_p50_ms": (statistics.median(run), "ms"),
        "run_tail_ms": (run_tail, "ms"),
        "run_steps_per_s": (statistics.median(rates), "1/s"),
        "check_growth": (check_growth, "exponent"),
        "run_growth": (run_growth, "exponent"),
        "setup_s": (statistics.median(setup), "s"),
    }
    factors = speed.factors
    notes = [
        f"check latency: p50 over n={len(check)}, tail = p{check_pct:.1f}",
        f"run latency: p50 over n={len(run)}, tail = p{run_pct:.1f}",
        f"p50s, steps/s and setup rescaled to a {REFERENCE_MS:g} ms reference: factor median "
        f"{statistics.median(factors):.3f}, range {min(factors):.3f}-{max(factors):.3f} over "
        f"{len(factors)} reference runs; tails as measured",
        f"as measured (CPU ms): check p50 {statistics.median(raw['check']):.2f}, run p50 "
        f"{statistics.median(raw['run']):.2f}, setup p50 {1000.0 * statistics.median(measured_setup):.1f}",
    ]
    for (scale, command), values in sorted(times.items()):
        notes.append(f"{scale:>2}x {command:<5} n={len(values):<5} median {statistics.median(values):9.2f} ms")
    return metrics, notes


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

LAYER_TIMES = {
    "syntax.parse_ms": ("syntax.parse",),
    "syntax.check_surface_ms": ("syntax.check_surface",),
    "cfg.lower_ms": ("cfg.lower",),
    "cfg.validate_ms": ("cfg.validate",),
    "analysis.kildall_ms": ("analysis.kildall",),
    "analysis.findings_ms": ("analysis.findings", "analysis.analyze"),
    "runtime.run_ms": ("runtime.run",),
    "cli.self_ms": ("cli.main",),
}


def max_stack_depth(cfg, mode: str, fuel: int) -> int:
    """Deepest frame stack the interpreter reaches, stepping outside the CLI."""
    from graduator import runtime

    stepper = runtime.step if mode == "plain" else runtime.grad_step
    state = runtime.initial_state(cfg)
    depth = 1
    for _ in range(fuel):
        outcome = stepper(cfg, state)
        if not isinstance(outcome, runtime.Stepped):
            break
        state = outcome.state
        depth = max(depth, len(state.frames))
    return depth


def counters(case, returned: dict) -> dict[str, float]:
    """Work counts of one case, from the values its traced calls returned."""
    cfg = returned["cfg.lower"]
    result = returned["runtime.run"]
    regions: dict[str, int] = {}
    for v in cfg.vertices:
        regions[v.proc] = regions.get(v.proc, 0) + 1
    return {
        "cfg.vertices": len(cfg.vertices),
        "cfg.max_region": max(regions.values()),
        "analysis.max_universe": max(len(u) for u in cfg.universe.values()),
        "runtime.steps": result.steps,
        "runtime.heap_objects": len(result.state.heap),
        "runtime.stack_depth": max_stack_depth(cfg, case.run_mode, result.steps + 1),
    }


@dataclass(frozen=True)
class Invocation:
    case: str
    scale: int
    command: str
    traced: bool
    seconds: float


def per_layer(bench: Bench, cases_iter, seconds: float, seed: int) -> tuple[dict, list[str]]:
    from spans import Tracer

    tracer = Tracer()
    invocations: list[Invocation] = []  # a traced call's span invocation id is its index here
    counts: dict[str, dict[str, float]] = {}
    cases_at: dict[int, dict[str, int]] = {}  # scale -> case name -> source bytes

    def both(case) -> None:
        cases_at.setdefault(case.scale, {})[case.name] = len(case.source.encode())
        for command in ("check", "run"):
            elapsed = bench.call(case, command)
            invocations.append(Invocation(case.name, case.scale, command, False, elapsed))
            with tracer:
                elapsed = bench.call(case, command, tracer, len(invocations))
            invocations.append(Invocation(case.name, case.scale, command, True, elapsed))
            got, own = tracer.returned, counts.setdefault(case.name, {})
            if command == "check" and "analysis.analyze" in got:
                result, warnings, checks = got["analysis.analyze"]
                own["analysis.state_entries"] = sum(len(s) for s in result.pi)
                own["analysis.warnings"], own["analysis.checks"] = len(warnings), len(checks)
            if command == "run" and "runtime.run" in got and "runtime.steps" not in own:
                own.update(counters(case, got))
            tracer.returned = {}

    head = head_of(bench.workload, cases_iter)
    warm_up(bench, head)
    if bench.workload == "corpus":
        rounds = ([c] for c in itertools.chain(head, cases_iter))
    else:
        rounds = itertools.repeat(head)
    run_for(seconds, rounds, both)

    selfs = tracer.self_times()
    table: dict[int, dict] = {}
    for scale, names in sorted(cases_at.items()):
        at = [(i, inv) for i, inv in enumerate(invocations) if inv.scale == scale]
        traced = [(i, inv) for i, inv in at if inv.traced]
        pairs = len(traced) / 2  # one check and one run per pair
        layer_s: dict[str, float] = {}
        for i, _ in traced:
            for span, secs in selfs.get(i, {}).items():
                layer_s[span] = layer_s.get(span, 0.0) + secs
        traced_s = sum(inv.seconds for _, inv in traced)
        untraced_s = sum(inv.seconds for _, inv in at if not inv.traced)
        m = {
            name: 1000.0 * sum(layer_s.get(span, 0.0) for span in spans) / pairs
            for name, spans in LAYER_TIMES.items()
        }
        # Both calls of a pair parse the source.
        parsed = sum(2 * names[inv.case] for _, inv in traced if inv.command == "check")
        m["syntax.parse_kb_per_s"] = parsed / 1024.0 / layer_s["syntax.parse"]
        # A call that failed returned nothing to count; it is in `failed`.
        per_case = [counts[name] for name in names]
        for key in ("cfg.vertices", "analysis.state_entries", "analysis.checks", "analysis.warnings",
                    "runtime.steps", "runtime.heap_objects"):
            m[key] = statistics.fmean(c.get(key, 0) for c in per_case)
        for key in ("cfg.max_region", "analysis.max_universe", "runtime.stack_depth"):
            m[key] = max(c.get(key, 0) for c in per_case)
        steps = sum(counts[inv.case].get("runtime.steps", 0) for _, inv in traced if inv.command == "run")
        m["runtime.steps_per_s"] = steps / layer_s["runtime.run"]
        m["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
        table[scale] = {
            "programs": len(names),
            "pairs": pairs,
            "untraced_ms_per_pair": 1000.0 * untraced_s / pairs,
            "traced_ms_per_pair": 1000.0 * traced_s / pairs,
            "metrics": m,
        }

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{bench.workload}-s{seed}.json"
    span_file.write_text(json.dumps({
        "invocations": [vars(inv) for inv in invocations],
        "spans": [[s.name, s.start, s.end, s.parent, s.invocation] for s in tracer.spans],
        "table": table,
    }))
    notes = [f"spans written to {span_file.relative_to(ROOT)}"]
    for scale, row in table.items():
        m = row["metrics"]
        notes.append(
            f"{scale:>2}x: {row['programs']} program(s), {row['pairs']:.0f} traced pair(s); per pair "
            f"untraced {row['untraced_ms_per_pair']:.2f} ms, traced {row['traced_ms_per_pair']:.2f} ms "
            f"(overhead {m['trace.overhead_pct']:.1f}%)"
        )
        parts = ", ".join(f"{name.removesuffix('_ms')} {m[name]:.2f}" for name in LAYER_TIMES)
        notes.append(f"     self ms per pair: {parts}; sum {sum(m[name] for name in LAYER_TIMES):.2f}")
    units = dict.fromkeys(LAYER_TIMES, "ms")
    units.update({"syntax.parse_kb_per_s": "KB/s", "runtime.steps_per_s": "1/s", "trace.overhead_pct": "%"})
    largest = table[max(table)]["metrics"]
    return {name: (value, units.get(name, "count")) for name, value in sorted(largest.items())}, notes


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "graduator" / "cli.py").is_file():
        print(f"error: no graduator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = OUT / f"work-{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if not args.trace:
            # First, while this process has not yet imported graduator.
            rss = measure_peak_rss(args.workload, args.seed, work)
        import workloads

        bench = Bench(args.workload, work)
        cases = workloads.build(args.workload, args.seed)
        if args.trace:
            metrics, notes = per_layer(bench, cases, args.seconds, args.seed)
        else:
            metrics, notes = end_to_end(bench, cases, args.seconds)
            metrics["peak_rss_mb"] = (rss, "MB")
            notes.append(f"setup: median of {SETUP_LAUNCHES} fresh launches")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s measured, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:14.4f} {unit}")
    print(f"  {'failed_frac':<26} {bench.failed / bench.attempted:14.4f} ({bench.failed}/{bench.attempted})")
    for problem in bench.problems:
        print(f"  FAILED {problem}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
