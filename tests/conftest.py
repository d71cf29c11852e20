"""Shared program fixtures.

LOOP_SRC is the canonical retry loop: a procedure that keeps calling a
producer until it gets a non-null value.  Its region in the CFG is the
six-vertex shape (entry, branch, both arms, call, return) that the branch
narrowing rules were designed around, so several suites pin facts about it.

workload_source(name, scale) is the source of one of the benchmark's sized
workloads (chain, wide, alloc; bench/workloads.py) at seed 1.

wide_src(n) builds the shape of a wide program: one main with n locals and
an if/else field read of each, so a single region holds about 5n vertices;
the growth gates time the front end on it.

scenario_src builds the producer/consumer family used to exercise the
warning and check placement: a `reverse`-style procedure that is safe or
null-returning, with an optional return annotation, and a caller that
dereferences the result exactly once.
"""

import gc
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

# Write no bytecode, before anything imports graduator: a `__pycache__` under
# src/ would let later launches skip compiling the package, so how fast
# graduator starts would depend on whether the checkout had run its tests.
sys.dont_write_bytecode = True

# One line per acceptance criterion, printed as a summary section at the end
# of the run (see pytest_terminal_summary below); test_acceptance.py appends.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def best_cpu(fn, *args, reps=3):
    """Fewest process CPU seconds that fn(*args) took over reps calls.

    As in the benchmark harness, the collector stays on, the objects alive
    before timing are frozen so that no pass scans what the rest of the
    suite keeps alive, and each call starts after a collection, so that it
    pays for its own garbage only.
    """
    best = float("inf")
    gc.collect()
    gc.freeze()
    try:
        for _ in range(reps):
            gc.collect()
            t0 = time.process_time()
            fn(*args)
            best = min(best, time.process_time() - t0)
    finally:
        gc.unfreeze()
    return best


def growth_per_vertex(fn, small, large):
    """CPU time per vertex of fn on large over that on small.

    small and large are (argument, vertex count) pairs; any count of work
    units, such as interpreter steps, serves.  The sizes alternate for three
    rounds, each round compares two calls that are neighbours in time, and
    the median round stands, so that a change in the host's speed between
    two calls moves one round, not the verdict.
    """
    (small_arg, small_n), (large_arg, large_n) = small, large
    ratios = []
    for _ in range(3):
        per_small = best_cpu(fn, small_arg, reps=1) / small_n
        ratios.append(best_cpu(fn, large_arg, reps=1) / large_n / per_small)
    return statistics.median(ratios)


LOOP_SRC = """
field f;

proc bar@NonNull(y @Nullable) {
    var t;
    t := new {f};
    return t;
}

proc foo@NonNull(x @Nullable) {
    while (x == null) {
        x := bar(x);
    }
    return x;
}

main {
    var r;
    r := foo(null);
    return r;
}
"""


def scenario_src(ret_ann: Optional[str] = None, null_body: bool = False) -> str:
    ann = "@" + ret_ann if ret_ann else ""
    body = "out := null;" if null_body else "out := new {chars};"
    return f"""
field chars;

proc reverse{ann}(str) {{
    var out;
    if (str == null) {{
        {body}
    }} else {{
        out := new {{chars}};
    }}
    return out;
}}

main {{
    var tmp;
    var reversed;
    var frown;
    var both;
    reversed := reverse(null);
    tmp := new {{chars}};
    frown := reverse(tmp);
    both := reversed.chars;
    return both;
}}
"""


# The dereference `both := reversed.chars` in scenario_src, by vertex id.
SCENARIO_DEREF_VERTEX = 12


def wide_src(n: int) -> str:
    """One main with n locals, half from a helper (a check site each), read one by one."""
    names = [f"v{i}" for i in range(n)]
    return "\n".join(
        [
            "field f;",
            "proc h(o) { o := new {f}; return o; }",
            "main {",
            *(f"    var {v};" for v in names),
            "    var c; var r; c := new {f}; r := null;",
            *(f"    {v} := h(c);" if i % 2 else f"    {v} := new {{f}};" for i, v in enumerate(names)),
            *(f"    if (c != null) {{ r := {v}.f; }} else {{ skip; }}" for v in names),
            "    return c;",
            "}",
        ]
    )


def workload_source(name: str, scale: int) -> str:
    """The source of the benchmark's sized workload name at scale (1, 4 or 16), seed 1."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    if bench not in sys.path:
        sys.path.append(bench)
    import workloads

    return workloads.SIZED[name](1, scale).source
