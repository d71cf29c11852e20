"""Seeded workload generators for the graduator benchmark.

Each workload is a sequence of cases: three scales of one generated program,
or for `corpus` an endless stream.  A case is one PICL source plus the two
CLI invocations made on it (`check` and `run`) and the verdict their output
must meet, known by construction (or, for the generated corpus, by the
soundness property the tool promises).  The seed only renames identifiers
and reorders independent statements in the sized workloads, so their work
is the same for every seed; in `corpus` it picks the generated programs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from graduator import testkit
from graduator.runtime import DEFAULT_FUEL
from graduator.syntax import render_program

# Multipliers of the base size; growth exponents compare the last two.
SCALES = (1, 4, 16)
CHAIN_N = 50  # procedures at 1x
WIDE_N = 25  # locals at 1x
ALLOC_K = (16, 32, 64)  # list length per scale: K^2 heap objects grow 4x per step
# Fuel for corpus runs.  About 4% of generated programs loop forever.  The
# interpreter's per-step cost grows with the heap, so at the CLI default of
# 100k steps one such program took from 0.5 s to 88 s on a 2-core shared
# host, more than a time-boxed run can absorb.  At 10k steps they took
# 0.07-0.8 s, a spread that moved run_tail_ms by a quarter from seed to
# seed.  At 2k steps they take 20-50 ms, 5 to 13 times the median run: they
# still set the tail, and the heap-bound interpreter cost is left to alloc.
CORPUS_FUEL = 2_000


@dataclass(frozen=True)
class Case:
    name: str
    scale: int  # 1, 4 or 16; corpus cases are all 1
    source: str
    check_args: tuple[str, ...]
    run_mode: str  # "gradual" or "plain"
    fuel: int
    expect: dict  # verdict parameters, read by verdict.py

    @property
    def run_args(self) -> tuple[str, ...]:
        return ("--mode", self.run_mode, "--max-steps", str(self.fuel))


def _names(rng: random.Random, prefix_pool: str, n: int) -> list[str]:
    """n distinct identifiers: a seeded two-letter stem plus an index."""
    stem = rng.choice(prefix_pool) + rng.choice(prefix_pool)
    return [f"{stem}{i}" for i in range(n)]


def chain(seed: int, scale: int) -> Case:
    """N annotated procedures called in sequence; checked statically, run plain."""
    n = CHAIN_N * scale
    rng = random.Random(f"chain-{seed}-{scale}")
    f0, f1 = _names(rng, "fgh", 2)
    x, a, b = _names(rng, "pqrs", 3)
    procs = _names(rng, "klmn", n)
    lines = [f"field {f0};", f"field {f1};", ""]
    for p in procs:
        param = rng.choice(("NonNull", "Nullable"))
        guard = [
            f"    if ({a} != null) {{",
            f"        {a}.{f0} := {x};",
            "    } else {",
            "        skip;",
            "    }",
        ]
        loop = [
            f"    {b} := null;",
            f"    while ({b} == null) {{",
            f"        {b} := new {{{f0}, {f1}}};",
            "    }",
        ]
        body = guard + loop if rng.random() < 0.5 else loop + guard
        lines += [
            f"proc {p}@NonNull({x}@{param}) {{",
            f"    var {a};",
            f"    var {b};",
            f"    {a} := {x} && {x};",
            *body,
            f"    return {b};",
            "}",
            "",
        ]
    r = _names(rng, "tuvw", 1)[0]
    lines += ["main {", f"    var {r};", f"    {r} := new {{{f0}, {f1}}};"]
    lines += [f"    {r} := {p}({r});" for p in procs]
    lines += [f"    return {r};", "}", ""]
    return Case(
        name=f"chain-{scale}x",
        scale=scale,
        source="\n".join(lines),
        check_args=("--mode", "static", "--format", "json"),
        run_mode="plain",
        fuel=DEFAULT_FUEL,
        expect={"kind": "chain", "warnings": 0, "checks": 0},
    )


def wide(seed: int, scale: int) -> Case:
    """One main with N locals, half from an unannotated helper (one check each)."""
    n = WIDE_N * scale
    rng = random.Random(f"wide-{seed}-{scale}")
    (f,) = _names(rng, "fgh", 1)
    (helper,) = _names(rng, "klmn", 1)
    o, c, r = _names(rng, "pqrs", 3)
    locs = _names(rng, "tuvwxyz", n)
    from_helper = set(rng.sample(range(n), n // 2))
    lines = [
        f"field {f};",
        "",
        f"proc {helper}({o}) {{",
        f"    {o} := new {{{f}}};",
        f"    return {o};",
        "}",
        "",
        "main {",
        *(f"    var {v};" for v in (*locs, c, r)),
        f"    {c} := new {{{f}}};",
        f"    {r} := null;",
    ]
    for i, v in enumerate(locs):
        src = f"{helper}({c})" if i in from_helper else f"new {{{f}}}"
        lines.append(f"    {v} := {src};")
    for v in locs:
        lines += [
            f"    if ({c} != null) {{",
            f"        {r} := {v}.{f};",
            "    } else {",
            "        skip;",
            "    }",
        ]
    lines += [f"    return {c};", "}", ""]
    return Case(
        name=f"wide-{scale}x",
        scale=scale,
        source="\n".join(lines),
        check_args=("--format", "json"),
        run_mode="gradual",
        fuel=DEFAULT_FUEL,
        expect={"kind": "wide", "warnings": 0, "checks": n // 2},
    )


def alloc(seed: int, scale: int) -> Case:
    """Two K-node lists, K^2 allocations through an unannotated helper, K^2-deep recursion."""
    k = ALLOC_K[SCALES.index(scale)]
    rng = random.Random(f"alloc-{seed}-{scale}")
    nx, hd = _names(rng, "fgh", 2)
    mk, down = _names(rng, "klmn", 2)
    x, o, t, res = _names(rng, "pqrs", 4)
    la, lb, node, p, q, acc, sink = _names(rng, "tuvwxyz", 7)
    obj = f"new {{{nx}, {hd}}}"

    def build(head: str) -> list[str]:
        out = [f"    {head} := null;"]
        for _ in range(k):
            out += [f"    {node} := {obj};", f"    {node}.{nx} := {head};", f"    {head} := {node};"]
        return out

    first, second = rng.sample((la, lb), 2)
    lines = [
        f"field {nx};",
        f"field {hd};",
        "",
        f"proc {mk}({x}) {{",
        f"    var {o};",
        f"    {o} := {obj};",
        f"    {o}.{nx} := {x};",
        f"    return {o};",
        "}",
        "",
        f"proc {down}({x}) {{",
        f"    var {t};",
        f"    var {res};",
        f"    if ({x} != null) {{",
        f"        {t} := {x}.{nx};",
        f"        {res} := {down}({t});",
        "    } else {",
        f"        {res} := {x};",
        "    }",
        f"    return {res};",
        "}",
        "",
        "main {",
        *(f"    var {v};" for v in (la, lb, node, p, q, acc, sink)),
        *build(first),
        *build(second),
        f"    {acc} := null;",
        f"    {p} := {la};",
        f"    while ({p} != null) {{",
        f"        {q} := {lb};",
        f"        while ({q} != null) {{",
        f"            {acc} := {mk}({acc});",
        f"            {sink} := {acc}.{hd};",
        f"            {q} := {q}.{nx};",
        "        }",
        f"        {p} := {p}.{nx};",
        "    }",
        f"    {sink} := {down}({acc});",
        f"    return {acc};",
        "}",
        "",
    ]
    return Case(
        name=f"alloc-{scale}x",
        scale=scale,
        source="\n".join(lines),
        check_args=("--format", "json"),
        run_mode="gradual",
        fuel=DEFAULT_FUEL,
        expect={"kind": "alloc", "warnings": 0, "checks": 1, "returned": 2 * k + k * k},
    )


def corpus(seed: int) -> Iterator[Case]:
    """The bundled programs, then an endless seeded stream of generated ones."""
    for path in testkit.corpus_paths():
        yield _corpus_case(f"corpus-{path.stem}", path.read_text())
    rng = random.Random(f"corpus-{seed}")
    for i in itertools.count():
        program = testkit.gen_program(testkit.GenConfig(seed=rng.getrandbits(32)))
        yield _corpus_case(f"corpus-gen{i:05d}", render_program(program))


def _corpus_case(name: str, source: str) -> Case:
    return Case(
        name=name,
        scale=1,
        source=source,
        check_args=("--format", "json"),
        run_mode="gradual",
        fuel=CORPUS_FUEL,
        expect={"kind": "soundness"},
    )


SIZED = {"chain": chain, "wide": wide, "alloc": alloc}


def build(workload: str, seed: int) -> Iterator[Case]:
    """The cases of a workload: sized ones smallest scale first, corpus endless."""
    if workload == "corpus":
        return corpus(seed)
    return iter([SIZED[workload](seed, s) for s in SCALES])
