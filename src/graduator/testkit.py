"""Seeded program generation and independent oracles.

The generator builds surface- and CFG-valid programs by construction: reads
only touch assigned variables, allocations always list every declared field,
procedures only call earlier procedures (no recursion), and every body ends
in a reachable return.  Statically *valid* corpora (no warnings) come from
generate-and-filter over successive seeds, which keeps determinism: the
filter consumes a fixed seed stream and takes the first n survivors.

The oracles re-derive expected values independently of the shipped code
paths they judge:

- oracle_lattice re-states the gradual join in closed form by case analysis
  on element shapes (never via alpha), recomputes the induced order, its
  Hasse diagram and height, replays the Galois conditions per subset, and
  keeps the four-element-lifting associativity failure as a regression.
- oracle_local_soundness drives single instructions on hand-built micro
  graphs with random concrete states and random describing abstract states,
  and checks that stepping stays described by the pushed-through fact.
- oracle_propositions generates program corpora and checks the meta-level
  claims: annotated programs analyze and run identically in both modes,
  erasing annotations never introduces warnings, only grows denotations,
  and never changes behavior before the original's first error, and checked
  execution of valid programs never gets stuck and only errors at declared
  check sites while staying described by the fixpoint.  Each claim judges a
  lowered graph, which the oracle lowers once per program, with one
  `analyze` per graph and mode; one function, `lockstep`, runs both the
  plain-against-checked and the precise-against-erased comparisons.
- oracle_frontend_fuzz feeds an in-process `check` seeded token-level
  mutants of the corpus and blocks and calls nested at the limit and one
  level past it: each must exit 0, 1 or 2 without raising and print the same
  bytes twice, and each that parses must survive a render round trip.

Every oracle counts its checks in an OracleReport, and a check formats its
failure text from a template and its parts only when it fails.
"""

from __future__ import annotations

import contextlib
import gc
import io
import random
import tempfile
from pathlib import Path
from typing import Callable, Optional

from .analysis import analyze, lifted_flow
from .cli import main
from .cfg import (
    MAIN,
    IAnd,
    IBranch,
    ICall,
    IConstNull,
    ICopy,
    IElse,
    IFieldRead,
    IFieldWrite,
    IIf,
    IMain,
    INew,
    IOr,
    IProc,
    IReturn,
    ProgramCfg,
    annotation_sites,
    erase_annotations,
    lower,
    precision_leq_cfg,
    validate,
)
from .lattice import (
    ALL_ABST,
    ALL_GRAD,
    BASE_HEIGHT,
    Abst,
    GradAbst,
    alpha,
    as_exact,
    at_least,
    base_join,
    base_leq,
    ceil,
    exact,
    gamma,
    grad_conc_contains,
    lifted_join,
    lifted_leq,
    precision_leq,
)
from .runtime import (
    Errored,
    Final,
    MachineState,
    Stepped,
    Stuck,
    grad_step,
    initial_state,
    lifted_desc,
    step,
)
from .record import Record, field, replace
from .syntax import (
    MAX_NESTING,
    EAnd,
    ECall,
    EField,
    ENew,
    ENull,
    EOr,
    EVar,
    Expr,
    FieldDecl,
    ProcDecl,
    Program,
    SAssign,
    SDecl,
    SFieldAssign,
    SIf,
    SReturn,
    SSkip,
    SWhile,
    ParseError,
    Stmt,
    _lex,
    check_surface,
    parse,
    render_program,
)

# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

# The shape of every generated program: at most MAX_PROCS procedures, at most
# MAX_STMTS statement draws per top-level block (half that in nested ones) and
# if/while nesting at most MAX_DEPTH deep.  The relative odds of each kind of
# statement are in _STMT_KINDS, after the generator.
MAX_PROCS = 3
MAX_STMTS = 6
MAX_DEPTH = 2


class GenConfig(Record, frozen=True):
    seed: int = 0
    annotation_density: float = 0.5


class _Scope:
    def __init__(self, declared: list[str], assigned: list[str]):
        self.declared = declared
        self.assigned = assigned

    def copy(self) -> "_Scope":
        return _Scope(list(self.declared), list(self.assigned))

    def assign(self, name: str) -> None:
        if name not in self.assigned:
            self.assigned.append(name)


class _Gen:
    def __init__(self, config: GenConfig):
        self.config = config
        self.rng = random.Random(f"picl-gen-{config.seed}")
        self.fields: tuple[str, ...] = ()
        self.sigs: list[tuple[str, GradAbst, GradAbst]] = []
        self.counter = 0

    def fresh(self) -> str:
        name = f"v{self.counter}"
        self.counter += 1
        return name

    def pick_ann(self) -> GradAbst:
        if self.rng.random() < self.config.annotation_density:
            return GradAbst.NONNULL if self.rng.random() < 0.35 else GradAbst.NULLABLE
        return GradAbst.UNKNOWN

    def bind_fresh(self, out: list[Stmt], scope: _Scope, expr: Expr) -> str:
        """Declare a fresh variable, assign it expr and add it to scope."""
        name = self.fresh()
        out += [SDecl(name), SAssign(name, expr)]
        scope.declared.append(name)
        scope.assign(name)
        return name

    def target(self, out: list[Stmt], scope: _Scope) -> str:
        if scope.declared and self.rng.random() < 0.7:
            return self.rng.choice(scope.declared)
        name = self.fresh()
        out.append(SDecl(name))
        scope.declared.append(name)
        return name

    # -- statements --------------------------------------------------------

    def gen_block(self, depth: int, scope: _Scope, avail: int) -> list[Stmt]:
        top = MAX_STMTS if depth == 0 else MAX_STMTS // 2
        out: list[Stmt] = []
        for _ in range(self.rng.randint(1, top)):
            self.gen_stmt(out, depth, scope, avail)
        return out

    def gen_stmt(self, out: list[Stmt], depth: int, scope: _Scope, avail: int) -> None:
        rules: list[Callable[..., None]] = []
        weights: list[float] = []
        for rule, weight, reads, calls, nests in _STMT_KINDS:
            if (reads and not scope.assigned) or (calls and avail == 0) or (nests and depth >= MAX_DEPTH):
                continue
            rules.append(rule)
            weights.append(weight)
        self.rng.choices(rules, weights)[0](self, out, depth, scope, avail)

    def _stmt_decl(self, out, depth, scope, avail) -> None:
        name = self.fresh()
        out.append(SDecl(name))
        scope.declared.append(name)
        if self.rng.random() < 0.7:
            out.append(SAssign(name, ENull()))
            scope.assign(name)

    def _stmt_skip(self, out, depth, scope, avail) -> None:
        out.append(SSkip())

    def _stmt_null(self, out, depth, scope, avail) -> None:
        x = self.target(out, scope)
        out.append(SAssign(x, ENull()))
        scope.assign(x)

    def _stmt_copy(self, out, depth, scope, avail) -> None:
        y = self.rng.choice(scope.assigned)
        x = self.target(out, scope)
        out.append(SAssign(x, EVar(y)))
        scope.assign(x)

    def _stmt_new(self, out, depth, scope, avail) -> None:
        x = self.target(out, scope)
        out.append(SAssign(x, ENew(self.fields)))
        scope.assign(x)

    def _stmt_bool(self, out, depth, scope, avail) -> None:
        a = self.rng.choice(scope.assigned)
        b = self.rng.choice(scope.assigned)
        x = self.target(out, scope)
        cls = EAnd if self.rng.random() < 0.5 else EOr
        out.append(SAssign(x, cls(EVar(a), EVar(b))))
        scope.assign(x)

    def _call_expr(self, scope: _Scope, avail: int) -> ECall:
        name, _, _ = self.sigs[self.rng.randrange(avail)]
        if scope.assigned and self.rng.random() < 0.7:
            arg: object = EVar(self.rng.choice(scope.assigned))
        else:
            arg = ENull()
        return ECall(name, arg)  # type: ignore[arg-type]

    def _stmt_call(self, out, depth, scope, avail) -> None:
        x = self.target(out, scope)
        out.append(SAssign(x, self._call_expr(scope, avail)))
        scope.assign(x)

    def _receiver(self, out: list[Stmt], scope: _Scope, avail: int) -> Optional[str]:
        """A variable to dereference, or None when the caller should guard."""
        r = self.rng.random()
        if r < 0.45 or (r < 0.92 and avail == 0):
            return self.bind_fresh(out, scope, ENew(self.fields))
        if r < 0.75:
            return None  # guard with a null test
        if r < 0.92:
            return self.bind_fresh(out, scope, self._call_expr(scope, avail))
        return self.rng.choice(scope.assigned)

    def _stmt_fieldread(self, out, depth, scope, avail) -> None:
        # The receiver is always distinct from the target: the transfer rule
        # for a field read narrows the receiver *name*, which only means
        # anything when the read does not overwrite it.
        f = self.rng.choice(self.fields)
        x = self.target(out, scope)
        others = [v for v in scope.assigned if v != x]
        recv = self._receiver(out, scope, avail) if others else None
        if recv == x:
            recv = None if others else recv
        if recv is None and not others:
            recv = self.bind_fresh(out, scope, ENew(self.fields))
        if recv is None:
            y = self.rng.choice(others)
            out.append(
                SIf(
                    "!=",
                    EVar(y),
                    (SAssign(x, EField(EVar(y), f)),),
                    (SAssign(x, ENull()),),
                )
            )
        else:
            out.append(SAssign(x, EField(EVar(recv), f)))
        scope.assign(x)

    def _stmt_fieldwrite(self, out, depth, scope, avail) -> None:
        f = self.rng.choice(self.fields)
        src = self.rng.choice(scope.assigned)
        recv = self._receiver(out, scope, avail)
        if recv is None:
            y = self.rng.choice(scope.assigned)
            out.append(SIf("!=", EVar(y), (SFieldAssign(y, f, src),), (SSkip(),)))
        else:
            out.append(SFieldAssign(recv, f, src))

    def _stmt_if(self, out, depth, scope, avail) -> None:
        y = self.rng.choice(scope.assigned)
        op = "!=" if self.rng.random() < 0.5 else "=="
        then_scope = scope.copy()
        els_scope = scope.copy()
        then = tuple(self.gen_block(depth + 1, then_scope, avail))
        els = tuple(self.gen_block(depth + 1, els_scope, avail))
        out.append(SIf(op, EVar(y), then, els))
        for v in then_scope.assigned:
            if v in els_scope.assigned and v in scope.declared:
                scope.assign(v)

    def _stmt_while(self, out, depth, scope, avail) -> None:
        if avail > 0 and self.rng.random() < 0.7:
            # The idiomatic retry loop: keep calling until non-null.
            x = self.rng.choice(scope.assigned)
            friendly = [i for i in range(avail) if self.sigs[i][1] is not GradAbst.NONNULL]
            idx = self.rng.choice(friendly) if friendly else self.rng.randrange(avail)
            name = self.sigs[idx][0]
            out.append(SWhile("==", EVar(x), (SAssign(x, ECall(name, EVar(x))),)))
            scope.assign(x)
            return
        y = self.rng.choice(scope.assigned)
        op = "!=" if self.rng.random() < 0.5 else "=="
        body_scope = scope.copy()
        body = self.gen_block(depth + 1, body_scope, avail)
        if self.rng.random() < 0.75:
            # Nudge the loop toward termination.
            body.append(SAssign(y, ENull() if op == "!=" else ENew(self.fields)))
        out.append(SWhile(op, EVar(y), tuple(body)))

    # -- program -----------------------------------------------------------

    def gen(self) -> Program:
        rng = self.rng
        pool = ["data", "next", "item"]
        self.fields = tuple(rng.sample(pool, rng.randint(1, 3)))
        fields = tuple(FieldDecl(n) for n in self.fields)

        nprocs = rng.randint(0, MAX_PROCS)
        procs: list[ProcDecl] = []
        for i in range(nprocs):
            name = f"proc{i}"
            param_ann = self.pick_ann()
            ret_ann = self.pick_ann()
            self.sigs.append((name, param_ann, ret_ann))
            scope = _Scope(declared=["p"], assigned=["p"])
            body = self.gen_block(0, scope, avail=i)
            if ret_ann is GradAbst.NONNULL and rng.random() < 0.85:
                body.append(SReturn(self.bind_fresh(body, scope, ENew(self.fields))))
            else:
                body.append(SReturn(rng.choice(scope.assigned)))
            procs.append(ProcDecl(name, ret_ann, "p", param_ann, tuple(body)))

        scope = _Scope(declared=[], assigned=[])
        main = self.gen_block(0, scope, avail=nprocs)
        if not scope.assigned:
            self.bind_fresh(main, scope, ENull())
        main.append(SReturn(rng.choice(scope.assigned)))
        return Program(fields, tuple(procs), tuple(main))


# Each kind of statement once, in draw order: its rule, its relative odds, and
# whether it needs an assigned variable to read, an earlier procedure to call
# or room to nest.  A kind whose need is unmet is left out of the draw.
_STMT_KINDS: tuple[tuple[Callable[..., None], float, bool, bool, bool], ...] = (
    (_Gen._stmt_decl, 1.2, False, False, False),
    (_Gen._stmt_null, 1.0, False, False, False),
    (_Gen._stmt_copy, 1.0, True, False, False),
    (_Gen._stmt_new, 1.4, False, False, False),
    (_Gen._stmt_bool, 0.8, True, False, False),
    (_Gen._stmt_fieldread, 1.2, True, False, False),
    (_Gen._stmt_fieldwrite, 0.7, True, False, False),
    (_Gen._stmt_call, 1.3, False, True, False),
    (_Gen._stmt_if, 1.0, True, False, True),
    (_Gen._stmt_while, 0.6, True, False, True),
    (_Gen._stmt_skip, 0.2, False, False, False),
)


def _generate(config: GenConfig) -> tuple[Program, ProgramCfg]:
    """One generated program and its graph, lowered once and checked surface- and CFG-valid."""
    p = _Gen(config).gen()
    errors = [d for d in check_surface(p) if d.severity == "error"]
    assert not errors, f"generator produced surface errors: {errors[:3]}"
    cfg = lower(p)
    bad = validate(cfg)
    assert not bad, f"generator produced a malformed graph: {bad[:3]}"
    return p, cfg


def gen_program(config: GenConfig) -> Program:
    """Deterministic program generation; always surface- and CFG-valid."""
    return _generate(config)[0]


def gen_graphs(config: GenConfig, n: int) -> list[ProgramCfg]:
    """The graphs of the n programs along the config's seed stream."""
    return [_generate(replace(config, seed=config.seed + i))[1] for i in range(n)]


def gen_valid_graphs(config: GenConfig, n: int) -> list[ProgramCfg]:
    """The graphs of the first n statically-valid programs along the config's seed stream."""
    found: list[ProgramCfg] = []
    i = 0
    while len(found) < n:
        if i >= 200 * max(n, 1):
            raise RuntimeError(f"validity yield too low: {len(found)}/{n} after {i} seeds")
        cfg = _generate(replace(config, seed=config.seed + i))[1]
        i += 1
        if not analyze(cfg)[1]:
            found.append(cfg)
    return found


def corpus_dir() -> Path:
    return Path(__file__).parent / "corpus"


def corpus_paths() -> list[Path]:
    return sorted(corpus_dir().glob("*.picl"))


# ---------------------------------------------------------------------------
# Oracle plumbing
# ---------------------------------------------------------------------------


# The failure texts a report keeps; later failures are counted, not kept.
_KEPT_FAILURES = 25


class OracleReport(Record):
    """An oracle's verdict: its name, the checks it made and the texts of its first failures."""

    name: str
    checks: int = field(default=0, init=False)
    failures: list[str] = field(init=False)

    def __post_init__(self) -> None:
        self.failures = []

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, message: str, *args: object) -> None:
        """Count one check; if it failed, keep message.format(*args), formatted only then."""
        self.checks += 1
        if not ok:
            if len(self.failures) < _KEPT_FAILURES:
                self.failures.append(message.format(*args))
            elif len(self.failures) == _KEPT_FAILURES:
                self.failures.append("... more failures suppressed")


# ---------------------------------------------------------------------------
# Lattice oracle
# ---------------------------------------------------------------------------

EXPECTED_HASSE: frozenset[tuple[GradAbst, GradAbst]] = frozenset(
    {
        (GradAbst.NULL, GradAbst.UNKNOWN_NULL),
        (GradAbst.UNKNOWN, GradAbst.UNKNOWN_NULL),
        (GradAbst.UNKNOWN, GradAbst.UNKNOWN_NONNULL),
        (GradAbst.NONNULL, GradAbst.UNKNOWN_NONNULL),
        (GradAbst.UNKNOWN_NULL, GradAbst.NULLABLE),
        (GradAbst.UNKNOWN_NONNULL, GradAbst.NULLABLE),
    }
)

EXPECTED_CEIL: dict[GradAbst, Abst] = {
    GradAbst.NULL: Abst.NULL,
    GradAbst.NONNULL: Abst.NONNULL,
    GradAbst.NULLABLE: Abst.NULLABLE,
    GradAbst.UNKNOWN: Abst.NULLABLE,
    GradAbst.UNKNOWN_NULL: Abst.NULLABLE,
    GradAbst.UNKNOWN_NONNULL: Abst.NULLABLE,
}


def _shape(g: GradAbst) -> tuple[str, Optional[Abst]]:
    a = as_exact(g)
    if a is not None:
        return "exact", a
    if g is GradAbst.UNKNOWN:
        return "unknown", None
    return "atleast", Abst.NULL if g is GradAbst.UNKNOWN_NULL else Abst.NONNULL


def closed_form_join(g1: GradAbst, g2: GradAbst) -> GradAbst:
    """The gradual join by case analysis on element shapes (no alpha)."""
    k1, a1 = _shape(g1)
    k2, a2 = _shape(g2)
    if k1 == "exact" and k2 == "exact":
        return exact(base_join(a1, a2))
    if k1 == "unknown" and k2 == "unknown":
        return GradAbst.UNKNOWN
    if k1 == "unknown":
        return g2 if k2 == "atleast" else at_least(a2)
    if k2 == "unknown":
        return g1 if k1 == "atleast" else at_least(a1)
    return at_least(base_join(a1, a2))


_FOUR = (GradAbst.NULL, GradAbst.NONNULL, GradAbst.NULLABLE, GradAbst.UNKNOWN)


def naive_alpha(baseset: frozenset[Abst]) -> GradAbst:
    """alpha restricted to a four-element lifting without ?Null/?NonNull."""
    if not baseset:
        raise ValueError("alpha of the empty set is undefined")
    meet = frozenset(ALL_ABST)
    for g in _FOUR:
        if baseset <= gamma(g):
            meet &= gamma(g)
    for g in _FOUR:
        if gamma(g) == meet:
            return g
    raise AssertionError("four-element alpha fell outside its image")


def naive_lifted_join(g1: GradAbst, g2: GradAbst) -> GradAbst:
    return naive_alpha(frozenset(base_join(a, b) for a in gamma(g1) for b in gamma(g2)))


def oracle_lattice() -> OracleReport:
    report = OracleReport("lattice")
    check = report.check

    # The base embedding: exact elements behave exactly like base elements.
    for a in ALL_ABST:
        for b in ALL_ABST:
            check(lifted_join(exact(a), exact(b)) is exact(base_join(a, b)), "embedding: join({}, {}) != base join", a, b)
            check(lifted_leq(exact(a), exact(b)) == base_leq(a, b), "embedding: leq({}, {}) != base order", a, b)

    # Semilattice laws.
    for a in ALL_GRAD:
        check(lifted_join(a, a) is a, "idempotence fails at {}", a)
        for b in ALL_GRAD:
            check(lifted_join(a, b) is lifted_join(b, a), "commutativity fails at ({}, {})", a, b)
            for c in ALL_GRAD:
                left = lifted_join(a, lifted_join(b, c))
                right = lifted_join(lifted_join(a, b), c)
                check(left is right, "associativity fails at ({}, {}, {}): {} != {}", a, b, c, left, right)

    # Closed form vs. the shipped join, all 36 pairs.
    for a in ALL_GRAD:
        for b in ALL_GRAD:
            want = closed_form_join(a, b)
            got = lifted_join(a, b)
            check(got is want, "join table: ({}, {}) -> {}, closed form says {}", a, b, got, want)

    # Galois conditions for every nonempty subset of base facts.
    subsets: list[frozenset[Abst]] = []
    for mask in range(1, 8):
        subsets.append(frozenset(a for i, a in enumerate(ALL_ABST) if mask & (1 << i)))
    for sub in subsets:
        ga = alpha(sub)
        check(sub <= gamma(ga), "alpha soundness fails on {}", set(sub))
        for g in ALL_GRAD:
            if sub <= gamma(g):
                check(precision_leq(ga, g), "alpha optimality fails on {}: alpha={} not below {}", set(sub), ga, g)

    # gamma is injective and alpha inverts it.
    seen: dict[frozenset[Abst], GradAbst] = {}
    for g in ALL_GRAD:
        dup = seen.get(gamma(g))
        check(dup is None, "gamma not injective: {} and {}", g, dup)
        seen[gamma(g)] = g
        check(alpha(gamma(g)) is g, "alpha(gamma({0})) != {0}", g)

    # Consistent order is definitionally the existential one.
    for a in ALL_GRAD:
        for b in ALL_GRAD:
            want = any(base_leq(x, y) for x in gamma(a) for y in gamma(b))
            check(lifted_leq(a, b) == want, "consistent order wrong at ({}, {})", a, b)

    # Induced order: Hasse diagram and height.
    strict = {
        (a, b)
        for a in ALL_GRAD
        for b in ALL_GRAD
        if a is not b and lifted_join(a, b) is b
    }
    hasse = {
        (a, b)
        for (a, b) in strict
        if not any((a, c) in strict and (c, b) in strict for c in ALL_GRAD)
    }
    check(
        hasse == EXPECTED_HASSE,
        "Hasse diagram differs: unexpected {}, missing {}",
        sorted(map(str, hasse - EXPECTED_HASSE)),
        sorted(map(str, EXPECTED_HASSE - hasse)),
    )

    def longest_from(g: GradAbst) -> int:
        return max((1 + longest_from(b) for (a, b) in hasse if a is g), default=0)

    height = max(longest_from(g) for g in ALL_GRAD)
    check(height == BASE_HEIGHT + 1, "height {}, expected {}", height, BASE_HEIGHT + 1)

    # Pessimistic reading.
    for g, want in EXPECTED_CEIL.items():
        check(ceil(g) is want, "ceil({}) = {}, expected {}", g, ceil(g), want)

    # Regression: the four-element lifting is not associative.
    left = naive_lifted_join(GradAbst.NULL, naive_lifted_join(GradAbst.NONNULL, GradAbst.UNKNOWN))
    right = naive_lifted_join(naive_lifted_join(GradAbst.NULL, GradAbst.NONNULL), GradAbst.UNKNOWN)
    check(left is GradAbst.UNKNOWN, "four-element left association gave {}, expected ?", left)
    check(right is GradAbst.NULLABLE, "four-element right association gave {}, expected Nullable", right)
    check(left is not right, "four-element lifting unexpectedly associative on (Null, NonNull, ?)")

    return report


# ---------------------------------------------------------------------------
# Local soundness oracle
# ---------------------------------------------------------------------------

_ANNS = (GradAbst.NONNULL, GradAbst.NULLABLE, GradAbst.UNKNOWN)
_VARS = ("x", "y", "z")
_FIELDS = ("f", "g")


def _single_cfg(ins) -> ProgramCfg:
    universe = frozenset(_VARS)
    if type(ins) is IBranch:
        instr = [ins, IIf(ins.var), IElse(ins.var), IReturn("x", GradAbst.NULLABLE)]
        succ: list[tuple[int, ...]] = [(1, 2), (3,), (3,), ()]
    else:
        instr, succ = [ins, IReturn("x", GradAbst.NULLABLE)], [(1,), ()]
    n = len(instr)
    return ProgramCfg(instr, [MAIN] * n, [(0, 0)] * n, succ, entry=0, proc_entry={}, universe={MAIN: universe})


def _call_cfg(ret_ann: GradAbst, param_ann: GradAbst) -> tuple[ProgramCfg, ICall, IProc]:
    call = ICall("x", "q", ret_ann, "y", param_ann)
    proc = IProc("q", ret_ann, "w", param_ann)
    cfg = ProgramCfg(
        [IMain(), call, IReturn("x", GradAbst.NULLABLE), proc, ICopy("r", "w"), IReturn("r", ret_ann)],
        [MAIN, MAIN, MAIN, "q", "q", "q"],
        [(0, 0)] * 6,
        [(1,), (2,), (), (4,), (5,), ()],
        entry=0,
        proc_entry={"q": 3},
        universe={MAIN: frozenset({"x", "y"}), "q": frozenset({"w", "r"})},
    )
    return cfg, call, proc


def _random_env(rng: random.Random, names) -> dict[str, int]:
    return {x: rng.randint(0, 3) for x in names}


def _random_heap(rng: random.Random) -> dict[int, dict[str, int]]:
    heap: dict[int, dict[str, int]] = {}
    for loc in (1, 2, 3):
        if rng.random() < 0.85:
            heap[loc] = {f: rng.randint(0, 3) for f in _FIELDS if rng.random() < 0.8}
    return heap


def _describing_sigma(rng: random.Random, env: dict[str, int], names) -> dict[str, GradAbst]:
    sigma: dict[str, GradAbst] = {}
    for x in names:
        if rng.random() < 0.25:
            continue  # leave undefined: unconstrained
        while True:
            g = rng.choice(ALL_GRAD)
            if x not in env or grad_conc_contains(g, env[x]):
                sigma[x] = g
                break
    return sigma


def _var(rng: random.Random) -> str:
    return rng.choice(_VARS)


def _field(rng: random.Random) -> str:
    return rng.choice(_FIELDS)


def _new(rng: random.Random) -> INew:
    n = rng.randint(1, len(_FIELDS))
    return INew(_var(rng), tuple(rng.sample(_FIELDS, n)))


def _fieldread(rng: random.Random) -> IFieldRead:
    # Distinct names: the field-read transfer narrows the receiver, so
    # the local-soundness claim is about reads that keep it around.
    # The aliased corner (x := x.f) is pinned by its own regression test.
    target = _var(rng)
    obj = rng.choice([w for w in _VARS if w != target])
    return IFieldRead(target, obj, _field(rng))


# One builder per instruction kind the oracle drives alone; each reads the rng
# left to right, so a seed draws the same instructions in the same order.
_INSTR_BUILDERS: tuple[Callable[[random.Random], object], ...] = (
    lambda rng: ICopy(_var(rng), _var(rng)),
    lambda rng: IConstNull(_var(rng)),
    _new,
    lambda rng: IAnd(_var(rng), _var(rng), _var(rng)),
    lambda rng: IOr(_var(rng), _var(rng), _var(rng)),
    _fieldread,
    lambda rng: IFieldWrite(_var(rng), _field(rng), _var(rng)),
    lambda rng: IBranch(_var(rng)),
    lambda rng: IIf(_var(rng)),
    lambda rng: IElse(_var(rng)),
    lambda rng: IMain(),
)


def oracle_local_soundness(trials: int = 10_000, seed: int = 0) -> OracleReport:
    """Stepping a described state lands in the pushed-through description.

    Each trial builds a graph, a state and a sigma describing its top frame,
    and names the instruction whose transfer judges the step and the region
    whose universe that transfer reads.  The region is named, not read from
    the stepped state, so a step to a wrong vertex cannot pick its own.  The
    parts of a failure's text are read before the step, which updates the
    state in place.
    """
    report = OracleReport("local-soundness")
    rng = random.Random(f"local-soundness-{seed}")
    for _ in range(trials):
        which = rng.random()
        if which < 0.7:
            ins = rng.choice(_INSTR_BUILDERS)(rng)
            cfg = _single_cfg(ins)
            env = _random_env(rng, _VARS)
            if type(ins) is IIf and env[ins.var] == 0:
                env[ins.var] = rng.randint(1, 3)
            if type(ins) is IElse:
                env[ins.var] = 0
            state = MachineState([(dict(env), 0)], _random_heap(rng))
            sigma = _describing_sigma(rng, env, _VARS)
            assert lifted_desc(env, sigma)
            judged, region = ins, MAIN
            where, parts = ": {!r} env={} sigma={}", (ins, env, sigma)
        elif which < 0.85:
            # Procedure entry: binding the parameter under its annotation.
            cfg, call, proc = _call_cfg(rng.choice(_ANNS), rng.choice(_ANNS))
            caller_env = _random_env(rng, ("x", "y"))
            state = MachineState([(caller_env, 1), ({}, 3)], _random_heap(rng))
            sigma = _describing_sigma(rng, {}, ("w", "r"))
            judged, region = proc, "q"
            where, parts = " at proc entry: {!r} arg={} sigma={}", (proc, caller_env["y"], sigma)
        else:
            # Return: the caller's frame steps by the call's transfer rule.
            cfg, call, proc = _call_cfg(rng.choice(_ANNS), rng.choice(_ANNS))
            caller_env = _random_env(rng, ("x", "y"))
            callee_env = _random_env(rng, ("w", "r"))
            state = MachineState([(caller_env, 1), (callee_env, 5)], _random_heap(rng))
            sigma = _describing_sigma(rng, caller_env, ("x", "y"))
            assert lifted_desc(caller_env, sigma)
            judged, region = call, MAIN
            where, parts = " at return: ret={} sigma={}", (callee_env["r"], sigma)
        out = step(cfg, state)
        if type(out) is not Stepped:
            continue  # a fault, or an argument or return value its annotation rejects: no step to judge
        report.check(
            lifted_desc(out.state.top.env, lifted_flow(judged, sigma, cfg.universe[region])),
            "local soundness fails" + where,
            *parts,
        )
    return report


# ---------------------------------------------------------------------------
# Proposition checks (per lowered program, reused by the test suite)
# ---------------------------------------------------------------------------


def lockstep(cfg1: ProgramCfg, step1: Callable, cfg2: ProgramCfg, step2: Callable, fuel: int) -> Optional[str]:
    """Where step1 on cfg1 and step2 on cfg2 first part ways, or None.

    Both run from their initial states, one step each at a time, until cfg1
    errors (nothing after that is constrained), both finish or fuel runs out.
    Until then both must step or both finish, in equal states; a stuck step
    on either side diverges.  States hold vertex ids, so the graphs number
    their vertices alike, as an erasure and its original do.  step never
    errors, so lockstep(cfg, step, cfg, grad_step, fuel) compares a graph's
    plain and checked runs.
    """
    s1, s2 = initial_state(cfg1), initial_state(cfg2)
    for k in range(fuel):
        o1 = step1(cfg1, s1)
        kind = type(o1)
        if kind is Errored:
            return None
        o2 = step2(cfg2, s2)
        if kind is Stuck or type(o2) is not kind or o1.state != o2.state:
            at1, at2 = o1.state.top.vertex, o2.state.top.vertex
            return f"step {k}: {kind.__name__} at v{at1} vs {type(o2).__name__} at v{at2}"
        if kind is Final:
            return None
    return None


def check_conservative_extension(cfg: ProgramCfg, fuel: int = 2000) -> list[str]:
    """Fully annotated programs: both analyses and both executions agree."""
    failures: list[str] = []
    rs, ws, _ = analyze(cfg, "static")
    rg, wg, sites = analyze(cfg, "gradual")
    for v in range(len(cfg.instr)):
        if {x: exact(a) for x, a in rs.pi[v].items()} != rg.pi[v]:
            failures.append(f"pi differs at v{v}: static {rs.pi[v]} vs gradual {rg.pi[v]}")
    if ws != wg:
        failures.append(f"warnings differ: static {len(ws)} vs gradual {len(wg)}")
    if sites:
        failures.append(f"fully annotated program has {len(sites)} check sites")
    if not wg:
        diverged = lockstep(cfg, step, cfg, grad_step, fuel)
        if diverged:
            failures.append(diverged)
    return failures


def check_erasure_guarantees(cfg1: ProgramCfg, subsets: list[set[str]], fuel: int = 2000) -> list[str]:
    """Statically valid cfg1: erasing annotation subsets keeps every guarantee."""
    failures: list[str] = []
    r1, w1, _ = analyze(cfg1)
    if w1:
        return ["precondition violated: program is not statically valid"]
    for subset in subsets:
        cfg2 = erase_annotations(cfg1, subset)
        if not precision_leq_cfg(cfg1, cfg2):
            failures.append(f"erasure {sorted(subset)} not precision-related")
            continue
        r2, w2, _ = analyze(cfg2)
        if w2:
            failures.append(f"erasure {sorted(subset)} introduced warnings: {w2[0].render()}")
        for v in range(len(cfg1.instr)):
            for x, g1 in r1.pi[v].items():
                g2 = r2.fact(v, x)
                if g2 is None:
                    failures.append(f"erasure {sorted(subset)}: pi lost {x} at v{v}")
                elif not (gamma(g1) <= gamma(g2)):
                    failures.append(
                        f"erasure {sorted(subset)}: denotation shrank at v{v}[{x}]: {g1} vs {g2}"
                    )
        diverged = lockstep(cfg1, grad_step, cfg2, grad_step, fuel)
        if diverged:
            failures.append(f"erasure {sorted(subset)}: {diverged}")
    return failures


def check_progress_and_sites(cfg: ProgramCfg, fuel: int = 2000, check_described: bool = False) -> list[str]:
    """Valid cfg under checked execution: no Stuck, errors only at check sites,
    and (optionally) every frame stays described by the fixpoint."""
    failures: list[str] = []
    r, warnings, checks = analyze(cfg)
    if warnings:
        return ["precondition violated: program is not statically valid"]
    sites = {(c.vertex, c.variable) for c in checks}
    pi = r.pi if check_described else []
    state = initial_state(cfg)
    for _ in range(fuel):
        if check_described:
            for env, v in state.frames:
                if not lifted_desc(env, pi[v]):
                    failures.append(f"frame at v{v} not described by fixpoint")
                    return failures
        out = grad_step(cfg, state)
        kind = type(out)
        if kind is Final:
            return failures
        if kind is Stuck:
            failures.append(f"stuck at v{out.vertex}: {out.reason}")
            return failures
        if kind is Errored:
            if (out.vertex, out.variable) not in sites:
                failures.append(
                    f"error at v{out.vertex} on {out.variable!r} is not a declared check site"
                )
            return failures
    return failures  # fuel exhausted: nothing to judge


def oracle_propositions(programs: int = 40, seed: int = 0, fuel: int = 1500) -> OracleReport:
    report = OracleReport("propositions")

    base = GenConfig(seed=seed, annotation_density=1.0)
    for cfg in gen_graphs(base, programs):
        for msg in check_conservative_extension(cfg, fuel):
            report.check(False, "[annotated seed-batch] {}", msg)
        report.check(True, "conservative extension")

    rng = random.Random(f"erasure-{seed}")
    for cfg in gen_valid_graphs(GenConfig(seed=seed + 100_000, annotation_density=0.6), programs):
        sites = [k for k, _ in annotation_sites(cfg)]
        subsets = [
            {s for s in sites if rng.random() < 0.5},
            set(sites),
        ]
        for msg in check_erasure_guarantees(cfg, subsets, fuel):
            report.check(False, "[erasure] {}", msg)
        report.check(True, "erasure guarantees")
        for msg in check_progress_and_sites(cfg, fuel, check_described=True):
            report.check(False, "[progress] {}", msg)
        report.check(True, "progress and check sites")

    return report


# ---------------------------------------------------------------------------
# Front-end fuzz oracle
# ---------------------------------------------------------------------------


def _token_run(rng: random.Random, toks: list[str]) -> tuple[int, int]:
    """A seeded run toks[i:j]: half the time from a statement boundary through the next `;`."""
    if rng.random() < 0.5:
        i = rng.choice([k + 1 for k, t in enumerate(toks) if t in (";", "{", "}")] or [0])
        return i, next((k + 1 for k in range(i, len(toks)) if toks[k] == ";"), i)
    i = rng.randrange(len(toks) + 1)
    return i, i + rng.randint(1, 4)


def _token_mutant(rng: random.Random, texts: list[str], donors: list[list[str]]) -> str:
    """One to three seeded edits of a token list.

    An edit deletes a run, duplicates one, splices in a donor's, or deletes
    everything from a run's start on, so that input ends in any state.
    """
    toks = list(texts)
    for _ in range(rng.randint(1, 3)):
        i, j = _token_run(rng, toks)
        edit = rng.randrange(4)
        if edit == 0:
            del toks[i:j]
        elif edit == 1:
            toks[i:i] = toks[i:j]
        elif edit == 2:
            donor = rng.choice(donors)
            a, b = _token_run(rng, donor)
            toks[i:i] = donor[a:b]
        else:
            del toks[i:]
    return " ".join(toks)


def _nested_sources(levels: int) -> list[str]:
    """A call nest and a block nest that open `levels` levels, the body counting as one."""
    inner = levels - 1
    calls = f"proc q(y) {{ return y; }} main {{ var z; z := {'q(' * inner}null{')' * inner}; return z; }}"
    blocks = f"main {{ var z; z := null; {'while (z != null) { ' * inner}skip;{' }' * inner} return z; }}"
    return [calls, blocks]


# How many seeded mutants oracle_frontend_fuzz makes of each corpus file.
_MUTANTS_PER_FILE = 10


def oracle_frontend_fuzz(seed: int = 0) -> OracleReport:
    """`check` survives token-level mutants of the corpus and nesting at the limit.

    Each corpus file gets _MUTANTS_PER_FILE seeded mutants (see _token_mutant); the
    nests sit at MAX_NESTING, which must parse, and one level past it, which
    must not.  Every input must make an in-process `check` exit 0, 1 or 2
    without raising, and print the same bytes when run again; every input that
    parses must come back from a render round trip equal.
    """
    report = OracleReport("frontend-fuzz")
    rng = random.Random(f"frontend-fuzz-{seed}")
    tokens = [_lex(path.read_text())[0][:-1] for path in corpus_paths()]
    cases = [
        (f"mutant{k}-{n}", _token_mutant(rng, texts, tokens), None)
        for k, texts in enumerate(tokens)
        for n in range(_MUTANTS_PER_FILE)
    ]
    for levels in (MAX_NESTING, MAX_NESTING + 1):
        cases += [(f"nest{levels}-{n}", src, levels <= MAX_NESTING) for n, src in enumerate(_nested_sources(levels))]

    def check(path: Path) -> tuple[object, str, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code: object = main(["check", str(path)])
        except Exception as exc:  # a finding of the oracle, not its own failure
            code = f"raised {type(exc).__name__}: {exc}"
        return code, out.getvalue(), err.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        for name, src, must_parse in cases:
            gc.collect(0)  # the last case's argparse trees: main defers the collector
            path = Path(tmp) / f"{name}.picl"
            path.write_text(src, encoding="utf-8")
            first = check(path)
            report.check(first[0] in (0, 1, 2), "{}: check gave {}, not exit 0, 1 or 2", name, first[0])
            report.check(check(path) == first, "{}: a second check printed other bytes", name)
            try:
                p: Optional[Program] = parse(src)
            except ParseError:
                p = None
            except Exception:
                continue  # the check above has reported it
            if must_parse is not None:
                report.check((p is not None) == must_parse, "{}: parse {}", name, "failed" if must_parse else "passed")
            if p is None:
                report.check(first[0] == 2, "{}: parse failed but check exited {}", name, first[0])
                continue
            try:
                report.check(parse(render_program(p)) == p, "{}: parse(render_program(p)) != p", name)
            except (ParseError, ValueError) as exc:
                report.check(False, "{}: render round trip raised {}", name, exc)
    return report
