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
  check sites while staying described by the fixpoint.
- oracle_frontend_fuzz feeds an in-process `check` seeded token-level
  mutants of the corpus and blocks and calls nested at the limit and one
  level past it: each must exit 0, 1 or 2 without raising and print the same
  bytes twice, and each that parses must survive a render round trip.
"""

from __future__ import annotations

import contextlib
import gc
import io
import random
import tempfile
from pathlib import Path
from typing import Callable, Optional

from .analysis import check_sites, kildall, lifted_flow, static_warnings
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
from .record import Record, replace
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
# MAX_STMTS statement draws per top-level block (half that in nested ones),
# if/while nesting at most MAX_DEPTH deep, and the relative odds of each kind
# of statement.
MAX_PROCS = 3
MAX_STMTS = 6
MAX_DEPTH = 2
STMT_WEIGHTS: tuple[tuple[str, float], ...] = (
    ("decl", 1.2),
    ("null", 1.0),
    ("copy", 1.0),
    ("new", 1.4),
    ("bool", 0.8),
    ("fieldread", 1.2),
    ("fieldwrite", 0.7),
    ("call", 1.3),
    ("if", 1.0),
    ("while", 0.6),
    ("skip", 0.2),
)


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
        kinds: list[str] = []
        weights: list[float] = []
        for kind, w in STMT_WEIGHTS:
            if kind in ("copy", "bool", "fieldread", "fieldwrite", "if", "while") and not scope.assigned:
                continue
            if kind == "call" and avail == 0:
                continue
            if kind in ("if", "while") and depth >= MAX_DEPTH:
                continue
            kinds.append(kind)
            weights.append(w)
        kind = self.rng.choices(kinds, weights)[0]
        getattr(self, f"_stmt_{kind}")(out, depth, scope, avail)

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


def gen_program(config: GenConfig) -> Program:
    """Deterministic program generation; always surface- and CFG-valid."""
    p = _Gen(config).gen()
    errors = [d for d in check_surface(p) if d.severity == "error"]
    assert not errors, f"generator produced surface errors: {errors[:3]}"
    bad = validate(lower(p))
    assert not bad, f"generator produced a malformed graph: {bad[:3]}"
    return p


def gen_programs(config: GenConfig, n: int) -> list[Program]:
    return [gen_program(replace(config, seed=config.seed + i)) for i in range(n)]


def gen_valid_programs(config: GenConfig, n: int) -> list[Program]:
    """First n statically-valid programs along the config's seed stream."""
    found: list[Program] = []
    i = 0
    while len(found) < n:
        if i >= 200 * max(n, 1):
            raise RuntimeError(f"validity yield too low: {len(found)}/{n} after {i} seeds")
        p = gen_program(replace(config, seed=config.seed + i))
        i += 1
        if not static_warnings(kildall(lower(p), "gradual")):
            found.append(p)
    return found


def corpus_dir() -> Path:
    return Path(__file__).parent / "corpus"


def corpus_paths() -> list[Path]:
    return sorted(corpus_dir().glob("*.picl"))


# ---------------------------------------------------------------------------
# Oracle plumbing
# ---------------------------------------------------------------------------


class OracleReport(Record):
    name: str
    passed: bool
    checks: int
    failures: list[str]


class _Checker:
    CAP = 25  # failure messages kept per oracle

    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            if len(self.failures) < self.CAP:
                self.failures.append(message)
            elif len(self.failures) == self.CAP:
                self.failures.append("... more failures suppressed")

    def report(self) -> OracleReport:
        return OracleReport(self.name, not self.failures, self.checks, self.failures)


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


def oracle_lattice(
    join_fn: Callable[[GradAbst, GradAbst], GradAbst] = lifted_join,
    leq_fn: Callable[[GradAbst, GradAbst], bool] = lifted_leq,
) -> OracleReport:
    ck = _Checker("lattice")

    # The base embedding: exact elements behave exactly like base elements.
    for a in ALL_ABST:
        for b in ALL_ABST:
            ck.check(
                join_fn(exact(a), exact(b)) is exact(base_join(a, b)),
                f"embedding: join({a}, {b}) != base join",
            )
            ck.check(
                leq_fn(exact(a), exact(b)) == base_leq(a, b),
                f"embedding: leq({a}, {b}) != base order",
            )

    # Semilattice laws.
    for a in ALL_GRAD:
        ck.check(join_fn(a, a) is a, f"idempotence fails at {a}")
        for b in ALL_GRAD:
            ck.check(join_fn(a, b) is join_fn(b, a), f"commutativity fails at ({a}, {b})")
            for c in ALL_GRAD:
                left = join_fn(a, join_fn(b, c))
                right = join_fn(join_fn(a, b), c)
                ck.check(left is right, f"associativity fails at ({a}, {b}, {c}): {left} != {right}")

    # Closed form vs. the shipped join, all 36 pairs.
    for a in ALL_GRAD:
        for b in ALL_GRAD:
            want = closed_form_join(a, b)
            got = join_fn(a, b)
            ck.check(got is want, f"join table: ({a}, {b}) -> {got}, closed form says {want}")

    # Galois conditions for every nonempty subset of base facts.
    subsets: list[frozenset[Abst]] = []
    for mask in range(1, 8):
        subsets.append(frozenset(a for i, a in enumerate(ALL_ABST) if mask & (1 << i)))
    for sub in subsets:
        ga = alpha(sub)
        ck.check(sub <= gamma(ga), f"alpha soundness fails on {set(sub)}")
        for g in ALL_GRAD:
            if sub <= gamma(g):
                ck.check(
                    precision_leq(ga, g),
                    f"alpha optimality fails on {set(sub)}: alpha={ga} not below {g}",
                )

    # gamma is injective and alpha inverts it.
    seen: dict[frozenset[Abst], GradAbst] = {}
    for g in ALL_GRAD:
        dup = seen.get(gamma(g))
        ck.check(dup is None, f"gamma not injective: {g} and {dup}")
        seen[gamma(g)] = g
        ck.check(alpha(gamma(g)) is g, f"alpha(gamma({g})) != {g}")

    # Consistent order is definitionally the existential one.
    for a in ALL_GRAD:
        for b in ALL_GRAD:
            want = any(base_leq(x, y) for x in gamma(a) for y in gamma(b))
            ck.check(leq_fn(a, b) == want, f"consistent order wrong at ({a}, {b})")

    # Induced order: Hasse diagram and height.
    strict = {
        (a, b)
        for a in ALL_GRAD
        for b in ALL_GRAD
        if a is not b and join_fn(a, b) is b
    }
    hasse = {
        (a, b)
        for (a, b) in strict
        if not any((a, c) in strict and (c, b) in strict for c in ALL_GRAD)
    }
    ck.check(
        hasse == set(EXPECTED_HASSE),
        f"Hasse diagram differs: unexpected {sorted(map(str, hasse - set(EXPECTED_HASSE)))}, "
        f"missing {sorted(map(str, set(EXPECTED_HASSE) - hasse))}",
    )

    def longest_from(g: GradAbst) -> int:
        return max((1 + longest_from(b) for (a, b) in hasse if a is g), default=0)

    height = max(longest_from(g) for g in ALL_GRAD)
    ck.check(height == BASE_HEIGHT + 1, f"height {height}, expected {BASE_HEIGHT + 1}")

    # Pessimistic reading.
    for g, want in EXPECTED_CEIL.items():
        ck.check(ceil(g) is want, f"ceil({g}) = {ceil(g)}, expected {want}")

    # Regression: the four-element lifting is not associative.
    left = naive_lifted_join(GradAbst.NULL, naive_lifted_join(GradAbst.NONNULL, GradAbst.UNKNOWN))
    right = naive_lifted_join(naive_lifted_join(GradAbst.NULL, GradAbst.NONNULL), GradAbst.UNKNOWN)
    ck.check(left is GradAbst.UNKNOWN, f"four-element left association gave {left}, expected ?")
    ck.check(right is GradAbst.NULLABLE, f"four-element right association gave {right}, expected Nullable")
    ck.check(left is not right, "four-element lifting unexpectedly associative on (Null, NonNull, ?)")

    return ck.report()


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


def _random_instr(rng: random.Random):
    kind = rng.choice(
        (
            "copy",
            "null",
            "new",
            "and",
            "or",
            "fieldread",
            "fieldwrite",
            "branch",
            "if",
            "else",
            "main",
        )
    )
    v = lambda: rng.choice(_VARS)
    f = lambda: rng.choice(_FIELDS)
    if kind == "copy":
        return ICopy(v(), v())
    if kind == "null":
        return IConstNull(v())
    if kind == "new":
        n = rng.randint(1, len(_FIELDS))
        return INew(v(), tuple(rng.sample(_FIELDS, n)))
    if kind == "and":
        return IAnd(v(), v(), v())
    if kind == "or":
        return IOr(v(), v(), v())
    if kind == "fieldread":
        # Distinct names: the field-read transfer narrows the receiver, so
        # the local-soundness claim is about reads that keep it around.
        # The aliased corner (x := x.f) is pinned by its own regression test.
        target = v()
        obj = rng.choice([w for w in _VARS if w != target])
        return IFieldRead(target, obj, f())
    if kind == "fieldwrite":
        return IFieldWrite(v(), f(), v())
    if kind == "branch":
        return IBranch(v())
    if kind == "if":
        return IIf(v())
    if kind == "else":
        return IElse(v())
    return IMain()


def oracle_local_soundness(trials: int = 10_000, seed: int = 0) -> OracleReport:
    """Stepping a described state lands in the pushed-through description."""
    ck = _Checker("local-soundness")
    rng = random.Random(f"local-soundness-{seed}")
    for _ in range(trials):
        which = rng.random()
        if which < 0.7:
            ins = _random_instr(rng)
            cfg = _single_cfg(ins)
            env = _random_env(rng, _VARS)
            if type(ins) is IIf and env[ins.var] == 0:
                env[ins.var] = rng.randint(1, 3)
            if type(ins) is IElse:
                env[ins.var] = 0
            state = MachineState([(dict(env), 0)], _random_heap(rng))
            sigma = _describing_sigma(rng, env, _VARS)
            assert lifted_desc(env, sigma)
            out = step(cfg, state)
            if type(out) is not Stepped:
                continue
            ck.check(
                lifted_desc(out.state.top.env, lifted_flow(ins, sigma, cfg.universe[MAIN])),
                f"local soundness fails: {ins!r} env={env} sigma={sigma}",
            )
        elif which < 0.85:
            # Procedure entry: binding the parameter under its annotation.
            cfg, call, proc = _call_cfg(rng.choice(_ANNS), rng.choice(_ANNS))
            caller_env = _random_env(rng, ("x", "y"))
            state = MachineState([(caller_env, 1), ({}, 3)], _random_heap(rng))
            sigma = _describing_sigma(rng, {}, ("w", "r"))
            out = step(cfg, state)
            if type(out) is not Stepped:
                continue  # argument violated the annotation: no step to judge
            ck.check(
                lifted_desc(out.state.top.env, lifted_flow(proc, sigma, cfg.universe["q"])),
                f"local soundness fails at proc entry: {proc!r} arg={caller_env['y']} sigma={sigma}",
            )
        else:
            # Return: the caller's frame steps by the call's transfer rule.
            cfg, call, proc = _call_cfg(rng.choice(_ANNS), rng.choice(_ANNS))
            caller_env = _random_env(rng, ("x", "y"))
            callee_env = _random_env(rng, ("w", "r"))
            state = MachineState([(caller_env, 1), (callee_env, 5)], _random_heap(rng))
            sigma = _describing_sigma(rng, caller_env, ("x", "y"))
            assert lifted_desc(caller_env, sigma)
            out = step(cfg, state)
            if type(out) is not Stepped:
                continue  # return value violated the annotation
            ck.check(
                lifted_desc(out.state.top.env, lifted_flow(call, sigma, cfg.universe[MAIN])),
                f"local soundness fails at return: ret={callee_env['r']} sigma={sigma}",
            )
    return ck.report()


# ---------------------------------------------------------------------------
# Proposition checks (per program, reused by the test suite)
# ---------------------------------------------------------------------------


def lockstep_modes(cfg: ProgramCfg, fuel: int) -> Optional[str]:
    """Plain and checked execution agree step for step (annotated + valid)."""
    s_plain = initial_state(cfg)
    s_grad = initial_state(cfg)
    for k in range(fuel):
        o1 = step(cfg, s_plain)
        o2 = grad_step(cfg, s_grad)
        if type(o1) is not type(o2):
            return f"step {k}: plain {type(o1).__name__} vs checked {type(o2).__name__}"
        kind = type(o1)
        if kind is Final:
            return None if o1.state == o2.state else f"step {k}: final states differ"
        if kind is Stuck or kind is Errored:
            return f"step {k}: unexpected {kind.__name__}"
        assert kind is Stepped
        if o1.state != o2.state:
            return f"step {k}: states diverge at v{o1.state.top.vertex}/v{o2.state.top.vertex}"
    return None


def lockstep_precision(cfg1: ProgramCfg, cfg2: ProgramCfg, fuel: int) -> Optional[str]:
    """Erasing annotations cannot change behavior before the first error.

    cfg1 is the more annotated program, cfg2 its erasure; vertex ids align.
    Comparison stops at cfg1's first error (cfg2 is unconstrained after).
    """
    s1 = initial_state(cfg1)
    s2 = initial_state(cfg2)
    for k in range(fuel):
        o1 = grad_step(cfg1, s1)
        kind = type(o1)
        if kind is Errored:
            return None
        o2 = grad_step(cfg2, s2)
        if kind is Final:
            if type(o2) is Final and o1.state == o2.state:
                return None
            return f"step {k}: precise program final, erased program {type(o2).__name__}"
        if kind is Stuck:
            return f"step {k}: precise program stuck ({o1.reason})"
        if type(o2) is not Stepped:
            return f"step {k}: erased program stopped early with {type(o2).__name__}"
        assert kind is Stepped
        if o1.state != o2.state:
            return f"step {k}: states diverge at v{o1.state.top.vertex}/v{o2.state.top.vertex}"
    return None


def check_conservative_extension(p: Program, fuel: int = 2000) -> list[str]:
    """Fully annotated programs: both analyses and both executions agree."""
    failures: list[str] = []
    cfg = lower(p)
    rs = kildall(cfg, "static")
    rg = kildall(cfg, "gradual")
    for v in range(len(cfg.instr)):
        if {x: exact(a) for x, a in rs.pi[v].items()} != rg.pi[v]:
            failures.append(f"pi differs at v{v}: static {rs.pi[v]} vs gradual {rg.pi[v]}")
    ws, wg = static_warnings(rs), static_warnings(rg)
    if ws != wg:
        failures.append(f"warnings differ: static {len(ws)} vs gradual {len(wg)}")
    sites = check_sites(rg)
    if sites:
        failures.append(f"fully annotated program has {len(sites)} check sites")
    if not wg:
        diverged = lockstep_modes(cfg, fuel)
        if diverged:
            failures.append(diverged)
    return failures


def check_erasure_guarantees(p: Program, subsets: list[set[str]], fuel: int = 2000) -> list[str]:
    """Statically valid p: erasing annotation subsets keeps every guarantee."""
    failures: list[str] = []
    cfg1 = lower(p)
    r1 = kildall(cfg1, "gradual")
    if static_warnings(r1):
        return ["precondition violated: program is not statically valid"]
    for subset in subsets:
        cfg2 = erase_annotations(cfg1, subset)
        if not precision_leq_cfg(cfg1, cfg2):
            failures.append(f"erasure {sorted(subset)} not precision-related")
            continue
        r2 = kildall(cfg2, "gradual")
        w2 = static_warnings(r2)
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
        diverged = lockstep_precision(cfg1, cfg2, fuel)
        if diverged:
            failures.append(f"erasure {sorted(subset)}: {diverged}")
    return failures


def check_progress_and_sites(p: Program, fuel: int = 2000, check_described: bool = False) -> list[str]:
    """Valid p under checked execution: no Stuck, errors only at check sites,
    and (optionally) every frame stays described by the fixpoint."""
    failures: list[str] = []
    cfg = lower(p)
    r = kildall(cfg, "gradual")
    if static_warnings(r):
        return ["precondition violated: program is not statically valid"]
    sites = {(c.vertex, c.variable) for c in check_sites(r)}
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
    ck = _Checker("propositions")

    base = GenConfig(seed=seed, annotation_density=1.0)
    for p in gen_programs(base, programs):
        for msg in check_conservative_extension(p, fuel):
            ck.check(False, f"[annotated seed-batch] {msg}")
        ck.check(True, "conservative extension")

    rng = random.Random(f"erasure-{seed}")
    valid = gen_valid_programs(GenConfig(seed=seed + 100_000, annotation_density=0.6), programs)
    for p in valid:
        sites = [k for k, _ in annotation_sites(lower(p))]
        subsets = [
            {s for s in sites if rng.random() < 0.5},
            set(sites),
        ]
        for msg in check_erasure_guarantees(p, subsets, fuel):
            ck.check(False, f"[erasure] {msg}")
        ck.check(True, "erasure guarantees")
        for msg in check_progress_and_sites(p, fuel, check_described=True):
            ck.check(False, f"[progress] {msg}")
        ck.check(True, "progress and check sites")

    return ck.report()


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
    ck = _Checker("frontend-fuzz")
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
            ck.check(first[0] in (0, 1, 2), f"{name}: check gave {first[0]}, not exit 0, 1 or 2")
            ck.check(check(path) == first, f"{name}: a second check printed other bytes")
            try:
                p: Optional[Program] = parse(src)
            except ParseError:
                p = None
            except Exception:
                continue  # the check above has reported it
            if must_parse is not None:
                ck.check((p is not None) == must_parse, f"{name}: parse {'failed' if must_parse else 'passed'}")
            if p is None:
                ck.check(first[0] == 2, f"{name}: parse failed but check exited {first[0]}")
                continue
            try:
                ck.check(parse(render_program(p)) == p, f"{name}: parse(render_program(p)) != p")
            except (ParseError, ValueError) as exc:
                ck.check(False, f"{name}: render round trip raised {exc}")
    return ck.report()
