"""Dataflow analysis: nullness facts per vertex, warnings, check sites.

One transfer function, ``lifted_flow``, interprets each instruction over
partial maps from variables to gradual facts.  The static analysis is the
gradual fixpoint of a fully annotated program projected back to base facts
through ``as_exact``: on exact inputs every rule yields exact outputs, so the
projection loses nothing, and ``flow`` is that projection for a single
instruction.  A transfer rule that writes a constant ignores its input; a
rule that reads an operand drops its target when the operand is not yet
defined.  Entry instructions (main, proc) ignore their input entirely and
seed every variable of the procedure's universe with Null, then bind the
parameter to its annotation.

The only rules where gradualization needs more than "run the same rule on
gradual inputs" are the boolean operators: their case analysis branches on
exact base facts, so the gradual version enumerates the denotations of both
operand facts, pushes each pair through the base rule, and abstracts the
result set back.

Fixpoints come from a worklist iteration seeded with every vertex (initial
fact: the empty map, the bottom of the partial-map order).  The result is
order-independent; the default order is reverse postorder per procedure.

Validity splits per position into three verdicts: the fact is consistent
with the safety bound (fine), plausibly consistent but not provably so
(a run-time check site), or provably inconsistent (a static warning).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Literal, Optional

from .cfg import (
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
    Instr,
    ProgramCfg,
    Vertex,
    reverse_postorder,
)
from .lattice import (
    Abst,
    GradAbst,
    alpha,
    as_exact,
    base_leq,
    ceil,
    exact,
    gamma,
    lifted_join,
    lifted_leq,
)

BaseState = dict[str, Abst]
GradState = dict[str, GradAbst]

WARN_STATIC = "GRADUAL_STATIC"
WARN_CHECK = "GRADUAL_CHECK"
WARN_BOUNDARY = "GRADUAL_BOUNDARY"


def _exact_ann(ann: GradAbst) -> Abst:
    a = as_exact(ann)
    if a is None:
        raise ValueError("static analysis requires a fully annotated program (no '?')")
    return a


# ---------------------------------------------------------------------------
# Boolean case rules (base domain)
# ---------------------------------------------------------------------------


def _and_case(a: Abst, b: Abst) -> Abst:
    # null short-circuits: the result is null iff either side can only be
    # null; definite non-nullness needs both sides definite.
    if Abst.NULL in (a, b):
        return Abst.NULL
    if Abst.NULLABLE in (a, b):
        return Abst.NULLABLE
    return Abst.NONNULL


def _or_case(a: Abst, b: Abst) -> Abst:
    if Abst.NONNULL in (a, b):
        return Abst.NONNULL
    if Abst.NULLABLE in (a, b):
        return Abst.NULLABLE
    return Abst.NULL


def _lift_case(rule: Callable[[Abst, Abst], Abst], g1: GradAbst, g2: GradAbst) -> GradAbst:
    return alpha(rule(a, b) for a in gamma(g1) for b in gamma(g2))


# ---------------------------------------------------------------------------
# Transfer functions
# ---------------------------------------------------------------------------


def lifted_flow(ins: Instr, sigma: GradState, universe: frozenset[str]) -> GradState:
    """Gradual transfer function; annotations flow through unconverted."""
    if isinstance(ins, ICopy):
        out = dict(sigma)
        if ins.source in sigma:
            out[ins.target] = sigma[ins.source]
        else:
            out.pop(ins.target, None)
        return out
    if isinstance(ins, IConstNull):
        return {**sigma, ins.target: GradAbst.NULL}
    if isinstance(ins, ICall):
        return {**sigma, ins.target: ins.ret_ann}
    if isinstance(ins, INew):
        return {**sigma, ins.target: GradAbst.NONNULL}
    if isinstance(ins, (IAnd, IOr)):
        rule = _and_case if isinstance(ins, IAnd) else _or_case
        out = dict(sigma)
        if ins.left in sigma and ins.right in sigma:
            out[ins.target] = _lift_case(rule, sigma[ins.left], sigma[ins.right])
        else:
            out.pop(ins.target, None)
        return out
    if isinstance(ins, IFieldRead):
        # Reading narrows the receiver; when target and receiver coincide
        # the receiver fact wins (the write order below is load-bearing).
        out = dict(sigma)
        out[ins.target] = GradAbst.NULLABLE
        out[ins.obj] = GradAbst.NONNULL
        return out
    if isinstance(ins, IFieldWrite):
        return {**sigma, ins.obj: GradAbst.NONNULL}
    if isinstance(ins, IBranch):
        return dict(sigma)
    if isinstance(ins, IIf):
        return {**sigma, ins.var: GradAbst.NONNULL}
    if isinstance(ins, IElse):
        return {**sigma, ins.var: GradAbst.NULL}
    if isinstance(ins, IReturn):
        return dict(sigma)
    if isinstance(ins, IMain):
        return {x: GradAbst.NULL for x in sorted(universe)}
    if isinstance(ins, IProc):
        out = {x: GradAbst.NULL for x in sorted(universe)}
        out[ins.param] = ins.param_ann
        return out
    raise AssertionError(f"unknown instruction {ins!r}")


def flow(ins: Instr, sigma: BaseState, universe: frozenset[str]) -> BaseState:
    """Base transfer function: lifted_flow on exact facts, projected back.

    Raises ValueError when the instruction writes a '?' annotation.
    """
    out = lifted_flow(ins, {x: exact(a) for x, a in sigma.items()}, universe)
    return {x: _exact_ann(g) for x, g in out.items()}


# ---------------------------------------------------------------------------
# Safety bounds
# ---------------------------------------------------------------------------


def safe(ins: Instr, x: str) -> Abst:
    """Strongest fact x must satisfy for the instruction to be safe."""
    return _exact_ann(lifted_safe(ins, x))


def _safety_bounds(ins: Instr) -> tuple[tuple[str, GradAbst], ...]:
    """(variable, safety bound) for the operand that can be constrained, if any."""
    if isinstance(ins, ICall):
        return ((ins.arg, ins.arg_ann),)
    if isinstance(ins, IReturn):
        return ((ins.var, ins.ann),)
    if isinstance(ins, (IFieldRead, IFieldWrite)):
        return ((ins.obj, GradAbst.NONNULL),)
    return ()


def lifted_safe(ins: Instr, x: str) -> GradAbst:
    return next((bound for y, bound in _safety_bounds(ins) if y == x), GradAbst.NULLABLE)


def constrained_vars(ins: Instr) -> tuple[str, ...]:
    """Variables whose safety bound at this instruction can be non-trivial."""
    return tuple(x for x, _ in _safety_bounds(ins))


def site_category(ins: Instr) -> str:
    """Check category: dereferences get CHECK, procedure boundaries BOUNDARY."""
    if isinstance(ins, (IFieldRead, IFieldWrite)):
        return WARN_CHECK
    return WARN_BOUNDARY


# ---------------------------------------------------------------------------
# Fixpoint
# ---------------------------------------------------------------------------


def _state_join(s1: GradState, s2: GradState) -> GradState:
    # Union-join: a variable undefined on one side contributes the other
    # side's fact (the empty map is bottom).  Joining a fact with itself
    # keeps it, so the table lookup runs only when the facts differ.  A
    # join into bottom is a copy, and one with an equal state returns s1
    # itself; only true merges reach the loop.
    if not s1:
        return dict(s2)
    if s1 == s2:
        return s1
    out = dict(s1)
    for x, g in s2.items():
        f = out.get(x)
        if f is not g:
            out[x] = g if f is None else lifted_join(f, g)
    return out


Mode = Literal["static", "gradual"]


@dataclass
class AnalysisResult:
    cfg: ProgramCfg
    mode: Mode
    pi: list[dict]  # vertex id -> partial map variable -> Abst | GradAbst
    grad_pi: list[GradState]  # the gradual fixpoint; pi projects it in static mode


def kildall(
    cfg: ProgramCfg,
    mode: Mode = "gradual",
    seed_order: Optional[Iterable[int]] = None,
) -> AnalysisResult:
    """Worklist fixpoint of the gradual transfer function.

    Every vertex starts at the empty map and is processed at least once;
    a successor re-enters the worklist whenever its fact grows.  The result
    does not depend on seed_order (that is a tested property, not a hope).

    Static mode is the same fixpoint projected to base facts.  A '?' enters
    the fixpoint only as a call result or a parameter annotation, and those
    are checked up front: the projection alone would miss a '?' that a join
    absorbs (? + Nullable = Nullable).
    """
    if mode == "static":
        for vertex in cfg.vertices:
            if isinstance(vertex.instr, ICall):
                _exact_ann(vertex.instr.ret_ann)
            elif isinstance(vertex.instr, IProc):
                _exact_ann(vertex.instr.param_ann)

    pi: list[dict] = [{} for _ in cfg.vertices]
    order = list(seed_order) if seed_order is not None else reverse_postorder(cfg)
    assert sorted(order) == sorted(v.id for v in cfg.vertices), "seed order must cover every vertex"
    work = deque(order)
    queued = set(order)
    while work:
        v = work.popleft()
        queued.discard(v)
        out = lifted_flow(cfg.instr(v), pi[v], cfg.universe[cfg.vertices[v].proc])
        for u in cfg.successors(v):
            grown = _state_join(pi[u], out)
            if grown is not pi[u] and grown != pi[u]:
                pi[u] = grown
                if u not in queued:
                    work.append(u)
                    queued.add(u)
    grad_pi = pi
    if mode == "static":
        pi = [{x: _exact_ann(g) for x, g in s.items()} for s in grad_pi]
    return AnalysisResult(cfg=cfg, mode=mode, pi=pi, grad_pi=grad_pi)


# ---------------------------------------------------------------------------
# Warnings and check sites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """A reportable position: static warning or run-time check placement."""

    category: str
    proc: str
    vertex: int
    line: int
    col: int
    variable: str
    required: str
    found: str

    def to_json(self) -> dict:
        return {
            "category": self.category,
            "proc": self.proc,
            "vertex": self.vertex,
            "line": self.line,
            "col": self.col,
            "variable": self.variable,
            "required": self.required,
            "found": self.found,
        }

    def render(self) -> str:
        return (
            f"{self.line}:{self.col}: {self.category}: {self.variable!r} is {self.found}, "
            f"position requires {self.required} ({self.proc}, v{self.vertex})"
        )


def _positions(result: AnalysisResult):
    """Constrained (vertex, variable, fact, bound) tuples in report order."""
    pi = result.grad_pi
    for vertex in result.cfg.vertices:
        sigma = pi[vertex.id]
        for x, bound in _safety_bounds(vertex.instr):
            if x not in sigma:
                # Never reached with x defined; nothing to judge.
                continue
            yield vertex, x, sigma[x], bound


def _finding(category: str, vertex: Vertex, x: str, found: GradAbst, bound: GradAbst) -> Finding:
    line, col = vertex.pos
    return Finding(category, vertex.proc, vertex.id, line, col, x, str(ceil(bound)), str(found))


def static_warnings(result: AnalysisResult) -> list[Finding]:
    """Positions whose fact is inconsistent with the safety bound."""
    return [
        _finding(WARN_STATIC, vertex, x, found, bound)
        for vertex, x, found, bound in _positions(result)
        if not lifted_leq(found, bound)
    ]


def check_sites(result: AnalysisResult) -> list[Finding]:
    """Positions that pass only optimistically and need a run-time check.

    The fact is consistent with the bound, but its pessimistic reading is
    not: some denoted base fact would violate the bound, so the gradual
    semantics guards the instruction.
    """
    return [
        _finding(site_category(vertex.instr), vertex, x, found, bound)
        for vertex, x, found, bound in _positions(result)
        if lifted_leq(found, bound) and not base_leq(ceil(found), ceil(bound))
    ]


def analyze(cfg: ProgramCfg, mode: Mode = "gradual") -> tuple[AnalysisResult, list[Finding], list[Finding]]:
    """Fixpoint plus derived findings: (result, warnings, checks)."""
    result = kildall(cfg, mode)
    return result, static_warnings(result), check_sites(result)
