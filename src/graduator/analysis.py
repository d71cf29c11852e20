"""Dataflow analysis: nullness facts per vertex, warnings, check sites.

One transfer function interprets each instruction over gradual facts.  The
fixpoint runs it on byte-coded states: each procedure's variables are
numbered in sorted order, a fact is one byte (0 where the variable is
undefined, else 1 + its index in ``ALL_GRAD``), and a state is one byte per
variable.  ``lifted_flow`` applies the same byte rules to a partial map from
variables to facts, encoding it and decoding the result.  The static
analysis is the gradual fixpoint of a fully annotated program read through
``as_exact``: on exact inputs every rule yields exact outputs, so the
projection loses nothing, and ``flow`` is that projection for a single
instruction.  A transfer rule that writes a constant ignores its input; a
rule that reads an operand drops its target when the operand is not yet
defined.  Entry instructions (main, proc) ignore their input entirely and
seed every variable of the procedure's universe with Null, then bind the
parameter to its annotation.

The only rules where gradualization needs more than "run the same rule on
gradual inputs" are the boolean operators: their case analysis branches on
exact base facts, so the gradual version is ``lattice.lift`` of the base
rule, as the gradual join is of the base join.  Those results, and the
join's, are tabulated once per pair of fact bytes.

Rules are built once per vertex visit, by dispatch on the instruction's
type, and not kept: the fixpoint holds its states and no list of rules.  The
tables of the constants Null, NonNull and Nullable are resolved at import.

Fixpoints come from a worklist iteration seeded with every vertex (initial
state: bottom, every variable undefined).  The result is order-independent;
the default order is the vertex order, which lowering makes a topological
order up to loop back edges, so most vertices see their predecessors' final
states on their first visit.  ``AnalysisResult`` keeps the byte states:
``pi`` and ``grad_pi`` decode them into per-vertex maps once, on first
read, and ``fact(v, x)`` reads one fact.

Validity splits per position into three verdicts: the fact is consistent
with the safety bound (fine), plausibly consistent but not provably so
(a run-time check site), or provably inconsistent (a static warning).  A 7 x 7
table over (fact byte, bound byte), built at import from ``lifted_leq`` and
``base_leq`` on ceilings, holds every verdict; ``findings`` reads each
position's fact byte from the states and looks its verdict up, in one walk
over the vertices.
"""

from __future__ import annotations

from collections import deque
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
)
from .lattice import (
    ALL_GRAD,
    Abst,
    GradAbst,
    as_exact,
    base_leq,
    ceil,
    exact,
    lift,
    lifted_join,
    lifted_leq,
)
from .record import Record, field

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


# ---------------------------------------------------------------------------
# Byte-coded states
# ---------------------------------------------------------------------------

# A fact is one byte: 0 where the variable is undefined, else 1 + its index
# in ALL_GRAD.  A state is one byte per variable, numbered in sorted order.
_FACT: tuple[Optional[GradAbst], ...] = (None, *ALL_GRAD)
_CODE: dict[Optional[GradAbst], int] = {g: c for c, g in enumerate(_FACT)}


def _table(rule: Callable[[Optional[GradAbst], Optional[GradAbst]], Optional[GradAbst]]) -> bytes:
    """A bytes.translate table whose entry 7a + b codes rule on the facts coded a and b.

    7 * 6 + 6 = 48, so a whole state of such digits fits in base 256 with
    no carry between bytes.
    """
    return bytes(_CODE[rule(_FACT[a], _FACT[b])] for a in range(7) for b in range(7)).ljust(256, b"\0")


# The union-join: an undefined side contributes the other side's fact.
_JOIN = _table(lambda f, g: g if f is None else f if g is None else lifted_join(f, g))
# && and ||: an undefined operand leaves the target undefined.
_AND, _OR = (
    _table(lambda f, g: None if f is None or g is None else lift(rule, f, g)) for rule in (_and_case, _or_case)
)
_COPY = _table(lambda f, g: g)
_CONST = {c: _table(lambda f, g, c=c: c) for c in _FACT}


def _decode(state: bytes, names: Iterable[str]) -> GradState:
    """The partial map a state codes over the given variable names."""
    if 0 in state:
        return {x: _FACT[c] for x, c in zip(names, state) if c}
    return dict(zip(names, map(_FACT.__getitem__, state)))


# A rule is the tuple of byte writes one instruction makes, in order:
# (t, a, b, table) sets byte t to table[7 * a + b], where a and b are the
# input state's bytes at the operand indices (a constant's table ignores them).
_Write = tuple[int, int, int, bytes]


_NULL, _NONNULL, _NULLABLE = (_CONST[g] for g in (GradAbst.NULL, GradAbst.NONNULL, GradAbst.NULLABLE))


def _entry_rule(ins: IMain | IProc, index: dict[str, int], universe: Iterable[str]) -> tuple[_Write, ...]:
    # An entry writes every byte: Null over universe, undefined elsewhere.
    facts = dict.fromkeys(index, _CONST[None]) | dict.fromkeys(universe, _NULL)
    if type(ins) is IProc:
        facts[ins.param] = _CONST[ins.param_ann]
    return tuple((index[x], 0, 0, table) for x, table in facts.items())


# The rule of each instruction type, as a function of (ins, index, universe).
_RULES: dict[type, Callable[..., tuple[_Write, ...]]] = {
    IBranch: lambda ins, index, universe: (),
    IReturn: lambda ins, index, universe: (),
    IMain: _entry_rule,
    IProc: _entry_rule,
    # Reading narrows the receiver; when target and receiver coincide the
    # receiver fact wins (the write order is load-bearing).
    IFieldRead: lambda ins, index, universe: (
        (index[ins.target], 0, 0, _NULLABLE),
        (index[ins.obj], 0, 0, _NONNULL),
    ),
    IAnd: lambda ins, index, universe: ((index[ins.target], index[ins.left], index[ins.right], _AND),),
    IOr: lambda ins, index, universe: ((index[ins.target], index[ins.left], index[ins.right], _OR),),
    ICopy: lambda ins, index, universe: ((index[ins.target], index[ins.source], index[ins.source], _COPY),),
    IConstNull: lambda ins, index, universe: ((index[ins.target], 0, 0, _NULL),),
    ICall: lambda ins, index, universe: ((index[ins.target], 0, 0, _CONST[ins.ret_ann]),),
    INew: lambda ins, index, universe: ((index[ins.target], 0, 0, _NONNULL),),
    IFieldWrite: lambda ins, index, universe: ((index[ins.obj], 0, 0, _NONNULL),),
    IIf: lambda ins, index, universe: ((index[ins.var], 0, 0, _NONNULL),),
    IElse: lambda ins, index, universe: ((index[ins.var], 0, 0, _NULL),),
}


def _rule(ins: Instr, index: dict[str, int], universe: Iterable[str]) -> tuple[_Write, ...]:
    """The writes of ins on states whose variables index numbers."""
    return _RULES[type(ins)](ins, index, universe)


def _apply(rule: tuple[_Write, ...], state: bytes) -> bytes:
    """The state after rule: state itself when it writes nothing, else a bytearray copy."""
    if not rule:
        return state
    out = bytearray(state)
    for t, a, b, table in rule:
        out[t] = table[7 * state[a] + state[b]]
    return out


# ---------------------------------------------------------------------------
# Transfer functions
# ---------------------------------------------------------------------------

# The instruction attributes that name variables.
_OPERANDS = ("target", "source", "left", "right", "obj", "var", "param")


def lifted_flow(ins: Instr, sigma: GradState, universe: frozenset[str]) -> GradState:
    """Gradual transfer function on partial maps; annotations flow through unconverted.

    It runs the byte rule the fixpoint runs, over the variables of universe,
    of sigma and of ins, and returns its map in sorted key order.  A rule that
    writes a constant ignores its input; one that reads an operand drops its
    target when the operand is undefined; an entry seeds universe with Null
    and binds the parameter to its annotation.
    """
    names = sorted(universe.union(sigma, (getattr(ins, a) for a in _OPERANDS if hasattr(ins, a))))
    index = {x: i for i, x in enumerate(names)}
    state = bytes(_CODE[sigma.get(x)] for x in names)
    return _decode(_apply(_rule(ins, index, universe), state), names)


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


# The bounds of each instruction type that constrains an operand.
_BOUNDS: dict[type, Callable[..., tuple[tuple[str, GradAbst], ...]]] = {
    ICall: lambda ins: ((ins.arg, ins.arg_ann),),
    IReturn: lambda ins: ((ins.var, ins.ann),),
    IFieldRead: lambda ins: ((ins.obj, GradAbst.NONNULL),),
    IFieldWrite: lambda ins: ((ins.obj, GradAbst.NONNULL),),
}


def _safety_bounds(ins: Instr) -> tuple[tuple[str, GradAbst], ...]:
    """(variable, safety bound) for the operand that can be constrained, if any."""
    bounds = _BOUNDS.get(type(ins))
    return () if bounds is None else bounds(ins)


def lifted_safe(ins: Instr, x: str) -> GradAbst:
    return next((bound for y, bound in _safety_bounds(ins) if y == x), GradAbst.NULLABLE)


def constrained_vars(ins: Instr) -> tuple[str, ...]:
    """Variables whose safety bound at this instruction can be non-trivial."""
    return tuple(x for x, _ in _safety_bounds(ins))


def site_category(ins: Instr) -> str:
    """Check category: dereferences get CHECK, procedure boundaries BOUNDARY."""
    if type(ins) is IFieldRead or type(ins) is IFieldWrite:
        return WARN_CHECK
    return WARN_BOUNDARY


# ---------------------------------------------------------------------------
# Fixpoint
# ---------------------------------------------------------------------------


Mode = Literal["static", "gradual"]


class AnalysisResult(Record):
    """One byte-coded state per vertex, over its procedure's variables numbered in sorted order.

    pi (base facts in static mode, gradual ones otherwise) and grad_pi are
    the per-vertex maps, decoded once, on first read, and shared by every
    later read; fact reads one gradual fact.
    """

    cfg: ProgramCfg
    mode: Mode
    states: list[bytes]
    numbering: dict[str, dict[str, int]] = field(repr=False)  # procedure -> variable -> byte index
    # grad_pi and pi once decoded, None until their first read.
    _grad_pi: Optional[list[GradState]] = field(default=None, init=False, compare=False, repr=False)
    _pi: Optional[list[dict]] = field(default=None, init=False, compare=False, repr=False)

    @property
    def grad_pi(self) -> list[GradState]:
        if self._grad_pi is None:
            self._grad_pi = [_decode(state, self.numbering[v.proc]) for state, v in zip(self.states, self.cfg.vertices)]
        return self._grad_pi

    @property
    def pi(self) -> list[dict]:
        if self._pi is None:
            grad_pi = self.grad_pi
            self._pi = grad_pi if self.mode == "gradual" else [{x: _exact_ann(g) for x, g in s.items()} for s in grad_pi]
        return self._pi

    def fact(self, v: int, x: str) -> Optional[GradAbst]:
        """The gradual fact of x at vertex v, or None where x is undefined."""
        i = self.numbering[self.cfg.vertices[v].proc].get(x)
        return None if i is None else _FACT[self.states[v][i]]


def kildall(
    cfg: ProgramCfg,
    mode: Mode = "gradual",
    seed_order: Optional[Iterable[int]] = None,
) -> AnalysisResult:
    """Worklist fixpoint of the gradual transfer function.

    Every vertex starts at bottom, all bytes 0 (one shared object per state
    width), and is processed at least once, first in seed_order (by default
    the vertex order; see lower); a successor re-enters the worklist
    whenever its state grows.  A vertex's rule is built each time the
    worklist visits it and dropped after, so no list of every rule sits
    beside the states.  The result does not depend on seed_order
    (that is a tested property, not a hope).

    Static mode is the same fixpoint, read through base facts.  A '?' enters
    the fixpoint only as a call result or a parameter annotation, and those
    are checked up front: the projection alone would miss a '?' that a join
    absorbs (? + Nullable = Nullable).
    """
    if mode == "static":
        for vertex in cfg.vertices:
            kind = type(vertex.instr)
            if kind is ICall:
                _exact_ann(vertex.instr.ret_ann)
            elif kind is IProc:
                _exact_ann(vertex.instr.param_ann)

    numbering = {proc: {x: i for i, x in enumerate(sorted(u))} for proc, u in cfg.universe.items()}
    by_width: dict[int, bytes] = {}
    bottom = {proc: by_width.setdefault(len(index), bytes(len(index))) for proc, index in numbering.items()}
    vertices, universe = cfg.vertices, cfg.universe
    bottoms = [bottom[v.proc] for v in vertices]
    states = list(bottoms)
    if seed_order is None:
        order: Iterable[int] = range(len(states))
    else:
        order = list(seed_order)
        assert sorted(order) == list(range(len(states))), "seed order must cover every vertex"
    work = deque(order)
    queued = bytearray(b"\1") * len(states)
    succ = cfg.succ
    while work:
        v = work.popleft()
        queued[v] = 0
        vertex = vertices[v]
        ins, proc = vertex.instr, vertex.proc
        out = _apply(_RULES[type(ins)](ins, numbering[proc], universe[proc]), states[v])
        for u in succ[v]:
            old = states[u]
            if old is out:
                continue
            if old is bottoms[u]:
                new = out
            elif old == out:
                continue
            else:
                # Pairs of facts as base-7 digits, joined byte by byte in C.
                pairs = int.from_bytes(old, "big") * 7 + int.from_bytes(out, "big")
                new = pairs.to_bytes(len(old), "big").translate(_JOIN)
                if new == old:
                    continue
            states[u] = new
            if not queued[u]:
                work.append(u)
                queued[u] = 1
    return AnalysisResult(cfg=cfg, mode=mode, states=states, numbering=numbering)


# ---------------------------------------------------------------------------
# Warnings and check sites
# ---------------------------------------------------------------------------


class Finding(Record, frozen=True):
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
        return {name: getattr(self, name) for name in self.__slots__}  # the fields, in declaration order

    def render(self) -> str:
        return (
            f"{self.line}:{self.col}: {self.category}: {self.variable!r} is {self.found}, "
            f"position requires {self.required} ({self.proc}, v{self.vertex})"
        )


# The verdict on a fact against a safety bound, at entry 7 * fact code +
# bound code: fine (0), a static warning (1) or a run-time check site (2).
# An undefined fact (code 0) is never judged.
_FINE, _WARN, _SITE = 0, 1, 2


def _verdict(found: Optional[GradAbst], bound: Optional[GradAbst]) -> int:
    if found is None or bound is None:
        return _FINE
    if not lifted_leq(found, bound):
        return _WARN
    return _FINE if base_leq(ceil(found), ceil(bound)) else _SITE


_VERDICT = bytes(_verdict(f, b) for f in _FACT for b in _FACT)


def _finding(category: str, vertex: Vertex, x: str, found: GradAbst, bound: GradAbst) -> Finding:
    line, col = vertex.pos
    return Finding(category, vertex.proc, vertex.id, line, col, x, str(ceil(bound)), str(found))


def findings(result: AnalysisResult) -> tuple[list[Finding], list[Finding]]:
    """(static warnings, check sites), each in vertex order, from one walk over the vertices.

    A position is a variable with a safety bound at a vertex where the
    fixpoint defines it.  Its fact is inconsistent with the bound (a
    warning), or consistent but not provably so (a check site: some denoted
    base fact would violate the bound, so the gradual semantics guards the
    instruction), or fine.
    """
    warnings: list[Finding] = []
    checks: list[Finding] = []
    states, numbering = result.states, result.numbering
    for vertex in result.cfg.vertices:
        for x, bound in _safety_bounds(vertex.instr):
            i = numbering[vertex.proc].get(x)
            if i is None:
                continue
            code = states[vertex.id][i]
            verdict = _VERDICT[7 * code + _CODE[bound]]
            if verdict == _WARN:
                warnings.append(_finding(WARN_STATIC, vertex, x, _FACT[code], bound))
            elif verdict == _SITE:
                checks.append(_finding(site_category(vertex.instr), vertex, x, _FACT[code], bound))
    return warnings, checks


def static_warnings(result: AnalysisResult) -> list[Finding]:
    """Positions whose fact is inconsistent with the safety bound."""
    return findings(result)[0]


def check_sites(result: AnalysisResult) -> list[Finding]:
    """Positions that pass only optimistically and need a run-time check."""
    return findings(result)[1]


def analyze(cfg: ProgramCfg, mode: Mode = "gradual") -> tuple[AnalysisResult, list[Finding], list[Finding]]:
    """Fixpoint plus derived findings: (result, warnings, checks)."""
    result = kildall(cfg, mode)
    return (result, *findings(result))
