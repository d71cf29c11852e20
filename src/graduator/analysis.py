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
write Null to every variable of the procedure's universe, then bind the
parameter to its annotation.

The only rules where gradualization needs more than "run the same rule on
gradual inputs" are the boolean operators: their case analysis branches on
exact base facts, so the gradual version is ``lattice.lift`` of the base
rule, as the gradual join is of the base join.  Those results, and the
join's, are tabulated once per pair of fact bytes.

``_transfer`` is that one transfer function on byte states: one branch per
instruction type, tested inline, and no rule object is built or kept, so
the fixpoint holds its states and nothing per vertex beside them.  It reads
only the instruction, the variable index and the state: the index numbers
exactly the procedure's universe, so an entry writes Null to every byte and
then binds the parameter.  It returns its input state itself
when the instruction writes nothing or writes each byte as it was, so
vertices whose instructions change nothing share one state.  The fixpoint
and the findings read the graph's columns by vertex number: vertex v's
instruction is ``cfg.instr[v]`` and its procedure ``cfg.proc[v]``.
Procedures with equal universes share one variable index.  On a graph that
``validate`` accepts, each vertex's procedure has a universe and every
variable its instruction names is in it (rules 2 and 7), so no rule looks up
a variable that its state does not number.

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
``base_leq`` on ceilings, holds every verdict.  An instruction bounds at most
one operand, so a vertex has at most one position; ``findings`` reads its fact
byte from the states and looks its verdict up, in one walk over the vertices
that skips those whose instruction has no safety bound.
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
    OPERANDS,
    ProgramCfg,
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


def _decode(state: bytes, names: Iterable[str]) -> GradState:
    """The partial map a state codes over the given variable names."""
    if 0 in state:
        return {x: _FACT[c] for x, c in zip(names, state) if c}
    return dict(zip(names, map(_FACT.__getitem__, state)))


_NULL, _NONNULL, _NULLABLE = (_CODE[g] for g in (GradAbst.NULL, GradAbst.NONNULL, GradAbst.NULLABLE))


def _transfer(ins: Instr, index: dict[str, int], state: bytes) -> bytes:
    """The state after ins, on states whose variables index numbers.

    state itself when ins writes nothing or writes each byte as it was, else
    a new bytearray.  Each instruction type is one branch, most often run
    first; a rule that reads an operand looks its byte up in state.  An
    entry writes Null to every byte, so index numbers its procedure's universe.
    """
    kind = type(ins)
    if kind is IIf:
        t, code = index[ins.var], _NONNULL
    elif kind is IElse:
        t, code = index[ins.var], _NULL
    elif kind is IBranch or kind is IReturn:
        return state
    elif kind is INew:
        t, code = index[ins.target], _NONNULL
    elif kind is ICopy:
        t, code = index[ins.target], state[index[ins.source]]
    elif kind is IFieldWrite:
        t, code = index[ins.obj], _NONNULL
    elif kind is IConstNull:
        t, code = index[ins.target], _NULL
    elif kind is ICall:
        t, code = index[ins.target], _CODE[ins.ret_ann]
    elif kind is IAnd:
        t, code = index[ins.target], _AND[7 * state[index[ins.left]] + state[index[ins.right]]]
    elif kind is IOr:
        t, code = index[ins.target], _OR[7 * state[index[ins.left]] + state[index[ins.right]]]
    elif kind is IFieldRead:
        # Reading narrows the receiver; when target and receiver coincide the
        # receiver fact wins (the write order is load-bearing).
        t, o = index[ins.target], index[ins.obj]
        if state[o] == _NONNULL and (state[t] == _NULLABLE or t == o):
            return state
        out = bytearray(state)
        out[t], out[o] = _NULLABLE, _NONNULL
        return out
    elif kind is IMain or kind is IProc:
        # An entry writes every byte.
        out = bytearray((_NULL,)) * len(state)
        if kind is IProc:
            out[index[ins.param]] = _CODE[ins.param_ann]
        return state if out == state else out
    else:
        raise AssertionError(f"unknown instruction {ins!r}")
    if state[t] == code:
        return state
    out = bytearray(state)
    out[t] = code
    return out


# ---------------------------------------------------------------------------
# Transfer functions
# ---------------------------------------------------------------------------


def lifted_flow(ins: Instr, sigma: GradState, universe: frozenset[str]) -> GradState:
    """Gradual transfer function on partial maps; annotations flow through unconverted.

    It runs the byte rule the fixpoint runs, over the variables of universe,
    of sigma and of ins, and returns its map in sorted key order.  A rule that
    writes a constant ignores its input; one that reads an operand drops its
    target when the operand is undefined; an entry seeds universe with Null
    and binds the parameter to its annotation, so sigma's other variables are
    undefined after it and its state does not number them.
    """
    kind = type(ins)
    known = universe if kind is IMain or kind is IProc else universe.union(sigma)
    names = sorted(known.union(getattr(ins, a) for a in OPERANDS[kind]))
    index = {x: i for i, x in enumerate(names)}
    state = bytes(_CODE[sigma.get(x)] for x in names)
    return _decode(_transfer(ins, index, state), names)


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


# The one (operand, safety bound) of each instruction type that constrains an
# operand: every other operand's bound is Nullable.
_BOUNDS: dict[type, Callable[..., tuple[str, GradAbst]]] = {
    ICall: lambda ins: (ins.arg, ins.arg_ann),
    IReturn: lambda ins: (ins.var, ins.ann),
    IFieldRead: lambda ins: (ins.obj, GradAbst.NONNULL),
    IFieldWrite: lambda ins: (ins.obj, GradAbst.NONNULL),
}


def lifted_safe(ins: Instr, x: str) -> GradAbst:
    bound_of = _BOUNDS.get(type(ins))
    if bound_of is not None:
        y, bound = bound_of(ins)
        if y == x:
            return bound
    return GradAbst.NULLABLE


def constrained_vars(ins: Instr) -> tuple[str, ...]:
    """Variables whose safety bound at this instruction can be non-trivial: at most one."""
    bound_of = _BOUNDS.get(type(ins))
    return () if bound_of is None else (bound_of(ins)[0],)


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
            self._grad_pi = [_decode(state, self.numbering[proc]) for state, proc in zip(self.states, self.cfg.proc)]
        return self._grad_pi

    @property
    def pi(self) -> list[dict]:
        if self._pi is None:
            grad_pi = self.grad_pi
            self._pi = grad_pi if self.mode == "gradual" else [{x: _exact_ann(g) for x, g in s.items()} for s in grad_pi]
        return self._pi

    def fact(self, v: int, x: str) -> Optional[GradAbst]:
        """The gradual fact of x at vertex v, or None where x is undefined."""
        i = self.numbering[self.cfg.proc[v]].get(x)
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
    whenever its state grows.  Each visit runs _transfer on the vertex's
    instruction, so no list of rules sits beside the states, and a vertex
    whose instruction leaves its state as it was passes that same object on,
    so the vertices along a run of such instructions share one state.  The
    procedures share one variable index per distinct universe.  The result
    does not depend on seed_order
    (that is a tested property, not a hope).

    Static mode is the same fixpoint, read through base facts.  A '?' enters
    the fixpoint only as a call result or a parameter annotation, and those
    are checked up front: the projection alone would miss a '?' that a join
    absorbs (? + Nullable = Nullable).
    """
    if mode == "static":
        for ins in cfg.instr:
            kind = type(ins)
            if kind is ICall:
                _exact_ann(ins.ret_ann)
            elif kind is IProc:
                _exact_ann(ins.param_ann)

    # One index per distinct universe, one bottom per width.
    indexes: dict[frozenset[str], dict[str, int]] = {}
    for u in cfg.universe.values():
        if u not in indexes:
            indexes[u] = {x: i for i, x in enumerate(sorted(u))}
    numbering = {proc: indexes[u] for proc, u in cfg.universe.items()}
    del indexes
    by_width: dict[int, bytes] = {}
    bottom = {proc: by_width.setdefault(len(index), bytes(len(index))) for proc, index in numbering.items()}
    instr, procs = cfg.instr, cfg.proc
    bottoms = [bottom[proc] for proc in procs]
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
        out = _transfer(instr[v], numbering[procs[v]], states[v])
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


def _finding(category: str, cfg: ProgramCfg, v: int, x: str, found: GradAbst, bound: GradAbst) -> Finding:
    line, col = cfg.pos[v]
    return Finding(category, cfg.proc[v], v, line, col, x, str(ceil(bound)), str(found))


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
    cfg, states, numbering = result.cfg, result.states, result.numbering
    procs = cfg.proc
    for v, ins in enumerate(cfg.instr):
        bound_of = _BOUNDS.get(type(ins))
        if bound_of is None:
            continue
        x, bound = bound_of(ins)
        i = numbering[procs[v]].get(x)
        if i is None:
            continue
        code = states[v][i]
        verdict = _VERDICT[7 * code + _CODE[bound]]
        if verdict == _WARN:
            warnings.append(_finding(WARN_STATIC, cfg, v, x, _FACT[code], bound))
        elif verdict == _SITE:
            checks.append(_finding(site_category(ins), cfg, v, x, _FACT[code], bound))
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
