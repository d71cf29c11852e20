"""Control-flow graphs: one instruction per vertex.

Lowering flattens surface programs into per-procedure graphs whose vertices
each hold exactly one primitive instruction.  Compound expressions run
through fresh temporaries ($0, $1, ... within each procedure); conditions
evaluate into a variable and branch on it.  `branch(x)` has exactly two
successors, in order `if(x)` (taken when x is non-null) and `else(x)`
(taken when x is null); `while (e == null)` therefore exits through its
`if` arm.  When the condition is already a bare variable no temporary is
inserted and the branch tests the variable directly.

There are no interprocedural edges: calls and returns meet only through
annotations, which lowering copies from the callee signature onto the call
instruction.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from .lattice import GradAbst
from .record import field, record
from .syntax import (
    EAnd,
    ECall,
    EField,
    ENew,
    ENull,
    EOr,
    EVar,
    Expr,
    Program,
    SAssign,
    SDecl,
    SFieldAssign,
    SIf,
    SReturn,
    SSkip,
    SWhile,
    Stmt,
)

MAIN = "main"


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------


@record(frozen=True)
class ICopy:
    target: str
    source: str


@record(frozen=True)
class IConstNull:
    target: str


@record(frozen=True)
class ICall:
    target: str
    proc: str
    ret_ann: GradAbst
    arg: str
    arg_ann: GradAbst


@record(frozen=True)
class INew:
    target: str
    fields: tuple[str, ...]


@record(frozen=True)
class IAnd:
    target: str
    left: str
    right: str


@record(frozen=True)
class IOr:
    target: str
    left: str
    right: str


@record(frozen=True)
class IFieldRead:
    target: str
    obj: str
    fieldname: str


@record(frozen=True)
class IFieldWrite:
    obj: str
    fieldname: str
    source: str


@record(frozen=True)
class IBranch:
    var: str


@record(frozen=True)
class IIf:
    var: str


@record(frozen=True)
class IElse:
    var: str


@record(frozen=True)
class IReturn:
    var: str
    ann: GradAbst


@record(frozen=True)
class IMain:
    pass


@record(frozen=True)
class IProc:
    name: str
    ret_ann: GradAbst
    param: str
    param_ann: GradAbst


Instr = Union[
    ICopy,
    IConstNull,
    ICall,
    INew,
    IAnd,
    IOr,
    IFieldRead,
    IFieldWrite,
    IBranch,
    IIf,
    IElse,
    IReturn,
    IMain,
    IProc,
]


def _ann_text(ann: GradAbst) -> str:
    return f"@{ann}"


def render_instr(ins: Instr) -> str:
    if isinstance(ins, ICopy):
        return f"{ins.target} := {ins.source}"
    if isinstance(ins, IConstNull):
        return f"{ins.target} := null"
    if isinstance(ins, ICall):
        return f"{ins.target} := {ins.proc}{_ann_text(ins.ret_ann)}({ins.arg}{_ann_text(ins.arg_ann)})"
    if isinstance(ins, INew):
        return f"{ins.target} := new {{{', '.join(ins.fields)}}}"
    if isinstance(ins, IAnd):
        return f"{ins.target} := {ins.left} && {ins.right}"
    if isinstance(ins, IOr):
        return f"{ins.target} := {ins.left} || {ins.right}"
    if isinstance(ins, IFieldRead):
        return f"{ins.target} := {ins.obj}.{ins.fieldname}"
    if isinstance(ins, IFieldWrite):
        return f"{ins.obj}.{ins.fieldname} := {ins.source}"
    if isinstance(ins, IBranch):
        return f"branch({ins.var})"
    if isinstance(ins, IIf):
        return f"if({ins.var})"
    if isinstance(ins, IElse):
        return f"else({ins.var})"
    if isinstance(ins, IReturn):
        return f"return {ins.var}{_ann_text(ins.ann)}"
    if isinstance(ins, IMain):
        return "main"
    if isinstance(ins, IProc):
        return f"proc {ins.name}{_ann_text(ins.ret_ann)}({ins.param}{_ann_text(ins.param_ann)})"
    raise AssertionError(f"unknown instruction {ins!r}")


@record(frozen=True)
class Vertex:
    id: int
    instr: Instr
    proc: str  # procedure name, or "main"
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@record
class ProgramCfg:
    vertices: list[Vertex]
    succ: list[tuple[int, ...]]
    entry: int
    proc_entry: dict[str, int]  # procedure name -> IProc vertex id
    universe: dict[str, frozenset[str]]  # per procedure (and "main")
    # The interpreter's decoded site of each vertex, None until the vertex's
    # first step (runtime._execute); not part of the graph's value.  A site
    # may hold `vertices` and `succ` but never the graph, or the two would
    # form a reference cycle.
    _run_sites: Optional[list] = field(default=None, init=False, compare=False, repr=False)

    def descend(self, root: int) -> set[int]:
        """Vertices reachable from root, root included."""
        seen = {root}
        stack = [root]
        while stack:
            v = stack.pop()
            for u in self.succ[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


# The expressions that chain down their left operand or receiver.
_LINKS = frozenset({EAnd, EOr, EField})


def _link(e: Expr) -> Expr:
    """The operand a chain link nests down: a field read's receiver, else the left operand."""
    return e.obj if type(e) is EField else e.left


class _Lowerer:
    def __init__(self, program: Program):
        self.program = program
        self.procs = program.proc_map
        self.vertices: list[Vertex] = []
        self.succ: list[list[int]] = []
        self.vars: set[str] = set()
        self.temp_count = 0
        self.prockey = MAIN
        self.universe: dict[str, frozenset[str]] = {}

    def lower_region(
        self, name: str, head: Instr, pos: tuple[int, int], bound: set[str], body: Iterable[Stmt], ret_ann: GradAbst
    ) -> int:
        """Lower a procedure or main whose entry binds bound; returns its entry vertex."""
        self.prockey, self.vars, self.temp_count = name, bound, 0
        entry = self.emit(head, pos, [])
        leftover = self.lower_stmts(body, [entry], ret_ann)
        assert not leftover, "parser guarantees every path of a procedure or main returns"
        self.universe[name] = frozenset(self.vars)
        return entry

    def emit(self, instr: Instr, pos: tuple[int, int], pending: list[int]) -> int:
        vid = len(self.vertices)
        self.vertices.append(Vertex(vid, instr, self.prockey, pos))
        self.succ.append([])
        for p in pending:
            self.succ[p].append(vid)
        return vid

    def fresh_temp(self) -> str:
        name = f"${self.temp_count}"
        self.temp_count += 1
        self.vars.add(name)
        return name

    def lower_operand(self, e: Expr, pending: list[int]) -> tuple[str, list[int]]:
        """Bring an expression into a variable, emitting evaluation vertices."""
        if type(e) is EVar:
            return e.name, pending
        temp = self.fresh_temp()
        pending = self.lower_assign(temp, e, pending)
        return temp, pending

    def lower_assign(self, target: str, e: Expr, pending: list[int]) -> list[int]:
        kind = type(e)
        if kind is EVar:
            return [self.emit(ICopy(target, e.name), e.pos, pending)]
        if kind is ENull:
            return [self.emit(IConstNull(target), e.pos, pending)]
        if kind is ENew:
            return [self.emit(INew(target, e.fields), e.pos, pending)]
        if kind is ECall:
            arg, pending = self.lower_operand(e.arg, pending)
            callee = self.procs[e.proc]
            ins = ICall(target, e.proc, callee.ret_ann, arg, callee.param_ann)
            return [self.emit(ins, e.pos, pending)]
        if kind in _LINKS:
            # Chains `a && b && ...` and `y.f.g...` nest down their left
            # operands and receivers.  Walk that spine with a loop, not one
            # recursion per link, naming the temporaries outermost first and
            # emitting innermost first.
            spine = [(target, e)]
            while type(_link(spine[-1][1])) in _LINKS:
                spine.append((self.fresh_temp(), _link(spine[-1][1])))
            left, pending = self.lower_operand(_link(spine[-1][1]), pending)
            for tgt, node in reversed(spine):
                kind = type(node)
                if kind is EField:
                    ins = IFieldRead(tgt, left, node.fieldname)
                else:
                    right, pending = self.lower_operand(node.right, pending)
                    ins = (IAnd if kind is EAnd else IOr)(tgt, left, right)
                pending = [self.emit(ins, node.pos, pending)]
                left = tgt
            return pending
        raise AssertionError(f"unknown expression {e!r}")

    def lower_stmts(self, stmts: Iterable[Stmt], pending: list[int], ret_ann: GradAbst) -> list[int]:
        for s in stmts:
            kind = type(s)
            if kind is SAssign:
                pending = self.lower_assign(s.target, s.expr, pending)
            elif kind is SDecl:
                self.vars.add(s.name)
            elif kind is SIf:
                # A bare variable branches directly; anything else evaluates
                # into a temporary first, and loops re-enter at that evaluation.
                var, pending = self.lower_operand(s.cond, pending)
                b = self.emit(IBranch(var), s.pos, pending)
                if_v = self.emit(IIf(var), s.pos, [b])
                else_v = self.emit(IElse(var), s.pos, [b])
                nonnull_arm, null_arm = (s.then, s.els) if s.op == "!=" else (s.els, s.then)
                exits_nonnull = self.lower_stmts(nonnull_arm, [if_v], ret_ann)
                exits_null = self.lower_stmts(null_arm, [else_v], ret_ann)
                pending = exits_nonnull + exits_null
            elif kind is SReturn:
                self.emit(IReturn(s.name, ret_ann), s.pos, pending)
                pending = []
            elif kind is SFieldAssign:
                pending = [self.emit(IFieldWrite(s.obj, s.fieldname, s.source), s.pos, pending)]
            elif kind is SWhile:
                head_mark = len(self.vertices)
                var, cond_exits = self.lower_operand(s.cond, pending)
                b = self.emit(IBranch(var), s.pos, cond_exits)
                head = head_mark if head_mark < len(self.vertices) - 1 else b
                if_v = self.emit(IIf(var), s.pos, [b])
                else_v = self.emit(IElse(var), s.pos, [b])
                body_arm, exit_arm = (if_v, else_v) if s.op == "!=" else (else_v, if_v)
                body_exits = self.lower_stmts(s.body, [body_arm], ret_ann)
                for v in body_exits:
                    self.succ[v].append(head)
                pending = [exit_arm]
            elif kind is not SSkip:
                raise AssertionError(f"unknown statement {s!r}")
        return pending


def lower(p: Program) -> ProgramCfg:
    """Lower a surface program to its control-flow graph.

    Assumes parse-level structure and clean surface checks; annotations at
    call sites are copied from the callee's declaration.

    Vertices are numbered in emission order, and every edge u -> v with
    v <= u is a loop back edge (v reaches u): only a loop's body returns to
    an earlier vertex, its head.  kildall's default worklist order relies on
    this for speed, not for correctness.
    """
    lw = _Lowerer(p)
    proc_entry: dict[str, int] = {}
    for proc in p.procs:
        head = IProc(proc.name, proc.ret_ann, proc.param, proc.param_ann)
        proc_entry[proc.name] = lw.lower_region(proc.name, head, proc.pos, {proc.param}, proc.body, proc.ret_ann)
    main_entry = lw.lower_region(MAIN, IMain(), p.main_pos, set(), p.main, GradAbst.NULLABLE)
    return ProgramCfg(
        vertices=lw.vertices,
        succ=[tuple(s) for s in lw.succ],
        entry=main_entry,
        proc_entry=proc_entry,
        universe=lw.universe,
    )


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------


def validate(cfg: ProgramCfg) -> list[str]:
    """Structural well-formedness.  Empty iff the graph is well-formed.

    1. Exactly one main vertex, with no predecessors.
    2. The regions reachable from main and from each procedure entry
       partition the vertex set.
    3. Every vertex reaches a return, and every return's annotation matches
       its region's declared return annotation (Nullable for main).  The
       first half is one backward pass over the predecessors, from the
       returns.
    4. Call-site annotations agree with the callee's entry vertex.
    5. A branch has exactly two successors, an if then an else (in that
       order: the interpreter reads the arms from it), both on the branch's
       variable; a return has none; every other vertex has exactly one,
       which is not an if or else vertex.
    """
    out: list[str] = []
    instrs = [v.instr for v in cfg.vertices]
    kinds = list(map(type, instrs))
    succ = cfg.succ
    preds: list[list[int]] = [[] for _ in instrs]
    for v, succs in enumerate(succ):
        for u in succs:
            preds[u].append(v)

    mains = [v for v, kind in enumerate(kinds) if kind is IMain]
    if len(mains) != 1:
        out.append(f"expected exactly one main vertex, found {len(mains)}")
    for m in mains:
        if preds[m]:
            out.append(f"main vertex v{m} has predecessors {sorted(preds[m])}")

    entries: list[tuple[str, int]] = []
    if len(mains) == 1:
        entries.append((MAIN, mains[0]))
    proc_ret: dict[str, GradAbst] = {}
    proc_param: dict[str, GradAbst] = {}
    for v, kind in enumerate(kinds):
        if kind is IProc:
            ins = instrs[v]
            entries.append((ins.name, v))
            proc_ret[ins.name] = ins.ret_ann
            proc_param[ins.name] = ins.param_ann

    regions: dict[str, set[int]] = {name: cfg.descend(root) for name, root in entries}
    covered: list[Optional[str]] = [None] * len(instrs)
    for name, region in regions.items():
        for vid in region:
            if covered[vid] is not None:
                out.append(f"vertex v{vid} reachable from both {covered[vid]!r} and {name!r}")
            else:
                covered[vid] = name
    for v, owner in enumerate(covered):
        if owner is None:
            out.append(f"vertex v{v} unreachable from every entry")

    # A vertex reaches a return iff it is backward-reachable from one.
    stack = [v for v, kind in enumerate(kinds) if kind is IReturn]
    reaches = [False] * len(instrs)
    for v in stack:
        reaches[v] = True
    while stack:
        for u in preds[stack.pop()]:
            if not reaches[u]:
                reaches[u] = True
                stack.append(u)
    for name, region in regions.items():
        want = proc_ret.get(name, GradAbst.NULLABLE)
        for vid in sorted(region):
            if not reaches[vid]:
                out.append(f"vertex v{vid} cannot reach a return")
            if kinds[vid] is IReturn and instrs[vid].ann is not want:
                out.append(f"return at v{vid} annotated @{instrs[vid].ann}, region {name!r} declares @{want}")

    for v, kind in enumerate(kinds):
        if kind is ICall:
            ins = instrs[v]
            if ins.proc not in proc_ret:
                out.append(f"call at v{v} targets unknown procedure {ins.proc!r}")
            elif ins.ret_ann is not proc_ret[ins.proc] or ins.arg_ann is not proc_param[ins.proc]:
                out.append(f"call at v{v} disagrees with {ins.proc!r}'s signature annotations")

    for v, (kind, succs) in enumerate(zip(kinds, succ)):
        if kind is IBranch:
            var = instrs[v].var
            arms = len(succs) == 2 and kinds[succs[0]] is IIf and kinds[succs[1]] is IElse
            if not arms or instrs[succs[0]].var != var or instrs[succs[1]].var != var:
                out.append(f"branch at v{v} lacks matching if/else successors")
        elif kind is IReturn:
            if succs:
                out.append(f"return at v{v} has successors {sorted(succs)}")
        elif len(succs) != 1:
            out.append(f"vertex v{v} has {len(succs)} successors, expected 1")
        elif kinds[succs[0]] is IIf or kinds[succs[0]] is IElse:
            out.append(f"vertex v{v} feeds an if/else arm without branching")
    return out


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def emit_dot(cfg: ProgramCfg) -> str:
    """Deterministic DOT rendering, one cluster per procedure plus main."""
    lines = ["digraph picl {", '    node [shape=box, fontname="monospace"];']
    groups: dict[str, list[Vertex]] = {}
    for v in cfg.vertices:
        groups.setdefault(v.proc, []).append(v)
    for name in sorted(groups, key=lambda n: groups[n][0].id):
        lines.append(f'    subgraph "cluster_{_dot_escape(name)}" {{')
        title = name if name == MAIN else f"proc {name}"
        lines.append(f'        label="{_dot_escape(title)}";')
        for v in groups[name]:
            lines.append(f'        v{v.id} [label="{_dot_escape(render_instr(v.instr))}"];')
        lines.append("    }")
    for v in cfg.vertices:
        for u in cfg.succ[v.id]:
            lines.append(f"    v{v.id} -> v{u};")
    lines.append("}")
    return "\n".join(lines) + "\n"
