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
instruction.  Since a signature reaches no other vertex, the annotation
sites are read and edited here, on the graph: `reannotate` gives the graph
of a program with other annotations by rebuilding just those instructions.

A graph is parallel columns, with no record per vertex: vertex v is index v
of `instr`, `proc` (one name string shared by all of a procedure's
vertices), `pos` and `succ`, and every reader numbers vertices by index.  A
lowered graph keeps `pos` as two arrays of integers (`Positions`), whose
item v is the (line, col) pair, and shares its equal immutable parts: one
frozenset per distinct universe, and one branch/if/else triple of
instructions per tested variable.  `validate` is the back end's one
precondition, so it checks every column that the back end reads: rule 0
that the columns have one entry per vertex and every successor is a
vertex, rule 2 that each vertex's proc names the region that reaches it,
and rule 7 that each region has a universe holding every variable its
instructions name.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union, get_args

from .lattice import GradAbst, precision_leq
from .record import Record, field, replace
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


class ICopy(Record, frozen=True):
    target: str
    source: str


class IConstNull(Record, frozen=True):
    target: str


class ICall(Record, frozen=True):
    target: str
    proc: str
    ret_ann: GradAbst
    arg: str
    arg_ann: GradAbst


class INew(Record, frozen=True):
    target: str
    fields: tuple[str, ...]


class IAnd(Record, frozen=True):
    target: str
    left: str
    right: str


class IOr(Record, frozen=True):
    target: str
    left: str
    right: str


class IFieldRead(Record, frozen=True):
    target: str
    obj: str
    fieldname: str


class IFieldWrite(Record, frozen=True):
    obj: str
    fieldname: str
    source: str


class IBranch(Record, frozen=True):
    var: str


class IIf(Record, frozen=True):
    var: str


class IElse(Record, frozen=True):
    var: str


class IReturn(Record, frozen=True):
    var: str
    ann: GradAbst


class IMain(Record, frozen=True):
    pass


class IProc(Record, frozen=True):
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


# The fields of each instruction type that name a variable, in declaration order.
_VARIABLE_FIELDS = frozenset({"target", "source", "left", "right", "obj", "var", "param", "arg"})
OPERANDS = {kind: tuple(f for f in kind._init_fields if f in _VARIABLE_FIELDS) for kind in get_args(Instr)}


def _ann_text(ann: GradAbst) -> str:
    return f"@{ann}"


def render_instr(ins: Instr) -> str:
    kind = type(ins)
    if kind is ICopy:
        return f"{ins.target} := {ins.source}"
    if kind is IConstNull:
        return f"{ins.target} := null"
    if kind is ICall:
        return f"{ins.target} := {ins.proc}{_ann_text(ins.ret_ann)}({ins.arg}{_ann_text(ins.arg_ann)})"
    if kind is INew:
        return f"{ins.target} := new {{{', '.join(ins.fields)}}}"
    if kind is IAnd:
        return f"{ins.target} := {ins.left} && {ins.right}"
    if kind is IOr:
        return f"{ins.target} := {ins.left} || {ins.right}"
    if kind is IFieldRead:
        return f"{ins.target} := {ins.obj}.{ins.fieldname}"
    if kind is IFieldWrite:
        return f"{ins.obj}.{ins.fieldname} := {ins.source}"
    if kind is IBranch:
        return f"branch({ins.var})"
    if kind is IIf:
        return f"if({ins.var})"
    if kind is IElse:
        return f"else({ins.var})"
    if kind is IReturn:
        return f"return {ins.var}{_ann_text(ins.ann)}"
    if kind is IMain:
        return "main"
    if kind is IProc:
        return f"proc {ins.name}{_ann_text(ins.ret_ann)}({ins.param}{_ann_text(ins.param_ann)})"
    raise AssertionError(f"unknown instruction {ins!r}")


class Vertex(Record, frozen=True):
    """One vertex's entries in the graph's columns, as ProgramCfg.vertices builds them."""

    instr: Instr
    proc: str  # procedure name, or "main"
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


class Positions:
    """The pos column of a lowered graph: (line, col) of vertex v is (lines[v], cols[v]).

    Lowering keeps one (line, col) tuple per vertex, shared with the tree,
    and when it ends stores them as two array('L') of integers, so the
    tuples are freed with the tree.  Reading vertex v builds its tuple.
    """

    __slots__ = ("lines", "cols")

    def __init__(self, pairs: Sequence[tuple[int, int]]):
        # An array fills fastest from a list.
        self.lines = array("L", [pair[0] for pair in pairs])
        self.cols = array("L", [pair[1] for pair in pairs])

    def __len__(self) -> int:
        return len(self.lines)

    def __getitem__(self, v: int) -> tuple[int, int]:
        return self.lines[v], self.cols[v]

    def __eq__(self, other: object) -> bool:
        if type(other) is not Positions:
            return NotImplemented
        return self.lines == other.lines and self.cols == other.cols


class ProgramCfg(Record):
    """Parallel columns, one entry per vertex: vertex v is index v of instr, proc, pos and succ."""

    instr: list[Instr]
    proc: list[str]  # procedure name, or "main"; one string object per procedure
    # (line, col) per vertex: a Positions when lowered, any sequence of pairs when built by hand.
    pos: Sequence[tuple[int, int]] = field(compare=False, repr=False)
    succ: list[tuple[int, ...]]
    entry: int
    proc_entry: dict[str, int]  # procedure name -> IProc vertex id
    universe: dict[str, frozenset[str]]  # per procedure (and "main"); equal sets are one object when lowered
    # The interpreter's decoded site of each vertex, None until the vertex's
    # first step, and the table of parts the sites share (runtime._execute);
    # not part of the graph's value.  A site holds an opcode and operands read
    # from the graph, never the graph, or the two would form a reference cycle.
    _run_sites: Optional[tuple[list, dict]] = field(default=None, init=False, compare=False, repr=False)

    @property
    def vertices(self) -> list[Vertex]:
        """One Vertex per vertex, built on each read: only bench/run.py's traced counters() reads it."""
        return list(map(Vertex, self.instr, self.proc, self.pos))

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


def _drain(stack: list) -> Iterator:
    """stack's items, popped from its end, so that each is freed once its reader lets it go."""
    while stack:
        yield stack.pop()


class _Lowerer:
    def __init__(self, signatures: dict[str, tuple[GradAbst, GradAbst]]):
        self.signatures = signatures  # procedure name -> (return, parameter) annotation
        # ProgramCfg's columns, pos as the tree's (line, col) tuples until lower stores them.
        self.instr, self.proc, self.pos, self.succ = [], [], [], []
        self.vars: set[str] = set()
        self.temp_count = 0
        self.prockey = MAIN
        self.universe: dict[str, frozenset[str]] = {}
        self.universes: dict[frozenset[str], frozenset[str]] = {}  # each distinct universe, once
        self.tests: dict[str, tuple[IBranch, IIf, IElse]] = {}  # see branch_on

    def lower_region(
        self, name: str, head: Instr, pos: tuple[int, int], bound: set[str], body: Iterable[Stmt], ret_ann: GradAbst
    ) -> int:
        """Lower a procedure or main whose entry binds bound; returns its entry vertex."""
        self.prockey, self.vars, self.temp_count = name, bound, 0
        entry = self.emit(head, pos, [])
        leftover = self.lower_stmts(body, [entry], ret_ann)
        assert not leftover, "parser guarantees every path of a procedure or main returns"
        universe = frozenset(self.vars)
        self.universe[name] = self.universes.setdefault(universe, universe)
        return entry

    def emit(self, instr: Instr, pos: tuple[int, int], pending: list[int]) -> int:
        vid = len(self.instr)
        self.instr.append(instr)
        self.proc.append(self.prockey)
        self.pos.append(pos)
        self.succ.append(())
        for p in pending:
            self.succ[p] += (vid,)
        return vid

    def branch_on(self, cond: Expr, pos: tuple[int, int], pending: list[int]) -> tuple[int, int]:
        """Branch on cond, evaluated into a temporary unless it is a variable: the (if, else) vertices.

        Every test of one variable shares its branch, if and else instructions.
        """
        var, pending = self.lower_operand(cond, pending)
        triple = self.tests.get(var)
        if triple is None:
            triple = self.tests[var] = (IBranch(var), IIf(var), IElse(var))
        branch, if_, else_ = triple
        b = self.emit(branch, pos, pending)
        return self.emit(if_, pos, [b]), self.emit(else_, pos, [b])

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
            ret_ann, arg_ann = self.signatures[e.proc]
            ins = ICall(target, e.proc, ret_ann, arg, arg_ann)
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
                if_v, else_v = self.branch_on(s.cond, s.pos, pending)
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
                # The body re-enters at the first vertex of the test: the
                # condition's evaluation, or the branch on a bare variable.
                head = len(self.instr)
                if_v, else_v = self.branch_on(s.cond, s.pos, pending)
                body_arm, exit_arm = (if_v, else_v) if s.op == "!=" else (else_v, if_v)
                body_exits = self.lower_stmts(s.body, [body_arm], ret_ann)
                for v in body_exits:
                    self.succ[v] += (head,)
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

    Lowering keeps the signatures' annotations, drops its reference to p and
    then takes the procedures one at a time, main last, and main's top-level
    statements one at a time.  So when the caller passes a tree that it holds
    no longer (on Python 3.11 and later, a call moves its arguments into the
    callee), each procedure's subtree and each of main's statements is freed
    as soon as it is lowered.  A tree that the caller still holds is left as
    it was.  The vertices' (line, col) tuples are the tree's until lowering
    ends, when the graph stores them as integers (Positions).  Equal
    universes are one set, and the tests of one variable share one branch,
    if and else instruction.
    """
    lw = _Lowerer({proc.name: (proc.ret_ann, proc.param_ann) for proc in p.procs})
    # Popped from the end, first first.
    procs, main, main_pos = list(reversed(p.procs)), list(reversed(p.main)), p.main_pos
    del p
    proc_entry: dict[str, int] = {}
    while procs:
        proc = procs.pop()
        head = IProc(proc.name, proc.ret_ann, proc.param, proc.param_ann)
        proc_entry[proc.name] = lw.lower_region(proc.name, head, proc.pos, {proc.param}, proc.body, proc.ret_ann)
        del proc
    main_entry = lw.lower_region(MAIN, IMain(), main_pos, set(), _drain(main), GradAbst.NULLABLE)
    return ProgramCfg(lw.instr, lw.proc, Positions(lw.pos), lw.succ, main_entry, proc_entry, lw.universe)


def reannotate(cfg: ProgramCfg, rewrite: Callable[[str, GradAbst], GradAbst]) -> ProgramCfg:
    """The graph that lowering gives once each site's annotation a becomes rewrite(site key, a).

    A procedure p has two sites, 'p.param' and 'p.return'.  Signatures reach
    the graph only at calls (ICall.arg_ann and ret_ann), procedure entries
    (IProc.param_ann and ret_ann) and the returns of procedures (main's return
    is Nullable whatever they say), so only the instr column is copied, with
    the instructions whose annotation changes rebuilt; every other column and
    field is cfg's own.  When no instruction changes, the result is cfg itself.
    """
    instr = list(cfg.instr)
    for v, ins in enumerate(instr):
        kind = type(ins)
        if kind is ICall:
            ret, arg = rewrite(f"{ins.proc}.return", ins.ret_ann), rewrite(f"{ins.proc}.param", ins.arg_ann)
            new = ICall(ins.target, ins.proc, ret, ins.arg, arg)
        elif kind is IProc:
            ret, param = rewrite(f"{ins.name}.return", ins.ret_ann), rewrite(f"{ins.name}.param", ins.param_ann)
            new = IProc(ins.name, ret, ins.param, param)
        elif kind is IReturn and cfg.proc[v] != MAIN:
            new = IReturn(ins.var, rewrite(f"{cfg.proc[v]}.return", ins.ann))
        else:
            continue
        if new != ins:
            instr[v] = new
    return cfg if instr == cfg.instr else replace(cfg, instr=instr)


def annotation_sites(cfg: ProgramCfg) -> list[tuple[str, GradAbst]]:
    """Each site's key and annotation in declaration order; main's return is fixed Nullable, not a site."""
    sites: list[tuple[str, GradAbst]] = []
    for name, v in cfg.proc_entry.items():
        ins = cfg.instr[v]
        sites += ((f"{name}.param", ins.param_ann), (f"{name}.return", ins.ret_ann))
    return sites


def erase_annotations(cfg: ProgramCfg, sites: Optional[set[str]] = None) -> ProgramCfg:
    """cfg with ? at the given sites (all sites if None)."""
    if sites is not None:
        unknown = set(sites).difference(key for key, _ in annotation_sites(cfg))
        if unknown:
            raise ValueError(f"unknown annotation site(s): {sorted(unknown)}")
    return reannotate(cfg, lambda key, ann: GradAbst.UNKNOWN if sites is None or key in sites else ann)


def is_fully_annotated(cfg: ProgramCfg) -> bool:
    return all(ann is not GradAbst.UNKNOWN for _, ann in annotation_sites(cfg))


def precision_leq_cfg(cfg1: ProgramCfg, cfg2: ProgramCfg) -> bool:
    """cfg1 is at least as annotated as cfg2 on an otherwise identical graph."""
    if erase_annotations(cfg1) != erase_annotations(cfg2):
        return False
    return all(precision_leq(a1, a2) for (_, a1), (_, a2) in zip(annotation_sites(cfg1), annotation_sites(cfg2)))


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------


def validate(cfg: ProgramCfg) -> list[str]:
    """Structural well-formedness.  Empty iff the graph is well-formed.

    0. The columns instr, proc, pos and succ hold one entry per vertex, and
       every successor is a vertex number, in range(len(instr)).  When either
       fails, its messages are the only ones.
    1. Exactly one main vertex, with no predecessors.
    2. The regions reachable from main and from each procedure entry
       partition the vertex set, and each vertex's proc names its region.
    3. Every vertex reaches a return, and every return's annotation matches
       its region's declared return annotation (Nullable for main).  The
       first half is one backward pass over the predecessors, from the
       returns.
    4. Call-site annotations agree with the callee's entry vertex.
    5. A branch has exactly two successors, an if then an else (in that
       order: the interpreter reads the arms from it), both on the branch's
       variable; a return has none; every other vertex has exactly one,
       which is not an if or else vertex.
    6. entry is the main vertex, and proc_entry maps each procedure entry's
       name to that vertex and holds no other name.
    7. universe has a key for every region, and every variable that an
       instruction names is in its region's universe.

    Messages come rule by rule.  Rules 2, 3 and 7 report region by region,
    main first and then the procedures in vertex order, and within a region
    in vertex order; rule 2's unreachable and mislabelled vertices come last,
    in vertex order.
    The predecessors, the largest per-vertex structure, are freed before the
    regions are built, and a region is a sorted list, not a set.
    """
    instrs, procs, succ = cfg.instr, cfg.proc, cfg.succ
    if not len(instrs) == len(procs) == len(cfg.pos) == len(succ):
        lengths = f"{len(instrs)} instr, {len(procs)} proc, {len(cfg.pos)} pos, {len(succ)} succ"
        return [f"columns differ in length: {lengths}"]
    # Each vertex's predecessors: None, the one predecessor, or a list of
    # two or more, so that the many vertices with one hold no list.  The
    # same pass finds a successor that is no vertex (rule 0): a negative
    # one by its sign, one past the end by the IndexError.
    n = len(instrs)
    preds: list[Union[None, int, list[int]]] = [None] * n
    try:
        for v, succs in enumerate(succ):
            for u in succs:
                if u < 0:
                    raise IndexError
                p = preds[u]
                if p is None:
                    preds[u] = v
                elif type(p) is int:
                    preds[u] = [p, v]
                else:
                    p.append(v)
    except IndexError:
        return [
            f"vertex v{v} has successor {u}, not in 0..{n - 1}" for v, us in enumerate(succ) for u in us if not 0 <= u < n
        ]
    out: list[str] = []
    kinds = list(map(type, instrs))
    mains = [v for v, kind in enumerate(kinds) if kind is IMain]
    if len(mains) != 1:
        out.append(f"expected exactly one main vertex, found {len(mains)}")

    for m in mains:
        p = preds[m]
        if p is not None:
            out.append(f"main vertex v{m} has predecessors {sorted([p] if type(p) is int else p)}")
    # Rule 3's first half: a vertex reaches a return iff it is
    # backward-reachable from one.
    stack = [v for v, kind in enumerate(kinds) if kind is IReturn]
    reaches = [False] * len(instrs)
    for v in stack:
        reaches[v] = True
    while stack:
        p = preds[stack.pop()]
        for u in (p,) if type(p) is int else p or ():
            if not reaches[u]:
                reaches[u] = True
                stack.append(u)
    del preds

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

    # One region per entry name (a name that enters twice keeps its first
    # place and its last root).  mark[v] is the last region whose walk
    # reached v, covered[v] the first.
    regions: list[tuple[str, list[int]]] = []
    mark = [-1] * len(instrs)
    covered: list[Optional[str]] = [None] * len(instrs)
    for k, (name, root) in enumerate(dict(entries).items()):
        mark[root] = k
        region, stack = [root], [root]
        while stack:
            for u in succ[stack.pop()]:
                if mark[u] != k:
                    mark[u] = k
                    region.append(u)
                    stack.append(u)
        region.sort()
        for vid in region:
            if covered[vid] is not None:
                out.append(f"vertex v{vid} reachable from both {covered[vid]!r} and {name!r}")
            else:
                covered[vid] = name
        regions.append((name, region))
    for v, owner in enumerate(covered):
        if owner is None:
            out.append(f"vertex v{v} unreachable from every entry")
        elif procs[v] != owner:
            out.append(f"vertex v{v} in region {owner!r} is labelled {procs[v]!r}")

    for name, region in regions:
        want = proc_ret.get(name, GradAbst.NULLABLE)
        for vid in region:
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

    if len(mains) == 1 and cfg.entry != mains[0]:
        out.append(f"entry is v{cfg.entry}, not the main vertex v{mains[0]}")
    proc_entry = cfg.proc_entry
    for name, v in entries:
        if kinds[v] is IProc and proc_entry.get(name) != v:
            got = f"v{proc_entry[name]}" if name in proc_entry else "nothing"
            out.append(f"proc_entry maps {name!r} to {got}, not to its entry v{v}")
    for name, v in proc_entry.items():
        if name not in proc_ret:
            out.append(f"proc_entry maps {name!r} to v{v}, which no procedure entry declares")

    for name, region in regions:
        universe = cfg.universe.get(name)
        if universe is None:
            out.append(f"region {name!r} has no universe")
            continue
        for vid in region:
            for a in OPERANDS[kinds[vid]]:
                if getattr(instrs[vid], a) not in universe:
                    out.append(f"vertex v{vid} names {getattr(instrs[vid], a)!r}, outside the universe of {name!r}")
    return out


# ---------------------------------------------------------------------------
# Text and DOT
# ---------------------------------------------------------------------------


def render_cfg(cfg: ProgramCfg) -> str:
    """One line per vertex: its number, procedure, instruction and successors."""
    lines = []
    for v, (ins, proc, succs) in enumerate(zip(cfg.instr, cfg.proc, cfg.succ)):
        arrow = f"  -> {', '.join(f'v{u}' for u in succs)}" if succs else ""
        lines.append(f"v{v}: {proc}: {render_instr(ins)}{arrow}\n")
    return "".join(lines)


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def emit_dot(cfg: ProgramCfg) -> str:
    """Deterministic DOT rendering, one cluster per procedure plus main."""
    lines = ["digraph picl {", '    node [shape=box, fontname="monospace"];']
    groups: dict[str, list[int]] = {}
    for v, proc in enumerate(cfg.proc):
        groups.setdefault(proc, []).append(v)
    for name in sorted(groups, key=lambda n: groups[n][0]):
        lines.append(f'    subgraph "cluster_{_dot_escape(name)}" {{')
        title = name if name == MAIN else f"proc {name}"
        lines.append(f'        label="{_dot_escape(title)}";')
        for v in groups[name]:
            lines.append(f'        v{v} [label="{_dot_escape(render_instr(cfg.instr[v]))}"];')
        lines.append("    }")
    for v, succs in enumerate(cfg.succ):
        for u in succs:
            lines.append(f"    v{v} -> v{u};")
    lines.append("}")
    return "\n".join(lines) + "\n"
