"""Small-step execution over control-flow graphs.

A machine state is a stack of frames over a heap.  Values are naturals;
0 is null and positive values are heap locations.  Each frame holds an
environment and the vertex about to execute; the top frame drives.  Entering
main or a procedure initializes every variable of its universe to 0, so
environments are total from the entry step on.

Calls push an empty frame parked at the callee's entry; the caller frame
stays at the call vertex so the matching return can find the target variable
and the continuation.  Parameter and return annotations act as contracts:
plain execution gets stuck on a violated concrete annotation ('?' never
blocks), while checked (gradual) execution consults the safety bound
*before* every step and reports a structured error at the offending vertex
instead of running into the violation.  An instruction bounds at most one of
its operands, so a step has one guard or none.

One executor, `_execute`, runs every step in one loop.  On its first step a
vertex is decoded from the graph's columns (`instr[v]`, `succ[v]`, and
`proc[v]` for main's universe) into a site, kept on the graph: a flat tuple
of a small-int opcode for its instruction type and the operands its rule
reads, with annotations and the safety bound resolved to whether they admit
null and non-null.  A field read and a field write share one opcode, `_DEREF`,
whose receiver checks are the same and which copies one way or the other.
The loop tests the opcode inline and keeps the top frame's environment and
vertex in locals, writing them back to the state when a call pushes a frame
and when the loop ends.  It updates a `MachineState` in place:
the frames are a list, the heap a dict, and the state keeps its next free
location, so a step costs the same whatever the heap size and stack depth.
Every stuck, annotation and safety-bound check runs before the first write,
so a state that stops is exactly the state it stopped in.  `run` drives one
state to its end; `step` and `grad_step` advance the state they are given by
one step and return it inside the outcome, so a caller that needs an earlier
state copies it first.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .analysis import _BOUNDS, GradState, _finding, site_category
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
    ProgramCfg,
    render_instr,
)
from .lattice import Abst, GradAbst, ceil, exact, grad_conc_contains
from .record import Record, field

Env = dict[str, int]
Heap = dict[int, dict[str, int]]

DEFAULT_FUEL = 100_000


class Frame(NamedTuple):
    env: Env
    vertex: int


class MachineState(Record):
    """Stack of (env, vertex) frames, top last, over a heap; steps update it in place.

    next_loc is the next free location: one past the largest location in
    the heap when the state is built, then one past the last allocation.
    """

    frames: list[tuple[Env, int]]
    heap: Heap
    next_loc: int = field(init=False)

    def __post_init__(self) -> None:
        self.next_loc = 1 + max(self.heap, default=0)

    @property
    def top(self) -> Frame:
        return Frame(*self.frames[-1])


def initial_state(cfg: ProgramCfg) -> MachineState:
    return MachineState(frames=[({}, cfg.entry)], heap={})


# ---------------------------------------------------------------------------
# Described-by: do concrete environments fit abstract states?
# ---------------------------------------------------------------------------


def lifted_desc(env: Env, sigma: GradState) -> bool:
    """Optimistic fit: some denoted base fact admits each value."""
    return all(grad_conc_contains(g, env[x]) for x, g in sigma.items() if x in env)


# ---------------------------------------------------------------------------
# Step outcomes
# ---------------------------------------------------------------------------


class Stepped(Record, frozen=True):
    state: MachineState


class Final(Record, frozen=True):
    state: MachineState


class Stuck(Record, frozen=True):
    state: MachineState
    vertex: int
    reason: str


class Errored(Record, frozen=True):
    """A checked-execution stop: the next step's safety bound is violated."""

    state: MachineState
    vertex: int
    variable: str
    required: Abst
    value: int

    def to_json(self, cfg: ProgramCfg) -> dict:
        """The check site's finding, found as the value's exact fact, plus the value."""
        found = GradAbst.NULL if self.value == 0 else GradAbst.NONNULL
        category = site_category(cfg.instr[self.vertex])
        finding = _finding(category, cfg, self.vertex, self.variable, found, exact(self.required))
        return finding.to_json() | {"value": self.value}


Outcome = Union[Stepped, Final, Stuck, Errored]


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


# A site is what one vertex's step needs from the graph, decoded once:
#   (opcode, guard, next, operands...)
# where the opcode names the instruction type's rule in `_execute`, guard is
# () or the one (variable, required, (admits 0, admits non-0)) triple of a
# safety bound that can fail, next is the first successor (a branch's `if` arm)
# or None, and the operands are what the rule reads.  A site holds values taken
# from the graph, never the graph itself: the graph keeps the sites, and a site
# that held it would make a reference cycle.  The sites of one graph share
# their equal parts through a table kept beside them, which lives as long as
# they do: a guard and the template that `new` copies are one object per
# distinct value.
_Site = tuple

# Whether a fact admits (null, non-null): membership depends only on that.
_ADMITS = {g: (grad_conc_contains(g, 0), grad_conc_contains(g, 1)) for g in GradAbst}

# The opcodes, numbered in the order `_execute` tests them: about how often
# the alloc workload runs each kind.
_DEREF, _BRANCH, _SKIP, _CALL, _ENTER, _RETURN, _NEW, _COPY, _NULL, _AND_OR, _MAIN = range(11)


def _site(cfg: ProgramCfg, v: int, shared: dict) -> _Site:
    """Vertex v's site; shared holds the parts already built for cfg's other sites."""
    ins = cfg.instr[v]
    kind = type(ins)
    guard: tuple = ()
    bound_of = _BOUNDS.get(kind)
    if bound_of is not None:
        x, bound = bound_of(ins)
        admits = _ADMITS[bound]
        if not all(admits):
            # What a guard admits fixes what it requires, so (x, admits)
            # names it as well as (x, bound) would.
            guard = shared.get(key := (x, admits))
            if guard is None:
                guard = shared[key] = (x, ceil(bound), admits)
    succs = cfg.succ[v]
    nxt = succs[0] if succs else None
    if kind is IFieldRead or kind is IFieldWrite:
        reads = kind is IFieldRead
        return (_DEREF, guard, nxt, ins.obj, ins.fieldname, ins.target if reads else ins.source, reads)
    if kind is IBranch:
        return (_BRANCH, guard, nxt, ins.var, succs[1])  # (if, else): see validate
    if kind is IIf or kind is IElse:
        return (_SKIP, guard, nxt)
    if kind is ICall:
        return (_CALL, guard, nxt, cfg.proc_entry[ins.proc])
    if kind is IProc:
        entry_env = dict.fromkeys(sorted(cfg.universe[ins.name]), 0)
        return (_ENTER, guard, nxt, ins.name, ins.param, _ADMITS[ins.param_ann], ins.param_ann, entry_env)
    if kind is IReturn:
        return (_RETURN, guard, nxt, ins.var, _ADMITS[ins.ann], ins.ann)
    if kind is INew:
        template = shared.get(ins.fields)
        if template is None:
            template = shared[ins.fields] = dict.fromkeys(ins.fields, 0)
        return (_NEW, guard, nxt, ins.target, template)
    if kind is ICopy:
        return (_COPY, guard, nxt, ins.target, ins.source)
    if kind is IConstNull:
        return (_NULL, guard, nxt, ins.target)
    if kind is IAnd or kind is IOr:
        return (_AND_OR, guard, nxt, ins.target, ins.left, ins.right, kind is IAnd)
    if kind is IMain:
        return (_MAIN, guard, nxt, dict.fromkeys(sorted(cfg.universe[cfg.proc[v]]), 0))
    raise AssertionError(f"unknown instruction {ins!r}")


def _execute(
    cfg: ProgramCfg, m: MachineState, checked: bool, fuel: int, visited: Optional[list[int]] = None
) -> tuple[Optional[Outcome], int]:
    """Up to fuel steps of m in place: (the stop or None, the steps taken).

    One loop runs every step.  It keeps the top frame's environment and
    vertex in locals and writes them back to `m.frames[-1]` only when a call
    pushes a frame and when it ends; the frames below the top are current
    throughout.  A vertex's site is built on its first step and kept on cfg,
    so a vertex that cannot be decoded stops the run only once it is reached.
    A stop returns its outcome around m, into which it has written nothing.
    With visited, each step appends its vertex once its guard passes: the
    first `steps` of them are the vertices of the steps taken.
    """
    if cfg._run_sites is None:
        cfg._run_sites = ([None] * len(cfg.instr), {})
    sites, shared = cfg._run_sites
    instr, succ = cfg.instr, cfg.succ
    frames, heap = m.frames, m.heap
    env, v = frames[-1]
    try:
        for steps in range(fuel):
            site = sites[v]
            if site is None:
                site = sites[v] = _site(cfg, v, shared)
            if checked and site[1]:
                # Only the driving instruction's own operand carries a bound
                # that can fail.
                x, required, admits = site[1]
                if x in env:
                    value = env[x]
                    if not admits[value != 0]:
                        return Errored(m, v, x, required, value), steps
            if visited is not None:
                visited.append(v)
            op = site[0]
            if op == _DEREF:
                # A read copies the field into var, a write var into the field.
                _, _, nxt, obj, fieldname, var, reads = site
                r = env[obj]
                if r == 0:
                    return Stuck(m, v, f"null dereference: {obj} is null"), steps
                fields = heap.get(r)
                if fields is None or fieldname not in fields:
                    return Stuck(m, v, f"object at {r} has no field {fieldname!r}"), steps
                if reads:
                    env[var] = fields[fieldname]
                else:
                    fields[fieldname] = env[var]
                v = nxt
            elif op == _BRANCH:
                v = site[2] if env[site[3]] > 0 else site[4]
            elif op == _SKIP:
                v = site[2]
            elif op == _CALL:
                # The caller frame stays at the call, for the matching return.
                frames[-1] = (env, v)
                env, v = {}, site[3]
                frames.append((env, v))
            elif op == _ENTER:
                _, _, nxt, name, param, admits, ann, entry_env = site
                if len(frames) < 2:
                    return Stuck(m, v, "procedure entry without a caller"), steps
                caller_env, caller_v = frames[-2]
                call = instr[caller_v]
                if type(call) is not ICall or call.proc != name:
                    return Stuck(m, v, "caller frame is not at a matching call"), steps
                arg = caller_env[call.arg]
                if not admits[arg != 0]:
                    return Stuck(m, v, f"argument {call.arg} = {arg} violates parameter annotation @{ann}"), steps
                env = dict(entry_env)
                env[param] = arg
                v = nxt
            elif op == _RETURN:
                if len(frames) == 1:
                    return Final(m), steps
                _, _, _, var, admits, ann = site
                caller_env, caller_v = frames[-2]
                call = instr[caller_v]
                if type(call) is not ICall:
                    return Stuck(m, v, "caller frame is not at a call"), steps
                retval = env[var]
                if not admits[retval != 0]:
                    return Stuck(m, v, f"return value {var} = {retval} violates return annotation @{ann}"), steps
                frames.pop()
                caller_env[call.target] = retval
                env, v = caller_env, succ[caller_v][0]
            elif op == _NEW:
                loc = m.next_loc
                m.next_loc = loc + 1
                heap[loc] = site[4].copy()
                env[site[3]] = loc
                v = site[2]
            elif op == _COPY:
                env[site[3]] = env[site[4]]
                v = site[2]
            elif op == _NULL:
                env[site[3]] = 0
                v = site[2]
            elif op == _AND_OR:
                # `l && r` is r when l is non-null, else l; `l || r` is r when l is null, else l.
                _, _, nxt, target, left, right, is_and = site
                n1, n2 = env[left], env[right]
                env[target] = n2 if (n1 > 0) is is_and else n1
                v = nxt
            else:  # _MAIN
                env, v = dict(site[3]), site[2]
    except KeyError as missing:
        return Stuck(m, v, f"undefined variable {missing}"), steps
    finally:
        frames[-1] = (env, v)
    return None, max(fuel, 0)  # a negative fuel takes no step


# ---------------------------------------------------------------------------
# One step
# ---------------------------------------------------------------------------


def step(cfg: ProgramCfg, state: MachineState) -> Union[Stepped, Final, Stuck]:
    """One plain transition of state, in place, or Final/Stuck when none exists."""
    return _execute(cfg, state, False, 1)[0] or Stepped(state)


def grad_step(cfg: ProgramCfg, state: MachineState) -> Outcome:
    """One checked transition of state, in place: the safety bound first, then the plain step.

    Only one operand of the driving instruction carries a non-trivial bound;
    every other variable's bound is Nullable, which no value violates.  A
    violation reports that operand.
    """
    return _execute(cfg, state, True, 1)[0] or Stepped(state)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


class RunResult(Record):
    outcome: str  # "final" | "stuck" | "error" | "fuel"
    state: MachineState
    steps: int
    trace: list[str]
    stuck_reason: Optional[str] = None
    error: Optional[Errored] = None
    final_var: Optional[str] = None

    @property
    def returned(self) -> Optional[int]:
        """Value of the returned variable in a final state, if final."""
        if self.outcome != "final" or self.final_var is None:
            return None
        return self.state.top.env.get(self.final_var)


def run(
    cfg: ProgramCfg,
    mode: str = "gradual",
    max_steps: int = DEFAULT_FUEL,
    collect_trace: bool = False,
) -> RunResult:
    """Drive the machine to Final/Stuck/Errored or until fuel runs out.

    mode "plain" uses the unchecked step; "gradual" checks safety bounds.
    The trace holds one line per executed step: `k: proc/vN: instruction`,
    built after the run from one label per vertex visited.
    """
    if mode not in ("plain", "gradual"):
        raise ValueError(f"unknown mode {mode!r}")
    state = initial_state(cfg)
    visited: Optional[list[int]] = [] if collect_trace else None
    stop, steps = _execute(cfg, state, mode == "gradual", max_steps, visited)
    trace: list[str] = []
    if visited:
        label = {u: f"{cfg.proc[u]}/v{u}: {render_instr(cfg.instr[u])}" for u in set(visited)}
        trace = [f"{k}: {label[u]}" for k, u in enumerate(visited[:steps])]
    if stop is None:
        return RunResult("fuel", state, steps, trace)
    if type(stop) is Final:
        return RunResult("final", state, steps, trace, final_var=cfg.instr[state.top.vertex].var)
    if type(stop) is Stuck:
        return RunResult("stuck", state, steps, trace, stuck_reason=stop.reason)
    return RunResult("error", state, steps, trace, error=stop)
