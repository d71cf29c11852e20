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
blocks), while checked (gradual) execution consults the safety bounds
*before* every step and reports a structured error at the offending vertex
instead of running into the violation.

One executor, `_execute`, runs every step.  On its first step a vertex is
decoded into a site, kept on the graph: a flat tuple of the handler for its
instruction type and the operands it reads, with annotations and safety
bounds resolved to whether they admit null and non-null.  It updates a
`MachineState` in place: the frames are a list, the heap a dict, and the
state keeps its next free location, so a step costs the same whatever the
heap size and stack depth.  Every stuck, annotation and safety-bound check
runs before the first write, so a state that stops is exactly the state it
stopped in.  `run` drives one state to its end; `step` and `grad_step`
advance the state they are given by one step and return it inside the
outcome, so a caller that needs an earlier state copies it first.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Union

from .analysis import GradState, _safety_bounds, site_category
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
from .lattice import Abst, GradAbst, ceil, grad_conc_contains
from .record import field, record

Env = dict[str, int]
Heap = dict[int, dict[str, int]]

DEFAULT_FUEL = 100_000


class Frame(NamedTuple):
    env: Env
    vertex: int


@record
class MachineState:
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


@record(frozen=True)
class Stepped:
    state: MachineState


@record(frozen=True)
class Final:
    state: MachineState


@record(frozen=True)
class Stuck:
    state: MachineState
    vertex: int
    reason: str


@record(frozen=True)
class Errored:
    """A checked-execution stop: the next step's safety bound is violated."""

    state: MachineState
    vertex: int
    variable: str
    required: Abst
    value: int

    def to_json(self, cfg: ProgramCfg) -> dict:
        v = cfg.vertices[self.vertex]
        return {
            "category": site_category(v.instr),
            "proc": v.proc,
            "vertex": self.vertex,
            "line": v.pos[0],
            "col": v.pos[1],
            "variable": self.variable,
            "required": str(self.required),
            "found": str(Abst.NULL if self.value == 0 else Abst.NONNULL),
            "value": self.value,
        }


Outcome = Union[Stepped, Final, Stuck, Errored]


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


# A site is what one vertex's step needs from the graph, decoded once:
#   (handler, guards, vertex, the sole successor or None, operands...)
# where the handler is the function for the vertex's instruction type, the
# operands are what it reads from the site, and guards are the (variable,
# required, (admits 0, admits non-0)) triples of the safety bounds that can
# fail.  A site holds parts of the graph (its vertex list and successor
# lists), never the graph itself: the graph keeps the sites, and a site that
# held it would make a reference cycle.
_Site = tuple

# Whether a fact admits (null, non-null): membership depends only on that.
_ADMITS = {g: (grad_conc_contains(g, 0), grad_conc_contains(g, 1)) for g in GradAbst}
# A bound's (required, admits) when some value fails it, else ().
_GUARD = {g: () if all(_ADMITS[g]) else (ceil(g), _ADMITS[g]) for g in GradAbst}


def _skip(site: _Site, m: MachineState, env: Env) -> None:
    m.frames[-1] = (env, site[3])


def _const_null(site: _Site, m: MachineState, env: Env) -> None:
    env[site[4]] = 0
    m.frames[-1] = (env, site[3])


def _copy(site: _Site, m: MachineState, env: Env) -> None:
    _, _, _, nxt, target, source = site
    env[target] = env[source]
    m.frames[-1] = (env, nxt)


def _new(site: _Site, m: MachineState, env: Env) -> None:
    _, _, _, nxt, target, blank = site
    loc = m.next_loc
    m.next_loc = loc + 1
    m.heap[loc] = blank.copy()
    env[target] = loc
    m.frames[-1] = (env, nxt)


def _and_or(site: _Site, m: MachineState, env: Env) -> None:
    """`l && r` is r when l is non-null, else l; `l || r` is r when l is null, else l."""
    _, _, _, nxt, target, left, right, is_and = site
    n1, n2 = env[left], env[right]
    env[target] = n2 if (n1 > 0) is is_and else n1
    m.frames[-1] = (env, nxt)


def _field(site: _Site, m: MachineState, env: Env) -> Optional[Stuck]:
    """A field read (target set) or write (source set) through obj."""
    _, _, v, nxt, obj, fieldname, target, source = site
    r = env[obj]
    if r == 0:
        return Stuck(m, v, f"null dereference: {obj} is null")
    fields = m.heap.get(r)
    if fields is None or fieldname not in fields:
        return Stuck(m, v, f"object at {r} has no field {fieldname!r}")
    if target is None:
        fields[fieldname] = env[source]
    else:
        env[target] = fields[fieldname]
    m.frames[-1] = (env, nxt)
    return None


def _branch(site: _Site, m: MachineState, env: Env) -> None:
    _, _, _, _, var, if_v, else_v = site
    m.frames[-1] = (env, if_v if env[var] > 0 else else_v)


def _main(site: _Site, m: MachineState, env: Env) -> None:
    m.frames[-1] = (dict(site[4]), site[3])


def _call(site: _Site, m: MachineState, env: Env) -> None:
    # The caller frame stays at the call, for the matching return.
    m.frames.append(({}, site[4]))


def _enter(site: _Site, m: MachineState, env: Env) -> Optional[Stuck]:
    _, _, v, nxt, name, param, admits, ann, entry_env, vertices = site
    frames = m.frames
    if len(frames) < 2:
        return Stuck(m, v, "procedure entry without a caller")
    caller_env, caller_v = frames[-2]
    call = vertices[caller_v].instr
    if not isinstance(call, ICall) or call.proc != name:
        return Stuck(m, v, "caller frame is not at a matching call")
    arg = caller_env[call.arg]
    if not admits[arg != 0]:
        return Stuck(m, v, f"argument {call.arg} = {arg} violates parameter annotation @{ann}")
    rho = dict(entry_env)
    rho[param] = arg
    frames[-1] = (rho, nxt)
    return None


def _return(site: _Site, m: MachineState, env: Env) -> Union[Final, Stuck, None]:
    _, _, v, _, var, admits, ann, vertices, succ = site
    frames = m.frames
    if len(frames) == 1:
        return Final(m)
    caller_env, caller_v = frames[-2]
    call = vertices[caller_v].instr
    if not isinstance(call, ICall):
        return Stuck(m, v, "caller frame is not at a call")
    retval = env[var]
    if not admits[retval != 0]:
        return Stuck(m, v, f"return value {var} = {retval} violates return annotation @{ann}")
    frames.pop()
    caller_env[call.target] = retval
    frames[-1] = (caller_env, succ[caller_v][0])
    return None


# Each instruction type's handler, and the operands it reads from
# (cfg, vertex id, instruction).
_DECODE: dict[type, tuple[Callable[..., Optional[Outcome]], Callable[..., tuple]]] = {
    ICopy: (_copy, lambda cfg, v, ins: (ins.target, ins.source)),
    IConstNull: (_const_null, lambda cfg, v, ins: (ins.target,)),
    INew: (_new, lambda cfg, v, ins: (ins.target, dict.fromkeys(ins.fields, 0))),
    IAnd: (_and_or, lambda cfg, v, ins: (ins.target, ins.left, ins.right, True)),
    IOr: (_and_or, lambda cfg, v, ins: (ins.target, ins.left, ins.right, False)),
    IFieldRead: (_field, lambda cfg, v, ins: (ins.obj, ins.fieldname, ins.target, None)),
    IFieldWrite: (_field, lambda cfg, v, ins: (ins.obj, ins.fieldname, None, ins.source)),
    IBranch: (_branch, lambda cfg, v, ins: (ins.var, *cfg.succ[v])),  # (if, else): see validate
    IIf: (_skip, lambda cfg, v, ins: ()),
    IElse: (_skip, lambda cfg, v, ins: ()),
    IMain: (_main, lambda cfg, v, ins: (dict.fromkeys(sorted(cfg.universe[cfg.vertices[v].proc]), 0),)),
    ICall: (_call, lambda cfg, v, ins: (cfg.proc_entry[ins.proc],)),
    IProc: (_enter, lambda cfg, v, ins: (
        ins.name, ins.param, _ADMITS[ins.param_ann], ins.param_ann,
        dict.fromkeys(sorted(cfg.universe[ins.name]), 0), cfg.vertices,
    )),
    IReturn: (_return, lambda cfg, v, ins: (ins.var, _ADMITS[ins.ann], ins.ann, cfg.vertices, cfg.succ)),
}


def _site(cfg: ProgramCfg, v: int) -> _Site:
    ins = cfg.vertices[v].instr
    entry = _DECODE.get(type(ins))
    if entry is None:
        raise AssertionError(f"unknown instruction {ins!r}")
    handler, decode = entry
    guards: tuple = ()
    for x, bound in _safety_bounds(ins):
        if guard := _GUARD[bound]:
            guards += ((x, *guard),)
    succs = cfg.succ[v]
    return (handler, guards, v, succs[0] if succs else None) + decode(cfg, v, ins)


def _execute(
    cfg: ProgramCfg, m: MachineState, checked: bool, fuel: int, trace: Optional[list[str]] = None
) -> tuple[Optional[Outcome], int]:
    """Up to fuel steps of m in place: (the stop or None, the steps taken).

    A vertex's site is built on its first step and kept on cfg.  A stop
    returns its outcome around m, into which it has written nothing.  With a
    trace, each step taken appends its line.
    """
    if cfg._run_sites is None:
        cfg._run_sites = [None] * len(cfg.vertices)
    sites = cfg._run_sites
    frames = m.frames
    for steps in range(fuel):
        env, v = frames[-1]
        try:
            site = sites[v]
            if site is None:
                site = sites[v] = _site(cfg, v)
            if checked:
                # Only the driving instruction's own operand carries a bound
                # that can fail.
                for x, required, admits in site[1]:
                    if x in env:
                        value = env[x]
                        if not admits[value != 0]:
                            return Errored(m, v, x, required, value), steps
            stop = site[0](site, m, env)
        except KeyError as missing:
            return Stuck(m, v, f"undefined variable {missing}"), steps
        if stop is not None:
            return stop, steps
        if trace is not None:
            vtx = cfg.vertices[v]
            trace.append(f"{steps}: {vtx.proc}/v{vtx.id}: {render_instr(vtx.instr)}")
    return None, max(fuel, 0)  # a negative fuel takes no step


# ---------------------------------------------------------------------------
# One step
# ---------------------------------------------------------------------------


def step(cfg: ProgramCfg, state: MachineState) -> Union[Stepped, Final, Stuck]:
    """One plain transition of state, in place, or Final/Stuck when none exists."""
    return _execute(cfg, state, False, 1)[0] or Stepped(state)


def grad_step(cfg: ProgramCfg, state: MachineState) -> Outcome:
    """One checked transition of state, in place: safety bounds first, then the plain step.

    Only the driving instruction's own operands carry non-trivial bounds;
    every other variable's bound is Nullable, which no value violates.  On a
    violation the lexicographically first offending variable is reported.
    """
    return _execute(cfg, state, True, 1)[0] or Stepped(state)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


@record
class RunResult:
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
    The trace holds one line per executed step: `k: proc/vN: instruction`.
    """
    if mode not in ("plain", "gradual"):
        raise ValueError(f"unknown mode {mode!r}")
    state = initial_state(cfg)
    trace: list[str] = []
    stop, steps = _execute(cfg, state, mode == "gradual", max_steps, trace if collect_trace else None)
    if stop is None:
        return RunResult("fuel", state, steps, trace)
    if isinstance(stop, Final):
        return RunResult("final", state, steps, trace, final_var=cfg.vertices[state.top.vertex].instr.var)
    if isinstance(stop, Stuck):
        return RunResult("stuck", state, steps, trace, stuck_reason=stop.reason)
    return RunResult("error", state, steps, trace, error=stop)
