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

One executor, `_execute`, holds the instruction rules.  It updates a
`MachineState` in place: the frames are a list, the heap a dict, and the
state keeps its next free location, so a step costs the same whatever the
heap size and stack depth.  Every stuck, annotation and safety-bound check
runs before the first write, so a state that stops is exactly the state it
stopped in.  `run` drives one state to its end; `step` and `grad_step`
advance the state they are given by one step and return it inside the
outcome, so a caller that needs an earlier state copies it first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

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

Env = dict[str, int]
Heap = dict[int, dict[str, int]]

DEFAULT_FUEL = 100_000


class Frame(NamedTuple):
    env: Env
    vertex: int


@dataclass(slots=True)
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


@dataclass(frozen=True)
class Stepped:
    state: MachineState


@dataclass(frozen=True)
class Final:
    state: MachineState


@dataclass(frozen=True)
class Stuck:
    state: MachineState
    vertex: int
    reason: str


@dataclass(frozen=True)
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


# What one vertex's step needs from the graph, looked up once:
#   (instr, the sole successor or None, the (if, else) arms of a branch or
#    None, guards, for main and proc entries every universe variable at 0
#    or None)
# where guards are the (variable, bound, (admits 0, admits non-0))
# triples of the bounds that can fail.
_Site = tuple

# Whether a bound admits (null, non-null): membership depends only on that.
_ADMITS = {g: (grad_conc_contains(g, 0), grad_conc_contains(g, 1)) for g in GradAbst}


def _site(cfg: ProgramCfg, v: int) -> _Site:
    ins = cfg.vertices[v].instr
    succs = cfg.succ[v]
    guards = tuple((x, bound, _ADMITS[bound]) for x, bound in _safety_bounds(ins) if not all(_ADMITS[bound]))
    arms = entry_env = None
    if isinstance(ins, IBranch):
        arms = cfg.branch_arms(v)
    elif isinstance(ins, IMain):
        entry_env = dict.fromkeys(sorted(cfg.universe[cfg.vertices[v].proc]), 0)
    elif isinstance(ins, IProc):
        entry_env = dict.fromkeys(sorted(cfg.universe[ins.name]), 0)
    return (ins, succs[0] if succs else None, arms, guards, entry_env)


def _execute(cfg: ProgramCfg, site: _Site, m: MachineState, checked: bool) -> Optional[Outcome]:
    """Execute the top frame's vertex, whose site is given, on m in place.

    None when it stepped.  A stop returns its outcome around m, into which
    nothing has been written.
    """
    frames = m.frames
    env, v = frames[-1]
    ins, nxt, arms, guards, entry_env = site
    if checked:
        # Only the driving instruction's own operand carries a bound that can
        # fail.
        for x, bound, admits in guards:
            if x in env:
                value = env[x]
                if not admits[value != 0]:
                    return Errored(m, v, x, ceil(bound), value)

    if isinstance(ins, IReturn) and len(frames) == 1:
        return Final(m)

    try:
        if isinstance(ins, ICopy):
            env[ins.target] = env[ins.source]
        elif isinstance(ins, IConstNull):
            env[ins.target] = 0
        elif isinstance(ins, INew):
            loc = m.next_loc
            m.next_loc = loc + 1
            m.heap[loc] = {f: 0 for f in ins.fields}
            env[ins.target] = loc
        elif isinstance(ins, IAnd):
            n1, n2 = env[ins.left], env[ins.right]
            env[ins.target] = n2 if n1 > 0 else n1
        elif isinstance(ins, IOr):
            n1, n2 = env[ins.left], env[ins.right]
            env[ins.target] = n1 if n1 > 0 else n2
        elif isinstance(ins, (IFieldRead, IFieldWrite)):
            r = env[ins.obj]
            if r == 0:
                return Stuck(m, v, f"null dereference: {ins.obj} is null")
            obj = m.heap.get(r)
            if obj is None or ins.fieldname not in obj:
                return Stuck(m, v, f"object at {r} has no field {ins.fieldname!r}")
            if isinstance(ins, IFieldRead):
                env[ins.target] = obj[ins.fieldname]
            else:
                obj[ins.fieldname] = env[ins.source]
        elif isinstance(ins, IBranch):
            nxt = arms[0] if env[ins.var] > 0 else arms[1]
        elif isinstance(ins, (IIf, IElse)):
            pass
        elif isinstance(ins, IMain):
            frames[-1] = (dict(entry_env), nxt)
            return None
        elif isinstance(ins, ICall):
            frames.append(({}, cfg.proc_entry[ins.proc]))
            return None
        elif isinstance(ins, IProc):
            if len(frames) < 2:
                return Stuck(m, v, "procedure entry without a caller")
            caller_env, caller_v = frames[-2]
            call = cfg.instr(caller_v)
            if not isinstance(call, ICall) or call.proc != ins.name:
                return Stuck(m, v, "caller frame is not at a matching call")
            arg = caller_env[call.arg]
            if not grad_conc_contains(ins.param_ann, arg):
                return Stuck(
                    m, v,
                    f"argument {call.arg} = {arg} violates parameter annotation @{ins.param_ann}",
                )
            rho = dict(entry_env)
            rho[ins.param] = arg
            frames[-1] = (rho, nxt)
            return None
        elif isinstance(ins, IReturn):
            caller_env, caller_v = frames[-2]
            call = cfg.instr(caller_v)
            if not isinstance(call, ICall):
                return Stuck(m, v, "caller frame is not at a call")
            retval = env[ins.var]
            if not grad_conc_contains(ins.ann, retval):
                return Stuck(
                    m, v,
                    f"return value {ins.var} = {retval} violates return annotation @{ins.ann}",
                )
            cont = cfg.successors(caller_v)[0]
            frames.pop()
            caller_env[call.target] = retval
            frames[-1] = (caller_env, cont)
            return None
        else:
            raise AssertionError(f"unknown instruction {ins!r}")
    except KeyError as missing:
        return Stuck(m, v, f"undefined variable {missing}")
    frames[-1] = (env, nxt)
    return None


# ---------------------------------------------------------------------------
# One step
# ---------------------------------------------------------------------------


def step(cfg: ProgramCfg, state: MachineState) -> Union[Stepped, Final, Stuck]:
    """One plain transition of state, in place, or Final/Stuck when none exists."""
    return _execute(cfg, _site(cfg, state.frames[-1][1]), state, False) or Stepped(state)


def grad_step(cfg: ProgramCfg, state: MachineState) -> Outcome:
    """One checked transition of state, in place: safety bounds first, then the plain step.

    Only the driving instruction's own operands carry non-trivial bounds;
    every other variable's bound is Nullable, which no value violates.  On a
    violation the lexicographically first offending variable is reported.
    """
    return _execute(cfg, _site(cfg, state.frames[-1][1]), state, True) or Stepped(state)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


@dataclass
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
    checked = mode == "gradual"
    sites = [_site(cfg, v) for v in range(len(cfg.vertices))]
    state = initial_state(cfg)
    trace: list[str] = []
    steps = 0
    while steps < max_steps:
        v = state.frames[-1][1]
        stop = _execute(cfg, sites[v], state, checked)
        if stop is not None:
            if isinstance(stop, Final):
                return RunResult("final", state, steps, trace, final_var=cfg.instr(v).var)
            if isinstance(stop, Stuck):
                return RunResult("stuck", state, steps, trace, stuck_reason=stop.reason)
            return RunResult("error", state, steps, trace, error=stop)
        if collect_trace:
            vtx = cfg.vertices[v]
            trace.append(f"{steps}: {vtx.proc}/v{vtx.id}: {render_instr(vtx.instr)}")
        steps += 1
    return RunResult("fuel", state, steps, trace)
