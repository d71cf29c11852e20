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

States are value-semantic snapshots: stepping never mutates the input state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .analysis import BaseState, GradState, constrained_vars, lifted_safe, site_category
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
from .lattice import Abst, ceil, conc_contains, grad_conc_contains

Env = dict[str, int]
Heap = dict[int, dict[str, int]]

DEFAULT_FUEL = 100_000


@dataclass(frozen=True)
class Frame:
    env: Env
    vertex: int


@dataclass(frozen=True)
class MachineState:
    """Stack of frames (top last) over a heap."""

    frames: tuple[Frame, ...]
    heap: Heap

    @property
    def top(self) -> Frame:
        return self.frames[-1]


def initial_state(cfg: ProgramCfg) -> MachineState:
    return MachineState(frames=(Frame({}, cfg.entry),), heap={})


# ---------------------------------------------------------------------------
# Described-by: do concrete environments fit abstract states?
# ---------------------------------------------------------------------------


def desc(env: Env, sigma: BaseState) -> bool:
    """env fits sigma: every fact constrains its variable's value.

    Variables missing from either map are unconstrained; in particular the
    empty environment fits everything (entry frames are bound later).
    """
    return all(conc_contains(a, env[x]) for x, a in sigma.items() if x in env)


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
# Plain small step
# ---------------------------------------------------------------------------


def _advance(state: MachineState, env: Env, vertex: int) -> Stepped:
    frames = state.frames[:-1] + (Frame(env, vertex),)
    return Stepped(MachineState(frames, state.heap))


def step(cfg: ProgramCfg, state: MachineState) -> Union[Stepped, Final, Stuck]:
    """One plain transition, or Final/Stuck when none exists."""
    frame = state.top
    v = frame.vertex
    ins = cfg.instr(v)
    env = frame.env
    succs = cfg.successors(v)

    def stuck(reason: str) -> Stuck:
        return Stuck(state, v, reason)

    if isinstance(ins, IReturn) and len(state.frames) == 1:
        return Final(state)

    try:
        if isinstance(ins, ICopy):
            return _advance(state, {**env, ins.target: env[ins.source]}, succs[0])
        if isinstance(ins, IConstNull):
            return _advance(state, {**env, ins.target: 0}, succs[0])
        if isinstance(ins, INew):
            loc = 1 + max(state.heap, default=0)
            heap = {**state.heap, loc: {f: 0 for f in ins.fields}}
            frames = state.frames[:-1] + (Frame({**env, ins.target: loc}, succs[0]),)
            return Stepped(MachineState(frames, heap))
        if isinstance(ins, IAnd):
            n1, n2 = env[ins.left], env[ins.right]
            return _advance(state, {**env, ins.target: n2 if n1 > 0 else n1}, succs[0])
        if isinstance(ins, IOr):
            n1, n2 = env[ins.left], env[ins.right]
            return _advance(state, {**env, ins.target: n1 if n1 > 0 else n2}, succs[0])
        if isinstance(ins, IFieldRead):
            r = env[ins.obj]
            if r == 0:
                return stuck(f"null dereference: {ins.obj} is null")
            if r not in state.heap or ins.fieldname not in state.heap[r]:
                return stuck(f"object at {r} has no field {ins.fieldname!r}")
            return _advance(state, {**env, ins.target: state.heap[r][ins.fieldname]}, succs[0])
        if isinstance(ins, IFieldWrite):
            r = env[ins.obj]
            if r == 0:
                return stuck(f"null dereference: {ins.obj} is null")
            if r not in state.heap or ins.fieldname not in state.heap[r]:
                return stuck(f"object at {r} has no field {ins.fieldname!r}")
            obj = {**state.heap[r], ins.fieldname: env[ins.source]}
            heap = {**state.heap, r: obj}
            frames = state.frames[:-1] + (Frame(dict(env), succs[0]),)
            return Stepped(MachineState(frames, heap))
        if isinstance(ins, IBranch):
            if_v, else_v = cfg.branch_arms(v)
            return _advance(state, dict(env), if_v if env[ins.var] > 0 else else_v)
        if isinstance(ins, (IIf, IElse)):
            return _advance(state, dict(env), succs[0])
        if isinstance(ins, IMain):
            rho0 = {x: 0 for x in sorted(cfg.universe[cfg.vertices[v].proc])}
            return _advance(state, rho0, succs[0])
        if isinstance(ins, ICall):
            frames = state.frames + (Frame({}, cfg.proc_entry[ins.proc]),)
            return Stepped(MachineState(frames, state.heap))
        if isinstance(ins, IProc):
            if len(state.frames) < 2:
                return stuck("procedure entry without a caller")
            caller = state.frames[-2]
            call = cfg.instr(caller.vertex)
            if not isinstance(call, ICall) or call.proc != ins.name:
                return stuck("caller frame is not at a matching call")
            arg = caller.env[call.arg]
            if not grad_conc_contains(ins.param_ann, arg):
                return stuck(
                    f"argument {call.arg} = {arg} violates parameter annotation @{ins.param_ann}"
                )
            rho = {x: 0 for x in sorted(cfg.universe[ins.name])}
            rho[ins.param] = arg
            frames = state.frames[:-1] + (Frame(rho, succs[0]),)
            return Stepped(MachineState(frames, state.heap))
        if isinstance(ins, IReturn):
            caller = state.frames[-2]
            call = cfg.instr(caller.vertex)
            if not isinstance(call, ICall):
                return stuck("caller frame is not at a call")
            retval = env[ins.var]
            if not grad_conc_contains(ins.ann, retval):
                return stuck(
                    f"return value {ins.var} = {retval} violates return annotation @{ins.ann}"
                )
            caller_env = {**caller.env, call.target: retval}
            cont = cfg.successors(caller.vertex)[0]
            frames = state.frames[:-2] + (Frame(caller_env, cont),)
            return Stepped(MachineState(frames, state.heap))
    except KeyError as missing:
        return stuck(f"undefined variable {missing}")
    raise AssertionError(f"unknown instruction {ins!r}")


# ---------------------------------------------------------------------------
# Checked (gradual) small step
# ---------------------------------------------------------------------------


def grad_step(cfg: ProgramCfg, state: MachineState) -> Outcome:
    """One checked transition: safety bounds first, then the plain step.

    Only the driving instruction's own operands carry non-trivial bounds;
    every other variable's bound is Nullable, which no value violates.  On a
    violation the lexicographically first offending variable is reported.
    """
    frame = state.top
    v = frame.vertex
    ins = cfg.instr(v)
    for x in sorted(set(constrained_vars(ins))):
        if x not in frame.env:
            continue
        bound = lifted_safe(ins, x)
        value = frame.env[x]
        if not grad_conc_contains(bound, value):
            return Errored(state, v, x, ceil(bound), value)
    return step(cfg, state)


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
    stepper = step if mode == "plain" else grad_step
    state = initial_state(cfg)
    trace: list[str] = []
    steps = 0
    while steps < max_steps:
        outcome = stepper(cfg, state)
        if isinstance(outcome, Final):
            ins = cfg.instr(state.top.vertex)
            final_var = ins.var if isinstance(ins, IReturn) else None
            return RunResult("final", state, steps, trace, final_var=final_var)
        if isinstance(outcome, Stuck):
            return RunResult("stuck", state, steps, trace, stuck_reason=outcome.reason)
        if isinstance(outcome, Errored):
            return RunResult("error", state, steps, trace, error=outcome)
        if collect_trace:
            vtx = cfg.vertices[state.top.vertex]
            trace.append(f"{steps}: {vtx.proc}/v{vtx.id}: {render_instr(vtx.instr)}")
        state = outcome.state
        steps += 1
    return RunResult("fuel", state, steps, trace)
