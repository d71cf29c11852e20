"""Small-step machine: plain and checked execution."""

import copy
import re
import typing

import pytest
from conftest import LOOP_SRC, growth_per_vertex, scenario_src, workload_source

from graduator import cfg as cfg_module
from graduator import runtime
from graduator.analysis import constrained_vars, kildall, lifted_safe
from graduator.cfg import (
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
    lower,
    render_instr,
)
from graduator.lattice import Abst, GradAbst, ceil, exact, grad_conc_contains
from graduator.record import replace
from graduator.runtime import (
    Errored,
    Final,
    Frame,
    MachineState,
    Stepped,
    Stuck,
    grad_step,
    initial_state,
    lifted_desc,
    run,
    step,
)
from graduator.syntax import parse
from graduator.testkit import GenConfig, corpus_paths, gen_program


def drive(cfg, n, mode="plain"):
    """n plain/checked steps from the initial state; asserts each one steps."""
    stepper = step if mode == "plain" else grad_step
    state = initial_state(cfg)
    for _ in range(n):
        outcome = stepper(cfg, state)
        assert isinstance(outcome, Stepped), outcome
        state = outcome.state
    return state


def until_outcome(cfg, mode="plain"):
    stepper = step if mode == "plain" else grad_step
    state = initial_state(cfg)
    for _ in range(10_000):
        outcome = stepper(cfg, state)
        if not isinstance(outcome, Stepped):
            return outcome
        state = outcome.state
    raise AssertionError("no terminal outcome within 10000 steps")


def test_initial_state_is_one_unbound_frame():
    cfg = lower(parse("main { var x; x := null; return x; }"))
    state = initial_state(cfg)
    assert state.frames == [Frame({}, cfg.entry)]
    assert state.heap == {}


def test_described_by_is_pointwise_on_the_shared_domain():
    def desc(env, sigma):
        # On exact facts, lifted description is the base-domain one.
        return lifted_desc(env, {x: exact(a) for x, a in sigma.items()})

    assert desc({}, {"x": Abst.NONNULL})
    assert desc({"x": 5}, {})
    assert desc({"x": 5, "y": 0}, {"x": Abst.NONNULL, "y": Abst.NULL})
    assert not desc({"x": 0}, {"x": Abst.NONNULL})
    assert not desc({"x": 5}, {"x": Abst.NULL})
    assert desc({"x": 5}, {"x": Abst.NULLABLE, "zzz": Abst.NULL})


def test_lifted_described_by_is_optimistic():
    assert lifted_desc({"x": 0}, {"x": GradAbst.UNKNOWN})
    assert lifted_desc({"x": 0}, {"x": GradAbst.UNKNOWN_NULL})
    assert lifted_desc({"x": 7}, {"x": GradAbst.UNKNOWN_NULL})  # ?Null also denotes Nullable
    assert not lifted_desc({"x": 0}, {"x": GradAbst.NONNULL})
    assert not lifted_desc({"x": 7}, {"x": GradAbst.NULL})


def test_main_entry_zeroes_the_universe():
    cfg = lower(parse("main { var x; var y; x := null; y := x; return y; }"))
    state = drive(cfg, 1)
    assert state.top.env == {"x": 0, "y": 0}


def test_allocation_is_sequential_and_fields_start_null():
    cfg = lower(
        parse(
            "field f; field g;"
            " main { var a; var b; a := new {f, g}; b := new {f}; return b; }"
        )
    )
    state = drive(cfg, 3)
    assert state.heap == {1: {"f": 0, "g": 0}, 2: {"f": 0}}
    assert state.top.env == {"a": 1, "b": 2}


def test_boolean_operators_on_values():
    src = (
        "field f;"
        " main { var a; var b; var c; a := new {f}; b := null;"
        " c := a && b; c := b && a; c := a || b; c := b || a; return a; }"
    )
    cfg = lower(parse(src))
    state = drive(cfg, 3)
    seen = []
    for _ in range(4):
        state = step(cfg, state).state
        seen.append(state.top.env["c"])
    # and yields the right value when the left is truthy, else the left;
    # or yields the left when truthy, else the right
    assert seen == [0, 0, 1, 1]


def test_branch_follows_the_scrutinee():
    src = "main { var x; x := null; if (x != null) { x := x; } else { x := null; } return x; }"
    cfg = lower(parse(src))
    state = drive(cfg, 3)  # main, const, branch
    assert "IElse" == type(cfg.instr[state.top.vertex]).__name__


def test_field_read_and_write():
    src = (
        "field f;"
        " main { var a; var b; a := new {f}; b := new {f}; a.f := b; b := a.f; return b; }"
    )
    cfg = lower(parse(src))
    state = drive(cfg, 5)
    assert state.heap[1] == {"f": 2}
    assert state.top.env["b"] == 2


def test_null_dereference_sticks_the_plain_machine():
    src = "field f; main { var a; var b; a := null; b := a.f; return b; }"
    outcome = until_outcome(lower(parse(src)), mode="plain")
    assert isinstance(outcome, Stuck)
    assert outcome.reason == "null dereference: a is null"


def test_call_pushes_an_unbound_frame_then_entry_binds():
    cfg = lower(parse(LOOP_SRC))
    # right after ICall the new top frame is unbound at the callee entry
    state = initial_state(cfg)
    while not isinstance(cfg.instr[state.top.vertex], ICall):
        state = step(cfg, state).state
    step(cfg, state)
    assert len(state.frames) == 2
    assert state.top.env == {}
    assert state.top.vertex in cfg.proc_entry.values()
    # the entry step then binds the parameter from the caller's argument
    entry_ins = cfg.instr[state.top.vertex]
    step(cfg, state)
    assert state.top.env[entry_ins.param] == 0  # foo(null)


def test_entry_enforces_the_parameter_annotation():
    src = (
        "field f;"
        " proc mk@NonNull(x @NonNull) { var t; t := new {f}; return t; }"
        " main { var a; a := mk(null); return a; }"
    )
    cfg = lower(parse(src))
    plain = until_outcome(cfg, mode="plain")
    assert isinstance(plain, Stuck)
    assert "violates parameter annotation @NonNull" in plain.reason
    # the checked machine refuses earlier, at the call site itself
    checked = until_outcome(cfg, mode="gradual")
    assert isinstance(checked, Errored)
    assert isinstance(cfg.instr[checked.vertex], ICall)
    assert checked.required is Abst.NONNULL and checked.value == 0


def test_return_enforces_the_return_annotation():
    src = "proc mk@NonNull(x) { var t; t := null; return t; } main { var a; a := mk(null); return a; }"
    cfg = lower(parse(src))
    plain = until_outcome(cfg, mode="plain")
    assert isinstance(plain, Stuck)
    assert "violates return annotation @NonNull" in plain.reason
    checked = until_outcome(cfg, mode="gradual")
    assert isinstance(checked, Errored)
    assert checked.variable == "t" and checked.value == 0
    payload = checked.to_json(cfg)
    assert payload["category"] == "GRADUAL_BOUNDARY"
    assert payload["found"] == "Null" and payload["required"] == "NonNull"


def test_return_pops_back_into_the_caller():
    cfg = lower(parse(LOOP_SRC))
    result = run(cfg, mode="plain")
    assert result.outcome == "final"
    assert len(result.state.frames) == 1
    assert result.final_var == "r"
    assert result.returned == 1  # the single allocation bar made


def test_checked_error_at_a_null_field_read():
    cfg = lower(parse(scenario_src(null_body=True)))
    checked = run(cfg, mode="gradual")
    assert checked.outcome == "error"
    err = checked.error
    assert isinstance(cfg.instr[err.vertex], IFieldRead)
    assert err.variable == "reversed" and err.value == 0
    assert err.to_json(cfg)["category"] == "GRADUAL_CHECK"
    plain = run(cfg, mode="plain")
    assert plain.outcome == "stuck"
    assert plain.stuck_reason == "null dereference: reversed is null"
    # the plain machine had to reach the dereference to fail
    assert plain.steps >= checked.steps


def test_undefined_variable_sticks_with_a_reason():
    cfg = lower(parse("main { var x; var y; x := null; y := x && x; return y; }"))
    and_vertex = next(v for v, ins in enumerate(cfg.instr) if type(ins).__name__ == "IAnd")
    stuck = step(cfg, MachineState(frames=[({}, and_vertex)], heap={}))
    assert isinstance(stuck, Stuck)
    assert "undefined variable" in stuck.reason


def test_run_trace_is_one_line_per_step():
    cfg = lower(parse("main { var x; x := null; return x; }"))
    result = run(cfg, collect_trace=True)
    assert result.outcome == "final"
    assert result.trace == ["0: main/v0: main", "1: main/v1: x := null"]
    assert result.steps == len(result.trace) == 2
    assert result.returned == 0 and result.final_var == "x"


def test_run_without_trace_collects_nothing():
    cfg = lower(parse(LOOP_SRC))
    assert run(cfg).trace == []


def test_fuel_exhaustion_reports_fuel():
    cfg = lower(parse("main { var x; x := null; while (x == null) { skip; } return x; }"))
    result = run(cfg, max_steps=50)
    assert result.outcome == "fuel"
    assert result.steps == 50
    assert result.returned is None


def test_modes_agree_step_for_step_on_a_clean_program():
    cfg = lower(parse(LOOP_SRC))
    plain = run(cfg, mode="plain", collect_trace=True)
    checked = run(cfg, mode="gradual", collect_trace=True)
    assert plain.outcome == checked.outcome == "final"
    assert plain.trace == checked.trace
    assert plain.state == checked.state


def test_bad_mode_is_rejected():
    cfg = lower(parse("main { var x; x := null; return x; }"))
    try:
        run(cfg, mode="speculative")
    except ValueError as e:
        assert "speculative" in str(e)
    else:
        raise AssertionError("expected ValueError")


# ---------------------------------------------------------------------------
# run against the step wrappers
# ---------------------------------------------------------------------------


def step_by_step(cfg, mode, fuel):
    """run rebuilt from step/grad_step: (last outcome or state, steps, trace)."""
    stepper = step if mode == "plain" else grad_step
    state = initial_state(cfg)
    trace = []
    for k in range(fuel):
        v = state.top.vertex
        outcome = stepper(cfg, state)
        if not isinstance(outcome, Stepped):
            return outcome, k, trace
        trace.append(f"{k}: {cfg.proc[v]}/v{v}: {render_instr(cfg.instr[v])}")
    return state, fuel, trace


DIFFERENTIAL_PROGRAMS = [parse(p.read_text()) for p in corpus_paths()] + [
    gen_program(GenConfig(seed=seed, annotation_density=(0.0, 0.5, 1.0)[seed % 3]))
    for seed in range(100)
]


@pytest.mark.parametrize(
    "mode, outcomes",
    [("plain", {"final", "stuck", "fuel"}), ("gradual", {"final", "error", "fuel"})],
)
def test_run_agrees_with_stepping_one_state_at_a_time(mode, outcomes):
    seen = set()
    for i, program in enumerate(DIFFERENTIAL_PROGRAMS):
        cfg = lower(program)
        result = run(cfg, mode=mode, max_steps=300, collect_trace=True)
        last, steps, trace = step_by_step(cfg, mode, 300)
        seen.add(result.outcome)
        assert (result.steps, result.trace) == (steps, trace), f"program {i}"
        if result.outcome == "fuel":
            assert result.state == last, f"program {i}"
            continue
        expected = {Final: "final", Stuck: "stuck", Errored: "error"}[type(last)]
        assert result.outcome == expected, f"program {i}"
        assert result.state == last.state, f"program {i}"
        assert result.stuck_reason == (last.reason if isinstance(last, Stuck) else None)
        assert result.error == (last if isinstance(last, Errored) else None)
    assert outcomes <= seen, seen


@pytest.mark.parametrize("mode", ["plain", "gradual"])
def test_run_agrees_with_stepping_at_every_fuel_boundary(mode):
    # run keeps the top frame out of the state while it steps; whatever step
    # the fuel ends on, the state it leaves is the one stepping leaves.
    for i, program in enumerate(DIFFERENTIAL_PROGRAMS):
        cfg = lower(program)
        for fuel in (0, 1, 2, 3, 5, 8, 13, 21, 300):
            result = run(cfg, mode=mode, max_steps=fuel, collect_trace=True)
            last, steps, trace = step_by_step(cfg, mode, fuel)
            where = f"program {i}, fuel {fuel}"
            assert (result.steps, result.trace) == (steps, trace), where
            if isinstance(last, MachineState):
                assert result.outcome == "fuel", where
                state = last
            else:
                assert result.outcome == {Final: "final", Stuck: "stuck", Errored: "error"}[type(last)], where
                state = last.state
            got = result.state
            assert (got.frames, got.heap, got.next_loc) == (state.frames, state.heap, state.next_loc), where


DEREF_SRC = "field f; main { var a; var b; a := null; b := a.f; return b; }"
PARAM_SRC = (
    "field f; proc mk@NonNull(x @NonNull) { var t; t := new {f}; return t; }"
    " main { var a; a := mk(null); return a; }"
)
RETURN_SRC = "proc mk@NonNull(x) { var t; t := null; return t; } main { var a; a := mk(null); return a; }"
FIELD_SRC = "field f; field g; main { var a; var b; a := new {f}; b := a.g; return b; }"
FINAL_SRC = "field f; main { var a; a := new {f}; a.f := a; return a; }"
BUILT_SRC = (
    "field f; proc mk(x) { var o; o := new {f}; o.f := x; return o; }"
    " main { var a; a := mk(a); return a; }"
)


def stop_in_place(cfg, stepper, state):
    """Step state until it stops; assert the stopping step wrote nothing."""
    while True:
        before = copy.deepcopy(state)
        outcome = stepper(cfg, state)
        assert outcome.state is state
        if not isinstance(outcome, Stepped):
            assert state == before
            return outcome


@pytest.mark.parametrize(
    "source, mode, expected",
    [
        (DEREF_SRC, "plain", "null dereference: a is null"),
        (FIELD_SRC, "plain", "object at 1 has no field 'g'"),
        (PARAM_SRC, "plain", "argument $0 = 0 violates parameter annotation @NonNull"),
        (RETURN_SRC, "plain", "return value t = 0 violates return annotation @NonNull"),
        (DEREF_SRC, "gradual", IFieldRead),
        (PARAM_SRC, "gradual", ICall),
        (RETURN_SRC, "gradual", IReturn),
        (FINAL_SRC, "plain", Final),
        (FINAL_SRC, "gradual", Final),
    ],
    ids=[
        "null-deref",
        "missing-field",
        "param-annotation",
        "return-annotation",
        "checked-deref",
        "checked-call",
        "checked-return",
        "final",
        "checked-final",
    ],
)
def test_a_stopped_step_writes_nothing(source, mode, expected):
    cfg = lower(parse(source))
    outcome = stop_in_place(cfg, step if mode == "plain" else grad_step, initial_state(cfg))
    if isinstance(expected, str):
        assert isinstance(outcome, Stuck) and outcome.reason == expected
    elif expected is Final:
        assert isinstance(outcome, Final)
    else:
        assert isinstance(outcome, Errored) and isinstance(cfg.instr[outcome.vertex], expected)


@pytest.mark.parametrize("stepper", [step, grad_step])
def test_a_stuck_step_from_a_built_state_writes_nothing(stepper):
    cfg = lower(parse(BUILT_SRC))
    at = {type(ins): v for v, ins in enumerate(cfg.instr)}
    entry, write, ret = at[IProc], at[IFieldWrite], at[IReturn]
    for frames, heap, reason in [
        ([({"o": 1}, write)], {1: {"f": 7}}, "undefined variable 'x'"),
        ([({}, entry)], {}, "procedure entry without a caller"),
        ([({"a": 0}, cfg.entry), ({}, entry)], {}, "caller frame is not at a matching call"),
        ([({"a": 0}, cfg.entry), ({"x": 0, "o": 1}, ret)], {1: {"f": 0}}, "caller frame is not at a call"),
    ]:
        outcome = stop_in_place(cfg, stepper, MachineState(frames, heap))
        assert isinstance(outcome, Stuck) and outcome.reason == reason


def test_allocation_takes_the_location_after_the_largest():
    cfg = lower(parse("field f; main { var a; a := new {f}; return a; }"))
    alloc = next(v for v, ins in enumerate(cfg.instr) if isinstance(ins, INew))
    heap = {2: {"f": 0}, 7: {"f": 2}}
    state = MachineState([({"a": 0}, alloc)], heap)
    after = step(cfg, state).state
    assert after.top.env == {"a": 8}
    assert after.heap == {2: {"f": 0}, 7: {"f": 2}, 8: {"f": 0}}


def alloc_src(k):
    """Two k-node lists, k^2 allocations through a helper, then a k^2-deep recursion."""
    def build(head):
        return [f"{head} := null;"] + [
            line for _ in range(k) for line in ("n := new {nx, hd};", f"n.nx := {head};", f"{head} := n;")
        ]

    return "\n".join(
        [
            "field nx; field hd;",
            "proc mk(x) { var o; o := new {nx, hd}; o.nx := x; return o; }",
            "proc down(x) { var t; var r;",
            "  if (x != null) { t := x.nx; r := down(t); } else { r := x; }",
            "  return r; }",
            "main { var la; var lb; var n; var p; var q; var acc; var sink;",
            *build("la"),
            *build("lb"),
            "acc := null; p := la;",
            "while (p != null) { q := lb;",
            "  while (q != null) { acc := mk(acc); sink := acc.hd; q := q.nx; }",
            "  p := p.nx; }",
            "sink := down(acc);",
            "return acc; }",
        ]
    )


def alloc_program(k):
    """The lowered alloc_src(k) and the number of steps its run takes."""
    cfg = lower(parse(alloc_src(k)))
    result = run(cfg)
    assert result.outcome == "final" and result.returned == 2 * k + k * k
    return cfg, result.steps


def test_cost_per_step_does_not_grow_with_heap_and_stack():
    # k=64 ends with 4,224 heap objects and 4,098 frames at its deepest; k=8 with 80 and 66.
    # One k=8 run takes under a millisecond, so the k=8 side is back-to-back runs that take
    # as many steps as one k=64 run.
    small, small_steps = alloc_program(8)
    large, large_steps = alloc_program(64)
    count = round(large_steps / small_steps)

    def small_runs():
        for _ in range(count):
            run(small)

    ratio = growth_per_vertex(lambda go: go(), (small_runs, count * small_steps), (lambda: run(large), large_steps))
    assert ratio <= 1.5, f"{ratio:.2f}x the time per step at k=64 vs k=8"


# ---------------------------------------------------------------------------
# Pre-decoded sites against the rules they replaced
# ---------------------------------------------------------------------------


def test_build_time_tables_agree_with_the_lattice():
    # The executor reads membership from a (null, non-null) pair, for guards
    # and for parameter and return annotations alike.
    for g in GradAbst:
        for n in (0, 1, 2, 1000):
            assert runtime._ADMITS[g][n != 0] == grad_conc_contains(g, n), (g, n)
    # A site's guard is () or the one bound that some value fails.
    guarded = 0
    for path in corpus_paths():
        cfg = lower(parse(path.read_text()))
        for v, ins in enumerate(cfg.instr):
            expected = ()
            for x in constrained_vars(ins):
                bound = lifted_safe(ins, x)
                if not all(runtime._ADMITS[bound]):
                    expected = (x, ceil(bound), runtime._ADMITS[bound])
            assert runtime._site(cfg, v, {})[1] == expected, (path.name, v)
            guarded += bool(expected)
    assert guarded > 0


def test_equal_immutable_parts_are_shared_within_one_graph():
    # One object per distinct value: the universes and the branch tests that
    # lowering builds, the fixpoint's variable indexes, and the guards and
    # `new` templates of the interpreter's sites.  Another graph shares none.
    def value(part):
        return tuple(sorted(part)) if type(part) is frozenset else tuple(part.items()) if type(part) is dict else part

    def parts(cfg):
        assert run(cfg).outcome == "final"
        sites = [site for site in cfg._run_sites[0] if site is not None]
        return {
            "universes": list(cfg.universe.values()),
            "tests": [ins for ins in cfg.instr if type(ins) in (IBranch, IIf, IElse)],
            "indexes": list(kildall(cfg).numbering.values()),
            "guards": [site[1] for site in sites if site[1]],
            "templates": [site[4] for site in sites if site[0] == runtime._NEW],
        }

    graphs = [lower(parse(workload_source("chain", 1))) for _ in range(2)]
    first, second = map(parts, graphs)
    for name, objects in first.items():
        distinct = len(set(map(value, objects)))
        assert len(objects) > 2 * distinct and len(set(map(id, objects))) == distinct, name
        assert not set(map(id, objects)) & set(map(id, second[name])), name


EVERY_INSTR_SRC = (
    "field f;"
    " proc id@NonNull(x @NonNull) { return x; }"
    " main { var a; var b; var c; a := new {f}; b := a; c := null; c := a && b; c := a || b;"
    " a.f := b; c := a.f; c := id(a); if (c != null) { skip; } else { skip; }"
    " c := null; if (c != null) { skip; } else { skip; } return c; }"
)


def test_every_instruction_type_decodes_and_runs():
    cfg = lower(parse(EVERY_INSTR_SRC))
    first = {}
    for v, ins in enumerate(cfg.instr):
        first.setdefault(type(ins), v)
    kinds = typing.get_args(cfg_module.Instr)
    assert set(first) == set(kinds)
    for kind in kinds:
        site = runtime._site(cfg, first[kind], {})
        assert type(site[0]) is int and type(site[1]) is tuple, kind.__name__
    for mode in ("plain", "gradual"):
        result = run(cfg, mode=mode, collect_trace=True)
        assert result.outcome == "final", mode
        ran = {type(cfg.instr[int(re.match(r"\d+: \w+/v(\d+): ", line)[1])]) for line in result.trace}
        assert ran == set(kinds), mode


def test_each_instruction_bounds_at_most_one_operand():
    # A site holds one guard or none: an instruction type that bounded two
    # operands must fail here, not slip past the executor's one guard.
    cfg = lower(parse(EVERY_INSTR_SRC))
    assert {type(ins) for ins in cfg.instr} == set(typing.get_args(cfg_module.Instr))
    for ins in cfg.instr:
        bounded = constrained_vars(ins)
        assert len(bounded) <= 1, ins
        for y in (getattr(ins, a) for a in cfg_module.OPERANDS[type(ins)]):
            if y not in bounded:
                assert lifted_safe(ins, y) is GradAbst.NULLABLE, (ins, y)


def test_a_call_to_a_missing_procedure_sticks_only_when_reached():
    # A hand-built graph whose call names no procedure entry: the call's site
    # cannot be built, and that stops the run only at the call itself.
    def without_entries(src):
        g = lower(parse(src))
        return replace(g, proc_entry={})

    src = "field f; proc q(x) { return x; } main { var a; a := A; if (a != null) { a := q(a); } else { skip; } return a; }"
    for mode in ("plain", "gradual"):
        unreached = run(without_entries(src.replace("A", "null")), mode=mode)
        assert unreached.outcome == "final" and unreached.returned == 0, mode
        cfg = without_entries(src.replace("A", "new {f}"))
        reached = run(cfg, mode=mode)
        assert reached.outcome == "stuck" and reached.stuck_reason == "undefined variable 'q'", mode
        assert type(cfg.instr[reached.state.top.vertex]) is ICall, mode


# The instruction rules as they were before sites were decoded: one
# isinstance chain over the instruction at every step.  The executor must
# agree with it step for step.
_REF_ADMITS = {g: (grad_conc_contains(g, 0), grad_conc_contains(g, 1)) for g in GradAbst}


def ref_site(cfg, v):
    ins = cfg.instr[v]
    succs = cfg.succ[v]
    bounds = ((x, lifted_safe(ins, x)) for x in constrained_vars(ins))
    guards = tuple((x, bound, _REF_ADMITS[bound]) for x, bound in bounds if not all(_REF_ADMITS[bound]))
    arms = entry_env = None
    if isinstance(ins, IBranch):
        arms = cfg.succ[v]
    elif isinstance(ins, IMain):
        entry_env = dict.fromkeys(sorted(cfg.universe[cfg.proc[v]]), 0)
    elif isinstance(ins, IProc):
        entry_env = dict.fromkeys(sorted(cfg.universe[ins.name]), 0)
    return (ins, succs[0] if succs else None, arms, guards, entry_env)


def ref_execute(cfg, site, m, checked):
    frames = m.frames
    env, v = frames[-1]
    ins, nxt, arms, guards, entry_env = site
    if checked:
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
            call = cfg.instr[caller_v]
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
            call = cfg.instr[caller_v]
            if not isinstance(call, ICall):
                return Stuck(m, v, "caller frame is not at a call")
            retval = env[ins.var]
            if not grad_conc_contains(ins.ann, retval):
                return Stuck(
                    m, v,
                    f"return value {ins.var} = {retval} violates return annotation @{ins.ann}",
                )
            cont = cfg.succ[caller_v][0]
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


LOCKSTEP_PROGRAMS = [parse(p.read_text()) for p in corpus_paths()] + [
    gen_program(GenConfig(seed=seed, annotation_density=(0.0, 0.5, 1.0)[seed % 3]))
    for seed in range(200)
]


@pytest.mark.parametrize(
    "mode, outcomes",
    [("plain", {Final, Stuck, Stepped}), ("gradual", {Final, Errored, Stepped})],
)
def test_sites_step_in_lockstep_with_the_reference_rules(mode, outcomes):
    stepper, checked = (step, False) if mode == "plain" else (grad_step, True)
    seen = set()
    for i, program in enumerate(LOCKSTEP_PROGRAMS):
        cfg = lower(program)
        ref_sites = [ref_site(cfg, v) for v in range(len(cfg.instr))]
        ref, state = initial_state(cfg), initial_state(cfg)
        for k in range(2000):
            expected = ref_execute(cfg, ref_sites[ref.frames[-1][1]], ref, checked) or Stepped(ref)
            outcome = stepper(cfg, state)
            where = f"program {i}, step {k}"
            assert type(outcome) is type(expected), where
            if isinstance(expected, Stuck):
                assert (outcome.vertex, outcome.reason) == (expected.vertex, expected.reason), where
            elif isinstance(expected, Errored):
                fields = ("vertex", "variable", "required", "value")
                assert [getattr(outcome, f) for f in fields] == [getattr(expected, f) for f in fields], where
            assert (state.frames, state.heap, state.next_loc) == (ref.frames, ref.heap, ref.next_loc), where
            if not isinstance(outcome, Stepped):
                seen.add(type(outcome))
                break
        else:
            seen.add(Stepped)  # out of fuel
    assert outcomes <= seen, seen
