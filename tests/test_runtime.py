"""Small-step machine: plain and checked execution."""

import copy

import pytest
from conftest import LOOP_SRC, best_cpu, scenario_src

from graduator.cfg import ICall, IFieldRead, IFieldWrite, INew, IProc, IReturn, lower, render_instr
from graduator.lattice import Abst, GradAbst, exact
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
    assert "IElse" == type(cfg.instr(state.top.vertex)).__name__


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
    while not isinstance(cfg.instr(state.top.vertex), ICall):
        state = step(cfg, state).state
    step(cfg, state)
    assert len(state.frames) == 2
    assert state.top.env == {}
    assert state.top.vertex in cfg.proc_entry.values()
    # the entry step then binds the parameter from the caller's argument
    entry_ins = cfg.instr(state.top.vertex)
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
    assert isinstance(cfg.instr(checked.vertex), ICall)
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
    assert isinstance(cfg.instr(err.vertex), IFieldRead)
    assert err.variable == "reversed" and err.value == 0
    assert err.to_json(cfg)["category"] == "GRADUAL_CHECK"
    plain = run(cfg, mode="plain")
    assert plain.outcome == "stuck"
    assert plain.stuck_reason == "null dereference: reversed is null"
    # the plain machine had to reach the dereference to fail
    assert plain.steps >= checked.steps


def test_undefined_variable_sticks_with_a_reason():
    cfg = lower(parse("main { var x; var y; x := null; y := x && x; return y; }"))
    and_vertex = next(v.id for v in cfg.vertices if type(v.instr).__name__ == "IAnd")
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
        vtx = cfg.vertices[state.top.vertex]
        outcome = stepper(cfg, state)
        if not isinstance(outcome, Stepped):
            return outcome, k, trace
        trace.append(f"{k}: {vtx.proc}/v{vtx.id}: {render_instr(vtx.instr)}")
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
        assert isinstance(outcome, Errored) and isinstance(cfg.instr(outcome.vertex), expected)


@pytest.mark.parametrize("stepper", [step, grad_step])
def test_a_stuck_step_from_a_built_state_writes_nothing(stepper):
    cfg = lower(parse(BUILT_SRC))
    at = {type(v.instr): v.id for v in cfg.vertices}
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
    alloc = next(v.id for v in cfg.vertices if isinstance(v.instr, INew))
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


def cpu_seconds_per_step(k):
    cfg = lower(parse(alloc_src(k)))
    result = run(cfg)
    assert result.outcome == "final" and result.returned == 2 * k + k * k
    return best_cpu(run, cfg) / result.steps


def test_cost_per_step_does_not_grow_with_heap_and_stack():
    # k=64 ends with 4,224 heap objects and 4,098 frames at its deepest; k=8 with 80 and 66.
    small, large = cpu_seconds_per_step(8), cpu_seconds_per_step(64)
    assert large <= 1.5 * small, f"{large * 1e6:.2f} us/step at k=64 vs {small * 1e6:.2f} at k=8"
