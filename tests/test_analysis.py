"""Transfer functions, the worklist fixpoint, and derived findings."""

import random

import pytest
from conftest import LOOP_SRC, growth_per_vertex, scenario_src, wide_src

from graduator import analysis
from graduator.analysis import (
    WARN_BOUNDARY,
    WARN_CHECK,
    WARN_STATIC,
    Finding,
    analyze,
    check_sites,
    constrained_vars,
    flow,
    kildall,
    lifted_flow,
    lifted_safe,
    safe,
    site_category,
    static_warnings,
)
from graduator.cfg import (
    MAIN,
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
    is_fully_annotated,
    lower,
)
from graduator.cli import main
from graduator.lattice import (
    ALL_GRAD,
    Abst,
    GradAbst,
    alpha,
    base_join,
    base_leq,
    ceil,
    exact,
    gamma,
    lifted_join,
    lifted_leq,
)
from graduator.syntax import parse
from graduator.testkit import GenConfig, corpus_paths, gen_program

U = frozenset({"x", "y", "z"})
NULL, NONNULL, NULLABLE = Abst.NULL, Abst.NONNULL, Abst.NULLABLE


def test_flow_constants_and_copies():
    assert flow(IConstNull("x"), {}, U) == {"x": NULL}
    assert flow(INew("x", ("f",)), {"x": NULL}, U) == {"x": NONNULL}
    assert flow(ICopy("x", "y"), {"y": NONNULL}, U) == {"x": NONNULL, "y": NONNULL}
    # copying an undefined source forgets the target rather than guessing
    assert flow(ICopy("x", "y"), {"x": NULL}, U) == {}


def test_flow_boolean_case_analysis():
    and_table = {
        (NULL, NULL): NULL,
        (NULL, NONNULL): NULL,
        (NULL, NULLABLE): NULL,
        (NONNULL, NULL): NULL,
        (NONNULL, NONNULL): NONNULL,
        (NONNULL, NULLABLE): NULLABLE,
        (NULLABLE, NULL): NULL,
        (NULLABLE, NONNULL): NULLABLE,
        (NULLABLE, NULLABLE): NULLABLE,
    }
    for (a, b), want in and_table.items():
        got = flow(IAnd("x", "y", "z"), {"y": a, "z": b}, U)["x"]
        assert got is want, f"{a} && {b}"
        # or is the de-morgan mirror: swap the roles of Null and NonNull
        flip = {NULL: NONNULL, NONNULL: NULL, NULLABLE: NULLABLE}
        got_or = flow(IOr("x", "y", "z"), {"y": flip[a], "z": flip[b]}, U)["x"]
        assert got_or is flip[want], f"{flip[a]} || {flip[b]}"
    # an undefined operand drops the target
    assert flow(IAnd("x", "y", "z"), {"y": NULL, "x": NULL}, U) == {"y": NULL}


def test_flow_branch_refinement():
    sigma = {"x": NULLABLE, "y": NULL}
    assert flow(IBranch("x"), sigma, U) == sigma
    assert flow(IIf("x"), sigma, U)["x"] is NONNULL
    assert flow(IElse("x"), sigma, U)["x"] is NULL
    assert flow(IReturn("x", GradAbst.NULLABLE), sigma, U) == sigma


def test_flow_field_access():
    out = flow(IFieldRead("x", "y", "f"), {"y": NULLABLE}, U)
    assert out == {"x": NULLABLE, "y": NONNULL}
    assert flow(IFieldWrite("y", "f", "x"), {"x": NULL}, U) == {"x": NULL, "y": NONNULL}


def test_flow_aliased_field_read_keeps_the_receiver_fact():
    # x := x.f narrows x to NonNull on purpose: the receiver refinement is
    # written after the target fact, and that order is part of the contract.
    # The per-step soundness argument covers reads with distinct names; the
    # aliased form trades a corner of it for flow-sensitive receiver facts.
    assert flow(IFieldRead("x", "x", "f"), {"x": NULLABLE}, U) == {"x": NONNULL}
    assert lifted_flow(IFieldRead("x", "x", "f"), {"x": GradAbst.UNKNOWN}, U) == {
        "x": GradAbst.NONNULL
    }


def test_flow_entry_states():
    assert flow(IMain(), {"junk": NONNULL}, U) == {"x": NULL, "y": NULL, "z": NULL}
    out = flow(IProc("p", GradAbst.NONNULL, "y", GradAbst.NULLABLE), {}, U)
    assert out == {"x": NULL, "y": NULLABLE, "z": NULL}


def test_flow_call_uses_the_declared_return():
    ins = ICall("x", "p", GradAbst.NONNULL, "y", GradAbst.NULLABLE)
    assert flow(ins, {"y": NULL}, U) == {"y": NULL, "x": NONNULL}
    hole = ICall("x", "p", GradAbst.UNKNOWN, "y", GradAbst.NULLABLE)
    with pytest.raises(ValueError, match="fully annotated"):
        flow(hole, {}, U)
    assert lifted_flow(hole, {}, U) == {"x": GradAbst.UNKNOWN}


def test_lifted_flow_boolean_cases():
    def lift_and(a, b):
        return lifted_flow(IAnd("x", "y", "z"), {"y": a, "z": b}, U)["x"]

    # a definitely-null operand forces the whole conjunction null
    assert lift_and(GradAbst.UNKNOWN, GradAbst.NULL) is GradAbst.NULL
    assert lift_and(GradAbst.UNKNOWN_NONNULL, GradAbst.NONNULL) is GradAbst.UNKNOWN_NONNULL
    assert lift_and(GradAbst.UNKNOWN, GradAbst.UNKNOWN) is GradAbst.UNKNOWN
    got = lifted_flow(IOr("x", "y", "z"), {"y": GradAbst.UNKNOWN, "z": GradAbst.NONNULL}, U)
    assert got["x"] is GradAbst.NONNULL


def test_safety_bounds():
    call = ICall("x", "p", GradAbst.NONNULL, "y", GradAbst.NULLABLE)
    assert lifted_safe(call, "y") is GradAbst.NULLABLE
    assert lifted_safe(call, "x") is GradAbst.NULLABLE  # target unconstrained
    ret = IReturn("x", GradAbst.NONNULL)
    assert lifted_safe(ret, "x") is GradAbst.NONNULL
    assert safe(ret, "x") is NONNULL
    read = IFieldRead("x", "y", "f")
    assert lifted_safe(read, "y") is GradAbst.NONNULL
    assert lifted_safe(read, "x") is GradAbst.NULLABLE
    write = IFieldWrite("y", "f", "x")
    assert lifted_safe(write, "y") is GradAbst.NONNULL
    assert lifted_safe(write, "x") is GradAbst.NULLABLE
    with pytest.raises(ValueError):
        safe(IReturn("x", GradAbst.UNKNOWN), "x")

    assert constrained_vars(call) == ("y",)
    assert constrained_vars(ret) == ("x",)
    assert constrained_vars(read) == ("y",)
    assert constrained_vars(write) == ("y",)
    assert constrained_vars(IConstNull("x")) == ()

    assert site_category(read) == WARN_CHECK
    assert site_category(write) == WARN_CHECK
    assert site_category(call) == WARN_BOUNDARY
    assert site_category(ret) == WARN_BOUNDARY


def test_retry_loop_fixpoint():
    cfg = lower(parse(LOOP_SRC))
    result = kildall(cfg, "gradual")
    foo = {type(ins).__name__: v for v, (ins, proc) in enumerate(zip(cfg.instr, cfg.proc)) if proc == "foo"}
    # the loop head sees the join of the entry fact and the call result
    assert result.pi[foo["IBranch"]] == {"x": GradAbst.NULLABLE}
    assert result.pi[foo["IIf"]] == {"x": GradAbst.NULLABLE}
    # the exit arm's refinement is what makes the NonNull return check out
    assert result.pi[foo["IReturn"]] == {"x": GradAbst.NONNULL}
    assert result.pi[foo["ICall"]] == {"x": GradAbst.NULL}

    _, warnings, checks = analyze(cfg)
    assert warnings == [] and checks == []

    # fully annotated: the static run computes the same facts, exactly
    static = kildall(cfg, "static")
    assert [{x: exact(a) for x, a in sigma.items()} for sigma in static.pi] == result.pi


def test_entry_vertices_keep_the_empty_in_state():
    cfg = lower(parse(LOOP_SRC))
    result = kildall(cfg)
    entries = [cfg.entry, *cfg.proc_entry.values()]
    for v in entries:
        assert result.pi[v] == {}


def _facts_with_key_order(result):
    return [list(sigma.items()) for sigma in result.pi]


def test_fixpoint_ignores_seed_order():
    rng = random.Random(41)
    for seed in range(12):
        cfg = lower(gen_program(GenConfig(seed=seed, annotation_density=0.6)))
        baseline = kildall(cfg)
        ids = list(range(len(cfg.instr)))
        for _ in range(3):
            rng.shuffle(ids)
            result = kildall(cfg, seed_order=list(ids))
            assert result.pi == baseline.pi
            # key order too: every state is in sorted variable order
            facts = _facts_with_key_order(result)
            assert facts == _facts_with_key_order(baseline)
            assert all([x for x, _ in sigma] == sorted(x for x, _ in sigma) for sigma in facts)


def _merge_only_join(s1, s2, join=lifted_join):
    # The union-join as a plain loop over s2: no shortcut for bottom or for
    # equal states, and always a fresh map.
    out = dict(s1)
    for x, g in s2.items():
        f = out.get(x)
        if f is not g:
            out[x] = g if f is None else join(f, g)
    return out


def _reference_fixpoint(cfg, mode):
    """A dict worklist with no shortcuts, or the ValueError text in static mode.

    Gradual mode runs lifted_flow; static mode runs the base rules (flow,
    which refuses to write a '?') under the base join.
    """
    transfer, join = (lifted_flow, lifted_join) if mode == "gradual" else (flow, base_join)
    pi = [{} for _ in cfg.instr]
    work = list(range(len(cfg.instr)))
    try:
        while work:
            v = work.pop(0)
            out = transfer(cfg.instr[v], pi[v], cfg.universe[cfg.proc[v]])
            for u in cfg.succ[v]:
                grown = _merge_only_join(pi[u], out, join)
                if grown != pi[u]:
                    pi[u] = grown
                    if u not in work:
                        work.append(u)
    except ValueError as e:
        return str(e)
    return [list(s.items()) for s in pi]


def _fixpoint_or_error(cfg, mode):
    try:
        result = kildall(cfg, mode)
    except ValueError as e:
        return str(e)
    return _facts_with_key_order(result)


def test_byte_fixpoint_matches_a_dict_worklist_fact_for_fact():
    programs = [parse(path.read_text()) for path in corpus_paths()]
    programs += [gen_program(GenConfig(seed=seed, annotation_density=0.8)) for seed in range(100)]
    cfgs = [lower(p) for p in programs]
    modes = ("gradual", "static")
    fast = [[_fixpoint_or_error(cfg, mode) for mode in modes] for cfg in cfgs]
    assert fast == [[_reference_fixpoint(cfg, mode) for mode in modes] for cfg in cfgs]
    assert sum(isinstance(f, list) for per_cfg in fast for f in per_cfg) > 150
    assert any(isinstance(f, str) for per_cfg in fast for f in per_cfg)


def test_byte_tables_agree_with_the_fact_rules():
    codes = range(len(analysis._FACT))
    assert analysis._FACT == (None, *ALL_GRAD)
    # Writes to x of a state over x (byte 0) and y (byte 1), and the fact each writes.
    index = {"x": 0, "y": 1}
    constants = [
        (IConstNull("x"), GradAbst.NULL),
        (INew("x", ("f",)), GradAbst.NONNULL),
        (IFieldWrite("x", "f", "y"), GradAbst.NONNULL),
        (IIf("x"), GradAbst.NONNULL),
        (IElse("x"), GradAbst.NULL),
        *((ICall("x", "p", c, "y", c), c) for c in ALL_GRAD),
    ]
    for a in codes:
        for b in codes:
            f, g = analysis._FACT[a], analysis._FACT[b]
            join = g if f is None else f if g is None else lifted_join(f, g)
            assert analysis._FACT[analysis._JOIN[7 * a + b]] is join
            writes = [(ICopy("x", "y"), g)]  # a copy takes its source's fact
            for table, rule, kind in ((analysis._AND, analysis._and_case, IAnd), (analysis._OR, analysis._or_case, IOr)):
                case = None if f is None or g is None else alpha(rule(x, y) for x in gamma(f) for y in gamma(g))
                assert analysis._FACT[table[7 * a + b]] is case
                writes.append((kind("x", "x", "y"), case))
            # a constant write ignores both bytes
            state = bytes([a, b])
            for ins, want in writes + constants:
                out = analysis._transfer(ins, index, state)
                assert analysis._FACT[out[0]] is want and out[1] == b, ins
                # the state itself when the write leaves its byte as it was, else a copy
                assert (out is state) is (want is f), ins
                assert state == bytes([a, b])
            # an entry writes Null to every byte, then a procedure binds its parameter x
            for ins, want in ((IMain(), GradAbst.NULL), *((IProc("p", g, "x", g), g) for g in ALL_GRAD)):
                out = analysis._transfer(ins, index, state)
                expected = bytes([analysis._CODE[want], analysis._CODE[GradAbst.NULL]])
                assert out == expected, ins
                assert (out is state) is (state == expected), ins
                assert state == bytes([a, b])
    # no other entry is reachable: a digit pair is at most 7 * 6 + 6
    for table in (analysis._JOIN, analysis._AND, analysis._OR):
        assert len(table) == 256 and not any(table[49:])


def test_fact_reads_what_pi_holds():
    for path in corpus_paths():
        cfg = lower(parse(path.read_text()))
        result = kildall(cfg)
        for v, sigma in enumerate(result.pi):
            for x in [*cfg.universe[cfg.proc[v]], "not-a-variable"]:
                assert result.fact(v, x) is sigma.get(x)


def test_check_stats_and_compare_build_no_per_vertex_map(monkeypatch):
    def refuse(state, names):
        raise AssertionError("a whole state was decoded")

    monkeypatch.setattr(analysis, "_decode", refuse)
    for path in map(str, corpus_paths()):
        static_json = ["check", path, "--mode", "static", "--format", "json"]
        erased = ["stats", path, "--ignore-annotations"]
        for argv in (["check", path], static_json, ["stats", path], erased, ["compare", path]):
            assert main(argv) in (0, 1, 2)


def test_seed_order_must_cover_every_vertex():
    cfg = lower(parse(LOOP_SRC))
    with pytest.raises(AssertionError):
        kildall(cfg, seed_order=[0, 1])


def test_static_mode_requires_annotations():
    cfg = lower(parse("proc id(y) { return y; } main { var a; a := id(null); return a; }"))
    with pytest.raises(ValueError, match="fully annotated"):
        kildall(cfg, "static")


def test_static_mode_refuses_a_hole_that_a_join_absorbs():
    # id's '?' result meets Nullable at the if's join point: ? + Nullable is
    # Nullable, so no '?' survives in the gradual facts, yet the program is
    # not fully annotated and static mode must still refuse it.
    src = (
        "field f; proc id(y @Nullable) { return y; }"
        " main { var a; var b; b := new {f};"
        " if (b != null) { a := id(b); } else { a := b.f; } return a; }"
    )
    cfg = lower(parse(src))
    gradual = kildall(cfg, "gradual")
    assert all(g is not GradAbst.UNKNOWN for sigma in gradual.pi for g in sigma.values())
    with pytest.raises(ValueError, match="fully annotated"):
        kildall(cfg, "static")


def test_warning_on_null_argument():
    src = (
        "field g;"
        " proc f@NonNull(x @NonNull) { var t; t := new {g}; return t; }"
        " main { var a; a := f(null); return a; }"
    )
    result, warnings, checks = analyze(lower(parse(src)))
    assert checks == []
    (w,) = warnings
    assert w.category == WARN_STATIC
    assert w.proc == MAIN
    assert w.variable == "$0"  # the lowered argument temp
    assert w.required == "NonNull" and w.found == "Null"
    assert isinstance(result.cfg.instr[w.vertex], ICall)
    assert f"v{w.vertex}" in w.render()
    assert w.to_json()["category"] == WARN_STATIC


def test_check_on_unannotated_call_result():
    result, warnings, checks = analyze(lower(parse(scenario_src())))
    assert warnings == []
    (c,) = checks
    assert c.category == WARN_CHECK
    assert c.variable == "reversed"
    assert c.required == "NonNull" and c.found == "?"
    assert isinstance(result.cfg.instr[c.vertex], IFieldRead)


def test_boundary_checks_at_call_and_return():
    src = (
        "field g;"
        " proc f@NonNull(x @NonNull) { var t; t := new {g}; return t; }"
        " proc id(y) { return y; }"
        " main { var a; a := id(null); a := f(a); return a; }"
    )
    _, warnings, checks = analyze(lower(parse(src)))
    assert warnings == []
    (c,) = checks
    assert c.category == WARN_BOUNDARY and c.variable == "a" and c.found == "?"

    src2 = "proc mk@NonNull(x) { var t; t := x && x; return t; } main { var a; a := mk(null); return a; }"
    _, warnings2, checks2 = analyze(lower(parse(src2)))
    assert warnings2 == []
    cats = [(c.category, c.variable) for c in checks2]
    assert (WARN_BOUNDARY, "t") in cats  # optimistic return needs a guard


def test_unannotated_positions_are_never_sites():
    # a '?' bound denotes every base fact, so nothing can fail it
    _, warnings, checks = analyze(lower(parse("proc id(y) { return y; } main { var a; a := id(null); return a; }")))
    assert warnings == [] and checks == []


def test_warnings_and_checks_partition_the_judged_positions():
    for seed in range(30):
        result = kildall(lower(gen_program(GenConfig(seed=seed, annotation_density=0.5))))
        warn_at = {(f.vertex, f.variable) for f in static_warnings(result)}
        check_at = {(f.vertex, f.variable) for f in check_sites(result)}
        assert not warn_at & check_at


def findings_by_definition(result):
    """(warnings, checks) judged position by position through the lattice, in vertex order."""
    warnings, checks = [], []
    cfg = result.cfg
    for v, ins in enumerate(cfg.instr):
        for x in constrained_vars(ins):
            bound = lifted_safe(ins, x)
            found = result.fact(v, x)
            if found is None:
                continue
            line, col = cfg.pos[v]
            args = (cfg.proc[v], v, line, col, x, str(ceil(bound)), str(found))
            if not lifted_leq(found, bound):
                warnings.append(Finding(WARN_STATIC, *args))
            elif not base_leq(ceil(found), ceil(bound)):
                checks.append(Finding(site_category(ins), *args))
    return warnings, checks


def test_findings_match_their_definitions():
    programs = [parse(path.read_text()) for path in corpus_paths()]
    programs += [
        gen_program(GenConfig(seed=seed, annotation_density=density))
        for density in (0, 0.5, 1)
        for seed in range(200)
    ]
    counts = {"static": 0, "warnings": 0, "checks": 0}
    for p in programs:
        cfg = lower(p)
        for mode in ("gradual", "static") if is_fully_annotated(cfg) else ("gradual",):
            result, warnings, checks = analyze(cfg, mode)
            assert (warnings, checks) == findings_by_definition(result), mode
            assert (static_warnings(result), check_sites(result)) == (warnings, checks)
            counts["static"] += mode == "static"
            counts["warnings"] += len(warnings)
            counts["checks"] += len(checks)
    assert counts["static"] >= 200 and counts["warnings"] and counts["checks"], counts


def test_static_grad_pi_embeds_pi_exactly():
    cfg = lower(parse(LOOP_SRC))
    static = kildall(cfg, "static")
    for sigma, grad in zip(static.pi, static.grad_pi):
        assert grad == {x: exact(a) for x, a in sigma.items()}


def test_findings_time_per_vertex_does_not_grow_on_wide_programs():
    # The fixpoint is computed once per size; only the findings are timed.
    def findings(result):
        return static_warnings(result), check_sites(result)

    small, large = (kildall(lower(parse(wide_src(n)))) for n in (100, 800))
    ratio = growth_per_vertex(findings, (small, len(small.cfg.instr)), (large, len(large.cfg.instr)))
    assert ratio <= 2, f"findings: {ratio:.2f}x the time per vertex at 8x the locals"


def test_kildall_time_per_vertex_does_not_grow_on_wide_programs():
    small, large = (lower(parse(wide_src(n))) for n in (100, 800))
    ratio = growth_per_vertex(kildall, (small, len(small.instr)), (large, len(large.instr)))
    assert ratio <= 2, f"kildall: {ratio:.2f}x the time per vertex at 8x the locals"
