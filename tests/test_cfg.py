"""Lowering shapes, structural validation, and DOT output."""

from conftest import LOOP_SRC, growth_per_vertex, wide_src, workload_source
from graduator.cfg import (
    MAIN,
    IBranch,
    ICall,
    IConstNull,
    ICopy,
    IElse,
    IFieldRead,
    IIf,
    IMain,
    INew,
    IProc,
    IReturn,
    ProgramCfg,
    Vertex,
    emit_dot,
    lower,
    render_instr,
    validate,
)
from graduator.lattice import GradAbst
from graduator.record import replace
from graduator.syntax import parse
from graduator.testkit import GenConfig, corpus_paths, gen_program


def lowered(src):
    cfg = lower(parse(src))
    assert validate(cfg) == []
    return cfg


def region(cfg, name):
    return [v for v in cfg.vertices if v.proc == name]


def test_retry_loop_region_is_the_six_vertex_shape():
    cfg = lowered(LOOP_SRC)
    foo = region(cfg, "foo")
    kinds = [type(v.instr).__name__ for v in foo]
    assert kinds == ["IProc", "IBranch", "IIf", "IElse", "ICall", "IReturn"]
    proc, branch, iff, els, call, ret = (v.id for v in foo)
    assert cfg.succ[proc] == (branch,)
    assert set(cfg.succ[branch]) == {iff, els}
    assert cfg.succ[iff] == (ret,)
    assert cfg.succ[els] == (call,)
    assert cfg.succ[call] == (branch,)  # loop back to the condition
    assert cfg.succ[ret] == ()


def test_bare_variable_condition_branches_directly():
    cfg = lowered("main { var x; x := null; if (x != null) { skip; } else { skip; } return x; }")
    assert not any(isinstance(v.instr, ICopy) for v in cfg.vertices)
    branch = next(v for v in cfg.vertices if isinstance(v.instr, IBranch))
    assert branch.instr.var == "x"


def test_null_test_polarity_swaps_the_arms():
    # body of `while (x == null)` hangs off the else arm; exit goes through if
    cfg = lowered("main { var x; x := null; while (x == null) { x := null; } return x; }")
    els = next(v for v in cfg.vertices if isinstance(v.instr, IElse))
    iff = next(v for v in cfg.vertices if isinstance(v.instr, IIf))
    body = cfg.succ[els.id][0]
    assert isinstance(cfg.vertices[body].instr, IConstNull)
    assert isinstance(cfg.vertices[cfg.succ[iff.id][0]].instr, IReturn)


def test_compound_condition_evaluates_into_a_temp():
    cfg = lowered(
        "main { var a; var b; a := null; b := null;"
        " if (a && b != null) { skip; } else { skip; } return a; }"
    )
    branch = next(v for v in cfg.vertices if isinstance(v.instr, IBranch))
    assert branch.instr.var == "$0"
    assert "$0 := a && b" in [render_instr(v.instr) for v in cfg.vertices]


def test_boolean_chains_name_temps_outermost_first():
    # Field chains lower with the same walk, so they share the table.
    cases = [
        ("a := a && b && a && b", ["$1 := a && b", "$0 := $1 && a", "a := $0 && b"], [99, 104, 109]),
        (
            "a := a && b.f || a && b",
            ["$1 := b.f", "$0 := a && $1", "$2 := a && b", "a := $0 || $2"],
            [103, 99, 111, 106],
        ),
        ("a := b.f.g.f", ["$1 := b.f", "$0 := $1.g", "a := $0.f"], [98, 100, 102]),
        (
            "a := q(b.g).f.g && b.f || a.g.f",
            ["$4 := b.g", "$3 := q@?($4@?)", "$2 := $3.f", "$1 := $2.g", "$5 := b.f",
             "$0 := $1 && $5", "$7 := a.g", "$6 := $7.f", "a := $0 || $6"],
            [100, 97, 103, 105, 112, 108, 119, 121, 115],
        ),
        ("a := new {f, g}.g.f", ["$1 := new {f, g}", "$0 := $1.g", "a := $0.f"], [97, 107, 109]),
    ]
    for assign, lowered_chain, cols in cases:
        cfg = lowered(
            "field f; field g; proc q(x) { return x; } "
            f"main {{ var a; var b; a := null; b := new {{f, g}}; {assign}; return a; }}"
        )
        chain = region(cfg, MAIN)[3:-1]
        assert [render_instr(v.instr) for v in chain] == lowered_chain
        assert [v.pos for v in chain] == [(1, c) for c in cols]


def test_loop_reenters_at_the_condition_head():
    # compound condition: the back edge targets the first temp evaluation
    cfg = lowered(
        "main { var a; var b; a := null; b := null;"
        " while (a || b != null) { a := null; } return a; }"
    )
    tmp = next(v for v in cfg.vertices if render_instr(v.instr) == "$0 := a || b")
    bodies = [v for v in cfg.vertices if isinstance(v.instr, IConstNull) and v.instr.target == "a"]
    assert cfg.succ[bodies[-1].id] == (tmp.id,)


def test_call_vertices_copy_the_callee_signature():
    cfg = lowered(LOOP_SRC)
    call = next(v.instr for v in cfg.vertices if isinstance(v.instr, ICall))
    assert call.proc == "bar"
    assert call.ret_ann is GradAbst.NONNULL
    assert call.arg_ann is GradAbst.NULLABLE


def test_nested_call_arguments_lower_inside_out():
    cfg = lowered(
        "proc f(x) { return x; }"
        " main { var a; a := null; a := f(f(a)); return a; }"
    )
    calls = [v for v in cfg.vertices if isinstance(v.instr, ICall)]
    assert [c.instr.target for c in calls] == ["$0", "a"]
    assert calls[1].instr.arg == "$0"


def test_main_return_is_annotated_nullable():
    cfg = lowered("main { var x; x := null; return x; }")
    ret = next(v.instr for v in cfg.vertices if isinstance(v.instr, IReturn))
    assert ret.ann is GradAbst.NULLABLE


def test_universe_covers_params_locals_and_temps():
    cfg = lowered(
        "proc f(x) { var y; y := x && x; return y; }"
        " main { var a; a := null; a := f(a && a); return a; }"
    )
    assert cfg.universe["f"] == frozenset({"x", "y"})
    assert cfg.universe[MAIN] == frozenset({"a", "$0"})


def test_instruction_rendering():
    cfg = lowered(LOOP_SRC)
    texts = [render_instr(v.instr) for v in cfg.vertices]
    assert "proc foo@NonNull(x@Nullable)" in texts
    assert "x := bar@NonNull(x@Nullable)" in texts
    assert "branch(x)" in texts
    assert "return x@NonNull" in texts
    assert "t := new {f}" in texts


def hand_graph():
    """Minimal well-formed graph: main; x := null; return x."""
    vertices = [
        Vertex(0, IMain(), MAIN),
        Vertex(1, IConstNull("x"), MAIN),
        Vertex(2, IReturn("x", GradAbst.NULLABLE), MAIN),
    ]
    return ProgramCfg(
        vertices, [(1,), (2,), ()], entry=0, proc_entry={}, universe={MAIN: frozenset({"x"})}
    )


def test_validation_accepts_the_minimal_graph():
    assert validate(hand_graph()) == []


def test_validation_unique_entry():
    g = hand_graph()
    bad = replace(g, vertices=[g.vertices[0], Vertex(1, IMain(), MAIN), g.vertices[2]])
    assert any("one main" in m for m in validate(bad))
    looped = replace(g, succ=[(1,), (2,), (0,)])
    assert any("predecessors" in m for m in validate(looped))


def test_validation_partition():
    g = hand_graph()
    orphan = replace(
        g,
        vertices=g.vertices + [Vertex(3, IConstNull("x"), MAIN)],
        succ=[(1,), (2,), (), (2,)],
    )
    assert any("unreachable" in m for m in validate(orphan))


def test_validation_return_reachability_and_annotation():
    g = hand_graph()
    # v1 loops to itself instead of reaching the return
    stuck = replace(g, succ=[(1,), (1,), ()])
    msgs = validate(stuck)
    assert any("cannot reach a return" in m for m in msgs)

    wrong = replace(
        g, vertices=[g.vertices[0], g.vertices[1], Vertex(2, IReturn("x", GradAbst.NONNULL), MAIN)]
    )
    assert any("declares" in m for m in validate(wrong))


def test_validation_reports_rule_three_in_region_and_vertex_order():
    # main: an if arm that spins forever and an else arm whose return has the
    # wrong annotation; p: a wrongly annotated return; v8: an orphan that
    # reaches main's return but belongs to no region.
    vertices = [
        Vertex(0, IProc("p", GradAbst.NONNULL, "y", GradAbst.NULLABLE), "p"),
        Vertex(1, IReturn("y", GradAbst.NULLABLE), "p"),
        Vertex(2, IMain(), MAIN),
        Vertex(3, IBranch("x"), MAIN),
        Vertex(4, IIf("x"), MAIN),
        Vertex(5, IElse("x"), MAIN),
        Vertex(6, IReturn("x", GradAbst.NONNULL), MAIN),
        Vertex(7, ICopy("x", "x"), MAIN),
        Vertex(8, IConstNull("x"), MAIN),
    ]
    g = ProgramCfg(
        vertices,
        [(1,), (), (3,), (4, 5), (7,), (6,), (), (7,), (6,)],
        entry=2,
        proc_entry={"p": 0},
        universe={MAIN: frozenset({"x"}), "p": frozenset({"y"})},
    )
    assert validate(g) == [
        "vertex v8 unreachable from every entry",
        "vertex v4 cannot reach a return",
        "return at v6 annotated @NonNull, region 'main' declares @Nullable",
        "vertex v7 cannot reach a return",
        "return at v1 annotated @Nullable, region 'p' declares @NonNull",
    ]


def test_validate_time_per_vertex_does_not_grow_on_wide_programs():
    # One region of about 500 vertices against one of about 4,000.
    small, large = (lowered(wide_src(n)) for n in (100, 800))
    ratio = growth_per_vertex(validate, (small, len(small.vertices)), (large, len(large.vertices)))
    assert ratio <= 2, f"validate: {ratio:.2f}x the time per vertex at 8x the locals"


def test_validation_call_site_agreement():
    cfg = lowered(LOOP_SRC)
    call_vertex = next(v for v in cfg.vertices if isinstance(v.instr, ICall))
    busted = replace(call_vertex.instr, ret_ann=GradAbst.NULLABLE)
    vertices = [
        replace(v, instr=busted) if v.id == call_vertex.id else v
        for v in cfg.vertices
    ]
    bad = replace(cfg, vertices=vertices)
    assert any("disagrees" in m for m in validate(bad))


def test_validation_branch_successor_shape():
    vertices = [
        Vertex(0, IMain(), MAIN),
        Vertex(1, IConstNull("x"), MAIN),
        Vertex(2, IBranch("x"), MAIN),
        Vertex(3, IIf("x"), MAIN),
        Vertex(4, IElse("y"), MAIN),  # wrong variable
        Vertex(5, IReturn("x", GradAbst.NULLABLE), MAIN),
    ]
    g = ProgramCfg(
        vertices,
        [(1,), (2,), (3, 4), (5,), (5,), ()],
        entry=0,
        proc_entry={},
        universe={MAIN: frozenset({"x", "y"})},
    )
    assert any("matching if/else" in m for m in validate(g))

    # The arms are ordered: the interpreter takes the first when the
    # variable is non-null, so (else, if) is malformed too.
    vertices[4] = Vertex(4, IElse("x"), MAIN)
    assert validate(g) == []
    g.succ[2] = (4, 3)
    assert validate(g) == ["branch at v2 lacks matching if/else successors"]


def test_every_edge_to_an_earlier_vertex_is_a_loop_back_edge():
    # lower's order guarantee: an edge u -> v with v <= u closes a cycle,
    # so v reaches u.  kildall's default order relies on it for speed.
    programs = [parse(path.read_text()) for path in corpus_paths()]
    programs += [parse(workload_source(name, scale)) for name in ("chain", "wide", "alloc") for scale in (1, 4)]
    programs += [gen_program(GenConfig(seed=seed)) for seed in range(200)]
    for p in programs:
        cfg = lower(p)
        for u, succs in enumerate(cfg.succ):
            for v in succs:
                assert v > u or u in cfg.descend(v), (u, v)


def test_dot_output_shape_and_determinism():
    cfg = lowered(LOOP_SRC)
    dot = emit_dot(cfg)
    assert dot == emit_dot(cfg)
    assert dot.startswith("digraph picl {")
    assert 'subgraph "cluster_foo"' in dot
    assert 'label="main"' in dot
    for v in cfg.vertices:
        assert f"v{v.id} [" in dot
    edges = [line for line in dot.splitlines() if "->" in line]
    assert len(edges) == sum(len(s) for s in cfg.succ)
