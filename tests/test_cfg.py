"""Lowering shapes, annotation sites and edits, structural validation, and DOT output."""

import random
import re
from collections import Counter
from typing import Optional

import pytest
from conftest import LOOP_SRC, growth_per_vertex, peak_bytes, scenario_src, wide_src, workload_source
from graduator.cfg import (
    MAIN,
    IBranch,
    ICall,
    IConstNull,
    ICopy,
    IElse,
    IFieldWrite,
    IFieldRead,
    IIf,
    IMain,
    INew,
    IProc,
    IReturn,
    ProgramCfg,
    Vertex,
    annotation_sites,
    emit_dot,
    erase_annotations,
    is_fully_annotated,
    lower,
    precision_leq_cfg,
    reannotate,
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


def reference_validate(cfg):
    """validate as it was with per-region sets and a list of predecessors per vertex: the reference."""
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


_BOTH = re.compile(r"vertex v(\d+) reachable from both .* and (.*)")


def _with_rule_two_as_multisets(messages):
    """messages with each region's run of rule 2 "reachable from both" messages as one multiset."""
    out: list = []
    for m in messages:
        both = _BOTH.fullmatch(m)
        if both and out and isinstance(out[-1], tuple) and out[-1][0] == both[2]:
            out[-1][1][m] += 1
        else:
            out.append((both[2], Counter([m])) if both else m)
    return out


def _malformed(cfg, rng):
    """cfg with one to three seeded faults: retargeted or deleted edges, a second main, an orphan,
    a flipped return or call annotation, swapped branch arms, or a procedure entry renamed to another's name."""
    vertices, succ = list(cfg.vertices), list(cfg.succ)
    flip = {GradAbst.NONNULL: GradAbst.NULLABLE, GradAbst.NULLABLE: GradAbst.UNKNOWN, GradAbst.UNKNOWN: GradAbst.NONNULL}
    for _ in range(rng.randint(1, 3)):
        v = rng.randrange(len(vertices))
        faults = ["retarget", "delete", "main", "orphan", "annotation", "arms", "rename"]
        ins, fault = vertices[v].instr, rng.choice(faults)
        if fault == "retarget" and succ[v]:
            k = rng.randrange(len(succ[v]))
            succ[v] = succ[v][:k] + (rng.randrange(len(vertices)),) + succ[v][k + 1 :]
        elif fault == "delete" and succ[v]:
            k = rng.randrange(len(succ[v]))
            succ[v] = succ[v][:k] + succ[v][k + 1 :]
        elif fault == "main":
            vertices[v] = replace(vertices[v], instr=IMain())
        elif fault == "orphan":
            vertices.append(Vertex(len(vertices), IConstNull("x"), MAIN))
            succ.append((v,))
        elif fault == "annotation" and type(ins) is IReturn:
            vertices[v] = replace(vertices[v], instr=replace(ins, ann=flip[ins.ann]))
        elif fault == "annotation" and type(ins) is ICall:
            which = rng.choice(["ret_ann", "arg_ann"])
            vertices[v] = replace(vertices[v], instr=replace(ins, **{which: flip[getattr(ins, which)]}))
        elif fault == "rename":
            entries = [u for u, vx in enumerate(vertices) if type(vx.instr) is IProc]
            if len(entries) > 1:
                a, b = rng.sample(entries, 2)
                vertices[a] = replace(vertices[a], instr=replace(vertices[a].instr, name=vertices[b].instr.name))
        elif fault == "arms" or fault == "annotation":
            branches = [u for u, vx in enumerate(vertices) if type(vx.instr) is IBranch]
            if branches:
                b = rng.choice(branches)
                succ[b] = succ[b][::-1]
    return replace(cfg, vertices=vertices, succ=succ)


def test_validate_agrees_with_the_reference():
    cfgs = [lower(parse(path.read_text())) for path in corpus_paths()]
    cfgs += [lower(parse(workload_source(name, 1))) for name in ("chain", "wide", "alloc")]
    cfgs += [lower(gen_program(GenConfig(seed=seed))) for seed in range(150)]
    rng = random.Random("validate-reference")
    malformed = [_malformed(cfg, rng) for cfg in cfgs for _ in range(2)]
    for cfg in cfgs:
        assert validate(cfg) == reference_validate(cfg) == []
    assert sum(1 for cfg in malformed if reference_validate(cfg)) >= 200
    for cfg in malformed:
        got, want = validate(cfg), reference_validate(cfg)
        assert _with_rule_two_as_multisets(got) == _with_rule_two_as_multisets(want)
        # Within a region, rule 2 now reports in vertex order.
        ids: dict[str, list[int]] = {}
        for m in got:
            if both := _BOTH.fullmatch(m):
                ids.setdefault(both[2], []).append(int(both[1]))
        assert all(run == sorted(run) for run in ids.values())


def test_validate_time_per_vertex_does_not_grow_on_wide_programs():
    # One region of about 500 vertices against one of about 4,000.
    small, large = (lowered(wide_src(n)) for n in (100, 800))
    ratio = growth_per_vertex(validate, (small, len(small.vertices)), (large, len(large.vertices)))
    assert ratio <= 2, f"validate: {ratio:.2f}x the time per vertex at 8x the locals"


def test_validate_peak_memory_per_vertex():
    # No per-vertex list of predecessors and no per-region set: about 77
    # bytes per vertex on chain 4x, against 228 with them.
    cfg = lowered(workload_source("chain", 4))
    per_vertex = peak_bytes(validate, cfg) / len(cfg.vertices)
    assert per_vertex <= 90, f"validate peaks at {per_vertex:.0f} bytes per vertex"


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


def _fill(default):
    return lambda key, ann: default if ann is GradAbst.UNKNOWN else ann


# The annotation policies of compare and stats --ignore-annotations.
POLICIES = {
    "erase": lambda key, ann: GradAbst.UNKNOWN,
    "fill NonNull": _fill(GradAbst.NONNULL),
    "fill Nullable": _fill(GradAbst.NULLABLE),
}


def _graph_value(cfg):
    # Vertex equality leaves out pos, so the positions are compared too.
    vertices = [(v.id, v.instr, v.proc, v.pos) for v in cfg.vertices]
    return vertices, cfg.succ, cfg.entry, cfg.proc_entry, cfg.universe


def _tree_sites(p):
    return [site for q in p.procs for site in ((f"{q.name}.param", q.param_ann), (f"{q.name}.return", q.ret_ann))]


def _rewrite_tree(p, rewrite):
    """The reference for reannotate: p with each signature annotation rewritten by its site key."""
    procs = tuple(
        replace(q, param_ann=rewrite(f"{q.name}.param", q.param_ann), ret_ann=rewrite(f"{q.name}.return", q.ret_ann))
        for q in p.procs
    )
    return replace(p, procs=procs)


def test_reannotate_equals_lowering_the_rewritten_tree():
    programs = [parse(path.read_text()) for path in corpus_paths()]
    programs += [parse(workload_source(name, 1)) for name in ("chain", "wide", "alloc")]
    programs += [gen_program(GenConfig(seed=seed, annotation_density=(0.0, 0.5, 1.0)[seed % 3])) for seed in range(150)]
    rng = random.Random("reannotate")
    rebuilt = 0
    for p in programs:
        cfg = lower(p)
        assert annotation_sites(cfg) == _tree_sites(p)
        assert reannotate(cfg, lambda key, ann: ann) is cfg
        # A seeded subset of the sites, erased on the graph and on the tree.
        subset = {key for key, _ in annotation_sites(cfg) if rng.random() < 0.5}
        erase_some = lambda key, ann: GradAbst.UNKNOWN if key in subset else ann
        for name, rewrite in (*POLICIES.items(), ("erase a subset", erase_some)):
            edited = erase_annotations(cfg, subset) if rewrite is erase_some else reannotate(cfg, rewrite)
            want = lower(_rewrite_tree(p, rewrite))
            assert _graph_value(edited) == _graph_value(want), name
            assert edited.succ is cfg.succ and edited.proc_entry is cfg.proc_entry and edited.universe is cfg.universe
            # A vertex is rebuilt exactly when its instruction changes.
            for old, new in zip(cfg.vertices, edited.vertices, strict=True):
                assert (new is old) is (new.instr == old.instr)
                rebuilt += new is not old
    assert rebuilt > 1000


def test_reannotate_leaves_mains_return_and_a_fully_annotated_fill_alone():
    cfg = lowered(scenario_src())
    erased = reannotate(cfg, POLICIES["erase"])
    returns = [v.instr.ann for v in erased.vertices if type(v.instr) is IReturn]
    main_returns = [v.instr.ann for v in erased.vertices if type(v.instr) is IReturn and v.proc == MAIN]
    assert GradAbst.UNKNOWN in returns
    assert main_returns == [GradAbst.NULLABLE]
    assert validate(erased) == []

    programs = [parse(workload_source("chain", 1))]
    programs += [gen_program(GenConfig(seed=seed, annotation_density=1.0)) for seed in range(30)]
    for p in programs:
        cfg = lower(p)
        assert is_fully_annotated(cfg)
        for name in ("fill NonNull", "fill Nullable"):
            filled = reannotate(cfg, POLICIES[name])
            assert all(new is old for new, old in zip(filled.vertices, cfg.vertices, strict=True)), name


def test_annotation_sites_and_erasure():
    cfg = lowered(LOOP_SRC)
    sites = dict(annotation_sites(cfg))
    assert set(sites) == {"bar.param", "bar.return", "foo.param", "foo.return"}
    assert sites["foo.return"] is GradAbst.NONNULL

    erased = erase_annotations(cfg, {"foo.return"})
    foo = erased.vertices[erased.proc_entry["foo"]].instr
    assert foo.ret_ann is GradAbst.UNKNOWN
    assert foo.param_ann is GradAbst.NULLABLE
    assert region(erased, "bar") == region(cfg, "bar")

    bare = erase_annotations(cfg)
    assert all(g is GradAbst.UNKNOWN for _, g in annotation_sites(bare))
    with pytest.raises(ValueError):
        erase_annotations(cfg, {"foo.nonsense"})


def test_precision_relation_on_programs():
    cfg = lowered(LOOP_SRC)
    assert precision_leq_cfg(cfg, cfg)
    e = erase_annotations(cfg, {"foo.return"})
    assert precision_leq_cfg(cfg, e)
    assert not precision_leq_cfg(e, cfg)
    other = lowered(scenario_src())
    assert not precision_leq_cfg(cfg, other)


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
