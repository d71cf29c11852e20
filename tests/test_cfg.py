"""Lowering shapes, annotation sites and edits, structural validation, and DOT output."""

import gc
import random
import re
import sys
import tracemalloc
from collections import Counter
from typing import Optional

import pytest
from conftest import LOOP_SRC, bench_module, growth_per_vertex, peak_bytes, scenario_src, wide_src, workload_source
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
    annotation_sites,
    emit_dot,
    erase_annotations,
    is_fully_annotated,
    lower,
    precision_leq_cfg,
    reannotate,
    render_cfg,
    render_instr,
    validate,
)
from graduator.analysis import analyze
from graduator.lattice import GradAbst
from graduator.record import replace
from graduator.runtime import run
from graduator.syntax import parse
from graduator.testkit import GenConfig, corpus_paths, gen_program


def lowered(src):
    cfg = lower(parse(src))
    assert validate(cfg) == []
    return cfg


def region(cfg, name):
    """The vertices of one procedure (or main), in vertex order."""
    return [v for v, proc in enumerate(cfg.proc) if proc == name]


def test_retry_loop_region_is_the_six_vertex_shape():
    cfg = lowered(LOOP_SRC)
    foo = region(cfg, "foo")
    kinds = [type(cfg.instr[v]).__name__ for v in foo]
    assert kinds == ["IProc", "IBranch", "IIf", "IElse", "ICall", "IReturn"]
    proc, branch, iff, els, call, ret = foo
    assert cfg.succ[proc] == (branch,)
    assert set(cfg.succ[branch]) == {iff, els}
    assert cfg.succ[iff] == (ret,)
    assert cfg.succ[els] == (call,)
    assert cfg.succ[call] == (branch,)  # loop back to the condition
    assert cfg.succ[ret] == ()


def test_bare_variable_condition_branches_directly():
    cfg = lowered("main { var x; x := null; if (x != null) { skip; } else { skip; } return x; }")
    assert not any(isinstance(ins, ICopy) for ins in cfg.instr)
    branch = next(ins for ins in cfg.instr if isinstance(ins, IBranch))
    assert branch.var == "x"


def test_null_test_polarity_swaps_the_arms():
    # body of `while (x == null)` hangs off the else arm; exit goes through if
    cfg = lowered("main { var x; x := null; while (x == null) { x := null; } return x; }")
    els = next(v for v, ins in enumerate(cfg.instr) if isinstance(ins, IElse))
    iff = next(v for v, ins in enumerate(cfg.instr) if isinstance(ins, IIf))
    body = cfg.succ[els][0]
    assert isinstance(cfg.instr[body], IConstNull)
    assert isinstance(cfg.instr[cfg.succ[iff][0]], IReturn)


def test_compound_condition_evaluates_into_a_temp():
    cfg = lowered(
        "main { var a; var b; a := null; b := null;"
        " if (a && b != null) { skip; } else { skip; } return a; }"
    )
    branch = next(ins for ins in cfg.instr if isinstance(ins, IBranch))
    assert branch.var == "$0"
    assert "$0 := a && b" in [render_instr(ins) for ins in cfg.instr]


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
        assert [render_instr(cfg.instr[v]) for v in chain] == lowered_chain
        assert [cfg.pos[v] for v in chain] == [(1, c) for c in cols]


def test_loop_reenters_at_the_condition_head():
    # compound condition: the back edge targets the first temp evaluation
    cfg = lowered(
        "main { var a; var b; a := null; b := null;"
        " while (a || b != null) { a := null; } return a; }"
    )
    tmp = next(v for v, ins in enumerate(cfg.instr) if render_instr(ins) == "$0 := a || b")
    bodies = [v for v, ins in enumerate(cfg.instr) if isinstance(ins, IConstNull) and ins.target == "a"]
    assert cfg.succ[bodies[-1]] == (tmp,)


def test_call_vertices_copy_the_callee_signature():
    cfg = lowered(LOOP_SRC)
    call = next(ins for ins in cfg.instr if isinstance(ins, ICall))
    assert call.proc == "bar"
    assert call.ret_ann is GradAbst.NONNULL
    assert call.arg_ann is GradAbst.NULLABLE


def test_nested_call_arguments_lower_inside_out():
    cfg = lowered(
        "proc f(x) { return x; }"
        " main { var a; a := null; a := f(f(a)); return a; }"
    )
    calls = [ins for ins in cfg.instr if isinstance(ins, ICall)]
    assert [c.target for c in calls] == ["$0", "a"]
    assert calls[1].arg == "$0"


def test_main_return_is_annotated_nullable():
    cfg = lowered("main { var x; x := null; return x; }")
    ret = next(ins for ins in cfg.instr if isinstance(ins, IReturn))
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
    texts = [render_instr(ins) for ins in cfg.instr]
    assert "proc foo@NonNull(x@Nullable)" in texts
    assert "x := bar@NonNull(x@Nullable)" in texts
    assert "branch(x)" in texts
    assert "return x@NonNull" in texts
    assert "t := new {f}" in texts


def graph(vertices, succ, entry=0, proc_entry=None, universe=None):
    """A hand-built graph from (instruction, procedure) pairs, every position (0, 0)."""
    instr, proc = (list(column) for column in zip(*vertices))
    return ProgramCfg(instr, proc, [(0, 0)] * len(instr), succ, entry, proc_entry or {}, universe)


def hand_graph():
    """Minimal well-formed graph: main; x := null; return x."""
    vertices = [(IMain(), MAIN), (IConstNull("x"), MAIN), (IReturn("x", GradAbst.NULLABLE), MAIN)]
    return graph(vertices, [(1,), (2,), ()], universe={MAIN: frozenset({"x"})})


def test_validation_accepts_the_minimal_graph():
    assert validate(hand_graph()) == []


def test_validation_unique_entry():
    g = hand_graph()
    bad = replace(g, instr=[g.instr[0], IMain(), g.instr[2]])
    assert any("one main" in m for m in validate(bad))
    looped = replace(g, succ=[(1,), (2,), (0,)])
    assert any("predecessors" in m for m in validate(looped))


def test_validation_partition():
    g = hand_graph()
    orphan = replace(
        g,
        instr=g.instr + [IConstNull("x")],
        proc=g.proc + [MAIN],
        pos=g.pos + [(0, 0)],
        succ=[(1,), (2,), (), (2,)],
    )
    assert any("unreachable" in m for m in validate(orphan))


def test_validation_return_reachability_and_annotation():
    g = hand_graph()
    # v1 loops to itself instead of reaching the return
    stuck = replace(g, succ=[(1,), (1,), ()])
    msgs = validate(stuck)
    assert any("cannot reach a return" in m for m in msgs)

    wrong = replace(g, instr=[g.instr[0], g.instr[1], IReturn("x", GradAbst.NONNULL)])
    assert any("declares" in m for m in validate(wrong))


def test_validation_reports_rule_three_in_region_and_vertex_order():
    # main: an if arm that spins forever and an else arm whose return has the
    # wrong annotation; p: a wrongly annotated return; v8: an orphan that
    # reaches main's return but belongs to no region.
    vertices = [
        (IProc("p", GradAbst.NONNULL, "y", GradAbst.NULLABLE), "p"),
        (IReturn("y", GradAbst.NULLABLE), "p"),
        (IMain(), MAIN),
        (IBranch("x"), MAIN),
        (IIf("x"), MAIN),
        (IElse("x"), MAIN),
        (IReturn("x", GradAbst.NONNULL), MAIN),
        (ICopy("x", "x"), MAIN),
        (IConstNull("x"), MAIN),
    ]
    g = graph(
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
    instrs = cfg.instr
    if len({len(instrs), len(cfg.proc), len(cfg.pos), len(cfg.succ)}) != 1:
        return [
            f"columns differ in length: {len(instrs)} instr, {len(cfg.proc)} proc, "
            f"{len(cfg.pos)} pos, {len(cfg.succ)} succ"
        ]
    outside = [
        f"vertex v{v} has successor {u}, not in 0..{len(instrs) - 1}"
        for v, succs in enumerate(cfg.succ)
        for u in succs
        if u not in range(len(instrs))
    ]
    if outside:
        return outside
    out: list[str] = []
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
        elif cfg.proc[v] != owner:
            out.append(f"vertex v{v} in region {owner!r} is labelled {cfg.proc[v]!r}")

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

    if len(mains) == 1 and cfg.entry != mains[0]:
        out.append(f"entry is v{cfg.entry}, not the main vertex v{mains[0]}")
    for v, kind in enumerate(kinds):
        if kind is IProc:
            name, got = instrs[v].name, cfg.proc_entry.get(instrs[v].name)
            if got != v:
                got = "nothing" if got is None else f"v{got}"
                out.append(f"proc_entry maps {name!r} to {got}, not to its entry v{v}")
    for name, v in cfg.proc_entry.items():
        if name not in proc_ret:
            out.append(f"proc_entry maps {name!r} to v{v}, which no procedure entry declares")

    for name, region in regions.items():
        if name not in cfg.universe:
            out.append(f"region {name!r} has no universe")
            continue
        for vid in sorted(region):
            for x in _variables(instrs[vid]):
                if x not in cfg.universe[name]:
                    out.append(f"vertex v{vid} names {x!r}, outside the universe of {name!r}")
    return out


# The fields that name a variable, in the order validate reports them.
_VARIABLE_FIELDS = ("target", "obj", "source", "left", "right", "var", "param", "arg")


def _variables(ins):
    """The variables an instruction names."""
    return [getattr(ins, a) for a in _VARIABLE_FIELDS if hasattr(ins, a)]


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


_FAULTS = ("retarget", "delete", "main", "orphan", "annotation", "arms", "rename", "entry")
_FAULTS += ("relabel", "operand", "callee", "universe")


def _malformed(cfg, rng, faults=_FAULTS):
    """cfg with one to three seeded faults drawn from faults: retargeted or deleted edges, a second
    main, an orphan, a flipped return or call annotation, swapped branch arms, a procedure entry
    renamed to another's name, a moved entry field (entry, or one name of proc_entry), a vertex
    relabelled to another procedure, an operand renamed to a variable of its universe or to one
    outside it, a call retargeted to another procedure, or a universe that loses its key or one
    variable."""
    instr, proc, pos, succ = list(cfg.instr), list(cfg.proc), list(cfg.pos), list(cfg.succ)
    entry, proc_entry, universe = cfg.entry, dict(cfg.proc_entry), dict(cfg.universe)
    flip = {GradAbst.NONNULL: GradAbst.NULLABLE, GradAbst.NULLABLE: GradAbst.UNKNOWN, GradAbst.UNKNOWN: GradAbst.NONNULL}
    for _ in range(rng.randint(1, 3)):
        v = rng.randrange(len(instr))
        ins, fault = instr[v], rng.choice(faults)
        if fault == "retarget" and succ[v]:
            k = rng.randrange(len(succ[v]))
            succ[v] = succ[v][:k] + (rng.randrange(len(instr)),) + succ[v][k + 1 :]
        elif fault == "delete" and succ[v]:
            k = rng.randrange(len(succ[v]))
            succ[v] = succ[v][:k] + succ[v][k + 1 :]
        elif fault == "main":
            instr[v] = IMain()
        elif fault == "orphan":
            instr.append(IConstNull("x"))
            proc.append(MAIN)
            pos.append((0, 0))
            succ.append((v,))
        elif fault == "annotation" and type(ins) is IReturn:
            instr[v] = replace(ins, ann=flip[ins.ann])
        elif fault == "annotation" and type(ins) is ICall:
            which = rng.choice(["ret_ann", "arg_ann"])
            instr[v] = replace(ins, **{which: flip[getattr(ins, which)]})
        elif fault == "rename":
            entries = [u for u, other in enumerate(instr) if type(other) is IProc]
            if len(entries) > 1:
                a, b = rng.sample(entries, 2)
                instr[a] = replace(instr[a], name=instr[b].name)
        elif fault == "entry":
            name = rng.choice([None, "ghost", *proc_entry])
            if name is None:
                entry = v
            elif rng.random() < 0.5:
                proc_entry[name] = v
            else:
                proc_entry.pop(name, None)
        elif fault == "relabel":
            proc[v] = rng.choice([*sorted(set(proc)), "ghost"])
        elif fault == "operand" and (fields := [a for a in _VARIABLE_FIELDS if hasattr(ins, a)]):
            instr[v] = replace(ins, **{rng.choice(fields): rng.choice([*sorted(universe.get(proc[v], ())), "ghost"])})
        elif fault == "callee" and type(ins) is ICall:
            instr[v] = replace(ins, proc=rng.choice([*cfg.proc_entry, "ghost"]))
        elif fault == "universe" and universe:
            name = rng.choice(sorted(universe))
            if rng.random() < 0.5:
                del universe[name]
            else:
                universe[name] = frozenset(sorted(universe[name])[1:])
        elif fault == "arms" or fault == "annotation":
            branches = [u for u, other in enumerate(instr) if type(other) is IBranch]
            if branches:
                b = rng.choice(branches)
                succ[b] = succ[b][::-1]
    columns = {"instr": instr, "proc": proc, "pos": pos, "succ": succ}
    return replace(cfg, **columns, entry=entry, proc_entry=proc_entry, universe=universe)


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


def test_validation_reads_the_entry_fields():
    # Graphs that differ from a lowered one only in entry or proc_entry: each
    # once passed validate, and run then raised IndexError on entry=11 and
    # stuck at the call, on "undefined variable 'q'", with no proc_entry.
    cfg = lower(parse("proc q(y) { return y; } main { var z; z := q(null); return z; }"))
    assert (cfg.entry, cfg.proc_entry, len(cfg.instr)) == (2, {"q": 0}, 6)
    cases = [
        (replace(cfg, entry=11), ["entry is v11, not the main vertex v2"]),
        (replace(cfg, entry=0), ["entry is v0, not the main vertex v2"]),
        (replace(cfg, proc_entry={}), ["proc_entry maps 'q' to nothing, not to its entry v0"]),
        (replace(cfg, proc_entry={"q": 3}), ["proc_entry maps 'q' to v3, not to its entry v0"]),
        (replace(cfg, proc_entry={"q": 0, "r": 2}), ["proc_entry maps 'r' to v2, which no procedure entry declares"]),
    ]
    for g, want in cases:
        assert validate(g) == reference_validate(g) == want


def test_validation_rule_zero_the_columns_hold_one_entry_per_vertex():
    # A succ column one short once made validate raise IndexError, and one
    # entry too many passed.  A length mismatch is the only message.
    g = hand_graph()
    cases = [
        (replace(g, succ=g.succ[:-1]), "3 instr, 3 proc, 3 pos, 2 succ"),
        (replace(g, succ=g.succ + [()]), "3 instr, 3 proc, 3 pos, 4 succ"),
        (replace(g, proc=g.proc[:-1], entry=7), "3 instr, 2 proc, 3 pos, 3 succ"),
        (replace(g, pos=g.pos + [(1, 1)]), "3 instr, 3 proc, 4 pos, 3 succ"),
        (replace(g, instr=g.instr + [IMain()]), "4 instr, 3 proc, 3 pos, 3 succ"),
    ]
    for bad, lengths in cases:
        assert validate(bad) == reference_validate(bad) == [f"columns differ in length: {lengths}"]


def test_validation_rule_zero_every_successor_is_a_vertex():
    # A successor past the last vertex once made validate raise IndexError,
    # and a negative one passed, after which emit_dot printed an edge to v-1.
    g = lower(parse("main { var x; x := null; return x; }"))
    assert g.succ == [(1,), (2,), ()] and validate(g) == reference_validate(g) == []
    cases = [
        (replace(g, succ=[(1,), (3,), ()]), ["vertex v1 has successor 3, not in 0..2"]),
        (replace(g, succ=[(1,), (-1,), ()]), ["vertex v1 has successor -1, not in 0..2"]),
        (replace(g, succ=[(5, -2), (1,), ()]), [f"vertex v0 has successor {u}, not in 0..2" for u in (5, -2)]),
    ]
    for bad, want in cases:
        assert validate(bad) == reference_validate(bad) == want


def test_validation_reads_the_proc_column_and_the_universe_keys():
    # Each of these graphs once passed validate, and analyze then raised
    # KeyError: 'x' (a main vertex labelled as q's) or KeyError: 'q' (no
    # universe for q).
    cfg = lower(parse("proc q(y) { return y; } main { var x; x := null; return x; }"))
    assert cfg.proc == ["q", "q", MAIN, MAIN, MAIN]
    relabelled = replace(cfg, proc=["q", "q", MAIN, "q", MAIN])
    no_universe = replace(cfg, universe={MAIN: cfg.universe[MAIN]})
    for g, want in [
        (relabelled, ["vertex v3 in region 'main' is labelled 'q'"]),
        (no_universe, ["region 'q' has no universe"]),
    ]:
        assert validate(g) == reference_validate(g) == want


def test_validation_rule_seven_each_named_variable_is_in_its_universe():
    # A surface error that the CLI stops before lowering: its graph once
    # passed validate, and analyze then raised KeyError: 'y'.
    undeclared = lower(parse("main { var x; y := null; return x; }"))
    # A procedure's parameter and return read a variable outside its universe.
    cfg = lower(parse("proc q(y) { return y; } main { var x; x := q(null); return x; }"))
    narrowed = replace(cfg, universe={**cfg.universe, "q": frozenset({"z"})})
    for g, want in [
        (undeclared, ["vertex v1 names 'y', outside the universe of 'main'"]),
        (narrowed, [f"vertex v{v} names 'y', outside the universe of 'q'" for v in (0, 1)]),
    ]:
        assert validate(g) == reference_validate(g) == want


def test_the_back_end_is_total_on_every_graph_that_validate_accepts():
    # Seeded mutants of the corpus and of generated programs: operand renames,
    # call retargets and relabelled vertices alone, any of _malformed's faults,
    # and a fifth of them with a column one entry short or long as well.
    # Whatever validate accepts, the analysis, both runs and both renderings
    # take without an exception; a run may stick.
    cfgs = [lower(parse(path.read_text())) for path in corpus_paths()]
    cfgs += [lower(gen_program(GenConfig(seed=seed))) for seed in range(150)]
    rng = random.Random("back end totality")
    mutants = accepted = edited = 0
    for cfg in cfgs:
        for faults in (("operand",), ("operand",), ("operand",), ("callee",), ("relabel",), _FAULTS, _FAULTS):
            g = _malformed(cfg, rng, faults)
            if rng.random() < 0.2:
                column = rng.choice(["instr", "proc", "pos", "succ"])
                values = getattr(g, column)
                g = replace(g, **{column: values[:-1] if rng.random() < 0.5 else values + values[:1]})
            mutants += 1
            if validate(g):
                continue
            accepted += 1
            edited += g.instr != cfg.instr or g.proc != cfg.proc
            result, _, _ = analyze(g)
            assert len(result.pi) == len(g.instr)
            if is_fully_annotated(g):
                analyze(g, "static")
            for mode in ("plain", "gradual"):
                outcome = run(g, mode, max_steps=200, collect_trace=True)
                if outcome.error is not None:
                    outcome.error.to_json(g)
            emit_dot(g)
            render_cfg(g)
    assert mutants == 7 * len(cfgs) and accepted >= 350 and edited >= 120, (mutants, accepted, edited)


def test_validate_time_per_vertex_does_not_grow_on_wide_programs():
    # One region of about 500 vertices against one of about 4,000.
    small, large = (lowered(wide_src(n)) for n in (100, 800))
    ratio = growth_per_vertex(validate, (small, len(small.instr)), (large, len(large.instr)))
    assert ratio <= 2, f"validate: {ratio:.2f}x the time per vertex at 8x the locals"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="before 3.11 the caller's stack holds a call's arguments")
def test_lower_frees_a_tree_that_nobody_else_holds():
    # lower drops its own reference to the tree and takes the procedures one
    # at a time, so on chain 4x (200 procedures) a tree that only the call
    # holds goes procedure by procedure: lowering peaks 333 KB above the
    # tree's own bytes, against 597 KB when the caller keeps the tree.
    source = workload_source("chain", 4)

    def lower_peak(hold):
        gc.collect()
        tracemalloc.start()
        try:
            trees = [parse(source)]
            kept = trees[0] if hold else None  # noqa: F841 (a reference that outlives the call)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            lower(trees.pop())
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    held, unheld = lower_peak(True), lower_peak(False)
    assert unheld <= 0.7 * held, f"lower peaks at {unheld} bytes on a tree nobody holds, {held} on a held one"


def test_validate_peak_memory_per_vertex():
    # No per-vertex list of predecessors and no per-region set: about 77
    # bytes per vertex on chain 4x, against 228 with them.
    cfg = lowered(workload_source("chain", 4))
    per_vertex = peak_bytes(validate, cfg) / len(cfg.instr)
    assert per_vertex <= 90, f"validate peaks at {per_vertex:.0f} bytes per vertex"


def test_validation_call_site_agreement():
    cfg = lowered(LOOP_SRC)
    instr = list(cfg.instr)
    call = next(v for v, ins in enumerate(instr) if isinstance(ins, ICall))
    instr[call] = replace(instr[call], ret_ann=GradAbst.NULLABLE)
    bad = replace(cfg, instr=instr)
    assert any("disagrees" in m for m in validate(bad))


def test_validation_branch_successor_shape():
    vertices = [
        (IMain(), MAIN),
        (IConstNull("x"), MAIN),
        (IBranch("x"), MAIN),
        (IIf("x"), MAIN),
        (IElse("y"), MAIN),  # wrong variable
        (IReturn("x", GradAbst.NULLABLE), MAIN),
    ]
    g = graph(vertices, [(1,), (2,), (3, 4), (5,), (5,), ()], universe={MAIN: frozenset({"x", "y"})})
    assert any("matching if/else" in m for m in validate(g))

    # The arms are ordered: the interpreter takes the first when the
    # variable is non-null, so (else, if) is malformed too.
    g.instr[4] = IElse("x")
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
    # ProgramCfg equality leaves out pos, so the positions are compared too.
    return cfg.instr, cfg.proc, cfg.pos, cfg.succ, cfg.entry, cfg.proc_entry, cfg.universe


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
            # Only the instr column is copied: every other column and field is cfg's own.
            for column in ("proc", "pos", "succ", "proc_entry", "universe"):
                assert getattr(edited, column) is getattr(cfg, column), (name, column)
            assert (edited.instr is cfg.instr) is (edited is cfg)
            # An instruction is rebuilt exactly when it changes.
            for old, new in zip(cfg.instr, edited.instr, strict=True):
                assert (new is old) is (new == old)
                rebuilt += new is not old
    assert rebuilt > 1000


def test_reannotate_leaves_mains_return_and_a_fully_annotated_fill_alone():
    cfg = lowered(scenario_src())
    erased = reannotate(cfg, POLICIES["erase"])
    returns = [ins.ann for ins in erased.instr if type(ins) is IReturn]
    main_returns = [ins.ann for ins, proc in zip(erased.instr, erased.proc) if type(ins) is IReturn and proc == MAIN]
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
            assert filled is cfg, name


def test_annotation_sites_and_erasure():
    cfg = lowered(LOOP_SRC)
    sites = dict(annotation_sites(cfg))
    assert set(sites) == {"bar.param", "bar.return", "foo.param", "foo.return"}
    assert sites["foo.return"] is GradAbst.NONNULL

    erased = erase_annotations(cfg, {"foo.return"})
    foo = erased.instr[erased.proc_entry["foo"]]
    assert foo.ret_ann is GradAbst.UNKNOWN
    assert foo.param_ann is GradAbst.NULLABLE
    assert [erased.instr[v] for v in region(erased, "bar")] == [cfg.instr[v] for v in region(cfg, "bar")]

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
    for v in range(len(cfg.instr)):
        assert f"v{v} [" in dot
    edges = [line for line in dot.splitlines() if "->" in line]
    assert len(edges) == sum(len(s) for s in cfg.succ)


def test_the_benchmarks_traced_counters_read_the_vertices_view():
    # bench/run.py's counters() runs only under --trace 1, and it counts
    # cfg.vertices and each vertex's proc: the one reader of that view.
    case = bench_module("workloads").chain(1, 1)
    cfg = lower(parse(case.source))
    got = bench_module("run").counters(case, {"cfg.lower": cfg, "runtime.run": run(cfg, case.run_mode, case.fuel)})
    assert got["cfg.vertices"] == len(cfg.instr)
    assert got["cfg.max_region"] == max(Counter(cfg.proc).values())
    assert [(v.instr, v.proc, v.pos) for v in cfg.vertices] == list(zip(cfg.instr, cfg.proc, cfg.pos))
