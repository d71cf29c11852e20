"""Parser, surface checks, annotation edits, and the renderer round trip."""

import dataclasses
import random

import pytest

from conftest import LOOP_SRC, scenario_src
from graduator.lattice import GradAbst
from graduator.syntax import (
    EAnd,
    ECall,
    ENull,
    EOr,
    EVar,
    ParseError,
    SAssign,
    SReturn,
    annotation_sites,
    check_surface,
    erase_annotations,
    fill_annotations,
    is_fully_annotated,
    lint_allocation_fields,
    parse,
    precision_leq_prog,
    render_program,
)
from graduator.testkit import GenConfig, gen_program


def errs(p):
    return [d for d in check_surface(p) if d.severity == "error"]


def test_loop_program_parses_into_two_procedures():
    p = parse(LOOP_SRC)
    assert [q.name for q in p.procs] == ["bar", "foo"]
    foo = p.proc_map["foo"]
    assert foo.ret_ann is GradAbst.NONNULL
    assert foo.param == "x"
    assert foo.param_ann is GradAbst.NULLABLE
    assert errs(p) == []


def test_missing_annotations_parse_as_unknown():
    p = parse("proc f(x) { return x; } main { var y; y := f(null); return y; }")
    f = p.proc_map["f"]
    assert f.param_ann is GradAbst.UNKNOWN
    assert f.ret_ann is GradAbst.UNKNOWN


def test_explicit_question_mark_annotation():
    p = parse("proc f@?(x @?) { return x; } main { var y; y := f(null); return y; }")
    assert p.proc_map["f"].param_ann is GradAbst.UNKNOWN
    assert p.proc_map["f"].ret_ann is GradAbst.UNKNOWN


def test_call_arguments_may_be_expressions():
    src = """
    proc f(x) { return x; }
    main {
        var a;
        var b;
        a := f(null);
        b := f(a && a);
        b := f(f(a));
        return b;
    }
    """
    p = parse(src)
    assert errs(p) == []


def test_operator_precedence_and_associativity():
    p = parse("main { var a; var b; var c; a := null; b := null; c := null; c := a && b || c && a; return c; }")
    rhs = p.main[-2].expr
    # || at the top, each side a left-nested &&
    assert isinstance(rhs, EOr)
    assert isinstance(rhs.left, EAnd)
    assert isinstance(rhs.right, EAnd)


def test_field_access_binds_tightest():
    p = parse("field g; main { var a; var b; a := new {g}; b := a && a.g; return b; }")
    rhs = p.main[-2].expr
    assert isinstance(rhs, EAnd)
    assert rhs.right.__class__.__name__ == "EField"


def test_parse_error_positions_are_one_based():
    with pytest.raises(ParseError) as e:
        parse("main {\n  x = null;\n}")
    assert e.value.line == 2
    assert e.value.col == 5  # the '=' after x

    with pytest.raises(ParseError) as e:
        parse("main { var x; x := null; return x; } trailing")
    assert "end of input" in e.value.message


def test_unknown_annotation_rejected():
    with pytest.raises(ParseError) as e:
        parse("proc f@Maybe(x) { return x; } main { var y; y := null; return y; }")
    assert "annotation" in e.value.message


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse("field a; field a; main { var x; x := null; return x; }")
    with pytest.raises(ParseError):
        parse("proc f(x) { return x; } proc f(y) { return y; } main { var x; x := null; return x; }")


def test_main_must_end_with_a_single_literal_return():
    with pytest.raises(ParseError):
        parse("main { var x; x := null; }")
    with pytest.raises(ParseError):
        parse("main { var x; if (x == null) { return x; } else { skip; } x := null; return x; }")


def test_proc_must_return_on_every_path():
    with pytest.raises(ParseError) as e:
        parse("proc f(x) { if (x == null) { return x; } else { skip; } } main { var y; y := null; return y; }")
    assert "fall" in e.value.message or "return" in e.value.message


def test_no_statement_after_a_terminating_if():
    with pytest.raises(ParseError) as e:
        parse(
            "proc f(x) { if (x == null) { return x; } else { return x; } x := null; }"
            " main { var y; y := null; return y; }"
        )
    assert "unreachable" in e.value.message


def test_conditions_require_a_null_comparison():
    with pytest.raises(ParseError):
        parse("main { var x; x := null; if (x) { skip; } else { skip; } return x; }")


def test_use_before_assignment_is_a_surface_error():
    p = parse("main { var x; var y; y := x; x := null; return y; }")
    found = errs(p)
    assert len(found) == 1
    assert "x" in found[0].message


def test_branch_assignment_counts_only_when_both_arms_assign():
    both = parse(
        "main { var c; var x; c := null;"
        " if (c == null) { x := null; } else { x := c; } return x; }"
    )
    assert errs(both) == []
    one = parse(
        "main { var c; var x; c := null;"
        " if (c == null) { x := null; } else { skip; } return x; }"
    )
    assert len(errs(one)) == 1


def test_while_body_assignments_do_not_escape():
    p = parse(
        "main { var c; var x; c := null;"
        " while (c != null) { x := null; c := null; } return x; }"
    )
    assert len(errs(p)) == 1  # x may never be assigned


def test_redeclaration_unknown_proc_unknown_field():
    assert len(errs(parse("main { var x; x := null; var x; return x; }"))) == 1
    assert len(errs(parse("main { var x; x := g(null); return x; }"))) == 1
    assert len(errs(parse("main { var x; x := new {nope}; return x; }"))) == 1
    assert len(errs(parse("field f; main { var x; x := new {f}; x.g := x; return x; }"))) == 1


def test_allocation_field_lint_is_a_note():
    p = parse("field a; field b; main { var x; var y; x := new {a}; y := x.b; return y; }")
    assert errs(p) == []
    notes = lint_allocation_fields(p)
    assert len(notes) == 1 and notes[0].severity == "note"


def test_allocation_field_lint_sees_field_reads_in_conditions():
    p = parse(
        "field f; field g; main { var x; var y; x := new {g}; y := new {f}; x.g := y;"
        " if (x.f == null) { skip; } else { skip; } return x; }"
    )
    assert errs(p) == []
    notes = [(n.line, n.col, n.message.split("'")[1]) for n in lint_allocation_fields(p)]
    # new {g} omits f, which only the condition reads; new {f} omits g
    assert notes == [(1, 45, "f"), (1, 59, "g")]


def test_annotation_sites_and_erasure():
    p = parse(LOOP_SRC)
    sites = dict(annotation_sites(p))
    assert set(sites) == {"bar.param", "bar.return", "foo.param", "foo.return"}
    assert sites["foo.return"] is GradAbst.NONNULL

    erased = erase_annotations(p, {"foo.return"})
    assert erased.proc_map["foo"].ret_ann is GradAbst.UNKNOWN
    assert erased.proc_map["foo"].param_ann is GradAbst.NULLABLE
    assert erased.proc_map["bar"] == p.proc_map["bar"]

    bare = erase_annotations(p)
    assert all(g is GradAbst.UNKNOWN for _, g in annotation_sites(bare))
    with pytest.raises(ValueError):
        erase_annotations(p, {"foo.nonsense"})


def test_fill_annotations_both_policies():
    p = parse(scenario_src())
    filled = fill_annotations(p, GradAbst.NONNULL)
    assert filled.proc_map["reverse"].ret_ann is GradAbst.NONNULL
    assert is_fully_annotated(filled)
    assert not is_fully_annotated(p)
    with pytest.raises(ValueError):
        fill_annotations(p, GradAbst.UNKNOWN)


def test_precision_relation_on_programs():
    p = parse(LOOP_SRC)
    assert precision_leq_prog(p, p)
    e = erase_annotations(p, {"foo.return"})
    assert precision_leq_prog(p, e)
    assert not precision_leq_prog(e, p)
    other = parse(scenario_src())
    assert not precision_leq_prog(p, other)


def test_positions_do_not_affect_equality():
    a = parse("main { var x; x := null; return x; }")
    b = parse("main {\n    var x;\n    x := null;\n    return x;\n}")
    assert a == b


def test_render_round_trip_on_fixtures_and_generated():
    for src in (LOOP_SRC, scenario_src(), scenario_src("NonNull"), scenario_src(None, True)):
        p = parse(src)
        assert parse(render_program(p)) == p
    for seed in range(40):
        p = gen_program(GenConfig(seed=seed))
        assert parse(render_program(p)) == p, f"seed {seed}"


def test_render_rejects_nesting_outside_the_grammar():
    p = parse("main { var a; a := null; a := a && a; return a; }")
    stmt = p.main[2]
    bad = dataclasses.replace(stmt, expr=EAnd(EVar("a"), EAnd(EVar("a"), EVar("a"))))
    mangled = dataclasses.replace(p, main=(p.main[0], p.main[1], bad, p.main[3]))
    with pytest.raises(ValueError):
        render_program(mangled)
