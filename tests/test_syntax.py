"""Parser, surface checks, and the renderer round trip."""

import gc
import itertools
import random
import re
import sys
import tracemalloc

import pytest

from conftest import LOOP_SRC, best_cpu, growth_per_vertex, scenario_src, wide_src, workload_source
from graduator.cfg import lower
from graduator.lattice import GradAbst
from graduator.record import replace
from graduator.syntax import (
    Diagnostic,
    EAnd,
    ECall,
    EField,
    ENew,
    ENull,
    EOr,
    MAX_NESTING,
    EVar,
    KEYWORDS,
    PUNCTUATION,
    ParseError,
    Program,
    SAssign,
    SDecl,
    SFieldAssign,
    SIf,
    SReturn,
    SSkip,
    SWhile,
    _Parser,
    _lex,
    check_surface,
    parse,
    render_program,
)
from graduator.testkit import GenConfig, _nested_sources, _token_mutant, corpus_paths, gen_program


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


NESTED_SCOPES_SRC = """field f;
main {
    var a; var b; var c;
    a := null;
    if (a == null) {
        if (a != null) { b := null; } else { b := new {f}; }
        c := b;
        var a;
        var e;
    } else {
        var e;
        e := a;
    }
    c := b;
    a := e;
    while (a == null) {
        var d;
        d := c.f;
        b := d;
    }
    a := d;
    c := b;
    var d;
    return c;
}
"""


def test_nested_arms_and_loop_bodies_scope_exactly():
    # b is assigned in both arms of the inner if but only one arm of the
    # outer; e is declared in both arms but assigned in one; d and the
    # assignment to b do not survive the while body; a redeclaration inside
    # an arm and one of a loop-local after the loop are both caught.
    assert [(d.message, d.line, d.col) for d in check_surface(parse(NESTED_SCOPES_SRC))] == [
        ("redeclaration of variable 'a'", 8, 9),
        ("redeclaration of variable 'e'", 11, 9),
        ("variable 'b' may be read before initialization", 14, 10),
        ("variable 'e' may be read before initialization", 15, 10),
        ("undeclared variable 'd'", 21, 10),
        ("variable 'b' may be read before initialization", 22, 10),
        ("redeclaration of variable 'd'", 23, 5),
    ]


def reference_check_surface(p):
    """check_surface as an isinstance chain over a preorder expression walk: the reference."""
    out = []
    fields = p.field_names
    procs = set(p.proc_map)

    def err(message, pos):
        out.append(Diagnostic("error", message, pos[0], pos[1]))

    def check_expr(e, declared, assigned):
        stack = [e]
        while stack:
            node = stack.pop()
            if isinstance(node, EVar):
                check_var_use(node.name, node.pos, declared, assigned)
            elif isinstance(node, ECall):
                if node.proc not in procs:
                    err(f"unknown procedure {node.proc!r}", node.pos)
            elif isinstance(node, EField):
                if node.fieldname not in fields:
                    err(f"unknown field {node.fieldname!r}", node.pos)
            elif isinstance(node, ENew):
                for f in node.fields:
                    if f not in fields:
                        err(f"unknown field {f!r}", node.pos)
            if isinstance(node, (EAnd, EOr)):
                stack += [node.right, node.left]
            elif isinstance(node, EField):
                stack.append(node.obj)
            elif isinstance(node, ECall):
                stack.append(node.arg)

    def check_var_use(name, pos, declared, assigned):
        if name not in declared:
            err(f"undeclared variable {name!r}", pos)
        elif name not in assigned:
            err(f"variable {name!r} may be read before initialization", pos)

    def walk(block, declared, assigned, ever_declared):
        for s in block:
            if isinstance(s, SDecl):
                if s.name in ever_declared:
                    err(f"redeclaration of variable {s.name!r}", s.pos)
                ever_declared.add(s.name)
                declared[s.name] = None
            elif isinstance(s, SAssign):
                check_expr(s.expr, declared, assigned)
                if s.target not in declared:
                    err(f"undeclared variable {s.target!r}", s.pos)
                assigned[s.target] = None
            elif isinstance(s, SFieldAssign):
                check_var_use(s.obj, s.pos, declared, assigned)
                check_var_use(s.source, s.pos, declared, assigned)
                if s.fieldname not in fields:
                    err(f"unknown field {s.fieldname!r}", s.pos)
            elif isinstance(s, SReturn):
                check_var_use(s.name, s.pos, declared, assigned)
            elif isinstance(s, SIf):
                check_expr(s.cond, declared, assigned)
                then_declared, then_assigned = arm(s.then, declared, assigned, ever_declared)
                else_declared, else_assigned = arm(s.els, declared, assigned, ever_declared)
                declared.update((x, None) for x in then_declared if x in else_declared)
                assigned.update((x, None) for x in then_assigned if x in else_assigned)
            elif isinstance(s, SWhile):
                check_expr(s.cond, declared, assigned)
                arm(s.body, declared, assigned, ever_declared)

    def arm(block, declared, assigned, ever_declared):
        # Walk in place, then take back (and return) what the block added.
        before = set(declared), set(assigned)
        walk(block, declared, assigned, ever_declared)
        added = [{x: None for x in names if x not in old} for names, old in zip((declared, assigned), before)]
        for names, new in zip((declared, assigned), added):
            for x in new:
                del names[x]
        return added

    for proc in p.procs:
        walk(proc.body, {proc.param: None}, {proc.param: None}, {proc.param})
    walk(p.main, {}, {}, set())
    return out


def _walk_exprs(e):
    """Every subexpression in preorder, with an explicit stack (chains run deep)."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (EAnd, EOr)):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, EField):
            stack.append(node.obj)
        elif isinstance(node, ECall):
            stack.append(node.arg)


def reference_lint(p):
    """Warn when an allocation omits a field the program reads or writes: the reference, a walk of its own.

    Such an object, should it reach that access, is stuck at run time even
    though the receiver is non-null.  Advisory only; never blocks analysis.
    """
    exprs = []  # every expression node, conditions included, in walk order
    accessed = set()
    # Statements still to visit, the next one last: an explicit stack, not a
    # recursive closure, which would be a reference cycle holding exprs.
    todo = [s for block in (p.main, *(proc.body for proc in reversed(p.procs))) for s in reversed(block)]
    while todo:
        s = todo.pop()
        if isinstance(s, SAssign):
            exprs.extend(_walk_exprs(s.expr))
        elif isinstance(s, SFieldAssign):
            accessed.add(s.fieldname)
        elif isinstance(s, SIf):
            exprs.extend(_walk_exprs(s.cond))
            todo.extend(reversed(s.els))
            todo.extend(reversed(s.then))
        elif isinstance(s, SWhile):
            exprs.extend(_walk_exprs(s.cond))
            todo.extend(reversed(s.body))
    accessed.update(e.fieldname for e in exprs if isinstance(e, EField))
    return [
        Diagnostic(
            "note",
            f"allocation omits field {f!r}, which the program dereferences elsewhere",
            e.pos[0],
            e.pos[1],
        )
        for e in exprs
        if isinstance(e, ENew)
        for f in sorted(accessed - set(e.fields))
    ]


# Every surface error, inside if and while arms and nested call arguments.
SURFACE_ERRORS_SRC = """field f;
proc p(a) {
    var b;
    if (a == null) {
        b := p(q(p(u.g && v)));
    } else {
        while (b != null) {
            var a;
            b := new {f, h, k};
            w.f := b;
        }
        b := p(p(b || c.f.g));
    }
    return b;
}
main {
    var x;
    while (x.f == null) {
        var y;
        if (p(y) != null) { y := null; } else { y.g := zz; }
        var y;
        if (r(x) == null) { while (p(p(x && t)) != null) { var x; x := y; } } else { x := s(x); }
    }
    z := x;
    return x;
}
"""


# Allocations that omit accessed fields: in a procedure and in main, in if
# and while conditions and arms, inside call arguments and field reads, with
# a field that only a field write accesses.
LINT_NOTES_SRC = """field f;
field g;
field h;
proc mk(a) {
    var b;
    b := new {f};
    if (new {g} == null) { b := new {h}; } else { b := a; }
    return b;
}
main {
    var x;
    var y;
    x := mk(new {f, g});
    while (new {h}.f != null) { y := new {g}; x.h := y; }
    if (x.g == null) { skip; } else { y := new {f, g, h}; }
    return x;
}
"""

# Errors and notes together: the notes name undeclared fields too.
LINT_AND_ERRORS_SRC = """field f;
main {
    var x;
    x := new {g};
    y := x.f;
    x.k := z;
    return x;
}
"""


def _drop_statement(rng, texts):
    """The tokens without one seeded run from a statement boundary through the next `;`."""
    i = rng.choice([k + 1 for k, t in enumerate(texts) if t in (";", "{", "}")])
    j = next((k + 1 for k in range(i, len(texts)) if texts[k] == ";"), i)
    return " ".join(texts[:i] + texts[j:])


def _narrow_allocation(rng, texts):
    """The tokens with one seeded `new {...}` cut down to one declared field, or None without either."""
    news = [k for k, t in enumerate(texts) if t == "new"]
    declared = [texts[k + 1] for k, t in enumerate(texts) if t == "field"]
    if not news or not declared:
        return None
    i = rng.choice(news) + 2  # the first field name, after "{"
    return " ".join(texts[:i] + [rng.choice(declared)] + texts[texts.index("}", i) :])


def _surface_inputs():
    """Programs that parse: the corpus, the sized workloads, generated programs and mutants of them."""
    corpus = [path.read_text() for path in corpus_paths()]
    generated = [render_program(gen_program(GenConfig(seed=seed, annotation_density=(0.0, 0.5, 1.0)[seed % 3])))
                 for seed in range(160)]
    sources = corpus + generated + [workload_source(name, 1) for name in ("chain", "wide", "alloc")]
    sources += [SURFACE_ERRORS_SRC, NESTED_SCOPES_SRC, LINT_NOTES_SRC, LINT_AND_ERRORS_SRC]
    sources += _nested_sources(MAX_NESTING)
    # The front-end fuzz oracle's token-level mutants of the corpus, for three seeds.
    tokens = [_lex(src)[0][:-1] for src in corpus]
    for seed in range(3):
        rng = random.Random(f"frontend-fuzz-{seed}")
        sources += [_token_mutant(rng, texts, tokens) for texts in tokens for _ in range(10)]
    # Dropping a statement mostly leaves a program that parses but uses a name it no longer declares or assigns.
    rng = random.Random("drop-statement")
    sources += [_drop_statement(rng, _lex(src)[0][:-1]) for src in corpus + generated for _ in range(2)]
    # Allocations with fewer fields give the notes something to report.
    rng = random.Random("narrow-allocation")
    sources += filter(None, (_narrow_allocation(rng, _lex(src)[0][:-1]) for src in corpus + generated))
    programs = []
    for src in sources:
        try:
            programs.append(parse(src))
        except ParseError:
            pass
    return programs


def test_check_surface_agrees_with_the_reference():
    programs = _surface_inputs()
    results = [check_surface(p) for p in programs]
    assert results == [reference_check_surface(p) + reference_lint(p) for p in programs]
    assert len(programs) >= 400 and sum(map(bool, results)) >= 100  # programs with at least one diagnostic
    # The errors come first ("error" < "note"); some programs have notes, some of them errors as well.
    severities = [[d.severity for d in diagnostics] for diagnostics in results]
    assert all(kinds == sorted(kinds) for kinds in severities)
    noted = [kinds for kinds in severities if "note" in kinds]
    assert len(noted) >= 50 and sum("error" in kinds for kinds in noted) >= 2
    kinds = {re.sub(r"'.*'", "'x'", d.message) for d in check_surface(parse(SURFACE_ERRORS_SRC))}
    assert kinds == {
        "undeclared variable 'x'",
        "variable 'x' may be read before initialization",
        "unknown field 'x'",
        "unknown procedure 'x'",
        "redeclaration of variable 'x'",
        "allocation omits field 'x', which the program dereferences elsewhere",
    }


def test_notes_follow_the_errors_in_walk_order():
    notes = [(d.line, d.col, d.message.split("'")[1]) for d in check_surface(parse(LINT_NOTES_SRC))]
    assert notes == [
        (6, 10, "g"), (6, 10, "h"),  # the procedure's body
        (7, 9, "f"), (7, 9, "h"),  # its if condition
        (7, 33, "f"), (7, 33, "g"),  # and then-arm
        (13, 13, "h"),  # main, in a call argument
        (14, 12, "f"), (14, 12, "g"),  # a while condition, under a field read
        (14, 38, "f"), (14, 38, "h"),  # and its body
    ]
    assert [(d.severity, d.message) for d in check_surface(parse(LINT_AND_ERRORS_SRC))] == [
        ("error", "unknown field 'g'"),
        ("error", "undeclared variable 'y'"),
        ("error", "undeclared variable 'z'"),
        ("error", "unknown field 'k'"),
        ("note", "allocation omits field 'f', which the program dereferences elsewhere"),
        ("note", "allocation omits field 'k', which the program dereferences elsewhere"),
    ]


class _Odd:
    """A node of no AST type."""

    pos = (1, 1)


@pytest.mark.parametrize(
    "stmt",
    [_Odd(), SAssign("x", _Odd()), SAssign("x", EAnd(EVar("x"), ECall("p", _Odd()))), SIf("==", _Odd(), (), ())],
    ids=["statement", "expression", "nested expression", "condition"],
)
def test_a_node_of_unknown_type_is_an_assertion_error(stmt):
    p = Program((), (), (SDecl("x"), SAssign("x", ENull()), stmt, SReturn("x")))
    with pytest.raises(AssertionError):
        check_surface(p)
    with pytest.raises(AssertionError):
        lower(p)


def test_check_surface_time_per_vertex_does_not_grow_on_wide_programs():
    small, large = (parse(wide_src(n)) for n in (100, 800))
    assert check_surface(small) == check_surface(large) == []
    ratio = growth_per_vertex(
        check_surface, (small, len(lower(small).instr)), (large, len(lower(large).instr))
    )
    assert ratio <= 2, f"check_surface: {ratio:.2f}x the time per vertex at 8x the locals"


def test_parse_time_per_vertex_does_not_grow_on_wide_programs():
    small, large = (wide_src(n) for n in (100, 800))
    ratio = growth_per_vertex(
        parse, (small, len(lower(parse(small)).instr)), (large, len(lower(parse(large)).instr))
    )
    assert ratio <= 2, f"parse: {ratio:.2f}x the time per vertex at 8x the locals"


def test_redeclaration_unknown_proc_unknown_field():
    assert len(errs(parse("main { var x; x := null; var x; return x; }"))) == 1
    assert len(errs(parse("main { var x; x := g(null); return x; }"))) == 1
    assert len(errs(parse("main { var x; x := new {nope}; return x; }"))) == 1
    assert len(errs(parse("field f; main { var x; x := new {f}; x.g := x; return x; }"))) == 1


def test_allocation_field_lint_is_a_note():
    p = parse("field a; field b; main { var x; var y; x := new {a}; y := x.b; return y; }")
    assert errs(p) == []
    notes = [d for d in check_surface(p) if d.severity == "note"]
    assert len(notes) == 1 and notes[0].severity == "note"


def test_allocation_field_lint_sees_field_reads_in_conditions():
    p = parse(
        "field f; field g; main { var x; var y; x := new {g}; y := new {f}; x.g := y;"
        " if (x.f == null) { skip; } else { skip; } return x; }"
    )
    assert errs(p) == []
    notes = [(n.line, n.col, n.message.split("'")[1]) for n in check_surface(p) if n.severity == "note"]
    # new {g} omits f, which only the condition reads; new {f} omits g
    assert notes == [(1, 45, "f"), (1, 59, "g")]


# The token a node's position points at: a fixed text, or one of its names.
_FIXED_TOKEN = {
    SSkip: "skip", SDecl: "var", SReturn: "return", SIf: "if", SWhile: "while",
    ENull: "null", ENew: "new", EAnd: "&&", EOr: "||", EField: ".",
}
_NAME_TOKEN = {SAssign: "target", SFieldAssign: "obj", EVar: "name", ECall: "proc"}


def _node_tokens(p):
    """(node class, position, the token at that position) for every node of p."""
    out = [("Program", p.main_pos, "main")]
    out += [("FieldDecl", f.pos, "field") for f in p.fields]
    out += [("ProcDecl", q.pos, "proc") for q in p.procs]
    nodes = []
    blocks = [q.body for q in p.procs] + [p.main]
    while blocks:
        for s in blocks.pop():
            nodes.append(s)
            if isinstance(s, SAssign):
                nodes.extend(_walk_exprs(s.expr))
            elif isinstance(s, SIf):
                nodes.extend(_walk_exprs(s.cond))
                blocks += [s.then, s.els]
            elif isinstance(s, SWhile):
                nodes.extend(_walk_exprs(s.cond))
                blocks.append(s.body)
    for n in nodes:
        token = _FIXED_TOKEN.get(type(n)) or getattr(n, _NAME_TOKEN[type(n)])
        out.append((type(n).__name__, n.pos, token))
    return out


def test_every_node_position_points_at_its_token():
    sources = [path.read_text() for path in corpus_paths()]
    sources += [render_program(gen_program(GenConfig(seed=seed))) for seed in range(200)]
    sources.append(wide_src(50))
    seen = set()
    for src in sources:
        lines = src.split("\n")
        for kind, (line, col), token in _node_tokens(parse(src)):
            at = lines[line - 1][col - 1 :]
            # a word token must end where the word at the position ends
            whole = not re.match(r"\w\w", at[len(token) - 1 : len(token) + 1])
            assert at.startswith(token) and whole, (kind, line, col, token, at[:20])
            seen.add(kind)
    stmts = {"SSkip", "SDecl", "SAssign", "SFieldAssign", "SIf", "SWhile", "SReturn"}
    exprs = {"ENull", "EVar", "EAnd", "EOr", "EField", "ENew", "ECall"}
    assert seen == {"Program", "FieldDecl", "ProcDecl"} | stmts | exprs


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
    bad = replace(stmt, expr=EAnd(EVar("a"), EAnd(EVar("a"), EVar("a"))))
    mangled = replace(p, main=(p.main[0], p.main[1], bad, p.main[3]))
    with pytest.raises(ValueError):
        render_program(mangled)


def _shape(e):
    # Preorder node classes, names and field names; each class has a fixed
    # arity, so equal shapes mean equal trees.  Unlike ==, this does not recurse.
    return [(type(n), getattr(n, "name", None), getattr(n, "fieldname", None)) for n in _walk_exprs(e)]


def test_render_round_trips_long_chains():
    rng = random.Random(5)
    ops = {
        "and": ["&&"] * 1999,
        "mixed": [rng.choice(["&&", "||"]) for _ in range(1999)],
        "field": [rng.choice([".f", ".g"]) for _ in range(1999)],
    }
    for kind, chain_ops in ops.items():
        names = [rng.choice("ab") for _ in range(2000)]
        if kind == "field":
            chain = names[0] + "".join(chain_ops)
        else:
            chain = names[0] + "".join(f" {op} {x}" for op, x in zip(chain_ops, names[1:]))
        p = parse(f"field f; field g; main {{ var a; var b; a := null; b := null; a := {chain}; return a; }}")
        q = parse(render_program(p))
        assert q.main[:4] == p.main[:4] and q.main[5] == p.main[5], kind
        assert _shape(q.main[4].expr) == _shape(p.main[4].expr), kind
        assert render_program(q) == render_program(p), kind


# ---------------------------------------------------------------------------
# The lexer contract: which characters make which tokens, and where
# ---------------------------------------------------------------------------


def _lexed(src):
    try:
        texts, lines, cols = _lex(src)
    except ParseError as e:
        return str(e)
    kinds = ("eof" if not t else "punct" if t in PUNCTUATION else "keyword" if t in KEYWORDS else "ident" for t in texts)
    return list(zip(kinds, texts, lines, cols, strict=True))


def _targeted_code_points():
    # All of ASCII, every character that is alphanumeric but not alphabetic
    # (digits and other numerals, which may continue but not start a word),
    # and every whitespace character (only four of which are blanks).
    chars = map(chr, range(0x110000))
    alnum = filter(str.isalnum, chars)
    numerals = itertools.filterfalse(str.isalpha, alnum)
    spaces = filter(str.isspace, map(chr, range(0x110000)))
    return sorted(set(map(chr, range(128))) | set(numerals) | set(spaces))


def test_lexer_character_classes_follow_the_spec():
    blanks = " \t\r\n"
    punct = ".;,{}()@?"
    points = _targeted_code_points()
    assert len(points) > 1500
    for c in points:
        if c.isalpha() or c == "_":
            alone = [("ident", c, 1, 1), ("eof", "", 1, 2)]
        elif c in blanks:
            alone = [("eof", "", 2, 1)] if c == "\n" else [("eof", "", 1, 2)]
        elif c in punct:
            alone = [("punct", c, 1, 1), ("eof", "", 1, 2)]
        else:
            alone = f"1:1: unexpected character {c!r}"
        assert _lexed(c) == alone, repr(c)

        if c.isalnum() or c == "_":
            after = [("ident", "a" + c, 1, 1), ("eof", "", 1, 3)]
        elif c in blanks:
            after = [("ident", "a", 1, 1), ("eof", "", 2, 1) if c == "\n" else ("eof", "", 1, 3)]
        elif c in punct:
            after = [("ident", "a", 1, 1), ("punct", c, 1, 2), ("eof", "", 1, 3)]
        else:
            after = f"1:2: unexpected character {c!r}"
        assert _lexed("a" + c) == after, repr(c)

    for c in "\f\v\u00a0":
        assert _lexed(f"main {c}") == f"1:6: unexpected character {c!r}"


def test_lexer_positions_after_tabs_crlf_and_comments():
    assert _lexed("main\t{\r\n\tvar x;// c\r\n  }") == [
        ("keyword", "main", 1, 1),
        ("punct", "{", 1, 6),
        ("keyword", "var", 2, 2),
        ("ident", "x", 2, 6),
        ("punct", ";", 2, 7),
        ("punct", "}", 3, 3),
        ("eof", "", 3, 4),
    ]
    # A comment at end of input, with no newline after it: end of input sits
    # where the comment starts.
    assert _lexed("x := y; // done")[-1] == ("eof", "", 1, 9)
    assert _lexed("x\n// done")[-1] == ("eof", "", 2, 1)
    # End of input after nothing, after CRLF, after trailing blanks, and after
    # a comment with a newline and blanks behind it; a lone CR is a blank.
    assert _lexed("") == [("eof", "", 1, 1)]
    assert _lexed("x;\r\n") == [("ident", "x", 1, 1), ("punct", ";", 1, 2), ("eof", "", 2, 1)]
    assert _lexed("x; \t ") == [("ident", "x", 1, 1), ("punct", ";", 1, 2), ("eof", "", 1, 6)]
    assert _lexed("a\rb") == [("ident", "a", 1, 1), ("ident", "b", 1, 3), ("eof", "", 1, 4)]
    assert _lexed("x \r y") == [("ident", "x", 1, 1), ("ident", "y", 1, 5), ("eof", "", 1, 6)]
    assert _lexed("x; // c\n   ") == [("ident", "x", 1, 1), ("punct", ";", 1, 2), ("eof", "", 2, 4)]
    assert _lexed("x\r\n// c\r\n\t") == [("ident", "x", 1, 1), ("eof", "", 3, 2)]
    with pytest.raises(ParseError) as e:
        parse("main { var x; // open")
    assert (e.value.line, e.value.col, e.value.message) == (1, 15, "unexpected end of input inside block")
    assert _lexed("a:=b==c!=d&&e||f") == [
        ("ident", "a", 1, 1),
        ("punct", ":=", 1, 2),
        ("ident", "b", 1, 4),
        ("punct", "==", 1, 5),
        ("ident", "c", 1, 7),
        ("punct", "!=", 1, 8),
        ("ident", "d", 1, 10),
        ("punct", "&&", 1, 11),
        ("ident", "e", 1, 13),
        ("punct", "||", 1, 14),
        ("ident", "f", 1, 16),
        ("eof", "", 1, 17),
    ]


def test_blanks_that_end_a_line_lex_as_fast_as_blanks_between_tokens():
    n = 100_000
    blanks = (" \t\r" * n)[:n]
    between = "x" + blanks + "y"
    assert _lexed(between)[-1] == ("eof", "", 1, n + 3)
    base = best_cpu(_lex, between)
    for src, eof in [("x" + blanks, (1, n + 2)), (blanks, (1, n + 1)), ("x" + blanks + "\ny", (2, 2))]:
        assert _lexed(src)[-1] == ("eof", "", *eof)
        took = best_cpu(_lex, src)
        assert took <= 10 * base + 0.05, f"{took:.3f}s for {len(src)} characters against {base:.3f}s"


@pytest.mark.parametrize("c", [":", "=", "&", "|", "!", "/"])
def test_lone_half_of_a_two_character_token_is_an_error(c):
    with pytest.raises(ParseError) as e:
        parse(f"main {{\n  var x; x {c} null;\n}}")
    assert (e.value.line, e.value.col, e.value.message) == (2, 12, f"unexpected character {c!r}")


# ---------------------------------------------------------------------------
# The parser's window: parse as if every token were lexed first
# ---------------------------------------------------------------------------


class _WholeLexer:
    """A lexer that hands the parser every token in its first window, as _lex gives them."""

    def __init__(self, src):
        self.tokens = _lex(src)  # the lexer's first error raises here, before any parsing

    def lex(self, texts, lines, cols, window):
        for column, values in zip((texts, lines, cols), self.tokens):
            column += values
        return sys.maxsize


def _outcome(parser_of, src):
    """The tree, rendered, with every node's position; or the ParseError's message and position.

    The rendering stands for the tree (parse . render is the identity up to
    positions), and, unlike ==, it does not recurse down an operand chain.
    """
    try:
        p = parser_of(src).program() if parser_of else parse(src)
    except ParseError as e:
        return str(e)
    return render_program(p), _node_tokens(p)


def _splice_mutants(rng, sources, count):
    """Sources with one to three seeded splices of characters the lexer refuses, comments and braces."""
    pieces = ["$", "é", "¼", "//", "{", "}", ";", "\n", "x := ;"]
    out = []
    for _ in range(count):
        src = rng.choice(sources)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(src) + 1)
            src = src[:at] + rng.choice(pieces) + src[at:]
        out.append(src)
    return out


def test_parsing_by_window_equals_lexing_everything_first():
    corpus = [path.read_text() for path in corpus_paths()]
    long_file = workload_source("chain", 4)  # 200 procedures, many windows
    late_error = "main { var x; x := ;\n" + "    skip;\n" * 100 + "$"
    sources = corpus + [long_file, late_error]
    sources += _splice_mutants(random.Random("window"), corpus + [long_file], 300)
    # Input that ends inside a comment, after a statement and in one.
    sources += [src + "// end" for src in corpus[:5]]
    sources += [long_file[: long_file.index("\n", len(long_file) // 2)] + " // cut"]
    sources += ["main { var x; x := null; // return x; }", "main { var x; x := null; return x; } // }"]
    # A 20,000-operand chain on one line, and a 300,000-character identifier.
    sources.append("main { var x; x := null; x := x" + " && x" * 19_999 + "; return x; }")
    sources.append("main { var " + "a" * 300_000 + "; return x; }")
    outcomes = [(_outcome(None, src), _outcome(lambda s: _Parser(_WholeLexer(s)), src)) for src in sources]
    for src, (windowed, whole) in zip(sources, outcomes):
        assert windowed == whole, src[:200]
    # A lexer error past the parser's first error wins, as when lexing came first.
    assert outcomes[len(corpus) + 1][0] == "102:1: unexpected character '$'"
    errors = [windowed for windowed, _ in outcomes if type(windowed) is str]
    assert sum("unexpected character" in e for e in errors) > 50 and len(errors) < len(outcomes) - 20


def test_parse_holds_no_list_of_every_token():
    # At most the tree and a constant: the window's tokens and the table that
    # gives each distinct name one string.  Lexing first held the token lists
    # beside the tree, about 400 KB more here.
    source = workload_source("chain", 4)  # 200 procedures, about 57 KB
    parse(source)
    gc.collect()
    tracemalloc.start()
    try:
        tree = parse(source)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tree.procs) == 200
    assert peak - held <= 64_000, f"{peak - held} bytes above the tree"


@pytest.mark.parametrize(
    "src, where, message",
    [
        ("main ( }", (1, 6), "expected '{', found '('"),
        ("main", (1, 5), "expected '{'"),
        ("main { var x; x := null }", (1, 25), "expected ';', found '}'"),
        ("main { var x; x := null", (1, 24), "expected ';'"),
        ("main { var x; x := null; if (x == nul) { skip; } else { skip; } return x; }", (1, 35), "expected 'null', found 'nul'"),
        ("main { var x; x := null; if (x == NULL) { skip; } else { skip; } return x; }", (1, 35), "expected 'null', found 'NULL'"),
        ("main { var x; x := null; if (x == null) { skip; } els { skip; } return x; }", (1, 51), "expected 'else', found 'els'"),
        ("main { var x; x := null; if (x == null) { skip; }", (1, 50), "expected 'else'"),
        ("main { var x; x := null; if (x == null { skip; } else { skip; } return x; }", (1, 40), "expected ')', found '{'"),
        ("main { var x; x := null; x := x && ; return x; }", (1, 36), "expected an expression, found ';'"),
        ("main { var if; }", (1, 12), "expected variable name, found 'if'"),
        ("main { var x; x := null; return x; } main", (1, 38), "expected end of input, found 'main'"),
        ("proc f(x { return x; } main { var y; y := null; return y; }", (1, 10), "expected ')', found '{'"),
        ("proc f(x", (1, 9), "expected ')'"),
        ("proc f@NonNull(x) { return x; } main { var y; y := new; return y; }", (1, 55), "expected '{', found ';'"),
        ("main { var x; x := new {", (1, 25), "expected field name"),
        ("proc f@(x) { return x; }", (1, 8), "unknown annotation '('; expected NonNull, Nullable, or ?"),
    ],
)
def test_parse_error_messages_are_exact(src, where, message):
    with pytest.raises(ParseError) as e:
        parse(src)
    assert ((e.value.line, e.value.col), e.value.message) == (where, message)


def test_nesting_counts_open_levels_in_each_body():
    # Each body starts at one level, and a closed level is given back, so
    # sibling calls and blocks at the limit do not add up.
    deepest = "q(" * (MAX_NESTING - 1) + "y" + ")" * (MAX_NESTING - 1)
    body = f"{{ var z; z := {deepest}; z := {deepest}; if (z == null) {{ skip; }} else {{ skip; }} return z; }}"
    parse(f"proc q(y) {{ return y; }} proc r(y) {body} main {body}")
    too_deep = "q(" * MAX_NESTING + "y" + ")" * MAX_NESTING
    src = f"proc q(y) {{ return y; }} proc r(y) {{ var z; z := {too_deep}; return z; }} main {{ var z; return z; }}"
    with pytest.raises(ParseError) as e:
        parse(src)
    # the body's brace is level 1, so the last call's parenthesis is one too many
    assert (e.value.line, e.value.col) == (1, src.rindex("(y)") + 1)


_MAIN = "main { var y; y := null; return y; }"
_UNREACHABLE = "unreachable statement: every path above already returned"
_FALLS_OFF = "procedure 'f': some path through the body falls off the end without 'return'"
_MAIN_END = "main must end with 'return x;'"
_MAIN_RETURN = "'return' must be the final statement of main"


@pytest.mark.parametrize(
    "src, error",
    [
        # Each placement message, with its position.
        ("main {\n    var x;\n    x := null;\n}", f"1:1: {_MAIN_END}"),
        ("main {\n    var x;\n    x := null;\n    while (x == null) {\n        return x;\n    }\n    return x;\n}", f"5:9: {_MAIN_RETURN}"),
        ("proc f(x) {\n    return x;\n    skip;\n}\n" + _MAIN, f"3:5: {_UNREACHABLE}"),
        ("proc f(x) {\n    if (x == null) {\n        return x;\n    } else {\n        skip;\n    }\n}\n" + _MAIN, f"1:6: {_FALLS_OFF}"),
        # Unreachable after an if whose arms both return, inside an arm, inside
        # a loop body; the first one in the text is reported.
        ("proc f(x) { if (x == null) { return x; } else { return x; } x := null; return x; } " + _MAIN, f"1:61: {_UNREACHABLE}"),
        ("proc f(x) { if (x == null) { return x; skip; } else { return x; } } " + _MAIN, f"1:40: {_UNREACHABLE}"),
        ("proc f(x) { while (x == null) { return x; x := null; } return x; } " + _MAIN, f"1:43: {_UNREACHABLE}"),
        ("proc f(x) { if (x == null) { return x; } else { return x; skip; } skip; } " + _MAIN, f"1:59: {_UNREACHABLE}"),
        ("proc f(x) { return x; return x; } " + _MAIN, f"1:23: {_UNREACHABLE}"),
        ("proc f(x) { return x; skip; return x; skip; } " + _MAIN, f"1:23: {_UNREACHABLE}"),
        # A loop never returns, even when its body does.
        ("proc f(x) { while (x == null) { return x; } } " + _MAIN, f"1:6: {_FALLS_OFF}"),
        # An unreachable statement beats falling off the end.
        ("proc f(x) { while (x == null) { return x; skip; } } " + _MAIN, f"1:43: {_UNREACHABLE}"),
        # A syntax error later in the same body beats an earlier unreachable statement.
        ("proc f(x) { return x; skip; x := ; } " + _MAIN, "1:34: expected an expression, found ';'"),
        # A placement error in f beats a syntax error in a later procedure, a
        # duplicate of f's name, and a placement error in main.
        ("proc f(x) { skip; } proc g(y) { y := ; } " + _MAIN, f"1:6: {_FALLS_OFF}"),
        ("proc f(x) { return x; } proc f(y) { skip; } " + _MAIN, f"1:30: {_FALLS_OFF}"),
        ("proc f(x) { return x; skip; } proc f(y) { return y; } " + _MAIN, f"1:23: {_UNREACHABLE}"),
        ("proc f(x) { skip; } main { }", f"1:6: {_FALLS_OFF}"),
        # main must end with a return, which beats a nested return in main;
        # statements after a return in main break that rule, not reachability.
        ("main { var x; x := null; if (x == null) { return x; } else { skip; } skip; }", f"1:1: {_MAIN_END}"),
        ("main { var x; x := null; return x; skip; }", f"1:1: {_MAIN_END}"),
        ("main { var x; x := null; return x; return x; }", f"1:26: {_MAIN_RETURN}"),
        ("main { var x; x := null; if (x == null) { skip; } else { return x; } return x; }", f"1:58: {_MAIN_RETURN}"),
        # Trailing input beats a placement error in main.
        ("main { var x; x := null; } junk", "1:28: expected end of input, found 'junk'"),
        ("main { var x; x := null; return x; return x; } }", "1:48: expected end of input, found '}'"),
        # Empty bodies.
        ("proc f(x) { } " + _MAIN, f"1:6: {_FALLS_OFF}"),
        ("main { }", f"1:1: {_MAIN_END}"),
    ],
)
def test_return_placement_errors_and_their_precedence(src, error):
    with pytest.raises(ParseError) as e:
        parse(src)
    assert str(e.value) == error
