"""The record types of syntax, cfg, analysis and runtime: constructor, repr, equality, hash, immutability, slots, copying.

One instance of every record type, built by a function of its position (a
type without a position ignores it), pins what the pipeline relies on:
the repr text, equality and hashing over the declared fields only (never a
position, never across types), and which types are frozen.
"""

import ast
import copy
import importlib
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from graduator import analysis, cfg, runtime, syntax
from graduator.analysis import AnalysisResult, Finding
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
    ProgramCfg,
    Vertex,
)
from graduator.lattice import Abst, GradAbst
from graduator.record import Record, replace
from graduator.runtime import Errored, Final, MachineState, RunResult, Stepped, Stuck
from graduator.syntax import (
    Diagnostic,
    EAnd,
    ECall,
    EField,
    ENew,
    ENull,
    EOr,
    EVar,
    FieldDecl,
    ProcDecl,
    Program,
    SAssign,
    SDecl,
    SFieldAssign,
    SIf,
    SReturn,
    SSkip,
    SWhile,
)

SRC = Path(__file__).resolve().parent.parent / "src"

NN, NL, UNK = GradAbst.NONNULL, GradAbst.NULLABLE, GradAbst.UNKNOWN


def _graph(pos=(0, 0)):
    return ProgramCfg(
        [IMain(), IFieldRead("y", "x", "f")],
        ["main", "main"],
        [(0, 0), pos],
        [(1,), ()],
        0,
        {},
        {"main": frozenset({"x"})},
    )


def _state(pos=None):
    return MachineState([({"x": 1}, 0)], {1: {"f": 0}})


# name -> (instance as a function of its position, an attribute that assignment must reject or None
# if the type is not frozen, repr or None)
RECORDS = {
    "Diagnostic": (lambda pos: Diagnostic("note", "unused", 1, 2), "line",
                   "Diagnostic(severity='note', message='unused', line=1, col=2)"),
    "ENull": (lambda pos: ENull(pos), "pos", "ENull()"),
    "EVar": (lambda pos: EVar("x", pos), "name", "EVar(name='x')"),
    "EAnd": (lambda pos: EAnd(EVar("a", pos), ENull(pos), pos), "left",
             "EAnd(left=EVar(name='a'), right=ENull())"),
    "EOr": (lambda pos: EOr(EVar("a", pos), ENull(pos), pos), "right",
            "EOr(left=EVar(name='a'), right=ENull())"),
    "EField": (lambda pos: EField(EVar("o", pos), "f", pos), "fieldname",
               "EField(obj=EVar(name='o'), fieldname='f')"),
    "ENew": (lambda pos: ENew(("f", "g"), pos), "fields", "ENew(fields=('f', 'g'))"),
    "ECall": (lambda pos: ECall("p", EVar("a", pos), pos), "arg",
              "ECall(proc='p', arg=EVar(name='a'))"),
    "SSkip": (lambda pos: SSkip(pos), "pos", "SSkip()"),
    "SDecl": (lambda pos: SDecl("x", pos), "name", "SDecl(name='x')"),
    "SAssign": (lambda pos: SAssign("x", ENull(pos), pos), "expr", "SAssign(target='x', expr=ENull())"),
    "SFieldAssign": (lambda pos: SFieldAssign("o", "f", "x", pos), "source",
                     "SFieldAssign(obj='o', fieldname='f', source='x')"),
    "SIf": (lambda pos: SIf("==", EVar("x", pos), (SSkip(pos),), (), pos), "els",
            "SIf(op='==', cond=EVar(name='x'), then=(SSkip(),), els=())"),
    "SWhile": (lambda pos: SWhile("!=", EVar("x", pos), (SDecl("y", pos),), pos), "body",
               "SWhile(op='!=', cond=EVar(name='x'), body=(SDecl(name='y'),))"),
    "SReturn": (lambda pos: SReturn("x", pos), "name", "SReturn(name='x')"),
    "ProcDecl": (lambda pos: ProcDecl("p", NN, "a", UNK, (SReturn("a", pos),), pos), "ret_ann",
                 "ProcDecl(name='p', ret_ann=NonNull, param='a', param_ann=?, body=(SReturn(name='a'),))"),
    "FieldDecl": (lambda pos: FieldDecl("f", pos), "name", "FieldDecl(name='f')"),
    "Program": (lambda pos: Program((FieldDecl("f", pos),), (), (SSkip(pos),), pos), "main",
                "Program(fields=(FieldDecl(name='f'),), procs=(), main=(SSkip(),))"),
    "ICopy": (lambda pos: ICopy("x", "y"), "source", "ICopy(target='x', source='y')"),
    "IConstNull": (lambda pos: IConstNull("x"), "target", "IConstNull(target='x')"),
    "ICall": (lambda pos: ICall("x", "p", NN, "a", NL), "arg_ann",
              "ICall(target='x', proc='p', ret_ann=NonNull, arg='a', arg_ann=Nullable)"),
    "INew": (lambda pos: INew("x", ("f",)), "fields", "INew(target='x', fields=('f',))"),
    "IAnd": (lambda pos: IAnd("x", "a", "b"), "left", "IAnd(target='x', left='a', right='b')"),
    "IOr": (lambda pos: IOr("x", "a", "b"), "right", "IOr(target='x', left='a', right='b')"),
    "IFieldRead": (lambda pos: IFieldRead("x", "o", "f"), "obj", "IFieldRead(target='x', obj='o', fieldname='f')"),
    "IFieldWrite": (lambda pos: IFieldWrite("o", "f", "x"), "source",
                    "IFieldWrite(obj='o', fieldname='f', source='x')"),
    "IBranch": (lambda pos: IBranch("x"), "var", "IBranch(var='x')"),
    "IIf": (lambda pos: IIf("x"), "var", "IIf(var='x')"),
    "IElse": (lambda pos: IElse("x"), "var", "IElse(var='x')"),
    "IReturn": (lambda pos: IReturn("x", NL), "ann", "IReturn(var='x', ann=Nullable)"),
    "IMain": (lambda pos: IMain(), "var", "IMain()"),
    "IProc": (lambda pos: IProc("p", NN, "a", UNK), "param",
              "IProc(name='p', ret_ann=NonNull, param='a', param_ann=?)"),
    "Vertex": (lambda pos: Vertex(IIf("x"), "main", pos), "instr", "Vertex(instr=IIf(var='x'), proc='main')"),
    "ProgramCfg": (_graph, None,
                   "ProgramCfg(instr=[IMain(), IFieldRead(target='y', obj='x', fieldname='f')], "
                   "proc=['main', 'main'], succ=[(1,), ()], entry=0, proc_entry={}, "
                   "universe={'main': frozenset({'x'})})"),
    "AnalysisResult": (lambda pos: AnalysisResult(_graph(pos), "gradual", [b"\0", b"\0"], {"main": {"x": 0}}),
                       None, None),  # repr: its graph's, see test_analysis_result_repr_leaves_out_numbering
    "Finding": (lambda pos: Finding("GRADUAL_CHECK", "main", 1, 2, 3, "x", "NonNull", "?"), "found",
                "Finding(category='GRADUAL_CHECK', proc='main', vertex=1, line=2, col=3, variable='x', "
                "required='NonNull', found='?')"),
    "MachineState": (_state, None, "MachineState(frames=[({'x': 1}, 0)], heap={1: {'f': 0}}, next_loc=2)"),
    "Stepped": (lambda pos: Stepped(_state()), "state",
                "Stepped(state=MachineState(frames=[({'x': 1}, 0)], heap={1: {'f': 0}}, next_loc=2))"),
    "Final": (lambda pos: Final(_state()), "state",
              "Final(state=MachineState(frames=[({'x': 1}, 0)], heap={1: {'f': 0}}, next_loc=2))"),
    "Stuck": (lambda pos: Stuck(_state(), 1, "no field"), "reason",
              "Stuck(state=MachineState(frames=[({'x': 1}, 0)], heap={1: {'f': 0}}, next_loc=2), "
              "vertex=1, reason='no field')"),
    "Errored": (lambda pos: Errored(_state(), 1, "x", Abst.NONNULL, 0), "value",
                "Errored(state=MachineState(frames=[({'x': 1}, 0)], heap={1: {'f': 0}}, next_loc=2), "
                "vertex=1, variable='x', required=NonNull, value=0)"),
    "RunResult": (lambda pos: RunResult("final", _state(), 4, ["0: main/v0: main"], final_var="x"), None,
                  "RunResult(outcome='final', state=MachineState(frames=[({'x': 1}, 0)], heap={1: {'f': 0}}, "
                  "next_loc=2), steps=4, trace=['0: main/v0: main'], stuck_reason=None, error=None, "
                  "final_var='x')"),
}


# Frozen, but unhashable: each holds a MachineState, which is not frozen.
HOLDS_STATE = {"Stepped", "Final", "Stuck", "Errored"}


def _record_types():
    """Every class that defines its own __init__, __eq__ and __repr__ in the four modules."""
    return {
        name
        for module in (syntax, cfg, analysis, runtime)
        for name, obj in vars(module).items()
        if isinstance(obj, type)
        and obj.__module__ == module.__name__
        and {"__init__", "__eq__", "__repr__"} <= set(vars(obj))
    }


def test_every_record_type_is_pinned():
    assert _record_types() == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_is_pinned_and_leaves_out_positions(name):
    make, _, text = RECORDS[name]
    if text is not None:
        assert repr(make((0, 0))) == text
        assert repr(make((7, 9))) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_and_hash_ignore_positions(name):
    make, frozen_field, _ = RECORDS[name]
    a, b = make((0, 0)), make((7, 9))
    assert a == b and not (a != b)
    assert a != object() and a != None  # noqa: E711
    if frozen_field is None or name in HOLDS_STATE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(name for name, entry in RECORDS.items() if entry[1] is not None))
def test_frozen_fields_reject_assignment_and_deletion(name):
    make, frozen_field, _ = RECORDS[name]
    instance = make((0, 0))
    with pytest.raises(AttributeError):
        setattr(instance, frozen_field, None)
    with pytest.raises(AttributeError):
        delattr(instance, frozen_field)
    assert instance == make((0, 0))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_slotted_over_their_declared_fields(name):
    # Frozen or not, a record stores its fields in slots and has no __dict__.
    instance = RECORDS[name][0]((0, 0))
    assert not hasattr(instance, "__dict__")
    assert type(instance).__slots__ == tuple(type(instance).__annotations__)


def _positions(obj):
    """The position of every record in obj, depth first."""
    if isinstance(obj, (tuple, list)):
        return [pos for item in obj for pos in _positions(item)]
    out = []
    for name in getattr(type(obj), "_init_fields", ()):
        value = getattr(obj, name)
        out += [value] if name.endswith("pos") else _positions(value)
    return out


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_round_trip_through_copy_and_pickle(name, how):
    original = RECORDS[name][0]((7, 9))
    twin = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    }[how](original)
    assert twin is not original and type(twin) is type(original)
    assert twin == original and repr(twin) == repr(original)
    assert _positions(twin) == _positions(original)


def test_types_with_equal_fields_compare_unequal():
    same = [
        (IIf("x"), IElse("x"), IBranch("x")),
        (IAnd("x", "a", "b"), IOr("x", "a", "b")),
        (EAnd(ENull(), ENull()), EOr(ENull(), ENull())),
        (EVar("x"), SDecl("x"), SReturn("x"), FieldDecl("x")),
        (ENull(), SSkip()),
        (Stepped(_state()), Final(_state())),
    ]
    for group in same:
        for a in group:
            for b in group:
                assert (a == b) == (a is b), (a, b)


def test_constructor_order_and_defaults():
    assert EVar("x").pos == (0, 0) and Vertex(IMain(), "main").pos == (0, 0)
    assert Program((), (), ()).main_pos == (0, 0)
    assert EVar(pos=(2, 5), name="x").pos == (2, 5)
    assert RunResult("fuel", _state(), 0, []).error is None
    with pytest.raises(TypeError):
        EVar()
    with pytest.raises(TypeError):
        ProgramCfg([], [], [], [], 0, {}, {}, None)  # the decoded sites are not a constructor argument


def test_replace_changes_every_field_even_one_named_obj():
    # The record parameter is positional-only: a field named obj, as
    # IFieldRead's and IFieldWrite's, once bound to it and raised TypeError.
    assert replace(IFieldRead("x", "o", "f"), obj="p") == IFieldRead("x", "p", "f")
    assert replace(IFieldWrite("o", "f", "x"), obj="p", source="y") == IFieldWrite("p", "f", "y")
    assert replace(EVar("x", (2, 5)), name="y").pos == (2, 5)


def test_program_cfg_decoded_sites_are_not_part_of_its_value():
    g = _graph()
    assert g._run_sites is None
    g._run_sites = [None, None]
    assert g == _graph() and "_run_sites" not in repr(g)


def test_machine_state_next_loc_is_computed_when_built():
    assert MachineState([({}, 0)], {}).next_loc == 1
    assert MachineState([({}, 0)], {4: {}, 2: {}}).next_loc == 5
    state = _state()
    state.next_loc = 9  # the interpreter updates states in place
    assert state.next_loc == 9
    assert not hasattr(state, "__dict__")


def test_analysis_result_repr_leaves_out_numbering():
    result = RECORDS["AnalysisResult"][0]((0, 0))
    assert repr(result) == f"AnalysisResult(cfg={result.cfg!r}, mode='gradual', states=[b'\\x00', b'\\x00'])"
    assert result.grad_pi is result.grad_pi  # a cached_property, decoded once
    assert result.grad_pi == [{}, {}] and result.fact(1, "x") is None  # bottom: x is undefined


def test_to_json_key_order():
    finding = RECORDS["Finding"][0]((0, 0))
    assert list(finding.to_json()) == ["category", "proc", "vertex", "line", "col", "variable", "required", "found"]
    errored = RECORDS["Errored"][0]((0, 0))
    report = errored.to_json(_graph((5, 6)))
    assert list(report) == ["category", "proc", "vertex", "line", "col", "variable", "required", "found", "value"]
    assert (report["line"], report["col"]) == (5, 6)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(SRC)!r}]\n"
        "import graduator.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def _stdlib_imports() -> list[str]:
    """Every standard-library module that a package file imports, at any depth."""
    names = set()
    for path in (SRC / "graduator").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if type(node) is ast.Import:
                names.update(alias.name for alias in node.names)
            elif type(node) is ast.ImportFrom and node.level == 0:
                names.add(node.module)
    return sorted(n for n in names if n.split(".")[0] in sys.stdlib_module_names)


def test_import_leaves_no_cyclic_garbage():
    # Each record class is created once: a class made and then discarded
    # would linger as cyclic garbage until the first collector pass.  The
    # standard library's own imports leave some on some versions (none on
    # 3.11, over a hundred objects on 3.10, 3.12 and 3.13), so the child
    # imports those modules and collects before it imports the package.
    stdlib = _stdlib_imports()
    assert {"argparse", "enum", "typing"} <= set(stdlib), stdlib  # the scan sees the imports
    code = (
        "import gc, importlib, sys\n"
        "gc.disable()\n"
        f"for name in {stdlib!r}:\n"
        "    importlib.import_module(name)\n"
        "gc.collect()\n"
        f"sys.path[:0] = [{str(SRC)!r}]\n"
        "import graduator.cli, graduator.testkit\n"
        "print(gc.collect())\n"
    )
    out = subprocess.run([sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, check=True).stdout
    assert out == "0\n"


def test_no_isinstance_against_a_record_class():
    # isinstance with a record class takes the metaclass's slow path (see the
    # record docstring), so the package compares type(x) with `is` instead.
    uses = []
    for path in sorted((SRC / "graduator").glob("*.py")):
        module = vars(importlib.import_module("graduator" if path.stem == "__init__" else f"graduator.{path.stem}"))
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if type(node) is ast.Call and type(node.func) is ast.Name and node.func.id == "isinstance":
                classes = eval(compile(ast.Expression(node.args[1]), str(path), "eval"), module)
                for cls in classes if type(classes) is tuple else (classes,):
                    uses.append((path.name, cls.__name__))
                    assert not issubclass(cls, Record), f"{path.name}:{node.lineno}: isinstance against {cls.__name__}"
    assert ("record.py", "_Field") in uses, uses  # the scan sees the calls
