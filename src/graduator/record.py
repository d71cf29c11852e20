"""Record classes: the part of `dataclasses` that graduator uses, at a fraction of its launch cost.

A class that derives from `Record` is a record: it keeps its annotated
fields in slots, with no `__dict__`, and has an `__init__` (the fields in
declaration order, with their defaults), a `__repr__` (`EVar(name='x')`),
an `__eq__` (only between instances of the same class, over the compared
fields) and a `__hash__`, as `dataclass` with the same options and
`slots=True` would.  `class EVar(Record, frozen=True):` makes assigning to
or deleting an attribute raise `AttributeError` and hashes the compared
fields; a record that is not frozen is unhashable.  `copy`, `deepcopy` and
`pickle` make their copy of a frozen record through its constructor.
`field(default=..., init=..., compare=..., repr=...)` declares a field that
is left out of the constructor, the comparison or the repr.  A field with
`init=False` and no default is set by the class's `__post_init__`, which
`__init__` calls last.  `replace(obj, /, **changes)` copies a record through
its constructor, whatever its fields are called.

Why a metaclass: a class's slots are fixed by the `__slots__` of the
namespace it is created from, so a class decorator, which sees the class
only once it exists, would have to create a second class with slots and
discard the first, which then lingers as cyclic garbage until a collector
pass.  `_RecordType` reads the annotations and puts `__slots__` into the
namespace before `type.__new__`, so each record class is created once.  The
price is that `isinstance(x, C)` with a record class C takes the slow path
whenever x is not exactly a C: the metaclass's `__instancecheck__` is looked
up and called: on the host named below, about 110 ns against 45 ns for a
plain class (timeit, best of five).  Code that tests every vertex or node therefore compares `type(x)`
with `is`, as the front end, the renderer, the analysis, the interpreter and
the oracles do.

Why not `dataclasses`: a launch of the `graduator` command is mostly
imports, and the records were the largest share of them.  On Python 3.11
`dataclass` compiles about six functions per frozen class, each in its own
`exec`, and calls `inspect.signature` to write a docstring; importing it
also pulls in `inspect`, `ast`, `dis` and `tokenize`.  Here only `__init__`
is compiled, one `exec` per class, since it is the one method on a hot path;
the other three are shared functions that read the class's field names.
Measured on a 2-vCPU Xeon host with `PYTHONDONTWRITEBYTECODE=1`: a frozen
class of four fields takes about 0.15 ms to build against 1.1 ms with
`dataclass`, and `import graduator.cli` with its 42 record classes takes
about 70 ms of CPU against about 125 ms (medians of 20 fresh interpreters).

Why slots: a `check` builds a record for every AST node, instruction and
vertex (2,365 for the benchmark's `chain` program at its smallest size) and
compares or hashes none of them, so building one is the cost that counts.
A frozen record's `__init__` stores each field through its slot's
descriptor, bound once per class, which its raising `__setattr__` does not
see.  On the same host a frozen record of three fields, as
`IFieldRead("x", "o", "f")`, takes 600 to 710 ns and 48 bytes to build
against 820 to 1,040 ns and 88 bytes with a `__dict__` filled through
`object.__setattr__` (medians of 40 interleaved rounds in two runs;
bytes from `tracemalloc` over 10,000 records).
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()


class _Field:
    """A field with options; its default, if any, is the field's default."""

    __slots__ = ("default", "init", "compare", "repr")

    def __init__(self, *, default=_MISSING, init=True, compare=True, repr=True):
        self.default, self.init, self.compare, self.repr = default, init, compare, repr


field = _Field


def _no_fields(obj):
    return ()


def _repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
    return f"{self.__class__.__qualname__}({shown})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self._key(self) == self._key(other)
    return NotImplemented


def _hash(self):
    return hash(self._key(self))


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _reduce(self):
    # copy, deepcopy and pickle make a frozen record through its
    # constructor, since their default, setattr on each slot, raises.
    return self.__class__, tuple(map(self.__getattribute__, self._init_fields))


class _RecordType(type):
    """The metaclass of Record: makes each record class, with its slots, in one `type.__new__`."""

    def __new__(mcls, name, bases, ns, frozen=False):
        fields = {}  # name -> _Field, in declaration order
        for fname in ns.get("__annotations__", {}):
            # A default left as a class attribute would clash with the slot.
            spec = ns.pop(fname, _MISSING)
            fields[fname] = spec if isinstance(spec, _Field) else _Field(default=spec)
        compared = [fname for fname, spec in fields.items() if spec.compare]
        ns.update(
            __slots__=tuple(fields),
            __repr__=_repr,
            __eq__=_eq,  # which sets __hash__ to None unless frozen sets it below
            _key=staticmethod(attrgetter(*compared) if compared else _no_fields),
            _shown=tuple(fname for fname, spec in fields.items() if spec.repr),
            _init_fields=tuple(fname for fname, spec in fields.items() if spec.init),
        )
        if frozen:
            ns.update(__hash__=_hash, __setattr__=_frozen_setattr, __delattr__=_frozen_delattr, __reduce__=_reduce)
        cls = super().__new__(mcls, name, bases, ns)

        env = {}
        params, sets = ["self"], []
        for fname, spec in fields.items():
            if spec.default is not _MISSING:
                env[f"_d_{fname}"] = spec.default
            if spec.init:
                params.append(fname if spec.default is _MISSING else f"{fname}=_d_{fname}")
                value = fname
            elif spec.default is not _MISSING:
                value = f"_d_{fname}"
            else:
                continue
            # Store through the slot's own descriptor: a frozen record's
            # __setattr__ raises, and this is the cheapest store that passes it.
            env[f"_s_{fname}"] = cls.__dict__[fname].__set__
            sets.append(f"_s_{fname}(self, {value})")
        if hasattr(cls, "__post_init__"):
            sets.append("self.__post_init__()")
        exec(f"def __init__({', '.join(params)}):\n {'; '.join(sets) or 'pass'}\n", env)
        env["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = env["__init__"]
        return cls


class Record(metaclass=_RecordType):
    """The base of every record class: `class EVar(Record, frozen=True):`."""


def replace(obj, /, **changes):
    """A copy of record obj with the given init fields changed."""
    kwargs = {name: getattr(obj, name) for name in obj._init_fields}
    kwargs.update(changes)
    return obj.__class__(**kwargs)
