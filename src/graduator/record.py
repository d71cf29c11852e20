"""Record classes: the part of `dataclasses` that graduator uses, at a fraction of its launch cost.

`record` turns a class of annotated fields into a record that keeps its
fields in slots, with no `__dict__`, and has an `__init__` (the fields in
declaration order, with their defaults), a `__repr__` (`EVar(name='x')`),
an `__eq__` (only between instances of the same class, over the compared
fields) and a `__hash__`, as `dataclass` with the same options and
`slots=True` would.  `frozen=True` makes assigning to or deleting an
attribute raise `AttributeError` and hashes the compared fields; a record
that is not frozen is unhashable.  `copy`, `deepcopy` and `pickle` rebuild a
frozen record through its constructor.  `field(default=..., init=...,
compare=..., repr=...)` declares a field that is left out of the
constructor, the comparison or the repr.  A field with `init=False` and no
default is set by the class's `__post_init__`, which `__init__` calls last.
`replace(obj, **changes)` copies a record through its constructor.

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
    # copy, deepcopy and pickle rebuild a frozen record through its
    # constructor, since their default, setattr on each slot, raises.
    return self.__class__, tuple(map(self.__getattribute__, self._init_fields))


def record(cls=None, /, *, frozen=False):
    """Class decorator: `@record`, or `@record(frozen=True)`."""
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def _build(cls, frozen):
    fields = {}  # name -> _Field, in declaration order
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, _Field):
            spec = _Field(default=spec)
        fields[name] = spec
    # The same class, rebuilt with a slot per field and without the defaults
    # as class attributes, which would clash with the slots.
    body = {k: v for k, v in cls.__dict__.items() if k not in fields and k not in ("__dict__", "__weakref__")}
    cls = type(cls)(cls.__name__, cls.__bases__, dict(body, __slots__=tuple(fields)))

    env = {}
    params, sets = ["self"], []
    for name, spec in fields.items():
        if spec.default is not _MISSING:
            env[f"_d_{name}"] = spec.default
        if spec.init:
            params.append(name if spec.default is _MISSING else f"{name}=_d_{name}")
            value = name
        elif spec.default is not _MISSING:
            value = f"_d_{name}"
        else:
            continue
        # Store through the slot's own descriptor: a frozen record's
        # __setattr__ raises, and this is the cheapest store that passes it.
        env[f"_s_{name}"] = cls.__dict__[name].__set__
        sets.append(f"_s_{name}(self, {value})")
    if hasattr(cls, "__post_init__"):
        sets.append("self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n {'; '.join(sets) or 'pass'}\n", env)
    env["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__, cls.__repr__, cls.__eq__ = env["__init__"], _repr, _eq
    if frozen:
        cls.__hash__, cls.__setattr__, cls.__delattr__ = _hash, _frozen_setattr, _frozen_delattr
        cls.__reduce__ = _reduce
    else:
        cls.__hash__ = None
    compared = [name for name, spec in fields.items() if spec.compare]
    cls._key = staticmethod(attrgetter(*compared) if compared else _no_fields)
    cls._shown = tuple(name for name, spec in fields.items() if spec.repr)
    cls._init_fields = tuple(name for name, spec in fields.items() if spec.init)
    return cls


def replace(obj, **changes):
    """A copy of record obj with the given init fields changed."""
    kwargs = {name: getattr(obj, name) for name in obj._init_fields}
    kwargs.update(changes)
    return obj.__class__(**kwargs)
