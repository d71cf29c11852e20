"""Abstract value domains for nullness.

Two domains live here.  The base domain ``Abst`` classifies run-time values
(naturals, with 0 playing the role of null) into Null / NonNull / Nullable
and forms a join semilattice whose top is Nullable.  The gradual domain
``GradAbst`` extends it with partially-unknown elements: the fully unknown
``?`` and the one-sided ``?Null`` / ``?NonNull``.  A gradual element denotes
a *set* of base elements via ``gamma``; ``alpha`` maps a set of base elements
back to the most precise gradual element whose denotation covers it.

``?Nullable`` would denote exactly {Nullable}, which ``Nullable`` already
denotes, so it is identified with ``Nullable`` at construction and the
gradual domain has six canonical elements.

``lift`` is the one lifting of a binary base operator, by enumeration
through gamma/alpha: the gradual join is *defined* as the lifting of the base
join rather than by a case table, and the analysis lifts its boolean rules
the same way.  The closed-form join table is kept in the test suite as an
independent oracle.  The same goes for alpha itself.  A four-element lifting
that drops ?Null/?NonNull loses associativity of the join; the regression
for that lives in the testkit.

Both domains share one base, so a fact prints as its value and hashes by
identity: a lookup keyed by a fact makes no Python-level call.  The hash
differs from run to run, as the string hash it replaces already did, so no
output may depend on it: where a set of facts is iterated, as in ``ceil``,
``alpha`` and ``lift``, the result is a join or a subset test, which
ignores the order.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable


class _Fact(enum.Enum):
    """A fact prints as its value and hashes by identity, as its members are singletons."""

    def __str__(self) -> str:
        return self.value

    __repr__ = __str__
    __hash__ = object.__hash__


class Abst(_Fact):
    """Base nullness facts, ordered by set inclusion of their denotations."""

    NULL = "Null"
    NONNULL = "NonNull"
    NULLABLE = "Nullable"


ALL_ABST: tuple[Abst, ...] = (Abst.NULL, Abst.NONNULL, Abst.NULLABLE)


def conc_contains(a: Abst, value: int) -> bool:
    """Membership in the concretization: 0 is null, everything else is not."""
    if a is Abst.NULL:
        return value == 0
    if a is Abst.NONNULL:
        return value != 0
    return True


def base_leq(a: Abst, b: Abst) -> bool:
    """a is at most b iff every value described by a is described by b."""
    return a is b or b is Abst.NULLABLE


def base_join(a: Abst, b: Abst) -> Abst:
    if a is b:
        return a
    return Abst.NULLABLE


# Longest strictly ascending chain, counted in edges (Null < Nullable).
BASE_HEIGHT = 1


class GradAbst(_Fact):
    """Gradual nullness facts: base elements plus partially-unknown ones."""

    NULL = "Null"
    NONNULL = "NonNull"
    NULLABLE = "Nullable"
    UNKNOWN = "?"
    UNKNOWN_NULL = "?Null"
    UNKNOWN_NONNULL = "?NonNull"


ALL_GRAD: tuple[GradAbst, ...] = (
    GradAbst.NULL,
    GradAbst.NONNULL,
    GradAbst.NULLABLE,
    GradAbst.UNKNOWN,
    GradAbst.UNKNOWN_NULL,
    GradAbst.UNKNOWN_NONNULL,
)

_EXACT = {
    Abst.NULL: GradAbst.NULL,
    Abst.NONNULL: GradAbst.NONNULL,
    Abst.NULLABLE: GradAbst.NULLABLE,
}

_EXACT_BACK = {g: a for a, g in _EXACT.items()}


def exact(a: Abst) -> GradAbst:
    """Embed a base element as the gradual element denoting exactly it."""
    return _EXACT[a]


def as_exact(g: GradAbst) -> Abst | None:
    """The base element g denotes exactly, or None if g is partially unknown."""
    return _EXACT_BACK.get(g)


def at_least(a: Abst) -> GradAbst:
    """?a: unknown, but at least a.  ?Nullable collapses to Nullable."""
    if a is Abst.NULL:
        return GradAbst.UNKNOWN_NULL
    if a is Abst.NONNULL:
        return GradAbst.UNKNOWN_NONNULL
    return GradAbst.NULLABLE


_GAMMA: dict[GradAbst, frozenset[Abst]] = {
    GradAbst.NULL: frozenset({Abst.NULL}),
    GradAbst.NONNULL: frozenset({Abst.NONNULL}),
    GradAbst.NULLABLE: frozenset({Abst.NULLABLE}),
    GradAbst.UNKNOWN: frozenset(ALL_ABST),
    GradAbst.UNKNOWN_NULL: frozenset({Abst.NULL, Abst.NULLABLE}),
    GradAbst.UNKNOWN_NONNULL: frozenset({Abst.NONNULL, Abst.NULLABLE}),
}


def gamma(g: GradAbst) -> frozenset[Abst]:
    """Denotation of a gradual element as a set of base elements."""
    return _GAMMA[g]


def alpha(baseset: Iterable[Abst]) -> GradAbst:
    """Most precise gradual element whose denotation covers the given set.

    Defined by enumeration: intersect the denotations of every covering
    element, then invert gamma.  Total on nonempty subsets of Abst; the
    intersection always lands back in gamma's image for this domain.
    """
    need = frozenset(baseset)
    if not need:
        raise ValueError("alpha of the empty set is undefined")
    meet: frozenset[Abst] = frozenset(ALL_ABST)
    for g in ALL_GRAD:
        if need <= _GAMMA[g]:
            meet &= _GAMMA[g]
    for g in ALL_GRAD:
        if _GAMMA[g] == meet:
            return g
    raise AssertionError(f"alpha({set(need)}) fell outside gamma's image")


def lift(rule: Callable[[Abst, Abst], Abst], g1: GradAbst, g2: GradAbst) -> GradAbst:
    """The gradual lifting of a binary base operator: alpha of rule over every denoted pair."""
    return alpha(rule(a, b) for a in _GAMMA[g1] for b in _GAMMA[g2])


_JOIN_TABLE: dict[tuple[GradAbst, GradAbst], GradAbst] = {
    (g1, g2): lift(base_join, g1, g2) for g1 in ALL_GRAD for g2 in ALL_GRAD
}


def lifted_join(g1: GradAbst, g2: GradAbst) -> GradAbst:
    """Gradual join: alpha of the pointwise base joins of the denotations."""
    return _JOIN_TABLE[(g1, g2)]


def lifted_leq(g1: GradAbst, g2: GradAbst) -> bool:
    """Consistent (plausible) order: some denoted pair is base-ordered.

    Not a partial order; it is the optimistic question "could g1 flow where
    g2 is required".  On exact elements it coincides with the base order.
    """
    return any(
        base_leq(a, b) for a in _GAMMA[g1] for b in _GAMMA[g2]
    )


def precision_leq(g1: GradAbst, g2: GradAbst) -> bool:
    """g1 is at least as precise as g2: its denotation is smaller."""
    return _GAMMA[g1] <= _GAMMA[g2]


def ceil(g: GradAbst) -> Abst:
    """Base join over the denotation: the pessimistic reading of g."""
    out = None
    for a in _GAMMA[g]:
        out = a if out is None else base_join(out, a)
    assert out is not None
    return out


def grad_conc_contains(g: GradAbst, value: int) -> bool:
    """Optimistic membership: some denoted base element admits the value."""
    return any(conc_contains(a, value) for a in _GAMMA[g])
