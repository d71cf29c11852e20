"""Base and lifted lattice: frozen tables plus the exhaustive oracle."""

import itertools

import pytest

from graduator import testkit
from graduator.analysis import _and_case, _or_case
from graduator.lattice import (
    ALL_ABST,
    ALL_GRAD,
    Abst,
    GradAbst,
    alpha,
    as_exact,
    at_least,
    base_join,
    base_leq,
    ceil,
    conc_contains,
    exact,
    gamma,
    grad_conc_contains,
    lift,
    lifted_join,
    lifted_leq,
    precision_leq,
)
from graduator.testkit import closed_form_join, naive_lifted_join, oracle_lattice

N, NN, NB = Abst.NULL, Abst.NONNULL, Abst.NULLABLE
Q = GradAbst.UNKNOWN
QN, QNN = GradAbst.UNKNOWN_NULL, GradAbst.UNKNOWN_NONNULL


def test_base_join_table():
    assert base_join(N, N) is N
    assert base_join(NN, NN) is NN
    assert base_join(N, NN) is NB
    assert base_join(NN, N) is NB
    assert base_join(N, NB) is NB
    assert base_join(NN, NB) is NB
    assert base_join(NB, NB) is NB


def test_base_order_matches_concretization():
    # a below b exactly when every value of a is a value of b
    for a in ALL_ABST:
        for b in ALL_ABST:
            subset = all(conc_contains(b, v) for v in (0, 1, 7) if conc_contains(a, v))
            assert base_leq(a, b) == subset


def test_conc_membership():
    assert conc_contains(N, 0) and not conc_contains(N, 3)
    assert conc_contains(NN, 3) and not conc_contains(NN, 0)
    assert conc_contains(NB, 0) and conc_contains(NB, 3)


def test_gamma_table():
    assert gamma(exact(N)) == frozenset({N})
    assert gamma(exact(NN)) == frozenset({NN})
    assert gamma(exact(NB)) == frozenset({NB})
    assert gamma(Q) == frozenset(ALL_ABST)
    assert gamma(QN) == frozenset({N, NB})
    assert gamma(QNN) == frozenset({NN, NB})


def test_alpha_on_all_nonempty_subsets():
    assert alpha(frozenset({N})) is exact(N)
    assert alpha(frozenset({NN})) is exact(NN)
    assert alpha(frozenset({NB})) is exact(NB)
    assert alpha(frozenset({N, NB})) is QN
    assert alpha(frozenset({NN, NB})) is QNN
    # no element denotes {Null, NonNull}; the closest cover is everything
    assert alpha(frozenset({N, NN})) is Q
    assert alpha(frozenset(ALL_ABST)) is Q


def test_alpha_rejects_empty_set():
    with pytest.raises(ValueError):
        alpha(frozenset())


def test_at_least_canonicalizes_nullable():
    assert at_least(N) is QN
    assert at_least(NN) is QNN
    assert at_least(NB) is exact(NB)
    assert as_exact(QN) is None
    assert as_exact(exact(N)) is N


def test_lifted_join_spot_values():
    assert lifted_join(exact(N), exact(NN)) is exact(NB)
    assert lifted_join(exact(N), Q) is QN
    assert lifted_join(exact(NN), Q) is QNN
    assert lifted_join(exact(NB), Q) is exact(NB)
    assert lifted_join(Q, Q) is Q
    assert lifted_join(Q, QN) is QN
    assert lifted_join(QN, QNN) is exact(NB)
    assert lifted_join(exact(N), QNN) is exact(NB)


def test_lifted_join_equals_closed_form_everywhere():
    for a in ALL_GRAD:
        for b in ALL_GRAD:
            assert lifted_join(a, b) is closed_form_join(a, b), (a, b)


@pytest.mark.parametrize("rule", [base_join, _and_case, _or_case])
def test_lift_covers_the_base_rule_and_is_monotone_in_precision(rule):
    for g1, g2 in itertools.product(ALL_GRAD, repeat=2):
        results = {rule(a, b) for a in gamma(g1) for b in gamma(g2)}
        assert results <= gamma(lift(rule, g1, g2))
        if len(gamma(g1)) == len(gamma(g2)) == 1:
            assert lift(rule, g1, g2) is exact(*results)
    for g1, h1, g2, h2 in itertools.product(ALL_GRAD, repeat=4):
        if precision_leq(g1, h1) and precision_leq(g2, h2):
            assert precision_leq(lift(rule, g1, g2), lift(rule, h1, h2))


def test_consistent_order_is_not_antisymmetric():
    # ? relates to Null in both directions without being equal
    assert lifted_leq(Q, exact(N))
    assert lifted_leq(exact(N), Q)
    assert Q is not exact(N)


def test_consistent_order_spot_values():
    assert lifted_leq(exact(N), exact(NB))
    assert not lifted_leq(exact(NB), exact(N))
    assert not lifted_leq(exact(NN), exact(N))
    assert lifted_leq(QNN, exact(NN))
    assert lifted_leq(exact(NB), QN)  # Nullable vs some b above Null


def test_precision_order():
    for a in ALL_ABST:
        assert precision_leq(exact(a), Q)
    assert precision_leq(exact(N), QN)
    assert precision_leq(exact(NB), QN)
    assert not precision_leq(QN, exact(N))
    assert not precision_leq(QN, QNN)
    assert precision_leq(QN, Q)


def test_ceil_table():
    assert ceil(exact(N)) is N
    assert ceil(exact(NN)) is NN
    assert ceil(exact(NB)) is NB
    assert ceil(Q) is NB
    assert ceil(QN) is NB
    assert ceil(QNN) is NB


def test_grad_conc_contains():
    assert grad_conc_contains(exact(N), 0) and not grad_conc_contains(exact(N), 2)
    assert grad_conc_contains(Q, 0) and grad_conc_contains(Q, 2)
    assert grad_conc_contains(QN, 0) and grad_conc_contains(QN, 2)
    assert grad_conc_contains(QNN, 0) is True  # Nullable is in its denotation
    assert not grad_conc_contains(exact(NN), 0)


def test_renderings():
    assert [str(g) for g in ALL_GRAD] == ["Null", "NonNull", "Nullable", "?", "?Null", "?NonNull"]
    assert [str(a) for a in ALL_ABST] == ["Null", "NonNull", "Nullable"]


def test_lattice_oracle_passes():
    report = oracle_lattice()
    assert report.passed, report.failures[:5]
    assert report.checks > 300


def test_lattice_oracle_catches_a_corrupted_join(monkeypatch):
    def bad_join(a, b):
        if {a, b} == {exact(N), Q}:
            return exact(NB)  # should be ?Null
        return lifted_join(a, b)

    monkeypatch.setattr(testkit, "lifted_join", bad_join)
    report = oracle_lattice()
    assert not report.passed
    assert any("Null" in f and "?" in f for f in report.failures)


def test_four_element_lifting_is_not_associative():
    left = naive_lifted_join(exact(N), naive_lifted_join(exact(NN), Q))
    right = naive_lifted_join(naive_lifted_join(exact(N), exact(NN)), Q)
    assert left is Q
    assert right is exact(NB)
    assert left is not right
