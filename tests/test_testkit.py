"""Generator contracts and the built-in oracles, including mutation checks.

The oracles are only trustworthy if they can fail, so a few tests corrupt
an ingredient (the join, a transfer rule, the site list) and demand a FAIL.
"""

import typing

import pytest
from conftest import LOOP_SRC, scenario_src

from graduator import testkit
from graduator.analysis import analyze, static_warnings, kildall
from graduator.cfg import IIf, Instr, annotation_sites, is_fully_annotated, lower, validate
from graduator.lattice import GradAbst
from graduator.runtime import run
from graduator.syntax import check_surface, parse, render_program
from graduator.testkit import (
    GenConfig,
    check_conservative_extension,
    check_erasure_guarantees,
    check_progress_and_sites,
    corpus_dir,
    corpus_paths,
    gen_program,
    gen_programs,
    gen_valid_programs,
    lockstep_modes,
    naive_alpha,
    naive_lifted_join,
    oracle_lattice,
    oracle_local_soundness,
    oracle_propositions,
)


def test_generation_is_deterministic():
    for seed in (0, 7, 123):
        a = gen_program(GenConfig(seed=seed))
        b = gen_program(GenConfig(seed=seed))
        assert a == b
        assert render_program(a) == render_program(b)
    assert gen_program(GenConfig(seed=1)) != gen_program(GenConfig(seed=2))


def test_generated_programs_are_well_formed():
    for p in gen_programs(GenConfig(seed=5, annotation_density=0.4), 40):
        assert [d for d in check_surface(p) if d.severity == "error"] == []
        assert validate(lower(p)) == []


def test_density_one_annotates_everything():
    for p in gen_programs(GenConfig(seed=11, annotation_density=1.0), 30):
        assert is_fully_annotated(lower(p))


def test_density_zero_annotates_nothing():
    for p in gen_programs(GenConfig(seed=11, annotation_density=0.0), 30):
        assert all(v is GradAbst.UNKNOWN for _, v in annotation_sites(lower(p)))


def test_valid_generator_filters_out_warnings():
    programs = gen_valid_programs(GenConfig(seed=3, annotation_density=0.5), 15)
    assert len(programs) == 15
    for p in programs:
        assert static_warnings(kildall(lower(p))) == []


def test_valid_generator_can_demand_full_annotations():
    for p in gen_valid_programs(GenConfig(seed=3, annotation_density=1.0), 8):
        assert is_fully_annotated(lower(p))
        assert static_warnings(kildall(lower(p))) == []


def test_every_instruction_kind_appears_quickly():
    every_kind = set(typing.get_args(Instr))
    seen = set()
    for p in gen_programs(GenConfig(seed=0), 200):
        seen |= set(map(type, lower(p).instr))
        if seen == every_kind:
            break
    assert seen == every_kind


def test_corpus_is_valid_and_terminates():
    paths = corpus_paths()
    assert len(paths) == 20
    assert paths == sorted(paths)
    assert all(p.parent == corpus_dir() for p in paths)
    for path in paths:
        prog = parse(path.read_text())
        assert [d for d in check_surface(prog) if d.severity == "error"] == [], path.name
        cfg = lower(prog)
        assert validate(cfg) == [], path.name
        _, warnings, _ = analyze(cfg)
        assert warnings == [], path.name
        assert run(cfg, max_steps=20_000).outcome == "final", path.name


def test_oracle_lattice_passes():
    report = oracle_lattice()
    assert report.passed and report.failures == []
    assert report.checks > 300


def test_oracle_lattice_catches_a_corrupted_join():
    def bad_join(g1, g2):
        if {g1, g2} == {GradAbst.NULL, GradAbst.UNKNOWN_NONNULL}:
            return GradAbst.UNKNOWN  # should be Nullable
        from graduator.lattice import lifted_join

        return lifted_join(g1, g2)

    report = oracle_lattice(join_fn=bad_join)
    assert not report.passed
    assert any("Null" in f and "?NonNull" in f for f in report.failures)


def test_oracle_lattice_catches_a_corrupted_order():
    def bad_leq(g1, g2):
        from graduator.lattice import lifted_leq

        if g1 is GradAbst.UNKNOWN and g2 is GradAbst.NULL:
            return False  # consistency is symmetric-ish here; this breaks it
        return lifted_leq(g1, g2)

    assert not oracle_lattice(leq_fn=bad_leq).passed


def test_oracle_local_soundness_passes():
    report = oracle_local_soundness(trials=2500, seed=0)
    assert report.passed, report.failures
    assert report.checks > 1000


def test_oracle_local_soundness_catches_a_broken_transfer(monkeypatch):
    from graduator.analysis import lifted_flow as real

    def broken(ins, sigma, universe):
        out = real(ins, sigma, universe)
        if isinstance(ins, IIf):
            out[ins.var] = GradAbst.NULL  # exactly backwards
        return out

    monkeypatch.setattr(testkit, "lifted_flow", broken)
    report = oracle_local_soundness(trials=1500, seed=0)
    assert not report.passed
    assert any("local soundness fails" in f for f in report.failures)


def test_conservative_extension_on_fixtures():
    assert check_conservative_extension(parse(LOOP_SRC)) == []
    # the checker compares against the static analysis, so it needs every
    # annotation present; close the scenario's open parameter
    full = scenario_src(ret_ann="NonNull").replace("(str)", "(str @Nullable)")
    assert check_conservative_extension(parse(full)) == []


def test_erasure_guarantees_on_fixtures():
    p = parse(LOOP_SRC)
    sites = [k for k, _ in annotation_sites(lower(p))]
    assert check_erasure_guarantees(p, [set(), {sites[0]}, set(sites)]) == []


def test_progress_allows_errors_only_at_sites():
    assert check_progress_and_sites(parse(scenario_src(null_body=True)), check_described=True) == []
    invalid = parse(scenario_src(ret_ann="Nullable"))
    assert check_progress_and_sites(invalid) == [
        "precondition violated: program is not statically valid"
    ]


def test_progress_check_catches_undeclared_sites(monkeypatch):
    monkeypatch.setattr(testkit, "check_sites", lambda result: [])
    failures = check_progress_and_sites(parse(scenario_src(null_body=True)))
    assert len(failures) == 1
    assert "not a declared check site" in failures[0]


def test_lockstep_modes_on_a_clean_program():
    assert lockstep_modes(lower(parse(LOOP_SRC)), fuel=500) is None


def test_oracle_propositions_passes_small():
    report = oracle_propositions(programs=6, seed=0, fuel=1200)
    assert report.passed, report.failures


def test_naive_lifting_is_not_associative():
    # the 4-element shortcut (one bare '?') loses associativity; keeping
    # this broken version around documents why the 6-element domain exists
    left = naive_lifted_join(GradAbst.NULL, naive_lifted_join(GradAbst.NONNULL, GradAbst.UNKNOWN))
    right = naive_lifted_join(naive_lifted_join(GradAbst.NULL, GradAbst.NONNULL), GradAbst.UNKNOWN)
    assert left is GradAbst.UNKNOWN
    assert right is GradAbst.NULLABLE
    assert left is not right


def test_naive_alpha_is_total_on_the_four_point_image():
    from graduator.lattice import Abst

    assert naive_alpha({Abst.NULL}) is GradAbst.NULL
    assert naive_alpha({Abst.NULL, Abst.NONNULL}) is GradAbst.UNKNOWN
    assert naive_alpha({Abst.NULL, Abst.NULLABLE}) is GradAbst.UNKNOWN
    assert naive_alpha({Abst.NULLABLE}) is GradAbst.NULLABLE
    with pytest.raises(ValueError):
        naive_alpha(set())


def test_oracle_reports_carry_counts():
    report = oracle_lattice()
    assert report.name == "lattice"
    assert report.checks >= len(report.failures)
