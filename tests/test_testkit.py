"""Generator contracts and the built-in oracles, including mutation checks.

The oracles are only trustworthy if they can fail, so a few tests corrupt
an ingredient (the join, a transfer rule, the site list, a step) and demand a FAIL.
"""

import hashlib
import typing

import pytest
from conftest import LOOP_SRC, scenario_src

from graduator import testkit
from graduator.analysis import analyze
from graduator.cli import main
from graduator.cfg import ICall, IIf, IProc, Instr, annotation_sites, is_fully_annotated, lower, validate
from graduator.lattice import GradAbst
from graduator.runtime import Final, Stuck, grad_step, run, step
from graduator.syntax import check_surface, parse, render_program
from graduator.testkit import (
    GenConfig,
    check_conservative_extension,
    check_erasure_guarantees,
    check_progress_and_sites,
    corpus_dir,
    corpus_paths,
    gen_graphs,
    gen_program,
    gen_valid_graphs,
    lockstep,
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


# SHA-256 of `selftest --seed 3`'s stdout, and of the generator's rendered
# programs for seeds 0-199 at densities 0, 0.5 and 1, computed before the
# refactors they guard.
_SELFTEST_DIGEST = "0ec791c24fb66aac5dc147389f39643d2d0e0bf8404ecf2bfee54f8012b7f270"
_GENERATED_DIGEST = "0557c299a4e29b1f7bd1981969a5bc9a139debc982fe68db44e2886ef44f8b50"


def test_selftest_and_generated_programs_are_pinned(capsys):
    assert main(["selftest", "--seed", "3"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == _SELFTEST_DIGEST
    h = hashlib.sha256()
    for density in (0, 0.5, 1.0):
        for seed in range(200):
            h.update(render_program(gen_program(GenConfig(seed=seed, annotation_density=density))).encode())
    assert h.hexdigest() == _GENERATED_DIGEST


def test_generated_programs_are_well_formed():
    graphs = gen_graphs(GenConfig(seed=5, annotation_density=0.4), 40)
    for seed, cfg in enumerate(graphs, 5):
        p = gen_program(GenConfig(seed=seed, annotation_density=0.4))
        assert [d for d in check_surface(p) if d.severity == "error"] == []
        want = lower(p)
        assert validate(want) == []
        # gen_graphs gives each program's graph, positions included
        assert cfg == want and list(cfg.pos) == list(want.pos)


def test_density_one_annotates_everything():
    for cfg in gen_graphs(GenConfig(seed=11, annotation_density=1.0), 30):
        assert is_fully_annotated(cfg)


def test_density_zero_annotates_nothing():
    for cfg in gen_graphs(GenConfig(seed=11, annotation_density=0.0), 30):
        assert all(v is GradAbst.UNKNOWN for _, v in annotation_sites(cfg))


def test_valid_generator_filters_out_warnings():
    graphs = gen_valid_graphs(GenConfig(seed=3, annotation_density=0.5), 15)
    assert len(graphs) == 15
    for cfg in graphs:
        assert analyze(cfg)[1] == []


def test_valid_generator_can_demand_full_annotations():
    for cfg in gen_valid_graphs(GenConfig(seed=3, annotation_density=1.0), 8):
        assert is_fully_annotated(cfg)
        assert analyze(cfg)[1] == []


def test_every_instruction_kind_appears_quickly():
    every_kind = set(typing.get_args(Instr))
    seen = set()
    for cfg in gen_graphs(GenConfig(seed=0), 200):
        seen |= set(map(type, cfg.instr))
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


def test_oracle_lattice_catches_a_corrupted_join(monkeypatch):
    def bad_join(g1, g2):
        if {g1, g2} == {GradAbst.NULL, GradAbst.UNKNOWN_NONNULL}:
            return GradAbst.UNKNOWN  # should be Nullable
        from graduator.lattice import lifted_join

        return lifted_join(g1, g2)

    monkeypatch.setattr(testkit, "lifted_join", bad_join)
    report = oracle_lattice()
    assert not report.passed
    assert any("Null" in f and "?NonNull" in f for f in report.failures)


def test_oracle_lattice_catches_a_corrupted_order(monkeypatch):
    def bad_leq(g1, g2):
        from graduator.lattice import lifted_leq

        if g1 is GradAbst.UNKNOWN and g2 is GradAbst.NULL:
            return False  # consistency is symmetric-ish here; this breaks it
        return lifted_leq(g1, g2)

    monkeypatch.setattr(testkit, "lifted_leq", bad_leq)
    assert not oracle_lattice().passed


def test_oracle_local_soundness_passes():
    report = oracle_local_soundness(trials=2500, seed=0)
    assert report.passed, report.failures
    assert report.checks > 1000


@pytest.mark.parametrize("kind, name", [(IIf, "var"), (IProc, "param"), (ICall, "target")])
def test_oracle_local_soundness_catches_a_broken_transfer(monkeypatch, kind, name):
    # One case per trial shape: a single instruction, a procedure entry and a
    # return, each judged by its own instruction's transfer.
    from graduator.analysis import lifted_flow as real

    def broken(ins, sigma, universe):
        out = real(ins, sigma, universe)
        if type(ins) is kind:
            out[getattr(ins, name)] = GradAbst.NULL  # wrong whenever the name holds an object
        return out

    monkeypatch.setattr(testkit, "lifted_flow", broken)
    report = oracle_local_soundness(trials=1500, seed=0)
    assert not report.passed
    assert any("local soundness fails" in f for f in report.failures)


def test_oracle_frontend_fuzz_keeps_a_failure_text_that_holds_a_brace(monkeypatch):
    # A render that drops every body makes each round trip raise "expected '{'":
    # the report keeps that text as it is, not as a format template.
    monkeypatch.setattr(testkit, "render_program", lambda p: "main")
    report = testkit.oracle_frontend_fuzz(seed=0)
    assert not report.passed
    assert report.failures[0].endswith(": render round trip raised 1:5: expected '{'")


def test_conservative_extension_on_fixtures():
    assert check_conservative_extension(lower(parse(LOOP_SRC))) == []
    # the checker compares against the static analysis, so it needs every
    # annotation present; close the scenario's open parameter
    full = scenario_src(ret_ann="NonNull").replace("(str)", "(str @Nullable)")
    assert check_conservative_extension(lower(parse(full))) == []


def test_erasure_guarantees_on_fixtures():
    cfg = lower(parse(LOOP_SRC))
    sites = [k for k, _ in annotation_sites(cfg)]
    assert check_erasure_guarantees(cfg, [set(), {sites[0]}, set(sites)]) == []


def test_progress_allows_errors_only_at_sites():
    assert check_progress_and_sites(lower(parse(scenario_src(null_body=True))), check_described=True) == []
    invalid = lower(parse(scenario_src(ret_ann="Nullable")))
    assert check_progress_and_sites(invalid) == [
        "precondition violated: program is not statically valid"
    ]


def test_progress_check_catches_undeclared_sites(monkeypatch):
    # The analysis finds no check site, so the run's checked error is undeclared.
    monkeypatch.setattr(testkit, "analyze", lambda cfg, mode="gradual": (*analyze(cfg, mode)[:2], []))
    failures = check_progress_and_sites(lower(parse(scenario_src(null_body=True))))
    assert len(failures) == 1
    assert "not a declared check site" in failures[0]


def _rewritten_after(k):
    """grad_step, but after its k-th step (from 0) one value in main's frame is off by one."""
    taken = []

    def rewritten(cfg, state):
        out = grad_step(cfg, state)
        if len(taken) == k:
            env = state.frames[0][0]
            env[min(env)] += 1
        taken.append(out)
        return out

    return rewritten


def _final_heap_grows(cfg, state):
    """grad_step, but a final state gains an object."""
    out = grad_step(cfg, state)
    if type(out) is Final:
        state.heap[len(state.heap) + 1] = {}
    return out


def _stuck(cfg, state):
    """grad_step, but it calls the state it reaches stuck."""
    grad_step(cfg, state)
    return Stuck(state, state.top.vertex, "no step")


_NULL_BODY = scenario_src(null_body=True)

# name -> (source, a function that makes (step1, step2), and what lockstep
# reports: None, or the step where the runs part and each side's outcome).
_LOCKSTEP_CASES = {
    "plain-and-checked-agree": (LOOP_SRC, lambda: (step, grad_step), None),
    "state-rewritten": (LOOP_SRC, lambda: (grad_step, _rewritten_after(3)), "step 3: Stepped at v4 vs Stepped at v4"),
    "step2-stuck": (LOOP_SRC, lambda: (grad_step, _stuck), "step 0: Stepped at v10 vs Stuck at v10"),
    "plain-stuck-checked-errors": (_NULL_BODY, lambda: (step, grad_step), "step 15: Stuck at v12 vs Errored at v12"),
    "both-stuck": (_NULL_BODY, lambda: (step, step), "step 15: Stuck at v12 vs Stuck at v12"),
    "cfg1-errors-first": (_NULL_BODY, lambda: (grad_step, step), None),
    "finals-differ": (LOOP_SRC, lambda: (grad_step, _final_heap_grows), "step 13: Final at v12 vs Final at v12"),
}


@pytest.mark.parametrize("case", _LOCKSTEP_CASES)
def test_lockstep_reports_divergence(case):
    source, make_steps, reported = _LOCKSTEP_CASES[case]
    cfg = lower(parse(source))
    step1, step2 = make_steps()
    assert lockstep(cfg, step1, cfg, step2, fuel=500) == reported


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
