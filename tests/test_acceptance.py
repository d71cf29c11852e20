"""Acceptance gate: the nine deliverable criteria, one test each.

Every test appends one PASS/FAIL line to the summary section that conftest
prints at the end of the run, so a glance at the tail of the output answers
"does the build do what it promised" without reading tracebacks.  Frozen
expected values were derived by hand (the dataflow table for the retry loop)
or measured once and pinned (corpus percentages, scenario counts).
"""

import json
import random
import time
from contextlib import contextmanager

import conftest
from conftest import LOOP_SRC, SCENARIO_DEREF_VERTEX, scenario_src

from graduator.analysis import analyze, kildall, static_warnings
from graduator.cfg import (
    IFieldRead,
    IFieldWrite,
    annotation_sites,
    erase_annotations,
    is_fully_annotated,
    lower,
    reannotate,
)
from graduator.cli import main as cli_main
from graduator.lattice import GradAbst
from graduator.runtime import run
from graduator.syntax import parse
from graduator.testkit import (
    GenConfig,
    check_conservative_extension,
    check_erasure_guarantees,
    check_progress_and_sites,
    corpus_paths,
    gen_graphs,
    gen_valid_graphs,
    naive_lifted_join,
    oracle_lattice,
)


class _Note:
    text = ""


@contextmanager
def criterion(n: int):
    note = _Note()
    try:
        yield note
    except BaseException:
        conftest.ACCEPTANCE_LINES.append(f"ACCEPTANCE {n}: FAIL  {note.text}".rstrip())
        raise
    conftest.ACCEPTANCE_LINES.append(f"ACCEPTANCE {n}: PASS  {note.text}".rstrip())


def test_criterion_1_lattice_oracle_under_a_second():
    with criterion(1) as note:
        t0 = time.perf_counter()
        report = oracle_lattice()
        elapsed = time.perf_counter() - t0
        assert report.passed, report.failures[:3]
        assert elapsed < 1.0, f"lattice oracle took {elapsed:.2f}s"
        note.text = f"lattice laws and Galois connection: {report.checks} checks in {elapsed:.2f}s (< 1s)"


def test_criterion_2_naive_lifting_is_order_sensitive():
    with criterion(2) as note:
        left = naive_lifted_join(
            GradAbst.NULL, naive_lifted_join(GradAbst.NONNULL, GradAbst.UNKNOWN)
        )
        right = naive_lifted_join(
            naive_lifted_join(GradAbst.NULL, GradAbst.NONNULL), GradAbst.UNKNOWN
        )
        assert left is GradAbst.UNKNOWN
        assert right is GradAbst.NULLABLE
        assert left is not right
        note.text = "4-element join regression: Null+(NonNull+?) = ? but (Null+NonNull)+? = Nullable"


def _hand_iterated_loop_facts():
    """Independent fixpoint for the retry loop's `x`, straight off the rules.

    The only facts in play form a three-point chain, so the join of two
    distinct defined facts is always Nullable.  `None` is bottom.
    """

    def join(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a if a == b else "Nullable"

    branch_in = None
    for _ in range(5):
        else_out = "Null" if branch_in is not None else None  # else arm pins x to Null
        call_out = "NonNull" if else_out is not None else None  # bar declares @NonNull
        branch_in = join(join("Nullable", call_out), branch_in)  # entry fact joins the back edge
    return_in = "NonNull" if branch_in is not None else None  # if arm pins x to NonNull
    return branch_in, return_in


def test_criterion_3_retry_loop_dataflow():
    with criterion(3) as note:
        cfg = lower(parse(LOOP_SRC))
        result = kildall(cfg, "gradual")
        facts = [{x: str(a) for x, a in sorted(sigma.items())} for sigma in result.pi]
        assert facts == [
            {},  # bar entry
            {"t": "Null", "y": "Nullable"},
            {"t": "NonNull", "y": "Nullable"},
            {},  # foo entry
            {"x": "Nullable"},  # loop head: entry fact joined with the call result
            {"x": "Nullable"},  # if arm, before narrowing applies
            {"x": "Nullable"},  # else arm likewise
            {"x": "Null"},  # call in the loop body: x was just tested null
            {"x": "NonNull"},  # return: the exit narrowing justifies @NonNull
            {},  # main entry
            {"$0": "Null", "r": "Null"},
            {"$0": "Null", "r": "Null"},
            {"$0": "Null", "r": "NonNull"},
        ]
        branch_in, return_in = _hand_iterated_loop_facts()
        foo = {type(ins).__name__: v for v, (ins, proc) in enumerate(zip(cfg.instr, cfg.proc)) if proc == "foo"}
        assert facts[foo["IBranch"]] == {"x": branch_in}
        assert facts[foo["IReturn"]] == {"x": return_in}
        _, warnings, checks = analyze(cfg)
        assert warnings == [] and checks == []
        note.text = "retry loop: x is Nullable at the loop head, NonNull at the return; 0 warnings, 0 checks"


def test_criterion_4_scenario_matrix():
    with criterion(4) as note:
        t0 = time.perf_counter()

        # (i) unannotated producer: optimistic deref gets exactly one check
        _, w1, c1 = analyze(lower(parse(scenario_src())))
        assert w1 == []
        assert [c.category for c in c1] == ["GRADUAL_CHECK"]
        assert c1[0].vertex == SCENARIO_DEREF_VERTEX

        # (ii) @NonNull producer: the check disappears
        _, w2, c2 = analyze(lower(parse(scenario_src(ret_ann="NonNull"))))
        assert w2 == [] and c2 == []

        # (iii) the optimism was wrong at run time: error at that same vertex
        bad = lower(parse(scenario_src(null_body=True)))
        result = run(bad, mode="gradual")
        assert result.outcome == "error"
        assert result.error.vertex == SCENARIO_DEREF_VERTEX
        assert result.error.variable == "reversed"

        # (iv) @Nullable producer: the deref is statically rejected
        _, w4, c4 = analyze(lower(parse(scenario_src(ret_ann="Nullable"))))
        assert [x.category for x in w4] == ["GRADUAL_STATIC"]
        assert w4[0].vertex == SCENARIO_DEREF_VERTEX and c4 == []

        # (v) a NonNull default guesses wrong where gradual stays quiet
        fill = lambda key, a: GradAbst.NONNULL if a is GradAbst.UNKNOWN else a
        filled = reannotate(lower(parse(scenario_src())), fill)
        _, w5, _ = analyze(filled)
        assert len(w5) >= 1

        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"scenario matrix took {elapsed:.2f}s"
        note.text = (
            "producer/consumer matrix: 1 check when unannotated, 0 when @NonNull, "
            f"run-time error at v{SCENARIO_DEREF_VERTEX}, 1 warning when @Nullable, "
            f"{len(w5)} under a NonNull default ({elapsed:.2f}s < 1s)"
        )


def test_criterion_5_annotated_programs_gain_nothing_and_lose_nothing():
    with criterion(5) as note:
        t0 = time.perf_counter()
        lockstepped = 0
        for i, cfg in enumerate(gen_graphs(GenConfig(seed=0, annotation_density=1.0), 200)):
            assert is_fully_annotated(cfg)
            failures = check_conservative_extension(cfg)
            assert failures == [], f"program {i}: {failures}"
            static = kildall(cfg, "static")
            gradual = kildall(cfg, "gradual")
            as_bytes = lambda result: json.dumps(
                [{x: str(a) for x, a in sigma.items()} for sigma in result.pi],
                sort_keys=True,
            )
            assert as_bytes(static) == as_bytes(gradual), f"program {i}"
            if not static_warnings(gradual):
                plain = run(cfg, mode="plain", max_steps=2000, collect_trace=True)
                checked = run(cfg, mode="gradual", max_steps=2000, collect_trace=True)
                assert plain.outcome == checked.outcome, f"program {i}"
                assert plain.trace == checked.trace, f"program {i}"
                assert plain.state == checked.state, f"program {i}"
                lockstepped += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
        note.text = (
            f"200 fully annotated programs: static and gradual facts byte-identical, "
            f"{lockstepped} warning-free ones ran in lockstep ({elapsed:.1f}s < 30s)"
        )


def test_criterion_6_erasure_only_coarsens():
    with criterion(6) as note:
        t0 = time.perf_counter()
        rng = random.Random("acc6")
        graphs = gen_valid_graphs(GenConfig(seed=100, annotation_density=0.6), 200)
        assert len(graphs) == 200
        erasures = 0
        for i, cfg in enumerate(graphs):
            sites = [k for k, _ in annotation_sites(cfg)]
            subsets = [{s for s in sites if rng.random() < 0.5} for _ in range(3)]
            failures = check_erasure_guarantees(cfg, subsets)
            assert failures == [], f"program {i}: {failures}"
            erasures += len(subsets)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        note.text = (
            f"200 valid programs x 3 random erasures ({erasures} total): still valid, "
            f"facts only grow, checked runs agree on the shared prefix ({elapsed:.1f}s < 60s)"
        )


def test_criterion_7_checked_execution_never_sticks():
    with criterion(7) as note:
        t0 = time.perf_counter()
        graphs = gen_valid_graphs(GenConfig(seed=7000, annotation_density=0.5), 500)
        assert len(graphs) == 500
        outcomes = {"final": 0, "error": 0, "fuel": 0, "stuck": 0}
        for i, cfg in enumerate(graphs):
            failures = check_progress_and_sites(cfg, fuel=10_000)
            assert failures == [], f"program {i}: {failures}"
            outcomes[run(cfg, mode="gradual", max_steps=10_000).outcome] += 1
        assert outcomes["stuck"] == 0
        assert outcomes["error"] >= 1, "the error path never fired; the claim would be vacuous"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        note.text = (
            f"500 valid programs, fuel 10^4: 0 stuck, {outcomes['error']} errors all at "
            f"declared check sites, {outcomes['final']} finished ({elapsed:.1f}s < 60s)"
        )


def test_criterion_8_corpus_check_elimination():
    with criterion(8) as note:
        t0 = time.perf_counter()
        per_file = {}
        total_derefs = total_eliminated = 0
        for path in corpus_paths():
            cfg = erase_annotations(lower(parse(path.read_text())))
            _, _, checks = analyze(cfg)
            derefs = sum(1 for ins in cfg.instr if isinstance(ins, (IFieldRead, IFieldWrite)))
            checked = sum(1 for c in checks if c.category == "GRADUAL_CHECK")
            per_file[path.stem] = (derefs, derefs - checked)
            total_derefs += derefs
            total_eliminated += derefs - checked
        assert len(per_file) == 20
        derefs, eliminated = per_file["new_heavy"]
        assert derefs > 0 and eliminated == derefs  # locally provable: 100%
        derefs, eliminated = per_file["unannotated_calls"]
        assert derefs > 0 and eliminated == 0  # everything crosses an open boundary: 0%
        pct = round(100 * total_eliminated / total_derefs)
        assert 0 < pct < 100
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
        note.text = (
            f"20-file corpus, annotations ignored: new_heavy 100%, unannotated_calls 0%, "
            f"aggregate {total_eliminated}/{total_derefs} = {pct}% check-free ({elapsed:.1f}s < 10s)"
        )


def test_criterion_9_cli_output_is_deterministic(capsys):
    with criterion(9) as note:
        def invoke(argv):
            code = cli_main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        path = str(next(p for p in corpus_paths() if p.stem == "queue_pop"))
        for argv in (
            ["check", path, "--format", "json"],
            ["check", path],
            ["cfg", path, "--dot"],
            ["selftest", "--seed", "3", "--trials", "400", "--programs", "4"],
        ):
            first = invoke(argv)
            second = invoke(argv)
            assert first == second, f"non-deterministic output for {argv}"
            assert first[0] == 0
        note.text = "check, check --format json, cfg --dot, selftest --seed 3: byte-identical on repeat"
