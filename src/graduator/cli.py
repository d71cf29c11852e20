"""The graduator command.

Subcommands:

- check    parse a program, run the analysis, report warnings and check sites
- run      execute a program (plain or checked) and report the outcome
- cfg      print the control-flow graph (text or DOT)
- stats    dereference-site table: how many sites need no run-time check
- compare  gradual analysis vs. all-NonNull and all-Nullable annotation defaults
- selftest run the built-in oracles: lattice, local-soundness, propositions
           and frontend-fuzz

Exit codes.  check: 0 clean, 1 static warnings, 2 front-end failure.
run: 0 final, 2 front-end failure, 3 checked-execution error, 4 stuck,
5 fuel exhausted.  cfg/stats/compare: 0 or 2.  selftest: 0 or 1.  Any
command whose standard output closes early (`graduator run p --trace |
head`) stops there and exits 141, 128 + SIGPIPE as a shell reports a process
that the signal ended, with nothing on standard error.

The environment variable GRADUATOR_MAX_STEPS overrides the default fuel;
an explicit --max-steps beats both.  Fuel is a count of steps: 0 or more,
and a negative value exits 2.

Every command frees the program's tree as soon as it is lowered, so that
validate, the analysis and the interpreter never hold memory beside it:
nothing after lowering reads the tree.  No name here holds the tree, and
parse lets the source text go once it is lexed, so on Python 3.11 and later,
where a call moves its arguments into the callee, lowering frees the tree
procedure by procedure as it goes (see cfg.lower).  check's static mode
tests the validated graph's annotations, and compare and stats
--ignore-annotations apply their policies to it with cfg.reannotate.
compare frees each policy's graph and facts before it builds the next, and
reuses the gradual findings for a policy that changes no annotation, as on a
fully annotated program.

While any command runs, the cyclic collector's first threshold is raised to
200,000 allocations, as mypy does.  A command's tree, graph and states hold
no reference cycles, so reference counting frees each once its last
reference goes, and a collector pass over them frees nothing.  main restores
the caller's thresholds when it returns.  Each call leaves its argparse tree
as cyclic garbage, so selftest's front-end fuzz oracle, which calls main
hundreds of times, collects the youngest generation before each case.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from . import __version__
from .analysis import WARN_CHECK, analyze
from .cfg import IFieldRead, IFieldWrite, ProgramCfg, emit_dot, erase_annotations, is_fully_annotated, lower
from .cfg import reannotate, render_instr, validate
from .lattice import GradAbst
from .runtime import DEFAULT_FUEL, run
from .syntax import Diagnostic, ParseError, Program, check_surface, parse


class _Fail(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _Fail(2, f"{path}: error: not valid UTF-8 at byte offset {exc.start}")
    except OSError as exc:
        raise _Fail(2, f"{path}: {exc}")


def _checked_tree(path: Path, notes: list[Diagnostic]) -> Program:
    """The file's tree once it passes the surface checks, whose notes go to notes."""
    try:
        prog = parse(_read(path))
    except ParseError as exc:
        raise _Fail(2, f"{path}:{exc.line}:{exc.col}: error: {exc.message}")
    notes += check_surface(prog)
    errors = [d for d in notes if d.severity == "error"]
    if errors:
        raise _Fail(2, "\n".join(f"{path}:{d}" for d in errors))
    return prog


def _front_end(path: Path, static: bool = False) -> tuple[ProgramCfg, list[Diagnostic]]:
    """The file's validated graph and its surface notes; static requires a fully annotated program."""
    diagnostics: list[Diagnostic] = []
    # No name holds the tree: lower frees it procedure by procedure (see lower).
    cfg = lower(_checked_tree(path, diagnostics))
    bad = validate(cfg)
    if bad:
        raise _Fail(2, "\n".join(f"{path}: malformed control flow: {b}" for b in bad))
    if static and not is_fully_annotated(cfg):
        raise _Fail(2, f"{path}: static mode requires a fully annotated program ('?' present)")
    return cfg, diagnostics  # notes only, as there are no errors


def _deref_stats(cfg: ProgramCfg, checks) -> tuple[int, int, int]:
    """(dereference sites, checks among them, eliminated)."""
    derefs = sum(1 for v in cfg.vertices if type(v.instr) is IFieldRead or type(v.instr) is IFieldWrite)
    checked = sum(1 for c in checks if c.category == WARN_CHECK)
    return derefs, checked, derefs - checked


def _pct(eliminated: int, derefs: int) -> int:
    return round(100 * eliminated / derefs) if derefs else 100


def _build_report(source: str, mode: str, cfg: ProgramCfg, warnings, checks) -> dict:
    derefs, checked, eliminated = _deref_stats(cfg, checks)
    return {
        "schema": 1,
        "tool": "graduator",
        "version": __version__,
        "source": source,
        "mode": mode,
        "warnings": [w.to_json() for w in warnings],
        "checks": [c.to_json() for c in checks],
        "summary": {
            "static": len(warnings),
            "check": checked,
            "boundary": len(checks) - checked,
            "dereference_sites": derefs,
            "eliminated": eliminated,
            "eliminated_pct": _pct(eliminated, derefs),
        },
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    path = Path(args.path)
    cfg, notes = _front_end(path, static=args.mode == "static")
    _, warnings, checks = analyze(cfg, args.mode)
    report = _build_report(str(path), args.mode, cfg, warnings, checks)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        for note in notes:
            print(f"{path}:{note}", file=sys.stderr)
        s = report["summary"]
        print(f"{path}: mode={args.mode}")
        for w in warnings:
            print(f"  {w.render()}")
        for c in checks:
            print(f"  {c.render()}")
        print(
            f"  {s['static']} warning(s), {s['check']} check(s), {s['boundary']} boundary check(s); "
            f"{s['eliminated']}/{s['dereference_sites']} dereference site(s) check-free ({s['eliminated_pct']}%)"
        )
    return 1 if warnings else 0


def _fuel(args) -> int:
    fuel, source = args.max_steps, "--max-steps"
    if fuel is None:
        env = os.environ.get("GRADUATOR_MAX_STEPS")
        if env is None:
            return DEFAULT_FUEL
        try:
            fuel, source = int(env), "GRADUATOR_MAX_STEPS"
        except ValueError:
            raise _Fail(2, f"GRADUATOR_MAX_STEPS must be an integer, got {env!r}")
    if fuel < 0:
        raise _Fail(2, f"{source} must not be negative, got {fuel}")
    return fuel


def cmd_run(args) -> int:
    path = Path(args.path)
    cfg, _ = _front_end(path)
    result = run(cfg, mode=args.mode, max_steps=_fuel(args), collect_trace=args.trace)
    if result.trace:
        sys.stdout.write("\n".join(result.trace) + "\n")
    if result.outcome == "final":
        print(f"final: returned {result.returned} in {result.steps} step(s)")
        return 0
    if result.outcome == "error":
        assert result.error is not None
        print(json.dumps(result.error.to_json(cfg), indent=2))
        return 3
    if result.outcome == "stuck":
        v = result.state.top.vertex
        print(f"stuck at v{v} after {result.steps} step(s): {result.stuck_reason}")
        return 4
    print(f"fuel exhausted after {result.steps} step(s)")
    return 5


def cmd_cfg(args) -> int:
    path = Path(args.path)
    cfg, _ = _front_end(path)
    if args.dot:
        sys.stdout.write(emit_dot(cfg))
        return 0
    for v in cfg.vertices:
        succs = ", ".join(f"v{u}" for u in cfg.succ[v.id])
        arrow = f"  -> {succs}" if succs else ""
        print(f"v{v.id}: {v.proc}: {render_instr(v.instr)}{arrow}")
    return 0


def cmd_stats(args) -> int:
    rows = []
    for raw in args.paths:
        path = Path(raw)
        cfg, _ = _front_end(path)
        if args.ignore_annotations:
            cfg = erase_annotations(cfg)
        _, _, checks = analyze(cfg, "gradual")
        derefs, checked, eliminated = _deref_stats(cfg, checks)
        rows.append((str(path), derefs, checked, eliminated))
    width = max(len("program"), *(len(r[0]) for r in rows)) if rows else len("program")
    print(f"{'program':<{width}}  derefs  checks  eliminated   pct")
    for name, derefs, checked, eliminated in rows:
        print(f"{name:<{width}}  {derefs:6d}  {checked:6d}  {eliminated:10d}  {_pct(eliminated, derefs):3d}%")
    if len(rows) > 1:
        derefs = sum(r[1] for r in rows)
        checked = sum(r[2] for r in rows)
        eliminated = sum(r[3] for r in rows)
        print(f"{'TOTAL':<{width}}  {derefs:6d}  {checked:6d}  {eliminated:10d}  {_pct(eliminated, derefs):3d}%")
    return 0


def _filled_findings(cfg: ProgramCfg, default: GradAbst, gradual: tuple):
    """The findings once every '?' of cfg reads default: gradual, cfg's own, if cfg has no '?'."""
    filled = reannotate(cfg, lambda key, ann: default if ann is GradAbst.UNKNOWN else ann)
    return gradual if filled is cfg else analyze(filled, "gradual")[1:]


def cmd_compare(args) -> int:
    path = Path(args.path)
    cfg, _ = _front_end(path)
    print(f"{'policy':<18}  warnings  checks")
    # A default fills every '?' alike, so each policy's graph is as valid as cfg.  Only the findings
    # outlive a policy: its graph and facts go before the next policy's graph is built.
    gradual = analyze(cfg, "gradual")[1:]
    policies = (("gradual", None), ("nonnull-default", GradAbst.NONNULL), ("nullable-default", GradAbst.NULLABLE))
    for name, default in policies:
        warnings, checks = gradual if default is None else _filled_findings(cfg, default, gradual)
        print(f"{name:<18}  {len(warnings):8d}  {len(checks):6d}")
    return 0


def cmd_selftest(args) -> int:
    from . import testkit

    reports = [
        testkit.oracle_lattice(),
        testkit.oracle_local_soundness(trials=args.trials, seed=args.seed),
        testkit.oracle_propositions(programs=args.programs, seed=args.seed),
        testkit.oracle_frontend_fuzz(seed=args.seed),
    ]
    failed = False
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}  ({r.checks} checks)")
        for f in r.failures:
            print(f"      {f}")
        failed = failed or not r.passed
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="graduator", description=__doc__.split("\n\n")[0])
    ap.add_argument("--version", action="version", version=f"graduator {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="analyze a program and report warnings and check sites")
    p.add_argument("path")
    p.add_argument("--mode", choices=["gradual", "static"], default="gradual")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="execute a program")
    p.add_argument("path")
    p.add_argument("--mode", choices=["gradual", "plain"], default="gradual")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("cfg", help="print the control-flow graph")
    p.add_argument("path")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=cmd_cfg)

    p = sub.add_parser("stats", help="dereference-site statistics")
    p.add_argument("paths", nargs="+")
    p.add_argument("--ignore-annotations", action="store_true")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("compare", help="gradual vs. default-annotation policies")
    p.add_argument("path")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("selftest", help="run the built-in oracles")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--programs", type=int, default=40)
    p.add_argument("--trials", type=int, default=4000)
    p.set_defaults(fn=cmd_selftest)

    return ap


# Allocations between gen-0 passes while a command runs.
_GEN0_THRESHOLD = 200_000

# The exit status when standard output closes early: 128 + SIGPIPE.
EXIT_CLOSED_PIPE = 141


def _drop_stdout() -> None:
    """Point standard output's file at devnull, so that interpreter shutdown flushes nothing into a closed pipe.

    Only a stdout that is a real file is repointed: an in-process caller's
    stream is its own, and shutdown does not flush it.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    thresholds = gc.get_threshold()
    gc.set_threshold(_GEN0_THRESHOLD, *thresholds[1:])
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter shutdown
        return code
    except _Fail as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        _drop_stdout()
        return EXIT_CLOSED_PIPE
    finally:
        gc.set_threshold(*thresholds)


if __name__ == "__main__":
    sys.exit(main())
