"""The graduator command.

Subcommands:

- check    parse a program, run the analysis, report warnings and check sites
- run      execute a program (plain or checked) and report the outcome
- cfg      print the control-flow graph (text or DOT)
- stats    dereference-site table: how many sites need no run-time check
- compare  gradual analysis vs. all-NonNull and all-Nullable annotation defaults
- selftest run the built-in oracles (lattice, local soundness, propositions)

Exit codes.  check: 0 clean, 1 static warnings, 2 front-end failure.
run: 0 final, 2 front-end failure, 3 checked-execution error, 4 stuck,
5 fuel exhausted.  cfg/stats/compare: 0 or 2.  selftest: 0 or 1.

The environment variable GRADUATOR_MAX_STEPS overrides the default fuel;
an explicit --max-steps beats both.  Fuel is a count of steps: 0 or more,
and a negative value exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .analysis import (
    WARN_CHECK,
    WARN_STATIC,
    analyze,
)
from .cfg import IFieldRead, IFieldWrite, ProgramCfg, emit_dot, lower, render_instr, validate
from .lattice import GradAbst
from .runtime import DEFAULT_FUEL, run
from .syntax import (
    ParseError,
    Program,
    check_surface,
    erase_annotations,
    fill_annotations,
    is_fully_annotated,
    lint_allocation_fields,
    parse,
)


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


def _load(path: Path) -> tuple[Program, ProgramCfg]:
    return _front_end(path, _read(path))


def _front_end(path: Path, text: str, transform=None) -> tuple[Program, ProgramCfg]:
    try:
        prog = parse(text)
    except ParseError as exc:
        raise _Fail(2, f"{path}:{exc.line}:{exc.col}: error: {exc.message}")
    errors = [d for d in check_surface(prog) if d.severity == "error"]
    if errors:
        raise _Fail(2, "\n".join(f"{path}:{d.line}:{d.col}: error: {d.message}" for d in errors))
    if transform is not None:
        prog = transform(prog)
    cfg = lower(prog)
    bad = validate(cfg)
    if bad:
        raise _Fail(2, "\n".join(f"{path}: malformed control flow: {b}" for b in bad))
    return prog, cfg


def _deref_stats(cfg: ProgramCfg, checks) -> tuple[int, int, int]:
    """(dereference sites, checks among them, eliminated)."""
    derefs = sum(1 for v in cfg.vertices if isinstance(v.instr, (IFieldRead, IFieldWrite)))
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
            "check": sum(1 for c in checks if c.category == WARN_CHECK),
            "boundary": sum(1 for c in checks if c.category != WARN_CHECK),
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
    prog, cfg = _load(path)
    if args.mode == "static" and not is_fully_annotated(prog):
        raise _Fail(2, f"{path}: static mode requires a fully annotated program ('?' present)")
    _, warnings, checks = analyze(cfg, args.mode)
    report = _build_report(str(path), args.mode, cfg, warnings, checks)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        for note in lint_allocation_fields(prog):
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
    _, cfg = _load(path)
    result = run(cfg, mode=args.mode, max_steps=_fuel(args), collect_trace=args.trace)
    for line in result.trace:
        print(line)
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
    _, cfg = _load(path)
    if args.dot:
        sys.stdout.write(emit_dot(cfg))
        return 0
    for v in cfg.vertices:
        succs = ", ".join(f"v{u}" for u in cfg.successors(v.id))
        arrow = f"  -> {succs}" if succs else ""
        print(f"v{v.id}: {v.proc}: {render_instr(v.instr)}{arrow}")
    return 0


def cmd_stats(args) -> int:
    rows = []
    for raw in args.paths:
        path = Path(raw)
        transform = (lambda p: erase_annotations(p)) if args.ignore_annotations else None
        _, cfg = _front_end(path, _read(path), transform)
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


def cmd_compare(args) -> int:
    path = Path(args.path)
    prog, cfg = _load(path)
    policies = [
        ("gradual", prog),
        ("nonnull-default", fill_annotations(prog, GradAbst.NONNULL)),
        ("nullable-default", fill_annotations(prog, GradAbst.NULLABLE)),
    ]
    print(f"{'policy':<18}  warnings  checks")
    for name, variant in policies:
        vcfg = lower(variant)
        bad = validate(vcfg)
        if bad:
            raise _Fail(2, f"{path}: malformed control flow under {name}: {bad[0]}")
        _, warnings, checks = analyze(vcfg, "gradual")
        print(f"{name:<18}  {len(warnings):8d}  {len(checks):6d}")
    return 0


def cmd_selftest(args) -> int:
    from . import testkit

    reports = [
        testkit.oracle_lattice(),
        testkit.oracle_local_soundness(trials=args.trials, seed=args.seed),
        testkit.oracle_propositions(programs=args.programs, seed=args.seed),
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _Fail as exc:
        print(exc.message, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
