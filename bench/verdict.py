"""Verdicts for one CLI invocation, known before the tool runs.

The sized workloads are built so that their findings and run results are
fixed by construction.  For the generated corpus the verdict is the paper's
soundness property instead of a recorded output: `check` exits 1 exactly
when it reports warnings, a checked `run` that stops with exit 3 stops at a
position the report lists (a check site, or a warning site when the program
has warnings), and exit 4 (stuck) never happens to a warning-free program.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Optional

_FINAL = re.compile(r"^final: returned (\d+) in (\d+) step\(s\)$", re.M)
_STEPS = re.compile(r"after (\d+) step\(s\)")


@dataclass(frozen=True)
class Result:
    """What one `graduator.cli.main` call produced; code is None if it raised."""

    code: Optional[int]
    out: str
    err: str


def check_report(case, res: Result) -> tuple[Optional[str], Optional[dict]]:
    """(problem or None, parsed JSON report) for a `check --format json` call."""
    if res.code not in (0, 1):
        return f"check exited {res.code}: {res.err.strip()[-300:]}", None
    try:
        report = json.loads(res.out)
    except ValueError:
        return "check output is not a JSON report", None
    warnings, checks = report.get("warnings"), report.get("checks")
    if not isinstance(warnings, list) or not isinstance(checks, list):
        return "check report lacks warnings/checks lists", None
    if (res.code == 1) != bool(warnings):
        return f"check exited {res.code} with {len(warnings)} warning(s)", report
    want = case.expect
    if want["kind"] == "soundness":
        return None, report
    if len(warnings) != want["warnings"]:
        return f"expected {want['warnings']} warning(s), got {len(warnings)}", report
    if len(checks) != want["checks"] or any(c.get("category") != "GRADUAL_CHECK" for c in checks):
        return f"expected {want['checks']} GRADUAL_CHECK finding(s), got {len(checks)}", report
    return None, report


def run_problem(case, res: Result, report: dict) -> Optional[str]:
    """Problem with a `run` call's output, judged against the case's check report."""
    want = case.expect
    if want["kind"] != "soundness":
        m = _FINAL.search(res.out)
        if res.code != 0 or m is None:
            return f"run exited {res.code} without a final state"
        returned = int(m.group(1))
        if returned == 0:
            return "run returned null"
        if "returned" in want and returned != want["returned"]:
            return f"run returned location {returned}, expected {want['returned']} heap objects"
        return None
    if res.code in (0, 5):
        return None
    if res.code == 4:
        return "stuck on a warning-free program" if not report["warnings"] else None
    if res.code == 3:
        try:
            stop = json.loads(res.out)
            at = (stop["vertex"], stop["variable"])
        except (ValueError, KeyError, TypeError):
            return "checked-execution error is not a JSON record"
        listed = report["checks"] + report["warnings"]
        if at not in {(f["vertex"], f["variable"]) for f in listed}:
            return f"run stopped at v{at[0]} {at[1]!r}, which the report does not list"
        return None
    return f"run exited {res.code}: {res.err.strip()[-300:]}"


def steps_of(res: Result) -> Optional[int]:
    """Interpreter steps a `run` call reports, when its output states them."""
    m = _FINAL.search(res.out) or _STEPS.search(res.out)
    return int(m.group(m.lastindex)) if m else None
