"""Output checks for every benchmark request, and the run digest.

A request passes when it exits 0, prints one JSON report whose
``schema`` matches its command, and the report keeps the command's
domain invariants.  The digest of a report is a hash of its canonical
JSON, so any change in a simulated output changes it.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Callable, Dict, List

SCHEMAS = {
    "plan": "repro.plan/v2",
    "step": "repro.step/v2",
    "analyze": "repro.analysis/v1",
    "faults": "repro.faults/v2",
    "run": "repro.resilience/v2",
}

#: Tolerance for rounding in sums of time components and in fractions
#: (a failure-free run reports goodput 1.0000000000000002).
_REL = 1e-9


class CheckFailed(Exception):
    """A report broke its schema or a domain invariant."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _plan(r: dict, argv: List[str]) -> None:
    p = r["parallel"]
    world = p["tp"] * p["cp"] * p["ep"] * p["pp"] * p["dp"]
    ngpu = int(argv[argv.index("--ngpu") + 1])
    _require(world == ngpu == p["world_size"] == r["job"]["ngpu"],
             f"tp*cp*ep*pp*dp = {world}, ngpu = {ngpu}")


def _step(r: dict, argv: List[str]) -> None:
    parts = (r["pipeline_seconds"] + r["exposed_fsdp_seconds"]
             + r["optimizer_seconds"])
    _require(abs(r["step_seconds"] - parts) <= _REL * max(1.0, parts),
             f"step_seconds {r['step_seconds']!r} != components {parts!r}")
    _require(0.0 < r["mfu"] <= 1.0, f"mfu {r['mfu']!r} outside (0, 1]")
    # Bubble ratio is idle over occupied time, the paper's
    # (pp - 1) / (nmb * v): above 1 whenever nmb * v < pp - 1.
    ratios = list(r["bubble_ratios"]) + [r["mean_bubble_ratio"]]
    _require(all(0.0 <= b < math.inf for b in ratios),
             f"bubble ratio negative or infinite: {ratios}")


def _faults(r: dict, argv: List[str]) -> None:
    g = r["goodput"]["fraction"]
    _require(0.0 < g <= 1.0 + _REL, f"goodput {g!r} outside (0, 1]")


def _run(r: dict, argv: List[str]) -> None:
    g = r["goodput"]["fraction"]
    _require(0.0 <= g <= 1.0 + _REL, f"goodput {g!r} outside [0, 1]")
    if r["completed"]:
        _require(r["steps_completed"] == r["config"]["steps"],
                 f"completed run committed {r['steps_completed']} of "
                 f"{r['config']['steps']} steps")


def _analyze(r: dict, argv: List[str]) -> None:
    _require(r["critical_path"]["exact"] is True,
             "critical path does not tile the makespan exactly")


INVARIANTS: Dict[str, Callable[[dict, List[str]], None]] = {
    "plan": _plan, "step": _step, "analyze": _analyze, "faults": _faults,
    "run": _run,
}


def check_output(argv: List[str], stdout: str) -> str:
    """Check one request's report; return its digest.

    Raises :class:`CheckFailed` on any broken check.
    """
    command = argv[0]
    try:
        report = json.loads(stdout)
    except ValueError as err:
        raise CheckFailed(f"stdout is not one JSON report: {err}") from None
    _require(report.get("schema") == SCHEMAS[command],
             f"schema {report.get('schema')!r} != {SCHEMAS[command]!r}")
    try:
        INVARIANTS[command](report, argv)
    except (KeyError, TypeError) as err:
        raise CheckFailed(f"report lacks a field: {err!r}") from None
    return digest(report)


def digest(report: dict) -> str:
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def combine(digests: List[str]) -> str:
    """One digest for an ordered list of digests."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()
