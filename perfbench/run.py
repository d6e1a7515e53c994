"""Closed-loop benchmark of the ``repro`` CLI.

Run from the repository root::

    python3 perfbench/run.py --workload plan-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both runs

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
interpreters, then four rounds, each a fresh process in which one
client sends the run's seeded request list back to back through
``repro.cli.main``.  Each time is divided by how much slower than its
reference the host ran Python in that round (``calibrate.py``), and each
request keeps the median of its four times, so neither a slow minute
nor a slow spell of a shared host reads as a slower program.
``--trace 1`` runs the
workload's first cycle four times, each in a fresh process, alternately
untraced and under the layer wrappers, and reports per-layer self time, calls, share and
work counts.  Every answer is checked; see ``checks.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it are the same numbers for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters timed per run for ``setup_s``; the median is kept.
SETUP_REPEATS = 5
#: Rounds of the request list per run, each in a fresh process; every
#: request keeps the median of its normalised times.  The rounds lie
#: seconds apart, so a slow spell of the host shorter than a round slows
#: one of a request's samples, not the median.
ROUNDS = 4
#: Per-run digests of cycle 0, compared across runs of one checkout.
DIGEST_STORE = ROOT / ".perfbench" / "digests.json"
#: Wall-time budget of one run, under the 180 s a run may take.
RUN_BUDGET_S = 170

Metrics = Dict[str, Tuple[float, str]]

#: Metrics on the JSON line of a ``--trace 0`` run.  ``error_rate`` is
#: printed above it; failures also show in ``failed`` and ``correct``.
END_TO_END = ("setup_s", "throughput_rps", "latency_p50_s", "latency_tail_s",
              "peak_rss_mb")
#: Layers that every workload calls.  A layer some workload never calls
#: has a self time of exactly 0 s there, so for the others the JSON line
#: carries calls and share, and the table above it the self time too.
CALLED_BY_ALL = ("cli", "train.step", "pp.schedule", "train.cost",
                 "train.lowering", "train.executor", "train.executor.summary",
                 "pp.grad_memory", "obs.report")
#: Metrics on the JSON line of a ``--trace 1`` run.
PER_LAYER = (
    tuple(f"{name}.self_s" for name in CALLED_BY_ALL)
    + tuple(f"{name}.{kind}" for name in layers.LAYER_NAMES
            for kind in ("calls", "share"))
    + ("train.lowering.ops", "train.executor.events",
       "train.executor.events_per_s", "faults.inject.ops_faulted",
       "obs.report.bytes", "parallel.planner.replan.probes",
       "parallel.planner.steps_per_request",
       "resilience.run.steps_per_request", "pp.schedule.repeat_ratio",
       "unwrapped_s", "trace_wall_s", "trace_overhead"))


class WorkerFailed(RuntimeError):
    """A benchmark process exited abnormally."""


def _worker(deadline: float, mode: str, workload: str, *extra: str) -> dict:
    """Run one worker process to completion (killed at ``deadline``) and
    return its JSON result."""
    cmd = [sys.executable, "-B", str(HERE / "worker.py"), mode,
           "--workload", workload, *extra]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(deadline: float, workload: str
                  ) -> Tuple[float, float, List[str]]:
    """Median seconds from spawning a fresh interpreter until it has
    answered the workload's set-up request (imports included), and the
    host's speed factor over those spawns."""
    samples, probes, errors = [], [], []
    for _ in range(SETUP_REPEATS):
        probes.append(calibrate.probe())
        spawned = time.perf_counter()
        out = _worker(deadline, "setup", workload)
        samples.append(out["answered"] - spawned)
        if out["error"]:
            errors.append(out["error"])
    return (statistics.median(samples), calibrate.speed_factor(probes),
            errors)


def tail_latency(latencies: List[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples above it:
    ``(value, percentile, sample count)``.  Below 21 samples that
    percentile would not lie above the median, so the maximum is kept."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _sources_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_digest(key: str, digest: str) -> str:
    """Compare a run's digest with earlier runs of the same requests on
    the same sources in this checkout; return an error message or ''."""
    key = f"{key}/{_sources_hash()}"
    store = {}
    if DIGEST_STORE.exists():
        store = json.loads(DIGEST_STORE.read_text())
    seen = store.setdefault(key, digest)
    if seen != digest:
        return (f"digest {digest} differs from {seen}, recorded in "
                f"{DIGEST_STORE} by an earlier run of {key}")
    DIGEST_STORE.parent.mkdir(exist_ok=True)
    DIGEST_STORE.write_text(json.dumps(store, indent=1, sort_keys=True))
    return ""


def _request_times(rounds: List[dict], factors: List[float]
                   ) -> Tuple[List[float], List[str], List[str]]:
    """Per request of the list: the median over the rounds of its time
    divided by its round's speed factor, provided every round answered
    it, passed its checks and gave the same answer.  Returns ``(times,
    per-request digests, errors)``."""
    times, digests, errors = [], [], []
    for recs in zip(*(r["records"] for r in rounds)):
        argv = recs[0]["argv"]
        failed = [r["error"] for r in recs if not r["ok"]]
        if failed:
            errors.append(f"{argv}: {failed[0]}")
        elif len({r["digest"] for r in recs}) != 1:
            errors.append(f"{argv}: output differs between rounds")
        else:
            times.append(statistics.median(
                r["seconds"] / f for r, f in zip(recs, factors)))
        digests.append(recs[0]["digest"] or "")
    return times, digests, errors


def end_to_end(deadline: float, workload: str, seed: int, seconds: float,
               tiny: bool) -> Tuple[Metrics, dict]:
    setup_wall, setup_factor, setup_errors = measure_setup(deadline,
                                                           workload)
    w = workloads.WORKLOADS[workload]
    cycles = workloads.cycles_per_run(w, seconds, ROUNDS)
    extra = ["--seed", str(seed), "--cycles", str(cycles),
             *(["--tiny"] if tiny else [])]
    rounds = [_worker(deadline, "round", workload, *extra, "--round", str(i))
              for i in range(ROUNDS)]
    factors = [calibrate.speed_factor(r["probes"]) for r in rounds]
    times, digests, errors = _request_times(rounds, factors)
    wall = _request_times(rounds, [1.0] * len(rounds))[0]
    errors = setup_errors + errors
    attempted = len(digests)
    tail, pct, n = tail_latency(times or [float("nan")])
    size = "tiny" if tiny else "full"
    requests = workloads.request_list(w, seed, cycles, tiny)
    inputs = hashlib.sha256(repr([r.argv for r in requests]).encode())
    digest = checks.combine(digests)
    digest_error = _check_digest(
        f"{workload}/{seed}/{size}/{inputs.hexdigest()[:16]}", digest)
    if digest_error:
        errors.append(digest_error)
    elapsed = sum(r["elapsed"] for r in rounds)
    metrics: Metrics = {
        "setup_s": (setup_wall / setup_factor, "s"),
        # One client answering the list at each request's median time.
        "throughput_rps": (len(times) / sum(times) if times else 0.0,
                           "1/s"),
        "latency_p50_s": (statistics.median(times or [float("nan")]), "s"),
        "latency_tail_s": (tail, "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    info = {
        "attempted": attempted,
        "failed": attempted - len(times),
        "errors": errors,
        "error_rate": (attempted - len(times)) / max(attempted, 1),
        # Every answer of every round, over the rounds' wall time.
        "wall_rps": len(times) * ROUNDS / elapsed,
        "wall": {
            "setup_s": setup_wall,
            "throughput_rps": len(wall) / sum(wall) if wall else 0.0,
            "latency_p50_s": statistics.median(wall or [float("nan")]),
            "latency_tail_s": tail_latency(wall or [float("nan")])[0],
        },
        "speed_factors": [setup_factor] + factors,
        "tail": f"p{pct:.1f} of {n} requests",
        "cycles": cycles,
        "elapsed": elapsed,
        "digest": digest,
    }
    return metrics, info


def per_layer(deadline: float, workload: str, seed: int, tiny: bool
              ) -> Tuple[Metrics, dict]:
    extra = ["--seed", str(seed)] + (["--tiny"] if tiny else [])
    # Alternate plain and traced passes and keep the faster of each, so a
    # slow spell of the machine does not read as tracing overhead.
    passes = [_worker(deadline, "pass", workload, *extra, *flag)
              for _ in range(2) for flag in ([], ["--traced"])]
    plain = min(passes[0::2], key=lambda p: p["wall"])
    traced = min(passes[1::2], key=lambda p: p["wall"])
    records = [r for p in passes for r in p["records"]]
    metrics = layers.summarize(
        traced["self_s"], traced["calls"], traced["counters"],
        traced["spans_s"], traced["wall"], len(traced["records"]),
        plain["wall"])
    failed = [r for r in records if not r["ok"]]
    info = {
        "attempted": len(records),
        "failed": len(failed),
        "errors": [f"{r['argv']}: {r['error']}" for r in failed],
        "top_by_stratum": traced["top_by_stratum"],
    }
    return metrics, info


def _print_table(title: str, metrics: Metrics, notes: Dict[str, str]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<40s} {value:>14.6g} {unit:<8s} {note}".rstrip())


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        metrics, info = per_layer(deadline, workload, seed, tiny)
        _print_table(f"{workload} per-layer (traced cycle 0, seed {seed})",
                     metrics, {})
        for stratum, (layer, share) in info["top_by_stratum"].items():
            print(f"  largest layer in {stratum}: {layer} ({share:.0%})")
    else:
        metrics, info = end_to_end(deadline, workload, seed, seconds, tiny)
        shown = dict(metrics, error_rate=(info["error_rate"], "fraction"),
                     wall_rps=(info["wall_rps"], "1/s"))
        notes = {name: f"wall clock {value:.6g}"
                 for name, value in info["wall"].items()}
        _print_table(
            f"{workload} end-to-end (seed {seed}, {info['attempted']} "
            f"requests ({info['cycles']} cycles) x {ROUNDS} rounds in "
            f"{info['elapsed']:.1f} s, digest {info['digest'][:16]})",
            shown, dict(notes, wall_rps="every answer of every round "
                                         "over the rounds' wall time"))
        print(f"  the tail is the {info['tail']}; each request's time "
              f"is its median over {ROUNDS} rounds")
        print("  host speed factor (set-up, rounds): "
              + ", ".join(f"{f:.3f}" for f in info["speed_factors"]))
    for error in info["errors"]:
        print(f"  FAILED {error}")
    reported = PER_LAYER if trace else END_TO_END
    return {
        "correct": not info["errors"],
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in reported},
    }


def main(argv: List[str] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny request shapes (the smoke test)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    try:
        results = {(n, t): run_one(n, args.seed, args.seconds, bool(t),
                                   args.tiny)
                   for n in names for t in traces}
    except (WorkerFailed, layers.AccountingError,
            subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({f"{n}/trace{t}": r for (n, t), r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
