"""Fast-path engine benchmarks: the scaling claim behind the simulator.

Three measurements back the fast-path rewrite of :mod:`repro.sim.engine`
(frozen pre-rewrite engine kept in ``tests/harness/reference_engine.py``):

1. **Explicit-replica throughput** on the acceptance workload — a
   16-stage x 64-microbatch pipeline replicated over 8 data-parallel
   replicas.  Both engines replay every replica explicitly and answer
   the same per-rank inspection battery; same timeline (asserted on the
   aggregates), >= 5x the events/sec.
2. **131K-rank collectives** — full-world synchronizing collectives at
   the paper's headline scale (128 * 1024 ranks) at a pinned events/sec
   floor, exercising the batched per-rank cost evaluation.
3. **Zero-bubble build+execute** — the split-backward schedule at the
   acceptance shape, through the schedule registry and the executor.

Besides the human-readable results file, writes
``benchmarks/results/BENCH_engine.json`` (events/sec, speedup) for the
CI ``engine-bench`` job to upload; the pinned floors below fail the job
on a regression.
"""

import json
import pathlib
import time

from repro.sim.engine import Simulator
from tests.harness.reference_engine import ReferenceSimulator

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_engine.json"
_BENCH: dict = {}

#: The acceptance workload shape: 16 pipeline stages x 64 microbatches.
PP, NMB = 16, 64
#: Data-parallel replicas the explicit-replica benchmark replays.
REPLICAS = 8

#: Pinned floors (events/sec), about half the medians measured on a
#: shared 2-vCPU host, so losing an optimisation layer — incremental
#: accounting, indexed views, batched collectives — fails.
FLOOR_SPEEDUP = 5.0
FLOOR_FAST_EPS = 150_000.0
FLOOR_COLLECTIVE_EPS = 150_000.0


def submit_pipeline(sim, offset: int = 0) -> int:
    """One replica's 16-stage x 64-microbatch step at rank ``offset``.

    Forward/backward chains over the stages via dependencies, a grad
    collective every 8 microbatches — the event mix the train lowering
    produces, without the lowering overhead masking engine time.
    Returns the number of events submitted.
    """
    ranks = list(range(offset, offset + PP))
    fwd = {}
    for mb in range(NMB):
        dep = None
        for s in range(PP):
            dep = sim.run(offset + s, "compute", 0.004, f"F{mb}.{s}",
                          after=[dep] if dep is not None else None)
            fwd[(mb, s)] = dep
    n_coll = 0
    for mb in range(NMB):
        dep = None
        for s in reversed(range(PP)):
            after = [fwd[(mb, s)]]
            if dep is not None:
                after.append(dep)
            dep = sim.run(offset + s, "compute", 0.008, f"B{mb}.{s}",
                          after=after)
        if (mb + 1) % 8 == 0:
            sim.run_collective(ranks, "fsdp", 0.002, f"gs{mb}")
            n_coll += 1
    sim.run_collective(ranks, "fsdp", 0.003, "final")
    n_coll += 1
    return PP * NMB * 2 + n_coll * PP


def _inspection_battery(sim, world: int) -> float:
    """Every per-rank aggregate a dashboard would pull — O(1) on the
    fast engine, O(events) scans on the reference."""
    total = sim.makespan()
    for rank in range(world):
        total += sim.makespan([rank])
        total += sim.busy_time(rank, "compute")
        total += sim.idle_time(rank, "compute")
        total += sim.now(rank, "fsdp")
    return total


def test_explicit_replica_throughput(report):
    world = REPLICAS * PP
    elapsed = {}
    probes = {}
    sims = {}
    for label, engine in (("reference", ReferenceSimulator),
                          ("fast", Simulator)):
        t0 = time.perf_counter()
        sim = engine()
        for k in range(REPLICAS):
            submit_pipeline(sim, k * PP)
        probes[label] = _inspection_battery(sim, world)
        elapsed[label] = time.perf_counter() - t0
        sims[label] = sim
    ref, fast = sims["reference"], sims["fast"]
    n_events = len(ref.events)

    # Same timeline: aggregate parity is asserted here; the per-field
    # bitwise diff lives in tests/harness/test_differential.py.
    assert len(fast.events) == n_events
    assert fast.makespan() == ref.makespan()
    assert probes["fast"] == probes["reference"]

    ref_eps = n_events / elapsed["reference"]
    fast_eps = n_events / elapsed["fast"]
    speedup = fast_eps / ref_eps
    _BENCH["explicit_16x64_dp8"] = {
        "pp": PP, "microbatches": NMB, "replicas": REPLICAS,
        "n_events": n_events,
        "reference_events_per_second": round(ref_eps),
        "fast_events_per_second": round(fast_eps),
        "speedup": round(speedup, 2),
        "floor_speedup": FLOOR_SPEEDUP,
        "floor_fast_events_per_second": FLOOR_FAST_EPS,
    }
    report.line("Explicit-replica throughput: 16-stage x 64-microbatch "
                f"pipeline, {REPLICAS} DP replicas ({world} ranks)")
    report.table(
        ["engine", "events", "elapsed s", "events/sec"],
        [(label, f"{n_events:,}", f"{elapsed[label]:.3f}", f"{eps:,.0f}")
         for label, eps in (("reference", ref_eps), ("fast", fast_eps))],
    )
    report.line(f"speedup: {speedup:.1f}x (floor {FLOOR_SPEEDUP:.0f}x)")
    report.line()

    assert speedup >= FLOOR_SPEEDUP, (
        f"fast engine is only {speedup:.1f}x the reference on the "
        f"acceptance workload (floor {FLOOR_SPEEDUP:.0f}x)")
    assert fast_eps >= FLOOR_FAST_EPS, (
        f"{fast_eps:,.0f} events/sec on the acceptance workload "
        f"(floor {FLOOR_FAST_EPS:,.0f})")


def test_131k_rank_collectives(report):
    world = 131_072
    rounds = 4
    ranks = list(range(world))
    sim = Simulator()
    t0 = time.perf_counter()
    for i in range(rounds):
        sim.run_collective(ranks, "dp", 0.01, f"ar{i}",
                           skew={7: 1e-4} if i == 0 else None)
    elapsed = time.perf_counter() - t0
    n_events = world * rounds
    eps = n_events / elapsed

    _BENCH["collectives_131k"] = {
        "world": world, "rounds": rounds,
        "n_events": n_events,
        "events_per_second": round(eps),
        "elapsed_seconds": round(elapsed, 3),
        "floor_events_per_second": FLOOR_COLLECTIVE_EPS,
    }
    report.line(f"131K-rank collectives: {rounds} full-world rounds")
    report.table(
        ["world", "events", "elapsed s", "events/sec"],
        [(f"{world:,}", f"{n_events:,}", f"{elapsed:.2f}",
          f"{eps:,.0f}")],
    )
    report.line()

    assert len(sim.events) == n_events
    assert sim.makespan() > 0.04  # four chained 0.01 s rounds
    assert eps >= FLOOR_COLLECTIVE_EPS, (
        f"{eps:,.0f} events/sec at 131K ranks "
        f"(floor {FLOOR_COLLECTIVE_EPS:,.0f})")


def test_zero_bubble_16x64(report):
    """Build + execute the split-backward zero-bubble schedule at the
    acceptance shape (16 stages x 64 microbatches): schedule-registry
    builders and the BI/BW lowering must not erode engine throughput."""
    from repro.pp.layout import build_layout
    from repro.pp.registry import schedule_entry
    from repro.pp.schedule import ScheduleShape
    from repro.train.cost import StageCost
    from repro.train.executor import execute_pipeline

    shape = ScheduleShape(pp=PP, v=1, nc=PP, nmb=NMB)
    t0 = time.perf_counter()
    schedule = schedule_entry("zero-bubble").builder(shape)
    build_elapsed = time.perf_counter() - t0

    layout = build_layout(n_layers=PP, pp=PP, v=1)
    t0 = time.perf_counter()
    run = execute_pipeline(
        schedule, layout,
        forward_cost=lambda s: StageCost(0.004 * s.n_layers, 0.0, 0.0),
        backward_cost=lambda s: StageCost(0.008 * s.n_layers, 0.0, 0.0),
        p2p_seconds=0.0003,
    )
    exec_elapsed = time.perf_counter() - t0
    n_events = len(run.sim.events)
    n_ops = sum(len(p) for p in schedule.programs)
    eps = n_events / exec_elapsed

    _BENCH["zero_bubble_16x64"] = {
        "pp": PP, "microbatches": NMB,
        "n_ops": n_ops, "n_events": n_events,
        "build_seconds": round(build_elapsed, 4),
        "execute_seconds": round(exec_elapsed, 4),
        "events_per_second": round(eps),
        "mean_bubble_ratio": round(run.mean_bubble_ratio, 4),
    }
    report.line("Zero-bubble build+execute: 16-stage x 64-microbatch "
                "split-backward schedule")
    report.table(
        ["ops", "events", "build s", "execute s", "events/sec", "bubble"],
        [(f"{n_ops:,}", f"{n_events:,}", f"{build_elapsed:.4f}",
          f"{exec_elapsed:.4f}", f"{eps:,.0f}",
          f"{run.mean_bubble_ratio:.3f}")],
    )
    report.line()

    # F + BI + BW per (stage, microbatch): the split must be explicit.
    assert n_ops == PP * NMB * 3
    assert run.mean_bubble_ratio < 0.2  # fills the 1F1B drain at nmb=4*pp


def test_write_bench_json(report):
    """Persist machine-readable results for the CI artifact upload.

    Runs last (file order) so earlier tests have populated _BENCH."""
    assert _BENCH, "benchmark sections did not run"
    RESULTS_DIR.mkdir(exist_ok=True)
    BENCH_JSON.write_text(
        json.dumps(_BENCH, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    report.line(f"machine-readable results -> {BENCH_JSON.name}")
