"""Differential tests: merged-interval overlap sweep and arithmetic
process groups == their frozen references.

``record_comm_overlap_metrics`` must write exactly (``==``, plus sign of
zero) the gauges the old O(comm x compute) scan wrote, label for label
and in the same order, and ``exposed_comm_by_stream`` must return the
same per-stream sums.  ``DeviceMesh.group_of`` / ``all_groups`` must
return exactly the old scan's lists, for every dimension, over a grid of
mesh shapes that includes non-power-of-two sizes.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.faults.goodput import exposed_comm_by_stream
from repro.faults.models import ComputeStraggler, FaultPlan, parse_fault_spec
from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B
from repro.obs.metrics import (
    comm_overlap_seconds,
    pp_rank_map,
    record_comm_overlap_metrics,
)
from repro.parallel.config import JobConfig, ParallelConfig
from repro.parallel.mesh import DIM_ORDER, DeviceMesh
from repro.sim.engine import Simulator, TraceEvent
from repro.train.step import simulate_step
from tests.harness import reference_overlap
from tests.harness.diffing import floats_identical
from tests.harness.reference_overlap import ReferenceDeviceMesh
from tests.harness.workloads import DIFFERENTIAL_WORKLOADS, STANDARD_MESHES

GAUGES = ("comm.total_seconds", "comm.overlapped_seconds",
          "comm.exposed_seconds")


def _assert_same_accounting(sim, rank_map=None) -> int:
    """Pin the sweep to the frozen scan; return the number of labels."""
    ref = reference_overlap.record_comm_overlap_metrics(sim, rank_map=rank_map)
    new = record_comm_overlap_metrics(sim, rank_map=rank_map)
    for name in GAUGES:
        ref_items = list(ref.get(name).values.items())
        new_items = list(new.get(name).values.items())
        assert new_items == ref_items, name
        for (_, a), (_, b) in zip(ref_items, new_items):
            assert floats_identical(a, b), name
    ref_exposed = reference_overlap.exposed_comm_by_stream(sim)
    new_exposed = exposed_comm_by_stream(sim)
    assert list(new_exposed.items()) == list(ref_exposed.items())
    for stream, value in ref_exposed.items():
        assert floats_identical(value, new_exposed[stream]), stream
    return len(ref.get("comm.total_seconds").values)


# ----------------------------------------------------------------------
# Curated engine workloads
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", DIFFERENTIAL_WORKLOADS,
                         ids=lambda w: w.name)
def test_curated_workloads(workload):
    sim = Simulator()
    workload.fn(sim)
    _assert_same_accounting(sim)


def test_curated_workloads_have_comm():
    # Guard against the harness comparing empty gauge families: most
    # curated timelines carry comm events, and some of that comm hides
    # under compute.
    with_comm = hidden = 0
    for workload in DIFFERENTIAL_WORKLOADS:
        sim = Simulator()
        workload.fn(sim)
        rows = [row for streams in comm_overlap_seconds(sim).values()
                for row in streams.values()]
        with_comm += bool(rows)
        hidden += any(ov > 0.0 for _, ov in rows)
    assert with_comm >= len(DIFFERENTIAL_WORKLOADS) // 2
    assert hidden >= 3


# ----------------------------------------------------------------------
# simulate_step timelines
# ----------------------------------------------------------------------

_BASE = STANDARD_MESHES[0][1:]
_CP = STANDARD_MESHES[1][1:]

#: (name, model, parallel, job, ngpu, simulate_step kwargs).
STEP_CASES = (
    [(name, LLAMA3_8B, par, job, ngpu, {})
     for name, par, job, ngpu in STANDARD_MESHES]
    + [
        ("moe_ep2", LLAMA3_8B.moe_variant(8),
         ParallelConfig(tp=2, ep=2, pp=2, dp=1),
         JobConfig(seq=4096, gbs=8, ngpu=8), 8, {}),
        ("zero_bubble", LLAMA3_8B, *_BASE,
         {"schedule_kind": "zero-bubble"}),
        ("straggler", LLAMA3_8B, *_BASE,
         {"fault_plan": FaultPlan((
             ComputeStraggler(rank=2, extra_seconds=0.05),))}),
        ("link_cp", LLAMA3_8B, *_CP,
         {"fault_plan": FaultPlan((
             parse_fault_spec("link:dim=cp,group=0,scale=3.0"),))}),
        ("retry_ladders", LLAMA3_8B, *_CP,
         {"fault_plan": FaultPlan((
             parse_fault_spec("retry:dim=dp,retries=3,extra=0.05"),
             parse_fault_spec("retry:dim=cp,retries=2,extra=0.02,rank=1"),
         ))}),
    ]
)


@pytest.mark.parametrize("name,model,parallel,job,ngpu,kwargs", STEP_CASES,
                         ids=[c[0] for c in STEP_CASES])
def test_step_timelines(name, model, parallel, job, ngpu, kwargs):
    sim = Simulator()
    simulate_step(model, parallel, job, grand_teton(ngpu), sim=sim, **kwargs)
    assert _assert_same_accounting(sim) > 0
    assert _assert_same_accounting(sim, rank_map=pp_rank_map(parallel)) > 0


# ----------------------------------------------------------------------
# Seeded random intervals: the sweep's edge cases
# ----------------------------------------------------------------------

def _random_timeline(seed: int) -> Simulator:
    """Compute events that touch, nest and have zero length, plus comm
    events in gaps, starting exactly at compute ends, spanning many
    merged intervals, and of zero length — on a coarse grid so that
    equal endpoints are common."""
    rng = random.Random(seed)
    sim = Simulator()

    def grid() -> float:
        return rng.randrange(400) * 0.125

    for rank in range(3):
        ends = []
        t = 0.0
        for _ in range(40):
            t += rng.choice((0.0, 0.0, 0.125, 0.5, rng.random()))
            length = rng.choice((0.0, 0.125, 0.25, rng.random()))
            sim.record(TraceEvent("c", "compute", rank, "compute",
                                  t, t + length))
            ends.append(t + length)
            if rng.random() < 0.3:  # nested inside the event just made
                inner = t + length * rng.random()
                sim.record(TraceEvent("n", "compute", rank, "aux",
                                      inner, inner + (t + length - inner) / 2))
            t += length
        for i in range(60):
            stream = rng.choice(("tp", "cp", "dp"))
            shape = i % 5
            if shape == 0:  # starts exactly where a compute event ends
                start = rng.choice(ends)
                end = start + rng.choice((0.0, 0.125, rng.random()))
            elif shape == 1:  # spans many merged intervals
                start = rng.random() * t / 4
                end = start + t / 2
            elif shape == 2:  # zero length
                start = end = grid()
            else:
                start = grid() if rng.random() < 0.5 else rng.random() * t
                end = start + rng.choice((0.125, 1.0, rng.random()))
            sim.record(TraceEvent("m", "comm", rank, stream, start, end))
        # Comm wholly inside the gap past the last compute event.
        sim.record(TraceEvent("gap", "comm", rank, "dp", t + 1.0, t + 2.0))
    return sim


@pytest.mark.parametrize("seed", range(12))
def test_random_intervals(seed):
    assert _assert_same_accounting(_random_timeline(seed)) > 0


def test_sweep_edge_cases_by_hand():
    sim = Simulator()
    for start, end in ((0.0, 1.0), (1.0, 2.0), (0.5, 0.75), (3.0, 3.0),
                       (4.0, 5.0), (6.0, 7.0)):
        sim.record(TraceEvent("c", "compute", 0, "compute", start, end))
    for stream, start, end in (("gap", 2.5, 2.9),      # wholly in a gap
                               ("edge", 2.0, 2.5),     # starts at an end
                               ("zero", 4.5, 4.5),     # zero length
                               ("span", 1.5, 6.5)):    # many intervals
        sim.record(TraceEvent("m", "comm", 0, stream, start, end))
    rows = comm_overlap_seconds(sim)[0]
    assert list(rows) == ["edge", "gap", "span", "zero"]
    assert rows["gap"] == (2.9 - 2.5, 0.0)
    assert rows["edge"][1] == 0.0
    assert rows["zero"] == (0.0, 0.0)
    # Merged compute: (0, 2) [touching + nested], (3, 3), (4, 5), (6, 7).
    assert rows["span"] == (5.0, 0.5 + 1.0 + 0.5)
    _assert_same_accounting(sim)


# ----------------------------------------------------------------------
# Arithmetic process groups
# ----------------------------------------------------------------------

MESH_GRID = [
    ParallelConfig(tp=tp, cp=cp, ep=ep, pp=pp, dp=dp)
    for tp, cp, ep, pp, dp in itertools.product(
        (1, 2, 3), (1, 2), (1, 3), (1, 2, 5), (1, 3))
]


@pytest.mark.parametrize(
    "parallel", MESH_GRID,
    ids=lambda p: f"tp{p.tp}_cp{p.cp}_ep{p.ep}_pp{p.pp}_dp{p.dp}")
def test_groups_match_scan(parallel):
    mesh, ref = DeviceMesh(parallel), ReferenceDeviceMesh(parallel)
    for dim in DIM_ORDER:
        assert mesh.all_groups(dim) == ref.all_groups(dim), dim
        for rank in range(mesh.world_size):
            assert mesh.group_of(rank, dim) == ref.group_of(rank, dim)


def test_group_errors_match_scan():
    parallel = ParallelConfig(tp=3, cp=2, pp=5)
    for mesh_cls in (DeviceMesh, ReferenceDeviceMesh):
        mesh = mesh_cls(parallel)
        with pytest.raises(ValueError, match="unknown dim 'xx'"):
            mesh.group_of(0, "xx")
        with pytest.raises(ValueError, match="unknown dim 'xx'"):
            mesh.all_groups("xx")
        with pytest.raises(ValueError, match=r"rank 30 out of range"):
            mesh.group_of(30, "tp")
        with pytest.raises(ValueError, match=r"rank -1 out of range"):
            mesh.group_of(-1, "dp")
