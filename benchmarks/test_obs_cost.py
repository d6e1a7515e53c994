"""Observability-cost gate: overlap accounting costs well under the
simulation it observes.

``repro faults`` splits every comm event into its overlapped and exposed
parts (Section 7.3.1's goal is to hide FSDP, TP and CP communication
under compute).  That accounting must stay a small fraction of the
``simulate_step`` that produced the timeline.  Both are timed in this
one process, best of 3, and gated on their ratio, which does not move
with the host's speed the way absolute times do.

Writes ``benchmarks/results/obs_cost.txt``.
"""

from __future__ import annotations

import time

import pytest

from repro.faults.goodput import exposed_comm_by_stream
from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B, LLAMA3_405B
from repro.obs.metrics import record_comm_overlap_metrics
from repro.parallel.config import JobConfig, ParallelConfig, ZeroStage
from repro.sim.engine import Simulator
from repro.train.step import simulate_step

#: Accounting time over simulation time.  Measured at 0.025-0.05 with
#: the merged-interval sweep on a 2-vCPU x86 host; the old O(comm x
#: compute) scan measured 6.9 (405B) and 6.1 (8 GPUs) there, so a
#: quadratic regression fails by more than 20x.
MAX_RATIO = 0.25
REPEATS = 3

#: (name, model, parallel, job): 405B on 16K GPUs with the flexible
#: schedule, and the default ``repro faults`` mesh.
CASES = (
    ("405b_16k_flexible", LLAMA3_405B,
     ParallelConfig(tp=8, cp=1, pp=16, dp=128, zero=ZeroStage.ZERO_2),
     JobConfig(seq=8192, gbs=2048, ngpu=16384)),
    ("faults_8gpu", LLAMA3_8B,
     ParallelConfig(tp=2, cp=2, pp=2, dp=1, zero=ZeroStage.ZERO_2),
     JobConfig(seq=8192, gbs=8, ngpu=8)),
)


def _best_of(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.parametrize("name,model,parallel,job", CASES,
                         ids=[c[0] for c in CASES])
def test_overlap_accounting_under_simulation(report, name, model, parallel,
                                             job):
    cluster = grand_teton(job.ngpu)
    sims = []

    def step() -> None:
        sims.append(Simulator())
        simulate_step(model, parallel, job, cluster, sim=sims[-1])

    step_s = _best_of(step)
    sim = sims[-1]
    n_events = len(sim.events)
    rows = []
    for label, fn in (("record_comm_overlap_metrics",
                       lambda: record_comm_overlap_metrics(sim)),
                      ("exposed_comm_by_stream",
                       lambda: exposed_comm_by_stream(sim))):
        ratio = _best_of(fn) / step_s
        rows.append((name, label, f"{n_events:,}", f"{step_s:.4f}",
                     f"{ratio:.3f}", f"{MAX_RATIO}"))
        assert ratio <= MAX_RATIO, (
            f"{label} on {name} costs {ratio:.2f}x simulate_step "
            f"(bound {MAX_RATIO})")
    if not report.lines:
        report.line("Overlap accounting over simulate_step of the same "
                    f"timeline, one process, best of {REPEATS}")
    report.table(["case", "accounting", "events", "step s",
                  "ratio", "bound"], rows)
