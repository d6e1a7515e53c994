"""Seeded request lists for the benchmark's workloads.

A workload is a list of strata.  A stratum is one kind of request with
a pool of variants of about the same cost (within about 1.1x of each
other on the parent commit), so that the seed changes what is asked but
not what a run costs.  A *cycle* holds ``count`` variants from every
stratum, in a seeded order, drawn from ``(workload, seed, cycle
index)``.  A run's request list is its first few cycles
(``request_list``); the benchmark answers that list once per round, each
round in its own seeded order (``round_order``).  The program sees only
the argv lists this module returns, each ending in ``--json``.

Every variant is a combination the CLI accepts: each ran with exit 0 and
passing checks when the pools were chosen, and the smoke test parses
them all and runs the tiny ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Tuple

Argv = Tuple[str, ...]


@dataclass(frozen=True)
class Stratum:
    name: str
    variants: Tuple[Argv, ...]
    #: Requests drawn from this stratum per cycle.
    count: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    strata: Tuple[Stratum, ...]
    #: Seconds one cycle takes in a typical round on the parent commit
    #: (2-vCPU x86_64 host, Python 3.11); sets how many cycles a run's
    #: request list holds.
    cycle_s: float
    #: One small request run in a fresh interpreter to time set-up.
    setup_request: Argv
    #: A tiny version of the same strata, for the smoke test.
    tiny: Tuple[Stratum, ...]


@dataclass(frozen=True)
class Request:
    stratum: str
    argv: Tuple[str, ...]


def _args(text: str) -> Argv:
    return tuple(text.split())


def _plans(*shapes: str, extra: str = "") -> Tuple[Argv, ...]:
    return tuple(_args(f"plan --cost-aware {s} {extra}") for s in shapes)


# --- plan-sweep --------------------------------------------------------

PLAN_SWEEP = Workload(
    name="plan-sweep",
    why=("plan --cost-aware for 70B at 1K-2K GPUs on 131K sequences (one "
         "--schedule all) and 405B-MoE at 4K GPUs: every candidate is a full "
         "simulate_step, so lowering and the engine dominate"),
    strata=(
        # Three of the five requests of a cycle are one long-context
        # plan, so the median is that plan; the MoE plan is the tail.
        Stratum("long-context", count=3, variants=_plans(
            "--model 70b --ngpu 2048 --seq 131072 --gbs 32")),
        Stratum("schedule-all", _plans(
            "--model 70b --ngpu 1024 --seq 131072 --gbs 16",
            extra="--schedule all")),
        # 405B-MoE at 4K GPUs, top-2 or top-1 routing.  (Table 2's
        # dense 405B@16K rows cost 0.6x-1.05x of these and peak 15% lower
        # in memory, so mixing them in would make the seed move both.)
        Stratum("405b-moe", _plans(
            "--model 405b --experts 16 --ngpu 4096 --seq 8192 --gbs 512",
            "--model 405b --experts 16 --top-k 1 --ngpu 4096 --seq 8192 "
            "--gbs 512")),
    ),
    cycle_s=7.5,
    setup_request=_args("plan --cost-aware --model 8b --ngpu 16 --gbs 8"),
    tiny=(
        Stratum("tiny-plan", _plans(
            "--model 8b --ngpu 16 --gbs 8",
            "--model 8b --ngpu 32 --gbs 16")),
        Stratum("tiny-schedule-all", _plans(
            "--model 8b --ngpu 16 --gbs 8", extra="--schedule all")),
    ),
)


# --- step-diagnose -----------------------------------------------------

_MESH_405B_16K = "--model 405b --ngpu 16384 --gbs 2048 --tp 8 --pp 16 --dp 128"
_MESH_70B_1K = "--model 70b --ngpu 1024 --gbs 256 --tp 8 --pp 4 --dp 32"
_MESH_8B_8 = "--model 8b --ngpu 8 --gbs 8 --tp 2 --cp 2 --pp 2 --dp 1"
_MESH_8B_64 = "--model 8b --ngpu 64 --gbs 32 --tp 4 --cp 1 --pp 4 --dp 4"
_MESH_MOE_64 = ("--model 8b --experts 8 --ep 2 --ngpu 64 --gbs 32 "
                "--tp 4 --cp 1 --pp 4 --dp 2")
_INTERLEAVED = ("flexible", "1f1b", "afab", "dip")
_FLAT = ("gpipe", "1f1b-noninterleaved", "zero-bubble")
_SCHEDULES = _INTERLEAVED + _FLAT

_STRAGGLERS = tuple(f"straggler:rank={r},extra={x}"
                    for r, x in product((1, 3, 5, 6), ("0.2", "0.5")))
# The faults the pools below draw from, chosen by each request's best
# time of five on the parent commit: each pool spans under 1.1x.
_STRAGGLERS_70B = ("straggler:rank=3,extra=0.2", "straggler:rank=3,extra=0.5",
                   "straggler:rank=5,extra=0.5", "straggler:rank=6,extra=0.2")
_STRAGGLERS_64 = ("straggler:rank=1,extra=0.2", "straggler:rank=1,extra=0.5",
                  "straggler:rank=3,extra=0.2", "straggler:rank=3,extra=0.5",
                  "straggler:rank=5,extra=0.2")
_FAULT_SPECS = (
    "straggler:rank=1,extra=0.2", "straggler:rank=1,extra=0.5",
    "straggler:rank=3,extra=0.2", "straggler:rank=5,extra=0.2",
    "straggler:rank=5,extra=0.5", "link:dim=cp,group=1,scale=1.5")


def _cmd(cmd: str, mesh: str, *rest: str) -> Argv:
    return _args(" ".join((cmd, mesh) + rest))


STEP_DIAGNOSE = Workload(
    name="step-diagnose",
    why=("step, analyze and faults over all 7 schedules and 8 to 16K "
         "GPUs: each structure is priced once or twice; the only workload "
         "that runs obs.metrics, faults.detect and analysis"),
    strata=(
        Stratum("step-405b-interleaved", tuple(
            _cmd("step", _MESH_405B_16K, f"--schedule {k}")
            for k in _INTERLEAVED)),
        Stratum("step-405b-flat", tuple(
            _cmd("step", _MESH_405B_16K, f"--schedule {k}")
            for k in _FLAT)),
        Stratum("step-mid", tuple(
            _cmd("step", mesh, f"--schedule {k}")
            for mesh in (_MESH_70B_1K, _MESH_8B_64, _MESH_8B_8)
            for k in _SCHEDULES)),
        Stratum("step-moe", tuple(
            _cmd("step", _MESH_MOE_64, f"--schedule {k}")
            for k in _SCHEDULES)),
        Stratum("analyze-405b", (_cmd("analyze", _MESH_405B_16K),)),
        Stratum("analyze-fault-70b", tuple(
            _cmd("analyze", _MESH_70B_1K, f"--fault {spec}")
            for spec in _STRAGGLERS_70B)),
        Stratum("analyze-fault-8b", tuple(
            _cmd("analyze", _MESH_8B_8, f"--fault {spec}")
            for spec in _STRAGGLERS)),
        # Four cheap strata below and five dearer ones above put the
        # median in the middle of the ~0.29 s group of the four faults-64
        # requests and faults-moe.
        Stratum("faults-preset", (_args("faults"),)),
        Stratum("faults-moe", (
            _args("faults --preset hot-expert-default --model 8b "
                  "--experts 8 --ep 2 --ngpu 8 --tp 2 --cp 1 --pp 2 --dp 1"),
        )),
        Stratum("faults-spec", tuple(
            _args(f"faults --fault {spec}") for spec in _FAULT_SPECS)),
        Stratum("faults-64", count=4, variants=tuple(
            _cmd("faults", _MESH_8B_64, f"--fault {spec}")
            for spec in _STRAGGLERS_64)),
    ),
    cycle_s=5.5,
    setup_request=_args(f"step {_MESH_8B_8}"),
    tiny=(
        Stratum("tiny-step", tuple(
            _cmd("step", _MESH_8B_8, f"--schedule {k}") for k in _SCHEDULES)),
        Stratum("tiny-analyze", (
            _cmd("analyze", _MESH_8B_8),
            _cmd("analyze", _MESH_8B_8, f"--fault {_STRAGGLERS[0]}"))),
        Stratum("tiny-faults", tuple(
            _args(f"faults --fault {spec}") for spec in _FAULT_SPECS[:3])),
    ),
)


# --- resilience-131k ---------------------------------------------------

# Failure seeds are pooled by what the run does with them on the parent
# commit (how many replans, how many gray failures), which sets a run's
# cost; a pool keeps one stratum's draws within about 1.1x of each other.
_RUN_131K = "run --ngpu 131072 --gbs 16384 --steps 20"
_RUN_405B = "run --model 405b --ngpu 16384 --gbs 2048 --steps 40"
_POLICIES = ("young-daly", "tiered:auto")
_MITIGATIONS = ("tolerate", "detect")
_T, _D, _Y, _A = "tolerate", "detect", "young-daly", "tiered:auto"
# (failure seed, policy, mitigation) of one-replan runs within 1.1x of
# each other in cost.
_IID_1 = ((0, _Y, _D), (0, _Y, _T), (0, _A, _D), (20, _Y, _D), (20, _Y, _T),
          (20, _A, _D), (20, _A, _T), (28, _Y, _T))
_RACK_1 = ((10, _Y, _D), (10, _Y, _T), (10, _A, _D), (10, _A, _T),
           (11, _Y, _D), (11, _Y, _T), (11, _A, _T))


def _runs(base: str, taxonomy: str, seeds: Tuple[int, ...],
          mitigations: Tuple[str, ...] = _MITIGATIONS,
          policies: Tuple[str, ...] = _POLICIES) -> Tuple[Argv, ...]:
    return tuple(
        _args(f"{base} --taxonomy {taxonomy} --seed {s} --policy {p} "
              f"--mitigation {m}")
        for s, p, m in product(seeds, policies, mitigations))


def _picked(base: str, taxonomy: str,
            combos: Tuple[Tuple[int, str, str], ...]) -> Tuple[Argv, ...]:
    return tuple(
        _args(f"{base} --taxonomy {taxonomy} --seed {s} --policy {p} "
              f"--mitigation {m}")
        for s, p, m in combos)


RESILIENCE_131K = Workload(
    name="resilience-131k",
    why=("run at 131K GPUs (8B) and 16K (405B) under fail-stop and gray "
         "failures: fail-stop runs are dominated by the replan scan, gray "
         "runs price one structure under many fault plans"),
    strata=(
        # One replan each: the six iid and rack runs of a cycle are its
        # cheapest requests, so the median lies at the top of that group.
        Stratum("failstop-iid", count=3, variants=_picked(
            _RUN_131K, "iid", _IID_1)),
        Stratum("failstop-rack", count=3, variants=_picked(
            _RUN_131K, "rack-correlated", _RACK_1)),
        Stratum("failstop-production", _runs(
            _RUN_131K, "production", (22, 24), ("tolerate",))),
        # Two replans each.
        Stratum("failstop-iid-2", _runs(_RUN_131K, "iid", (16, 22, 6))),
        # One gray failure each, no replan; the dearest requests of the
        # workload, so the tail.
        Stratum("gray-16k-detect", _runs(
            _RUN_405B, "gray-heavy", (16, 21), ("detect",),
            ("young-daly",))),
    ),
    cycle_s=8.0,
    setup_request=_args("run --steps 5"),
    tiny=(
        Stratum("tiny-run", tuple(
            _args(f"run --steps 10 --taxonomy {t} --seed {s} --policy {p} "
                  f"--mitigation {m}")
            for t, s, p, m in product(
                ("iid", "rack-correlated", "production", "gray-heavy"),
                (0, 1), _POLICIES, ("tolerate", "detect")))),
    ),
)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (PLAN_SWEEP, STEP_DIAGNOSE, RESILIENCE_131K)}


def cycle(workload: Workload, seed: int, index: int,
          tiny: bool = False) -> List[Request]:
    """Cycle ``index`` of the seeded request list: one variant from every
    stratum, shuffled.  The same arguments give the same list."""
    rng = random.Random(f"{workload.name}/{seed}/{index}")
    strata = workload.tiny if tiny else workload.strata
    requests = [Request(s.name, rng.choice(s.variants) + ("--json",))
                for s in strata for _ in range(s.count)]
    rng.shuffle(requests)
    return requests


def cycles_per_run(workload: Workload, seconds: float, rounds: int) -> int:
    """How many cycles a run's request list holds so that ``rounds``
    rounds of it take about ``seconds`` on the parent commit."""
    return max(1, round(seconds / rounds / workload.cycle_s))


def request_list(workload: Workload, seed: int, cycles: int,
                 tiny: bool = False) -> List[Request]:
    """A run's requests: its first ``cycles`` cycles, in order."""
    return [r for i in range(cycles)
            for r in cycle(workload, seed, i, tiny)]


def round_order(workload: Workload, seed: int, index: int,
                n: int) -> List[int]:
    """The seeded order in which round ``index`` answers a list of ``n``
    requests."""
    order = list(range(n))
    random.Random(f"{workload.name}/{seed}/round{index}").shuffle(order)
    return order
