"""The Section 5 parallelism planner.

Given a model, a training phase (GPU count, global token budget, sequence
length) and a cluster, derive the sizes of the four parallelism dimensions
the way Section 5.1 does:

1. **TP** — the smallest power of two that keeps ``bs >= 1`` given the
   batch-size constraint, capped at the node size so TP stays on NVLink.
2. **2D vs 3D** — reject 2D (ZeRO-3 + TP) when the per-token arithmetic
   intensity over FSDP communication is far below the hardware
   FLOPs-to-bandwidth ratio (the paper's 8K-token example: 8K FLOPs/byte
   vs ~19.78K).
3. **PP** — the smallest power of two whose per-rank memory estimate fits
   in HBM with headroom.
4. **CP** — the smallest power of two that restores ``bs >= pp`` for long
   sequences; DP is what CP replaces (TP and PP cannot shrink).
5. **ZeRO mode / schedule** — ZeRO-1 + 1F1B when ``bs >= 2 * pp``, else
   ZeRO-2 + all-forward-all-backward (Section 3.1.3).

For MoE models the cost-aware rerank adds **EP** as a planning axis: every
power-of-two divisor of the expert count joins the (tp, pp) sweep, and the
simulated timeline decides whether slicing experts across ranks (TP) or
spreading whole experts (EP, paying the token all-to-all) wins — the
trade flips toward EP as experts grow more numerous and smaller.  The
analytic first-fit path keeps ``ep=1`` (all experts resident per rank), so
dense planning and Table 2 are byte-identical to the 4D planner.

The planner records its reasoning as human-readable rationale lines so the
Table 2 benchmark can show *why* each number came out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from repro.hardware.cluster import ClusterSpec
from repro.model.config import TextModelConfig
from repro.parallel.config import JobConfig, ParallelConfig, ZeroStage
from repro.parallel.memory import estimate_rank_memory
from repro.pp.analysis import (
    ScheduleShape,
    default_nc,
    peak_in_flight_microbatches,
)
from repro.pp.registry import schedule_entry, schedule_kinds

#: Fraction of HBM the planner is willing to fill (the rest is reserve for
#: fragmentation, NCCL buffers, and CUDA context).
MEMORY_HEADROOM = 0.90


@dataclass(frozen=True)
class Plan:
    """Planner output: chosen sizes plus the reasoning trail."""

    parallel: ParallelConfig
    job: JobConfig
    bs: int
    virtual_stages: int
    schedule: str  # a registered schedule kind ("1f1b", "afab", ...)
    estimated_rank0_memory_gb: float
    rationale: List[str] = field(default_factory=list)
    #: ``cost_aware=True`` only: every (tp, pp[, ep]) candidate evaluated,
    #: the feasible ones ranked by simulated TFLOPs/GPU (best first).
    candidates: List[dict] = field(default_factory=list)

    def describe(self) -> str:
        lines = [self.parallel.describe(), f"bs={self.bs} schedule={self.schedule}"]
        lines.extend(f"  - {r}" for r in self.rationale)
        return "\n".join(lines)


def arithmetic_intensity_2d(seq: int, dtype_bytes: int = 2) -> float:
    """FLOPs per FSDP-ZeRO-3 communication byte at batch size 1 (Section
    5.1): each parameter costs ``dtype_bytes`` on the wire and contributes
    2 FLOPs per token in forward."""
    return 2.0 * seq / dtype_bytes


def hardware_flops_per_byte(cluster: ClusterSpec) -> float:
    """Peak compute over per-rank inter-node bandwidth — the ratio 2D
    parallelism must beat to hide FSDP communication (989K / 50 for the
    production cluster)."""
    return cluster.gpu.peak_flops / cluster.inter_node_bandwidth()


def _power_of_two_at_least(x: float) -> int:
    return 1 << max(0, math.ceil(math.log2(max(x, 1.0))))


def _rank0_memory_gb(
    model: TextModelConfig,
    parallel: ParallelConfig,
    job: JobConfig,
    v: int,
    nc: int,
    nmb: int,
) -> float:
    layers_rank0 = math.ceil(model.n_layers / parallel.pp)
    if parallel.pp == 1:
        # No pipeline: one micro-batch's activations alive at a time.
        v, in_flight = 1, 1
    else:
        in_flight = peak_in_flight_microbatches(
            parallel.pp, 0, v, min(nc, nmb), nmb,
            all_forward_all_backward=(nc < parallel.pp),
        )
    mem = estimate_rank_memory(
        model, parallel, job,
        layers_on_rank=layers_rank0,
        in_flight_microbatches=in_flight,
        virtual_stages=v,
        has_embedding=True,
        has_output_head=(parallel.pp == 1),
    )
    return mem.total_gb


def _evaluate_candidate(
    model: TextModelConfig,
    job: JobConfig,
    cluster: ClusterSpec,
    tp: int,
    pp: int,
    capacity_gb: float,
    schedule_kind: Optional[str] = None,
    ep: int = 1,
) -> dict:
    """Price one (tp, pp, ep) candidate end to end: derive cp/dp/bs/ZeRO
    the Section 5.1 way, gate on memory, then simulate a full step on the
    lowered timeline for its achieved TFLOPs/GPU.

    ``schedule_kind`` pins the pipeline schedule the candidate simulates
    under (any registered kind); None keeps the Section 3.1.3 family
    pick.  Kinds whose support set excludes the candidate's shape (after
    the registry ``constrain`` hook coerces what it can, e.g. ``v = 1``
    for the classic schedules) come back infeasible with the registry's
    reason.
    """
    from repro.train.step import simulate_step  # deferred: train -> parallel

    cand: dict = {"tp": tp, "pp": pp, "ep": ep, "cp": None, "dp": None,
                  "bs": None, "schedule": None,
                  "schedule_kind": schedule_kind,
                  "zero": None, "memory_gb": None,
                  "tflops_per_gpu": None, "feasible": False, "reason": ""}
    cp_needed = job.ngpu / (job.gbs * tp)
    cp = _power_of_two_at_least(cp_needed) if cp_needed > 1 else 1
    cand["cp"] = cp
    if job.ngpu % (tp * cp * ep * pp) != 0:
        cand["reason"] = f"ngpu={job.ngpu} not divisible by tp*cp*ep*pp"
        return cand
    dp = job.ngpu // (tp * cp * ep * pp)
    bs = job.gbs // (dp * ep)  # EP ranks carry distinct micro-batches
    cand.update(dp=dp, bs=bs)
    if dp < 1 or bs < 1:
        cand["reason"] = "batch constraint leaves bs < 1"
        return cand
    if bs >= 2 * pp:
        zero, schedule = ZeroStage.ZERO_1, "1f1b"
    else:
        zero, schedule = ZeroStage.ZERO_2, "afab"
    cand.update(schedule=schedule, zero=zero.value)
    # Memory gate: same trial as the Section 5.1 first-fit's step 3 —
    # ZeRO-1 gradient residency at cp=1 — so cost-aware only re-ranks
    # depths the analytic derivation already considers safe rather than
    # admitting ones that fit solely under the ZeRO-2/AFAB fallback.
    v = math.ceil(model.n_layers / pp)
    dp_cp = job.ngpu // (tp * ep * pp)
    trial = ParallelConfig(tp=tp, cp=1, ep=ep, pp=pp, dp=dp_cp,
                           zero=ZeroStage.ZERO_1)
    bs_trial = max(job.gbs // (dp_cp * ep), 1)
    nmb_trial = max(bs_trial // job.mbs, 1)
    mem_gb = _rank0_memory_gb(model, trial, job, v,
                              default_nc(pp, nmb_trial), nmb_trial)
    cand["memory_gb"] = mem_gb
    if mem_gb > capacity_gb:
        cand["reason"] = (
            f"rank-0 peak {mem_gb:.1f} GiB exceeds "
            f"{capacity_gb:.0f} GiB usable HBM")
        return cand
    parallel = ParallelConfig(tp=tp, cp=cp, ep=ep, pp=pp, dp=dp, zero=zero)
    kind = schedule_kind if schedule_kind is not None else schedule
    cand["schedule_kind"] = kind
    # Coerce the candidate shape into the kind's support set where the
    # registry can (v, nc); a kind that needs a different micro-batch
    # count than the batch allows is simply infeasible here.
    nmb = max(bs // job.mbs, 1)
    shape = ScheduleShape(pp=pp, v=v, nc=default_nc(pp, nmb), nmb=nmb)
    entry = schedule_entry(kind)
    if entry.constrain is not None:
        constrained = entry.constrain(shape)
        if constrained.nmb != nmb:
            cand["reason"] = (
                f"schedule {kind!r} needs nmb={constrained.nmb}, "
                f"batch gives nmb={nmb}")
            return cand
        shape = constrained
    sim_v, sim_nc = shape.v, shape.nc
    reason = entry.unsupported_reason(shape)
    if reason:
        cand["reason"] = f"schedule {kind!r} unsupported: {reason}"
        return cand
    cand["v"] = sim_v
    try:
        rep = simulate_step(model, parallel, job, cluster,
                            schedule_kind=kind, v=sim_v, nc=sim_nc)
    except (ValueError, RuntimeError) as exc:
        cand["reason"] = f"simulation failed: {exc}"
        return cand
    cand.update(tflops_per_gpu=rep.tflops_per_gpu, feasible=True)
    return cand


def plan_parallelism(
    model: TextModelConfig,
    job: JobConfig,
    cluster: ClusterSpec,
    max_pp: int = 64,
    cost_aware: bool = False,
    schedule_kind: Optional[str] = None,
) -> Plan:
    """Derive the 4D parallelism configuration for a training phase.

    Reproduces Table 2: for the 405B model on 16,384 GPUs it returns
    (tp=8, cp=1, pp=16, dp=128) at seq 8K / gbs 2048, and
    (tp=8, cp=16, pp=16, dp=8) at seq 131K / gbs 128.

    With ``cost_aware=True``, the first-fit choice is replaced by a
    simulated-throughput ranking: every (tp, pp) power-of-two pair is
    priced by lowering and executing a full step timeline
    (:func:`repro.train.step.simulate_step` — the same path
    ``pp.autotune`` and ``hardware.whatif`` use), and the feasible
    candidate with the highest TFLOPs/GPU wins.  All candidates, with
    per-candidate infeasibility reasons, land in ``Plan.candidates``.
    For MoE models the sweep also covers EP (power-of-two divisors of the
    expert count), so the planner decides the EP-vs-TP placement of the
    expert FFNs on simulated evidence.

    ``schedule_kind`` adds the schedule as a planning axis: a registered
    kind pins what cost-aware candidates simulate under, and ``"all"``
    sweeps every registered kind per (tp, pp) pair so the ranking can
    trade pipeline depth against schedule shape.  The analytic (non
    cost-aware) derivation is schedule-independent, so Table 2 is
    reproduced unchanged for any pinned kind.
    """
    if job.ngpu > cluster.num_gpus:
        raise ValueError(
            f"job wants {job.ngpu} GPUs but cluster has {cluster.num_gpus}"
        )
    if schedule_kind is not None and schedule_kind != "all":
        schedule_entry(schedule_kind)  # raises on unknown kinds
    rationale: List[str] = []

    # --- Step 1: TP --------------------------------------------------
    # bs = gbs * tp * pp * cp / ngpu, so requiring bs >= pp with cp = 1
    # gives tp >= ngpu / gbs (the pp terms cancel — the paper's Section
    # 5.1 derivation).  TP is capped at the node size so its fully
    # exposed collectives stay on NVLink; any remaining shortfall is
    # CP's job in step 4.
    node = cluster.gpus_per_node
    tp_needed = _power_of_two_at_least(job.ngpu / job.gbs)
    tp_min = min(tp_needed, node)

    # --- Step 2: 2D vs 3D --------------------------------------------
    ai = arithmetic_intensity_2d(job.seq)
    hw = hardware_flops_per_byte(cluster)
    use_3d = ai < hw
    if use_3d:
        rationale.append(
            f"3D over 2D: arithmetic intensity {ai:,.0f} FLOPs/byte < "
            f"hardware ratio {hw:,.0f}; FSDP ZeRO-3 comm cannot hide "
            "(Section 5.1)"
        )
    else:
        rationale.append(
            f"2D viable: arithmetic intensity {ai:,.0f} >= hardware ratio "
            f"{hw:,.0f}"
        )

    # --- Step 3: TP and PP (and EP for MoE) to fit memory --------------
    # Start from the batch-minimal TP; if no pipeline depth fits, escalate
    # TP toward the node size (more TP halves per-rank weights and
    # activations) before giving up.  MoE models get an inner EP
    # escalation: spreading whole experts across EP ranks divides the
    # expert weights the way deeper PP divides the layers, so a model
    # whose replicated experts overflow HBM can still fit.  Dense models
    # have an EP axis of (1,), leaving the 4D derivation untouched.
    capacity = cluster.gpu.hbm_capacity_gb * MEMORY_HEADROOM
    ep_axis = _ep_axis(model, job)
    chosen_pp: Optional[int] = None
    ep = 1
    tp = tp_min
    while tp <= node:
        pp = 1
        while pp <= max_pp and tp * pp <= job.ngpu:
            # Candidate: v = one layer per virtual stage.
            layers_per_rank = math.ceil(model.n_layers / pp)
            v = layers_per_rank
            for trial_ep in ep_axis:
                dp_cp = job.ngpu // (tp * trial_ep * pp)
                if dp_cp < 1:
                    continue
                trial = ParallelConfig(tp=tp, cp=1, ep=trial_ep, pp=pp,
                                       dp=dp_cp, zero=ZeroStage.ZERO_1)
                bs = max(job.gbs // (dp_cp * trial_ep), 1)
                nmb = max(bs // job.mbs, 1)
                nc = default_nc(pp, nmb)
                mem_gb = _rank0_memory_gb(model, trial, job, v, nc, nmb)
                if mem_gb <= capacity:
                    chosen_pp, ep = pp, trial_ep
                    break
            if chosen_pp is not None:
                break
            pp *= 2
        if chosen_pp is not None:
            break
        tp *= 2
    if chosen_pp is None:
        raise ValueError(
            "no (tp, pp) combination fits the model in memory on this cluster"
        )
    pp = chosen_pp
    if ep > 1:
        rationale.append(
            f"ep={ep}: {model.n_experts} experts overflow HBM replicated; "
            f"spreading {model.n_experts // ep} per rank over EP fits "
            "(paying the token all-to-all)"
        )
    rationale.insert(0, (
        f"tp={tp}: batch constraint needs tp*cp >= ngpu/gbs = "
        f"{job.ngpu / job.gbs:.0f} (minimum tp={tp_min}); tp capped at "
        f"node size {node} to keep TP on NVLink, escalated as needed to "
        "fit memory (Section 5.1)"
    ))
    rationale.append(
        f"pp={pp}: first power of two where rank-0 peak "
        f"{mem_gb:.1f} GiB fits in {capacity:.0f} GiB usable HBM"
    )
    layers_per_rank = math.ceil(model.n_layers / pp)
    v = layers_per_rank

    # --- Step 4: CP to restore bs >= pp -------------------------------
    # cp >= ngpu / (gbs * tp) gives bs >= pp with the chosen tp, pp.
    cp_needed = job.ngpu / (job.gbs * tp)
    cp = _power_of_two_at_least(cp_needed) if cp_needed > 1 else 1
    if cp > 1:
        rationale.append(
            f"cp={cp}: long-context gbs={job.gbs} leaves bs < pp without "
            f"CP; cp >= ngpu/(gbs*tp) = {cp_needed:.0f} restores bs >= pp "
            "by replacing DP (Section 5.1)"
        )
    else:
        rationale.append("cp=1: gbs is large enough that bs >= pp without CP")

    dp = job.ngpu // (tp * cp * ep * pp)
    if dp < 1:
        # Step 3 keeps tp*ep*pp <= ngpu, so only CP can overflow the job.
        raise ValueError(
            f"gbs={job.gbs} is too small for ngpu={job.ngpu}: bs >= pp "
            f"needs cp={cp} (ngpu/(gbs*tp) = {cp_needed:.0f}, rounded up to "
            f"a power of two), and tp*cp*ep*pp = {tp * cp * ep * pp} "
            f"exceeds ngpu"
        )
    if tp * cp * ep * pp * dp != job.ngpu:
        raise ValueError(
            f"ngpu={job.ngpu} not divisible by tp*cp*ep*pp = "
            f"{tp * cp * ep * pp}"
        )
    bs = job.gbs // (dp * ep)

    # --- Step 5: ZeRO mode and schedule (Section 3.1.3) ----------------
    if bs >= 2 * pp:
        zero, schedule = ZeroStage.ZERO_1, "1f1b"
        rationale.append(
            f"ZeRO-1 + 1F1B: bs={bs} >= 2*pp={2 * pp}; keep gradients "
            "unsharded to avoid reduce-scatter traffic (Section 3.1.3)"
        )
    else:
        zero, schedule = ZeroStage.ZERO_2, "afab"
        rationale.append(
            f"ZeRO-2 + all-forward-all-backward: bs={bs} < 2*pp={2 * pp}; "
            "reshard gradients to save memory (Section 3.1.3)"
        )

    parallel = ParallelConfig(tp=tp, cp=cp, ep=ep, pp=pp, dp=dp, zero=zero)
    nmb = bs // job.mbs
    nc = default_nc(pp, nmb)
    mem_gb = _rank0_memory_gb(model, parallel, job, v, nc, nmb)
    plan = Plan(
        parallel=parallel,
        job=job,
        bs=bs,
        virtual_stages=v,
        schedule=schedule,
        estimated_rank0_memory_gb=mem_gb,
        rationale=rationale,
    )
    if not cost_aware:
        return plan
    return _cost_aware_rerank(
        model, job, cluster, plan, rationale, tp_min, node, max_pp, capacity,
        schedule_kind=schedule_kind)


def _schedule_axis(schedule_kind: Optional[str]) -> Sequence[Optional[str]]:
    """The schedule kinds a cost-aware rerank sweeps per (tp, pp) pair."""
    if schedule_kind is None:
        return (None,)  # the Section 3.1.3 family pick, as before
    if schedule_kind == "all":
        return schedule_kinds()
    return (schedule_kind,)


def _ep_axis(model: TextModelConfig, job: JobConfig) -> Sequence[int]:
    """The expert-parallel sizes a cost-aware rerank sweeps.

    Dense models have no experts to spread, so the axis collapses to
    ``(1,)`` and the sweep is byte-identical to the 4D planner.  For MoE
    models every power of two that divides the expert count (each EP rank
    must own a whole number of experts) and fits in the GPU budget joins
    the sweep.
    """
    if not model.is_moe:
        return (1,)
    axis = [1]
    ep = 2
    while ep <= model.n_experts and ep <= job.ngpu:
        if model.n_experts % ep == 0:
            axis.append(ep)
        ep *= 2
    return tuple(axis)


def _cost_aware_rerank(
    model: TextModelConfig,
    job: JobConfig,
    cluster: ClusterSpec,
    plan: Plan,
    rationale: List[str],
    tp_min: int,
    node: int,
    max_pp: int,
    capacity: float,
    schedule_kind: Optional[str] = None,
) -> Plan:

    # --- Cost-aware re-ranking -----------------------------------------
    # Price every (tp, pp) pair — times every schedule kind on the axis,
    # times every EP size for MoE models — on the simulated timeline and
    # let throughput, not first-fit order, pick the winner.
    candidates: List[dict] = []
    ep_axis = _ep_axis(model, job)
    cand_tp = tp_min
    while cand_tp <= node:
        cand_pp = 1
        while cand_pp <= max_pp and cand_tp * cand_pp <= job.ngpu:
            for cand_ep in ep_axis:
                if cand_tp * cand_pp * cand_ep > job.ngpu:
                    continue
                for kind in _schedule_axis(schedule_kind):
                    candidates.append(_evaluate_candidate(
                        model, job, cluster, cand_tp, cand_pp, capacity,
                        schedule_kind=kind, ep=cand_ep))
            cand_pp *= 2
        cand_tp *= 2
    candidates.sort(
        key=lambda c: (not c["feasible"], -(c["tflops_per_gpu"] or 0.0)))
    feasible = [c for c in candidates if c["feasible"]]
    if not feasible:
        return replace(plan, candidates=candidates, rationale=rationale + [
            "cost-aware: no candidate survived memory and simulation; "
            "keeping the first-fit plan"])
    best = feasible[0]
    chosen = ParallelConfig(
        tp=best["tp"], cp=best["cp"], ep=best.get("ep", 1), pp=best["pp"],
        dp=best["dp"], zero=ZeroStage(best["zero"]))
    best_v = best.get("v") or math.ceil(model.n_layers / chosen.pp)
    best_nmb = max(best["bs"] // job.mbs, 1)
    best_nc = default_nc(chosen.pp, best_nmb)
    best_schedule = (best["schedule_kind"] if schedule_kind is not None
                     else best["schedule"])
    return Plan(
        parallel=chosen,
        job=job,
        bs=best["bs"],
        virtual_stages=best_v,
        schedule=best_schedule,
        estimated_rank0_memory_gb=_rank0_memory_gb(
            model, chosen, job, best_v, best_nc, best_nmb),
        rationale=rationale + [
            f"cost-aware: tp={chosen.tp} pp={chosen.pp}"
            + (f" ep={chosen.ep}" if chosen.ep > 1 else "")
            + f" schedule={best['schedule_kind']} wins at "
            f"{best['tflops_per_gpu']:.0f} TFLOPs/GPU over "
            f"{len(feasible)} feasible of {len(candidates)} candidates"],
        candidates=candidates,
    )


def replan_for_gpu_count(
    model: TextModelConfig,
    job: JobConfig,
    cluster: ClusterSpec,
    max_ngpu: int,
    max_pp: int = 64,
    cost_aware: bool = False,
) -> Plan:
    """Replan after permanent capacity loss: the elastic-restart path.

    Finds the largest node-aligned GPU count ``<= max_ngpu`` for which
    Section 5.1 yields a schedulable plan, stepping down one node at a
    time past counts the divisibility constraints reject (e.g. a gbs the
    shrunken dp no longer divides).  The job keeps its gbs and sequence
    length — the paper's phases fix the token budget per step, so losing
    nodes shows up as a slower step, not a smaller batch.

    Raises ``ValueError`` when no node-aligned count down to one node
    admits a plan.
    """
    node = cluster.gpus_per_node
    for ngpu in range(max_ngpu - max_ngpu % node, 0, -node):
        shrunk_job = replace(job, ngpu=ngpu)
        shrunk_cluster = replace(cluster, num_nodes=ngpu // node)
        try:
            plan = plan_parallelism(model, shrunk_job, shrunk_cluster,
                                    max_pp=max_pp, cost_aware=cost_aware)
            # A plan is only usable if the schedule can actually split
            # the batch into whole micro-batches.
            shrunk_job.micro_batches(plan.parallel)
        except ValueError:
            continue
        return plan
    raise ValueError(
        f"no feasible plan at or below {max_ngpu} GPUs "
        f"({node} per node) for this job")
