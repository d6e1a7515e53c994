"""FROZEN references — the pre-sweep overlap accounting and the pre-
arithmetic process-group scan, verbatim.

``record_comm_overlap_metrics`` (with its ``_merged_intervals`` helper)
and ``exposed_comm_by_stream`` are the implementations
``repro.obs.metrics`` and ``repro.faults.goodput`` shipped before the
overlap accounting became a merged-interval sweep: every comm event
scans every merged compute interval of its rank, O(comm x compute).
``ReferenceDeviceMesh`` keeps ``DeviceMesh``'s coordinate arithmetic but
restores the old ``group_of`` / ``all_groups``, which rebuild each group
through ``coord_of`` / ``rank_of`` / ``replace_dim`` and deduplicate a
scan over every rank.  Only this header, the imports, and the subclass
line around the two methods were added.  Do NOT edit the bodies to track
the library — their value is that they do not move; the differential
tests in ``test_overlap_differential.py`` pin the library to them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.parallel.mesh import DIM_ORDER, DeviceMesh
from repro.sim.engine import Simulator


def _merged_intervals(spans) -> List[Tuple[float, float]]:
    """Merge possibly-overlapping (start, end) spans into disjoint ones."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def record_comm_overlap_metrics(
    sim: Simulator,
    registry: Optional[MetricsRegistry] = None,
    rank_map: Optional[Dict[int, int]] = None,
) -> MetricsRegistry:
    """Per-stream overlapped-vs-exposed communication accounting.

    For every rank and comm stream, splits each ``comm``-kind event's span
    into the part covered by that rank's compute events (overlapped — the
    Section 7.3.1 goal state) and the remainder (exposed on the timeline,
    even if nothing explicitly waited on it).  Writes, labeled by (mapped)
    rank and stream:

    * ``comm.total_seconds`` — comm-event span time;
    * ``comm.overlapped_seconds`` — the part hidden under compute;
    * ``comm.exposed_seconds`` — the part outside any compute event.
    """
    registry = registry or MetricsRegistry()
    rank_map = rank_map or {}
    total = registry.gauge(
        "comm.total_seconds", unit="s",
        description="comm time per rank and stream")
    overlapped = registry.gauge(
        "comm.overlapped_seconds", unit="s",
        description="comm time hidden under compute, per rank and stream")
    exposed = registry.gauge(
        "comm.exposed_seconds", unit="s",
        description="comm time outside any compute event, per rank/stream")
    for rank in sorted({e.rank for e in sim.events}):
        compute = _merged_intervals(
            (e.start, e.end) for e in sim.events_for(rank, kind="compute"))
        by_stream: Dict[str, Tuple[float, float]] = {}
        for event in sim.events_for(rank, kind="comm"):
            hidden = sum(
                max(0.0, min(event.end, ce) - max(event.start, cs))
                for cs, ce in compute
            )
            tot_s, ov_s = by_stream.get(event.stream, (0.0, 0.0))
            by_stream[event.stream] = (tot_s + event.duration, ov_s + hidden)
        label = rank_map.get(rank, rank)
        for stream, (tot_s, ov_s) in sorted(by_stream.items()):
            total.set(tot_s, rank=label, stream=stream)
            overlapped.set(ov_s, rank=label, stream=stream)
            exposed.set(tot_s - ov_s, rank=label, stream=stream)
    return registry


def exposed_comm_by_stream(sim: Simulator) -> Dict[str, float]:
    """Exposed communication seconds per stream, summed over ranks.

    Per-stream ``comm``-kind exposure comes from the overlap accounting
    (:func:`repro.obs.metrics.record_comm_overlap_metrics` — the part of
    each collective outside any compute event); synthesized
    ``exposed_comm`` waits (P2P input gaps) are added under their own
    stream (``"wait"`` on the step-graph path).
    """
    registry = record_comm_overlap_metrics(sim)
    out: Dict[str, float] = {}
    if "comm.exposed_seconds" in registry:
        for labels, value in registry.get("comm.exposed_seconds").values.items():
            stream = dict(labels)["stream"]
            out[stream] = out.get(stream, 0.0) + value
    for event in sim.events:
        if event.kind == "exposed_comm":
            out[event.stream] = out.get(event.stream, 0.0) + event.duration
    return out


class ReferenceDeviceMesh(DeviceMesh):
    """``DeviceMesh`` with the old scanning process-group construction."""

    def group_of(self, rank: int, dim: str) -> List[int]:
        """Ranks in the same ``dim`` process group as ``rank``.

        E.g. ``group_of(r, "tp")`` is the TP group: all ranks differing
        from ``r`` only in their TP coordinate, in TP-index order.
        ``group_of(r, "ep")`` is the expert-parallel group the MoE
        all-to-all runs over.
        """
        coord = self.coord_of(rank)
        size = self._sizes().get(dim)
        if size is None:
            raise ValueError(f"unknown dim {dim!r}; expected one of {DIM_ORDER}")
        return [
            self.rank_of(coord.replace_dim(dim, i)) for i in range(size)
        ]

    def all_groups(self, dim: str) -> List[List[int]]:
        """Every ``dim`` process group, each as an ordered rank list."""
        seen = set()
        groups = []
        for rank in range(self.world_size):
            group = tuple(self.group_of(rank, dim))
            if group not in seen:
                seen.add(group)
                groups.append(list(group))
        return groups
