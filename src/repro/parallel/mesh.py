"""Device mesh: mapping between global ranks and parallel coordinates.

The order of dimensions is the paper's [TP, CP, PP, DP] (Section 5.2)
extended with expert parallelism nested between CP and PP — inner to
outer it is [TP, CP, EP, PP, DP].  TP ranks are adjacent global ranks
(same NVLink domain when ``tp <= gpus_per_node``), then CP, then EP (the
MoE all-to-all domain, kept inside PP so dispatch/combine rides the
fastest links the mesh allows), then PP, with DP outermost.  A global
rank decomposes as::

    rank = (((dp_idx * pp + pp_idx) * ep + ep_idx) * cp + cp_idx) * tp
           + tp_idx

With ``ep == 1`` (every dense model) this is bitwise the paper's 4D
decomposition ``rank = ((dp_idx * pp + pp_idx) * cp + cp_idx) * tp +
tp_idx``.

The mesh also constructs the process groups that both the simulator and
the trace-analysis tools (Section 6.1's top-down slow-rank search)
operate on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.parallel.config import ParallelConfig

#: Dimension names, innermost first.
DIM_ORDER = ("tp", "cp", "ep", "pp", "dp")


@dataclass(frozen=True)
class MeshCoord:
    """Coordinates of one rank.  ``ep`` defaults to 0 so 4D call sites
    (and every dense mesh) construct coordinates unchanged."""

    tp: int
    cp: int
    pp: int
    dp: int
    ep: int = 0

    def replace_dim(self, dim: str, value: int) -> "MeshCoord":
        parts = {"tp": self.tp, "cp": self.cp, "ep": self.ep,
                 "pp": self.pp, "dp": self.dp}
        if dim not in parts:
            raise ValueError(f"unknown dim {dim!r}")
        parts[dim] = value
        return MeshCoord(**parts)


class DeviceMesh:
    """Rank <-> coordinate mapping and process-group construction."""

    def __init__(self, parallel: ParallelConfig) -> None:
        self.parallel = parallel

    @property
    def world_size(self) -> int:
        return self.parallel.world_size

    def _sizes(self) -> Dict[str, int]:
        p = self.parallel
        return {"tp": p.tp, "cp": p.cp, "ep": p.ep, "pp": p.pp, "dp": p.dp}

    def coord_of(self, rank: int) -> MeshCoord:
        """Coordinates of a global rank."""
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range [0, {self.world_size})")
        p = self.parallel
        tp_idx = rank % p.tp
        cp_idx = (rank // p.tp) % p.cp
        ep_idx = (rank // (p.tp * p.cp)) % p.ep
        pp_idx = (rank // (p.tp * p.cp * p.ep)) % p.pp
        dp_idx = rank // (p.tp * p.cp * p.ep * p.pp)
        return MeshCoord(tp=tp_idx, cp=cp_idx, ep=ep_idx, pp=pp_idx,
                         dp=dp_idx)

    def rank_of(self, coord: MeshCoord) -> int:
        """Global rank of a coordinate."""
        p = self.parallel
        for dim in DIM_ORDER:
            idx, size = getattr(coord, dim), self._sizes()[dim]
            if not 0 <= idx < size:
                raise ValueError(f"{dim} index {idx} out of range [0, {size})")
        return (
            (((coord.dp * p.pp + coord.pp) * p.ep + coord.ep) * p.cp
             + coord.cp) * p.tp + coord.tp
        )

    def _stride_and_size(self, dim: str) -> Tuple[int, int]:
        """``dim``'s size and its stride: the rank distance between
        neighbours in ``dim``, the product of the sizes of every
        dimension inside it."""
        sizes = self._sizes()
        if dim not in sizes:
            raise ValueError(f"unknown dim {dim!r}; expected one of {DIM_ORDER}")
        stride = 1
        for inner in DIM_ORDER[:DIM_ORDER.index(dim)]:
            stride *= sizes[inner]
        return stride, sizes[dim]

    def group_of(self, rank: int, dim: str) -> List[int]:
        """Ranks in the same ``dim`` process group as ``rank``.

        E.g. ``group_of(r, "tp")`` is the TP group: all ranks differing
        from ``r`` only in their TP coordinate, in TP-index order.
        ``group_of(r, "ep")`` is the expert-parallel group the MoE
        all-to-all runs over.  Arithmetic: the group is ``base + i *
        stride`` where ``base`` is ``rank`` with its ``dim`` index zeroed.
        """
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range [0, {self.world_size})")
        stride, size = self._stride_and_size(dim)
        base = rank - (rank // stride) % size * stride
        return list(range(base, base + size * stride, stride))

    def all_groups(self, dim: str) -> List[List[int]]:
        """Every ``dim`` process group, each as an ordered rank list.

        Groups come in ascending order of their lowest rank ``base`` (the
        member with ``dim`` index 0); the bases are the runs of ``stride``
        consecutive ranks that start every ``stride * size`` ranks.
        """
        stride, size = self._stride_and_size(dim)
        block = stride * size
        return [
            list(range(base, base + block, stride))
            for outer in range(0, self.world_size, block)
            for base in range(outer, outer + stride)
        ]

    def dp_cp_group_of(self, rank: int) -> List[int]:
        """The combined DP x CP group used for parameter all-gather and
        gradient reduce-scatter (Section 4: CP extends DP for parameter
        communication).  The (tp, ep, pp) coordinates stay fixed: each EP
        rank owns disjoint experts, so its gradient shard group spans
        only the DP x CP replicas of the same expert shard."""
        coord = self.coord_of(rank)
        p = self.parallel
        ranks = []
        for dp_idx in range(p.dp):
            for cp_idx in range(p.cp):
                c = MeshCoord(tp=coord.tp, cp=cp_idx, ep=coord.ep,
                              pp=coord.pp, dp=dp_idx)
                ranks.append(self.rank_of(c))
        return ranks

    def pp_stage_ranks(self, pp_idx: int) -> List[int]:
        """All global ranks at one pipeline stage.

        Constructed arithmetically from the decomposition formula: for a
        fixed (dp, pp) the inner tp*cp*ep block is contiguous, so the
        stage is ``dp`` contiguous runs — O(result) instead of the old
        O(world_size) coord_of scan per query.
        """
        p = self.parallel
        if not 0 <= pp_idx < p.pp:
            raise ValueError(f"pp index {pp_idx} out of range")
        inner = p.tp * p.cp * p.ep
        return [
            (dp_idx * p.pp + pp_idx) * inner + i
            for dp_idx in range(p.dp)
            for i in range(inner)
        ]

    def pp_neighbor(self, rank: int, direction: int) -> int:
        """Rank holding the next (+1) or previous (-1) pipeline stage for
        the same (tp, cp, ep, dp) coordinates, wrapping at the ends."""
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        coord = self.coord_of(rank)
        new_pp = (coord.pp + direction) % self.parallel.pp
        return self.rank_of(coord.replace_dim("pp", new_pp))
