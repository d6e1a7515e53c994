"""Differential engine fuzzing: fast simulator vs the frozen reference.

The fast path in :mod:`repro.sim.engine` promises *bitwise* equivalence
with the pre-optimisation engine, which is frozen verbatim in
``tests/harness/reference_engine.py``.  This module samples random
submission sequences — ``run`` tasks with dependency fans, synchronising
collectives with skew/retry ladders, ``advance`` stalls, ``record``
splices, and stateful duration-modifier chains — replays each sequence
through both engines, and diffs every observable: each
:class:`TraceEvent` field, global and per-rank makespans, per-stream
busy/idle accounting, and the ``events_for`` views.

:func:`engine_campaign` runs on :func:`repro.verify.campaign.run_campaign`
like every other campaign, so a failure's seed plus its shrunk sequence
is a complete reproduction recipe.  Shrink moves drop whole submissions
(dependency references onto dropped submissions are patched out) and
simplify the survivors (deps, skew, retries, tags stripped one at a
time).

The ``engine`` hook mirrors the schedule campaign's ``build`` hook:
injecting a deliberately corrupted fast engine must make the harness
report and shrink the divergence — that is how the harness itself is
verified.
"""

from __future__ import annotations

import importlib.util
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.sim.engine import Simulator
from repro.verify.campaign import Campaign, Failure

#: Streams the fuzzer submits onto — the ones real lowerings use.
_STREAMS = ("compute", "tp", "p2p", "fsdp")

#: Cap on divergences reported per case.
_MAX_PROBLEMS = 12


# ----------------------------------------------------------------------
# Loading the frozen reference engine
# ----------------------------------------------------------------------

def load_reference_simulator() -> type:
    """The frozen pre-fast-path ``Simulator`` from ``tests/harness``.

    Tries the package import first (works when the repo root is on
    ``sys.path``, e.g. under pytest or ``python -m repro`` from a
    checkout), then falls back to a file-path import relative to this
    source tree.  Raises ``RuntimeError`` outside a source checkout —
    engine fuzzing is a development/CI verification, not a runtime
    feature.
    """
    try:
        from tests.harness.reference_engine import ReferenceSimulator
        return ReferenceSimulator
    except ImportError:
        pass
    path = (Path(__file__).resolve().parents[3]
            / "tests" / "harness" / "reference_engine.py")
    if not path.exists():
        raise RuntimeError(
            "engine fuzzing needs the frozen reference engine at "
            f"{path}, which only exists in a source checkout")
    spec = importlib.util.spec_from_file_location(
        "_repro_reference_engine", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ReferenceSimulator


# ----------------------------------------------------------------------
# Submission sequences
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SubmitOp:
    """One replayable engine submission.

    ``deps`` name *producer uids* (stable across shrinking), not list
    positions: dropping a submission simply drops its uid from every
    later ``deps`` tuple instead of renumbering the sequence.
    """

    uid: int
    op: str  # "run" | "collective" | "advance" | "record"
    rank: int = 0
    ranks: Tuple[int, ...] = ()
    stream: str = "compute"
    duration: float = 0.0
    name: str = ""
    kind: str = "compute"
    deps: Tuple[int, ...] = ()
    not_before: float = 0.0
    skew: Tuple[Tuple[int, float], ...] = ()
    tags: Tuple[str, ...] = ()
    failed_attempts: int = 0
    start: float = 0.0  # record only
    end: float = 0.0    # record only

    def describe(self) -> str:
        if self.op == "run":
            return (f"run(uid={self.uid}, rank={self.rank}, "
                    f"stream={self.stream!r}, duration={self.duration!r}, "
                    f"deps={self.deps}, not_before={self.not_before!r}, "
                    f"tags={self.tags})")
        if self.op == "collective":
            return (f"collective(uid={self.uid}, ranks={self.ranks}, "
                    f"stream={self.stream!r}, duration={self.duration!r}, "
                    f"deps={self.deps}, skew={self.skew}, "
                    f"failed_attempts={self.failed_attempts})")
        if self.op == "advance":
            return (f"advance(uid={self.uid}, rank={self.rank}, "
                    f"stream={self.stream!r}, until={self.duration!r})")
        return (f"record(uid={self.uid}, rank={self.rank}, "
                f"stream={self.stream!r}, start={self.start!r}, "
                f"end={self.end!r})")

    def to_dict(self) -> dict:
        out = {"uid": self.uid, "op": self.op}
        for key in ("rank", "ranks", "stream", "duration", "name", "kind",
                    "deps", "not_before", "skew", "tags",
                    "failed_attempts", "start", "end"):
            value = getattr(self, key)
            if value not in ((), 0, 0.0, ""):
                out[key] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass(frozen=True)
class EngineFuzzCase:
    """One sampled submission sequence plus its modifier chain."""

    ops: Tuple[SubmitOp, ...]
    #: Modifier specs, rebuilt as fresh closures per replay so stateful
    #: modifiers (one-shot) behave identically on both engines.
    modifiers: Tuple[Tuple[str, int, float], ...] = ()

    @property
    def cost(self) -> int:
        """Size measure the shrinker minimises."""
        return (len(self.ops) + len(self.modifiers)
                + sum(len(op.deps) + len(op.skew) + op.failed_attempts
                      for op in self.ops))

    def describe(self) -> str:
        lines = [f"modifiers: {list(self.modifiers)}"] if self.modifiers \
            else []
        lines += [op.describe() for op in self.ops]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "modifiers": [list(m) for m in self.modifiers],
            "ops": [op.to_dict() for op in self.ops],
        }


def _build_modifier(spec: Tuple[str, int, float]):
    """A fresh modifier closure from its spec (stateful ones included)."""
    mod_kind, target_rank, value = spec
    if mod_kind == "scale":
        def scale(rank, stream, kind, name, duration):
            return duration * value if rank == target_rank else duration
        return scale
    if mod_kind == "add":
        def add(rank, stream, kind, name, duration):
            return duration + value if rank == target_rank else duration
        return add
    if mod_kind == "one_shot":
        state = {"fired": False}

        def one_shot(rank, stream, kind, name, duration):
            if not state["fired"] and rank == target_rank:
                state["fired"] = True
                return duration + value
            return duration
        return one_shot
    if mod_kind == "restore_double":
        return lambda rank, stream, kind, name, duration: duration * 2.0
    if mod_kind == "restore_halve":
        return lambda rank, stream, kind, name, duration: duration * 0.5
    raise ValueError(f"unknown modifier spec {mod_kind!r}")


def sample_case(
    rng: np.random.Generator,
    max_ops: int = 24,
    world: int = 8,
) -> EngineFuzzCase:
    """Draw one valid submission sequence from a deterministic RNG.

    Durations are full-entropy doubles (not round numbers) so bitwise
    divergence in arithmetic order cannot hide behind representable
    values; zero durations are sampled explicitly.
    """
    n_ops = int(rng.integers(3, max_ops + 1))
    ops: List[SubmitOp] = []
    producers: List[int] = []  # uids that yield events
    for uid in range(n_ops):
        draw = rng.random()
        stream = _STREAMS[int(rng.integers(0, len(_STREAMS)))]
        duration = 0.0 if rng.random() < 0.08 else float(rng.random()) * 2.0
        deps = tuple(
            int(u) for u in sorted(rng.choice(
                producers, size=min(len(producers),
                                    int(rng.integers(0, 3))),
                replace=False))
        ) if producers else ()
        tags = ("fuzz",) if rng.random() < 0.2 else ()
        if draw < 0.55:
            ops.append(SubmitOp(
                uid=uid, op="run", rank=int(rng.integers(0, world)),
                stream=stream, duration=duration, name=f"op{uid}",
                kind="compute" if stream == "compute" else "comm",
                deps=deps,
                not_before=(float(rng.random()) * 3.0
                            if rng.random() < 0.2 else 0.0),
                tags=tags))
            producers.append(uid)
        elif draw < 0.82:
            size = int(rng.integers(1, min(world, 5) + 1))
            ranks = tuple(int(r) for r in rng.choice(
                world, size=size, replace=False))
            skew = tuple(
                (int(r), float(rng.random()) * 0.5)
                for r in ranks if rng.random() < 0.25)
            ops.append(SubmitOp(
                uid=uid, op="collective", ranks=ranks, stream=stream,
                duration=duration, name=f"coll{uid}", kind="comm",
                deps=deps, skew=skew, tags=tags,
                failed_attempts=(int(rng.integers(1, 3))
                                 if rng.random() < 0.15 else 0)))
            producers.append(uid)
        elif draw < 0.92:
            ops.append(SubmitOp(
                uid=uid, op="advance", rank=int(rng.integers(0, world)),
                stream=stream, duration=float(rng.random()) * 4.0))
        else:
            start = float(rng.random()) * 3.0
            ops.append(SubmitOp(
                uid=uid, op="record", rank=int(rng.integers(0, world)),
                stream=stream, name=f"rec{uid}", kind="comm",
                start=start, end=start + duration, tags=tags))
            producers.append(uid)

    modifiers: List[Tuple[str, int, float]] = []
    if rng.random() < 0.45:
        n_mods = int(rng.integers(1, 4))
        kinds = ("scale", "add", "one_shot", "restore")
        for _ in range(n_mods):
            mod_kind = kinds[int(rng.integers(0, len(kinds)))]
            target = int(rng.integers(0, world))
            if mod_kind == "restore":
                # A mutually-cancelling pair: restored durations must
                # NOT be tagged "faulted" (the `out != duration` rule).
                modifiers.append(("restore_double", 0, 0.0))
                modifiers.append(("restore_halve", 0, 0.0))
            elif mod_kind == "scale":
                modifiers.append((mod_kind, target,
                                  float(rng.choice([0.5, 1.0, 1.5, 2.0]))))
            else:
                modifiers.append((mod_kind, target, float(rng.random())))
    return EngineFuzzCase(ops=tuple(ops), modifiers=tuple(modifiers))


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------

def _event_class(sim) -> type:
    """The ``TraceEvent`` class of the module defining this engine."""
    import sys

    module = sys.modules.get(type(sim).__module__)
    cls = getattr(module, "TraceEvent", None)
    if cls is None:
        from repro.sim.engine import TraceEvent
        return TraceEvent
    return cls


def replay_case(case: EngineFuzzCase, sim) -> Tuple[str, ...]:
    """Replay a sequence onto one engine; returns the submission log.

    The log records each submission's outcome ("ok" or the raised
    exception) — both engines must produce identical logs, so a fast
    path that stops raising where the reference raised is itself a
    divergence.  Submissions that raised produce no events and are
    skipped as dependency producers.
    """
    for spec in case.modifiers:
        sim.add_duration_modifier(_build_modifier(spec))
    events_by_uid: Dict[int, object] = {}
    log: List[str] = []

    def resolve(handle, rank):
        """A dependency event for ``rank``: collectives resolve to their
        event on that rank when it participated, else any fixed one."""
        if isinstance(handle, dict):
            return handle[rank] if rank in handle \
                else next(iter(handle.values()))
        return handle

    for op in case.ops:
        try:
            if op.op == "run":
                after = [resolve(events_by_uid[u], op.rank)
                         for u in op.deps if u in events_by_uid]
                event = sim.run(
                    rank=op.rank, stream=op.stream, duration=op.duration,
                    name=op.name, kind=op.kind, after=after or None,
                    not_before=op.not_before, tags=op.tags)
                events_by_uid[op.uid] = event
            elif op.op == "collective":
                after = {}
                for rank in op.ranks:
                    deps = [resolve(events_by_uid[u], rank)
                            for u in op.deps if u in events_by_uid]
                    if deps:
                        after[rank] = deps
                result = sim.run_collective(
                    list(op.ranks), op.stream, op.duration, op.name,
                    after=after or None, kind=op.kind,
                    skew=dict(op.skew) or None, tags=op.tags,
                    failed_attempts=op.failed_attempts)
                events_by_uid[op.uid] = result
            elif op.op == "advance":
                sim.advance(op.rank, op.stream, op.duration)
            else:  # record
                # Splice with the engine's own event class (the
                # reference's dataclass vs the fast slotted record).
                cls = _event_class(sim)
                event = cls(op.name, op.kind, op.rank, op.stream,
                            op.start, op.end, (), op.tags)
                sim.record(event)
                events_by_uid[op.uid] = event
            log.append("ok")
        except ValueError as err:
            log.append(f"ValueError: {err}")
    return tuple(log)


# ----------------------------------------------------------------------
# Differential check
# ----------------------------------------------------------------------

def _floats_identical(a: float, b: float) -> bool:
    if a != b:
        return False
    if a == 0.0:
        return math.copysign(1.0, a) == math.copysign(1.0, b)
    return True


_EVENT_FIELDS = ("name", "kind", "rank", "stream", "start", "end",
                 "group", "tags")


def compare_engines(ref, fast) -> List[str]:
    """Diff every observable of two engines fed identical submissions."""
    problems: List[str] = []
    ref_events, fast_events = ref.events, fast.events
    if len(ref_events) != len(fast_events):
        problems.append(f"event count: reference={len(ref_events)} "
                        f"fast={len(fast_events)}")
    for i, (r, f) in enumerate(zip(ref_events, fast_events)):
        for fld in _EVENT_FIELDS:
            rv, fv = getattr(r, fld), getattr(f, fld)
            identical = (_floats_identical(rv, fv)
                         if isinstance(rv, float) else rv == fv)
            if not identical:
                problems.append(
                    f"events[{i}].{fld}: reference={rv!r} fast={fv!r}")
                if len(problems) >= _MAX_PROBLEMS:
                    return problems
    if problems:
        return problems
    if not _floats_identical(ref.makespan(), fast.makespan()):
        problems.append(f"makespan: reference={ref.makespan()!r} "
                        f"fast={fast.makespan()!r}")
    ranks = sorted({e.rank for e in ref_events})
    streams = sorted({e.stream for e in ref_events})
    for rank in ranks:
        if not _floats_identical(ref.makespan([rank]),
                                 fast.makespan([rank])):
            problems.append(
                f"makespan([{rank}]): reference={ref.makespan([rank])!r} "
                f"fast={fast.makespan([rank])!r}")
        if [e.name for e in ref.events_for(rank)] != \
                [e.name for e in fast.events_for(rank)]:
            problems.append(f"events_for({rank}) order differs")
        for stream in streams:
            for label, rv, fv in (
                ("busy", ref.busy_time(rank, stream),
                 fast.busy_time(rank, stream)),
                ("idle", ref.idle_time(rank, stream),
                 fast.idle_time(rank, stream)),
                ("now", ref.now(rank, stream), fast.now(rank, stream)),
            ):
                if not _floats_identical(rv, fv):
                    problems.append(
                        f"{label}({rank}, {stream!r}): reference={rv!r} "
                        f"fast={fv!r}")
            if len(problems) >= _MAX_PROBLEMS:
                return problems[:_MAX_PROBLEMS]
    return problems


def check_case(
    case: EngineFuzzCase,
    reference_cls: type,
    engine: Callable[[], object] = Simulator,
) -> List[str]:
    """Replay one sequence through both engines and diff everything."""
    ref = reference_cls()
    fast = engine()
    ref_log = replay_case(case, ref)
    fast_log = replay_case(case, fast)
    if ref_log != fast_log:
        for i, (r, f) in enumerate(zip(ref_log, fast_log)):
            if r != f:
                return [f"submission {i} outcome: reference={r!r} "
                        f"fast={f!r}"]
        return [f"submission log length: reference={len(ref_log)} "
                f"fast={len(fast_log)}"]
    return compare_engines(ref, fast)


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------

def _drop_uid(ops: Sequence[SubmitOp], uid: int) -> Tuple[SubmitOp, ...]:
    """The sequence without ``uid``, dependency references patched out."""
    out = []
    for op in ops:
        if op.uid == uid:
            continue
        if uid in op.deps:
            op = replace(op, deps=tuple(u for u in op.deps if u != uid))
        out.append(op)
    return tuple(out)


def _shrink_candidates(case: EngineFuzzCase) -> List[EngineFuzzCase]:
    """Neighbours with one submission or modifier dropped, or one
    submission simplified."""
    out: List[EngineFuzzCase] = []
    for op in case.ops:
        out.append(replace(case, ops=_drop_uid(case.ops, op.uid)))
    for i in range(len(case.modifiers)):
        out.append(replace(case, modifiers=(
            case.modifiers[:i] + case.modifiers[i + 1:])))
    for i, op in enumerate(case.ops):
        simplified = None
        if op.deps:
            simplified = replace(op, deps=())
        elif op.skew:
            simplified = replace(op, skew=())
        elif op.failed_attempts:
            simplified = replace(op, failed_attempts=0)
        elif op.tags:
            simplified = replace(op, tags=())
        if simplified is not None:
            out.append(replace(case, ops=(
                case.ops[:i] + (simplified,) + case.ops[i + 1:])))
    return out


def _explain(failure: Failure) -> str:
    return (f"divergence: {failure.shrunk_evidence[0]}\n"
            f"minimal reproducer ({len(failure.shrunk.ops)} submissions):\n"
            f"{failure.shrunk.describe()}")


def engine_campaign(
    max_ops: int = 24,
    world: int = 8,
    engine: Callable[[], object] = Simulator,
) -> Campaign[EngineFuzzCase, Tuple[str, ...]]:
    """The differential engine campaign; evidence is the tuple of
    divergences.  ``engine`` is the fast-engine factory (the hook
    corrupted-engine self-tests inject through).  Loads the frozen
    reference engine, so it only works in a source checkout."""
    reference_cls = load_reference_simulator()

    def check(case: EngineFuzzCase) -> Tuple[bool, Tuple[str, ...]]:
        problems = tuple(check_case(case, reference_cls, engine))
        return not problems, problems

    return Campaign(
        sample=lambda rng: sample_case(rng, max_ops=max_ops, world=world),
        check=check,
        shrink_candidates=_shrink_candidates,
        case_key="case",
        evidence_key="problems",
        evidence_json=list,
        explain=_explain,
    )


__all__ = [
    "EngineFuzzCase",
    "SubmitOp",
    "check_case",
    "compare_engines",
    "engine_campaign",
    "load_reference_simulator",
    "replay_case",
    "sample_case",
]
