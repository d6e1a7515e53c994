"""Property-style tests for the seeded config fuzzer: a clean library
fuzzes clean, and injected corruption is caught and shrunk."""

import numpy as np
import pytest

from repro.pp.analysis import ScheduleShape
from repro.pp.schedule import (
    PipelineSchedule,
    build_flexible_schedule,
)
from repro.verify.campaign import run_campaign, shrink, shrink_moves
from repro.verify.fuzz import (
    FuzzConfig,
    _shrink_candidates,
    check_config,
    sample_config,
    schedule_campaign,
)


class TestSampling:
    def test_deterministic_per_seed(self):
        a = [sample_config(np.random.default_rng(7)) for _ in range(20)]
        b = [sample_config(np.random.default_rng(7)) for _ in range(20)]
        assert a == b

    def test_samples_are_valid_shapes(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            cfg = sample_config(rng)
            shape = cfg.shape  # raises on invalid (pp, v, nc, nmb)
            assert 1 <= shape.pp <= 8
            assert 1 <= shape.nmb <= 16
            assert 1 <= shape.nc <= shape.nmb

    def test_covers_both_sides_of_degeneration_boundary(self):
        rng = np.random.default_rng(0)
        cfgs = [sample_config(rng) for _ in range(200)]
        assert any(c.nc < c.pp for c in cfgs)
        assert any(c.nc >= c.pp for c in cfgs)


@pytest.mark.slow
class TestCleanFuzz:
    def test_200_configs_zero_violations(self):
        """The acceptance bar: 200 seeded configs over (pp in 1..8,
        nmb in 1..16, nc a divisor of nmb) produce no violations."""
        result = run_campaign(schedule_campaign(), 200, seed=0)
        assert result.ok, result.to_dict()["failures"]
        assert result.cases == 200
        assert result.failed_cases == 0
        # Every catalog family actually ran.
        assert set(result.summary["checks_run"]) >= {
            "conservation", "program-order", "send-before-recv",
            "stream-overlap", "warmup-depth", "zero-schedule"}

    def test_other_seeds_also_clean(self):
        for seed in (1, 2):
            assert run_campaign(schedule_campaign(), 50, seed=seed).ok


def _drop_first_backward(shape: ScheduleShape) -> PipelineSchedule:
    """Corrupted builder: rank 0 loses its first backward op — breaks
    conservation (the op never runs) without tripping the builder's own
    validate()."""
    good = build_flexible_schedule(shape)
    programs = list(good.programs)
    prog = list(programs[0])
    for i, op in enumerate(prog):
        if op.kind.value == "B":
            del prog[i]
            break
    programs[0] = tuple(prog)
    return PipelineSchedule(name=good.name, shape=shape,
                            programs=tuple(programs))


def _backward_hoisted(shape: ScheduleShape) -> PipelineSchedule:
    """Corrupted builder: the last rank's first backward is hoisted to
    the front of its program, before the forward that produces its
    activations — a program-order violation (and a premature gradient
    'send' upstream)."""
    good = build_flexible_schedule(shape)
    programs = list(good.programs)
    prog = list(programs[-1])
    first_bwd = next(i for i, op in enumerate(prog)
                     if op.kind.value == "B")
    prog.insert(0, prog.pop(first_bwd))
    programs[-1] = tuple(prog)
    return PipelineSchedule(name=good.name, shape=shape,
                            programs=tuple(programs))


class TestCorruptionCaught:
    def test_dropped_backward_caught(self):
        cfg = FuzzConfig(pp=2, v=1, nc=2, nmb=4)
        report = check_config(cfg, build=_drop_first_backward)
        assert not report.ok
        checks = {v.check for v in report.violations}
        assert "conservation" in checks or "deadlock" in checks

    def test_fuzz_catches_and_shrinks_corruption(self):
        """A corrupted generator must be caught by the campaign and
        shrunk to a minimal config that still reproduces it."""
        campaign = schedule_campaign(build=_drop_first_backward)
        result = run_campaign(campaign, 60, seed=0)
        assert not result.ok
        assert result.failures, "failures must carry shrunk reproducers"
        for failure in result.failures:
            # The shrunk config still fails, and no smaller neighbour
            # does — i.e. it is locally minimal.
            assert not failure.shrunk_evidence.ok
            assert failure.shrunk.cost <= failure.case.cost
            for smaller in shrink_moves(failure.shrunk, _shrink_candidates):
                assert check_config(smaller, _drop_first_backward).ok

    def test_hoisted_backward_caught(self):
        cfg = FuzzConfig(pp=2, v=1, nc=2, nmb=4)
        report = check_config(cfg, build=_backward_hoisted)
        assert not report.ok
        assert "program-order" in {v.check for v in report.violations}

    def test_shrink_reaches_minimal_dropped_backward(self):
        cfg = FuzzConfig(pp=4, v=2, nc=4, nmb=8)

        def failing(c):
            return not check_config(c, _drop_first_backward).ok

        shrunk = shrink(cfg, failing, _shrink_candidates)
        assert failing(shrunk)
        # Dropping a backward fails for any config, so the shrinker must
        # reach the global minimum.
        assert (shrunk.pp, shrunk.v, shrunk.nc, shrunk.nmb) == (1, 1, 1, 1)


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = run_campaign(schedule_campaign(), 40, seed=5)
        b = run_campaign(schedule_campaign(), 40, seed=5)
        assert a == b

    def test_result_is_json_able(self):
        import json

        json.dumps(run_campaign(schedule_campaign(), 10, seed=0).to_dict())
