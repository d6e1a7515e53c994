"""Invariant-checker unit tests, the acceptance scenario (a seeded
warm-up off-by-one is caught and shrunk), and the regression pins for
schedule warm-up vs. executor dependency-time agreement."""

import dataclasses

import pytest

from repro.parallel.config import ZeroStage
from repro.pp.analysis import ScheduleShape, warmup_forward_ops
from repro.pp.layout import build_layout
from repro.pp.schedule import (
    OpKind,
    PipelineSchedule,
    build_flexible_schedule,
)
from repro.train.cost import StageCost
from repro.train.executor import execute_pipeline
from repro.verify.campaign import run_campaign
from repro.verify.fuzz import schedule_campaign
from repro.verify.invariants import (
    check_conservation,
    check_send_before_recv,
    check_stream_overlap,
    check_warmup_depth,
    is_afab_schedule,
    run_invariants,
)

_SHAPES = [
    ScheduleShape(pp=1, v=1, nc=1, nmb=1),
    ScheduleShape(pp=2, v=1, nc=2, nmb=4),
    ScheduleShape(pp=4, v=2, nc=4, nmb=8),    # interleaved 1F1B
    ScheduleShape(pp=4, v=2, nc=2, nmb=8),    # degenerate AFAB
    ScheduleShape(pp=2, v=1, nc=4, nmb=8),    # nc > pp
]


def _execute(shape, p2p=0.25):
    schedule = build_flexible_schedule(shape)
    layout = build_layout(shape.pp * shape.v, shape.pp, shape.v)
    run = execute_pipeline(
        schedule, layout,
        lambda s: StageCost(1.0 * max(s.n_layers, 1), 0.0, 0.0),
        lambda s: StageCost(2.0 * max(s.n_layers, 1), 0.0, 0.0),
        p2p_seconds=p2p,
    )
    return schedule, run


class TestStructureCheckers:
    @pytest.mark.parametrize("shape", _SHAPES, ids=str)
    def test_clean_schedules_pass(self, shape):
        report = run_invariants(build_flexible_schedule(shape))
        assert report.ok, report.to_dict()

    def test_duplicated_op_breaks_conservation(self):
        good = build_flexible_schedule(ScheduleShape(pp=2, v=1, nc=2,
                                                     nmb=4))
        programs = list(good.programs)
        programs[0] = programs[0] + (programs[0][-1],)
        bad = PipelineSchedule(name=good.name, shape=good.shape,
                               programs=tuple(programs))
        violations = check_conservation(bad)
        assert violations
        assert violations[0].context["count"] == 2

    def test_foreign_rank_op_breaks_conservation(self):
        good = build_flexible_schedule(ScheduleShape(pp=2, v=1, nc=2,
                                                     nmb=4))
        programs = list(good.programs)
        # Rank 0 ends up holding (and re-running) one of rank 1's ops.
        programs[0] = programs[0] + (programs[1][0],)
        bad = PipelineSchedule(name=good.name, shape=good.shape,
                               programs=tuple(programs))
        checks = {v.check for v in check_conservation(bad)}
        assert checks == {"conservation"}


class TestWarmupOffByOneCaught:
    """The ISSUE acceptance scenario: an off-by-one seeded into the
    builder's warm-up helper must surface as a warmup-depth violation and
    fuzz down to a minimal reproducer."""

    @pytest.fixture
    def off_by_one(self, monkeypatch):
        import repro.pp.schedule as schedule_mod

        real = warmup_forward_ops

        def deeper(pp, ppr, v, nc, nmb):
            return min(real(pp, ppr, v, nc, nmb) + 1, nmb * v)

        monkeypatch.setattr(schedule_mod, "warmup_forward_ops", deeper)

    def test_checker_flags_it(self, off_by_one):
        bad = build_flexible_schedule(ScheduleShape(pp=4, v=1, nc=4,
                                                    nmb=8))
        violations = check_warmup_depth(bad)
        assert violations
        assert all(v.check == "warmup-depth" for v in violations)
        assert all(v.context["actual"] == v.context["expected"] + 1
                   for v in violations)

    def test_fuzz_catches_and_shrinks_it(self, off_by_one):
        result = run_campaign(schedule_campaign(), 60, seed=0)
        assert not result.ok
        failure = result.failures[0]
        assert not failure.shrunk_evidence.ok
        # The off-by-one reproduces at the smallest non-capped config
        # (nmb=2 keeps actual=2 distinct from the expected depth of 1;
        # bs=2 == 2*pp puts ZeRO-1 in scope, harmlessly).  The shrink
        # stays within the first failing case's sampled kind.
        assert failure.shrunk.to_dict() == {
            "kind": "1f1b", "pp": 1, "v": 1, "nc": 1, "nmb": 2,
            "zero": "ZERO_1"}
        assert "warmup-depth" in {
            v.check for v in failure.shrunk_evidence.violations}

    def test_verify_report_goes_red(self, off_by_one):
        from repro.obs.report import verify_report

        report = verify_report(run_campaign(schedule_campaign(), 30, seed=0))
        assert report["ok"] is False
        shrunk = report["fuzz"]["failures"][0]["shrunk_config"]
        assert shrunk == {"kind": "1f1b", "pp": 1, "v": 1, "nc": 1,
                          "nmb": 2, "zero": "ZERO_1"}


class TestTimelineCheckers:
    @pytest.mark.parametrize("shape", _SHAPES, ids=str)
    def test_executed_runs_are_clean(self, shape):
        schedule, run = _execute(shape)
        report = run_invariants(schedule, run, zero=None, bs=None)
        assert report.ok, report.to_dict()
        assert "stream-overlap" in report.checks_run
        assert "send-before-recv" in report.checks_run

    def test_tampered_event_time_caught(self):
        _, run = _execute(ScheduleShape(pp=2, v=1, nc=2, nmb=4))
        events = dict(run.op_events)
        # Pull a non-first-stage forward earlier than its input arrival.
        op = next(op for op in events
                  if op.kind is OpKind.FORWARD and op.ppr == 1)
        ev = events[op]
        events[op] = ev.replace(start=ev.start - 1.0, end=ev.end - 1.0)
        tampered = dataclasses.replace(run, op_events=events)
        violations = check_send_before_recv(tampered)
        assert any("before its input" in v.message for v in violations)

    def test_missing_event_caught(self):
        _, run = _execute(ScheduleShape(pp=2, v=1, nc=2, nmb=4))
        events = dict(run.op_events)
        events.pop(next(iter(events)))
        tampered = dataclasses.replace(run, op_events=events)
        assert check_send_before_recv(tampered)

    def test_run_without_events_reports_not_crashes(self):
        _, run = _execute(ScheduleShape(pp=2, v=1, nc=2, nmb=4))
        bare = dataclasses.replace(run, op_events=None)
        violations = check_send_before_recv(bare)
        assert len(violations) == 1
        assert "no op_events" in violations[0].message

    def test_overlap_checker_sees_simulator_overlap(self):
        _, run = _execute(ScheduleShape(pp=2, v=1, nc=2, nmb=4))
        assert check_stream_overlap(run) == []
        # Force two events onto the same span of one stream.
        sim = run.sim
        ev = sim.events[0]
        sim.record(ev.replace(name="intruder"))
        assert check_stream_overlap(run)


class TestZeroRuleViaSuite:
    def test_suite_applies_rule_when_given_bs(self):
        schedule = build_flexible_schedule(
            ScheduleShape(pp=2, v=1, nc=2, nmb=4))
        good = run_invariants(schedule, zero=ZeroStage.ZERO_1, bs=4)
        assert good.ok and "zero-schedule" in good.checks_run
        bad = run_invariants(schedule, zero=ZeroStage.ZERO_2, bs=4)
        assert not bad.ok


class TestWarmupExecutorAgreement:
    """Regression pins for the latent-inconsistency satellite: the
    fuzzer found no disagreement between ``pp/schedule.py`` warm-up and
    ``train/executor.py`` dependency times, so pin their agreement
    across nc in {1, pp-1, pp, pp+1, nmb} (where nc divides nmb)."""

    @pytest.mark.parametrize("pp,v,nmb", [
        (2, 2, 12),   # nc in {1, 2, 3, 12}
        (4, 2, 60),   # nc in {1, 3, 4, 5, 60}
        (8, 1, 56),   # nc in {1, 7, 8, 56}
    ])
    def test_executed_warmup_matches_formula(self, pp, v, nmb):
        candidates = sorted({1, pp - 1, pp, pp + 1, nmb})
        ncs = [nc for nc in candidates if 1 <= nc <= nmb and nmb % nc == 0]
        assert len(ncs) >= 4, "parameters must keep the nc set rich"
        for nc in ncs:
            shape = ScheduleShape(pp=pp, v=v, nc=nc, nmb=nmb)
            schedule, run = _execute(shape)
            assert run_invariants(schedule, run).ok
            afab = is_afab_schedule(schedule)
            for ppr in range(pp):
                timeline = sorted(
                    ((ev.start, op) for op, ev in run.op_events.items()
                     if op.ppr == ppr),
                    key=lambda pair: pair[0])
                executed_warmup = 0
                for _, op in timeline:
                    if op.kind is OpKind.BACKWARD:
                        break
                    executed_warmup += 1
                expected = (nmb * v if afab
                            else warmup_forward_ops(pp, ppr, v, nc, nmb))
                assert executed_warmup == expected, (
                    f"pp={pp} v={v} nc={nc} nmb={nmb} ppr={ppr}")
