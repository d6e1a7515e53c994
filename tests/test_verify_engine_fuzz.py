"""Engine-differential fuzz mode: determinism, shrinking, CLI wiring.

The campaign property: every random submission sequence must replay
*bitwise* identically on the fast engine and the frozen reference
engine.  These tests pin the seeded determinism contract, prove the
harness actually catches a corrupted engine (the ``engine`` hook) and
shrinks the divergence to a minimal sequence, and exercise the
``repro verify --engine`` CLI surface end to end.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.obs.report import verify_report
from repro.sim.engine import Simulator
from repro.verify.campaign import run_campaign, shrink
from repro.verify.engine_fuzz import (
    check_case,
    engine_campaign,
    load_reference_simulator,
    sample_case,
)

#: Tier-1 campaign size; the full 500-sequence acceptance campaign runs
#: in ci.yml (`repro verify --engine --fuzz 500`) and in the slow-marked
#: test in tests/harness/test_differential.py.
CI_CASES, CI_SEED = 150, 0


def _json_out(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


class _CorruptedSimulator(Simulator):
    """A fast engine with a subtle float bug: durations above one second
    are inflated by one part in ten million — exactly the class of
    arithmetic-reordering drift the bitwise contract exists to catch."""

    def run(self, rank, stream, duration, name, kind="compute",
            after=None, not_before=0.0, tags=()):
        if duration > 1.0:
            duration *= 1.0000001
        return super().run(rank, stream, duration, name, kind=kind,
                           after=after, not_before=not_before, tags=tags)


class TestCampaign:
    def test_deterministic_per_seed(self):
        a = run_campaign(engine_campaign(), 12, seed=5)
        b = run_campaign(engine_campaign(), 12, seed=5)
        assert a.to_dict() == b.to_dict()

    def test_ci_campaign_is_clean(self):
        result = run_campaign(engine_campaign(), CI_CASES, seed=CI_SEED)
        assert result.ok, (
            f"{result.failed_cases} divergences; first: "
            f"{result.failures[0].shrunk.describe() if result.failures else '-'}")
        assert result.cases == CI_CASES

    def test_sampler_draws_valid_sequences(self):
        rng = np.random.default_rng(123)
        reference_cls = load_reference_simulator()
        ops_seen = set()
        for _ in range(30):
            case = sample_case(rng, world=4)
            ops_seen.update(op.op for op in case.ops)
            # Dep references only point at earlier producer uids.
            for i, op in enumerate(case.ops):
                producers = {p.uid for p in case.ops[:i]
                             if p.op != "advance"}
                assert set(op.deps) <= producers
            assert not check_case(case, reference_cls)
        assert ops_seen == {"run", "collective", "advance", "record"}


class TestCorruptedEngine:
    def test_detects_and_shrinks_a_corrupted_engine(self):
        result = run_campaign(engine_campaign(engine=_CorruptedSimulator),
                              30, seed=0)
        assert not result.ok
        assert result.failed_cases > 0
        failure = result.failures[0]
        assert failure.evidence and failure.shrunk_evidence
        assert failure.shrunk.cost <= failure.case.cost
        # The minimal reproducer still diverges on its own.
        assert check_case(failure.shrunk, load_reference_simulator(),
                          engine=_CorruptedSimulator)

    def test_shrinker_strictly_minimises(self):
        campaign = engine_campaign(engine=_CorruptedSimulator)
        rng = np.random.default_rng(7)
        # Find a diverging case for the corrupted engine, then shrink it.
        case = None
        for _ in range(50):
            candidate = sample_case(rng)
            if campaign.fails(candidate):
                case = candidate
                break
        assert case is not None, "sampler never drew a duration > 1.0"
        shrunk = shrink(case, campaign.fails, campaign.shrink_candidates)
        # Minimal: dropping any further submission makes it pass, so the
        # shrunk sequence is dominated by the single corrupted run op.
        assert len(shrunk.ops) <= 2
        assert any(op.op == "run" and op.duration > 1.0
                   for op in shrunk.ops)

    def test_clean_engine_has_nothing_to_shrink(self):
        reference_cls = load_reference_simulator()
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert not check_case(sample_case(rng), reference_cls,
                                  engine=Simulator)


class TestReportIntegration:
    def test_verify_report_folds_in_engine_fuzz(self):
        result = run_campaign(engine_campaign(), 4, seed=0)
        rep = verify_report(result, (), key="engine_fuzz")
        assert rep["ok"] is result.ok
        assert rep["engine_fuzz"]["cases"] == 4
        assert "fuzz" not in rep and "fault_fuzz" not in rep

    def test_failing_engine_fuzz_fails_the_report(self):
        result = run_campaign(engine_campaign(engine=_CorruptedSimulator),
                              30, seed=0)
        rep = verify_report(result, (), key="engine_fuzz")
        assert rep["ok"] is False
        assert rep["engine_fuzz"]["failed_cases"] > 0
        assert rep["engine_fuzz"]["failures"][0]["shrunk_case"]["ops"]


class TestCli:
    def test_verify_engine_json(self, capsys):
        rc = main(["verify", "--engine", "--fuzz", "10", "--seed", "0",
                   "--no-oracles", "--no-step-invariants", "--json"])
        rep = _json_out(capsys)
        assert rc == 0 and rep["ok"] is True
        assert rep["engine_fuzz"]["cases"] == 10
        assert rep["engine_fuzz"]["failed_cases"] == 0
        assert "fuzz" not in rep and "fault_fuzz" not in rep

    def test_verify_engine_text(self, capsys):
        rc = main(["verify", "--engine", "--fuzz", "5",
                   "--no-oracles", "--no-step-invariants"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "engine fuzz: 5 submission sequences" in out
        assert "0 diverged from reference" in out

    def test_engine_and_faults_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--engine", "--faults"])
        assert exc.value.code == 2

    def test_engine_trace_prints_note(self, tmp_path, capsys):
        path = tmp_path / "unused.json"
        rc = main(["verify", "--engine", "--fuzz", "3",
                   "--no-oracles", "--no-step-invariants", "--json",
                   "--trace", str(path)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "no effect with --engine" in captured.err
        assert not path.exists()
