"""The one campaign driver behind every ``repro verify`` fuzzer.

Two things are pinned here:

* outputs: every campaign reproduces ``tests/golden/verify_campaigns.json``,
  which was captured from the four per-domain drivers this driver
  replaced (passing campaigns exactly; corruption campaigns with the
  driver's reporting rule applied: repeated shrunk reproducers dropped,
  at most ``max_failures`` = 10 kept);
* the shrink contract the driver enforces for every domain: each
  accepted step strictly lowers ``cost``, a passing case is refused, and
  degenerate ``cases``/``seed`` are rejected.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import repro.pp.schedule as schedule_mod
from repro.pp.analysis import warmup_forward_ops
from repro.verify.campaign import run_campaign, shrink
from repro.verify.engine_fuzz import engine_campaign
from repro.verify.fuzz import FAULT_CAMPAIGN, schedule_campaign
from repro.verify.resilience_fuzz import RESILIENCE_CAMPAIGN
from tests.test_verify_engine_fuzz import _CorruptedSimulator
from tests.test_verify_fuzz import _drop_first_backward

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "verify_campaigns.json")
    .read_text(encoding="utf-8"))

#: The four domains, each as it runs under ``repro verify``.
CAMPAIGNS = {
    "schedule": schedule_campaign,
    "faults": lambda: FAULT_CAMPAIGN,
    "engine": engine_campaign,
    "resilience": lambda: RESILIENCE_CAMPAIGN,
}

#: Golden key -> (cases, seed) of each clean campaign.
CLEAN = {"schedule": (40, 5), "faults": (8, 5), "engine": (12, 5),
         "resilience": (4, 3)}


def _off_by_one(monkeypatch):
    """Seed an off-by-one into the builder's warm-up depth."""
    def deeper(pp, ppr, v, nc, nmb):
        return min(warmup_forward_ops(pp, ppr, v, nc, nmb) + 1, nmb * v)

    monkeypatch.setattr(schedule_mod, "warmup_forward_ops", deeper)


#: Golden key -> (campaign factory, cases, seed, corruption to apply).
CORRUPTED = {
    "schedule_drop_first_backward": (
        lambda: schedule_campaign(build=_drop_first_backward), 60, 0, None),
    "schedule_warmup_off_by_one": (schedule_campaign, 60, 0, _off_by_one),
    "engine_corrupted": (
        lambda: engine_campaign(engine=_CorruptedSimulator), 30, 0, None),
}


def _json(result) -> dict:
    return json.loads(json.dumps(result.to_dict()))


class TestGolden:
    @pytest.mark.parametrize("name", sorted(CLEAN))
    def test_clean_campaign_matches_golden(self, name):
        cases, seed = CLEAN[name]
        result = run_campaign(CAMPAIGNS[name](), cases, seed)
        assert _json(result) == GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(CORRUPTED))
    def test_corruption_campaign_matches_golden(self, name, monkeypatch):
        make, cases, seed, corrupt = CORRUPTED[name]
        if corrupt is not None:
            corrupt(monkeypatch)
        campaign = make()
        got = _json(run_campaign(campaign, cases, seed))
        golden = GOLDEN[name]
        shrunk_key = f"shrunk_{campaign.case_key}"
        distinct = []
        for failure in golden["failures"]:
            if all(f[shrunk_key] != failure[shrunk_key] for f in distinct):
                distinct.append(failure)
        assert got["failed_cases"] == golden["failed_cases"] > 0
        assert got == {**golden, "failures": distinct[:10]}


class TestShrinkContract:
    @pytest.mark.parametrize("name", sorted(CAMPAIGNS))
    def test_every_accepted_step_lowers_cost(self, name):
        """With a predicate that always fails, shrink accepts its first
        move each round, so it walks the domain's own candidate
        generator down to a minimum: every step must cost less."""
        campaign = CAMPAIGNS[name]()
        rng = np.random.default_rng(0)
        for _ in range(5):
            case = campaign.sample(rng)
            trail = []

            def failing(c):
                trail.append(c)
                assert len(trail) < 10_000, "shrink did not terminate"
                return True

            shrunk = shrink(case, failing, campaign.shrink_candidates)
            assert trail[0] == case and trail[-1] == shrunk
            costs = [c.cost for c in trail]
            assert all(b < a for a, b in zip(costs, costs[1:])), costs

    @pytest.mark.parametrize("name", sorted(CAMPAIGNS))
    def test_shrink_refuses_a_passing_case(self, name):
        campaign = CAMPAIGNS[name]()
        case = campaign.sample(np.random.default_rng(0))
        assert campaign.check(case)[0]
        with pytest.raises(ValueError, match="does not fail"):
            shrink(case, campaign.fails, campaign.shrink_candidates)

    @pytest.mark.parametrize("name", sorted(CAMPAIGNS))
    def test_rejects_degenerate_sizes(self, name):
        campaign = CAMPAIGNS[name]()
        with pytest.raises(ValueError, match="cases must be >= 1"):
            run_campaign(campaign, cases=0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            run_campaign(campaign, cases=1, seed=-1)
