"""Verification subsystem: invariant checkers, differential oracles, and
a seeded property-fuzz harness.

Correctness as a first-class, reusable subsystem (see
``docs/verification.md``):

* :mod:`repro.verify.invariants` — machine-checkable schedule/timeline
  semantics: stream exclusivity, conservation, dependency ordering,
  Section 3.1.1 warm-up depth, and the Section 3.1.3 ZeRO pairing rule.
* :mod:`repro.verify.oracles` — differential oracles: flexible-PP AFAB
  degeneration, CP head/tail sharding vs. unsharded attention, and
  pipeline numerics vs. the order-matched sequential baseline.
* :mod:`repro.verify.campaign` — the one fuzz-campaign driver:
  ``run_campaign(campaign, cases, seed)`` samples, checks and greedily
  shrinks every failure to a minimal reproducer, for any
  :class:`~repro.verify.campaign.Campaign` value.
* :mod:`repro.verify.fuzz` — the schedule-config campaign
  (``schedule_campaign``) and the fault-localisation campaign
  (``FAULT_CAMPAIGN``, ``repro verify --faults``).
* :mod:`repro.verify.engine_fuzz` — differential engine campaign
  (``engine_campaign``): random submission sequences replayed through
  the fast engine and the frozen reference engine
  (``tests/harness/reference_engine.py``), asserting bitwise-equal
  observables (``repro verify --engine``).
* :mod:`repro.verify.resilience_fuzz` — taxonomy-sampling campaign for
  the resilient-run simulator (``RESILIENCE_CAMPAIGN``): random failure
  taxonomies, tiered policies, and mitigation strategies checked
  against accounting/progress/determinism/fixed-draw invariants
  (``repro verify --resilience``).

The same machinery backs ``python -m repro verify`` (CI and local) and
the test suite (``tests/test_verify_*.py``).
"""

from repro.verify.campaign import (
    Campaign,
    CampaignResult,
    Failure,
    run_campaign,
    shrink,
)
from repro.verify.engine_fuzz import (
    EngineFuzzCase,
    check_case,
    compare_engines,
    engine_campaign,
    load_reference_simulator,
    sample_case,
)
from repro.verify.fuzz import (
    FAULT_CAMPAIGN,
    FuzzConfig,
    check_config,
    sample_config,
    schedule_campaign,
)
from repro.verify.invariants import (
    InvariantReport,
    Violation,
    check_conservation,
    check_program_order,
    check_send_before_recv,
    check_stream_overlap,
    check_warmup_depth,
    check_zero_schedule,
    run_invariants,
)
from repro.verify.resilience_fuzz import (
    RESILIENCE_CAMPAIGN,
    ResilienceScenario,
    check_resilience_scenario,
    sample_resilience_scenario,
)
from repro.verify.oracles import (
    OracleResult,
    oracle_afab_degeneration,
    oracle_cp_attention,
    oracle_pp_numerics,
    run_default_oracles,
)

__all__ = [
    "Campaign",
    "CampaignResult",
    "EngineFuzzCase",
    "FAULT_CAMPAIGN",
    "Failure",
    "FuzzConfig",
    "InvariantReport",
    "OracleResult",
    "RESILIENCE_CAMPAIGN",
    "ResilienceScenario",
    "Violation",
    "check_case",
    "check_config",
    "check_conservation",
    "compare_engines",
    "check_program_order",
    "check_resilience_scenario",
    "check_send_before_recv",
    "check_stream_overlap",
    "check_warmup_depth",
    "check_zero_schedule",
    "engine_campaign",
    "load_reference_simulator",
    "oracle_afab_degeneration",
    "oracle_cp_attention",
    "oracle_pp_numerics",
    "run_campaign",
    "run_default_oracles",
    "run_invariants",
    "sample_case",
    "sample_config",
    "sample_resilience_scenario",
    "schedule_campaign",
    "shrink",
]
