"""One campaign driver for every fuzzer: sample, check, shrink.

The Section 6.2 method — fuzz configurations, shrink each failure to a
minimal reproducer — as a single mechanism.  A domain describes itself
as a :class:`Campaign` value: how to draw a case from a seeded RNG, how
to check one, and which neighbours to try when a case fails.
:func:`run_campaign` drives the loop and :func:`shrink` is the one
greedy minimiser.  Nothing here knows about any domain.

The driver, not the domain, enforces the shrink contract:

* candidates are filtered to strictly smaller ``cost``, de-duplicated
  (first occurrence kept) and stably sorted by ``cost``
  (:func:`shrink_moves`), so every accepted step strictly lowers
  ``cost`` and shrinking terminates;
* :func:`shrink` raises ``ValueError`` on a case that does not fail;
* :func:`run_campaign` raises ``ValueError`` for ``cases < 1`` or
  ``seed < 0``.

Every failing case counts toward ``failed_cases``; cases are shrunk
until ``max_failures`` *distinct* reproducers are held, because a
systematic bug fails many cases that all shrink to the same few minimal
ones.

Determinism is the contract: ``run_campaign(campaign, n, seed)`` visits
the same cases in the same order on every machine, so a failure's seed
plus its shrunk case is a complete reproduction recipe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Generic,
    Iterable,
    List,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

Case = TypeVar("Case")
Evidence = TypeVar("Evidence")


def _no_summary(evidence: Sequence[Any]) -> dict:
    return {}


@dataclass(frozen=True)
class Campaign(Generic[Case, Evidence]):
    """One fuzz domain.

    ``sample`` draws a case from the campaign RNG, ``check`` returns
    ``(ok, evidence)`` for a case, and ``shrink_candidates`` proposes
    neighbours of a failing case (the driver filters and orders them).
    Cases are hashable and expose ``cost`` (the size the shrinker
    minimises), ``describe()`` and ``to_dict()``.

    ``case_key`` and ``evidence_key`` name a failure's JSON fields (the
    shrunk ones get a ``shrunk_`` prefix), ``evidence_json`` serialises
    evidence, ``explain`` renders a failure as text, and ``summarize``
    folds the evidence of every sampled case into extra result fields.
    """

    sample: Callable[[np.random.Generator], Case]
    check: Callable[[Case], Tuple[bool, Evidence]]
    shrink_candidates: Callable[[Case], Iterable[Case]]
    case_key: str
    evidence_key: str
    evidence_json: Callable[[Evidence], Any]
    explain: Callable[["Failure[Case, Evidence]"], str]
    summarize: Callable[[Sequence[Evidence]], dict] = _no_summary

    def fails(self, case: Case) -> bool:
        return not self.check(case)[0]


@dataclass(frozen=True)
class Failure(Generic[Case, Evidence]):
    """One failing case with its minimal shrunk reproducer."""

    case: Case
    evidence: Evidence
    shrunk: Case
    shrunk_evidence: Evidence


@dataclass(frozen=True)
class CampaignResult(Generic[Case, Evidence]):
    """Outcome of one campaign; ``summary`` holds the campaign's extra
    result fields (see :attr:`Campaign.summarize`)."""

    seed: int
    cases: int
    failed_cases: int
    failures: Tuple[Failure[Case, Evidence], ...]
    campaign: Campaign[Case, Evidence] = field(compare=False, repr=False)
    summary: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failed_cases == 0

    def to_dict(self) -> dict:
        c = self.campaign
        return {
            "seed": self.seed,
            "cases": self.cases,
            "failed_cases": self.failed_cases,
            "ok": self.ok,
            **self.summary,
            "failures": [{
                c.case_key: f.case.to_dict(),
                c.evidence_key: c.evidence_json(f.evidence),
                f"shrunk_{c.case_key}": f.shrunk.to_dict(),
                f"shrunk_{c.evidence_key}": c.evidence_json(
                    f.shrunk_evidence),
            } for f in self.failures],
        }


def shrink_moves(
    case: Case,
    candidates: Callable[[Case], Iterable[Case]],
) -> List[Case]:
    """The candidates :func:`shrink` tries from ``case``, in order:
    strictly cheaper than ``case``, first occurrence of each kept,
    stably sorted by ``cost``."""
    distinct = dict.fromkeys(
        c for c in candidates(case) if c.cost < case.cost)
    return sorted(distinct, key=lambda c: c.cost)


def shrink(
    case: Case,
    failing: Callable[[Case], bool],
    candidates: Callable[[Case], Iterable[Case]],
) -> Case:
    """Greedily minimise a failing case: move to the first still-failing
    move of :func:`shrink_moves` until none fails."""
    if not failing(case):
        raise ValueError(f"case {case.describe()} does not fail")
    while True:
        for candidate in shrink_moves(case, candidates):
            if failing(candidate):
                case = candidate
                break
        else:
            return case


def run_campaign(
    campaign: Campaign[Case, Evidence],
    cases: int,
    seed: int = 0,
    max_failures: int = 10,
) -> CampaignResult[Case, Evidence]:
    """Check ``cases`` sampled cases and shrink failures until
    ``max_failures`` distinct reproducers are held."""
    if cases < 1:
        raise ValueError(f"cases must be >= 1 (got {cases})")
    if seed < 0:
        raise ValueError(f"seed must be >= 0 (got {seed})")
    rng = np.random.default_rng(seed)
    evidence: List[Evidence] = []
    failures: List[Failure[Case, Evidence]] = []
    failed_cases = 0
    for _ in range(cases):
        case = campaign.sample(rng)
        ok, found = campaign.check(case)
        evidence.append(found)
        if ok:
            continue
        failed_cases += 1
        if len(failures) >= max_failures:
            continue
        shrunk = shrink(case, campaign.fails, campaign.shrink_candidates)
        if any(f.shrunk == shrunk for f in failures):
            continue
        failures.append(Failure(case, found, shrunk,
                                campaign.check(shrunk)[1]))
    return CampaignResult(seed, cases, failed_cases, tuple(failures),
                          campaign, campaign.summarize(evidence))


__all__ = [
    "Campaign",
    "CampaignResult",
    "Failure",
    "run_campaign",
    "shrink",
    "shrink_moves",
]
