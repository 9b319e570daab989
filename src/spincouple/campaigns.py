"""Seeded randomized campaigns shared by the CLI demos and the test suite."""

from __future__ import annotations

from dataclasses import dataclass

from .conditionalization import KINDS, build_conditional, verify_conditionals
from .couplings import identity_coupling_exists
from .errors import DomainError
from .inequalities import bell_ch_fine
from .sampling import (
    STRATA,
    sample_condition_distribution,
    sample_scenario_stratum,
    sample_uniform_marginal_scenario,
)


@dataclass(frozen=True)
class FineCampaignResult:
    n: int
    agreements: int
    mismatch_indices: tuple[int, ...]

    @property
    def all_agree(self) -> bool:
        return self.agreements == self.n


def fine_agreement_campaign(n: int, seed: int) -> FineCampaignResult:
    """For n seeded uniform-marginal scenarios (boundary cases included),
    compare identity-coupling existence with the exact classical-bound
    verdict; the two must coincide scenario by scenario."""
    if n < 0:
        raise DomainError(f"campaign size must be >= 0, got {n}")
    mismatches = []
    for k in range(n):
        s = sample_uniform_marginal_scenario(seed, k)
        couplable = identity_coupling_exists(s).feasible
        classical = bell_ch_fine(s.correlations()).satisfied
        if couplable != classical:
            mismatches.append(k)
    return FineCampaignResult(n, n - len(mismatches), tuple(mismatches))


@dataclass(frozen=True)
class UninformativenessCampaignResult:
    pairs: int
    constructions: int
    successes: int
    per_stratum: dict[str, tuple[int, int]]  # stratum -> (successes, total)

    @property
    def all_ok(self) -> bool:
        return self.successes == self.constructions


def uninformativeness_campaign(pairs: int, seed: int) -> UninformativenessCampaignResult:
    """pairs seeded (scenario, condition-distribution) draws, cycled across
    the four strata, each put through all three constructions and verified
    exactly."""
    if pairs < 0:
        raise DomainError(f"campaign size must be >= 0, got {pairs}")
    per_stratum = {name: [0, 0] for name in STRATA}
    successes = 0
    total = 0
    for k in range(pairs):
        stratum = STRATA[k % len(STRATA)]
        s = sample_scenario_stratum(stratum, seed, k)
        pi = sample_condition_distribution(seed ^ 0x5EED, k)
        for kind in KINDS:
            ok = verify_conditionals(build_conditional(kind, s, pi), s)
            successes += ok
            total += 1
            per_stratum[stratum][0] += ok
            per_stratum[stratum][1] += 1
    return UninformativenessCampaignResult(
        pairs, total, successes, {k: (v[0], v[1]) for k, v in per_stratum.items()}
    )
