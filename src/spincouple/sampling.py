"""Seed-deterministic rejection samplers for randomized campaigns.

Every sample slot gets its own RNG seeded by a splitmix-style hash of
(campaign seed, slot index), so a campaign's k-th sample is the same
whether slots are evaluated serially or in parallel, and independent of
how many earlier slots were drawn.

Correlation components are drawn uniformly from the grid k/1000,
k in [-1000, 1000]: exact rationals with small denominators keep the
integers of the exact coupling decision small, and the grid is dense
enough that every family stratum has ample probability.  Family membership is enforced with a margin of 1e-4 from the
boundary, which absorbs the worst-case perturbation from rationalizing
irrational connection targets at denominator <= 10^6 (connection tests
feed those rationalized targets to that exact decision).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .distributions import (
    CONTEXTS,
    PairDistribution,
    Scenario,
    check_no_signaling,
    scenario_from_correlations,
)
from .errors import DomainError, SamplerExhausted
from .inequalities import (
    FAMILY_BELL,
    FAMILY_QUANTUM,
    FAMILY_TSIRELSON,
    TSIRELSON_BOUND,
    arcsin_sum_max,
    chsh_max,
)

REJECTION_CAP = 100_000
GRID = 1000
BOUNDARY_MARGIN = 1e-4

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, index: int) -> int:
    """Stateless per-slot seed: splitmix64 finalizer over seed and slot."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def slot_rng(seed: int, index: int) -> random.Random:
    return random.Random(derive_seed(seed, index))


def draw_correlation_components(rng: random.Random) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-GRID, GRID), GRID) for _ in range(4))


def _family_distance(components, family: str) -> tuple[bool, bool]:
    """(strictly inside with margin, strictly outside with margin)."""
    if family == FAMILY_BELL:
        m = chsh_max(components)
        return m <= 2 - Fraction(BOUNDARY_MARGIN), m >= 2 + Fraction(BOUNDARY_MARGIN)
    if family == FAMILY_QUANTUM:
        m = arcsin_sum_max(components)
        return m <= math.pi - BOUNDARY_MARGIN, m >= math.pi + BOUNDARY_MARGIN
    if family == FAMILY_TSIRELSON:
        m = float(chsh_max(components))
        return m <= TSIRELSON_BOUND - BOUNDARY_MARGIN, m >= TSIRELSON_BOUND + BOUNDARY_MARGIN
    raise DomainError(f"unknown family {family!r}")


def sample_scenario_in_family(
    family: str, member: bool, sampler_seed: int, index: int
) -> Scenario:
    """One uniform-marginal scenario whose correlation vector lies strictly
    inside (member) or strictly outside (violator) the family, with margin."""
    rng = slot_rng(sampler_seed, index)
    for _ in range(REJECTION_CAP):
        comps = draw_correlation_components(rng)
        inside, outside = _family_distance(comps, family)
        if inside if member else outside:
            return scenario_from_correlations(comps)
    raise SamplerExhausted(
        f"no {'member' if member else 'violator'} of {family} found in "
        f"{REJECTION_CAP} draws (slot {index})",
        REJECTION_CAP,
    )


STRATA = ("bell", "quantum-only", "super-tsirelson", "nosig-violating")


def _random_pair_distribution(rng: random.Random) -> PairDistribution:
    cuts = sorted(rng.randint(0, GRID) for _ in range(3))
    parts = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], GRID - cuts[2])
    return PairDistribution(*(Fraction(v, GRID) for v in parts))


def sample_scenario_stratum(stratum: str, sampler_seed: int, index: int) -> Scenario:
    """A scenario from one of the four demonstration strata.

    bell: correlation vector strictly inside the classical polytope.
    quantum-only: outside bell, strictly inside the arcsin body.
    super-tsirelson: strictly outside the 2*sqrt(2) bound.
    nosig-violating: four independent random pair distributions whose
    marginals disagree across contexts (exact check, no margin needed).
    """
    rng = slot_rng(sampler_seed, index)
    if stratum == "nosig-violating":
        for _ in range(REJECTION_CAP):
            s = Scenario({ctx: _random_pair_distribution(rng) for ctx in CONTEXTS})
            if not check_no_signaling(s).holds:
                return s
        raise SamplerExhausted(
            f"no no-signaling violator found in {REJECTION_CAP} draws", REJECTION_CAP
        )
    for _ in range(REJECTION_CAP):
        comps = draw_correlation_components(rng)
        if stratum == "bell":
            ok, _out = _family_distance(comps, FAMILY_BELL)
        elif stratum == "quantum-only":
            _in, bell_out = _family_distance(comps, FAMILY_BELL)
            q_in, _qout = _family_distance(comps, FAMILY_QUANTUM)
            ok = bell_out and q_in
        elif stratum == "super-tsirelson":
            _in, ok = _family_distance(comps, FAMILY_TSIRELSON)
        else:
            raise DomainError(f"unknown stratum {stratum!r}; expected one of {STRATA}")
        if ok:
            return scenario_from_correlations(comps)
    raise SamplerExhausted(
        f"stratum {stratum} not hit in {REJECTION_CAP} draws (slot {index})",
        REJECTION_CAP,
    )


def sample_uniform_marginal_scenario(sampler_seed: int, index: int) -> Scenario:
    """Unfiltered draw from the correlation grid, boundary cases included."""
    rng = slot_rng(sampler_seed, index)
    return scenario_from_correlations(draw_correlation_components(rng))


def sample_condition_distribution(sampler_seed: int, index: int):
    """Four strictly positive rationals on the 1/GRID grid summing to 1."""
    from .conditionalization import ConditionDistribution

    rng = slot_rng(sampler_seed, index)
    # distinct interior cuts guarantee every part is >= 1/GRID, hence > 0
    cuts = sorted(rng.sample(range(1, GRID), 3))
    parts = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], GRID - cuts[2])
    return ConditionDistribution(
        {ctx: Fraction(v, GRID) for ctx, v in zip(CONTEXTS, parts)}
    )


def sample_connection_components(sampler_seed: int, index: int) -> tuple[float, ...]:
    """Four uniform floats in [-1, 1] for randomized connection campaigns."""
    rng = slot_rng(sampler_seed, index)
    return tuple(rng.uniform(-1.0, 1.0) for _ in range(4))
