"""Seed-deterministic rejection samplers for randomized campaigns.

Every sample slot gets its own RNG seeded by a splitmix-style hash of
(campaign seed, slot index), so a campaign's k-th sample is the same
whether slots are evaluated serially or in parallel, and independent of
how many earlier slots were drawn.

Correlation components are drawn uniformly from the grid k/1000,
k in [-1000, 1000]: exact rationals with small denominators keep the
integers of the exact coupling decision small, and the grid is dense
enough that every family stratum has ample probability.  Family
membership is enforced with a margin of 1e-4 from the boundary, which
absorbs the worst-case perturbation from rationalizing irrational
connection targets at denominator <= 10^6 (connection tests feed those
rationalized targets to that exact decision).

Membership is decided on the integer numerators k, not on Fractions: bell
and tsirelson compare `sign_sum_max(k)` (= GRID * `chsh_max`) with integer
thresholds, and quantum passes the cached asin(k/1000) to the same
`float_sign_sum_max` that `arcsin_sum_max` uses.  An accepted draw is built
from a cache of the frozen uniform-marginal pair distribution of each
numerator (2001 at most), so no Fraction is made for a rejected draw.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from .distributions import (
    CONTEXTS,
    PairDistribution,
    Scenario,
    check_no_signaling,
)
from .errors import DomainError, SamplerExhausted
from .inequalities import (
    FAMILY_BELL,
    FAMILY_QUANTUM,
    FAMILY_TSIRELSON,
    float_sign_sum_max,
    sign_sum_max,
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


def draw_correlation_components(rng: random.Random) -> tuple[int, ...]:
    """The numerators k of four components k/GRID: one draw."""
    r = rng.randint
    return r(-GRID, GRID), r(-GRID, GRID), r(-GRID, GRID), r(-GRID, GRID)


# Thresholds on M = sign_sum_max(k) = GRID * chsh_max: M <= *_IN iff the
# draw is strictly inside the family with margin, M >= *_OUT iff strictly
# outside.  The bell pair reproduces chsh_max <= 2 - m and >= 2 + m with
# m = Fraction(BOUNDARY_MARGIN); the tsirelson pair reproduces the float
# comparisons float(chsh_max) <= TSIRELSON_BOUND - BOUNDARY_MARGIN and
# >= TSIRELSON_BOUND + BOUNDARY_MARGIN.  The sampling tests check both for
# every M.
_BELL_IN, _BELL_OUT = 1999, 2001
_TSIRELSON_IN, _TSIRELSON_OUT = 2828, 2829
_PI_IN = math.pi - BOUNDARY_MARGIN
_PI_OUT = math.pi + BOUNDARY_MARGIN


@functools.cache
def _asin(k: int) -> float:
    # k / GRID is correctly rounded, so it is float(Fraction(k, GRID))
    return math.asin(k / GRID)


@functools.cache
def _grid_pair(k: int) -> PairDistribution:
    """The uniform-marginal pair with correlation e = k/GRID, cells
    ((1+e)/4, (1-e)/4, (1-e)/4, (1+e)/4); frozen, so scenarios share it."""
    hi = Fraction(GRID + k, 4 * GRID)
    lo = Fraction(GRID - k, 4 * GRID)
    return PairDistribution(hi, lo, lo, hi)


def _grid_scenario(k) -> Scenario:
    return Scenario({ctx: _grid_pair(v) for ctx, v in zip(CONTEXTS, k)})


# (family, member) -> test on the four numerators of one draw
_FAMILY_TESTS = {
    (FAMILY_BELL, True): lambda k: sign_sum_max(k) <= _BELL_IN,
    (FAMILY_BELL, False): lambda k: sign_sum_max(k) >= _BELL_OUT,
    (FAMILY_QUANTUM, True): lambda k: float_sign_sum_max(*map(_asin, k)) <= _PI_IN,
    (FAMILY_QUANTUM, False): lambda k: float_sign_sum_max(*map(_asin, k)) >= _PI_OUT,
    (FAMILY_TSIRELSON, True): lambda k: sign_sum_max(k) <= _TSIRELSON_IN,
    (FAMILY_TSIRELSON, False): lambda k: sign_sum_max(k) >= _TSIRELSON_OUT,
}


def _sample_grid(accepts, sampler_seed: int, index: int, miss: str) -> Scenario:
    """The first draw of the slot that passes accepts, as a scenario."""
    rng = slot_rng(sampler_seed, index)
    for _ in range(REJECTION_CAP):
        k = draw_correlation_components(rng)
        if accepts(k):
            return _grid_scenario(k)
    raise SamplerExhausted(
        f"{miss} in {REJECTION_CAP} draws (slot {index})", REJECTION_CAP
    )


def sample_scenario_in_family(
    family: str, member: bool, sampler_seed: int, index: int
) -> Scenario:
    """One uniform-marginal scenario whose correlation vector lies strictly
    inside (member) or strictly outside (violator) the family, with margin."""
    accepts = _FAMILY_TESTS.get((family, bool(member)))
    if accepts is None:
        raise DomainError(f"unknown family {family!r}")
    role = "member" if member else "violator"
    return _sample_grid(accepts, sampler_seed, index, f"no {role} of {family} found")


STRATA = ("bell", "quantum-only", "super-tsirelson", "nosig-violating")

_STRATUM_TESTS = {
    "bell": _FAMILY_TESTS[FAMILY_BELL, True],
    # the arcsin sum only for draws already outside bell
    "quantum-only": lambda k: (
        sign_sum_max(k) >= _BELL_OUT and float_sign_sum_max(*map(_asin, k)) <= _PI_IN
    ),
    "super-tsirelson": _FAMILY_TESTS[FAMILY_TSIRELSON, False],
}


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
    if stratum == "nosig-violating":
        rng = slot_rng(sampler_seed, index)
        for _ in range(REJECTION_CAP):
            s = Scenario({ctx: _random_pair_distribution(rng) for ctx in CONTEXTS})
            if not check_no_signaling(s).holds:
                return s
        raise SamplerExhausted(
            f"no no-signaling violator found in {REJECTION_CAP} draws", REJECTION_CAP
        )
    accepts = _STRATUM_TESTS.get(stratum)
    if accepts is None:
        raise DomainError(f"unknown stratum {stratum!r}; expected one of {STRATA}")
    return _sample_grid(accepts, sampler_seed, index, f"stratum {stratum} not hit")


def sample_uniform_marginal_scenario(sampler_seed: int, index: int) -> Scenario:
    """Unfiltered draw from the correlation grid, boundary cases included."""
    return _grid_scenario(draw_correlation_components(slot_rng(sampler_seed, index)))


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
