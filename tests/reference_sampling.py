"""The family and stratum samplers on Fraction components, as the exact oracle.

spincouple.sampling decides membership on the integer numerators k of the
k/GRID components and builds Fractions only for an accepted draw; the
samplers here run chsh_max and arcsin_sum_max on Fraction components for
every draw.  Both consume the same slot RNG in the same order, so a slot
must yield the same scenario from either.
"""

import math
import random
from fractions import Fraction

from spincouple import (
    BOUNDARY_MARGIN,
    CONTEXTS,
    DomainError,
    FAMILY_BELL,
    FAMILY_QUANTUM,
    FAMILY_TSIRELSON,
    GRID,
    REJECTION_CAP,
    STRATA,
    SamplerExhausted,
    Scenario,
    TSIRELSON_BOUND,
    arcsin_sum_max,
    check_no_signaling,
    chsh_max,
    scenario_from_correlations,
    slot_rng,
)
from spincouple.sampling import _random_pair_distribution


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
