import math
from fractions import Fraction

import pytest

from spincouple import (
    BOUNDARY_MARGIN,
    CONTEXTS,
    DomainError,
    GRID,
    SamplerExhausted,
    STRATA,
    TSIRELSON_BOUND,
    arcsin_sum_max,
    check_no_signaling,
    chsh_max,
    derive_seed,
    sample_condition_distribution,
    sample_connection_components,
    sample_scenario_in_family,
    sample_scenario_stratum,
    sample_uniform_marginal_scenario,
    scenario_from_correlations,
    slot_rng,
)
from spincouple.inequalities import sign_sum_max

import reference_sampling as oracle

F = Fraction

# the seeds of acceptance checks 1 and 5-8 (tests/test_acceptance.py)
SEED_FINE = 20260814
SEED_UNINFORMATIVE = 1729
SEED_SIGN_VECTORS = 42


def test_derive_seed_is_stateless_and_spread():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    seen = {derive_seed(42, i) for i in range(1000)}
    assert len(seen) == 1000  # no collisions across slots
    assert derive_seed(42, 0) != derive_seed(43, 0)
    assert all(0 <= v < 2**64 for v in seen)


def test_slot_rng_order_independence():
    # slot 5's stream must not depend on whether slots 0..4 were drawn
    direct = slot_rng(7, 5).random()
    for i in range(5):
        slot_rng(7, i).random()
    assert slot_rng(7, 5).random() == direct


def test_uniform_marginal_scenario_lives_on_the_grid():
    s = sample_uniform_marginal_scenario(11, 0)
    assert s == sample_uniform_marginal_scenario(11, 0)
    for ctx in CONTEXTS:
        pd = s.pairs[ctx]
        assert pd.a_plus() == F(1, 2) and pd.b_plus() == F(1, 2)
    for e in s.correlations().components():
        assert (e * GRID).denominator == 1
        assert -1 <= e <= 1
    assert check_no_signaling(s).holds


@pytest.mark.parametrize("family,member", [
    ("bell", True), ("bell", False),
    ("quantum", True), ("quantum", False),
    ("tsirelson", True), ("tsirelson", False),
])
def test_family_sampler_respects_margins(family, member):
    for index in range(8):
        s = sample_scenario_in_family(family, member, 13, index)
        c = s.correlations()
        if family == "bell":
            m = chsh_max(c)
            assert m <= 2 - F(BOUNDARY_MARGIN) if member else m >= 2 + F(BOUNDARY_MARGIN)
        elif family == "quantum":
            m = arcsin_sum_max(c)
            assert m <= math.pi - BOUNDARY_MARGIN if member else m >= math.pi + BOUNDARY_MARGIN
        else:
            m = float(chsh_max(c))
            bound = TSIRELSON_BOUND
            assert m <= bound - BOUNDARY_MARGIN if member else m >= bound + BOUNDARY_MARGIN


def test_family_sampler_rejects_unknown_family():
    with pytest.raises(DomainError):
        sample_scenario_in_family("classical", True, 0, 0)


def test_strata_land_where_promised():
    assert STRATA == ("bell", "quantum-only", "super-tsirelson", "nosig-violating")
    for index in range(6):
        c = sample_scenario_stratum("bell", 3, index).correlations()
        assert chsh_max(c) <= 2 - F(BOUNDARY_MARGIN)

        c = sample_scenario_stratum("quantum-only", 3, index).correlations()
        assert chsh_max(c) >= 2 + F(BOUNDARY_MARGIN)
        assert arcsin_sum_max(c) <= math.pi - BOUNDARY_MARGIN

        c = sample_scenario_stratum("super-tsirelson", 3, index).correlations()
        assert float(chsh_max(c)) >= TSIRELSON_BOUND + BOUNDARY_MARGIN

        s = sample_scenario_stratum("nosig-violating", 3, index)
        assert not check_no_signaling(s).holds

    with pytest.raises(DomainError):
        sample_scenario_stratum("post-quantum", 3, 0)


def test_sampler_exhaustion_is_reported(monkeypatch):
    import spincouple.sampling as sampling

    monkeypatch.setattr(sampling, "REJECTION_CAP", 0)
    with pytest.raises(SamplerExhausted) as exc:
        sampling.sample_scenario_in_family("bell", True, 0, 0)
    assert exc.value.draws == 0
    with pytest.raises(SamplerExhausted):
        sampling.sample_scenario_stratum("nosig-violating", 0, 0)
    # names are checked before the first draw, not reported as exhaustion
    with pytest.raises(DomainError):
        sampling.sample_scenario_in_family("classical", True, 0, 0)
    with pytest.raises(DomainError):
        sampling.sample_scenario_stratum("post-quantum", 0, 0)


def _numerators_with_chsh(m: int) -> tuple[int, ...]:
    """Four numerators in [-GRID, GRID] whose chsh_max is m / GRID."""
    parts = [min(GRID, max(0, m - GRID * i)) for i in range(4)]
    return (parts[0], parts[1], parts[2], -parts[3])


def test_numerator_decisions_equal_the_fraction_comparisons_for_every_m():
    import spincouple.sampling as sampling

    for m in range(4 * GRID + 1):
        k = _numerators_with_chsh(m)
        comps = tuple(F(v, GRID) for v in k)
        # the negated component may sit in any slot, and the sum may be negative
        for shifted in (k[i:] + k[:i] for i in range(4)):
            for signed in (shifted, tuple(-v for v in shifted)):
                assert sign_sum_max(signed) == m, (signed, m)
        assert chsh_max(comps) * GRID == m
        for family in ("bell", "tsirelson"):
            inside, outside = oracle._family_distance(comps, family)
            assert sampling._FAMILY_TESTS[family, True](k) == inside, (family, m)
            assert sampling._FAMILY_TESTS[family, False](k) == outside, (family, m)


def test_per_numerator_caches_equal_the_fraction_route_for_every_k():
    import spincouple.sampling as sampling

    for k in range(-GRID, GRID + 1):
        e = F(k, GRID)
        lifted = scenario_from_correlations([e] * 4)
        assert all(sampling._grid_pair(k) == lifted.pairs[ctx] for ctx in CONTEXTS)
        assert sampling._asin(k) == math.asin(float(e))


# Checks 7 and 8 refute forcing at once and so draw only slots 0 and 1 of
# each seed; ten slots per seed cover them with room to spare.
_ORACLE_CASES = {
    "check 6 bell members": [("bell", True, SEED_SIGN_VECTORS, k) for k in range(16, 100)],
    "check 6 bell violators": [("bell", False, SEED_SIGN_VECTORS, k) for k in range(100)],
    "check 7 quantum violators": [
        ("quantum", False, 7000 + i, k) for i in range(100) for k in range(10)
    ],
    "check 8 quantum and bell violators": [
        (family, False, 8000 + i, k)
        for i in range(50) for family in ("quantum", "bell") for k in range(10)
    ],
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_family_samples_equal_the_fraction_oracle(case):
    for request in _ORACLE_CASES[case]:
        assert sample_scenario_in_family(*request) == oracle.sample_scenario_in_family(*request), request


def test_campaign_samples_equal_the_fraction_oracle():
    # acceptance check 5 cycles the strata over 500 slots; check 1 draws 1000
    for k in range(500):
        stratum = STRATA[k % len(STRATA)]
        assert sample_scenario_stratum(stratum, SEED_UNINFORMATIVE, k) == (
            oracle.sample_scenario_stratum(stratum, SEED_UNINFORMATIVE, k)
        ), (stratum, k)
    for k in range(1000):
        assert sample_uniform_marginal_scenario(SEED_FINE, k) == (
            oracle.sample_uniform_marginal_scenario(SEED_FINE, k)
        ), k


def test_condition_distribution_sampler():
    pi = sample_condition_distribution(21, 4)
    assert pi == sample_condition_distribution(21, 4)
    total = sum(pi.pi.values())
    assert total == 1
    for v in pi.pi.values():
        assert v > 0
        assert (v * GRID).denominator == 1


def test_connection_component_sampler():
    comps = sample_connection_components(5, 9)
    assert comps == sample_connection_components(5, 9)
    assert comps != sample_connection_components(5, 10)
    assert len(comps) == 4
    for v in comps:
        assert isinstance(v, float)
        assert -1.0 <= v <= 1.0
