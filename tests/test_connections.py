import math
from fractions import Fraction
from itertools import product

import pytest

from spincouple import (
    CONTEXTS,
    ConnectionVector,
    DomainError,
    S2_EVEN_BOUND,
    bell_ch_fine,
    correlation,
    coupling_exists,
    exact_connection,
    family_report,
    rationalize,
    satisfies_s1_prime,
    satisfies_s2_prime,
    test_equivalent as role_equivalent,
    test_fitting as role_fitting,
    test_forcing as role_forcing,
)

import reference_coupling as oracle

F = Fraction

SIGN_VECTORS = tuple(product((1, -1), repeat=4))


def test_s1_prime_truth_table():
    holders = [v for v in SIGN_VECTORS if satisfies_s1_prime(v)]
    assert len(holders) == 8
    for v in holders:
        assert v.count(1) % 2 == 0
    assert satisfies_s1_prime((1, 1, 1, 1))
    assert satisfies_s1_prime((-1, -1, -1, -1))
    assert not satisfies_s1_prime((1, 1, 1, -1))
    assert not satisfies_s1_prime((F(1, 2), 1, 1, 1))
    assert not satisfies_s1_prime((0, 0, 0, 0))


def test_s2_prime_surface():
    x = (3.0 - math.sqrt(2.0)) / 2.0  # aligned vector hitting the even bound
    assert satisfies_s2_prime((x, x, x, x))
    assert satisfies_s2_prime((-x, -x, x, x))  # even sign flips preserve it
    assert not satisfies_s2_prime((x + 1e-6, x, x, x), epsilon=1e-9)
    assert not satisfies_s2_prime((1, 1, 1, 1))  # even max 4 overshoots
    assert not satisfies_s2_prime((0, 0, 0, 0))  # even max 0 undershoots
    assert S2_EVEN_BOUND == pytest.approx(2 * (3 - math.sqrt(2)))


def test_rationalize():
    assert rationalize(0.5, 10**6) == F(1, 2)
    assert rationalize(F(1, 3), 2) == F(1, 3).limit_denominator(2)
    r = rationalize(math.sqrt(2) / 2, 10**6)
    assert r.denominator <= 10**6
    assert abs(float(r) - math.sqrt(2) / 2) < 1e-6
    with pytest.raises(DomainError):
        rationalize(1.5, 10**6)
    for bad in (0, -3, True, False, 2.5, 10.0, "10", None):
        with pytest.raises(DomainError, match="max_denominator"):
            rationalize(0.5, bad)
    for x in (math.nan, math.inf, -math.inf, True, False, None, "x"):
        with pytest.raises(DomainError):
            rationalize(x, 10)


def test_exact_connection_rationalizes_only_floats():
    v = ConnectionVector(0.25, F(1, 3), 1, -0.7071)
    out = exact_connection(v)
    comps = out.rational_components()
    assert comps[0] == F(1, 4)
    assert comps[1] == F(1, 3)  # untouched, not limited
    assert comps[2] == F(1)
    assert comps[3].denominator <= 10**6
    assert abs(float(comps[3]) + 0.7071) < 1e-6


def _corrs(s):
    return tuple(correlation(s.pairs[ctx]) for ctx in CONTEXTS)


def test_roles_are_deterministic_for_a_seed():
    a = role_fitting((1, 1, 1, 1), "bell", 17, 12)
    b = role_fitting((1, 1, 1, 1), "bell", 17, 12)
    assert a == b
    c = role_forcing((0, 0, 0, 0), "quantum", 17, 12)
    d = role_forcing((0, 0, 0, 0), "quantum", 17, 12)
    assert c == d


def test_zero_vector_fits_everything_but_forces_nothing():
    # uniform marginals give every single observable mean zero, so the
    # independent coupling realizes the all-zero targets in any scenario
    fit = role_fitting((0, 0, 0, 0), "bell", 5, 25)
    assert fit.verdict and fit.samples_checked == 25 and fit.counterexample is None
    force = role_forcing((0, 0, 0, 0), "bell", 5, 25)
    assert not force.verdict
    assert force.samples_checked <= 25
    s, detail = force.counterexample
    assert "bell" in detail
    # the counterexample is certified: a bell violator that still couples
    assert not bell_ch_fine(_corrs(s)).satisfied
    assert coupling_exists(s, ConnectionVector(F(0), F(0), F(0), F(0))).feasible


def test_sign_vectors_equivalent_for_bell_match_s1_prime():
    # spot checks here; the exhaustive sweep lives in the acceptance suite
    assert role_equivalent((1, 1, 1, 1), "bell", 23, 40).verdict
    assert role_equivalent((1, -1, -1, 1), "bell", 23, 40).verdict
    bad = role_equivalent((1, 1, 1, -1), "bell", 23, 40)
    assert not bad.verdict
    s, detail = bad.counterexample
    feasible = coupling_exists(s, exact_connection((1, 1, 1, -1))).feasible
    member = bell_ch_fine(_corrs(s)).satisfied
    # whichever leg failed, the certificate contradicts equivalence
    assert feasible != member


def test_equivalent_counts_both_legs_when_passing():
    res = role_equivalent((1, 1, 1, 1), "bell", 29, 15)
    assert res.verdict
    assert res.samples_checked == 30
    assert res.role == "equivalent"


def test_s1_vector_is_not_equivalent_for_quantum():
    res = role_equivalent((1, 1, 1, 1), "quantum", 3, 60)
    assert not res.verdict
    s, _ = res.counterexample
    feasible = coupling_exists(s, exact_connection((1, 1, 1, 1))).feasible
    # identity targets succeed only on bell scenarios, so the failing leg is
    # fitting: some quantum member refuses them
    assert not feasible
    assert not bell_ch_fine(_corrs(s)).satisfied


@pytest.mark.parametrize(
    "conn, family, seed",
    [
        # a random vector that interior samples once called tsirelson-equivalent
        ((-0.796768, 0.734316, -0.99628, 0.953224), "tsirelson", 183433334644710907),
        # refuted at an odd sign direction, r * sigma with r just below sqrt(2)/2
        ((1, 1, 1, 1), "quantum", 3),
    ],
)
def test_fitting_refutation_at_extreme_point_is_certified(conn, family, seed):
    res = role_fitting(conn, family, seed, 20)
    assert not res.verdict and res.samples_checked <= 16
    s, detail = res.counterexample
    assert family in detail
    # a family member that admits no coupling, by the cycle and by the LP
    assert family_report(family, _corrs(s)).satisfied
    assert not coupling_exists(s, exact_connection(conn)).feasible
    assert not oracle.coupling_exists(s, exact_connection(conn)).feasible


def test_role_input_validation():
    with pytest.raises(DomainError):
        role_fitting((1, 1, 1, 1), "classical", 0, 5)
    with pytest.raises(DomainError):
        role_fitting((1, 1, 1, 1), "bell", 0, 0)
