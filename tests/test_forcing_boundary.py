"""The forcing leg's boundary violator.

Before its seeded samples, test_forcing tries the uniform scenario with
correlations (m/4) (1, 1, 1, -1), m = min(6 - v, 4, 8 - o), o and v the
largest odd- and even-pattern sums of the rationalized targets, whenever
family_report calls it a violator of the family, however slight the
violation.  These tests hold its refutations to the exact coupling
decision (the fan and the 256-column LP) and hold the leg to the
samples-only leg wherever the boundary violator is skipped.
"""

from fractions import Fraction
from itertools import product

import pytest

from spincouple import (
    FAMILIES,
    coupling_exists,
    exact_connection,
    family_report,
    sample_connection_components,
    sample_scenario_in_family,
    test_forcing as role_forcing,
)
from spincouple.connections import _boundary_violator

import reference_coupling as oracle

SIGN_VECTORS = tuple(product((1, -1), repeat=4))
ODD_SIGN_VECTORS = tuple(v for v in SIGN_VECTORS if v.count(-1) % 2)
EVEN_SIGN_VECTORS = tuple(v for v in SIGN_VECTORS if not v.count(-1) % 2)


def _samples_only(conn, family, seed, n):
    """(verdict, samples_checked, counterexample scenario) of the forcing
    leg without a boundary violator: seeded violators from slot 0 on."""
    exact = exact_connection(conn)
    for k in range(n):
        s = sample_scenario_in_family(family, False, seed, k)
        if coupling_exists(s, exact).feasible:
            return False, k + 1, s
    return True, n, None


def _assert_certified(res, conn, family, lp_too=False):
    s, detail = res.counterexample
    assert f"{family}-violating" in detail
    assert not family_report(family, s.correlations()).satisfied
    assert coupling_exists(s, exact_connection(conn)).feasible
    if lp_too:
        assert oracle.coupling_exists(s, exact_connection(conn)).feasible


@pytest.mark.parametrize("family", FAMILIES)
def test_odd_sign_vectors_are_refuted_at_the_boundary(family):
    for v in ODD_SIGN_VECTORS:
        res = role_forcing(v, family, 11, 10)
        assert not res.verdict and res.samples_checked == 1
        _assert_certified(res, v, family, lp_too=v == ODD_SIGN_VECTORS[0])
        # the boundary violator is the super-quantum box, all CHSH 4
        assert res.counterexample[0].correlations().components() == (1, 1, 1, -1)


@pytest.mark.parametrize("family", FAMILIES)
def test_even_sign_vectors_skip_the_boundary(family):
    # m = 2 sits on the bell boundary, inside every family with margin
    for v in EVEN_SIGN_VECTORS:
        assert _boundary_violator(family, exact_connection(v)) is None
        res = role_forcing(v, family, 11, 10)
        verdict, checked, s = _samples_only(v, family, 11, 10)
        assert (res.verdict, res.samples_checked) == (verdict, checked)
        assert (res.counterexample and res.counterexample[0]) == s


def test_boundary_verdicts_never_contradict_the_samples():
    refuted = {family: 0 for family in FAMILIES}
    for i in range(300):
        v = sample_connection_components(4242, i)
        for family in FAMILIES:
            res = role_forcing(v, family, 500 + i, 20)
            verdict, checked, s = _samples_only(v, family, 500 + i, 20)
            if _boundary_violator(family, exact_connection(v)) is None:
                assert (res.verdict, res.samples_checked) == (verdict, checked)
                assert (res.counterexample and res.counterexample[0]) == s
                continue
            refuted[family] += 1
            assert not res.verdict and res.samples_checked == 1
            _assert_certified(res, v, family)
    assert refuted == {"bell": 300, "quantum": 298, "tsirelson": 298}


def test_boundary_violator_is_tried_iff_family_report_refuses_it():
    # c = (1, 1, 1, 1 - 2d) has v = 4 - 2d and o = 2 + 2d, so m = 2 + 2d:
    # a bell violator exactly when d > 0, however small
    for d in (
        Fraction(0),
        Fraction(1, 10**5),
        Fraction(1, 2 * 10**4),
        Fraction(1, 10**4),
        Fraction(2, 10**4),
    ):
        s = _boundary_violator("bell", exact_connection((1, 1, 1, 1 - 2 * d)))
        assert (s is not None) == (d > 0)
        if s is not None:
            assert s.correlations().components() == tuple((1 + d) / 2 * x for x in (1, 1, 1, -1))


# m - 2 sqrt(2) = 4.6e-5: a violator by less than the sampler's 1e-4 margin
SLIGHT_TSIRELSON_VIOLATOR = (-0.710926, 0.633031, 0.917998, -0.909572)


@pytest.mark.parametrize("family", ("quantum", "tsirelson"))
def test_slight_violators_are_tried(family):
    exact = exact_connection(SLIGHT_TSIRELSON_VIOLATOR)
    s = _boundary_violator(family, exact)
    assert s is not None
    q = Fraction(2828473, 4 * 10**6)
    assert s.correlations().components() == (q, q, q, -q)
    res = role_forcing(SLIGHT_TSIRELSON_VIOLATOR, family, 7, 5)
    assert not res.verdict and res.samples_checked == 1
    assert res.counterexample[0] == s
    _assert_certified(res, SLIGHT_TSIRELSON_VIOLATOR, family, lp_too=True)
