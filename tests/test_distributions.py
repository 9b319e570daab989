from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spincouple import (
    CONTEXTS,
    CorrelationVector,
    DomainError,
    PairDistribution,
    Scenario,
    StructuralError,
    check_no_signaling,
    correlation,
    scenario_from_correlations,
)

F = Fraction


def test_pair_distribution_accessors():
    pd = PairDistribution(F(1, 2), F(1, 5), F(1, 5), F(1, 10))
    assert pd.prob(1, 1) == F(1, 2)
    assert pd.prob(1, -1) == F(1, 5)
    assert pd.prob(-1, 1) == F(1, 5)
    assert pd.prob(-1, -1) == F(1, 10)
    assert pd.a_plus() == F(7, 10)
    assert pd.b_plus() == F(7, 10)
    assert correlation(pd) == F(1, 2) - F(1, 5) - F(1, 5) + F(1, 10)


def test_pair_distribution_accepts_strings_and_ints():
    pd = PairDistribution("1/2", "1/4", "1/4", 0)
    assert pd.cells() == (F(1, 2), F(1, 4), F(1, 4), F(0))


def test_pair_distribution_rejects_bad_cells():
    with pytest.raises(DomainError):
        PairDistribution(F(1, 2), F(1, 2), F(1, 2), F(-1, 2))
    with pytest.raises(DomainError):
        PairDistribution(F(1, 2), F(1, 4), F(1, 4), F(1, 4))  # sums to 5/4
    with pytest.raises(DomainError):
        PairDistribution(0.25, 0.25, 0.25, 0.25)  # floats refused


@pytest.mark.parametrize(
    "cells, message",
    [
        ((True, 0, 0, 0), "p_pp: booleans are not probabilities"),
        (("1/2", "x", "1/4", "1/4"), "p_pm: cannot parse rational from 'x'"),
        ((F(1, 2), F(1, 4), 0.25, 0), "p_mp: refusing float 0.25"),
        ((0, 0, 0, None), "p_mm: cannot interpret NoneType"),
    ],
)
def test_pair_distribution_errors_name_the_cell(cells, message):
    with pytest.raises(DomainError) as exc:
        PairDistribution(*cells)
    assert str(exc.value).startswith(message)


def test_scenario_requires_all_contexts():
    pd = PairDistribution(F(1, 4), F(1, 4), F(1, 4), F(1, 4))
    with pytest.raises(StructuralError):
        Scenario({(1, 1): pd})
    with pytest.raises(StructuralError):
        Scenario({ctx: pd for ctx in CONTEXTS} | {(3, 1): pd})


@given(st.fractions(min_value=-1, max_value=1, max_denominator=50))
def test_scenario_from_correlations_round_trips(e):
    s = scenario_from_correlations([e, e, e, e])
    for ctx in CONTEXTS:
        pd = s.pairs[ctx]
        assert pd.a_plus() == F(1, 2)
        assert pd.b_plus() == F(1, 2)
        assert correlation(pd) == e
    assert s.correlations().components() == (e, e, e, e)


def test_scenario_from_correlations_rejects_floats_and_range():
    with pytest.raises(DomainError):
        scenario_from_correlations([0.5, 0, 0, 0])
    with pytest.raises(DomainError):
        scenario_from_correlations([F(3, 2), F(0), F(0), F(0)])
    with pytest.raises(StructuralError):
        scenario_from_correlations([F(0)] * 3)


def test_correlation_vector_clamps_one_ulp_floats():
    v = CorrelationVector(1.0 + 1e-12, -1.0 - 1e-12, 0.5, F(1, 3))
    assert v.e11 == 1.0
    assert v.e12 == -1.0
    with pytest.raises(DomainError):
        CorrelationVector(1.1, 0, 0, 0)
    with pytest.raises(DomainError):
        CorrelationVector(F(11, 10), 0, 0, 0)
    with pytest.raises(DomainError):
        CorrelationVector(0, 0, float("nan"), 0)


def test_no_signaling_holds_for_uniform_marginal_scenarios(mixed_scenario):
    report = check_no_signaling(mixed_scenario)
    assert report.holds
    assert report.violations == ()


def test_no_signaling_violation_labels():
    uniform = PairDistribution(F(1, 4), F(1, 4), F(1, 4), F(1, 4))
    skewed = PairDistribution(F(1, 2), F(1, 4), F(1, 4), F(0))  # Pr[A=+1] = 3/4
    s = Scenario({(1, 1): skewed, (1, 2): uniform, (2, 1): uniform, (2, 2): uniform})
    report = check_no_signaling(s)
    assert not report.holds
    # the skew shows up in Alice's first row and Bob's first column
    assert set(report.violations) == {"A row i=1", "B column j=1"}
