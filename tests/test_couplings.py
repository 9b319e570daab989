import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spincouple
from spincouple import (
    ALL_PATTERNS,
    CONNECTION_NAMES,
    CONTEXTS,
    ConnectionVector,
    Coupling,
    DomainError,
    PairDistribution,
    Scenario,
    StructuralError,
    connection_range,
    correlation,
    coupling_exists,
    coupling_from_pattern_map,
    identity_coupling_exists,
    independent_coupling,
    pair_coupling_range,
    pair_coupling_range_lp,
    pattern_from_key,
    pattern_key,
    scenario_from_correlations,
)

F = Fraction

def _pair_strategy():
    # three cut points in [0, 12] give four nonnegative twelfths summing to 1
    return st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)).map(
        lambda cuts: _pair_from_cuts(sorted(cuts))
    )


def _pair_from_cuts(cuts):
    parts = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], 12 - cuts[2])
    return PairDistribution(*(F(p, 12) for p in parts))


def _scenario_strategy():
    return st.tuples(*[_pair_strategy()] * 4).map(
        lambda pds: Scenario(dict(zip(CONTEXTS, pds)))
    )


# ----------------------------------------------------------------- Coupling


def test_pattern_key_round_trip():
    for pat in ((1,) * 8, (-1,) * 8, (1, -1, 1, -1, 1, -1, 1, -1)):
        assert pattern_from_key(pattern_key(pat)) == pat
    assert pattern_key((1, 0, -1)) == "+0-"
    assert pattern_from_key("+0-") == (1, 0, -1)
    with pytest.raises(StructuralError):
        pattern_from_key("+x")


def test_coupling_validation():
    with pytest.raises(DomainError):
        Coupling({ALL_PATTERNS[0]: F(1, 2)})  # mass 1/2 total
    with pytest.raises(DomainError):
        Coupling({ALL_PATTERNS[0]: F(3, 2), ALL_PATTERNS[1]: F(-1, 2)})
    with pytest.raises(StructuralError):
        Coupling({(1, 1): F(1)})
    c = Coupling({ALL_PATTERNS[0]: F(1, 2), ALL_PATTERNS[1]: F(1, 2), ALL_PATTERNS[2]: F(0)})
    assert len(c.mass) == 2  # zero entries dropped


def test_coupling_from_pattern_map_round_trip(fair_scenario):
    original = independent_coupling(fair_scenario)
    doc = {pattern_key(p): str(m) for p, m in original.mass.items()}
    rebuilt = coupling_from_pattern_map(doc)
    assert rebuilt == original
    with pytest.raises(StructuralError):
        coupling_from_pattern_map({"+-": "1"})
    with pytest.raises(StructuralError):
        coupling_from_pattern_map({"+0-+-+-+": "1"})  # zero has no place here


# ------------------------------------------------------ independent coupling


@settings(max_examples=40, deadline=None)
@given(_scenario_strategy())
def test_independent_coupling_reproduces_marginals(s):
    c = independent_coupling(s)
    assert c.matches_scenario(s)
    for ctx in CONTEXTS:
        assert c.pair_marginal(ctx) == s.pairs[ctx]


@settings(max_examples=40, deadline=None)
@given(_scenario_strategy())
def test_independent_coupling_factorizes_connections(s):
    # contexts are independent, so E[X'Y'] across contexts is E[X']E[Y']
    c = independent_coupling(s)
    means = {}
    for ctx in CONTEXTS:
        pd = s.pairs[ctx]
        means[("A", ctx)] = 2 * pd.a_plus() - 1
        means[("B", ctx)] = 2 * pd.b_plus() - 1
    expected = {
        "A1": means[("A", (1, 1))] * means[("A", (1, 2))],
        "A2": means[("A", (2, 1))] * means[("A", (2, 2))],
        "B1": means[("B", (1, 1))] * means[("B", (2, 1))],
        "B2": means[("B", (1, 2))] * means[("B", (2, 2))],
    }
    for name in CONNECTION_NAMES:
        assert c.connection_expectation(name) == expected[name]


def test_independent_coupling_zero_connections_for_uniform(fair_scenario):
    c = independent_coupling(fair_scenario)
    assert c.connection_expectations() == (F(0), F(0), F(0), F(0))


# --------------------------------------------------------- existence engine


@settings(max_examples=25, deadline=None)
@given(_scenario_strategy())
def test_unconstrained_coupling_always_exists(s):
    verdict = coupling_exists(s)
    assert verdict.feasible
    assert verdict.witness.matches_scenario(s)


def test_witness_honors_connection_targets(mixed_scenario):
    # targets realized by construction: those of the independent coupling
    targets = independent_coupling(mixed_scenario).connection_expectations()
    verdict = coupling_exists(mixed_scenario, ConnectionVector(*targets))
    assert verdict.feasible
    assert verdict.witness.matches_scenario(mixed_scenario)
    assert verdict.witness.connection_expectations() == targets


def test_identity_coupling_fair_and_pr(fair_scenario, pr_box_scenario):
    ok = identity_coupling_exists(fair_scenario)
    assert ok.feasible
    assert ok.witness.matches_scenario(fair_scenario)
    # identity means every connected pair is almost surely equal
    for pat in ok.witness.mass:
        assert pat[0] == pat[1] and pat[2] == pat[3]
        assert pat[4] == pat[6] and pat[5] == pat[7]
    assert not identity_coupling_exists(pr_box_scenario).feasible


def test_deterministic_scenario_forces_unique_coupling():
    point = PairDistribution(F(1), F(0), F(0), F(0))
    s = Scenario({ctx: point for ctx in CONTEXTS})
    verdict = coupling_exists(s)
    assert verdict.feasible
    assert verdict.witness.mass == {(1,) * 8: F(1)}
    assert connection_range(s, "A1") == (F(1), F(1))
    # and a contradictory target is refused
    bad = ConnectionVector(F(-1), F(1), F(1), F(1))
    assert not coupling_exists(s, bad).feasible


def test_connection_range_fair_and_pr(fair_scenario, pr_box_scenario):
    for s in (fair_scenario, pr_box_scenario):
        for name in CONNECTION_NAMES:
            assert connection_range(s, name) == (F(-1), F(1))
    with pytest.raises(DomainError):
        connection_range(fair_scenario, "C3")


def test_connection_range_shrinks_with_correlated_contexts():
    # e11 = 1 and e12 = 1 make A'11 = B'11 and A'12 = B'12 almost surely;
    # B1 = (B'11, B'21) stays free, but with e21 = 1 too the chain
    # A'11 = B'11, A'21 = B'21 pins nothing across contexts: the range of
    # any single connection is still the full interval.
    s = scenario_from_correlations([F(1), F(1), F(1), F(1)])
    assert connection_range(s, "A1") == (F(-1), F(1))
    # but the identity coupling does exist here
    assert identity_coupling_exists(s).feasible


def test_connection_vector_validation():
    with pytest.raises(DomainError):
        ConnectionVector(F(3, 2), F(0), F(0), F(0))
    with pytest.raises(DomainError):
        ConnectionVector(1.5, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        ConnectionVector(0.0, float("nan"), 0.0, 0.0)
    v = ConnectionVector(0.25, F(1, 2), F(0), F(-1))
    with pytest.raises(DomainError):
        v.rational_components()  # float component present
    w = ConnectionVector(F(1, 4), F(1, 2), F(0), F(-1))
    assert w.rational_components() == (F(1, 4), F(1, 2), F(0), F(-1))


_FORGED_LIFT = """
from fractions import Fraction as F

import spincouple.couplings as couplings
from spincouple import ConnectionVector, independent_coupling, scenario_from_correlations

s = scenario_from_correlations([F(0)] * 4)
couplings._lift = lambda tables, one: {forged}
try:
    couplings.coupling_exists(s, ConnectionVector({targets}))
except AssertionError as exc:
    print("raised:", exc)
"""


@pytest.mark.parametrize(
    "forged, targets",
    [
        # all mass on one pattern: every context marginal is off
        ("{(1,) * 8: F(1)}", "0, 0, 0, 0"),
        # the scenario's marginals, but connection A1 has expectation 0
        ("independent_coupling(s).mass", "F(1, 2), 0, 0, 0"),
    ],
)
def test_fan_certification_survives_python_O(forged, targets):
    # a lifted coupling that misses the scenario or a target raises
    # explicitly, so -O (unlike an assert) cannot strip the check
    src = os.path.dirname(os.path.dirname(spincouple.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _FORGED_LIFT.format(forged=forged, targets=targets)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised: fan coupling misses"), out.stdout


# ------------------------------------------------------------ Frechet range


@settings(max_examples=150, deadline=None)
@given(
    st.fractions(min_value=0, max_value=1, max_denominator=40),
    st.fractions(min_value=0, max_value=1, max_denominator=40),
)
def test_frechet_closed_form_equals_lp(p, q):
    closed = pair_coupling_range(p, q)
    via_lp = pair_coupling_range_lp(p, q)
    assert closed == via_lp
    lo, hi = closed
    assert max(F(0), p + q - 1) == lo
    assert min(p, q) == hi
    # both endpoints are attained by explicit joint tables
    for r in (lo, hi):
        PairDistribution(r, p - r, q - r, 1 - p - q + r)


def test_frechet_rejects_bad_marginals():
    with pytest.raises(DomainError):
        pair_coupling_range(F(3, 2), F(1, 2))
    with pytest.raises(DomainError):
        pair_coupling_range_lp(F(1, 2), F(-1, 10))
