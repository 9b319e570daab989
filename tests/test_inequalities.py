"""Inequality-family checkers, cross-validated against an LP oracle.

The LP oracle settles membership in the classical polytope from first
principles: a correlation vector satisfies the four |...| <= 2 bounds iff
it is a mixture of the 16 deterministic uniform-marginal behaviors.  That
gives an independent route to the bell verdict that never looks at the
inequality expressions.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincouple import (
    DomainError,
    FAMILIES,
    LinearProgram,
    LpStatus,
    TSIRELSON_BOUND,
    arcsin_sum_max,
    bell_ch_fine,
    chsh_max,
    classify,
    family_report,
    quantum_arcsin,
    solve_feasibility,
    tsirelson,
)
from spincouple.inequalities import float_sign_sum_max, sign_sum_max

F = Fraction

# one minus sign, rotating over the four positions
_SIGN_PATTERNS = ((1, 1, 1, -1), (1, 1, -1, 1), (1, -1, 1, 1), (-1, 1, 1, 1))


def _sign_sum_loop(v):
    """The four one-minus-sign sums spelled out, each summed left to right
    from 0; the oracle for both closed forms."""
    return max(abs(sum(s * x for s, x in zip(signs, v))) for signs in _SIGN_PATTERNS)


def _bell_lp_oracle(components) -> bool:
    """Membership of (e11,..,e22) in the hull of deterministic behaviors.

    A deterministic behavior assigns fixed signs (a1, a2, b1, b2); its
    correlation vector is (a1 b1, a1 b2, a2 b1, a2 b2).  Membership in the
    convex hull of those 16 points is an exact 16-variable feasibility
    problem.
    """
    points = []
    for a1, a2, b1, b2 in product((1, -1), repeat=4):
        points.append((a1 * b1, a1 * b2, a2 * b1, a2 * b2))
    rows = [([F(1)] * 16, F(1))]
    for k in range(4):
        rows.append(([F(p[k]) for p in points], F(components[k])))
    return solve_feasibility(LinearProgram(16, rows)).status is LpStatus.FEASIBLE


def test_bell_verdict_equals_hull_membership_on_grid():
    rng = random.Random(31415)
    inside = outside = 0
    for _ in range(150):
        comps = tuple(F(rng.randint(-20, 20), 20) for _ in range(4))
        expected = _bell_lp_oracle(comps)
        got = bell_ch_fine(comps).satisfied
        assert got == expected, comps
        inside += expected
        outside += not expected
    assert inside > 20 and outside > 20


def test_chsh_max_known_values():
    assert chsh_max((F(1), F(1), F(1), F(-1))) == 4  # PR box
    assert chsh_max((F(0), F(0), F(0), F(0))) == 0
    assert chsh_max((F(1), F(1), F(1), F(1))) == 2  # fully aligned: classical edge
    assert chsh_max((F(3, 5), F(3, 5), F(3, 5), F(-3, 5))) == F(12, 5)


@settings(max_examples=200)
@given(
    st.tuples(*[st.fractions(min_value=-1, max_value=1, max_denominator=30)] * 4)
)
def test_chsh_max_symmetries(comps):
    m = chsh_max(comps)
    assert m == chsh_max(tuple(-c for c in comps))  # global sign flip
    e11, e12, e21, e22 = comps
    # swapping Alice's settings permutes rows; the max is over all
    # single-minus patterns, so it is invariant
    assert m == chsh_max((e21, e22, e11, e12))
    # swapping Bob's settings permutes columns
    assert m == chsh_max((e12, e11, e22, e21))
    assert 0 <= m <= 4


def test_chsh_max_converts_floats_exactly():
    # 0.1 is not 1/10 in binary; the exact conversion must be used as-is
    m = chsh_max((0.1, 0.1, 0.1, 0.1))
    assert m == 2 * F(0.1)


def test_sign_sum_max_equals_the_four_pattern_loop():
    rng = random.Random(2718)
    cases = [(-1, -1, -1, -1), (-3, -7, -2, -5), (0, 0, 0, 0), (5, 5, 5, 5), (2, -2, 2, -2)]
    for _ in range(2000):
        pool = [rng.randint(-1000, 1000) for _ in range(2)]  # small pools force ties
        cases.append(tuple(rng.choice(pool) for _ in range(4)))
        cases.append(tuple(rng.randint(-1000, 1000) for _ in range(4)))
        cases.append(tuple(-rng.randint(0, 1000) for _ in range(4)))
    for v in cases:
        exact = tuple(F(x, rng.randint(1, 60)) for x in v)
        for w in (v, exact, tuple(F(x, 1000) for x in v)):
            got = sign_sum_max(w)
            assert got == _sign_sum_loop(w) and type(got) is type(w[0]), w
        assert chsh_max(tuple(F(x, 1000) for x in v)) == F(sign_sum_max(v), 1000)


def test_arcsin_sum_max_equals_the_four_pattern_loop_bit_for_bit():
    rng = random.Random(1618)
    grid = [x / 1000 for x in range(-1000, 1001)]
    for _ in range(5000):
        for e in (
            tuple(rng.uniform(-1.0, 1.0) for _ in range(4)),
            tuple(rng.choice(grid) for _ in range(4)),
        ):
            t = [math.asin(x) for x in e]
            expected = _sign_sum_loop(t)
            assert arcsin_sum_max(e) == expected, e
            assert float_sign_sum_max(*t) == expected, e


def test_arcsin_sum_max_known_values():
    assert arcsin_sum_max((0, 0, 0, 0)) == 0
    r = math.sqrt(0.5)
    assert abs(arcsin_sum_max((r, r, r, -r)) - math.pi) < 1e-12
    assert abs(arcsin_sum_max((1, 1, 1, -1)) - 2 * math.pi) < 1e-12


def test_family_reports_on_pr_box():
    pr = (F(1), F(1), F(1), F(-1))
    b, q, t = bell_ch_fine(pr), quantum_arcsin(pr), tsirelson(pr)
    assert not b.satisfied and b.max_lhs == 4 and b.bound == 2
    assert not q.satisfied
    assert not t.satisfied and abs(t.bound - TSIRELSON_BOUND) == 0
    c = classify(pr)
    assert (c.bell, c.quantum, c.tsirelson) == (False, False, False)


def test_tight_flags():
    edge = (F(1), F(1), F(1), F(1))
    assert bell_ch_fine(edge).tight
    r = math.sqrt(0.5)
    assert tsirelson((r, r, r, -r)).tight
    assert quantum_arcsin((r, r, r, -r)).tight
    assert not bell_ch_fine((F(0),) * 4).tight


def test_classification_is_per_family_not_forced_nesting():
    # between 2 and 2*sqrt(2): violates bell, satisfies the other two
    v = (F(7, 10), F(7, 10), F(7, 10), F(-7, 10))
    c = classify(v)
    assert (c.bell, c.quantum, c.tsirelson) == (False, True, True)
    # beyond 2*sqrt(2): only possible verdict pattern is all False
    w = (F(19, 20), F(19, 20), F(19, 20), F(-19, 20))
    cw = classify(w)
    assert (cw.bell, cw.quantum, cw.tsirelson) == (False, False, False)


def test_family_report_dispatch():
    comps = (F(0), F(0), F(0), F(0))
    for fam in FAMILIES:
        assert family_report(fam, comps).family == fam
    with pytest.raises(DomainError):
        family_report("euclid", comps)


@settings(max_examples=300)
@given(
    st.tuples(*[st.fractions(min_value=-1, max_value=1, max_denominator=40)] * 4)
)
def test_sandwich_property(comps):
    c = classify(comps)
    if c.bell:
        assert c.quantum
    if c.quantum:
        assert c.tsirelson
