"""Coupling verdicts, witnesses and ranges against the 256-column LP.

spincouple decides coupling questions on the cycle of contexts and
connections; reference_coupling poses the same questions as exact linear
programs over all 256 sign patterns.  Verdicts and ranges must agree, and
every witness must satisfy every row of the oracle's program.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from spincouple import (
    ALL_PATTERNS,
    CONNECTION_NAMES,
    ConnectionVector,
    connection_range,
    coupling_exists,
    identity_coupling_exists,
    scenario_from_correlations,
)
from spincouple.sampling import STRATA, sample_scenario_stratum

import reference_coupling as oracle

F = Fraction
MILLION = 10**6
SCENARIOS_PER_STRATUM = 4


def _assert_certified(verdict, program):
    """The witness meets every equality row of the oracle's program."""
    mass = verdict.witness.mass
    # 8 first-triangle cells, then at most one split per chord cell in 5 more
    assert len(mass) <= 8 + 5 * 4
    column = [mass.get(p, F(0)) for p in ALL_PATTERNS]
    assert all(v >= 0 for v in column)
    for row, b in program.equalities:
        assert sum(c * v for c, v in zip(row, column) if v) == b


def _assert_agrees(s, conn):
    got = coupling_exists(s, conn)
    want = oracle.coupling_exists(s, conn)
    assert got.feasible == want.feasible, conn
    if got.feasible:
        _assert_certified(got, oracle.connection_program(s, conn))
    return got.feasible


@pytest.mark.parametrize("stratum", STRATA)
def test_fan_matches_lp_on_every_stratum(stratum):
    rng = random.Random(f"fan:{stratum}")
    verdicts = []
    for i in range(SCENARIOS_PER_STRATUM):
        s = sample_scenario_stratum(stratum, 1515, i)
        targets = [
            None,
            ConnectionVector(*(F(rng.randint(-20, 20), 20) for _ in range(4))),
            ConnectionVector(*(rng.choice((-1, 0, 1)) for _ in range(4))),
            ConnectionVector(*(F(rng.randint(-MILLION, MILLION), MILLION) for _ in range(4))),
            # an end of each connection's Frechet range
            ConnectionVector(*(rng.choice(connection_range(s, n)) for n in CONNECTION_NAMES)),
        ]
        verdicts += [_assert_agrees(s, conn) for conn in targets]

        got = identity_coupling_exists(s)
        assert got.feasible == oracle.identity_coupling_exists(s).feasible
        if got.feasible:
            _assert_certified(got, oracle.identity_program(s))
        verdicts.append(got.feasible)

    s = sample_scenario_stratum(stratum, 1515, SCENARIOS_PER_STRATUM)
    which = CONNECTION_NAMES[STRATA.index(stratum)]
    assert connection_range(s, which) == oracle.connection_range(s, which)
    assert True in verdicts


# odd sign vectors over the cycle edges (e11, cB1, e21, cA2, e22, cB2, e12, cA1)
_ODD_SIGNS = [sigma for sigma in product((1, -1), repeat=8) if sigma.count(-1) % 2]


def test_cycle_tight_vectors_match_lp():
    """Uniform marginals and a cycle sum of exactly 6 are feasible; one
    step of 1/20 further is not, and the oracle agrees both times."""
    rng = random.Random(66)
    for _ in range(6):
        sigma = rng.choice(_ODD_SIGNS)
        magnitudes = [F(rng.randint(10, 20), 20) for _ in range(4)]
        rest = (6 - sum(magnitudes)) / 4
        e11, cB1, e21, cA2, e22, cB2, e12, cA1 = (
            sign * m for sign, m in zip(sigma, (magnitudes[0], rest, magnitudes[1], rest,
                                                magnitudes[2], rest, magnitudes[3], rest))
        )
        s = scenario_from_correlations([e11, e12, e21, e22])
        assert _assert_agrees(s, ConnectionVector(cA1, cA2, cB1, cB2))
        if rest <= F(19, 20):
            over = cA1 + sigma[7] * F(1, 20)
            assert not _assert_agrees(s, ConnectionVector(over, cA2, cB1, cB2))
