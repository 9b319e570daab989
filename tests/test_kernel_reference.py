"""The fraction-free pure kernel against the rational reference kernel.

spincouple._kernel_pure pivots on integers over a shared denominator;
reference_kernel runs the same Bland simplex on fractions.Fraction.  Both
choose the same pivots, so status, witness and optimum must be exactly
equal on every program: random ones, and the programs spincouple.lp hands
the kernel for the 256-column coupling programs of tests/reference_coupling,
captured as they are passed.  The library's own coupling questions never
reach the kernel; a test here holds them to that.
"""

import copy
import random
from fractions import Fraction

import pytest

import spincouple._kernel_pure as pure
import spincouple.lp as lp
from spincouple import (
    ConnectionVector,
    connection_range,
    coupling_exists,
    identity_coupling_exists,
)
from spincouple.sampling import sample_scenario_stratum

import reference_coupling as oracle
import reference_kernel as reference
from reference_kernel import random_case

F = Fraction
MILLION = 10**6


def _assert_same(program):
    got = pure.solve(*copy.deepcopy(program))
    want = reference.solve(*copy.deepcopy(program), F(0), F(1))
    assert got[0] == want[0], program
    assert got[1] == want[1], program
    assert got[2] == want[2], program
    if got[1] is not None:
        assert all(type(v) is Fraction for v in got[1])
    return got[0]


def _with_redundant_row(rng):
    rows, rhs, objective, maximize = random_case(rng)
    if len(rows) >= 2:
        i, j = rng.sample(range(len(rows)), 2)
        k = F(rng.randint(1, 3), rng.randint(1, 3))
        rows.append([a + k * b for a, b in zip(rows[i], rows[j])])
        rhs.append(rhs[i] + k * rhs[j])
    return rows, rhs, objective, maximize


def _with_million_denominators(rng):
    m = rng.randint(1, 7)
    n = rng.randint(2, 14)
    rows = [[F(rng.choice((-1, 0, 0, 1))) for _ in range(n)] for _ in range(m)]
    rhs = [F(rng.randint(-MILLION, MILLION), MILLION) for _ in range(m)]
    objective = None
    if rng.random() < 0.5:
        objective = [F(rng.randint(-2, 2), rng.choice((1, 3, MILLION))) for _ in range(n)]
    return rows, rhs, objective, rng.random() < 0.5


def _without_rows(rng):
    n = rng.randint(1, 6)
    return [], [], [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)], rng.random() < 0.5


@pytest.mark.parametrize(
    "shape, cases",
    [
        (random_case, 1500),
        (_with_redundant_row, 600),
        (_with_million_denominators, 400),
        (_without_rows, 60),
    ],
)
def test_random_programs_match_reference(shape, cases):
    rng = random.Random(424242)
    statuses = [0, 0, 0]
    for _ in range(cases):
        statuses[_assert_same(shape(rng))] += 1
    if shape is _without_rows:
        assert statuses[pure.INFEASIBLE] == 0
        assert min(statuses[pure.FEASIBLE], statuses[pure.UNBOUNDED]) > 5, statuses
    else:
        assert min(statuses) > cases // 20, statuses


def _capture(monkeypatch, question):
    """Run question() and return every argument tuple lp passes the kernel."""
    programs = []
    kernel = lp._kernel

    class Recorder:
        @staticmethod
        def solve(*args):
            programs.append(copy.deepcopy(args))
            return kernel.solve(*args)

    with monkeypatch.context() as m:
        m.setattr(lp, "_kernel", Recorder)
        question()
    assert programs, "the question never reached the kernel"
    return programs


def _width(program):
    rows, objective = program[0], program[2]
    return len(rows[0]) if rows else len(objective)


_TARGETS = ConnectionVector(
    F(123457, MILLION), F(-234561, MILLION), F(345673, MILLION), F(56789, MILLION)
)


def test_captured_coupling_programs_match_reference(
    monkeypatch, fair_scenario, mixed_scenario
):
    signaling = sample_scenario_stratum("nosig-violating", 7, 0)
    questions = [
        lambda: oracle.coupling_exists(fair_scenario, _TARGETS),
        lambda: oracle.coupling_exists(signaling, _TARGETS),
        lambda: oracle.connection_range(signaling, "A1"),
        lambda: oracle.coupling_exists(signaling),
    ]
    statuses = []
    objectives = 0
    for question in questions:
        for program in _capture(monkeypatch, question):
            assert _width(program) == 256
            # the shared 0/+-1 coupling rows reach the kernel as ints
            assert all(type(v) is int for row in program[0] for v in row)
            objectives += program[2] is not None
            statuses.append(_assert_same(program))
    assert objectives == 2  # connection_range: one min, one max
    assert pure.FEASIBLE in statuses and pure.INFEASIBLE in statuses


def test_coupling_questions_never_reach_the_kernel(
    monkeypatch, fair_scenario, mixed_scenario, pr_box_scenario
):
    calls = []

    class Recorder:
        @staticmethod
        def solve(*args):
            calls.append(args)
            return pure.solve(*args)

    monkeypatch.setattr(lp, "_kernel", Recorder)
    signaling = sample_scenario_stratum("nosig-violating", 7, 0)
    for s in (fair_scenario, mixed_scenario, pr_box_scenario, signaling):
        coupling_exists(s)
        coupling_exists(s, _TARGETS)
        coupling_exists(s, ConnectionVector(1, -1, 1, 1))
        identity_coupling_exists(s)
        for name in ("A1", "A2", "B1", "B2"):
            connection_range(s, name)
    assert calls == []


def test_inexact_division_raises():
    # 1 / 2 leaves a remainder; the kernel must refuse, not round
    with pytest.raises(ArithmeticError):
        pure._eliminate([1, 0], [0, 1], 1, 0, 2, 1)
    assert pure._eliminate([2, 4], [1, 1], 1, 0, 2, 2) == [1, 2]
