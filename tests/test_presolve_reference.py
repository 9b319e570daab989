"""spincouple.lp._presolve against the dense reference presolve.

_presolve reduces each row to sign masks and pins columns with bit
operations; reference_presolve reads every coefficient on every pass.  The
verdict and the reduced system (keep, rows, rhs) must be exactly equal,
coefficient types included, on seeded random programs and on the programs
spincouple's coupling questions hand to presolve, captured as they are
passed.  Each program is presolved twice so that rows whose sign masks are
already memoised are compared too.
"""

import random
from fractions import Fraction

import pytest

import spincouple.lp as lp
from spincouple import (
    CONTEXTS,
    ConnectionVector,
    PairDistribution,
    Scenario,
    connection_range,
    coupling_exists,
    identity_coupling_exists,
)
from spincouple.sampling import sample_scenario_stratum

from reference_presolve import presolve as reference_presolve

F = Fraction
MILLION = 10**6


def _assert_same(program):
    want = reference_presolve(program)
    for _ in range(2):
        got = lp._presolve(program)
        assert got == want, program
        if got[0] == "reduced":
            for got_row, want_row in zip(got[1][1], want[1][1]):
                assert [type(v) for v in got_row] == [type(v) for v in want_row]
    return want


def _coefficient(rng, value):
    return F(value, rng.choice((1, 1, 2, 3))) if rng.random() < 0.5 else value


def _rhs(rng):
    return _coefficient(rng, rng.choice((0, 0, 0, 1, 2, -1)))


def _random_row(rng, n):
    kind = rng.random()
    if kind < 0.1:
        values = [0] * n  # all-zero row
    elif kind < 0.55:
        # single-signed: pins its support when its rhs is zero
        sign = rng.choice((1, -1))
        values = [sign * rng.choice((0, 0, 1, 2)) for _ in range(n)]
    else:
        values = [rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(n)]
    return [_coefficient(rng, v) for v in values]


def _chain(rng, n):
    """Rows that pin columns one after another, in shuffled order.

    The first row pins one column; each next row is mixed-signed until the
    previous column is pinned, then pins its own.  The last row asks the
    final column for a nonzero value, a contradiction only the full chain
    reveals, or for zero.
    """
    order = rng.sample(range(n), rng.randint(1, n))
    rows = []
    for k, j in enumerate(order):
        row = [0] * n
        row[j] = 1
        if k:
            row[order[k - 1]] = -1
        rows.append((row, 0))
    last = [0] * n
    last[order[-1]] = rng.choice((1, 2))
    rows.append((last, rng.choice((0, 1, F(1, 2), -1))))
    rng.shuffle(rows)
    return [([_coefficient(rng, v) for v in row], b) for row, b in rows]


def _random_program(rng):
    n = rng.randint(1, 12)
    rows = [(_random_row(rng, n), _rhs(rng)) for _ in range(rng.randint(0, 6))]
    if rng.random() < 0.3:
        rows += _chain(rng, n)
        rng.shuffle(rows)
    container = rng.choice((list, tuple))
    return lp.LinearProgram(n, [(container(row), b) for row, b in rows])


def test_random_programs_match_reference():
    rng = random.Random(60606)
    verdicts = {"infeasible": 0, "reduced": 0, "pinned": 0, "untouched": 0}
    for _ in range(4000):
        program = _random_program(rng)
        verdict, reduced = _assert_same(program)
        verdicts[verdict] += 1
        if reduced is not None:
            pinned = len(reduced[0]) < program.num_vars
            verdicts["pinned" if pinned else "untouched"] += 1
    assert min(verdicts.values()) > 400, verdicts


def test_hand_built_programs_match_reference():
    programs = [
        # all-zero rows: vacuous with zero rhs, contradictory otherwise
        lp.LinearProgram(2, [([0, 0], 0)]),
        lp.LinearProgram(2, [([F(0), F(0)], F(1, 3))]),
        # x0 - x1 = 0 pins nothing until x0 + x2 = 0 pins x0, which
        # pins x1, after which x1 + x3 = 1 reads x3 = 1
        lp.LinearProgram(
            4, [((1, -1, 0, 0), 0), ((0, 1, 0, 1), 1), ((1, 0, 1, 0), 0)]
        ),
        # the same chain ending in 0 = 1, found only on the second pass
        lp.LinearProgram(3, [((1, -1, 0), 0), ((0, 1, 0), F(1)), ((1, 0, 1), 0)]),
        # negative single-signed rows: -x0 - x1 = 0 pins, -x2 = 1 contradicts
        lp.LinearProgram(3, [([-1, -1, 0], 0), ([0, 0, -1], 2)]),
        lp.LinearProgram(3, [([-1, -1, 0], 0), ([0, 0, -1], -2)]),
        # rows that pin nothing
        lp.LinearProgram(3, [([F(1), F(-1), F(2)], F(5)), ([1, 1, 1], 1)]),
        lp.LinearProgram(3, []),
    ]
    verdicts = [_assert_same(program)[0] for program in programs]
    infeasible = [k for k, verdict in enumerate(verdicts) if verdict == "infeasible"]
    assert infeasible == [1, 3, 4], verdicts


def _capture(monkeypatch, question):
    """Run question() and return every program lp hands to _presolve."""
    programs = []
    presolve = lp._presolve

    def recorder(program):
        programs.append(program)
        return presolve(program)

    with monkeypatch.context() as m:
        m.setattr(lp, "_presolve", recorder)
        question()
    assert programs, "the question never reached presolve"
    return programs


def _with_zero_cells():
    # deterministic and signaling: each context is a point mass, and the
    # Alice marginals of contexts 11 and 12 disagree
    cells = {
        (1, 1): (1, 0, 0, 0),
        (1, 2): (0, 0, 1, 0),
        (2, 1): (0, 1, 0, 0),
        (2, 2): (0, 0, 0, 1),
    }
    return Scenario({ctx: PairDistribution(*map(F, cells[ctx])) for ctx in CONTEXTS})


_MILLION_TARGETS = ConnectionVector(
    F(123457, MILLION), F(-234561, MILLION), F(345673, MILLION), F(56789, MILLION)
)


@pytest.mark.parametrize("stratum", ["bell", "quantum-only", "nosig-violating"])
def test_captured_coupling_programs_match_presolve_reference(monkeypatch, stratum):
    s = sample_scenario_stratum(stratum, 11, 3)
    questions = [
        lambda s=s: identity_coupling_exists(s),
        lambda s=s: coupling_exists(s, ConnectionVector(1, 1, 1, 1)),
        lambda s=s: coupling_exists(s, ConnectionVector(1, -1, -1, 1)),
        lambda s=s: coupling_exists(s, ConnectionVector(-1, F(1, 3), 1, 0)),
        lambda s=s: coupling_exists(s, _MILLION_TARGETS),
        lambda s=s: coupling_exists(s),
        lambda s=s: connection_range(s, "B1"),
    ]
    verdicts = []
    for question in questions:
        for program in _capture(monkeypatch, question):
            assert program.num_vars == 256
            verdicts.append(_assert_same(program)[0])
    assert len(verdicts) == len(questions) + 1  # connection_range: min and max
    assert "reduced" in verdicts


def test_captured_programs_with_zero_cells_match_presolve_reference(monkeypatch):
    s = _with_zero_cells()
    questions = [
        lambda: identity_coupling_exists(s),
        lambda: coupling_exists(s),
        lambda: coupling_exists(s, ConnectionVector(1, -1, 1, 1)),
        lambda: coupling_exists(s, ConnectionVector(-1, -1, -1, -1)),
        lambda: connection_range(s, "A1"),
        lambda: connection_range(s, "B2"),
    ]
    verdicts = []
    kept = []
    for question in questions:
        for program in _capture(monkeypatch, question):
            verdict, reduced = _assert_same(program)
            verdicts.append(verdict)
            if reduced is not None:
                kept.append(len(reduced[0]))
    assert "infeasible" in verdicts and "reduced" in verdicts
    # a point-mass context leaves only the patterns that agree with it
    assert max(kept) < 256
