"""LP engine tests against an independent vertex-enumeration oracle.

The oracle decides feasibility of {x >= 0, Ax = b} by exact Gaussian
elimination over every candidate basis (a nonempty polyhedron of this form
is pointed, so it has a vertex supported on linearly independent columns),
and detects unboundedness through extreme-ray enumeration.  It shares no
code with the simplex kernels.
"""

import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spincouple
from spincouple import (
    DomainError,
    LinearProgram,
    LpStatus,
    StructuralError,
    as_rational,
    kernel_backend,
    optimize,
    solve_feasibility,
)

F = Fraction


# ------------------------------------------------------------------ oracle


def _rref(mat):
    """Reduced row echelon form over Fractions; returns (matrix, pivot cols)."""
    mat = [row[:] for row in mat]
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = F(1) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return mat, pivots


def _solve_exact(a_cols, b):
    """Unique solution of the (possibly overdetermined) system with columns
    a_cols, or None when inconsistent or underdetermined."""
    m = len(b)
    k = len(a_cols)
    aug = [[a_cols[j][i] for j in range(k)] + [b[i]] for i in range(m)]
    red, pivots = _rref(aug)
    if k in pivots:  # pivot in the rhs column: inconsistent
        return None
    if len(pivots) < k:  # free column: not a unique basic solution
        return None
    x = [F(0)] * k
    for r, c in enumerate(pivots):
        x[c] = red[r][k]
    return x


def oracle_feasible(rows, rhs):
    """Exact feasibility of {x >= 0, rows . x = rhs} by vertex enumeration."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return True
    red, pivots = _rref([row[:] + [b] for row, b in zip(rows, rhs)])
    if any(all(v == 0 for v in r[:-1]) and r[-1] != 0 for r in red):
        return False  # 0 = nonzero after elimination
    rank = len([c for c in pivots if c < n])
    if rank == 0:
        return all(b == 0 for b in rhs)
    cols = [[rows[i][j] for i in range(m)] for j in range(n)]
    for subset in combinations(range(n), rank):
        x = _solve_exact([cols[j] for j in subset], rhs)
        if x is None or any(v < 0 for v in x):
            continue
        full = [F(0)] * n
        for j, v in zip(subset, x):
            full[j] = v
        if all(
            sum(rows[i][j] * full[j] for j in range(n)) == rhs[i] for i in range(m)
        ):
            return True
    return False


def oracle_rays(rows, n):
    """Generators of extreme rays of {d >= 0, rows . d = 0} (up to scale)."""
    m = len(rows)
    rays = []
    red, pivots = _rref([row[:] for row in rows]) if m else ([], [])
    rank = len(pivots)
    cols = [[rows[i][j] for i in range(m)] for j in range(n)]
    for size in range(1, min(n, rank + 1) + 1):
        for subset in combinations(range(n), size):
            sub = [[cols[j][i] for j in subset] for i in range(m)]
            nullred, nullpiv = _rref(sub)
            free = [c for c in range(size) if c not in nullpiv]
            if len(free) != 1:
                continue
            fc = free[0]
            d = [F(0)] * size
            d[fc] = F(1)
            for r, c in enumerate(nullpiv):
                d[c] = -nullred[r][fc]
            for cand in (d, [-v for v in d]):
                if all(v >= 0 for v in cand) and any(v > 0 for v in cand):
                    full = [F(0)] * n
                    for j, v in zip(subset, cand):
                        full[j] = v
                    rays.append(full)
    return rays


def oracle_optimize(rows, rhs, objective, direction):
    """(status, optimum) by full vertex/ray enumeration."""
    m = len(rows)
    n = len(objective)
    if not oracle_feasible(rows, rhs):
        return "infeasible", None
    sign = 1 if direction == "max" else -1
    for d in oracle_rays(rows, n):
        if sign * sum(objective[j] * d[j] for j in range(n)) > 0:
            return "unbounded", None
    best = None
    red, pivots = _rref([row[:] + [b] for row, b in zip(rows, rhs)]) if m else ([], [])
    rank = len([c for c in pivots if c < n])
    cols = [[rows[i][j] for i in range(m)] for j in range(n)]
    if rank == 0:
        return "feasible", F(0)  # rhs all zero, x = 0 is the only vertex
    for subset in combinations(range(n), rank):
        x = _solve_exact([cols[j] for j in subset], rhs)
        if x is None or any(v < 0 for v in x):
            continue
        full = [F(0)] * n
        for j, v in zip(subset, x):
            full[j] = v
        if not all(
            sum(rows[i][j] * full[j] for j in range(n)) == rhs[i] for i in range(m)
        ):
            continue
        val = sum(objective[j] * full[j] for j in range(n))
        if best is None or sign * (val - best) > 0:
            best = val
    assert best is not None
    return "feasible", best


# ------------------------------------------------------- deterministic cases


def test_feasible_with_witness():
    lp = LinearProgram(3, [([F(1), F(1), F(1)], F(1)), ([F(1), F(-1), F(0)], F(0))])
    out = solve_feasibility(lp)
    assert out.status is LpStatus.FEASIBLE
    assert sum(out.witness) == 1
    assert out.witness[0] == out.witness[1]
    assert all(v >= 0 for v in out.witness)


def test_infeasible_contradictory_rows():
    lp = LinearProgram(2, [([F(1), F(1)], F(1)), ([F(1), F(1)], F(2))])
    assert solve_feasibility(lp).status is LpStatus.INFEASIBLE


def test_infeasible_negative_rhs_with_nonnegative_row():
    lp = LinearProgram(2, [([F(1), F(2)], F(-1))])
    assert solve_feasibility(lp).status is LpStatus.INFEASIBLE


def test_unbounded_objective():
    lp = LinearProgram(2, [([F(1), F(-1)], F(0))], objective=[F(1), F(0)])
    assert optimize(lp, "max").status is LpStatus.UNBOUNDED
    out = optimize(lp, "min")
    assert out.status is LpStatus.FEASIBLE
    assert out.optimum == 0


def test_bounded_optimum_exact():
    # max x0 subject to x0 + x1 = 7/3: optimum at the vertex (7/3, 0)
    lp = LinearProgram(2, [([F(1), F(1)], F(7, 3))], objective=[F(1), F(0)])
    out = optimize(lp, "max")
    assert out.status is LpStatus.FEASIBLE
    assert out.optimum == F(7, 3)
    assert out.witness == (F(7, 3), F(0))


def test_no_equalities_is_feasible_at_zero():
    lp = LinearProgram(3, [])
    out = solve_feasibility(lp)
    assert out.status is LpStatus.FEASIBLE
    assert out.witness == (F(0), F(0), F(0))


def test_no_equalities_objective():
    lp = LinearProgram(2, [], objective=[F(1), F(-1)])
    assert optimize(lp, "max").status is LpStatus.UNBOUNDED
    assert optimize(lp, "min").status is LpStatus.UNBOUNDED
    lp2 = LinearProgram(2, [], objective=[F(1), F(1)])
    out = optimize(lp2, "min")
    assert out.status is LpStatus.FEASIBLE and out.optimum == 0


def test_redundant_rows_are_harmless():
    row = [F(1), F(2), F(3)]
    lp = LinearProgram(3, [(row, F(6)), (row, F(6)), ([F(2), F(4), F(6)], F(12))])
    out = solve_feasibility(lp)
    assert out.status is LpStatus.FEASIBLE


def test_presolve_zero_rhs_pins_variables():
    # x0 + x1 = 0 with x >= 0 forces both to zero, leaving x2 = 5
    lp = LinearProgram(
        3, [([F(1), F(1), F(0)], F(0)), ([F(0), F(1), F(1)], F(5))]
    )
    out = solve_feasibility(lp)
    assert out.status is LpStatus.FEASIBLE
    assert out.witness == (F(0), F(0), F(5))


def test_presolve_detects_contradiction_after_pinning():
    # first row pins x0 = x1 = 0, second then reads 0 = 1
    lp = LinearProgram(2, [([F(1), F(1)], F(0)), ([F(1), F(0)], F(1))])
    assert solve_feasibility(lp).status is LpStatus.INFEASIBLE


def test_validation_errors():
    with pytest.raises(StructuralError):
        LinearProgram(0, []).validate()
    with pytest.raises(StructuralError):
        LinearProgram(2, [([F(1)], F(0))]).validate()
    with pytest.raises(StructuralError):
        LinearProgram(2, [], objective=[F(1)]).validate()
    with pytest.raises(StructuralError):
        optimize(LinearProgram(2, []), "max")
    with pytest.raises(DomainError):
        optimize(LinearProgram(2, [], objective=[F(1), F(1)]), "upward")


def test_as_rational_accepts_and_refuses():
    assert as_rational(2) == F(2)
    assert as_rational("7/10") == F(7, 10)
    assert as_rational("0.25") == F(1, 4)
    assert as_rational(F(1, 3)) == F(1, 3)
    with pytest.raises(DomainError):
        as_rational(0.5)
    with pytest.raises(DomainError):
        as_rational(True)
    with pytest.raises(DomainError):
        as_rational("1/0")
    with pytest.raises(DomainError):
        as_rational(object())


def _imports_lp(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        if node.level == 1:
            return node.module == "lp" or (
                node.module is None and any(a.name == "lp" for a in node.names)
            )
        return node.module == "spincouple.lp" or (
            node.module == "spincouple" and any(a.name == "lp" for a in node.names)
        )
    return isinstance(node, ast.Import) and any(a.name == "spincouple.lp" for a in node.names)


def test_lp_is_imported_only_by_the_package_and_the_range_cross_check():
    # no verdict path needs the LP; it stays public for the cross-check
    importers = set()
    for path in sorted(Path(spincouple.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            importers.update((path.stem, owner) for node in ast.walk(top) if _imports_lp(node))
    assert importers == {("__init__", None), ("couplings", "pair_coupling_range_lp")}


def test_kernel_backend_reports_shape():
    assert kernel_backend() == "pure+fractions"


_WRONG_OPTIMUM = """
import spincouple.lp as lp
from fractions import Fraction as F

kernel = lp._kernel


class OffByOne:
    @staticmethod
    def solve(*args):
        status, witness, optimum = kernel.solve(*args)
        return status, witness, optimum + 1


lp._kernel = OffByOne
program = lp.LinearProgram(2, [([F(1), F(1)], F(1))], objective=[F(1), F(0)])
try:
    lp.optimize(program, "max")
except AssertionError as exc:
    print("raised:", exc)
"""


def test_optimum_check_survives_python_O():
    # the kernel's optimum is cross-checked against its witness by an
    # explicit raise, which -O (unlike an assert) cannot strip
    src = os.path.dirname(os.path.dirname(spincouple.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_OPTIMUM],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised: kernel optimum disagrees"), out.stdout


_BAD_WITNESS = """
import spincouple.lp as lp
from fractions import Fraction as F


class Forged:
    @staticmethod
    def solve(*args):
        return lp._kernel_pure.FEASIBLE, WITNESS, None


WITNESS = {witness}
lp._kernel = Forged
program = lp.LinearProgram(
    3, [([F(1), F(1), F(1)], F(1)), ([F(1), F(-1), F(0)], F(0))]
)
try:
    lp.solve_feasibility(program)
except AssertionError as exc:
    print("raised:", exc)
"""


@pytest.mark.parametrize(
    "witness, message",
    [
        # sums to 1 but x0 != x1: misses the second row only
        ("[F(1, 2), F(1, 4), F(1, 4)]", "kernel witness violates an equality row"),
        # meets both rows, with x2 < 0
        ("[F(2, 3), F(2, 3), F(-1, 3)]", "kernel produced a negative witness component"),
    ],
)
def test_witness_check_survives_python_O(witness, message):
    # the witness guard raises explicitly, so -O cannot strip it either
    src = os.path.dirname(os.path.dirname(spincouple.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BAD_WITNESS.format(witness=witness)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == f"raised: {message}", out.stdout


# ---------------------------------------------------------- oracle parity


def _random_program(rng):
    m = rng.randint(1, 4)
    n = rng.randint(1, 6)
    rows = [
        [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)
    ]
    rhs = [F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(m)]
    return rows, rhs, n


def test_feasibility_matches_oracle_bulk():
    rng = random.Random(20240817)
    feasible_seen = infeasible_seen = 0
    for _ in range(300):
        rows, rhs, n = _random_program(rng)
        expected = oracle_feasible(rows, rhs)
        out = solve_feasibility(LinearProgram(n, list(zip(rows, rhs))))
        got = out.status is LpStatus.FEASIBLE
        assert got == expected, (rows, rhs)
        feasible_seen += got
        infeasible_seen += not got
    assert feasible_seen > 30 and infeasible_seen > 30  # both branches exercised


def test_optimize_matches_oracle_bulk():
    rng = random.Random(915)
    statuses = {"feasible": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(200):
        rows, rhs, n = _random_program(rng)
        objective = [F(rng.randint(-3, 3)) for _ in range(n)]
        direction = rng.choice(["min", "max"])
        expected_status, expected_opt = oracle_optimize(rows, rhs, objective, direction)
        out = optimize(
            LinearProgram(n, list(zip(rows, rhs)), objective=objective), direction
        )
        assert out.status.value == expected_status, (rows, rhs, objective, direction)
        statuses[expected_status] += 1
        if expected_status == "feasible":
            assert out.optimum == expected_opt
    assert all(statuses[k] > 10 for k in statuses), statuses


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 5),
    st.data(),
)
def test_feasible_outcomes_carry_exact_witnesses(m, n, data):
    coeff = st.fractions(
        min_value=-3, max_value=3, max_denominator=4
    )
    rows = [data.draw(st.lists(coeff, min_size=n, max_size=n)) for _ in range(m)]
    rhs = data.draw(st.lists(coeff, min_size=m, max_size=m))
    out = solve_feasibility(LinearProgram(n, list(zip(rows, rhs))))
    assert out.status in (LpStatus.FEASIBLE, LpStatus.INFEASIBLE)
    if out.status is LpStatus.FEASIBLE:
        # substitution is re-checked here independently of lp's own guard
        assert all(v >= 0 for v in out.witness)
        for row, b in zip(rows, rhs):
            assert sum(c * w for c, w in zip(row, out.witness)) == b
    else:
        assert not oracle_feasible(rows, rhs)
