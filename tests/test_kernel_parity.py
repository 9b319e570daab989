"""The two pivot kernels must be indistinguishable, outcome for outcome.

Both run Bland's rule over the same tableau layout, so not only statuses
but witnesses and optima are required to match exactly.  The compiled
kernel only exists when the extension was built; these tests skip (not
pass) when it is absent so a pure-Python install stays honest.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import spincouple._kernel_pure as pure
from reference_kernel import random_case

compiled = pytest.importorskip(
    "spincouple._kernel_cy", reason="compiled kernel not built"
)
gmpy2 = pytest.importorskip("gmpy2")

F = Fraction


def _mpq_of(v):
    if v is None:
        return None
    if isinstance(v, list):
        return [_mpq_of(x) for x in v]
    return gmpy2.mpq(v.numerator, v.denominator)


def _frac_of(v):
    return F(int(v.numerator), int(v.denominator))


def test_identical_outcomes_on_random_programs():
    rng = random.Random(424242)
    statuses = [0, 0, 0]
    for _ in range(1500):
        rows, rhs, objective, maximize = random_case(rng)
        got_p = pure.solve(
            [r[:] for r in rows], rhs[:], objective, maximize, F(0), F(1)
        )
        got_c = compiled.solve(
            [_mpq_of(r) for r in rows],
            _mpq_of(rhs),
            _mpq_of(objective),
            maximize,
            gmpy2.mpq(0),
            gmpy2.mpq(1),
        )
        assert got_p[0] == got_c[0], (rows, rhs, objective, maximize)
        statuses[got_p[0]] += 1
        if got_p[0] == pure.FEASIBLE:
            wit_p, wit_c = got_p[1], got_c[1]
            assert [F(v) for v in wit_p] == [_frac_of(v) for v in wit_c]
            if objective is not None:
                assert F(got_p[2]) == _frac_of(got_c[2])
    assert all(c > 100 for c in statuses), statuses


def test_status_codes_agree():
    assert (pure.FEASIBLE, pure.INFEASIBLE, pure.UNBOUNDED) == (
        compiled.FEASIBLE,
        compiled.INFEASIBLE,
        compiled.UNBOUNDED,
    )


def test_compiled_kernel_accepts_fraction_inputs():
    # the loader coerces anything non-mpq through gmpy2.mpq
    status, witness, _ = compiled.solve(
        [[F(1), F(1)]], [F(1)], None, False, gmpy2.mpq(0), gmpy2.mpq(1)
    )
    assert status == compiled.FEASIBLE
    assert sum(F(int(v.numerator), int(v.denominator)) for v in witness) == 1


_PROBE = (
    "import spincouple.lp as lp;"
    "from fractions import Fraction as F;"
    "out = lp.solve_feasibility(lp.LinearProgram(2, [([F(1), F(1)], F(1))]));"
    "print(lp.kernel_backend(), out.witness)"
)


def _run_probe(**env_overrides):
    env = dict(os.environ)
    env.pop("SPINCOUPLE_KERNEL", None)
    env.pop("SPINCOUPLE_RATIONAL", None)
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env
    )


def test_environment_selects_backends():
    default = _run_probe()
    assert default.returncode == 0, default.stderr
    backend, witness = default.stdout.split(maxsplit=1)
    assert backend == "compiled+gmpy2"

    forced_pure = _run_probe(SPINCOUPLE_KERNEL="pure")
    assert forced_pure.stdout.split(maxsplit=1)[0] == "pure+gmpy2"
    assert forced_pure.stdout.split(maxsplit=1)[1] == witness

    fractions_only = _run_probe(SPINCOUPLE_RATIONAL="fraction")
    assert fractions_only.stdout.split(maxsplit=1)[0] == "pure+fractions"
    assert fractions_only.stdout.split(maxsplit=1)[1] == witness


def test_compiled_kernel_requires_gmpy2_arithmetic():
    out = _run_probe(SPINCOUPLE_KERNEL="compiled", SPINCOUPLE_RATIONAL="fraction")
    assert out.returncode != 0
    assert "requires gmpy2 arithmetic" in out.stderr


def test_unknown_env_values_are_ignored_not_fatal():
    out = _run_probe(SPINCOUPLE_KERNEL="quantum-annealer")
    assert out.returncode == 0
    assert out.stdout.split(maxsplit=1)[0] == "compiled+gmpy2"
