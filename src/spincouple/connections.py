"""Set-role tests for connection vectors against inequality families.

A connection vector "fits" a family when every scenario satisfying the
family admits a coupling realizing the vector; it "forces" the family when
every scenario admitting such a coupling satisfies the family (tested
contrapositively: every violator is uncouplable); it is "equivalent" when
it does both.  Those quantifiers range over all uniform-marginal scenarios,
which no finite run can exhaust, so the tests here are honest sampled
versions: n scenarios per quantifier, verdicts tagged with samples_checked,
and every false verdict backed by a counterexample scenario whose coupling
verdict is exact.

A fitting test first tries the family's extreme point in each of the 16
sign directions sigma of the correlation vector: the deterministic point
sigma when sigma has an even number of -1s, and otherwise sigma / 2 for
bell and r * sigma for quantum and tsirelson, r the largest fraction with
denominator <= 10^6 below sqrt(2) / 2.  A vector that does not fit is
most often refuted at one of those boundary members; seeded samples from
inside the family fill the remaining slots.

The closed-form predicates the samplers are checked against:

* satisfies_s1_prime: all four targets are +-1 with an even number of +1;
  those are exactly the vectors equivalent for the Bell-CH-Fine family.
* satisfies_s2_prime: the even-sign-pattern maximum of the targets equals
  2*(3 - sqrt(2)) and the odd-sign-pattern maximum is at most 2; those are
  the vectors equivalent for the Tsirelson family.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .couplings import ConnectionVector, coupling_exists
from .distributions import Scenario, scenario_from_correlations
from .errors import DomainError
from .inequalities import DEFAULT_EPSILON, FAMILIES, FAMILY_BELL, family_report
from .sampling import sample_scenario_in_family

S2_EVEN_BOUND = 2.0 * (3.0 - math.sqrt(2.0))

_ALL_SIGNS = tuple(product((1, -1), repeat=4))
_EVEN_SIGNS = tuple(s for s in _ALL_SIGNS if s.count(1) % 2 == 0)
_ODD_SIGNS = tuple(s for s in _ALL_SIGNS if s.count(1) % 2 == 1)

RATIONALIZE_MAX_DENOMINATOR = 10**6


@dataclass(frozen=True)
class SetRole:
    role: str  # fitting | forcing | equivalent
    family: str
    verdict: bool
    samples_checked: int
    counterexample: Optional[tuple[Scenario, str]] = None


def _as_connection(conn) -> ConnectionVector:
    if isinstance(conn, ConnectionVector):
        return conn
    return ConnectionVector(*conn)


def satisfies_s1_prime(conn) -> bool:
    """All four targets are exactly +-1 and the count of +1 is even."""
    comps = _as_connection(conn).components()
    if any(v != 1 and v != -1 for v in comps):
        return False
    return sum(1 for v in comps if v == 1) % 2 == 0


def satisfies_s2_prime(conn, epsilon: float = DEFAULT_EPSILON) -> bool:
    """Even-pattern maximum equals 2*(3 - sqrt(2)) within epsilon, and the
    odd-pattern maximum stays at or below 2 (plus epsilon).

    Evaluated on the targets as given, before any rationalization.
    """
    comps = [float(v) for v in _as_connection(conn).components()]
    even_max = max(sum(s * c for s, c in zip(signs, comps)) for signs in _EVEN_SIGNS)
    odd_max = max(sum(s * c for s, c in zip(signs, comps)) for signs in _ODD_SIGNS)
    return abs(even_max - S2_EVEN_BOUND) <= epsilon and odd_max <= 2.0 + epsilon


def rationalize(x, max_denominator: int) -> Fraction:
    """Best rational approximation with denominator <= max_denominator.

    Continued-fraction convergents via Fraction.limit_denominator, which
    returns the closest such fraction.
    """
    if type(max_denominator) is not int or max_denominator < 1:  # bools refused too
        raise DomainError(f"max_denominator must be an int >= 1, got {max_denominator!r}")
    if isinstance(x, bool):
        raise DomainError(f"rationalize expects a number, got {x!r}")
    try:
        f = Fraction(x)
    except (ValueError, OverflowError, TypeError):  # NaN, infinities, non-numbers
        raise DomainError(f"rationalize expects a finite number, got {x!r}") from None
    if f < -1 or f > 1:
        raise DomainError(f"rationalize expects |x| <= 1, got {x!r}")
    return f.limit_denominator(max_denominator)


def exact_connection(conn) -> ConnectionVector:
    """Rationalize any float targets at the module's standard denominator cap."""
    comps = _as_connection(conn).components()
    exact = tuple(
        rationalize(v, RATIONALIZE_MAX_DENOMINATOR) if isinstance(v, float) else Fraction(v)
        for v in comps
    )
    return ConnectionVector(*exact)


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}; expected one of {FAMILIES}")


def _below_half_sqrt2(max_denominator: int) -> Fraction:
    """The largest a/b with b <= max_denominator and 2 (a/b)^2 < 1.

    Walks the Stern-Brocot tree: no fraction strictly between two Farey
    neighbours has a denominator below the sum of theirs.
    """
    lo, hi = (0, 1), (1, 1)
    while True:
        a, b = lo[0] + hi[0], lo[1] + hi[1]
        if b > max_denominator:
            return Fraction(*lo)
        if 2 * a * a < b * b:
            lo = (a, b)
        else:
            hi = (a, b)


@functools.cache
def _extreme_members(family: str) -> tuple[Scenario, ...]:
    """The family's extreme point in each of the 16 sign directions."""
    odd_scale = (
        Fraction(1, 2)
        if family == FAMILY_BELL
        else _below_half_sqrt2(RATIONALIZE_MAX_DENOMINATOR)
    )
    out = []
    for sigma in _ALL_SIGNS:
        scale = 1 if sigma.count(-1) % 2 == 0 else odd_scale
        e = tuple(scale * v for v in sigma)
        if not family_report(family, e).satisfied:
            raise AssertionError(f"extreme point {e} is not a {family} member")
        out.append(scenario_from_correlations(e))
    return tuple(out)


def _run_samples(conn, family: str, sampler_seed: int, n: int, role: str) -> SetRole:
    # fitting: members must be feasible; forcing: violators must be infeasible
    _check_family(family)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    member = role == "fitting"
    target = _as_connection(conn)
    exact = exact_connection(target)
    extremes = _extreme_members(family) if member else ()
    for k in range(n):
        if k < len(extremes):
            s = extremes[k]
        else:
            s = sample_scenario_in_family(family, member, sampler_seed, k)
        feasible = coupling_exists(s, exact).feasible
        if feasible != member:
            if member:
                detail = (
                    f"{family}-satisfying scenario admits no coupling with "
                    f"connection targets {tuple(map(str, exact.components()))}"
                )
            else:
                detail = (
                    f"{family}-violating scenario still admits a coupling with "
                    f"connection targets {tuple(map(str, exact.components()))}"
                )
            return SetRole(role, family, False, k + 1, (s, detail))
    return SetRole(role, family, True, n)


def test_fitting(conn, family: str, sampler_seed: int, n: int) -> SetRole:
    """Sampled check that every family member admits the connections: the
    16 extreme points first, then seeded members."""
    return _run_samples(conn, family, sampler_seed, n, "fitting")


def test_forcing(conn, family: str, sampler_seed: int, n: int) -> SetRole:
    """Sampled check that every family violator rejects the connections."""
    return _run_samples(conn, family, sampler_seed, n, "forcing")


def test_equivalent(conn, family: str, sampler_seed: int, n: int) -> SetRole:
    """Fitting and forcing combined; fails as soon as either leg fails.

    The forcing leg runs first: a vector that is not equivalent is usually
    refuted by a violator that still couples, and those counterexamples
    surface within a handful of samples, while refutations of the fitting
    leg tend to need many more.
    """
    force = test_forcing(conn, family, sampler_seed, n)
    if not force.verdict:
        return SetRole(
            "equivalent", family, False, force.samples_checked, force.counterexample
        )
    fit = test_fitting(conn, family, sampler_seed, n)
    return SetRole(
        "equivalent",
        family,
        fit.verdict,
        force.samples_checked + fit.samples_checked,
        fit.counterexample,
    )


# keep pytest from collecting these exported test_* callables as test cases
test_fitting.__test__ = False
test_forcing.__test__ = False
test_equivalent.__test__ = False
