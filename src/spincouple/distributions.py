"""Observed data model: per-context pair distributions and their statistics.

A context is one joint setting choice (i, j) with i, j in {1, 2}; under it
one Alice outcome A_ij and one Bob outcome B_ij, both valued in {+1, -1},
are recorded together.  A Scenario is the full table of four contexts.
Probabilities are exact rationals throughout; only correlation vectors may
carry floats (they are allowed to come from inner products of unit vectors).

Outside numbers become exact rationals here alone: as_rational refuses
floats, and rationalize converts a deliberate float at a bounded denominator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .errors import DomainError, StructuralError

Context = tuple[int, int]
CONTEXTS: tuple[Context, ...] = ((1, 1), (1, 2), (2, 1), (2, 2))

_EPS = 1e-9

RATIONALIZE_MAX_DENOMINATOR = 10**6

# Fraction expands a decimal exponent into 10**|exponent| before any range
# check can run; past Python's own int-string digit limit the string is refused.
_MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


@dataclass(frozen=True)
class PairDistribution:
    """Joint distribution of one (A_ij, B_ij) pair over {+1, -1} x {+1, -1}.

    Cell order: p_pp = Pr[+1, +1], p_pm = Pr[+1, -1], p_mp = Pr[-1, +1],
    p_mm = Pr[-1, -1].  Cells must be nonnegative and sum to 1 exactly.
    """

    p_pp: Fraction
    p_pm: Fraction
    p_mp: Fraction
    p_mm: Fraction

    def __post_init__(self) -> None:
        for name in ("p_pp", "p_pm", "p_mp", "p_mm"):
            try:
                v = as_rational(getattr(self, name))
            except DomainError as exc:
                raise DomainError(f"{name}: {exc}") from None
            if v < 0:
                raise DomainError(f"{name} = {v} is negative")
            object.__setattr__(self, name, v)
        if self.p_pp + self.p_pm + self.p_mp + self.p_mm != 1:
            raise DomainError("pair distribution cells must sum to exactly 1")

    def prob(self, a: int, b: int) -> Fraction:
        if a == 1:
            return self.p_pp if b == 1 else self.p_pm
        return self.p_mp if b == 1 else self.p_mm

    def a_plus(self) -> Fraction:
        """Pr[A = +1]."""
        return self.p_pp + self.p_pm

    def b_plus(self) -> Fraction:
        """Pr[B = +1]."""
        return self.p_pp + self.p_mp

    def cells(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.p_pp, self.p_pm, self.p_mp, self.p_mm)


@dataclass(frozen=True)
class Scenario:
    """The four observed pair distributions, keyed by context (i, j)."""

    pairs: Mapping[Context, PairDistribution]

    def __post_init__(self) -> None:
        missing = [c for c in CONTEXTS if c not in self.pairs]
        if missing:
            raise StructuralError(f"scenario is missing contexts {missing}")
        extra = [c for c in self.pairs if c not in CONTEXTS]
        if extra:
            raise StructuralError(f"scenario has unknown contexts {extra}")
        for ctx in CONTEXTS:
            if not isinstance(self.pairs[ctx], PairDistribution):
                raise StructuralError(
                    f"scenario context {ctx} holds {type(self.pairs[ctx]).__name__}, "
                    "not a PairDistribution"
                )
        object.__setattr__(self, "pairs", dict(self.pairs))

    def correlations(self) -> "CorrelationVector":
        return CorrelationVector(*(correlation(self.pairs[c]) for c in CONTEXTS))


def as_rational(value) -> Fraction:
    """Coerce int / Fraction / 'num/den' or decimal string to Fraction.

    Floats are refused: every probability in this package is exact, and a
    silently converted float almost always means an upstream mistake.  Use
    rationalize for deliberate float-to-rational conversion.  A decimal
    string whose exponent exceeds 4300 in magnitude is refused unexpanded.
    """
    if isinstance(value, bool):
        raise DomainError("booleans are not probabilities")
    if isinstance(value, float):
        raise DomainError(
            f"refusing float {value!r}: pass a Fraction, an int, or a string like '7/10'"
        )
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        _refuse_huge_exponent(value)
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse rational from {value!r}") from exc
    raise DomainError(f"cannot interpret {type(value).__name__} as an exact rational")


def _refuse_huge_exponent(text: str) -> None:
    m = _EXPONENT.search(text)
    if m is None:
        return
    digits = m.group(1).replace("_", "").lstrip("0")
    if len(digits) > 4 or int(digits or 0) > _MAX_DECIMAL_EXPONENT:
        raise DomainError(
            f"decimal exponent in {text!r} exceeds {_MAX_DECIMAL_EXPONENT} in magnitude"
        )


def rationalize(x, max_denominator: int) -> Fraction:
    """Best rational approximation with denominator <= max_denominator.

    Continued-fraction convergents via Fraction.limit_denominator, which
    returns the closest such fraction.
    """
    if type(max_denominator) is not int or max_denominator < 1:  # bools refused too
        raise DomainError(f"max_denominator must be an int >= 1, got {max_denominator!r}")
    if isinstance(x, bool):
        raise DomainError(f"rationalize expects a number, got {x!r}")
    if isinstance(x, str):
        _refuse_huge_exponent(x)
    try:
        f = Fraction(x)
    except (ValueError, OverflowError, TypeError):  # NaN, infinities, non-numbers
        raise DomainError(f"rationalize expects a finite number, got {x!r}") from None
    if f < -1 or f > 1:
        raise DomainError(f"rationalize expects |x| <= 1, got {x!r}")
    return f.limit_denominator(max_denominator)


def _check_components(obj, names: tuple[str, ...]) -> None:
    """Store the named components of a frozen dataclass, each in [-1, 1]:
    rationals exactly, floats clamped when at most 1e-9 outside (NaN is
    refused)."""
    for name in names:
        v = getattr(obj, name)
        if isinstance(v, float):
            if not abs(v) <= 1.0 + _EPS:
                raise DomainError(f"{name} = {v} is outside [-1, 1]")
            v = min(1.0, max(-1.0, v))
        else:
            v = as_rational(v)
            if v < -1 or v > 1:
                raise DomainError(f"{name} = {v} is outside [-1, 1]")
        object.__setattr__(obj, name, v)


@dataclass(frozen=True)
class CorrelationVector:
    """The four pair expectations (e11, e12, e21, e22), each in [-1, 1].

    Components may be exact rationals or floats.  Floats within 1e-9 outside
    [-1, 1] (one-ulp excursions from unit-vector dot products) are clamped;
    anything further out is rejected.
    """

    e11: Union[Fraction, float]
    e12: Union[Fraction, float]
    e21: Union[Fraction, float]
    e22: Union[Fraction, float]

    def __post_init__(self) -> None:
        _check_components(self, ("e11", "e12", "e21", "e22"))

    def components(self) -> tuple:
        return (self.e11, self.e12, self.e21, self.e22)


def correlation(pd: PairDistribution) -> Fraction:
    """Expectation of the product A_ij * B_ij."""
    return pd.p_pp - pd.p_pm - pd.p_mp + pd.p_mm


@dataclass(frozen=True)
class NoSignalingReport:
    holds: bool
    violations: tuple[str, ...]


def check_no_signaling(s: Scenario) -> NoSignalingReport:
    """Exact check that each party's marginal ignores the other's setting.

    Four equalities: Alice's +1 probability agrees across j within each row
    i, Bob's agrees across i within each column j.
    """
    p = s.pairs
    checks = (
        ("A row i=1", p[(1, 1)].a_plus(), p[(1, 2)].a_plus()),
        ("A row i=2", p[(2, 1)].a_plus(), p[(2, 2)].a_plus()),
        ("B column j=1", p[(1, 1)].b_plus(), p[(2, 1)].b_plus()),
        ("B column j=2", p[(1, 2)].b_plus(), p[(2, 2)].b_plus()),
    )
    violations = tuple(label for label, lhs, rhs in checks if lhs != rhs)
    return NoSignalingReport(holds=not violations, violations=violations)


def scenario_from_correlations(c) -> Scenario:
    """Lift a rational correlation vector to the uniform-marginal scenario.

    Each context gets Pr[A = +1] = Pr[B = +1] = 1/2 and the prescribed
    correlation e: cells ((1+e)/4, (1-e)/4, (1-e)/4, (1+e)/4).  The output
    satisfies no-signaling by construction.  Components must be exact
    rationals in [-1, 1]; floats are refused (rationalize them first).
    """
    if isinstance(c, CorrelationVector):
        comps = c.components()
    else:
        comps = tuple(c)
    if len(comps) != 4:
        raise StructuralError("expected exactly four correlation components")
    pairs = {}
    for ctx, e in zip(CONTEXTS, comps):
        e = as_rational(e)
        if e < -1 or e > 1:
            raise DomainError(f"correlation {e} for context {ctx} is outside [-1, 1]")
        hi = (1 + e) / 4
        lo = (1 - e) / 4
        pairs[ctx] = PairDistribution(hi, lo, lo, hi)
    return Scenario(pairs)
