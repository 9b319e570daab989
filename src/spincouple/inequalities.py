"""The three nested constraint families on a correlation vector.

Each family bounds the same four expressions, built by giving a minus sign
to exactly one of the four correlations:

    bell        |±e11 ± e12 ± e21 ± e22| <= 2          (exact, rational)
    quantum     |±asin e11 ± ... ± asin e22| <= pi     (tolerance eps)
    tsirelson   |±e11 ± e12 ± e21 ± e22| <= 2*sqrt(2)  (tolerance eps)

bell implies quantum implies tsirelson; the checkers stay independent so
that nesting is observable, not baked in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .distributions import CorrelationVector
from .errors import DomainError

FAMILY_BELL = "bell"
FAMILY_QUANTUM = "quantum"
FAMILY_TSIRELSON = "tsirelson"
FAMILIES = (FAMILY_BELL, FAMILY_QUANTUM, FAMILY_TSIRELSON)

DEFAULT_EPSILON = 1e-9

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class FamilyReport:
    family: str
    satisfied: bool
    max_lhs: Union[Fraction, float]
    bound: Union[Fraction, float]
    tight: bool


def _as_vector(c) -> CorrelationVector:
    if isinstance(c, CorrelationVector):
        return c
    return CorrelationVector(*c)


def sign_sum_max(v):
    """max |v1 ± v2 ± v3 ± v4| over the sums with exactly one minus sign.

    Negating v_i leaves S - 2*v_i (S the plain sum), which is monotone in
    v_i, so the largest |S - 2*v_i| sits at the smallest or the largest
    component.  Exact on ints and Fractions.
    """
    s = sum(v)
    return max(s - 2 * min(v), 2 * max(v) - s)


def float_sign_sum_max(a: float, b: float, c: float, d: float) -> float:
    """sign_sum_max on floats, each sum formed left to right as written, so
    every caller rounds alike."""
    return max(
        abs(a + b + c - d), abs(a + b - c + d), abs(a - b + c + d), abs(-a + b + c + d)
    )


def chsh_max(c) -> Fraction:
    """Exact max over the four sign patterns of |sum of signed e_ij|.

    Floats are converted exactly (every float is a rational), so the
    comparison against the bound 2 never involves rounding.
    """
    return sign_sum_max([Fraction(v) for v in _as_vector(c).components()])


def arcsin_sum_max(c) -> float:
    """Max over the four sign patterns of |sum of signed asin(e_ij)|."""
    comps = _as_vector(c).components()
    return float_sign_sum_max(*(math.asin(min(1.0, max(-1.0, float(v)))) for v in comps))


def bell_ch_fine(c, epsilon: float = DEFAULT_EPSILON) -> FamilyReport:
    """Classical bound 2; satisfaction decided exactly, tightness within epsilon."""
    m = chsh_max(c)
    return FamilyReport(
        family=FAMILY_BELL,
        satisfied=m <= 2,
        max_lhs=m,
        bound=Fraction(2),
        tight=abs(m - 2) <= epsilon,
    )


def tsirelson(c, epsilon: float = DEFAULT_EPSILON) -> FamilyReport:
    """Quantum-maximum bound 2*sqrt(2), compared at tolerance epsilon."""
    m = chsh_max(c)
    return FamilyReport(
        family=FAMILY_TSIRELSON,
        satisfied=m <= TSIRELSON_BOUND + epsilon,
        max_lhs=m,
        bound=TSIRELSON_BOUND,
        tight=abs(float(m) - TSIRELSON_BOUND) <= epsilon,
    )


def quantum_arcsin(c, epsilon: float = DEFAULT_EPSILON) -> FamilyReport:
    """Arcsin-transformed bound pi, compared at tolerance epsilon."""
    m = arcsin_sum_max(c)
    return FamilyReport(
        family=FAMILY_QUANTUM,
        satisfied=m <= math.pi + epsilon,
        max_lhs=m,
        bound=math.pi,
        tight=abs(m - math.pi) <= epsilon,
    )


@dataclass(frozen=True)
class Classification:
    bell: bool
    quantum: bool
    tsirelson: bool


def classify(c, epsilon: float = DEFAULT_EPSILON) -> Classification:
    """All three verdicts, each computed independently."""
    return Classification(
        bell=bell_ch_fine(c, epsilon).satisfied,
        quantum=quantum_arcsin(c, epsilon).satisfied,
        tsirelson=tsirelson(c, epsilon).satisfied,
    )


def family_report(family: str, c, epsilon: float = DEFAULT_EPSILON) -> FamilyReport:
    if family == FAMILY_BELL:
        return bell_ch_fine(c, epsilon)
    if family == FAMILY_QUANTUM:
        return quantum_arcsin(c, epsilon)
    if family == FAMILY_TSIRELSON:
        return tsirelson(c, epsilon)
    raise DomainError(f"unknown family {family!r}")
