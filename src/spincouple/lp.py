"""Exact-rational linear feasibility and optimization.

Programs are equality-constrained over nonnegative variables:

    minimize / maximize  c . x    subject to    A x = b,  x >= 0

with every coefficient an exact rational: an int or a fractions.Fraction,
mixed freely; rows may be lists or tuples.  Solving is two-phase simplex
under Bland's anti-cycling rule, so results are deterministic and never
carry floating-point doubt: a Feasible outcome includes an exact witness,
Infeasible means exactly that.

There is one pivot kernel, spincouple._kernel_pure.  It takes the rows,
right-hand side and objective as they are, ints and Fractions mixed,
clears denominators itself, pivots fraction-free on plain ints and returns
Fractions.

Callers see fractions.Fraction everywhere, not the kernel's integer
arithmetic.  Every witness is checked against every equality row before it
is returned; the check touches only the witness's nonzero entries, summing
in integers over the lcm of their denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Literal, Optional, Sequence

from .errors import DomainError, StructuralError
from . import _kernel_pure

# The one seam through which the kernel is called; tests substitute it, and
# calls go through the module attribute so hooks on _kernel_pure.solve see
# every solve.
_kernel = _kernel_pure


def kernel_backend() -> str:
    """Identify the pivot kernel and its arithmetic: 'pure+fractions'."""
    return "pure+fractions"


Rational = Fraction


def as_rational(value) -> Fraction:
    """Coerce int / Fraction / 'num/den' or decimal string to Fraction.

    Floats are refused: every probability in this package is exact, and a
    silently converted float almost always means an upstream mistake.  Use
    connections.rationalize for deliberate float-to-rational conversion.
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
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse rational from {value!r}") from exc
    raise DomainError(f"cannot interpret {type(value).__name__} as an exact rational")


class LpStatus(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    witness: Optional[tuple[Fraction, ...]] = None
    optimum: Optional[Fraction] = None


@dataclass
class LinearProgram:
    """Equality-form program; nonnegativity of all variables is implicit."""

    num_vars: int
    equalities: list[tuple[Sequence[Fraction | int], Fraction | int]]
    objective: Optional[Sequence[Fraction | int]] = None

    def validate(self) -> None:
        if self.num_vars < 1:
            raise StructuralError(f"num_vars must be >= 1, got {self.num_vars}")
        for k, (row, _) in enumerate(self.equalities):
            if len(row) != self.num_vars:
                raise StructuralError(
                    f"equality row {k} has {len(row)} coefficients, expected {self.num_vars}"
                )
        if self.objective is not None and len(self.objective) != self.num_vars:
            raise StructuralError(
                f"objective has {len(self.objective)} coefficients, expected {self.num_vars}"
            )


def _solve(lp: LinearProgram, objective, maximize: bool) -> LpOutcome:
    lp.validate()
    rows = [row for row, _ in lp.equalities]
    rhs = [b for _, b in lp.equalities]

    if not rows and objective is None:
        # nothing constrains the variables; the kernel cannot even infer
        # their count without rows or an objective
        witness = tuple(Fraction(0) for _ in range(lp.num_vars))
        _check_witness(lp, witness)
        return LpOutcome(LpStatus.FEASIBLE, witness, None)

    code, wit, opt = _kernel.solve(rows, rhs, objective, maximize)
    if code == _kernel_pure.INFEASIBLE:
        return LpOutcome(LpStatus.INFEASIBLE)
    if code == _kernel_pure.UNBOUNDED:
        return LpOutcome(LpStatus.UNBOUNDED)

    witness = tuple(wit)
    _check_witness(lp, witness)
    optimum = None
    if objective is not None:
        optimum = sum((objective[j] * witness[j] for j in range(lp.num_vars)), Fraction(0))
        if opt is not None and optimum != opt:
            raise AssertionError("kernel optimum disagrees with its own witness")
    return LpOutcome(LpStatus.FEASIBLE, witness, optimum)


def _check_witness(lp: LinearProgram, witness: tuple[Fraction, ...]) -> None:
    # Exactness guard: a witness that misses any equality is a kernel bug.
    # Only the support can contribute; scaling it by the lcm of its
    # denominators keeps the row sums in integers.
    support = [(j, w) for j, w in enumerate(witness) if w]
    if any(w < 0 for _, w in support):
        raise AssertionError("kernel produced a negative witness component")
    scale = math.lcm(*(w.denominator for _, w in support))
    scaled = [(j, w.numerator * (scale // w.denominator)) for j, w in support]
    for row, b in lp.equalities:
        if sum(row[j] * w for j, w in scaled) != b * scale:
            raise AssertionError("kernel witness violates an equality row")


def solve_feasibility(lp: LinearProgram) -> LpOutcome:
    """Decide A x = b, x >= 0 exactly; Feasible outcomes carry a witness."""
    return _solve(lp, None, False)


def optimize(lp: LinearProgram, direction: Literal["min", "max"]) -> LpOutcome:
    """Optimize lp.objective over the feasible region, exactly."""
    if lp.objective is None:
        raise StructuralError("optimize requires an objective row")
    if direction not in ("min", "max"):
        raise DomainError(f"direction must be 'min' or 'max', got {direction!r}")
    return _solve(lp, list(lp.objective), direction == "max")
