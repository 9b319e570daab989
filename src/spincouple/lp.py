"""Exact-rational linear feasibility and optimization.

Programs are equality-constrained over nonnegative variables:

    minimize / maximize  c . x    subject to    A x = b,  x >= 0

with every coefficient an exact rational: an int or a fractions.Fraction,
mixed freely; rows may be lists or tuples.  Solving is two-phase simplex
under Bland's anti-cycling rule, so results are deterministic and never
carry floating-point doubt: a Feasible outcome includes an exact witness,
Infeasible means exactly that.

There is one pivot kernel, spincouple._kernel_pure.  It takes the
presolved rows, right-hand side and objective as they are, ints and
Fractions mixed, clears denominators itself, pivots fraction-free on plain
ints and returns Fractions.

Callers see fractions.Fraction everywhere, not the kernel's integer
arithmetic.  A cheap presolve fixes variables that equality rows with zero
right-hand side pin to zero; coupling problems with almost-sure-equality
constraints collapse from 256 variables to a handful, which is what makes
the large randomized campaigns affordable.  Presolve reads each row only
through its sign masks, two ints used as bit sets of its positive and
negative columns, and pins columns by bit operations on them.  The masks of
a tuple row are memoised by value, so the shared coefficient rows of the
coupling programs are scanned once per process, not once per solve.  The
witness check likewise touches only the witness's nonzero entries, summing
in integers over the lcm of their denominators.
"""

from __future__ import annotations

import functools
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


def _sign_masks(row) -> tuple[int, int]:
    """(pos, neg): bit j is set when row[j] > 0, resp. row[j] < 0."""
    pos = neg = 0
    for j, v in enumerate(row):
        if v > 0:
            pos |= 1 << j
        elif v < 0:
            neg |= 1 << j
    return pos, neg


# Coupling programs draw their coefficient rows from a few dozen shared
# tuples; memoised by value, each of them is scanned once per process.
_memo_sign_masks = functools.lru_cache(maxsize=64)(_sign_masks)


def _presolve(lp: LinearProgram):
    """Fix variables that zero-rhs single-signed rows force to zero.

    Returns ('infeasible', None) when a row is contradictory on its face,
    else ('reduced', (keep, rows, rhs)) where keep maps reduced columns back
    to original indices and rows/rhs hold the reduced system (zero rows
    dropped).
    """
    n = lp.num_vars
    masks = [
        _memo_sign_masks(row) if type(row) is tuple else _sign_masks(row)
        for row, _ in lp.equalities
    ]
    src_rhs = [b for _, b in lp.equalities]
    forced = 0
    changed = True
    while changed:
        changed = False
        for (pos, neg), b in zip(masks, src_rhs):
            pos &= ~forced
            neg &= ~forced
            if pos and neg:
                continue
            if not pos and not neg:
                if b != 0:
                    return "infeasible", None
                continue
            if b == 0:
                # single-signed row summing to zero: every participating
                # variable is pinned to 0 by nonnegativity
                forced |= pos | neg
                changed = True
            elif (b > 0 and not pos) or (b < 0 and not neg):
                return "infeasible", None
    keep = [j for j in range(n) if not forced >> j & 1]
    rows = []
    rhs = []
    # a row left without free columns has zero rhs, or the last pass above
    # would have returned; it is dropped
    for (row, b), (pos, neg) in zip(lp.equalities, masks):
        if (pos | neg) & ~forced:
            rows.append([row[j] for j in keep])
            rhs.append(b)
    return "reduced", (keep, rows, rhs)


def _solve(lp: LinearProgram, objective, maximize: bool) -> LpOutcome:
    lp.validate()
    verdict, reduced = _presolve(lp)
    if verdict == "infeasible":
        return LpOutcome(LpStatus.INFEASIBLE)
    keep, rows, rhs = reduced

    if not rows and objective is None:
        # nothing constrains the surviving variables; the kernel cannot
        # even infer their count without rows or an objective
        witness = tuple(Fraction(0) for _ in range(lp.num_vars))
        _check_witness(lp, witness)
        return LpOutcome(LpStatus.FEASIBLE, witness, None)

    kobj = None if objective is None else [objective[j] for j in keep]
    code, wit, opt = _kernel.solve(rows, rhs, kobj, maximize)
    if code == _kernel_pure.INFEASIBLE:
        return LpOutcome(LpStatus.INFEASIBLE)
    if code == _kernel_pure.UNBOUNDED:
        return LpOutcome(LpStatus.UNBOUNDED)

    full = [Fraction(0)] * lp.num_vars
    for j, v in zip(keep, wit):
        full[j] = v
    witness = tuple(full)
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
