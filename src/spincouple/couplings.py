"""Couplings of the eight context-indexed variables.

A coupling is one joint distribution over the 256 sign patterns of

    (A'11, A'12, A'21, A'22, B'11, B'12, B'21, B'22)

whose marginal on each observed pair (A'_ij, B'_ij) reproduces the
scenario's pair distribution.  Existence questions under extra constraints
(identity of same-setting variables across contexts, or prescribed
connection expectations) are decided by exact linear feasibility.

The four connections are the unobservable cross-context pairs

    A1 = (A'11, A'12)   A2 = (A'21, A'22)
    B1 = (B'11, B'21)   B2 = (B'12, B'22)

and a ConnectionVector holds the four target expectations in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping, Optional, Union

from .distributions import CONTEXTS, Context, PairDistribution, Scenario
from .errors import DomainError, StructuralError
from .lp import LinearProgram, LpStatus, as_rational, optimize, solve_feasibility

Pattern = tuple[int, ...]

# pattern coordinate order: (a11, a12, a21, a22, b11, b12, b21, b22)
ALL_PATTERNS: tuple[Pattern, ...] = tuple(product((1, -1), repeat=8))
_PATTERN_INDEX = {p: k for k, p in enumerate(ALL_PATTERNS)}

_A_POS = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
_B_POS = {(1, 1): 4, (1, 2): 5, (2, 1): 6, (2, 2): 7}
CTX_POSITIONS = {ctx: (_A_POS[ctx], _B_POS[ctx]) for ctx in CONTEXTS}

CONNECTION_NAMES = ("A1", "A2", "B1", "B2")
CONNECTION_POSITIONS = {"A1": (0, 1), "A2": (2, 3), "B1": (4, 6), "B2": (5, 7)}

# Coefficient rows of the 256-column coupling programs, built once as int
# tuples and shared by every program; only the right-hand sides vary.


def _indicator(indices) -> tuple[int, ...]:
    row = [0] * 256
    for k in indices:
        row[k] = 1
    return tuple(row)


_NORMALIZATION = (1,) * 256
# per context: the rows of three marginal cells; the fourth (-1, -1) is
# redundant given normalization
_CELLS = ((1, 1), (1, -1), (-1, 1))
_CELL_ROWS = {
    ctx: tuple(
        _indicator(k for k, p in enumerate(ALL_PATTERNS) if (p[a], p[b]) == cell)
        for cell in _CELLS
    )
    for ctx, (a, b) in CTX_POSITIONS.items()
}
# per connection: its sign in each pattern, and indicators of the patterns
# where its two variables differ / agree
_PRODUCT_SIGN = {
    name: tuple(p[u] * p[v] for p in ALL_PATTERNS)
    for name, (u, v) in CONNECTION_POSITIONS.items()
}
_DIFFER_ROWS = {
    name: _indicator(k for k, s in enumerate(signs) if s < 0)
    for name, signs in _PRODUCT_SIGN.items()
}
_EQUAL_ROWS = {
    name: _indicator(k for k, s in enumerate(signs) if s > 0)
    for name, signs in _PRODUCT_SIGN.items()
}

_EPS = 1e-9


def pattern_key(pattern: Pattern) -> str:
    """Render a sign pattern as a compact string, e.g. '++-+-++-'."""
    return "".join("+" if v > 0 else "-" if v < 0 else "0" for v in pattern)


def pattern_from_key(key: str) -> Pattern:
    out = []
    for ch in key:
        if ch == "+":
            out.append(1)
        elif ch == "-":
            out.append(-1)
        elif ch == "0":
            out.append(0)
        else:
            raise StructuralError(f"bad pattern character {ch!r} in {key!r}")
    return tuple(out)


@dataclass(frozen=True)
class ConnectionVector:
    """Target expectations for (A1, A2, B1, B2), each in [-1, 1]."""

    cA1: Union[Fraction, float]
    cA2: Union[Fraction, float]
    cB1: Union[Fraction, float]
    cB2: Union[Fraction, float]

    def __post_init__(self) -> None:
        for name in ("cA1", "cA2", "cB1", "cB2"):
            v = getattr(self, name)
            if isinstance(v, float):
                if abs(v) > 1.0 + _EPS:
                    raise DomainError(f"{name} = {v} is outside [-1, 1]")
                v = min(1.0, max(-1.0, v))
            else:
                v = as_rational(v)
                if v < -1 or v > 1:
                    raise DomainError(f"{name} = {v} is outside [-1, 1]")
            object.__setattr__(self, name, v)

    def components(self) -> tuple:
        return (self.cA1, self.cA2, self.cB1, self.cB2)

    def rational_components(self) -> tuple[Fraction, ...]:
        """The four targets as exact rationals; floats are refused.

        The LP engine stays exact, so irrational (float-valued) targets must
        be rationalized by the caller first (connections.rationalize).
        """
        out = []
        for name, v in zip(("cA1", "cA2", "cB1", "cB2"), self.components()):
            if isinstance(v, float):
                raise DomainError(
                    f"{name} = {v} is a float; rationalize connection targets first"
                )
            out.append(Fraction(v))
        return tuple(out)


@dataclass(frozen=True)
class Coupling:
    """A joint distribution over sign patterns, stored sparsely.

    Missing patterns carry zero mass.  Masses must be nonnegative rationals
    summing to exactly 1.
    """

    mass: Mapping[Pattern, Fraction]

    def __post_init__(self) -> None:
        total = Fraction(0)
        clean = {}
        for pat, v in self.mass.items():
            if pat not in _PATTERN_INDEX:
                raise StructuralError(f"not an 8-component sign pattern: {pat!r}")
            v = as_rational(v)
            if v < 0:
                raise DomainError(f"negative mass {v} on pattern {pattern_key(pat)}")
            if v:
                clean[pat] = v
                total += v
        if total != 1:
            raise DomainError(f"coupling mass sums to {total}, expected 1")
        object.__setattr__(self, "mass", clean)

    def pair_marginal(self, ctx: Context) -> PairDistribution:
        ai, bi = CTX_POSITIONS[ctx]
        cells = {(1, 1): Fraction(0), (1, -1): Fraction(0), (-1, 1): Fraction(0), (-1, -1): Fraction(0)}
        for pat, v in self.mass.items():
            cells[(pat[ai], pat[bi])] += v
        return PairDistribution(cells[(1, 1)], cells[(1, -1)], cells[(-1, 1)], cells[(-1, -1)])

    def connection_expectation(self, which: str) -> Fraction:
        u, v = _connection_positions(which)
        return sum((m * (pat[u] * pat[v]) for pat, m in self.mass.items()), Fraction(0))

    def connection_expectations(self) -> tuple[Fraction, ...]:
        return tuple(self.connection_expectation(name) for name in CONNECTION_NAMES)

    def matches_scenario(self, s: Scenario) -> bool:
        return all(self.pair_marginal(ctx) == s.pairs[ctx] for ctx in CONTEXTS)


@dataclass(frozen=True)
class CouplingVerdict:
    feasible: bool
    witness: Optional[Coupling] = None


def _connection_positions(which: str) -> tuple[int, int]:
    try:
        return CONNECTION_POSITIONS[which]
    except KeyError:
        raise DomainError(
            f"unknown connection {which!r}; expected one of {CONNECTION_NAMES}"
        ) from None


def independent_coupling(s: Scenario) -> Coupling:
    """The product coupling: contexts are independent of one another."""
    mass = {}
    for pat in ALL_PATTERNS:
        m = Fraction(1)
        for ctx in CONTEXTS:
            ai, bi = CTX_POSITIONS[ctx]
            m *= s.pairs[ctx].prob(pat[ai], pat[bi])
            if not m:
                break
        if m:
            mass[pat] = m
    return Coupling(mass)


def _marginal_rows(s: Scenario) -> list[tuple[tuple[int, ...], Fraction]]:
    rows = [(_NORMALIZATION, Fraction(1))]
    for ctx in CONTEXTS:
        pd = s.pairs[ctx]
        rows.extend(zip(_CELL_ROWS[ctx], (pd.prob(*cell) for cell in _CELLS)))
    return rows


def _witness_coupling(witness) -> Coupling:
    return Coupling({ALL_PATTERNS[k]: v for k, v in enumerate(witness) if v})


def coupling_exists(s: Scenario, conn: Optional[ConnectionVector] = None) -> CouplingVerdict:
    """Decide whether a coupling with the given connection expectations exists.

    The program has one normalization row, three marginal rows per context,
    and, when conn is given, one expectation row per connection.  A target of
    +1 (resp. -1) additionally pins the mass of differing (resp. equal)
    patterns to zero; those rows are implied by the expectation row and the
    normalization, and let presolve shrink the problem drastically.

    The coefficient rows are shared module-level int tuples, built once at
    import; a call creates only its right-hand sides.
    """
    rows = _marginal_rows(s)
    if conn is not None:
        targets = conn.rational_components()
        for name, t in zip(CONNECTION_NAMES, targets):
            rows.append((_PRODUCT_SIGN[name], t))
            if t == 1:
                rows.append((_DIFFER_ROWS[name], Fraction(0)))
            elif t == -1:
                rows.append((_EQUAL_ROWS[name], Fraction(0)))
    out = solve_feasibility(LinearProgram(256, rows))
    if out.status is not LpStatus.FEASIBLE:
        return CouplingVerdict(False)
    return CouplingVerdict(True, _witness_coupling(out.witness))


def identity_coupling_exists(s: Scenario) -> CouplingVerdict:
    """Existence of a coupling with all four connections almost surely equal.

    Encoded as zero total mass on the patterns where a connected pair
    differs; for each connection this is the same constraint as expectation
    target +1.
    """
    rows = _marginal_rows(s)
    for name in CONNECTION_NAMES:
        rows.append((_DIFFER_ROWS[name], Fraction(0)))
    out = solve_feasibility(LinearProgram(256, rows))
    if out.status is not LpStatus.FEASIBLE:
        return CouplingVerdict(False)
    return CouplingVerdict(True, _witness_coupling(out.witness))


def pair_coupling_range(p, q) -> tuple[Fraction, Fraction]:
    """Attainable range of r = Pr[X = 1, Y = 1] for marginals Pr[X=1] = p,
    Pr[Y=1] = q: the closed form (max(0, p+q-1), min(p, q))."""
    p = as_rational(p)
    q = as_rational(q)
    if not (0 <= p <= 1 and 0 <= q <= 1):
        raise DomainError(f"marginal probabilities must lie in [0, 1], got {p}, {q}")
    return max(Fraction(0), p + q - 1), min(p, q)


def pair_coupling_range_lp(p, q) -> tuple[Fraction, Fraction]:
    """The same range computed by exact LP over the 4-cell joint table.

    Variables (r_pp, r_pm, r_mp, r_mm); rows fix normalization and the two
    marginals; objective is the (+1, +1) cell.  Kept as an independent route
    so the closed form above stays cross-checked.
    """
    p = as_rational(p)
    q = as_rational(q)
    if not (0 <= p <= 1 and 0 <= q <= 1):
        raise DomainError(f"marginal probabilities must lie in [0, 1], got {p}, {q}")
    one = Fraction(1)
    zero = Fraction(0)
    lp = LinearProgram(
        4,
        [
            ([one, one, one, one], one),
            ([one, one, zero, zero], p),
            ([one, zero, one, zero], q),
        ],
        objective=[one, zero, zero, zero],
    )
    lo = optimize(lp, "min")
    hi = optimize(lp, "max")
    if lo.status is not LpStatus.FEASIBLE or hi.status is not LpStatus.FEASIBLE:
        raise AssertionError("pair coupling polytope must be feasible and bounded")
    return lo.optimum, hi.optimum


def connection_range(s: Scenario, which: str) -> tuple[Fraction, Fraction]:
    """Exact attainable range of one connection expectation over all
    couplings of the scenario."""
    _connection_positions(which)
    lp = LinearProgram(256, _marginal_rows(s), objective=_PRODUCT_SIGN[which])
    lo = optimize(lp, "min")
    hi = optimize(lp, "max")
    if lo.status is not LpStatus.FEASIBLE or hi.status is not LpStatus.FEASIBLE:
        raise AssertionError("marginal coupling polytope is never empty or unbounded")
    return lo.optimum, hi.optimum


def coupling_from_pattern_map(doc: Mapping[str, object]) -> Coupling:
    """Rebuild a Coupling from its sparse serialized form {key: 'num/den'}."""
    mass = {}
    for key, val in doc.items():
        pat = pattern_from_key(key)
        if len(pat) != 8 or any(v == 0 for v in pat):
            raise StructuralError(f"coupling pattern key must be 8 signs, got {key!r}")
        mass[pat] = as_rational(val)
    return Coupling(mass)
