"""Couplings of the eight context-indexed variables.

A coupling is one joint distribution over the 256 sign patterns of

    (A'11, A'12, A'21, A'22, B'11, B'12, B'21, B'22)

whose marginal on each observed pair (A'_ij, B'_ij) reproduces the
scenario's pair distribution.  Existence questions under extra constraints
(identity of same-setting variables across contexts, or prescribed
connection expectations) are decided on the cycle

    a11 - b11 - b21 - a21 - a22 - b22 - b12 - a12 - a11

whose edges alternate the four observed contexts and the four connections;
no question constrains a pair off the cycle.  Cutting the cycle into
triangles fanned out from a11 turns existence into exact interval
propagation along the five chords.  Gluing the triangle tables chord by
chord with the north-west-corner rule gives a witness coupling on at most
28 patterns, certified against the scenario and the targets.  (The
cycle's cut polytope is cut out by triangle and cycle inequalities:
Barahona & Mahjoub, Math. Prog. 36, 1986.)

The four connections are the unobservable cross-context pairs

    A1 = (A'11, A'12)   A2 = (A'21, A'22)
    B1 = (B'11, B'21)   B2 = (B'12, B'22)

and a ConnectionVector holds the four target expectations in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping, Optional, Union

from .distributions import CONTEXTS, Context, PairDistribution, Scenario, _check_components
from .errors import DomainError, StructuralError
from .lp import LinearProgram, LpStatus, as_rational

Pattern = tuple[int, ...]

# pattern coordinate order: (a11, a12, a21, a22, b11, b12, b21, b22)
ALL_PATTERNS: tuple[Pattern, ...] = tuple(product((1, -1), repeat=8))
_PATTERN_INDEX = {p: k for k, p in enumerate(ALL_PATTERNS)}

_A_POS = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
_B_POS = {(1, 1): 4, (1, 2): 5, (2, 1): 6, (2, 2): 7}
CTX_POSITIONS = {ctx: (_A_POS[ctx], _B_POS[ctx]) for ctx in CONTEXTS}

CONNECTION_NAMES = ("A1", "A2", "B1", "B2")
CONNECTION_POSITIONS = {"A1": (0, 1), "A2": (2, 3), "B1": (4, 6), "B2": (5, 7)}

# The cycle as pattern positions, a11 first; edge k joins _CYCLE[k] and
# _CYCLE[k + 1] (cyclically) and is either an observed context or a
# connection.
_CYCLE = (0, 4, 6, 2, 3, 7, 5, 1)
_CYCLE_EDGES = ((1, 1), "B1", (2, 1), "A2", (2, 2), "B2", (1, 2), "A1")


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
        _check_components(self, ("cA1", "cA2", "cB1", "cB2"))

    def components(self) -> tuple:
        return (self.cA1, self.cA2, self.cB1, self.cB2)

    def rational_components(self) -> tuple[Fraction, ...]:
        """The four targets as exact rationals; floats are refused.

        Coupling questions are decided exactly on the fan, so irrational
        (float-valued) targets must be rationalized by the caller first
        (connections.rationalize).
        """
        out = []
        for name, v in zip(("cA1", "cA2", "cB1", "cB2"), self.components()):
            if isinstance(v, float):
                raise DomainError(
                    f"{name} = {v} is a float; rationalize connection targets first"
                )
            out.append(Fraction(v))
        return tuple(out)


_IDENTITY = ConnectionVector(1, 1, 1, 1)


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


def _plus_means(s: Scenario) -> list[Fraction]:
    """Pr[X = +1] of every variable, indexed by pattern position."""
    means = [Fraction(0)] * 8
    for ctx, (a, b) in CTX_POSITIONS.items():
        pd = s.pairs[ctx]
        means[a] = pd.a_plus()
        means[b] = pd.b_plus()
    return means


def _fan_coupling(s: Scenario, targets: tuple[Fraction, ...]) -> Optional[Coupling]:
    """A coupling with connection expectations targets (A1, A2, B1, B2), or
    None when there is none.

    Every edge of the cycle is given by its Pr[+, +] cell, which with the
    two means fixes the edge's 2x2 table.  The fan from a11 cuts the cycle
    into six triangles (a11, v_k, v_k+1) joined by the chords a11 - v_k.  A
    triangle's 2x2x2 table is affine in its one free cell t = Pr[+, +, +],
    so it exists iff four lower bounds on t sit below four upper bounds;
    with chords x, y, known edge beta and means p, q, s of a11, v_k, v_k+1
    those sixteen inequalities are the chord boxes (Frechet ranges), the
    Frechet range of beta, and

        A <= x + y <= B,   x - y <= C,   y - x <= D,

    A = p + q + s - 1 - beta, B = p + beta, C = q - beta, D = s - beta.
    The forward pass carries each chord's feasible interval to the next
    chord (the first and last chords are the fixed edges a11 - b11 and
    a11 - a12); the backward pass takes each chord at the low end its
    successor allows and each t at its largest lower bound.

    Passes, tables and the north-west-corner glue (_lift) only add,
    subtract and compare, so they run on integers over one denominator,
    `one`; nothing divides until the witness masses become Fractions.
    """
    one = 4 * math.lcm(
        *(v.denominator for pd in s.pairs.values() for v in pd.cells()),
        *(t.denominator for t in targets),
    )
    means = [m.numerator * (one // m.denominator) for m in _plus_means(s)]

    def frechet(p, q):
        # pair_coupling_range in units of 1/one
        return max(0, p + q - one), min(p, q)

    edges = []
    for k, link in enumerate(_CYCLE_EDGES):
        if link in CONNECTION_POSITIONS:
            p, q = means[_CYCLE[k]], means[_CYCLE[(k + 1) % 8]]
            t = targets[CONNECTION_NAMES.index(link)]
            # Pr[+, +] = (E[XY] - 1 + 2p + 2q) / 4, exact: 4 divides every term
            r = (t.numerator * (one // t.denominator) - one + 2 * p + 2 * q) // 4
            lo, hi = frechet(p, q)
            if not lo <= r <= hi:
                return None
            edges.append(r)
        else:
            cell = s.pairs[link].p_pp
            edges.append(cell.numerator * (one // cell.denominator))
    p = means[0]
    rim = [means[u] for u in _CYCLE[1:]]
    boxes = [frechet(p, q) for q in rim]

    # forward pass: intervals[j] holds every value of chord j that the
    # triangles before it leave feasible
    intervals = []
    lo = hi = edges[0]
    for j in range(6):
        lo, hi = max(lo, boxes[j][0]), min(hi, boxes[j][1])
        if lo > hi:
            return None
        intervals.append((lo, hi))
        q, w, beta = rim[j], rim[j + 1], edges[j + 1]
        lo, hi = (
            max(boxes[j + 1][0], p + q + w - one - beta - hi, lo - (q - beta)),
            min(boxes[j + 1][1], p + beta - lo, hi + (w - beta)),
        )
    if not lo <= edges[7] <= hi:
        return None

    # backward pass
    chords = [edges[0]] + [None] * 5 + [edges[7]]
    for j in range(5, 0, -1):
        y, q, w, beta = chords[j + 1], rim[j], rim[j + 1], edges[j + 1]
        chords[j] = max(intervals[j][0], p + q + w - one - beta - y, y - (w - beta))
    tables = []
    for j in range(6):
        x, y, q, w, beta = chords[j], chords[j + 1], rim[j], rim[j + 1], edges[j + 1]
        t = max(0, x + y - p, x + beta - q, y + beta - w)
        tables.append({
            (1, 1, 1): t,
            (1, 1, -1): x - t,
            (1, -1, 1): y - t,
            (-1, 1, 1): beta - t,
            (1, -1, -1): p - x - y + t,
            (-1, 1, -1): q - x - beta + t,
            (-1, -1, 1): w - y - beta + t,
            (-1, -1, -1): one - p - q - w + x + y + beta - t,
        })

    coupling = Coupling(_lift(tables, one))
    if not coupling.matches_scenario(s) or coupling.connection_expectations() != targets:
        raise AssertionError("fan coupling misses a scenario pair or a connection target")
    return coupling


def _lift(tables, one: int) -> dict[Pattern, Fraction]:
    """Glue the fan's triangle tables, cells in units of 1/one, along their
    chords by the north-west-corner rule: walking the atoms in order, those
    in chord cell (a11, v_k) = (a, u) fill the cell (a, u, +1) first and
    the rest goes to (a, u, -1).  Consecutive triangles share the chord's
    table, so both cells are filled exactly; each chord cell splits at most
    one atom, so the support is at most 8 + 5 * 4 = 28 patterns."""
    atoms = [(cell, m) for cell, m in tables[0].items() if m]
    for table in tables[1:]:
        room = {(a, u): table[a, u, 1] for a in (1, -1) for u in (1, -1)}
        grown = []
        for seq, m in atoms:
            chord = seq[0], seq[-1]
            plus = min(m, room[chord])
            room[chord] -= plus
            grown += [(seq + (w,), n) for w, n in ((1, plus), (-1, m - plus)) if n]
        atoms = grown
    mass = {}
    for seq, m in atoms:
        pattern = [0] * 8
        for position, sign in zip(_CYCLE, seq):
            pattern[position] = sign
        mass[tuple(pattern)] = Fraction(m, one)
    return mass


def coupling_exists(s: Scenario, conn: Optional[ConnectionVector] = None) -> CouplingVerdict:
    """Decide whether a coupling with the given connection expectations exists.

    Without conn, each connection gets the product of its two means as
    target, which the independent coupling always realizes.  A feasible
    verdict carries the fan's certified witness.
    """
    if conn is None:
        means = _plus_means(s)
        targets = tuple(
            (2 * means[u] - 1) * (2 * means[v] - 1)
            for u, v in (CONNECTION_POSITIONS[name] for name in CONNECTION_NAMES)
        )
    else:
        targets = conn.rational_components()
    witness = _fan_coupling(s, targets)
    if witness is None:
        if conn is None:
            raise AssertionError("the independent coupling realizes the product targets")
        return CouplingVerdict(False)
    return CouplingVerdict(True, witness)


def identity_coupling_exists(s: Scenario) -> CouplingVerdict:
    """Existence of a coupling with all four connections almost surely equal,
    which is expectation target +1 on each of them."""
    return coupling_exists(s, _IDENTITY)


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
    # no coupling question needs the LP; only this cross-check does
    from .lp import optimize

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
    couplings of the scenario.

    One connection alone closes no cycle, so its range is the Frechet range
    of its two variables' marginals, mapped from the (+1, +1) cell r to the
    expectation 4r - 2p - 2q + 1.
    """
    u, v = _connection_positions(which)
    means = _plus_means(s)
    p, q = means[u], means[v]
    lo, hi = pair_coupling_range(p, q)
    return 4 * lo - 2 * p - 2 * q + 1, 4 * hi - 2 * p - 2 * q + 1


def coupling_from_pattern_map(doc: Mapping[str, object]) -> Coupling:
    """Rebuild a Coupling from its sparse serialized form {key: 'num/den'}."""
    mass = {}
    for key, val in doc.items():
        pat = pattern_from_key(key)
        if len(pat) != 8 or any(v == 0 for v in pat):
            raise StructuralError(f"coupling pattern key must be 8 signs, got {key!r}")
        mass[pat] = as_rational(val)
    return Coupling(mass)
