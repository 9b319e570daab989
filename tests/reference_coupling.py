"""The 256-column coupling programs, solved by the exact LP.

One variable per sign pattern of (a11, a12, a21, a22, b11, b12, b21, b22);
rows fix normalization, three cells per context and, when asked, one
expectation per connection.  spincouple decides the same questions on the
cycle of contexts and connections (couplings._fan_coupling); these
programs stay here as the independent oracle it is tested against, and as
a source of realistic programs for the kernel tests.
"""

from fractions import Fraction

from spincouple import (
    ALL_PATTERNS,
    CONNECTION_NAMES,
    CONNECTION_POSITIONS,
    CONTEXTS,
    Coupling,
    CouplingVerdict,
    LinearProgram,
    LpStatus,
    optimize,
    solve_feasibility,
)
from spincouple.couplings import CTX_POSITIONS


def _indicator(indices) -> tuple[int, ...]:
    row = [0] * 256
    for k in indices:
        row[k] = 1
    return tuple(row)


NORMALIZATION = (1,) * 256
# per context: the rows of three marginal cells; the fourth (-1, -1) is
# redundant given normalization
CELLS = ((1, 1), (1, -1), (-1, 1))
CELL_ROWS = {
    ctx: tuple(
        _indicator(k for k, p in enumerate(ALL_PATTERNS) if (p[a], p[b]) == cell)
        for cell in CELLS
    )
    for ctx, (a, b) in CTX_POSITIONS.items()
}
# per connection: its sign in each pattern, and indicators of the patterns
# where its two variables differ / agree
PRODUCT_SIGN = {
    name: tuple(p[u] * p[v] for p in ALL_PATTERNS)
    for name, (u, v) in CONNECTION_POSITIONS.items()
}
DIFFER_ROWS = {
    name: _indicator(k for k, s in enumerate(signs) if s < 0)
    for name, signs in PRODUCT_SIGN.items()
}
EQUAL_ROWS = {
    name: _indicator(k for k, s in enumerate(signs) if s > 0)
    for name, signs in PRODUCT_SIGN.items()
}


def marginal_rows(s):
    rows = [(NORMALIZATION, Fraction(1))]
    for ctx in CONTEXTS:
        pd = s.pairs[ctx]
        rows.extend(zip(CELL_ROWS[ctx], (pd.prob(*cell) for cell in CELLS)))
    return rows


def connection_program(s, conn=None) -> LinearProgram:
    """Marginal rows plus one expectation row per connection target; a
    target of +1 (resp. -1) also pins the mass of differing (resp. equal)
    patterns to zero, rows implied by the others."""
    rows = marginal_rows(s)
    if conn is not None:
        for name, t in zip(CONNECTION_NAMES, conn.rational_components()):
            rows.append((PRODUCT_SIGN[name], t))
            if t == 1:
                rows.append((DIFFER_ROWS[name], Fraction(0)))
            elif t == -1:
                rows.append((EQUAL_ROWS[name], Fraction(0)))
    return LinearProgram(256, rows)


def identity_program(s) -> LinearProgram:
    """Zero mass on every pattern where a connected pair differs."""
    rows = marginal_rows(s)
    for name in CONNECTION_NAMES:
        rows.append((DIFFER_ROWS[name], Fraction(0)))
    return LinearProgram(256, rows)


def range_program(s, which) -> LinearProgram:
    return LinearProgram(256, marginal_rows(s), objective=PRODUCT_SIGN[which])


def _verdict(program) -> CouplingVerdict:
    out = solve_feasibility(program)
    if out.status is not LpStatus.FEASIBLE:
        return CouplingVerdict(False)
    return CouplingVerdict(
        True, Coupling({ALL_PATTERNS[k]: v for k, v in enumerate(out.witness) if v})
    )


def coupling_exists(s, conn=None) -> CouplingVerdict:
    return _verdict(connection_program(s, conn))


def identity_coupling_exists(s) -> CouplingVerdict:
    return _verdict(identity_program(s))


def connection_range(s, which) -> tuple[Fraction, Fraction]:
    program = range_program(s, which)
    lo = optimize(program, "min")
    hi = optimize(program, "max")
    return lo.optimum, hi.optimum
