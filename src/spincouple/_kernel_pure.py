"""Pure-Python two-phase simplex pivot kernel, fraction-free.

This is the one kernel spincouple.lp calls.  Its pivot sequence is
Bland's rule (lowest-index entering column, lowest-index basic variable on
ratio ties), which guarantees termination without cycling.  The oracle
tests/reference_kernel.py runs the same rule on fractions.Fraction, and the
tests require identical outcomes from both, witnesses included.

The tableau holds only the original columns plus the right-hand side.
Phase 1 starts from one artificial basic variable per row, but artificial
columns are never read: entering candidates are restricted to original
columns (sound, because any solution of the original system is feasible
for the restricted phase-1 problem), ratio tests touch the entering and
rhs columns only, and artificial membership is tracked through the basis
indices alone (index >= n means artificial).

Arithmetic is integer-preserving (Bareiss) elimination on plain ints.
Inputs are ints and fractions.Fraction, mixed freely (anything exposing
integer numerator and denominator).  Row i is multiplied by s_i > 0, the
lcm of its coefficient denominators, and the right-hand-side column then
by one L > 0, the lcm of its denominators (the kernel solves for L * x);
each artificial is rescaled to match.  The starting tableau M is thus an
integer matrix [A' | b'] with an identity basis, and D = 1.  Invariant:
M = D * B^-1 [A' | b'] for the current basis B of that scaled system, with
D = |det B| > 0, so every entry of M is an integer (D * B^-1 is +-adj(B)).
A row whose basic variable is an original column reads as the rational
tableau row with coefficients M / D and value M[i][rhs] / (D * L); a row
with an artificial basic is that row scaled by s_i.  A pivot on (r, e)
with p = M[r][e] sets M[i][j] <- (p * M[i][j] - M[i][e] * M[r][j]) / D on
every row i != r, zero M[i][e] included, then D <- p; row r is negated
first when p < 0, which keeps D positive.  The reduced-cost row d obeys
the same update and reads as d / (D * K) on coefficients, where K > 0
clears the denominators of its costs (in phase 1, row i's artificial
costs K / s_i).

Why the pivots match the reference kernel: every decision depends only on
signs and ratios that positive row scales and the positive D and K
preserve.  The entering column is the first j with d[j] < 0; the ratio
test compares M[i][rhs] / M[i][e] by cross-multiplication, ties going to
the lowest basis index; phase 1 ends infeasible iff d[rhs] != 0; drive-out
pivots on the first nonzero original entry of an artificial row and drops
the row when there is none (removing a row whose basic column is a unit
vector leaves D = |det B| unchanged).

Every division by D must be exact.  The floor quotients of a row are
checked at once: their remainders are all nonnegative, so they vanish
exactly when D * sum(quotients) equals the sum of the numerators.  A
nonzero remainder means the invariant broke and raises ArithmeticError.
No validation of inputs happens here; spincouple.lp owns input checking.
"""

from fractions import Fraction
from math import lcm

FEASIBLE = 0
INFEASIBLE = 1
UNBOUNDED = 2


def _integer_row(values):
    """The values scaled by the lcm of their denominators: (ints, scale)."""
    s = lcm(*[v.denominator for v in values])
    return [v.numerator * (s // v.denominator) for v in values], s


def _eliminate(Mi, Mr, p, f, D, sum_r):
    """(p * Mi - f * Mr) / D entrywise, raising unless every division is exact."""
    if f:
        out = [(p * a - f * b) // D for a, b in zip(Mi, Mr)]
        exact = p * sum(Mi) - f * sum_r
    else:
        out = [p * a // D for a in Mi]
        exact = p * sum(Mi)
    if D * sum(out) != exact:
        raise ArithmeticError("fraction-free pivot left a nonzero remainder")
    return out


def solve(rows, rhs, objective, maximize):
    """Minimize/maximize objective . x subject to rows . x = rhs, x >= 0.

    rows: list of equal-length coefficient lists; rhs: matching list;
    objective: coefficient list or None for a pure feasibility run.
    Returns (status, witness, optimum); witness is a list of Fractions in
    the original variable order, optimum is in the caller's optimization
    sense.
    """
    m = len(rows)
    if m:
        n = len(rows[0])
    else:
        n = len(objective) if objective is not None else 0

    M = []
    scales = []
    for i in range(m):
        row, s = _integer_row(rows[i])
        M.append(row)
        scales.append(s)
    bcol, L = _integer_row([b * s for b, s in zip(rhs, scales)])
    for i in range(m):
        b = bcol[i]
        if b < 0:
            M[i] = [-v for v in M[i]]
            b = -b
        M[i].append(b)
    basis = list(range(n, n + m))  # index >= n marks a phase-1 artificial
    D = 1

    # Phase-1 reduced costs for minimizing the sum of artificials, times
    # K = lcm(s_i); d carries the negated objective value in its rhs slot.
    K = lcm(*scales)
    d = [0] * (n + 1)
    for Mi, s in zip(M, scales):
        w = K // s
        d = [x - w * y for x, y in zip(d, Mi)]

    def pivot(r, e):
        nonlocal D, d
        Mr = M[r]
        p = Mr[e]
        if p < 0:
            Mr = M[r] = [-v for v in Mr]
            p = -p
        sum_r = sum(Mr)
        for i in range(len(M)):
            if i != r:
                Mi = M[i]
                M[i] = _eliminate(Mi, Mr, p, Mi[e], D, sum_r)
        d = _eliminate(d, Mr, p, d[e], D, sum_r)
        D = p
        basis[r] = e

    def run():
        # Bland's rule.  Basic columns have exactly zero reduced cost, so
        # they are never selected as entering.
        while True:
            enter = -1
            for j in range(n):
                if d[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return True
            leave = -1
            for i in range(len(M)):
                Mi = M[i]
                a = Mi[enter]
                if a > 0:
                    b = Mi[n]
                    if leave < 0:
                        leave, best_b, best_a = i, b, a
                        continue
                    here, there = b * best_a, best_b * a  # b/a vs best_b/best_a
                    if here < there or (here == there and basis[i] < basis[leave]):
                        leave, best_b, best_a = i, b, a
            if leave < 0:
                return False
            pivot(leave, enter)

    run()  # phase 1 cannot be unbounded: its objective is bounded below by 0
    if d[n]:
        return INFEASIBLE, None, None

    # Pivot leftover artificials out of the basis; a row with no nonzero
    # original coefficient is redundant and gets dropped.  Any nonzero
    # original column in such a row is nonbasic (basic columns are unit
    # vectors with their 1 in another row), so it is a legal pivot.
    r = 0
    while r < len(M):
        if basis[r] >= n:
            Mr = M[r]
            col = -1
            for j in range(n):
                if Mr[j]:
                    col = j
                    break
            if col >= 0:
                pivot(r, col)
                r += 1
            else:
                M.pop(r)
                basis.pop(r)
        else:
            r += 1

    if objective is not None:
        # Phase 2 over the same tableau (the basis is now artificial-free).
        c = [-v for v in objective] if maximize else list(objective)
        cint, _ = _integer_row(c)
        d = [D * v for v in cint] + [0]
        for i in range(len(M)):
            cb = cint[basis[i]]
            if cb:
                d = [x - cb * y for x, y in zip(d, M[i])]
        if not run():
            return UNBOUNDED, None, None

    x = [Fraction(0)] * n
    for i in range(len(M)):
        x[basis[i]] = Fraction(M[i][n], D * L)
    if objective is None:
        return FEASIBLE, x, None
    opt = Fraction(0)
    for j in range(n):
        if x[j]:
            opt += objective[j] * x[j]
    return FEASIBLE, x, opt
