"""Reference pivot kernel: the Bland two-phase simplex on exact rationals.

This is the rational-arithmetic loop spincouple._kernel_pure ran before it
became fraction-free, kept here as the oracle the fraction-free kernel is
compared against (tests/test_kernel_reference.py).  It normalizes the pivot
row and eliminates over fractions.Fraction (or any type supporting +, -, *,
/, comparison and truthiness), so it shares no arithmetic with the kernel
under test, only the contract: the same Bland pivot order, the same
drive-out and row dropping, the same (status, witness, optimum) result.

The tableau holds only the original columns plus the right-hand side.
Phase 1 starts from one artificial basic variable per row, but artificial
columns are never read: entering candidates are restricted to original
columns, ratio tests touch the entering and rhs columns only, and
artificial membership is tracked through the basis indices alone (index
>= n means artificial).
"""

from fractions import Fraction

FEASIBLE = 0
INFEASIBLE = 1
UNBOUNDED = 2


def solve(rows, rhs, objective, maximize, zero, one):
    """Minimize/maximize objective . x subject to rows . x = rhs, x >= 0.

    rows: list of equal-length coefficient lists; rhs: matching list;
    objective: coefficient list or None for a pure feasibility run.
    Returns (status, witness, optimum); witness is a list in the original
    variable order, optimum is in the caller's optimization sense.
    """
    m = len(rows)
    if m:
        n = len(rows[0])
    else:
        n = len(objective) if objective is not None else 0
    width = n + 1  # original columns | rhs

    T = []
    for i in range(m):
        b = rhs[i]
        if b < zero:
            row = [-v for v in rows[i]]
            b = -b
        else:
            row = list(rows[i])
        row.append(b)
        T.append(row)
    basis = list(range(n, n + m))  # index >= n marks a phase-1 artificial

    # Phase-1 reduced costs for minimizing the sum of artificials; d carries
    # the negated objective value in its rhs slot, updated like a tableau row.
    d = [zero] * width
    for i in range(m):
        Ti = T[i]
        for j in range(width):
            v = Ti[j]
            if v:
                d[j] -= v

    def pivot(r, e):
        Tr = T[r]
        p = Tr[e]
        if p != one:
            inv = one / p
            for j in range(width):
                v = Tr[j]
                if v:
                    Tr[j] = v * inv
        for i in range(len(T)):
            if i == r:
                continue
            Ti = T[i]
            f = Ti[e]
            if f:
                for j in range(width):
                    v = Tr[j]
                    if v:
                        Ti[j] -= f * v
        f = d[e]
        if f:
            for j in range(width):
                v = Tr[j]
                if v:
                    d[j] -= f * v
        basis[r] = e

    def run():
        # Bland's rule.  Basic columns have exactly zero reduced cost under
        # exact arithmetic, so they are never selected as entering.
        while True:
            enter = -1
            for j in range(n):
                if d[j] < zero:
                    enter = j
                    break
            if enter < 0:
                return True
            leave = -1
            best = None
            for i in range(len(T)):
                Ti = T[i]
                a = Ti[enter]
                if a > zero:
                    t = Ti[width - 1] / a
                    if leave < 0 or t < best or (t == best and basis[i] < basis[leave]):
                        best = t
                        leave = i
            if leave < 0:
                return False
            pivot(leave, enter)

    run()  # phase 1 cannot be unbounded: its objective is bounded below by 0
    if d[width - 1] != zero:
        return INFEASIBLE, None, None

    # Pivot leftover artificials out of the basis; a row with no nonzero
    # original coefficient is redundant and gets dropped.  Any nonzero
    # original column in such a row is nonbasic (basic columns are unit
    # vectors with their 1 in another row), so it is a legal pivot.
    r = 0
    while r < len(T):
        if basis[r] >= n:
            Tr = T[r]
            col = -1
            for j in range(n):
                if Tr[j]:
                    col = j
                    break
            if col >= 0:
                pivot(r, col)
                r += 1
            else:
                T.pop(r)
                basis.pop(r)
        else:
            r += 1
    m = len(T)

    if objective is None:
        x = [zero] * n
        for i in range(m):
            x[basis[i]] = T[i][width - 1]
        return FEASIBLE, x, None

    # Phase 2 over the same tableau (the basis is now artificial-free).
    c = [-v for v in objective] if maximize else list(objective)
    for j in range(width):
        d[j] = zero
    for j in range(n):
        d[j] = c[j]
    for i in range(m):
        cb = c[basis[i]]
        if cb:
            Ti = T[i]
            for j in range(width):
                v = Ti[j]
                if v:
                    d[j] -= cb * v
    if not run():
        return UNBOUNDED, None, None
    x = [zero] * n
    for i in range(m):
        x[basis[i]] = T[i][width - 1]
    opt = zero
    for j in range(n):
        if x[j]:
            opt += objective[j] * x[j]
    return FEASIBLE, x, opt


def random_case(rng):
    """A small random program (rows, rhs, objective, maximize) for kernel tests.

    m = 0 occurs, rhs entries may be negative, and all three statuses come
    up in bulk.
    """
    F = Fraction
    m = rng.randint(0, 6)
    n = rng.randint(1, 9)
    rows = [
        [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)] for _ in range(m)
    ]
    rhs = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m)]
    objective = None
    if rng.random() < 0.6:
        objective = [F(rng.randint(-3, 3)) for _ in range(n)]
    return rows, rhs, objective, rng.random() < 0.5
