"""Reference presolve: the dense per-entry pass spincouple.lp used before
its rows were reduced to sign masks.

Kept verbatim as the oracle that spincouple.lp._presolve is compared
against (tests/test_presolve_reference.py).  It reads every coefficient of
every row on every pass and compares it with zero, so it shares no code
with the bit-set version, only the contract: the same rows visited in the
same order, the same columns pinned, the same ('infeasible', None) or
('reduced', (keep, rows, rhs)) result.
"""

from fractions import Fraction

_ZERO = Fraction(0)


def presolve(lp):
    """Fix variables that zero-rhs single-signed rows force to zero.

    Returns ('infeasible', None) when a row is contradictory on its face,
    else ('reduced', (keep, rows, rhs)) where keep maps reduced columns back
    to original indices and rows/rhs hold the reduced system (zero rows
    dropped).
    """
    n = lp.num_vars
    forced = bytearray(n)
    src_rows = [row for row, _ in lp.equalities]
    src_rhs = [b for _, b in lp.equalities]
    changed = True
    while changed:
        changed = False
        for row, b in zip(src_rows, src_rhs):
            any_pos = False
            any_neg = False
            for j in range(n):
                if forced[j]:
                    continue
                v = row[j]
                if v > _ZERO:
                    any_pos = True
                elif v < _ZERO:
                    any_neg = True
                if any_pos and any_neg:
                    break
            if any_pos and any_neg:
                continue
            if not any_pos and not any_neg:
                if b != _ZERO:
                    return "infeasible", None
                continue
            if b == _ZERO:
                # single-signed row summing to zero: every participating
                # variable is pinned to 0 by nonnegativity
                for j in range(n):
                    if not forced[j] and row[j] != _ZERO:
                        forced[j] = 1
                        changed = True
            elif (b > _ZERO and not any_pos) or (b < _ZERO and not any_neg):
                return "infeasible", None
    keep = [j for j in range(n) if not forced[j]]
    rows = []
    rhs = []
    for row, b in zip(src_rows, src_rhs):
        red = [row[j] for j in keep]
        if any(red):
            rows.append(red)
            rhs.append(b)
        elif b != _ZERO:
            return "infeasible", None
    return "reduced", (keep, rows, rhs)
