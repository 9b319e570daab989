"""The three conditionalization constructions and their check on Fractions,
as the exact oracle.

spincouple.conditionalization builds each cell as one Fraction from the
products of numerators and denominators, validates and verifies tables by
summing integer numerators over the lcm of their denominators.  The code
here multiplies and adds Fractions cell by cell and walks the table once
per context, so the same scenario, condition distribution and partition
weights must give the same table and the same verdict from either.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping, Optional

from spincouple import (
    CONTEXTS,
    ConditionDistribution,
    DomainError,
    KINDS,
    PartitionWeights,
    Scenario,
    StructuralError,
)
from spincouple.lp import as_rational

_PM = (1, -1)
_CELLS = tuple(product(_PM, _PM))


@dataclass(frozen=True)
class ConditionalCoupling:
    """spincouple.ConditionalCoupling with its validation on Fractions."""

    kind: str
    table: Mapping[tuple, Fraction]

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise StructuralError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        clean = {}
        total = Fraction(0)
        for (ctx, pattern), v in self.table.items():
            if ctx not in CONTEXTS:
                raise StructuralError(f"unknown context {ctx!r} in table")
            v = as_rational(v)
            if v < 0:
                raise DomainError(f"negative table mass {v} at {(ctx, pattern)}")
            if v:
                clean[(ctx, tuple(pattern))] = v
                total += v
        if total != 1:
            raise DomainError(f"table mass sums to {total}, expected 1")
        object.__setattr__(self, "table", clean)

    def condition_marginal(self) -> dict:
        out = {ctx: Fraction(0) for ctx in CONTEXTS}
        for (ctx, _), v in self.table.items():
            out[ctx] += v
        return out

    def conditional_pair_distribution(self, ctx) -> dict:
        weight = Fraction(0)
        cells = {cell: Fraction(0) for cell in _CELLS}
        for (c, pattern), v in self.table.items():
            if c != ctx:
                continue
            weight += v
            cells[_relevant_pair(self.kind, ctx, pattern)] += v
        if not weight:
            raise DomainError(f"condition {ctx} carries zero mass; conditional undefined")
        return {cell: v / weight for cell, v in cells.items()}


def _relevant_pair(kind: str, ctx, pattern) -> tuple[int, int]:
    if kind == "simple":
        if len(pattern) != 2:
            raise StructuralError(f"simple pattern must have 2 outputs, got {pattern!r}")
        return (pattern[0], pattern[1])
    if len(pattern) != 4:
        raise StructuralError(f"{kind} pattern must have 4 outputs, got {pattern!r}")
    i, j = ctx
    return (pattern[i - 1], pattern[2 + (j - 1)])


def simple_conditional_coupling(s: Scenario, pi: ConditionDistribution) -> ConditionalCoupling:
    table = {}
    for ctx in CONTEXTS:
        pd = s.pairs[ctx]
        for a, b in _CELLS:
            m = pi.pi[ctx] * pd.prob(a, b)
            if m:
                table[(ctx, (a, b))] = m
    return ConditionalCoupling("simple", table)


def even_partition_coupling(
    s: Scenario, pi: ConditionDistribution, t: Optional[PartitionWeights] = None
) -> ConditionalCoupling:
    if t is None:
        t = PartitionWeights.uniform()
    table = {}
    for ctx in CONTEXTS:
        i, j = ctx
        pd = s.pairs[ctx]
        for pattern in product(_PM, _PM, _PM, _PM):
            a_rel = pattern[i - 1]
            b_rel = pattern[2 + (j - 1)]
            a_irr = pattern[2 - i]
            b_irr = pattern[2 + (2 - j)]
            m = pi.pi[ctx] * t.t[ctx][(a_irr, b_irr)] * pd.prob(a_rel, b_rel)
            if m:
                table[(ctx, pattern)] = m
    return ConditionalCoupling("even", table)


def zero_padded_coupling(s: Scenario, pi: ConditionDistribution) -> ConditionalCoupling:
    table = {}
    for ctx in CONTEXTS:
        i, j = ctx
        pd = s.pairs[ctx]
        for a, b in _CELLS:
            m = pi.pi[ctx] * pd.prob(a, b)
            if not m:
                continue
            pattern = [0, 0, 0, 0]
            pattern[i - 1] = a
            pattern[2 + (j - 1)] = b
            table[(ctx, tuple(pattern))] = m
    return ConditionalCoupling("zero", table)


def build_conditional(kind: str, s: Scenario, pi: ConditionDistribution) -> ConditionalCoupling:
    if kind == "simple":
        return simple_conditional_coupling(s, pi)
    if kind == "even":
        return even_partition_coupling(s, pi)
    if kind == "zero":
        return zero_padded_coupling(s, pi)
    raise DomainError(f"unknown construction kind {kind!r}; expected one of {KINDS}")


def verify_conditionals(cc: ConditionalCoupling, s: Scenario) -> bool:
    marginal = cc.condition_marginal()
    for ctx in CONTEXTS:
        if not marginal[ctx]:
            return False
        cond = cc.conditional_pair_distribution(ctx)
        pd = s.pairs[ctx]
        if any(cond[cell] != pd.prob(*cell) for cell in _CELLS):
            return False
    return True
