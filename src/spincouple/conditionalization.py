"""Conditionalization couplings: contexts as values of a random variable C.

Each construction takes an arbitrary scenario and an arbitrary strictly
positive distribution over the four conditions, and produces a single joint
distribution whose conditionals given C recover the scenario exactly.  The
three kinds differ only in what they say about the variables the condition
does not observe:

* simple: only the relevant pair (A'_i, B'_j) is emitted per condition.
* even: all four of (A'_1, A'_2, B'_1, B'_2) are emitted; the irrelevant
  pair is drawn from a per-context partition weight table (default uniform
  1/4), independently of the relevant pair.
* zero: all four are emitted over {-1, 0, +1}; the irrelevant pair is the
  placeholder (0, 0).

Every construction succeeds for every scenario, including ones violating
no-signaling or every inequality family, which is the point: conditioning
on C places no constraint across contexts.

Tables hold exact Fractions.  Each cell is built as one Fraction from the
products of its factors' numerators and denominators, and the checks
(total mass, condition marginal, the conditionals in verify_conditionals)
sum the masses as integer numerators over the lcm of the table's
denominators.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Optional

from .distributions import CONTEXTS, Context, Scenario, as_rational, check_no_signaling
from .errors import DomainError, StructuralError
from .inequalities import Classification, classify

_PM = (1, -1)
_CELLS = tuple(product(_PM, _PM))

KIND_SIMPLE = "simple"
KIND_EVEN = "even"
KIND_ZERO = "zero"
KINDS = (KIND_SIMPLE, KIND_EVEN, KIND_ZERO)


@dataclass(frozen=True)
class ConditionDistribution:
    """Strictly positive probabilities for the four conditions, summing to 1.

    A zero-probability condition is rejected outright: its conditional
    distribution would be undefined, and the construction is meant to work
    by conditioning on every context.  A key outside the four contexts is
    refused rather than dropped.
    """

    pi: Mapping[Context, Fraction]

    def __post_init__(self) -> None:
        missing = [c for c in CONTEXTS if c not in self.pi]
        if missing:
            raise StructuralError(f"condition distribution missing contexts {missing}")
        extra = [c for c in self.pi if c not in CONTEXTS]
        if extra:
            raise StructuralError(f"condition distribution has unknown contexts {extra}")
        clean = {}
        for ctx in CONTEXTS:
            v = as_rational(self.pi[ctx])
            if v <= 0:
                raise DomainError(
                    f"condition probability for context {ctx} is {v}; every condition "
                    "must have strictly positive probability (conditioning on a "
                    "zero-probability condition is undefined)"
                )
            clean[ctx] = v
        if sum(clean.values()) != 1:
            raise DomainError("condition probabilities must sum to exactly 1")
        object.__setattr__(self, "pi", clean)


@dataclass(frozen=True)
class PartitionWeights:
    """Per-context weights t_ij(a, b) for the irrelevant pair: nonnegative,
    each context's four cells summing to 1.  Omitted cells weigh 0; a
    context or cell outside the four contexts or {+1, -1}^2 is refused."""

    t: Mapping[Context, Mapping[tuple[int, int], Fraction]]

    def __post_init__(self) -> None:
        extra = [c for c in self.t if c not in CONTEXTS]
        if extra:
            raise StructuralError(f"partition weights have unknown contexts {extra}")
        clean = {}
        for ctx in CONTEXTS:
            if ctx not in self.t:
                raise StructuralError(f"partition weights missing context {ctx}")
            if not isinstance(self.t[ctx], Mapping):
                raise StructuralError(
                    f"partition weights for context {ctx} hold "
                    f"{type(self.t[ctx]).__name__}, not a mapping of cells to weights"
                )
            bad = [cell for cell in self.t[ctx] if cell not in _CELLS]
            if bad:
                raise StructuralError(
                    f"partition weights for context {ctx} have unknown cells {bad}"
                )
            row = {}
            total = Fraction(0)
            for cell in _CELLS:
                v = as_rational(self.t[ctx].get(cell, 0))
                if v < 0:
                    raise DomainError(f"partition weight t{ctx}{cell} = {v} is negative")
                row[cell] = v
                total += v
            if total != 1:
                raise DomainError(
                    f"partition weights for context {ctx} sum to {total}, expected 1"
                )
            clean[ctx] = row
        object.__setattr__(self, "t", clean)

    @classmethod
    def uniform(cls) -> "PartitionWeights":
        q = Fraction(1, 4)
        return cls({ctx: {cell: q for cell in _CELLS} for ctx in CONTEXTS})


@dataclass(frozen=True)
class ConditionalCoupling:
    """Joint distribution of (C, outputs), stored sparsely by nonzero cell.

    Table keys are (context, output-pattern); the pattern is (a, b) for the
    simple kind and (a1, a2, b1, b2) for the even and zero kinds.
    """

    kind: str
    table: Mapping[tuple[Context, tuple[int, ...]], Fraction]

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise StructuralError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        clean = {}
        for (ctx, pattern), v in self.table.items():
            if ctx not in CONTEXTS:
                raise StructuralError(f"unknown context {ctx!r} in table")
            if type(v) is not Fraction:
                v = as_rational(v)
            if v.numerator < 0:
                raise DomainError(f"negative table mass {v} at {(ctx, pattern)}")
            if v.numerator:
                clean[(ctx, tuple(pattern))] = v
        scale, nums = _over_lcm(clean.values())
        if sum(nums) != scale:
            raise DomainError(f"table mass sums to {Fraction(sum(nums), scale)}, expected 1")
        object.__setattr__(self, "table", clean)

    def condition_marginal(self) -> dict[Context, Fraction]:
        scale, nums = _over_lcm(self.table.values())
        weight = dict.fromkeys(CONTEXTS, 0)
        for (ctx, _), m in zip(self.table, nums):
            weight[ctx] += m
        return {ctx: Fraction(w, scale) for ctx, w in weight.items()}

    def conditional_pair_distribution(self, ctx: Context) -> dict[tuple[int, int], Fraction]:
        """Distribution of the relevant pair (A'_i, B'_j) given C = ctx."""
        if ctx not in CONTEXTS:
            raise StructuralError(f"unknown context {ctx!r}")
        weight, sums = _pair_sums(
            self.kind, {key: v for key, v in self.table.items() if key[0] == ctx}
        )
        if not weight[ctx]:
            raise DomainError(f"condition {ctx} carries zero mass; conditional undefined")
        return {cell: Fraction(m, weight[ctx]) for (c, cell), m in sums.items() if c == ctx}


def _over_lcm(values) -> tuple[int, list[int]]:
    """The lcm L of the denominators of some Fractions, and each one's
    numerator over L."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*(d for _, d in ratios))
    return scale, [n * (scale // d) for n, d in ratios]


def _pair_sums(kind: str, table) -> tuple[dict, dict]:
    """Per-context weights and per-(context, relevant pair) sums of a table's
    masses, as integers over the lcm of the table's denominators.  The 16
    scenario cells come first; a relevant pair outside {+1, -1}^2 (a zero
    pattern in an even table) gets a key of its own."""
    _, nums = _over_lcm(table.values())
    weight = dict.fromkeys(CONTEXTS, 0)
    sums = dict.fromkeys(product(CONTEXTS, _CELLS), 0)
    for (ctx, pattern), m in zip(table, nums):
        weight[ctx] += m
        key = (ctx, _relevant_pair(kind, ctx, pattern))
        sums[key] = sums.get(key, 0) + m
    return weight, sums


def _relevant_pair(kind: str, ctx: Context, pattern: tuple[int, ...]) -> tuple[int, int]:
    if kind == KIND_SIMPLE:
        if len(pattern) != 2:
            raise StructuralError(f"simple pattern must have 2 outputs, got {pattern!r}")
        return (pattern[0], pattern[1])
    if len(pattern) != 4:
        raise StructuralError(f"{kind} pattern must have 4 outputs, got {pattern!r}")
    i, j = ctx
    return (pattern[i - 1], pattern[2 + (j - 1)])


def simple_conditional_coupling(s: Scenario, pi: ConditionDistribution) -> ConditionalCoupling:
    """Pr[C = (i,j), (A', B') = (a, b)] = pi_ij * Pr[A_ij = a, B_ij = b]."""
    table = {}
    for ctx in CONTEXTS:
        wn, wd = pi.pi[ctx].as_integer_ratio()
        for cell, p in zip(_CELLS, s.pairs[ctx].cells()):
            pn, pd = p.as_integer_ratio()
            if pn:
                table[(ctx, cell)] = Fraction(wn * pn, wd * pd)
    return ConditionalCoupling(KIND_SIMPLE, table)


def even_partition_coupling(
    s: Scenario, pi: ConditionDistribution, t: Optional[PartitionWeights] = None
) -> ConditionalCoupling:
    """Even-partition construction over patterns (a1, a2, b1, b2) in {+-1}^4.

    Under condition (i, j) the relevant coordinates (a_i, b_j) follow the
    scenario pair and the irrelevant coordinates (a_{3-i}, b_{3-j}) follow
    the partition weights t_ij (default uniform 1/4), independently:

        mass = pi_ij * t_ij(a_{3-i}, b_{3-j}) * Pr[A_ij = a_i, B_ij = b_j]
    """
    table = {}
    for ctx in CONTEXTS:
        i, j = ctx
        wn, wd = pi.pi[ctx].as_integer_ratio()
        rel = {cell: p.as_integer_ratio() for cell, p in zip(_CELLS, s.pairs[ctx].cells())}
        if t is None:
            irr = dict.fromkeys(_CELLS, (1, 4))
        else:
            irr = {cell: q.as_integer_ratio() for cell, q in t.t[ctx].items()}
        for pattern in product(_PM, _PM, _PM, _PM):
            pn, pd = rel[(pattern[i - 1], pattern[2 + (j - 1)])]
            qn, qd = irr[(pattern[2 - i], pattern[2 + (2 - j)])]
            if pn and qn:
                table[(ctx, pattern)] = Fraction(wn * qn * pn, wd * qd * pd)
    return ConditionalCoupling(KIND_EVEN, table)


def zero_padded_coupling(s: Scenario, pi: ConditionDistribution) -> ConditionalCoupling:
    """Zero-padded construction over {-1, 0, +1}^4: under condition (i, j)
    the relevant coordinates carry the scenario pair and the irrelevant
    coordinates are exactly (0, 0)."""
    table = {}
    for ctx in CONTEXTS:
        i, j = ctx
        wn, wd = pi.pi[ctx].as_integer_ratio()
        for (a, b), p in zip(_CELLS, s.pairs[ctx].cells()):
            pn, pd = p.as_integer_ratio()
            if not pn:
                continue
            pattern = [0, 0, 0, 0]
            pattern[i - 1] = a
            pattern[2 + (j - 1)] = b
            table[(ctx, tuple(pattern))] = Fraction(wn * pn, wd * pd)
    return ConditionalCoupling(KIND_ZERO, table)


def build_conditional(kind: str, s: Scenario, pi: ConditionDistribution) -> ConditionalCoupling:
    if kind == KIND_SIMPLE:
        return simple_conditional_coupling(s, pi)
    if kind == KIND_EVEN:
        return even_partition_coupling(s, pi)
    if kind == KIND_ZERO:
        return zero_padded_coupling(s, pi)
    raise DomainError(f"unknown construction kind {kind!r}; expected one of {KINDS}")


def verify_conditionals(cc: ConditionalCoupling, s: Scenario) -> bool:
    """Exact check: for every context, the conditional distribution of the
    relevant pair equals the scenario's pair distribution.

    One pass over cc.table sums its Fraction masses as integers over the
    table's lcm, per context and per (context, relevant pair); a context's
    conditional matches the scenario cell p when sum * p.denominator equals
    p.numerator * weight.  Only the table and the scenario are read, so the
    check does not rely on how the table was built.
    """
    weight, sums = _pair_sums(cc.kind, cc.table)
    for ctx in CONTEXTS:
        w = weight[ctx]
        if not w:
            return False
        for cell, p in zip(_CELLS, s.pairs[ctx].cells()):
            if sums[(ctx, cell)] * p.denominator != p.numerator * w:
                return False
    return True


@dataclass(frozen=True)
class UninformativenessEntry:
    scenario_index: int
    pi_index: int
    classification: Classification
    no_signaling: bool
    kind_ok: Mapping[str, bool]


@dataclass(frozen=True)
class UninformativenessReport:
    total_constructions: int
    successes: int
    entries: tuple[UninformativenessEntry, ...] = field(repr=False)

    @property
    def all_ok(self) -> bool:
        return self.successes == self.total_constructions


def uninformativeness_report(scenarios, pis) -> UninformativenessReport:
    """Build all three constructions for every (scenario, pi) combination
    and verify each one; the per-entry classification shows that success is
    blind to where the scenario sits in the inequality hierarchy."""
    scenarios = list(scenarios)
    pis = list(pis)
    if not scenarios or not pis:
        raise DomainError("uninformativeness_report requires nonempty scenario and pi lists")
    entries = []
    successes = 0
    total = 0
    for si, s in enumerate(scenarios):
        cls = classify(s.correlations())
        nosig = check_no_signaling(s).holds
        for pj, pi in enumerate(pis):
            kind_ok = {}
            for kind in KINDS:
                cc = build_conditional(kind, s, pi)
                ok = verify_conditionals(cc, s)
                kind_ok[kind] = ok
                total += 1
                successes += ok
            entries.append(UninformativenessEntry(si, pj, cls, nosig, kind_ok))
    return UninformativenessReport(total, successes, tuple(entries))


def two_condition_tree(p, q, pi_root) -> dict[tuple[int, int], Fraction]:
    """The two-branch toy model: a binary condition C with Pr[C=1] = pi_root
    selects which of two binary experiments runs (success probabilities p
    and q).  Returns the joint table over (condition, outcome in {+1, -1});
    the same construction as simple_conditional_coupling with two conditions
    and a single output."""
    p = as_rational(p)
    q = as_rational(q)
    pi_root = as_rational(pi_root)
    if not (0 <= p <= 1 and 0 <= q <= 1):
        raise DomainError("branch probabilities must lie in [0, 1]")
    if not (0 < pi_root < 1):
        raise DomainError(
            "the condition probability must be strictly inside (0, 1): both "
            "conditions need positive probability for their conditionals to exist"
        )
    return {
        (1, 1): p * pi_root,
        (1, -1): (1 - p) * pi_root,
        (2, 1): q * (1 - pi_root),
        (2, -1): (1 - q) * (1 - pi_root),
    }
