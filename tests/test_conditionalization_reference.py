"""Conditionalization tables and verdicts against the Fraction oracle.

spincouple.conditionalization builds each cell as one Fraction of integer
products and checks tables on integer numerators over their lcm;
reference_conditionalization multiplies and adds Fractions cell by cell.
Tables, condition marginals, conditionals and verdicts must agree, and a
tampered table must meet the same outcome (verdict or error) from both.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from spincouple import (
    CONTEXTS,
    KINDS,
    ConditionDistribution,
    DomainError,
    PairDistribution,
    PartitionWeights,
    Scenario,
    StructuralError,
    build_conditional,
    even_partition_coupling,
    scenario_from_correlations,
    verify_conditionals,
)
import spincouple.conditionalization as fast
from spincouple.sampling import STRATA, sample_condition_distribution, sample_scenario_stratum

import reference_conditionalization as oracle

F = Fraction
MILLION = 10**6
SEED_UNINFORMATIVE = 1729
CELLS = tuple(product((1, -1), (1, -1)))


def _outcome(module, kind, table, s):
    """Everything a caller can observe of a table: its validation error, or
    its cells, marginal, per-context conditionals (or their errors) and
    verdict (or its error)."""
    try:
        cc = module.ConditionalCoupling(kind, table)
    except (DomainError, StructuralError) as exc:
        return ("invalid", type(exc).__name__, str(exc))
    conditionals = {}
    for ctx in CONTEXTS:
        try:
            conditionals[ctx] = cc.conditional_pair_distribution(ctx)
        except (DomainError, StructuralError) as exc:
            conditionals[ctx] = (type(exc).__name__, str(exc))
    try:
        verdict = module.verify_conditionals(cc, s)
    except (DomainError, StructuralError) as exc:
        verdict = (type(exc).__name__, str(exc))
    return (list(cc.table.items()), cc.condition_marginal(), conditionals, verdict)


def _assert_same_construction(cc, ref, s):
    assert cc.kind == ref.kind
    assert list(cc.table.items()) == list(ref.table.items())
    assert all(type(v) is Fraction for v in cc.table.values())
    assert verify_conditionals(cc, s) is oracle.verify_conditionals(ref, s) is True
    assert _outcome(fast, cc.kind, cc.table, s) == _outcome(oracle, ref.kind, ref.table, s)


def _million_pair(rng):
    cuts = sorted(rng.randint(0, MILLION) for _ in range(3))
    parts = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], MILLION - cuts[2])
    return PairDistribution(*(F(k, MILLION) for k in parts))


def _million_pi(rng):
    cuts = sorted(rng.sample(range(1, MILLION), 3))
    parts = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], MILLION - cuts[2])
    return ConditionDistribution({ctx: F(k, MILLION) for ctx, k in zip(CONTEXTS, parts)})


def _zero_cell_weights(rng):
    rows = {}
    for ctx in CONTEXTS:
        row = {cell: F(rng.randint(0, 5), 1) for cell in CELLS}
        row[rng.choice(CELLS)] = F(0)
        if not any(row.values()):
            row[CELLS[0]] = F(1)
        total = sum(row.values())
        rows[ctx] = {cell: v / total for cell, v in row.items() if v or rng.random() < 0.5}
    return PartitionWeights(rows)


def test_campaign_slots_build_the_oracle_tables():
    for k in range(60):
        s = sample_scenario_stratum(STRATA[k % len(STRATA)], SEED_UNINFORMATIVE, k)
        pi = sample_condition_distribution(SEED_UNINFORMATIVE ^ 0x5EED, k)
        for kind in KINDS:
            _assert_same_construction(
                build_conditional(kind, s, pi), oracle.build_conditional(kind, s, pi), s
            )


def test_partition_weights_with_zero_cells_build_the_oracle_tables():
    rng = random.Random(11)
    scenarios = [
        scenario_from_correlations((F(1), F(1), F(1), F(-1))),
        scenario_from_correlations((F(3, 10), F(-1, 5), F(1, 4), F(7, 100))),
        sample_scenario_stratum("nosig-violating", SEED_UNINFORMATIVE, 3),
    ]
    for s in scenarios:
        for _ in range(4):
            t = _zero_cell_weights(rng)
            pi = sample_condition_distribution(SEED_UNINFORMATIVE, rng.randrange(100))
            cc = even_partition_coupling(s, pi, t)
            ref = oracle.even_partition_coupling(s, pi, t)
            assert len(cc.table) < 64
            _assert_same_construction(cc, ref, s)


def test_million_denominators_build_the_oracle_tables():
    rng = random.Random(1_000_000)
    for _ in range(8):
        s = Scenario({ctx: _million_pair(rng) for ctx in CONTEXTS})
        pi = _million_pi(rng)
        for kind in KINDS:
            _assert_same_construction(
                build_conditional(kind, s, pi), oracle.build_conditional(kind, s, pi), s
            )


def _tampered_tables(table):
    """(label, table) variants of a valid table: the table itself, mass
    moved within one context, a context emptied, a pattern of the wrong
    length, a negative cell, and a total of 1 +- 1/10^6."""
    keys = list(table)
    yield "untouched", dict(table)
    for ctx in CONTEXTS:
        own = [key for key in keys if key[0] == ctx]
        src = own[0]
        delta = table[src] / 2
        for dst in own[1:4]:
            moved = dict(table)
            moved[src] -= delta
            moved[dst] += delta
            yield f"moved {src}->{dst}", moved
        emptied = {key: v for key, v in table.items() if key[0] != ctx}
        other = next(key for key in keys if key[0] != ctx)
        emptied[other] += sum(v for key, v in table.items() if key[0] == ctx)
        yield f"emptied {ctx}", emptied
    for key in (keys[0], keys[-1]):
        for pattern in (key[1][:-1], key[1] + (1,)):
            short = {(k if k != key else (key[0], pattern)): v for k, v in table.items()}
            yield f"pattern {pattern}", short
    negative = dict(table)
    negative[keys[0]] = -negative[keys[0]]
    negative[keys[1]] += 2 * table[keys[0]]
    yield "negative", negative
    for sign in (1, -1):
        off = dict(table)
        off[keys[-1]] += sign * F(1, MILLION)
        yield f"total {sign:+}/10^6", off


@pytest.mark.parametrize("kind", KINDS)
def test_tampered_tables_meet_the_oracle_outcome(kind):
    rng = random.Random(17)
    cases = [
        sample_scenario_stratum(STRATA[k % len(STRATA)], SEED_UNINFORMATIVE, k)
        for k in range(4)
    ] + [Scenario({ctx: _million_pair(rng) for ctx in CONTEXTS})]
    outcomes = set()
    for k, s in enumerate(cases):
        pi = _million_pi(rng) if k == 4 else sample_condition_distribution(5, k)
        table = oracle.build_conditional(kind, s, pi).table
        for label, tampered in _tampered_tables(table):
            got = _outcome(fast, kind, tampered, s)
            assert got == _outcome(oracle, kind, tampered, s), label
            outcomes.add(got[0] if got[0] == "invalid" else got[-1])
    # every kind of outcome occurs: verdicts both ways, both error types
    assert True in outcomes and False in outcomes and "invalid" in outcomes
    assert any(isinstance(o, tuple) and o[0] == "StructuralError" for o in outcomes)

