from fractions import Fraction
from itertools import product

import pytest

from spincouple import (
    CONTEXTS,
    ConditionDistribution,
    ConditionalCoupling,
    DomainError,
    KINDS,
    PairDistribution,
    PartitionWeights,
    Scenario,
    StructuralError,
    even_partition_coupling,
    zero_padded_coupling,
    build_conditional,
    check_no_signaling,
    simple_conditional_coupling,
    two_condition_tree,
    uninformativeness_report,
    verify_conditionals,
)

F = Fraction

PM_CELLS = tuple(product((1, -1), (1, -1)))


def uniform_pi():
    return ConditionDistribution({ctx: F(1, 4) for ctx in CONTEXTS})


def skewed_pi():
    vals = {(1, 1): F(1, 2), (1, 2): F(1, 4), (2, 1): F(1, 8), (2, 2): F(1, 8)}
    return ConditionDistribution(vals)


def signaling_scenario():
    # Alice's marginal depends on Bob's setting: a_plus is 1/2 under j=1
    # but 3/4 under j=2, so no-signaling fails
    uniform = PairDistribution(F(1, 4), F(1, 4), F(1, 4), F(1, 4))
    skew = PairDistribution(F(3, 8), F(3, 8), F(1, 8), F(1, 8))
    return Scenario({(1, 1): uniform, (1, 2): skew, (2, 1): uniform, (2, 2): skew})


# ----------------------------------------------------------- the three kinds


@pytest.mark.parametrize("kind", KINDS)
def test_all_kinds_verify_on_any_scenario(kind, fair_scenario, pr_box_scenario, mixed_scenario):
    bad = signaling_scenario()
    assert not check_no_signaling(bad).holds
    for s in (fair_scenario, pr_box_scenario, mixed_scenario, bad):
        for pi in (uniform_pi(), skewed_pi()):
            cc = build_conditional(kind, s, pi)
            assert cc.kind == kind
            assert verify_conditionals(cc, s)
            assert cc.condition_marginal() == pi.pi


def test_build_rejects_unknown_kind(fair_scenario):
    with pytest.raises(DomainError):
        build_conditional("median", fair_scenario, uniform_pi())


def test_even_kind_factorizes_relevant_and_irrelevant(mixed_scenario):
    # under each condition the unobserved pair is drawn from the partition
    # weights independently of the observed pair
    t = PartitionWeights(
        {
            ctx: {(1, 1): F(1, 2), (1, -1): F(1, 6), (-1, 1): F(1, 6), (-1, -1): F(1, 6)}
            for ctx in CONTEXTS
        }
    )
    pi = skewed_pi()
    cc = even_partition_coupling(mixed_scenario, pi, t)
    assert verify_conditionals(cc, mixed_scenario)
    for ctx in CONTEXTS:
        i, j = ctx
        pd = mixed_scenario.pairs[ctx]
        for pattern in product((1, -1), repeat=4):
            a_rel, b_rel = pattern[i - 1], pattern[2 + (j - 1)]
            a_irr, b_irr = pattern[2 - i], pattern[2 + (2 - j)]
            expected = pi.pi[ctx] * pd.prob(a_rel, b_rel) * t.t[ctx][(a_irr, b_irr)]
            assert cc.table.get((ctx, pattern), F(0)) == expected


def test_zero_kind_pads_with_zeros(mixed_scenario):
    cc = zero_padded_coupling(mixed_scenario, uniform_pi())
    assert verify_conditionals(cc, mixed_scenario)
    for (ctx, pattern), mass in cc.table.items():
        i, j = ctx
        assert mass > 0
        relevant = {i - 1, 2 + (j - 1)}
        for pos, value in enumerate(pattern):
            if pos in relevant:
                assert value in (1, -1)
            else:
                assert value == 0


def test_simple_kind_is_the_scaled_scenario(mixed_scenario):
    pi = skewed_pi()
    cc = simple_conditional_coupling(mixed_scenario, pi)
    for ctx in CONTEXTS:
        pd = mixed_scenario.pairs[ctx]
        for cell in PM_CELLS:
            assert cc.table.get((ctx, cell), F(0)) == pi.pi[ctx] * pd.prob(*cell)


def test_perturbed_table_fails_verification(fair_scenario):
    cc = simple_conditional_coupling(fair_scenario, uniform_pi())
    table = dict(cc.table)
    src, dst = ((1, 1), (1, 1)), ((1, 1), (1, -1))
    table[src] -= F(1, 32)
    table[dst] += F(1, 32)
    tampered = ConditionalCoupling("simple", table)
    assert not verify_conditionals(tampered, fair_scenario)


def test_missing_condition_is_detected(fair_scenario):
    # all mass on three conditions: still a valid joint table, but the
    # conditional given the fourth is undefined
    table = {}
    for ctx in CONTEXTS[:3]:
        for cell in PM_CELLS:
            table[(ctx, cell)] = F(1, 12)
    cc = ConditionalCoupling("simple", table)
    assert cc.condition_marginal()[CONTEXTS[3]] == 0
    assert not verify_conditionals(cc, fair_scenario)
    with pytest.raises(DomainError):
        cc.conditional_pair_distribution(CONTEXTS[3])


def test_relevant_values_outside_plus_minus_one_fail_verification(fair_scenario):
    # a zero-padded table with the patterns of conditions (1,1) and (2,2)
    # swapped, declared as an even table: under those two conditions the
    # relevant pair is (0, 0), which no scenario cell carries
    swap = {(1, 1): (2, 2), (2, 2): (1, 1), (1, 2): (1, 2), (2, 1): (2, 1)}
    zero = zero_padded_coupling(fair_scenario, uniform_pi())
    cc = ConditionalCoupling(
        "even", {(swap[ctx], pattern): v for (ctx, pattern), v in zero.table.items()}
    )
    assert not verify_conditionals(cc, fair_scenario)
    cond = cc.conditional_pair_distribution((1, 1))
    assert cond == {**{cell: 0 for cell in PM_CELLS}, (0, 0): 1}
    assert verify_conditionals(zero, fair_scenario)


# ------------------------------------------------------------- input checks


def test_condition_distribution_validation():
    with pytest.raises(DomainError):
        ConditionDistribution({ctx: F(1, 4) if ctx != (2, 2) else F(0) for ctx in CONTEXTS})
    with pytest.raises(DomainError):
        ConditionDistribution({ctx: F(1, 3) for ctx in CONTEXTS})
    with pytest.raises(StructuralError):
        ConditionDistribution({(1, 1): F(1)})
    with pytest.raises(StructuralError):  # refused, not dropped
        ConditionDistribution({**{ctx: F(1, 4) for ctx in CONTEXTS}, (3, 3): F(5)})
    pi = ConditionDistribution({ctx: "1/4" for ctx in CONTEXTS})
    assert pi.pi[(1, 1)] == F(1, 4)


def test_partition_weights_validation():
    three = {ctx: {cell: F(1, 4) for cell in PM_CELLS} for ctx in CONTEXTS[:3]}
    with pytest.raises(StructuralError):
        PartitionWeights(three)
    bad_sum = {ctx: {cell: F(1, 5) for cell in PM_CELLS} for ctx in CONTEXTS}
    with pytest.raises(DomainError):
        PartitionWeights(bad_sum)
    negative = {
        ctx: {(1, 1): F(3, 2), (1, -1): F(-1, 2), (-1, 1): F(0), (-1, -1): F(0)}
        for ctx in CONTEXTS
    }
    with pytest.raises(DomainError):
        PartitionWeights(negative)
    # unknown contexts and cells are refused, not dropped
    uniform = {ctx: {cell: F(1, 4) for cell in PM_CELLS} for ctx in CONTEXTS}
    with pytest.raises(StructuralError):
        PartitionWeights({**uniform, (3, 3): uniform[(1, 1)]})
    with pytest.raises(StructuralError):
        PartitionWeights({**uniform, (1, 1): {**uniform[(1, 1)], (7, 7): F(1, 2)}})
    # omitted cells default to zero
    half = {ctx: {(1, 1): F(1, 2), (-1, -1): F(1, 2)} for ctx in CONTEXTS}
    t = PartitionWeights(half)
    assert t.t[(1, 1)][(1, -1)] == 0


def test_conditional_coupling_validation():
    with pytest.raises(StructuralError):
        ConditionalCoupling("typical", {((1, 1), (1, 1)): F(1)})
    with pytest.raises(DomainError):
        ConditionalCoupling("simple", {((1, 1), (1, 1)): F(1, 2)})
    with pytest.raises(DomainError):
        ConditionalCoupling(
            "simple", {((1, 1), (1, 1)): F(3, 2), ((1, 1), (1, -1)): F(-1, 2)}
        )
    cc = ConditionalCoupling(
        "simple", {((1, 1), (1, 1)): F(1), ((2, 2), (1, -1)): F(0)}
    )
    assert len(cc.table) == 1  # zero entries dropped
    with pytest.raises(StructuralError):
        cc.conditional_pair_distribution((3, 3))
    # ints and rational strings are coerced to Fractions; floats and bools refused
    cc = ConditionalCoupling("simple", {((1, 1), (1, 1)): "1/2", ((2, 2), (1, -1)): 1 - F(1, 2)})
    assert cc.table == {((1, 1), (1, 1)): F(1, 2), ((2, 2), (1, -1)): F(1, 2)}
    assert type(ConditionalCoupling("simple", {((1, 1), (1, 1)): 1}).table[((1, 1), (1, 1))]) is F
    for bad in (1.0, True):
        with pytest.raises(DomainError):
            ConditionalCoupling("simple", {((1, 1), (1, 1)): bad})
    with pytest.raises(StructuralError):
        ConditionalCoupling("simple", {((3, 1), (1, 1)): F(1)})


# ------------------------------------------------------------------- report


def test_uninformativeness_report_covers_hierarchy(fair_scenario, pr_box_scenario):
    scenarios = [fair_scenario, pr_box_scenario, signaling_scenario()]
    pis = [uniform_pi(), skewed_pi()]
    report = uninformativeness_report(scenarios, pis)
    assert report.total_constructions == len(scenarios) * len(pis) * 3
    assert report.successes == report.total_constructions
    assert report.all_ok
    by_scenario = {}
    for e in report.entries:
        by_scenario.setdefault(e.scenario_index, e)
        assert set(e.kind_ok) == set(KINDS)
        assert all(e.kind_ok.values())
    assert by_scenario[0].classification.bell
    assert not by_scenario[1].classification.tsirelson  # super-quantum box
    assert not by_scenario[2].no_signaling
    with pytest.raises(DomainError):
        uninformativeness_report([], pis)
    with pytest.raises(DomainError):
        uninformativeness_report(scenarios, [])


# ----------------------------------------------------------------- toy tree


def test_two_condition_tree_golden_table():
    table = two_condition_tree(F(3, 10), F(3, 10), F(1, 2))
    assert table == {
        (1, 1): F(3, 20),
        (1, -1): F(7, 20),
        (2, 1): F(3, 20),
        (2, -1): F(7, 20),
    }
    assert sum(table.values()) == 1


def test_two_condition_tree_recovers_branch_probabilities():
    p, q, root = F(2, 7), F(5, 6), F(1, 3)
    table = two_condition_tree(p, q, root)
    c1 = table[(1, 1)] + table[(1, -1)]
    c2 = table[(2, 1)] + table[(2, -1)]
    assert (c1, c2) == (root, 1 - root)
    assert table[(1, 1)] / c1 == p
    assert table[(2, 1)] / c2 == q


def test_two_condition_tree_validation():
    with pytest.raises(DomainError):
        two_condition_tree(F(3, 2), F(1, 2), F(1, 2))
    with pytest.raises(DomainError):
        two_condition_tree(F(1, 2), F(1, 2), F(0))
    with pytest.raises(DomainError):
        two_condition_tree(F(1, 2), F(1, 2), F(1))
