import pytest

from spincouple import (
    DomainError,
    STRATA,
    bell_ch_fine,
    fine_agreement_campaign,
    identity_coupling_exists,
    sample_uniform_marginal_scenario,
    uninformativeness_campaign,
)


def test_fine_campaign_agrees_and_is_reproducible():
    r1 = fine_agreement_campaign(40, seed=77)
    r2 = fine_agreement_campaign(40, seed=77)
    assert r1 == r2
    assert r1.all_agree
    assert r1.agreements == r1.n == 40
    assert r1.mismatch_indices == ()


def test_fine_campaign_spot_check_matches_direct_computation():
    # recompute slot 17 by hand: the campaign must see the same scenario
    s = sample_uniform_marginal_scenario(77, 17)
    assert identity_coupling_exists(s).feasible == bell_ch_fine(s.correlations()).satisfied


def test_uninformativeness_campaign_cycles_strata():
    r = uninformativeness_campaign(12, seed=5)
    assert r.all_ok
    assert r.pairs == 12
    assert r.constructions == 36
    assert set(r.per_stratum) == set(STRATA)
    for successes, total in r.per_stratum.values():
        assert successes == total == 9  # 12 pairs over 4 strata, 3 kinds each


def test_uninformativeness_campaign_partial_cycle():
    r = uninformativeness_campaign(5, seed=5)
    totals = {k: t for k, (_s, t) in r.per_stratum.items()}
    assert totals[STRATA[0]] == 6  # slots 0 and 4
    assert totals[STRATA[1]] == totals[STRATA[2]] == totals[STRATA[3]] == 3


@pytest.mark.parametrize("campaign", [fine_agreement_campaign, uninformativeness_campaign])
def test_campaigns_refuse_a_negative_size(campaign):
    with pytest.raises(DomainError, match=">= 0, got -3"):
        campaign(-3, seed=0)
    campaign(0, seed=0)  # an empty campaign is allowed
