"""Sample and campaign sizes are ints: the set-role tests and the campaigns
refuse a float or a bool size instead of failing inside the loop or echoing
it back as samples_checked."""

import pytest

from spincouple import (
    DomainError,
    fine_agreement_campaign,
    test_equivalent as role_equivalent,
    test_fitting as role_fitting,
    test_forcing as role_forcing,
    uninformativeness_campaign,
)

SIZED = {
    "fitting": lambda n: role_fitting((1, 1, 1, 1), "bell", 0, n),
    "forcing": lambda n: role_forcing((1, 1, 1, 1), "bell", 0, n),
    "equivalent": lambda n: role_equivalent((1, 1, 1, 1), "bell", 0, n),
    "fine": lambda n: fine_agreement_campaign(n, 1),
    "uninformative": lambda n: uninformativeness_campaign(n, 1),
}


@pytest.mark.parametrize("name", SIZED)
@pytest.mark.parametrize("size", (True, False, 5.0, 2.0, "5", None))
def test_sizes_must_be_ints(name, size):
    with pytest.raises(DomainError, match="must be an int"):
        SIZED[name](size)

