"""Shared fixtures."""

import pytest

import golden


@pytest.fixture(scope="session")
def quick_suite():
    """The golden quick-scale campaigns (``tests/golden.py``), run once.

    Maps campaign name (``run-all``, ``cache-hierarchy``,
    ``host-scaling``, ``fault-sweep``) to its ``CampaignResult``; the
    outcomes carry the live results the band tests assert on.
    """
    return golden.run_campaigns()


@pytest.fixture
def quick_outcome(quick_suite):
    """Look up one experiment's ``ExperimentOutcome`` in the quick suite."""

    def lookup(name):
        for campaign in quick_suite.values():
            if name in campaign.outcomes:
                found = campaign.outcomes[name]
                assert found.ok, found.error
                return found
        raise KeyError(f"{name!r} is not in the quick suite")

    return lookup
