import gc

import pytest

import support


@pytest.fixture(autouse=True)
def collector_state_restored():
    """Fail a test that leaves the cyclic garbage collector disabled or
    objects frozen out of its collections; the state is restored first, so
    the fault does not spread to later tests."""
    yield
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    gc.enable()
    gc.unfreeze()
    assert (enabled, frozen) == (True, 0), \
        "the test left the garbage collector disabled or objects frozen"


@pytest.fixture(scope="session")
def suite500():
    """500 seeded random distributions, N in 2..5, cardinalities in {2, 3}."""
    return support.random_suite(500)


@pytest.fixture(scope="session")
def suite50(suite500):
    return suite500[:50]
