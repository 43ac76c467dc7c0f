"""Repo-wide pytest configuration.

Adds the ``--slow`` opt-in: tests marked ``@pytest.mark.slow`` (bigger
property-test draws, long randomized sweeps) are skipped by default so
the tier-1 suite stays fast, and run with ``pytest --slow``.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--slow", action="store_true", default=False,
        help="also run tests marked 'slow' (extended randomized suites)")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running test, opt in with --slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--slow"):
        return
    skip_slow = pytest.mark.skip(reason="needs --slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def idle_calls(monkeypatch):
    """Interfaces whose ``_on_link_idle`` ran, in call order.

    Patches the class, so it sees every interface built afterwards: the
    bound method an interface registers is looked up at construction.
    """
    from repro.net import Interface

    calls = []
    real = Interface._on_link_idle

    def counting(iface):
        calls.append(iface)
        real(iface)

    monkeypatch.setattr(Interface, "_on_link_idle", counting)
    return calls
