"""Repo-wide pytest configuration.

Adds the ``--slow`` opt-in: tests marked ``@pytest.mark.slow`` (bigger
property-test draws, long randomized sweeps) are skipped by default so
the tier-1 suite stays fast, and run with ``pytest --slow``.
"""

import json
import os
import subprocess
import sys

import pytest

import repro


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


@pytest.fixture
def fresh_python():
    """Run ``code`` in a new interpreter that writes no bytecode (a cold
    start compiles every module it imports) and return the sorted names
    of the ``repro`` modules loaded when it finished."""
    src = os.path.dirname(os.path.dirname(repro.__file__))

    def run(code):
        census = ("\nimport json, sys\nprint(json.dumps(sorted(name for name in"
                  " sys.modules if name.split('.')[0] == 'repro')))")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code + census], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    return run
