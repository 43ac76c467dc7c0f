"""Tests for the congestion-control state machines."""

import pytest

from repro.errors import ConfigurationError
from repro.tcp import NewRenoCC, RenoCC, TahoeCC, make_cc
from repro.tcp.cc_zoo import BbrLikeCC, CompoundCC, HighSpeedCC, ScalableCC
from repro.tcp.congestion import INITIAL_SSTHRESH, available_ccs
from tests.test_package import TINY_RENO_CELL

ZOO = ("compound", "scalable", "hstcp", "bbr")


class TestSlowStartAndAvoidance:
    def test_slow_start_doubles_per_window(self):
        cc = RenoCC(initial_cwnd=2.0)
        cc.on_ack(2)  # both packets of the initial window acked
        assert cc.cwnd == 4.0
        cc.on_ack(4)
        assert cc.cwnd == 8.0

    def test_in_slow_start_predicate(self):
        cc = RenoCC(initial_cwnd=2.0)
        cc.ssthresh = 8.0
        assert cc.in_slow_start
        cc.on_ack(10)
        assert not cc.in_slow_start

    def test_congestion_avoidance_grows_one_per_window(self):
        cc = RenoCC(initial_cwnd=10.0)
        cc.ssthresh = 5.0
        cc.on_ack(10)  # one full window of ACKs
        # cwnd += 1/cwnd per ack, approximately +1 per window.
        assert cc.cwnd == pytest.approx(11.0, abs=0.1)

    def test_transition_at_ssthresh(self):
        cc = RenoCC(initial_cwnd=2.0)
        cc.ssthresh = 4.0
        cc.on_ack(2)  # slow start to 4
        assert cc.cwnd == 4.0
        cc.on_ack(4)  # now in congestion avoidance
        assert cc.cwnd == pytest.approx(5.0, abs=0.2)

    def test_initial_cwnd_validated(self):
        with pytest.raises(ConfigurationError):
            RenoCC(initial_cwnd=0.5)


class TestRenoRecovery:
    def test_enter_recovery_halves_and_inflates(self):
        cc = RenoCC(initial_cwnd=2.0)
        cc.cwnd = 20.0
        cc.enter_recovery(flight_size=20)
        assert cc.ssthresh == 10.0
        assert cc.cwnd == 13.0  # ssthresh + 3 dup ACKs

    def test_dup_ack_inflation(self):
        cc = RenoCC()
        cc.cwnd = 20.0
        cc.enter_recovery(20)
        cc.on_dup_ack_in_recovery()
        assert cc.cwnd == 14.0

    def test_exit_recovery_deflates_to_ssthresh(self):
        cc = RenoCC()
        cc.cwnd = 20.0
        cc.enter_recovery(20)
        cc.exit_recovery()
        assert cc.cwnd == 10.0

    def test_ssthresh_floor(self):
        cc = RenoCC()
        cc.cwnd = 2.0
        cc.enter_recovery(flight_size=2)
        assert cc.ssthresh == 2.0

    def test_recovery_counter(self):
        cc = RenoCC()
        cc.enter_recovery(10)
        cc.exit_recovery()
        cc.enter_recovery(10)
        assert cc.fast_recoveries == 2

    def test_reno_exits_on_first_new_ack(self):
        assert RenoCC.recovery_until_recover is False


class TestTimeout:
    def test_timeout_collapses_to_one(self):
        cc = RenoCC()
        cc.cwnd = 30.0
        cc.on_timeout(flight_size=30)
        assert cc.cwnd == 1.0
        assert cc.ssthresh == 15.0
        assert cc.timeouts == 1

    def test_slow_start_resumes_after_timeout(self):
        cc = RenoCC()
        cc.cwnd = 30.0
        cc.on_timeout(30)
        assert cc.in_slow_start


class TestTahoe:
    def test_no_fast_recovery(self):
        assert TahoeCC.has_fast_recovery is False

    def test_tahoe_loss_collapses(self):
        cc = TahoeCC()
        cc.cwnd = 16.0
        cc.on_tahoe_loss(flight_size=16)
        assert cc.cwnd == 1.0
        assert cc.ssthresh == 8.0


class TestNewReno:
    def test_stays_in_recovery(self):
        assert NewRenoCC.recovery_until_recover is True

    def test_partial_ack_deflation(self):
        cc = NewRenoCC()
        cc.cwnd = 20.0
        cc.enter_recovery(20)
        before = cc.cwnd
        cc.on_partial_ack(newly_acked=5)
        assert cc.cwnd == before - 5 + 1

    def test_partial_ack_floor(self):
        cc = NewRenoCC()
        cc.cwnd = 2.0
        cc.on_partial_ack(newly_acked=10)
        assert cc.cwnd == 1.0


class TestFactory:
    """A congestion control is built from its name alone."""

    @pytest.mark.parametrize("name, cls", [
        ("tahoe", TahoeCC), ("reno", RenoCC), ("newreno", NewRenoCC),
        ("compound", CompoundCC), ("scalable", ScalableCC),
        ("hstcp", HighSpeedCC), ("bbr", BbrLikeCC),
    ], ids=("tahoe", "reno", "newreno") + ZOO)
    def test_make_by_name(self, name, cls):
        assert type(make_cc(name)) is cls

    @pytest.mark.parametrize("name", ("tahoe", "reno", "newreno") + ZOO)
    def test_bad_initial_window_rejected(self, name):
        with pytest.raises(ConfigurationError, match="initial_cwnd"):
            make_cc(name, initial_cwnd=0.5)

    def test_names_are_case_insensitive(self):
        assert type(make_cc("RENO")) is type(make_cc("reno"))
        assert type(make_cc("Bbr")) is type(make_cc("bbr"))

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigurationError, match="unknown congestion"):
            make_cc("cubic")
        with pytest.raises(ConfigurationError, match="reno"):
            make_cc("cubic")

    def test_every_name_is_available(self):
        assert available_ccs() == sorted(("tahoe", "reno", "newreno") + ZOO)

    def test_initial_window_forwarded(self):
        cc = make_cc("reno", initial_cwnd=4.0)
        assert cc.cwnd == 4.0
        assert cc.ssthresh == INITIAL_SSTHRESH


class TestZooLoadsOnAMiss:
    """The three built-ins never load the zoo; a name they lack does.
    Each case runs in a fresh interpreter, where the zoo starts unloaded."""

    def test_a_reno_run_leaves_the_zoo_unloaded(self, fresh_python):
        assert "repro.tcp.cc_zoo" not in fresh_python(TINY_RENO_CELL)

    def test_a_zoo_name_still_builds(self, fresh_python):
        loaded = fresh_python(
            "from repro.tcp.congestion import make_cc\n"
            "assert type(make_cc('bbr')).__name__ == 'BbrLikeCC'")
        assert "repro.tcp.cc_zoo" in loaded

    @pytest.mark.parametrize("code", [
        "assert len(available_ccs()) == 7",
        "try:\n    make_cc('cubic')\nexcept ConfigurationError as exc:\n"
        "    assert all(name in str(exc) for name in"
        " ('tahoe', 'reno', 'newreno', 'compound', 'scalable', 'hstcp', 'bbr'))\n"
        "else:\n    raise AssertionError('cubic built')",
    ], ids=["available_ccs", "unknown-name-error"])
    def test_every_name_is_listed_before_the_zoo_loads(self, fresh_python,
                                                       code):
        loaded = fresh_python(
            "from repro.errors import ConfigurationError\n"
            "from repro.tcp.congestion import available_ccs, make_cc\n"
            + code)
        assert "repro.tcp.cc_zoo" not in loaded
