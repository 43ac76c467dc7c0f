"""FaultSchedule validation, target resolution, and event firing."""

import random

import pytest

from repro.errors import FaultError
from repro.faults import (
    CorruptionBurst,
    FaultSchedule,
    LinkDown,
    LinkFlap,
    LinkUp,
    LossBurst,
    RouterRestart,
    targets_for_dumbbell,
)
from repro.net import build_dumbbell
from repro.sim import Simulator


def small_dumbbell(sim):
    return build_dumbbell(sim, n_pairs=2, bottleneck_rate="10Mbps",
                          buffer_packets=20, rtts=["40ms"])


class TestValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(FaultError):
            FaultSchedule([LinkDown(at=-1.0)])

    def test_bad_flap_duration(self):
        with pytest.raises(FaultError):
            FaultSchedule([LinkFlap(at=1.0, duration=0.0)])

    @pytest.mark.parametrize("p", [0.0, 1.5])
    def test_bad_burst_probability(self, p):
        with pytest.raises(FaultError):
            FaultSchedule([LossBurst(at=1.0, probability=p)])

    def test_bad_restart_downtime(self):
        with pytest.raises(FaultError):
            FaultSchedule([RouterRestart(at=1.0, downtime=-0.5)])

    def test_non_event_rejected(self):
        with pytest.raises(FaultError):
            FaultSchedule(["not an event"])

class TestInstall:
    def test_unknown_target(self):
        sim = Simulator()
        net = small_dumbbell(sim)
        schedule = FaultSchedule([LinkDown(at=1.0, target="nonexistent")])
        with pytest.raises(FaultError, match="nonexistent"):
            schedule.install(sim, targets_for_dumbbell(net))

    def test_double_install_rejected(self):
        sim = Simulator()
        net = small_dumbbell(sim)
        schedule = FaultSchedule([LinkDown(at=1.0)])
        schedule.install(sim, targets_for_dumbbell(net))
        with pytest.raises(FaultError, match="already installed"):
            schedule.install(sim, targets_for_dumbbell(net))

    def test_burst_requires_rng(self):
        sim = Simulator()
        net = small_dumbbell(sim)
        schedule = FaultSchedule([LossBurst(at=1.0)])
        with pytest.raises(FaultError, match="rng"):
            schedule.install(sim, targets_for_dumbbell(net))

    def test_router_target_has_no_queue(self):
        sim = Simulator()
        net = small_dumbbell(sim)
        schedule = FaultSchedule([LossBurst(at=1.0, target="left")])
        with pytest.raises(FaultError, match="no queue"):
            schedule.install(sim, targets_for_dumbbell(net),
                             rng=random.Random(1))


class TestFiring:
    def test_down_up_sequence_logged(self):
        sim = Simulator()
        net = small_dumbbell(sim)
        schedule = FaultSchedule([LinkDown(at=1.0), LinkUp(at=2.0)])
        schedule.install(sim, targets_for_dumbbell(net))
        sim.run(until=0.5)
        assert net.bottleneck_link.is_up
        sim.run(until=1.5)
        assert not net.bottleneck_link.is_up
        sim.run(until=3.0)
        assert net.bottleneck_link.is_up
        assert [t for t, _ in schedule.log] == [1.0, 2.0]

    def test_flap_restores_link(self):
        sim = Simulator()
        net = small_dumbbell(sim)
        schedule = FaultSchedule([LinkFlap(at=1.0, duration=0.5)])
        schedule.install(sim, targets_for_dumbbell(net))
        sim.run(until=5.0)
        assert net.bottleneck_link.is_up
        assert net.bottleneck_link.down_time == pytest.approx(0.5)
        assert len(schedule.log) == 2

    def test_burst_installs_and_removes_injector(self):
        sim = Simulator()
        net = small_dumbbell(sim)
        schedule = FaultSchedule([CorruptionBurst(at=1.0, duration=1.0,
                                                  probability=0.5)])
        schedule.install(sim, targets_for_dumbbell(net),
                         rng=random.Random(7))
        queue = net.bottleneck_queue
        sim.run(until=1.5)
        assert len(queue._injectors) == 1
        sim.run(until=3.0)
        assert len(queue._injectors) == 0
        assert len(schedule.log) == 2

    def test_router_restart_flushes_and_flaps_all_ports(self):
        sim = Simulator()
        net = small_dumbbell(sim)
        # Park some packets in the bottleneck buffer behind a downed
        # link so the restart has something to flush.
        net.bottleneck_link.down()
        from repro.net.packet import Packet
        for _ in range(4):
            net.bottleneck.enqueue(Packet(src=1, dst=2, payload=960))
        net.bottleneck_link.up()
        net.bottleneck_link.down()  # hold them in place
        assert len(net.bottleneck_queue) >= 3

        schedule = FaultSchedule([RouterRestart(at=1.0, target="left",
                                                downtime=0.5)])
        schedule.install(sim, targets_for_dumbbell(net))
        sim.run(until=1.2)
        assert len(net.bottleneck_queue) == 0
        assert net.bottleneck_queue.flushed >= 3
        sim.run(until=2.0)
        # All of the left router's links recovered after the downtime.
        for iface in net.left.interfaces.values():
            assert iface.link.is_up
        assert "restarting" in schedule.log[0][1]
