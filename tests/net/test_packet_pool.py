"""Packet pool: reuse, poisoning, double-release detection."""

import pytest

from repro.errors import PacketPoolError
from repro.experiments import common
from repro.net.packet import (
    Packet,
    configure_pool,
    pool_stats,
    pooled_packets,
)


@pytest.fixture(autouse=True)
def clean_pool():
    """Leave the process-wide pool disabled and empty around each test."""
    configure_pool(enabled=False, debug=False, max_size=8192)
    yield
    configure_pool(enabled=False, debug=False, max_size=8192)


class TestDisabledPool:
    def test_release_is_noop(self):
        p = Packet.acquire(src=1, dst=2, payload=1000)
        p.release()
        assert pool_stats()["free"] == 0
        q = Packet.acquire(src=1, dst=2, payload=1000)
        assert q is not p

    def test_acquire_matches_constructor(self):
        p = Packet.acquire(src=1, dst=2, payload=960, seq=7, flow_id=3)
        c = Packet(src=1, dst=2, payload=960, seq=7, flow_id=3)
        assert (p.src, p.dst, p.size, p.seq, p.flow_id) == \
               (c.src, c.dst, c.size, c.seq, c.flow_id)


class TestEnabledPool:
    def test_released_packet_is_reused(self):
        with pooled_packets():
            p = Packet.acquire(src=1, dst=2, payload=1000)
            p.release()
            q = Packet.acquire(src=3, dst=4, payload=40, seq=9)
            assert q is p  # same object, recycled
            assert (q.src, q.dst, q.payload, q.seq) == (3, 4, 40, 9)

    def test_fresh_uid_on_every_acquire(self):
        """uids stay unique across reuse, so link in-flight tracking and
        any uid-keyed bookkeeping never collide — determinism holds."""
        with pooled_packets():
            p = Packet.acquire(src=1, dst=2)
            old_uid = p.uid
            p.release()
            q = Packet.acquire(src=1, dst=2)
            assert q.uid != old_uid

    def test_reset_fields_on_reuse(self):
        with pooled_packets():
            p = Packet.acquire(src=1, dst=2, payload=1000)
            p.hops = 5
            p.meta = {"ts": 1.0}
            p.release()
            q = Packet.acquire(src=1, dst=2)
            assert q.hops == 0
            assert q.meta is None

    def test_max_size_bounds_free_list(self):
        with pooled_packets():
            configure_pool(max_size=2)
            packets = [Packet.acquire(src=1, dst=2) for _ in range(5)]
            for p in packets:
                p.release()
            stats = pool_stats()
            assert stats["free"] == 2
            assert stats["dropped"] >= 3

    def test_stats_count_reuse(self):
        with pooled_packets():
            before = pool_stats()
            p = Packet.acquire(src=1, dst=2)
            p.release()
            Packet.acquire(src=1, dst=2)
            after = pool_stats()
            assert after["acquired"] - before["acquired"] == 2
            assert after["reused"] - before["reused"] == 1
            assert after["released"] - before["released"] == 1


class TestDebugMode:
    def test_double_release_raises(self):
        with pooled_packets(debug=True):
            p = Packet.acquire(src=1, dst=2)
            p.release()
            with pytest.raises(PacketPoolError):
                p.release()

    def test_release_poisons_fields(self):
        """A use-after-release must fail loudly: negative size breaks
        serialization, sentinel addresses break routing."""
        with pooled_packets(debug=True):
            configure_pool(max_size=0)  # keep the poisoned object out
            p = Packet.acquire(src=1, dst=2, payload=1000, seq=3)
            p.release()
            assert p.size < 0
            assert p.src < 0 and p.dst < 0
            assert p.meta == {"poisoned": True}


class TestScope:
    def test_context_restores_prior_state(self):
        assert not pool_stats()["enabled"]
        with pooled_packets():
            assert pool_stats()["enabled"]
        assert not pool_stats()["enabled"]

    def test_context_clears_free_list_on_exit(self):
        with pooled_packets():
            Packet.acquire(src=1, dst=2).release()
            assert pool_stats()["free"] == 1
        assert pool_stats()["free"] == 0

    def test_disabling_empties_free_list(self):
        configure_pool(enabled=True)
        Packet.acquire(src=1, dst=2).release()
        assert pool_stats()["free"] == 1
        configure_pool(enabled=False)
        assert pool_stats()["free"] == 0

    def test_a_run_inside_the_scope_keeps_its_debug_mode(self, monkeypatch):
        """``run_world`` scopes pooling to the run but leaves ``debug``
        as the caller set it, so a poisoned-pool run poisons."""
        seen = []
        make = common._make_simulator

        def watched(*args, **kwargs):
            sim = make(*args, **kwargs)
            sim.call_at(0.5, lambda: seen.append(pool_stats()["debug"]))
            return sim

        monkeypatch.setattr(common, "_make_simulator", watched)
        with pooled_packets(debug=True):
            common.run_long_flow_experiment(
                n_flows=2, buffer_packets=10, pipe_packets=20.0,
                bottleneck_rate="10Mbps", warmup=0.5, duration=0.5)
        assert seen == [True]
