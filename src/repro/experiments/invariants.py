"""Structural invariants over a running network.

Three families of checks, all raising
:class:`~repro.errors.InvariantViolation` on failure:

* **Per-queue conservation** — every arrival is a departure, a drop, or
  still queued; occupancy is never negative (delegates to
  :meth:`repro.net.queues.Queue.check_invariants`).
* **Per-link sanity** — busy-time within physical bounds, no phantom
  in-flight packets on a downed link.
* **Network-wide packet conservation** — everything hosts injected is
  delivered, dropped (queue, link fault, or checksum), queued, or on a
  wire.  This is the check that turns a lost-counter bug anywhere in the
  data path into a loud failure instead of a subtly-wrong utilization
  number.

The virtual-clock monotonicity invariant lives in the engine itself
(:meth:`repro.sim.engine.Simulator.run`), where it can be enforced per
event at no measurable cost.

:class:`InvariantMonitor` re-runs :func:`verify_network` on a fixed
period so corruption is caught near its cause rather than at the end of
a long run.  :func:`repro.experiments.common.run_world` installs both
on every packet-level run.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.errors import InvariantViolation
from repro.net.interface import Interface
from repro.net.link import Link
from repro.net.node import Host
from repro.net.queues import Queue
from repro.net.topology import Network

__all__ = [
    "check_queue",
    "check_link",
    "check_network_conservation",
    "verify_network",
    "InvariantMonitor",
]


def _as_network(network) -> Network:
    """Accept either a bare Network or a wrapper exposing ``.network``
    (e.g. :class:`~repro.net.topology.DumbbellNetwork`)."""
    inner = getattr(network, "network", None)
    return inner if isinstance(inner, Network) else network


def _interfaces(network) -> Iterator[Tuple[str, Interface]]:
    for node in _as_network(network).nodes:
        for iface in node.interfaces.values():
            yield iface.name or f"{node.name}:{id(iface)}", iface


def check_queue(queue: Queue, label: str = "") -> None:
    """Per-queue conservation and occupancy checks."""
    try:
        queue.check_invariants()
    except InvariantViolation as exc:
        raise InvariantViolation(f"queue {label!r}: {exc}") from None


def check_link(link: Link, now: float, label: str = "") -> None:
    """Physical-sanity checks on one link's accounting."""
    if link.busy_time < 0:
        raise InvariantViolation(
            f"link {label!r}: negative busy time {link.busy_time}")
    if link.busy_time > now + 1e-9:
        raise InvariantViolation(
            f"link {label!r}: busy {link.busy_time:.6f}s exceeds "
            f"elapsed virtual time {now:.6f}s")
    if not link.is_up and link.in_flight:
        raise InvariantViolation(
            f"link {label!r}: {link.in_flight} packets in flight on a "
            f"downed link")
    if link.in_flight < 0 or link.packets_dropped < 0:
        raise InvariantViolation(f"link {label!r}: negative packet counter")


def check_network_conservation(network: Network) -> None:
    """Global identity: injected == delivered + dropped + in-flight.

    "Dropped" covers queue drops (congestion, injected loss, restart
    flushes), link-fault losses, and checksum discards of corrupted
    packets; "in-flight" covers queue residents and packets on wires.
    """
    injected = delivered = corrupted = 0
    for node in _as_network(network).nodes:
        if isinstance(node, Host):
            injected += node.packets_sent
            delivered += node.packets_received
            corrupted += node.packets_corrupted
    queue_drops = queued = link_drops = on_wire = 0
    for _label, iface in _interfaces(network):
        queue_drops += iface.queue.drops
        queued += len(iface.queue)
        link_drops += iface.link.packets_dropped
        on_wire += iface.link.in_flight
    accounted = delivered + corrupted + queue_drops + link_drops + queued + on_wire
    if injected != accounted:
        raise InvariantViolation(
            f"packet conservation broken: injected={injected} != "
            f"delivered={delivered} + corrupted={corrupted} + "
            f"queue_drops={queue_drops} + link_drops={link_drops} + "
            f"queued={queued} + on_wire={on_wire} (= {accounted}, "
            f"difference {injected - accounted:+d})"
        )


def verify_network(network: Network) -> None:
    """Run every structural check over ``network``; raise on the first
    failure with a message naming the offending component."""
    now = network.sim.now
    for label, iface in _interfaces(network):
        check_queue(iface.queue, label)
        check_link(iface.link, now, label)
    check_network_conservation(network)


class InvariantMonitor:
    """Periodic always-on invariant verification.

    Parameters
    ----------
    sim:
        The simulator.
    network:
        The network to audit.
    t_stop:
        Optional time after which auditing stops rescheduling itself.
    """

    #: Seconds of virtual time between audits.  Checks are O(nodes), so
    #: even aggressive periods cost a negligible fraction of a packet
    #: -level run.
    PERIOD = 1.0

    def __init__(self, sim, network: Network, t_stop: Optional[float] = None):
        self.sim = sim
        self.network = network
        self.t_stop = t_stop
        self.checks_run = 0
        sim.schedule(self.PERIOD, self._tick)

    def _tick(self) -> None:
        verify_network(self.network)
        self.checks_run += 1
        if self.t_stop is None or self.sim.now + self.PERIOD <= self.t_stop:
            self.sim.schedule(self.PERIOD, self._tick)
