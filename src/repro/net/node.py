"""Nodes: hosts (traffic endpoints) and routers (store-and-forward).

Hosts own agents (TCP senders/receivers, UDP sources/sinks) demultiplexed
by destination port.  Routers forward by destination address through a
static routing table built by :class:`repro.net.topology.Network`.

A host can be configured with a *processing-jitter* function: a small
random delay applied to each locally-delivered packet.  The paper notes
that "small variations in RTT or processing time are sufficient to
prevent synchronization" — this knob is how experiments introduce (or,
by omission, withhold) that desynchronizing noise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.errors import ConfigurationError, RoutingError
from repro.net.interface import Interface
from repro.net.packet import MAX_HOPS, Packet

if TYPE_CHECKING:
    from repro.sim.engine import Simulator

__all__ = ["Node", "Host", "Router", "MAX_HOPS"]


class Node:
    """Base class: anything a link can deliver packets to.

    Attributes
    ----------
    node_id:
        Unique integer assigned by the :class:`~repro.net.topology.Network`.
    name:
        Human-readable label.
    """

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.node_id: int = -1
        self.interfaces: Dict[int, Interface] = {}  # neighbour node_id -> iface
        self._routes: Dict[int, Interface] = {}  # dst address -> iface

    def attach_interface(self, neighbour_id: int, iface: Interface) -> None:
        """Register the output interface reaching ``neighbour_id``."""
        self.interfaces[neighbour_id] = iface

    def add_route(self, dst_address: int, iface: Interface) -> None:
        """Install a static route: packets for ``dst_address`` leave via ``iface``."""
        self._routes[dst_address] = iface

    def route_for(self, dst_address: int) -> Interface:
        """Look up the output interface for ``dst_address``.

        A node with a single interface holds no precomputed table
        (:meth:`~repro.net.topology.Network.compute_routes` skips it):
        on a miss it resolves the destination through its one neighbour
        -- the neighbour is the destination or has a route to it -- and
        memoizes the answer in ``_routes``, so :meth:`forward` and the
        burst delivery body keep their single dict probe per hop.
        Raises :class:`RoutingError` for an unknown or unreachable
        address.
        """
        iface = self._routes.get(dst_address)
        if iface is None:
            if len(self.interfaces) == 1:
                (only,) = self.interfaces.values()
                neighbour = only.link.dst
                if neighbour is not None and (
                        getattr(neighbour, "address", None) == dst_address
                        or dst_address in neighbour._routes):
                    self._routes[dst_address] = only
                    return only
            raise RoutingError(
                f"node {self.name!r} has no route to address {dst_address}"
            )
        return iface

    def receive(self, packet: Packet) -> Optional[bool]:
        """Accept a delivered packet.  The return value is unspecified
        (routers alias this to :meth:`forward`, which reports drops);
        link delivery ignores it."""
        raise NotImplementedError

    def forward(self, packet: Packet) -> bool:
        """Send ``packet`` toward its destination; returns False on drop."""
        if packet.hops > MAX_HOPS:
            raise RoutingError(f"routing loop detected for {packet!r}")
        # Inlined route_for: one dict probe per hop; the miss path (a
        # single-interface node's first packet to a destination, or the
        # error) is delegated to route_for.
        iface = self._routes.get(packet.dst)
        if iface is None:
            iface = self.route_for(packet.dst)
        return iface.enqueue(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class Router(Node):
    """Store-and-forward router: every received packet is looked up and
    queued on the proper output interface.  Per-port buffering lives in
    the interfaces, so the "router buffer" of the paper is the queue on
    this router's bottleneck-facing interface."""

    # receive *is* forward for a router — aliasing skips one call frame
    # on every store-and-forward hop (the busiest code path there is).
    receive = Node.forward


class Host(Node):
    """Traffic endpoint.

    Agents register with :meth:`bind`; arriving packets are demultiplexed
    by destination port.  Outbound packets go through :meth:`inject`,
    which stamps creation time and routes them.

    Parameters
    ----------
    proc_jitter:
        Optional zero-argument callable returning a per-packet local
        processing delay in seconds, applied before an arriving packet
        reaches its agent.  ``None`` means zero delay.
    """

    def __init__(self, sim: "Simulator", name: str = "",
                 proc_jitter: Optional[Callable[[], float]] = None) -> None:
        super().__init__(sim, name)
        self.address: int = -1
        self.proc_jitter = proc_jitter
        self._agents: Dict[int, "AgentLike"] = {}
        self.packets_received = 0
        self.packets_sent = 0
        #: Arrivals discarded by the transport checksum (fault injection).
        self.packets_corrupted = 0

    def bind(self, port: int, agent: "AgentLike") -> None:
        """Attach ``agent`` to ``port``; arriving packets with that dport
        are handed to ``agent.deliver``."""
        if port in self._agents:
            raise ConfigurationError(f"host {self.name!r}: port {port} already bound")
        self._agents[port] = agent

    def unbind(self, port: int) -> None:
        """Detach whatever agent is bound to ``port`` (idempotent)."""
        self._agents.pop(port, None)

    def inject(self, packet: Packet) -> bool:
        """Send a locally-generated packet into the network."""
        self.packets_sent += 1
        if packet.dst == self.address:
            # Loopback: deliver without touching any link.  Counted as
            # received so network-wide conservation stays exact.
            self.packets_received += 1
            self._dispatch(packet)
            return True
        # forward() minus the MAX_HOPS check a fresh packet cannot fail.
        iface = self._routes.get(packet.dst)
        if iface is None:
            iface = self.route_for(packet.dst)
        return iface.enqueue(packet)

    def receive(self, packet: Packet) -> None:
        if packet.dst != self.address:
            # Hosts do not forward; a misdelivered packet is a topology bug.
            raise RoutingError(
                f"host {self.name!r} (addr {self.address}) received packet "
                f"for address {packet.dst}"
            )
        meta = packet.meta
        if meta is not None and meta.get("corrupted"):
            # Transport checksum failure: the bits arrived but the
            # payload is garbage, so the packet dies here (TCP recovers
            # it by retransmission, exactly as with a queue drop).
            self.packets_corrupted += 1
            packet.release()
            return
        self.packets_received += 1
        if self.proc_jitter is not None:
            delay = self.proc_jitter()
            if delay > 0:
                self.sim.schedule(delay, self._dispatch, packet)
                return
        # Inlined _dispatch (the no-jitter fast path runs once per
        # delivered packet).
        agent = self._agents.get(packet.dport)
        if agent is not None:
            agent.deliver(packet)
        packet.release()

    def _dispatch(self, packet: Packet) -> None:
        agent = self._agents.get(packet.dport)
        if agent is not None:
            agent.deliver(packet)
        # Unbound port: silently discard, mirroring a host dropping
        # traffic for a closed socket.  Either way the packet is dead
        # once delivery returns — agents copy what they need — so it
        # goes back to the free list.
        packet.release()


class AgentLike:
    """Protocol for objects bindable to a host port (documentation only)."""

    def deliver(self, packet: Packet) -> None:  # pragma: no cover - interface
        raise NotImplementedError
