"""Topology construction: the network container and standard shapes.

:class:`Network` is the registry tying nodes, links, and static routes
together.  :func:`build_dumbbell` produces the paper's Figure-1 topology
generalized to ``n`` sender/receiver pairs: per-flow access links into a
left router, one bottleneck link (the buffer under study) to a right
router, and per-flow access links out to receivers.  ACKs return along
the mirrored path.

Per-flow round-trip propagation times are set by adjusting each sender's
access-link delay, which is how experiments spread RTTs (the paper's
simulations vary flow RTTs between 25 ms and 300 ms).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple, Union)

from repro.errors import ConfigurationError, RoutingError
from repro.net.interface import Interface
from repro.net.link import Link
from repro.net.node import Host, Node, Router
from repro.net.queues import DropTailQueue, Queue
from repro.units import parse_bandwidth, parse_time, Quantity

if TYPE_CHECKING:
    from repro.sim.engine import Simulator

__all__ = ["Network", "DumbbellNetwork", "build_dumbbell", "build_parking_lot"]

#: Per-host processing-jitter callable (see :class:`repro.net.node.Host`).
JitterFn = Callable[[], float]

#: Queue capacity used for links that must never drop (access links etc.).
_AMPLE_QUEUE_PACKETS = 1_000_000

QueueSpec = Union[None, int, Queue, Callable[[], Queue]]


class Network:
    """Registry of nodes and links with static shortest-path routing.

    Route tables live only on nodes with two or more interfaces; a
    single-interface node resolves destinations through its neighbour on
    first use (see :meth:`compute_routes`), so routing state is linear in
    the number of hosts rather than quadratic.

    Typical use::

        net = Network(sim)
        a = net.add_host("a")
        r = net.add_router("r")
        b = net.add_host("b")
        net.connect(a, r, rate="10Mbps", delay="1ms")
        net.connect(r, b, rate="10Mbps", delay="1ms")
        net.compute_routes()
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.nodes: List[Node] = []
        self.hosts: List[Host] = []
        self._address_counter = itertools.count(1)
        self._adjacency: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_host(self, name: str = "",
                 proc_jitter: Optional[JitterFn] = None) -> Host:
        """Create and register a :class:`Host` with a fresh address."""
        host = Host(self.sim, name=name, proc_jitter=proc_jitter)
        host.address = next(self._address_counter)
        self._register(host)
        self.hosts.append(host)
        return host

    def add_router(self, name: str = "") -> Router:
        """Create and register a :class:`Router`."""
        router = Router(self.sim, name=name)
        self._register(router)
        return router

    def _register(self, node: Node) -> None:
        node.node_id = len(self.nodes)
        self.nodes.append(node)
        self._adjacency[node.node_id] = []

    def connect(
        self,
        a: Node,
        b: Node,
        rate: Quantity,
        delay: Quantity,
        queue_ab: QueueSpec = None,
        name: str = "",
    ) -> Tuple[Interface, Interface]:
        """Create a full-duplex connection between ``a`` and ``b``.

        Two independent unidirectional links are created, each with its
        own queue.  ``queue_ab`` may be ``None`` (an effectively-infinite
        drop-tail queue), an ``int`` (drop-tail capacity in packets), a
        :class:`Queue` instance, or a zero-argument factory; the ``b``
        to ``a`` queue is always the effectively-infinite one.

        Returns the pair ``(iface_a_to_b, iface_b_to_a)``.
        """
        label = name or f"{a.name or a.node_id}<->{b.name or b.node_id}"
        iface_ab = self._make_interface(a, b, rate, delay, queue_ab, f"{label}:fwd")
        iface_ba = self._make_interface(b, a, rate, delay, None, f"{label}:rev")
        self._adjacency[a.node_id].append(b.node_id)
        self._adjacency[b.node_id].append(a.node_id)
        return iface_ab, iface_ba

    def _make_interface(
        self, src: Node, dst: Node, rate: Quantity, delay: Quantity,
        queue_spec: QueueSpec, name: str,
    ) -> Interface:
        queue = self._resolve_queue(queue_spec)
        link = Link(self.sim, rate=rate, delay=delay, dst=dst, name=name)
        iface = Interface(self.sim, queue=queue, link=link, name=name)
        src.attach_interface(dst.node_id, iface)
        return iface

    def _resolve_queue(self, spec: QueueSpec) -> Queue:
        if spec is None:
            return DropTailQueue(self.sim, capacity_packets=_AMPLE_QUEUE_PACKETS)
        if isinstance(spec, int):
            return DropTailQueue(self.sim, capacity_packets=spec)
        if isinstance(spec, Queue):
            return spec
        if callable(spec):
            queue = spec()
            if not isinstance(queue, Queue):
                raise ConfigurationError("queue factory must return a Queue")
            return queue
        raise ConfigurationError(f"cannot interpret queue spec {spec!r}")

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def compute_routes(self) -> None:
        """Install static minimum-hop routes wherever a node has a choice.

        Runs one BFS over the undirected adjacency from each node with
        two or more interfaces (routers, multi-homed hosts) and installs
        there the first-hop interface toward every host.  A
        single-interface node gets no table: :meth:`Node.route_for`
        resolves a destination through its one neighbour on first use.
        Every node's table is cleared, so calling this again after
        further :meth:`connect` calls leaves no stale hop.
        """
        host_by_id = {host.node_id: host for host in self.hosts}
        for origin in self.nodes:
            origin._routes.clear()
            if len(origin.interfaces) < 2:
                continue
            next_hop = self._bfs_next_hops(origin.node_id)
            for node_id, hop in next_hop.items():
                host = host_by_id.get(node_id)
                if host is None or node_id == origin.node_id:
                    continue
                iface = origin.interfaces.get(hop)
                if iface is None:
                    raise RoutingError(
                        f"node {origin.name!r} lacks an interface to node {hop}"
                    )
                origin.add_route(host.address, iface)

    def _bfs_next_hops(self, root: int) -> Dict[int, int]:
        """Map each reachable node id to the first hop out of ``root``."""
        next_hop: Dict[int, int] = {}
        visited = {root}
        queue = deque((neigh, neigh) for neigh in self._adjacency[root])
        visited.update(self._adjacency[root])
        while queue:
            node, hop = queue.popleft()
            next_hop[node] = hop
            for neigh in self._adjacency[node]:
                if neigh not in visited:
                    visited.add(neigh)
                    queue.append((neigh, hop))
        return next_hop


class DumbbellNetwork:
    """The built dumbbell: nodes plus handles to the measured objects.

    Attributes
    ----------
    network:
        The underlying :class:`Network`.
    senders, receivers:
        Host lists, index-aligned (flow ``i`` runs senders[i] ->
        receivers[i]).
    left, right:
        The two routers.
    bottleneck:
        The left->right :class:`~repro.net.interface.Interface`; its
        queue is the router buffer under study.
    reverse:
        The right->left interface carrying ACKs.
    rtts:
        Two-way propagation delay per flow (seconds), as requested.
    """

    def __init__(self, network: Network, senders: List[Host],
                 receivers: List[Host], left: Router, right: Router,
                 bottleneck: Interface, reverse: Interface,
                 rtts: List[float]) -> None:
        self.network = network
        self.senders = senders
        self.receivers = receivers
        self.left = left
        self.right = right
        self.bottleneck = bottleneck
        self.reverse = reverse
        self.rtts = rtts

    @property
    def sim(self) -> "Simulator":
        return self.network.sim

    @property
    def bottleneck_queue(self) -> Queue:
        """The router buffer under study."""
        return self.bottleneck.queue

    @property
    def bottleneck_link(self) -> Link:
        return self.bottleneck.link

    def flow_pairs(self) -> List[Tuple[Host, Host]]:
        """(sender, receiver) pairs, one per flow slot."""
        return list(zip(self.senders, self.receivers))

    def view(self, start: Optional[int] = None,
             stop: Optional[int] = None) -> "DumbbellNetwork":
        """This dumbbell restricted to host pairs ``[start:stop]``."""
        pairs = slice(start, stop)
        return DumbbellNetwork(
            self.network, self.senders[pairs], self.receivers[pairs],
            self.left, self.right, self.bottleneck, self.reverse,
            self.rtts[pairs])


def build_dumbbell(
    sim: "Simulator",
    n_pairs: int,
    bottleneck_rate: Quantity,
    buffer_packets: Optional[int],
    rtts: Sequence[Quantity],
    access_rate: Optional[Quantity] = None,
    bottleneck_delay: Quantity = "1ms",
    receiver_delay: Quantity = "0.1ms",
    bottleneck_queue: QueueSpec = None,
    proc_jitter: Optional[JitterFn] = None,
) -> DumbbellNetwork:
    """Build the paper's dumbbell with ``n_pairs`` sender/receiver pairs.

    Parameters
    ----------
    n_pairs:
        Number of sender/receiver host pairs (>= 1).
    bottleneck_rate:
        Capacity ``C`` of the shared link.
    buffer_packets:
        Drop-tail capacity ``B`` of the bottleneck queue in packets;
        ``None`` requires ``bottleneck_queue`` to be given instead
        (e.g. a :class:`~repro.net.queues.REDQueue` or an unbounded queue).
    rtts:
        Two-way propagation delay for each flow.  A single value may be
        given for all pairs; otherwise ``len(rtts) == n_pairs``.
    access_rate:
        Access-link speed; defaults to 10x the bottleneck (the paper's
        "fast access" worst case for burstiness).
    bottleneck_delay, receiver_delay:
        One-way delays of the shared link and the receiver access links.
        Sender access delays are derived per flow so each flow's two-way
        propagation time equals its requested RTT.
    bottleneck_queue:
        Optional queue spec overriding ``buffer_packets``.
    proc_jitter:
        Optional per-host processing-jitter callable (see
        :class:`~repro.net.node.Host`).

    Returns
    -------
    DumbbellNetwork
    """
    if n_pairs < 1:
        raise ConfigurationError("dumbbell needs at least one sender/receiver pair")
    rate = parse_bandwidth(bottleneck_rate)
    d_bottle = parse_time(bottleneck_delay)
    d_recv = parse_time(receiver_delay)
    rtt_list = list(rtts)
    if len(rtt_list) == 1:
        rtt_list = rtt_list * n_pairs
    if len(rtt_list) != n_pairs:
        raise ConfigurationError(
            f"need 1 or {n_pairs} RTT values, got {len(rtt_list)}"
        )
    rtt_seconds = [parse_time(r) for r in rtt_list]
    if access_rate is None:
        access_rate = rate * 10.0
    acc_rate = parse_bandwidth(access_rate)

    network = Network(sim)
    left = network.add_router("left")
    right = network.add_router("right")

    if bottleneck_queue is None:
        if buffer_packets is None:
            raise ConfigurationError("give buffer_packets or a bottleneck_queue spec")
        bottleneck_queue = int(buffer_packets)
    bottleneck_iface, reverse_iface = network.connect(
        left, right, rate=rate, delay=d_bottle,
        queue_ab=bottleneck_queue, name="bottleneck",
    )

    senders: List[Host] = []
    receivers: List[Host] = []
    for i in range(n_pairs):
        rtt = rtt_seconds[i]
        d_sender = rtt / 2.0 - d_bottle - d_recv
        if d_sender <= 0:
            raise ConfigurationError(
                f"flow {i}: RTT {rtt}s too small for bottleneck_delay="
                f"{d_bottle}s + receiver_delay={d_recv}s"
            )
        sender = network.add_host(f"s{i}", proc_jitter=proc_jitter)
        receiver = network.add_host(f"r{i}", proc_jitter=proc_jitter)
        network.connect(sender, left, rate=acc_rate, delay=d_sender,
                        name=f"access-s{i}")
        network.connect(right, receiver, rate=acc_rate, delay=d_recv,
                        name=f"access-r{i}")
        senders.append(sender)
        receivers.append(receiver)

    network.compute_routes()
    return DumbbellNetwork(network, senders, receivers, left, right,
                           bottleneck_iface, reverse_iface, rtt_seconds)


#: End-to-end propagation RTT of a parking lot's flows, and its access
#: links' speed as a multiple of the backbone rate.
PARKING_LOT_RTT = "80ms"
PARKING_LOT_ACCESS_SPEEDUP = 10.0


def build_parking_lot(
    sim: "Simulator",
    n_hops: int,
    n_pairs_per_hop: int,
    link_rate: Quantity,
    buffer_packets: int,
) -> Tuple[Network, List[Interface], List[Tuple[Host, Host]]]:
    """Build a multi-bottleneck "parking lot" chain.

    ``n_hops`` routers in a line; one set of end-to-end flows crosses all
    hops, plus ``n_pairs_per_hop`` single-hop cross-traffic pairs per
    link.  Used by extension experiments probing the paper's single
    -congestion-point assumption.  Every flow's RTT is
    :data:`PARKING_LOT_RTT`.

    Returns ``(network, backbone_interfaces, flow_pairs)`` where
    ``flow_pairs`` lists (sender, receiver) for the end-to-end flows
    first, then per-hop cross traffic.
    """
    if n_hops < 2:
        raise ConfigurationError("parking lot needs at least 2 routers")
    rate = parse_bandwidth(link_rate)
    access_rate = rate * PARKING_LOT_ACCESS_SPEEDUP
    rtt_s = parse_time(PARKING_LOT_RTT)
    hop_delay = rtt_s / (4.0 * n_hops)
    access_delay = rtt_s / 8.0

    network = Network(sim)
    routers = [network.add_router(f"R{i}") for i in range(n_hops)]
    backbone: List[Interface] = []
    for i in range(n_hops - 1):
        fwd, _rev = network.connect(
            routers[i], routers[i + 1], rate=rate, delay=hop_delay,
            queue_ab=buffer_packets, name=f"backbone{i}",
        )
        backbone.append(fwd)

    pairs: List[Tuple[Host, Host]] = []
    # End-to-end flows.
    src = network.add_host("e2e-src")
    dst = network.add_host("e2e-dst")
    network.connect(src, routers[0], rate=access_rate, delay=access_delay)
    network.connect(routers[-1], dst, rate=access_rate, delay=access_delay)
    pairs.append((src, dst))
    # Per-hop cross traffic.
    for i in range(n_hops - 1):
        for j in range(n_pairs_per_hop):
            s = network.add_host(f"x{i}.{j}s")
            r = network.add_host(f"x{i}.{j}r")
            network.connect(s, routers[i], rate=access_rate, delay=access_delay)
            network.connect(routers[i + 1], r, rate=access_rate, delay=access_delay)
            pairs.append((s, r))
    network.compute_routes()
    return network, backbone, pairs
