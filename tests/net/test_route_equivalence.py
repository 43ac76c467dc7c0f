"""Route equivalence: choice-point routing against an all-pairs oracle.

``Network.compute_routes`` installs tables only on nodes with two or
more interfaces and lets single-interface nodes learn destinations from
their one neighbour on first use.  The oracle below is the algorithm it
replaced -- one BFS from *every* node, a first hop toward every host at
every node -- kept here as an independent reference.  On small random
connected topologies (hosts as leaves, multi-homed hosts, host--host
direct links, parallel links) every host-to-host packet must take
exactly the oracle's hop sequence, on both engine paths.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import RoutingError
from repro.net import Host, Network, Packet
from repro.sim import Simulator

FAST = dict(max_examples=60, deadline=None, derandomize=True,
            suppress_health_check=[HealthCheck.too_slow])


def all_pairs_tables(network):
    """``{node_id: {host address: first-hop node_id}}`` for every node."""
    adjacency = network._adjacency
    address = {host.node_id: host.address for host in network.hosts}
    tables = {}
    for root in adjacency:
        first_hop = {}
        visited = {root, *adjacency[root]}
        queue = [(neigh, neigh) for neigh in adjacency[root]]
        while queue:
            node, hop = queue.pop(0)
            first_hop[node] = hop
            for neigh in adjacency[node]:
                if neigh not in visited:
                    visited.add(neigh)
                    queue.append((neigh, hop))
        tables[root] = {address[node]: hop for node, hop in first_hop.items()
                        if node in address}
    return tables


def oracle_walk(tables, src, dst):
    path, node = [], src.node_id
    while node != dst.node_id:
        node = tables[node][dst.address]
        path.append(node)
    return path


def table_walk(network, src, dst):
    """Node ids visited when each hop asks ``route_for``."""
    path, node = [], src
    while node is not dst:
        node = node.route_for(dst.address).link.dst
        path.append(node.node_id)
        assert len(path) <= len(network.nodes), "routing loop"
    return path


class _HopSink:
    """Receiving agent: notes each delivered packet's hop count."""

    def __init__(self):
        self.hops = []

    def deliver(self, packet):
        self.hops.append(packet.hops)


def packet_walk(sim, network, src, dst):
    """Send one packet; return (node ids its links delivered to, hops)."""
    links = {(node.node_id, neigh): iface.link
             for node in network.nodes
             for neigh, iface in node.interfaces.items()}
    before = {edge: link.packets_delivered for edge, link in links.items()}
    sink = _HopSink()
    dst.unbind(5)
    dst.bind(5, sink)
    src.inject(Packet(src=src.address, dst=dst.address, payload=100, dport=5))
    sim.run()
    used = dict(edge for edge, link in links.items()
                if link.packets_delivered != before[edge])
    path, node = [], src.node_id
    while node in used:
        node = used.pop(node)
        path.append(node)
    assert not used, "packet left the walked path"
    (hop_count,) = sink.hops
    return path, hop_count


@st.composite
def topologies(draw):
    """(node kinds, edge list): a random tree plus up to four extra links."""
    kinds = draw(st.permutations(
        ["h", "h"] + draw(st.lists(st.sampled_from("hrr"), max_size=5))))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, len(kinds))]
    index = st.integers(0, len(kinds) - 1)
    edges += draw(st.lists(
        st.tuples(index, index).filter(lambda e: e[0] != e[1]), max_size=4))
    return kinds, edges


def build(sim, kinds, edges):
    network = Network(sim)
    nodes = [network.add_host(f"h{i}") if kind == "h"
             else network.add_router(f"r{i}") for i, kind in enumerate(kinds)]
    for a, b in edges:
        network.connect(nodes[a], nodes[b], rate="10Mbps", delay="1ms")
    network.compute_routes()
    return network


@pytest.mark.parametrize("engine", [dict(burst=True), dict(fastpath=False)],
                         ids=["burst", "reference"])
@given(topology=topologies())
@settings(**FAST)
def test_packets_follow_the_all_pairs_oracle(engine, topology):
    sim = Simulator(**engine)
    network = build(sim, *topology)
    tables = all_pairs_tables(network)

    outside = max(host.address for host in network.hosts) + 1
    for host in network.hosts:
        with pytest.raises(RoutingError):
            host.inject(Packet(src=host.address, dst=outside, payload=100))
    assert sim.pending() == 0 and sim.events_processed == 0

    for src, dst in itertools.permutations(network.hosts, 2):
        expected = oracle_walk(tables, src, dst)
        assert table_walk(network, src, dst) == expected
        if any(isinstance(network.nodes[i], Host) for i in expected[:-1]):
            continue  # hosts do not forward: no packet can take this path
        assert packet_walk(sim, network, src, dst) == (expected, len(expected))
