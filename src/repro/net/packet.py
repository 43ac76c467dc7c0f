"""The packet: the unit of everything that moves through the simulator.

A :class:`Packet` is deliberately protocol-agnostic: TCP and UDP agents
fill in the generic ``seq`` / ``ack`` / ``flags`` / ``port`` fields.  The
size accounting distinguishes payload bytes from header bytes so that a
40-byte pure ACK and a 1000-byte data segment serialize onto links with
the correct timing — the detail the whole buffer-sizing question hinges
on.

Pooling
-------
Packet construction is the dominant allocation of a packet-level run
(one object per data segment plus one per ACK).  :meth:`Packet.acquire`
draws from a process-wide free list refilled by :meth:`Packet.release`,
which the delivery and drop paths call once a packet is dead.  The pool
is **disabled by default** — unit tests and ad-hoc scripts that hold on
to delivered packets stay safe — and enabled for the duration of an
optimized experiment run via :func:`configure_pool` /
:func:`pooled_packets`.  A fresh ``uid`` is stamped on every acquire
(pooled or not), so uid allocation — and with it every simulation
result — is identical with pooling on or off.

``configure_pool(debug=True)`` turns on poisoning: released packets get
obviously-invalid field values (negative sizes, sentinel addresses) so
any use-after-release fails loudly instead of silently reading stale
data, and double releases raise immediately.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from enum import IntFlag
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import PacketPoolError

__all__ = [
    "MAX_HOPS",
    "Packet",
    "PacketFlags",
    "PacketPoolError",
    "TCP_HEADER_BYTES",
    "UDP_HEADER_BYTES",
    "configure_pool",
    "pool_stats",
    "pooled_packets",
]

#: Loop guard: a packet traversing more links than this is a routing
#: bug.  Defined here (the leafmost net module) so both the node-level
#: forwarding path and the link delivery fast path can use it;
#: re-exported by :mod:`repro.net.node` as its historical home.
MAX_HOPS = 64

#: Combined IP + TCP header size used for segments and pure ACKs (bytes).
TCP_HEADER_BYTES = 40
#: Combined IP + UDP header size (bytes).
UDP_HEADER_BYTES = 28

_packet_uid = itertools.count()

#: Field value stamped on poisoned (debug-released) packets.
_POISON = -0xDEAD


class PacketPool:
    """Process-wide free list of :class:`Packet` objects.

    Attributes are read directly on the hot path; use
    :func:`configure_pool` to change settings so statistics stay
    coherent.
    """

    __slots__ = ("enabled", "debug", "max_size", "free",
                 "acquired", "reused", "released", "dropped")

    def __init__(self, max_size: int = 8192) -> None:
        self.enabled = False
        self.debug = False
        self.max_size = max_size
        self.free: List["Packet"] = []
        # Statistics (lifetime, survive enable/disable toggles).
        self.acquired = 0
        self.reused = 0
        self.released = 0
        self.dropped = 0  # releases discarded because the pool was full


_POOL = PacketPool()


def configure_pool(enabled: Optional[bool] = None, debug: Optional[bool] = None,
                   max_size: Optional[int] = None) -> PacketPool:
    """Adjust the process-wide packet pool; returns it.

    ``enabled`` turns reuse on/off (disabling also empties the free
    list, so no stale object can resurface later).  ``debug`` enables
    poison-on-release and double-release detection.  ``max_size`` caps
    the free list.
    """
    pool = _POOL
    if max_size is not None:
        if max_size < 0:
            raise PacketPoolError(f"pool max_size must be >= 0, got {max_size}")
        pool.max_size = max_size
        del pool.free[max_size:]
    if debug is not None:
        pool.debug = bool(debug)
    if enabled is not None:
        pool.enabled = bool(enabled)
        if not pool.enabled:
            pool.free.clear()
    return pool


def pool_stats() -> Dict[str, Any]:
    """Snapshot of the packet pool's configuration and counters."""
    pool = _POOL
    return {
        "enabled": pool.enabled,
        "debug": pool.debug,
        "max_size": pool.max_size,
        "free": len(pool.free),
        "acquired": pool.acquired,
        "reused": pool.reused,
        "released": pool.released,
        "dropped": pool.dropped,
    }


@contextmanager
def pooled_packets(enabled: bool = True,
                   debug: Optional[bool] = None) -> Iterator[PacketPool]:
    """Context manager scoping a pool configuration to a block.

    The experiment runners use this so pooling is active exactly for
    the duration of an optimized run and prior settings are restored
    afterwards (the free list is cleared on the way out, so packets
    created inside the block cannot leak into later, unrelated runs).
    ``debug=None`` keeps the caller's setting, so a run started inside
    ``pooled_packets(debug=True)`` poisons what it releases.
    """
    pool = _POOL
    previous = (pool.enabled, pool.debug)
    configure_pool(enabled=enabled, debug=debug)
    try:
        yield pool
    finally:
        configure_pool(enabled=previous[0], debug=previous[1])
        pool.free.clear()


class PacketFlags(IntFlag):
    """TCP/IP control flags carried by a packet.

    ``ECT``/``CE`` model the IP ECN field (RFC 3168): ``ECT`` marks the
    transport as ECN-capable, ``CE`` is set by an AQM queue instead of
    dropping.  ``ECE``/``CWR`` are the TCP echo bits: the receiver sets
    ``ECE`` on ACKs until the sender confirms its window reduction with
    ``CWR``.
    """

    NONE = 0
    ACK = 1
    SYN = 2
    FIN = 4
    ECT = 8
    CE = 16
    ECE = 32
    CWR = 64


#: Plain-int mirror of :attr:`PacketFlags.ACK` for the per-hop hot path.
#: ``Packet.flags`` is stored as a plain int because ``enum.Flag``'s
#: bitwise operators dominate profiles when run per packet per hop;
#: ``int & int`` is an order of magnitude cheaper and compares equal to
#: the enum members either way.
_ACK = int(PacketFlags.ACK)


class Packet:
    """One packet in flight.

    Attributes
    ----------
    src, dst:
        Integer host addresses.
    sport, dport:
        Port numbers demultiplexing to agents on the destination host.
    payload:
        Application payload size in bytes (0 for pure ACKs).
    header:
        Header size in bytes; :attr:`size` = payload + header.
    seq, ack:
        Sequence/acknowledgement numbers in **segments** (the paper
        counts windows in packets; so do we).
    flags:
        :class:`PacketFlags` bitmask.
    flow_id:
        Identifier of the owning flow (for per-flow accounting).
    hops:
        Number of links traversed so far (TTL-style loop guard).
    meta:
        Scratch dictionary for agents (e.g. timestamp echo).
    """

    __slots__ = (
        "uid",
        "src",
        "dst",
        "sport",
        "dport",
        "payload",
        "header",
        "size",
        "seq",
        "ack",
        "flags",
        "flow_id",
        "hops",
        "meta",
        "_pooled",
        "_next",
        "_due",
        "_dseq",
    )

    # Burst-mode wire FIFO (see repro.net.link): set when a link puts
    # the packet on its wire and read only while it is there, so the
    # constructor leaves them unset.
    _next: Optional["Packet"]
    _due: float
    _dseq: int

    def __init__(
        self,
        src: int,
        dst: int,
        payload: int = 0,
        header: int = TCP_HEADER_BYTES,
        seq: int = 0,
        ack: int = 0,
        flags: PacketFlags = PacketFlags.NONE,
        flow_id: int = 0,
        sport: int = 0,
        dport: int = 0,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.uid = next(_packet_uid)
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.payload = payload
        self.header = header
        # Wire size never changes after construction; precompute it
        # (it is read several times per hop on the hot path).
        self.size = payload + header
        self.seq = seq
        self.ack = ack
        # Stored as a plain int (see _ACK above): one coercion at
        # construction buys cheap flag tests on every subsequent hop.
        self.flags = int(flags)
        self.flow_id = flow_id
        self.hops = 0
        # Lazily-allocated scratch space: most packets never need it,
        # and a dict per packet is measurable at simulation scale.
        self.meta = meta
        self._pooled = False

    # ------------------------------------------------------------------
    # Pooling
    # ------------------------------------------------------------------
    @classmethod
    def acquire(
        cls,
        src: int,
        dst: int,
        payload: int = 0,
        header: int = TCP_HEADER_BYTES,
        seq: int = 0,
        ack: int = 0,
        flags: PacketFlags = PacketFlags.NONE,
        flow_id: int = 0,
        sport: int = 0,
        dport: int = 0,
        meta: Optional[Dict[str, Any]] = None,
    ) -> "Packet":
        """Obtain a packet, reusing a released one when the pool allows.

        Semantically identical to the constructor: every field is
        (re)initialized and a fresh ``uid`` is stamped either way, so
        pooling cannot change simulation results — only allocation cost.
        """
        pool = _POOL
        free = pool.free
        if free:
            self = free.pop()
            pool.acquired += 1
            pool.reused += 1
            self._pooled = False
            self.uid = next(_packet_uid)
            self.src = src
            self.dst = dst
            self.sport = sport
            self.dport = dport
            self.payload = payload
            self.header = header
            self.size = payload + header
            self.seq = seq
            self.ack = ack
            self.flags = int(flags)
            self.flow_id = flow_id
            self.hops = 0
            self.meta = meta
            return self
        pool.acquired += 1
        return cls(src, dst, payload, header, seq, ack, flags, flow_id,
                   sport, dport, meta)

    def release(self) -> None:
        """Return a dead packet to the pool (no-op while pooling is off).

        Called by the terminal points of the data path — host delivery,
        queue drops, link-fault losses — once nothing can reference the
        packet again.  In debug mode the packet is poisoned so any
        use-after-release fails loudly, and releasing twice raises
        :class:`~repro.errors.PacketPoolError`.
        """
        pool = _POOL
        if not pool.enabled:
            return
        if self._pooled:
            raise PacketPoolError(
                f"double release of packet uid={self.uid} "
                f"({self.src}->{self.dst} seq={self.seq})")
        self._pooled = True
        pool.released += 1
        if pool.debug:
            # Poison: negative size makes any serialization-time use
            # blow up; sentinel addresses make routing fail loudly.
            self.src = self.dst = _POISON
            self.sport = self.dport = _POISON
            self.payload = self.header = self.size = _POISON
            self.seq = self.ack = _POISON
            self.flags = 0
            self.flow_id = _POISON
            self.hops = _POISON
            self.meta = {"poisoned": True}
        else:
            self.meta = None
        if len(pool.free) < pool.max_size:
            pool.free.append(self)
        else:
            pool.dropped += 1

    @property
    def is_ack(self) -> bool:
        """Whether the ACK flag is set."""
        return (self.flags & _ACK) != 0

    @property
    def is_data(self) -> bool:
        """Whether the packet carries payload bytes."""
        return self.payload > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = []
        if self.flags & PacketFlags.SYN:
            kind.append("SYN")
        if self.flags & PacketFlags.ACK:
            kind.append("ACK")
        if self.flags & PacketFlags.FIN:
            kind.append("FIN")
        if self.payload:
            kind.append(f"DATA[{self.payload}B]")
        label = "|".join(kind) or "EMPTY"
        return (
            f"Packet(#{self.uid} {self.src}->{self.dst} {label} "
            f"seq={self.seq} ack={self.ack} flow={self.flow_id})"
        )
