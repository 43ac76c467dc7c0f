"""A packet-level TCP implementation (Tahoe, Reno, NewReno).

This subpackage replaces the ns-2 TCP agents used in the paper's
simulations.  Windows are counted in MSS-sized packets — the paper's own
simplification ("while TCP measures window size in bytes, we will count
window size in packets") — so the congestion window ``W`` in the theory
maps one-to-one onto ``sender.cc.cwnd`` here.

Components
----------
* :mod:`repro.tcp.rto` — Jacobson/Karels RTT estimation and Karn-safe
  retransmission timeout with exponential backoff.
* :mod:`repro.tcp.congestion` — pluggable AIMD congestion control:
  :class:`TahoeCC`, :class:`RenoCC`, :class:`NewRenoCC`.
* :mod:`repro.tcp.sender` / :mod:`repro.tcp.receiver` — the endpoint
  agents (cumulative ACKs, duplicate-ACK fast retransmit, optional
  delayed ACKs).
* :mod:`repro.tcp.flow` — one TCP connection wired onto a topology, with
  start/completion bookkeeping used by the workload generators.
* :mod:`repro.tcp.sack` — the SACK sender (RFC 2018/6675), which
  :class:`TcpFlow` imports when a flow asks for it.
"""

from repro.tcp.congestion import CongestionControl, NewRenoCC, RenoCC, TahoeCC, make_cc
from repro.tcp.flow import TcpFlow
from repro.tcp.receiver import TcpReceiver
from repro.tcp.rto import RtoEstimator
from repro.tcp.sender import TcpSender

__all__ = [
    "CongestionControl",
    "TahoeCC",
    "RenoCC",
    "NewRenoCC",
    "make_cc",
    "RtoEstimator",
    "TcpSender",
    "TcpReceiver",
    "TcpFlow",
]
