"""The exact M/D/1 queue-length distribution.

The paper notes that when access links are much slower than the
bottleneck, slow-start bursts are smoothed out and packet arrivals at
the bottleneck approach Poisson; the buffer can then be sized from an
M/D/1 model.  This module gives the exact embedded-chain distribution,
which ``tests/queueing/test_md1.py`` holds the packet simulator to
(Poisson 1000-byte packets through a bottleneck that never drops).
"""

from __future__ import annotations

import math
from typing import List

from repro.errors import ModelError

__all__ = ["md1_queue_distribution", "md1_overflow_exact"]


def md1_queue_distribution(load: float, max_length: int) -> List[float]:
    """Exact stationary distribution of the M/D/1 queue length.

    Uses the embedded Markov chain at departure epochs (which, by PASTA
    and level crossings, matches the time-stationary distribution for
    M/G/1).  With ``a_k = e^{-rho} rho^k / k!`` (Poisson arrivals during
    one deterministic service),

        pi_0 = 1 - rho
        pi_{n+1} = ( pi_n - pi_0 a_n - sum_{k=1}^{n} pi_k a_{n+1-k} ) / a_0

    Returns ``[pi_0, ..., pi_{max_length}]``.
    """
    _check_load(load)
    if max_length < 0:
        raise ModelError("max_length must be >= 0")
    a0 = math.exp(-load)
    # Poisson pmf values a_k for k = 0..max_length.
    a = [a0]
    for k in range(1, max_length + 2):
        a.append(a[-1] * load / k)
    pi = [1.0 - load]
    for n in range(0, max_length):
        acc = pi[n] - pi[0] * a[n]
        for k in range(1, n + 1):
            acc -= pi[k] * a[n + 1 - k]
        nxt = acc / a0
        # Numerical floor: tiny negative values can appear deep in the tail.
        pi.append(max(nxt, 0.0))
    return pi


def md1_overflow_exact(load: float, buffer_packets: int) -> float:
    """Exact ``P(Q >= b)`` for the M/D/1 queue.

    ``Q`` counts packets in the system: those waiting plus the one in
    service (the Pollaczek–Khinchine mean of :func:`md1_queue_distribution`
    is that of the number in system).
    """
    if buffer_packets <= 0:
        return 1.0
    pi = md1_queue_distribution(load, buffer_packets - 1)
    return max(1.0 - sum(pi), 0.0)


def _check_load(load: float) -> None:
    if not 0.0 < load < 1.0:
        raise ModelError(f"load must be in (0, 1), got {load}")
