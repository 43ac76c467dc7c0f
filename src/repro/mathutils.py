"""Small numerical helpers shared by models and metrics.

Gaussian pdf/cdf (via ``math.erf``), partial expectations, and a robust
scalar bisection — enough to evaluate and invert the paper's analytic
models without pulling scipy into the required dependencies.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import ModelError

__all__ = [
    "normal_pdf",
    "normal_cdf",
    "normal_partial_expectation",
    "bisect_increasing",
    "finite",
]

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def finite(value: float, what: str) -> float:
    """``value`` itself, or a :class:`ModelError` naming ``what`` when it
    is nan or infinite (a sum or product of finite inputs can overflow)."""
    if not math.isfinite(value):
        raise ModelError(f"{what} must be finite, got {value}")
    return value


def normal_pdf(x: float, mean: float = 0.0, std: float = 1.0) -> float:
    """Density of N(mean, std^2) at ``x``."""
    if std <= 0:
        raise ModelError("std must be positive")
    z = (x - mean) / std
    return math.exp(-0.5 * z * z) / (std * _SQRT2PI)


def normal_cdf(x: float, mean: float = 0.0, std: float = 1.0) -> float:
    """CDF of N(mean, std^2) at ``x``."""
    if std <= 0:
        raise ModelError("std must be positive")
    return 0.5 * (1.0 + math.erf((x - mean) / (std * _SQRT2)))


def normal_partial_expectation(a: float, mean: float, std: float) -> float:
    """``E[(a - X)+]`` for ``X ~ N(mean, std^2)``.

    The expected shortfall below level ``a`` — used to turn the Gaussian
    aggregate-window model into a utilization prediction (the link loses
    exactly the traffic by which the window falls short of the pipe).

    Closed form: ``(a - mean) * Phi(z) + std * phi(z)`` with
    ``z = (a - mean)/std``.
    """
    if std <= 0:
        raise ModelError("std must be positive")
    z = (a - mean) / std
    # (a - X)+ is nonnegative, but far in the left tail the two closed-
    # form terms nearly cancel and rounding can leave a tiny negative
    # residual (~ -1e-16); clamp so callers can rely on the sign.
    return max(0.0, (a - mean) * normal_cdf(z) + std * normal_pdf(z))


def bisect_increasing(fn: Callable[[float], float], target: float,
                      lo: float, hi: float, tol: float = 1e-9,
                      max_iter: int = 200) -> float:
    """Solve ``fn(x) == target`` for a nondecreasing ``fn`` on [lo, hi].

    Returns the smallest ``x`` (within ``tol``) whose value reaches
    ``target``.  Raises :class:`ModelError` if the target is outside
    ``[fn(lo), fn(hi)]``.
    """
    f_lo = fn(lo)
    f_hi = fn(hi)
    if f_lo > target:
        raise ModelError(f"target {target} below fn({lo}) = {f_lo}")
    if f_hi < target:
        raise ModelError(f"target {target} above fn({hi}) = {f_hi}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if fn(mid) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol:
            break
    return hi
