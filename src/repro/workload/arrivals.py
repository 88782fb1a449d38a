"""Arrival-process generators.

The paper generates arrival times "using Poisson distribution with
different request rates" (§6.1). We provide Poisson arrivals plus a
Gamma-process variant whose coefficient of variation dials in burstiness
(used by the pull-vs-push KV transfer ablation, §4.3 "Combat burstiness"),
and deterministic arrivals for queueing-theory cross-checks.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "poisson_arrivals",
    "gamma_arrivals",
    "uniform_arrivals",
    "piecewise_rate_arrivals",
]


def _validate(rate: float, num_requests: int) -> None:
    if not rate > 0:  # also rejects NaN
        raise ValueError(f"rate must be positive, got {rate}")
    if num_requests < 0:
        raise ValueError(f"num_requests must be >= 0, got {num_requests}")


def poisson_arrivals(
    rate: float, num_requests: int, rng: np.random.Generator
) -> np.ndarray:
    """Arrival times of a Poisson process with the given rate.

    Returns:
        Non-decreasing array of ``num_requests`` arrival times starting
        after 0 (exponential inter-arrival gaps of mean ``1/rate``).
    """
    _validate(rate, num_requests)
    gaps = rng.exponential(scale=1.0 / rate, size=num_requests)
    return np.cumsum(gaps)


def gamma_arrivals(
    rate: float, num_requests: int, cv: float, rng: np.random.Generator
) -> np.ndarray:
    """Gamma-renewal arrivals with coefficient of variation ``cv``.

    ``cv = 1`` recovers Poisson; ``cv > 1`` produces bursty traffic
    (clusters of near-simultaneous arrivals separated by lulls); ``cv < 1``
    produces smoother-than-Poisson traffic.
    """
    _validate(rate, num_requests)
    if cv <= 0:
        raise ValueError(f"cv must be positive, got {cv}")
    shape = 1.0 / (cv * cv)
    scale = 1.0 / (rate * shape)
    gaps = rng.gamma(shape=shape, scale=scale, size=num_requests)
    return np.cumsum(gaps)


def uniform_arrivals(rate: float, num_requests: int) -> np.ndarray:
    """Deterministic, evenly spaced arrivals (for M/D/1 sanity checks)."""
    _validate(rate, num_requests)
    return (np.arange(num_requests, dtype=float) + 1.0) / rate


def piecewise_rate_arrivals(
    segments: "list[tuple[float, float]]",
    rng: np.random.Generator,
) -> np.ndarray:
    """Non-homogeneous Poisson arrivals with piecewise-constant rate.

    Real traffic varies over hours (§4.3's replanning premise); each
    ``(duration, rate)`` segment emits Poisson arrivals at its own rate.
    A zero-rate segment is a lull.

    Args:
        segments: Ordered ``(duration_seconds, rate)`` pairs.
        rng: Seeded generator.

    Returns:
        Sorted absolute arrival times across all segments.
    """
    if not segments:
        raise ValueError("segments must be non-empty")
    times: "list[float]" = []
    offset = 0.0
    for duration, rate in segments:
        if duration <= 0:
            raise ValueError(f"segment duration must be positive, got {duration}")
        if rate < 0:
            raise ValueError(f"segment rate must be >= 0, got {rate}")
        if rate > 0:
            t = offset
            while True:
                t += rng.exponential(scale=1.0 / rate)
                if t >= offset + duration:
                    break
                times.append(t)
        offset += duration
    return np.asarray(times, dtype=float)
