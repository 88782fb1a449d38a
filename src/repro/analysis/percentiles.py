"""Percentile and summary utilities over request records."""

from __future__ import annotations

import math

import numpy as np

from ..simulator.request import RequestRecord

__all__ = ["ttft_percentile", "tpot_percentile", "latency_summary", "cdf_points"]


def _values(records: "list[RequestRecord]", field: str) -> np.ndarray:
    if not records:
        raise ValueError("no records to summarize")
    return np.array([getattr(r, field) for r in records], dtype=float)


def ttft_percentile(records: "list[RequestRecord]", q: float = 90.0) -> float:
    """P``q`` of time-to-first-token (Figure 1 uses P90)."""
    return float(np.percentile(_values(records, "ttft"), q))


def tpot_percentile(records: "list[RequestRecord]", q: float = 90.0) -> float:
    """P``q`` of time-per-output-token."""
    return float(np.percentile(_values(records, "tpot"), q))


def latency_summary(records: "list[RequestRecord]") -> "dict[str, float]":
    """Mean/P50/P90/P99 of TTFT and TPOT plus end-to-end latency.

    Means use ``math.fsum``, which is exactly rounded, so the summary is
    the same for any order of ``records`` (numpy's pairwise ``mean`` is
    not).
    """
    ttft = _values(records, "ttft")
    tpot = _values(records, "tpot")
    e2e = np.array([r.end_to_end_latency for r in records], dtype=float)
    out: "dict[str, float]" = {}
    for name, arr in (("ttft", ttft), ("tpot", tpot), ("e2e", e2e)):
        out[f"{name}_mean"] = math.fsum(arr) / len(arr)
        for q in (50, 90, 99):
            out[f"{name}_p{q}"] = float(np.percentile(arr, q))
    return out


def cdf_points(values: "list[float]") -> "tuple[np.ndarray, np.ndarray]":
    """Empirical CDF as (sorted values, cumulative fractions).

    Used for the KV-transfer-time CDF of Figure 10(b).
    """
    if not values:
        raise ValueError("no values for CDF")
    xs = np.sort(np.asarray(values, dtype=float))
    ys = np.arange(1, len(xs) + 1, dtype=float) / len(xs)
    return xs, ys
