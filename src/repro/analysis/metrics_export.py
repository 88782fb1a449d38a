"""Deterministic exporters for the metrics registry.

Two wire formats over one :class:`~repro.simulator.metrics.MetricsRegistry`:

* **Prometheus text exposition** (:func:`to_prometheus_text`) — the
  format every production serving stack scrapes (the vLLM
  production-stack ships exactly this layer in front of Grafana). The
  output is *byte-deterministic* for a fixed seed: families sort by
  name, children by label values, floats render via ``repr``, and no
  wall-clock timestamps are emitted. CI diffs two same-seed exports
  byte-for-byte to pin this down.
* **JSON snapshot** (:func:`registry_snapshot` / :func:`write_metrics_json`)
  — the same data as a nested dict for notebooks and report tooling.

Plus :func:`phase_utilization`, the small aggregation benchmarks use to
report per-phase busy fractions alongside goodput.
"""

from __future__ import annotations

import json
import math
from typing import Mapping

from ..simulator.metrics import Histogram, MetricFamily, MetricsRegistry

__all__ = [
    "to_prometheus_text",
    "write_prometheus_text",
    "registry_snapshot",
    "write_metrics_json",
    "phase_utilization",
]


def _format_value(value: float) -> str:
    """Canonical Prometheus number rendering (deterministic)."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labelnames, labelvalues, extra: "tuple[str, str] | None" = None) -> str:
    pairs = [
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    if extra is not None:
        pairs.append(f'{extra[0]}="{extra[1]}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _family_lines(family: MetricFamily) -> "list[str]":
    lines = []
    if family.help:
        lines.append(f"# HELP {family.name} {family.help}")
    lines.append(f"# TYPE {family.name} {family.kind}")
    for labelvalues in sorted(family.children):
        metric = family.children[labelvalues]
        if isinstance(metric, Histogram):
            cumulative = metric.cumulative_counts()
            for bound, count in zip(metric.bounds, cumulative):
                le = _format_labels(
                    family.labelnames, labelvalues, extra=("le", _format_value(bound))
                )
                lines.append(f"{family.name}_bucket{le} {count}")
            inf = _format_labels(family.labelnames, labelvalues, extra=("le", "+Inf"))
            lines.append(f"{family.name}_bucket{inf} {metric.count}")
            plain = _format_labels(family.labelnames, labelvalues)
            lines.append(f"{family.name}_sum{plain} {_format_value(metric.sum)}")
            lines.append(f"{family.name}_count{plain} {metric.count}")
        else:
            labels = _format_labels(family.labelnames, labelvalues)
            lines.append(f"{family.name}{labels} {_format_value(metric.value)}")
    return lines


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (v0.0.4).

    Byte-identical across runs of the same seeded workload: ordering is
    fully sorted and values render canonically with no timestamps.
    """
    lines: "list[str]" = []
    for family in registry.families():
        lines.extend(_family_lines(family))
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus_text(path: str, registry: MetricsRegistry) -> None:
    """Write :func:`to_prometheus_text` output to ``path``."""
    with open(path, "w") as fh:
        fh.write(to_prometheus_text(registry))


def registry_snapshot(registry: MetricsRegistry) -> dict:
    """The registry as a JSON-ready nested dict (sorted, deterministic)."""
    out: dict = {}
    for family in registry.families():
        samples = []
        for labelvalues in sorted(family.children):
            metric = family.children[labelvalues]
            labels = dict(zip(family.labelnames, labelvalues))
            if isinstance(metric, Histogram):
                samples.append(
                    {
                        "labels": labels,
                        "buckets": {
                            _format_value(b): c
                            for b, c in zip(metric.bounds, metric.cumulative_counts())
                        },
                        "count": metric.count,
                        "sum": metric.sum,
                    }
                )
            else:
                samples.append({"labels": labels, "value": metric.value})
        out[family.name] = {
            "type": family.kind,
            "help": family.help,
            "samples": samples,
        }
    return out


def write_metrics_json(path: str, registry: MetricsRegistry) -> None:
    """Write :func:`registry_snapshot` as pretty-printed, sorted JSON."""
    with open(path, "w") as fh:
        json.dump(registry_snapshot(registry), fh, indent=2, sort_keys=True)
        fh.write("\n")


def phase_utilization(
    registry: MetricsRegistry,
    readings: "Mapping[tuple[str, ...], float] | None" = None,
) -> "dict[str, float]":
    """Mean busy fraction per phase from the ``repro_utilization`` gauges.

    Keys are the ``phase`` label values present (``prefill``, ``decode``,
    ``colocated``); an uninstrumented registry yields ``{}``. Benchmarks
    report this next to goodput so over- and under-provisioned phases
    are visible at a glance. ``readings`` maps each gauge's label values
    to a past value of it (one reading of a
    :class:`~repro.simulator.metrics.MetricSamples`); without it every
    gauge is read now.
    """
    if "repro_utilization" not in registry:
        return {}
    sums: "dict[str, list[float]]" = {}
    for family in registry.families():
        if family.name != "repro_utilization":
            continue
        phase_idx = family.labelnames.index("phase")
        for labelvalues, metric in family.children.items():
            value = metric.value if readings is None else readings[labelvalues]
            sums.setdefault(labelvalues[phase_idx], []).append(value)
    return {
        phase: sum(values) / len(values)
        for phase, values in sorted(sums.items())
    }
