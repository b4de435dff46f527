"""Service observability: counters, gauges, and latency quantiles.

A :class:`ServiceMetrics` registry is threaded through every stage of
the streaming pipeline.  Since the telemetry layer landed it is a thin
view over a private :class:`~repro.telemetry.MetricRegistry` — the
same instruments the Prometheus endpoint scrapes — while keeping the
original accessors (``inc`` / ``set_gauge`` / ``latency`` /
``to_dict``) every call site and report already uses.

Latencies are the registry's reservoir-sampled
:class:`~repro.telemetry.Histogram`: exact count / sum / min / max
over every observation, a bounded uniform reservoir (default 4096
samples) for nearest-rank quantiles, so week-long ``serve`` runs hold
constant memory instead of one float per block.
"""

from __future__ import annotations

from ..telemetry.metrics import Histogram, MetricRegistry

__all__ = ["ServiceMetrics"]


class ServiceMetrics:
    """Named counters + gauges + latency stats for one service run.

    Each instance owns a private registry, so per-run windows stay
    isolated from the lifetime totals until :meth:`merge` folds them
    in.  The registry itself is exposed (:attr:`registry`) for the
    exporters; labeled instruments created through it render in
    :meth:`to_dict` with ``name{label=value}`` keys.
    """

    def __init__(self, registry: MetricRegistry | None = None):
        self.registry = registry if registry is not None else MetricRegistry()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> int:
        return self.registry.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.registry.gauge(name).set(value)

    def observe_gauge_max(self, name: str, value: float) -> None:
        """Track the high-water mark of a sampled quantity (queue depth)."""
        self.registry.gauge(name).max(value)

    def latency(self, name: str) -> Histogram:
        return self.registry.histogram(name)

    def merge(self, other: "ServiceMetrics") -> None:
        """Fold another registry into this one (lifetime accumulation:
        the service merges each run's window into its cumulative
        registry).  Counters add, ``*_max`` gauges keep the high-water
        mark, other gauges take the newer value, latencies merge
        reservoirs."""
        self.registry.merge(other.registry)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    @property
    def counters(self) -> dict[str, int]:
        """Unlabeled counters as a plain name → value dict."""
        return self.registry.counters()

    @property
    def gauges(self) -> dict[str, float]:
        return self.registry.gauges()

    def to_dict(self) -> dict:
        snap = self.registry.snapshot()
        return {
            "counters": snap["counters"],
            "gauges": snap["gauges"],
            "latencies": snap["histograms"],
        }

    def __repr__(self) -> str:
        latencies = self.registry.histograms()
        return (
            f"ServiceMetrics({len(self.counters)} counters, "
            f"{len(self.gauges)} gauges, {len(latencies)} latency stats)"
        )
