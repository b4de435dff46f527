"""The metric registry: named, labeled counters/gauges/histograms.

One :class:`MetricRegistry` is a flat namespace of metric families.  A
family is a metric name plus a kind; each distinct label set under it
is its own child instrument, memoized so the hot path is one dict
lookup::

    registry.counter("events_ingested").inc()
    registry.gauge("queue_depth", shard=3).set(qsize)
    registry.histogram("block_seconds").observe(dt)

Design rules:

* **Bounded memory everywhere.**  Histograms keep an exact count /
  sum / min / max plus a fixed-size reservoir (Algorithm R, seeded
  deterministically from the metric name) so quantiles stay available
  over unbounded streams without unbounded storage.  Label cardinality
  is capped per family (:attr:`MetricRegistry.max_label_sets`) so a
  bug interpolating user data into labels fails loudly instead of
  leaking memory one label set at a time.
* **Mergeable.**  Registries fold into each other —
  :meth:`MetricRegistry.merge` adds counters, merges histogram
  reservoirs, keeps the high-water mark for ``*_max`` gauges and the
  newer value for the rest — which is how per-run windows accumulate
  into lifetime registries and how child-process shards report back.
* **Dependency-free.**  The Prometheus / Chrome renderings live in
  :mod:`repro.telemetry.export`; this module is pure bookkeeping.

The process-wide default registry is :func:`get_registry`; components
that want isolation (tests, per-run windows) construct their own.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LabelSet",
    "MetricRegistry",
    "get_registry",
]

#: Hashable canonical form of a label mapping: sorted (key, value)
#: pairs with values stringified (Prometheus labels are strings).
LabelSet = tuple[tuple[str, str], ...]

#: Default reservoir size for histograms (the service's latencies
#: included): large enough for stable p99s, small enough that a
#: week-long serve run holds a few hundred KB of samples total.
DEFAULT_RESERVOIR = 4096


def _label_key(labels: dict) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotone event count (plus :meth:`set` for mirrored totals)."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> int:
        self.value += amount
        return self.value

    def set(self, value: int) -> None:
        """Mirror an externally accumulated lifetime total (e.g. the
        batch evaluator's routing counters, which stay plain ints on
        the hot path and sync here at publish points)."""
        self.value = value

    def __repr__(self) -> str:
        return f"Counter({self.name}{dict(self.labels) or ''}={self.value})"


class Gauge:
    """Last-observed value of a sampled quantity."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def max(self, value: float) -> None:
        """Keep the high-water mark (queue depths, loop lag)."""
        if value > self.value:
            self.value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.name}{dict(self.labels) or ''}={self.value})"


class Histogram:
    """Streaming distribution with bounded-memory quantiles.

    Count, sum, min, and max are exact over every observation; the
    sample store is a fixed-size uniform reservoir (Vitter's
    Algorithm R) so nearest-rank quantiles stay representative of the
    whole stream while memory stays ``O(max_samples)``.  The reservoir
    RNG is seeded from the metric name, so a replayed run reproduces
    its quantiles bit for bit.
    """

    __slots__ = (
        "name",
        "labels",
        "count",
        "total",
        "min",
        "max",
        "max_samples",
        "_samples",
        "_seen",
        "_rng",
    )
    kind = "histogram"

    def __init__(
        self,
        name: str,
        max_samples: int = DEFAULT_RESERVOIR,
        labels: LabelSet = (),
    ):
        if max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        self.max_samples = max_samples
        self._samples: list[float] = []
        self._seen = 0
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def observe(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"latency cannot be negative, got {seconds}")
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        self._offer(seconds)

    def _offer(self, value: float) -> None:
        """One Algorithm-R reservoir step: every offered value ends up
        stored with probability ``max_samples / seen``."""
        self._seen += 1
        if len(self._samples) < self.max_samples:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(self._seen)
            if slot < self.max_samples:
                self._samples[slot] = value

    def merge(self, other: "Histogram") -> None:
        """Absorb another histogram (same units assumed): exact
        aggregates add exactly; the other's reservoir is offered
        sample by sample, keeping this reservoir uniform-ish over the
        union."""
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        self.count += other.count
        self.total += other.total
        for value in other._samples:
            self._offer(value)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    @property
    def mean(self) -> float:
        """Mean; ``nan`` before any observation — an empty histogram
        has no value, and 0.0 would read as "instant" in reports."""
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the reservoir (0 <= q <= 1);
        ``nan`` when empty (consistent with :attr:`mean` — never a
        raise, never a fake zero)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if not self._samples:
            return math.nan
        ordered = sorted(self._samples)
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[rank - 1]

    @property
    def samples_stored(self) -> int:
        return len(self._samples)

    def to_dict(self) -> dict:
        empty = self.count == 0
        return {
            "count": self.count,
            "mean_ms": self.mean * 1e3,
            "p50_ms": self.quantile(0.50) * 1e3,
            "p95_ms": self.quantile(0.95) * 1e3,
            "p99_ms": self.quantile(0.99) * 1e3,
            "min_ms": (math.nan if empty else self.min) * 1e3,
            "max_ms": (math.nan if empty else self.max) * 1e3,
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name}: n={self.count}, "
            f"p50={self.quantile(0.5) * 1e3:.3f}ms, "
            f"p99={self.quantile(0.99) * 1e3:.3f}ms)"
        )


class MetricRegistry:
    """A namespace of metric families, each a dict of labeled children.

    Parameters
    ----------
    max_label_sets:
        Cardinality cap per family.  Exceeding it raises
        ``ValueError`` — a runaway label (loop ids, timestamps) is a
        bug to surface, not a memory leak to absorb.
    """

    def __init__(self, max_label_sets: int = 512):
        if max_label_sets <= 0:
            raise ValueError(
                f"max_label_sets must be positive, got {max_label_sets}"
            )
        self.max_label_sets = max_label_sets
        self._families: dict[tuple[str, str], dict[LabelSet, object]] = {}

    # ------------------------------------------------------------------
    # instrument accessors (memoized; the hot path is two dict hits)
    # ------------------------------------------------------------------

    def _child(self, kind: str, name: str, labels: dict, factory):
        family = self._families.get((kind, name))
        if family is None:
            family = self._families[(kind, name)] = {}
        key = _label_key(labels) if labels else ()
        child = family.get(key)
        if child is None:
            if len(family) >= self.max_label_sets:
                raise ValueError(
                    f"{kind} {name!r} exceeded {self.max_label_sets} label "
                    f"sets (rejected {dict(labels)!r}); a label is "
                    "probably interpolating unbounded data"
                )
            child = family[key] = factory(key)
        return child

    def counter(self, name: str, **labels) -> Counter:
        return self._child(
            "counter", name, labels, lambda key: Counter(name, key)
        )

    def gauge(self, name: str, **labels) -> Gauge:
        return self._child("gauge", name, labels, lambda key: Gauge(name, key))

    def histogram(
        self, name: str, max_samples: int | None = None, **labels
    ) -> Histogram:
        size = max_samples if max_samples is not None else DEFAULT_RESERVOIR
        return self._child(
            "histogram", name, labels, lambda key: Histogram(name, size, key)
        )

    # ------------------------------------------------------------------
    # iteration / views
    # ------------------------------------------------------------------

    def collect(self) -> Iterator[object]:
        """Every instrument, ordered by (kind, name, labels) — the
        deterministic order the exporters render in."""
        for (kind, name) in sorted(self._families):
            family = self._families[(kind, name)]
            for key in sorted(family):
                yield family[key]

    def counters(self) -> dict[str, int]:
        """Unlabeled counters as a plain name → value dict (the
        :class:`~repro.service.metrics.ServiceMetrics` view)."""
        return {
            c.name: c.value
            for c in self._iter_kind("counter")
            if not c.labels
        }

    def gauges(self) -> dict[str, float]:
        return {
            g.name: g.value for g in self._iter_kind("gauge") if not g.labels
        }

    def histograms(self) -> dict[str, Histogram]:
        return {
            h.name: h for h in self._iter_kind("histogram") if not h.labels
        }

    def _iter_kind(self, kind: str) -> Iterator[object]:
        for (k, name) in sorted(self._families):
            if k != kind:
                continue
            family = self._families[(k, name)]
            for key in sorted(family):
                yield family[key]

    def __len__(self) -> int:
        return sum(len(family) for family in self._families.values())

    def __repr__(self) -> str:
        kinds = {"counter": 0, "gauge": 0, "histogram": 0}
        for (kind, _), family in self._families.items():
            kinds[kind] += len(family)
        return (
            f"MetricRegistry({kinds['counter']} counters, "
            f"{kinds['gauge']} gauges, {kinds['histogram']} histograms)"
        )

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------

    def merge(self, other: "MetricRegistry") -> None:
        """Fold ``other`` into this registry.

        Counters add; histograms merge reservoirs; gauges named
        ``*_max`` keep the high-water mark and all other gauges take
        the incoming value (it is the newer sample).
        """
        for instrument in other.collect():
            labels = dict(instrument.labels)
            if instrument.kind == "counter":
                self.counter(instrument.name, **labels).inc(instrument.value)
            elif instrument.kind == "gauge":
                mine = self.gauge(instrument.name, **labels)
                if instrument.name.endswith("_max"):
                    mine.max(instrument.value)
                else:
                    mine.set(instrument.value)
            else:
                self.histogram(
                    instrument.name,
                    max_samples=instrument.max_samples,
                    **labels,
                ).merge(instrument)

    def snapshot(self) -> dict:
        """JSON-ready nested dump (labels rendered inline)."""

        def _key(instrument) -> str:
            if not instrument.labels:
                return instrument.name
            rendered = ",".join(f"{k}={v}" for k, v in instrument.labels)
            return f"{instrument.name}{{{rendered}}}"

        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for instrument in self.collect():
            if instrument.kind == "counter":
                out["counters"][_key(instrument)] = instrument.value
            elif instrument.kind == "gauge":
                out["gauges"][_key(instrument)] = instrument.value
            else:
                out["histograms"][_key(instrument)] = instrument.to_dict()
        return out

    def clear(self) -> None:
        self._families.clear()


#: The process-wide default registry (the one ``--metrics-port``
#: serves and the replay / engine layers publish into by default).
_REGISTRY = MetricRegistry()


def get_registry() -> MetricRegistry:
    return _REGISTRY
