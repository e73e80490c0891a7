"""A unified, thread-safe metrics registry: counters, gauges, histograms.

This is the single runtime home for the serving stack's counters
(``ServingStats``, ``PlanCache.stats``, expression fallbacks, the
queries-in-flight gauge): their attribute APIs land on registry-backed
instruments, so one snapshot (or one Prometheus scrape) sees the whole
system.

Three instrument kinds, all labeled and all safe for concurrent use,
held by two classes:

* :class:`Scalar` — one number, of ``kind`` ``"counter"`` (a monotonic
  count, ``inc``) or ``"gauge"`` (a point-in-time level,
  ``set``/``inc``/``dec``);
* :class:`Histogram` — **log-bucketed** distribution for latencies: the
  bucket bounds grow geometrically (default ×2\\ :sup:`1/4` from 1µs),
  so the p50/p95/p99 estimates carry a bounded *relative* error (one
  growth factor) across six decades of latency while storing ~130 ints.

Exporters: :meth:`MetricsRegistry.snapshot` (one JSON-able dict, with
quantile estimates) and :meth:`MetricsRegistry.to_prometheus`
(Prometheus text exposition format, cumulative ``_bucket`` counts).

Hot-path cost: an instrument operation is one lock acquire + an integer
add (histograms add one ``bisect``); instruments are created once and
held by their owners, so the registry dict is not on the per-query path.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Default geometric bucket layout for latency histograms: 1µs … ~1h,
#: growing ×2^0.25 (~19%) per bucket. Quantile estimates interpolate
#: geometrically inside a bucket, so the worst-case relative error of a
#: reported quantile is one growth factor.
DEFAULT_START = 1e-6
DEFAULT_GROWTH = 2.0 ** 0.25
DEFAULT_MAX_VALUE = 3600.0

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Optional[Mapping[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_key(name: str, labels: LabelItems) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def _render_prometheus_labels(labels: LabelItems,
                              extra: Optional[Tuple[str, str]] = None) -> str:
    items = list(labels)
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in items)
    return f"{{{inner}}}"


COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


class Scalar:
    """One number: a monotonic counter or a point-in-time level (``kind``).

    The kind only decides how exporters label it. A counter's ``set``
    serves the stats attribute properties (``stats.field += 1`` reads then
    sets under the caller's own lock).
    """

    __slots__ = ("name", "labels", "kind", "_lock", "_value")

    def __init__(self, name: str, labels: LabelItems = (),
                 kind: str = COUNTER):
        self.name = name
        self.labels = labels
        self.kind = kind
        self._lock = threading.Lock()
        self._value = 0

    def set(self, value) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount=1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount=1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self):
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return (f"{self.kind.capitalize()}("
                f"{_render_key(self.name, self.labels)}={self.value})")


def geometric_bounds(start: float, growth: float,
                     max_value: float) -> List[float]:
    """Geometric bucket upper bounds ``start, start*growth, … >= max_value``."""
    if start <= 0 or growth <= 1.0 or max_value <= start:
        raise ValueError("need start > 0, growth > 1, max_value > start")
    bounds = [start]
    while bounds[-1] < max_value:
        bounds.append(bounds[-1] * growth)
    return bounds


class Histogram:
    """A log-bucketed distribution with quantile estimation.

    ``observe`` is one bisect + one add under the instrument lock.
    ``quantile(q)`` walks the cumulative counts and interpolates
    *geometrically* within the landing bucket (log-linear, matching the
    bucket layout), clamped to the observed min/max — so a
    single-valued histogram reports that value exactly, and in general
    the estimate is within one ``growth`` factor of the true quantile.
    Explicit ``bounds`` override the geometric layout (used by tests
    and by count-valued histograms).
    """

    __slots__ = ("name", "labels", "_lock", "_bounds", "_counts",
                 "_count", "_sum", "_min", "_max")
    kind = HISTOGRAM

    def __init__(self, name: str, labels: LabelItems = (),
                 start: float = DEFAULT_START, growth: float = DEFAULT_GROWTH,
                 max_value: float = DEFAULT_MAX_VALUE,
                 bounds: Optional[Sequence[float]] = None):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        if bounds is not None:
            self._bounds = sorted(float(b) for b in bounds)
            if not self._bounds:
                raise ValueError("bounds must be non-empty")
        else:
            self._bounds = geometric_bounds(start, growth, max_value)
        # One count per bound ("value <= bound" bucket) + overflow.
        self._counts = [0] * (len(self._bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> Optional[float]:
        """Estimated q-quantile (q in [0, 1]); None when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            if not self._count:
                return None
            target = q * self._count
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                if bucket_count and cumulative + bucket_count >= target:
                    break
                cumulative += bucket_count
            low_seen, high_seen = self._min, self._max
        if index == len(self._bounds):
            # Overflow bucket: the max is the best point estimate.
            return high_seen
        high = self._bounds[index]
        low = self._bounds[index - 1] if index else high / DEFAULT_GROWTH
        fraction = min(1.0, (target - cumulative) / bucket_count)
        if low > 0 and high > low:
            estimate = low * (high / low) ** fraction
        else:
            estimate = low + (high - low) * fraction
        # A quantile never falls outside [min, max], whatever the bucket
        # bounds say.
        return min(high_seen, max(low_seen, estimate))

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            count, total = self._count, self._sum
            low, high = self._min, self._max
        return {
            "count": count,
            "sum": total,
            "min": low,
            "max": high,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus style
        (the final pair is ``(inf, total_count)``)."""
        with self._lock:
            out: List[Tuple[float, int]] = []
            cumulative = 0
            for bound, bucket_count in zip(self._bounds, self._counts):
                cumulative += bucket_count
                out.append((bound, cumulative))
            out.append((float("inf"), self._count))
            return out

    def __repr__(self) -> str:
        return (f"Histogram({_render_key(self.name, self.labels)}, "
                f"count={self.count})")


class MetricsRegistry:
    """Named, labeled instruments with snapshot + Prometheus exporters.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    for a ``(name, labels)`` pair creates the instrument, later calls
    return the same object — so independent components meeting on one
    registry (session counters, plan-cache counters, the in-flight gauge)
    aggregate instead of colliding. Requesting an existing name as a
    different kind raises.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: "Dict[Tuple[str, LabelItems], object]" = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, kind: str, name: str,
                       labels: Optional[Mapping[str, str]], **kwargs):
        key = (name, _label_items(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = self._instruments[key] = (
                    Histogram(name, key[1], **kwargs) if kind == HISTOGRAM
                    else Scalar(name, key[1], kind))
            elif instrument.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{instrument.kind}, requested {kind}")
            return instrument

    def counter(self, name: str,
                labels: Optional[Mapping[str, str]] = None) -> Scalar:
        return self._get_or_create(COUNTER, name, labels)

    def gauge(self, name: str,
              labels: Optional[Mapping[str, str]] = None) -> Scalar:
        return self._get_or_create(GAUGE, name, labels)

    def histogram(self, name: str,
                  labels: Optional[Mapping[str, str]] = None,
                  **kwargs) -> Histogram:
        return self._get_or_create(HISTOGRAM, name, labels, **kwargs)

    def instruments(self) -> List[object]:
        """Point-in-time instrument list, sorted by (name, labels)."""
        with self._lock:
            items = sorted(self._instruments.items())
            return [instrument for _, instrument in items]

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """One JSON-able dict of everything the registry holds."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        for instrument in self.instruments():
            key = _render_key(instrument.name, instrument.labels)
            if isinstance(instrument, Scalar):
                out[f"{instrument.kind}s"][key] = instrument.value
            else:
                out["histograms"][key] = instrument.snapshot()
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (one scrape payload).

        Instruments sharing a name emit one ``# TYPE`` header; histogram
        buckets are cumulative with the standard ``le`` label and
        ``+Inf`` terminator, plus ``_sum`` and ``_count`` series.
        """
        lines: List[str] = []
        seen_types: set = set()
        for instrument in self.instruments():
            name = instrument.name
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {instrument.kind}")
            labels = instrument.labels
            if isinstance(instrument, Scalar):
                rendered = _render_prometheus_labels(labels)
                lines.append(f"{name}{rendered} {_format(instrument.value)}")
                continue
            for bound, cumulative in instrument.bucket_counts():
                le = "+Inf" if bound == float("inf") else _format(bound)
                rendered = _render_prometheus_labels(labels, ("le", le))
                lines.append(f"{name}_bucket{rendered} {cumulative}")
            rendered = _render_prometheus_labels(labels)
            lines.append(f"{name}_sum{rendered} {_format(instrument.sum)}")
            lines.append(f"{name}_count{rendered} {instrument.count}")
        return "\n".join(lines) + "\n"


def _format(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.9g}"


def _counter_property(name: str) -> property:
    """Attribute view of ``self._counters[name]``: read the value, assign
    to set it."""
    def fget(self):
        return self._counters[name].value

    def fset(self, value):
        self._counters[name].set(value)

    return property(fget, fset)


class CounterStats:
    """A family of monotonic counters with a dataclass-like attribute API.

    A subclass is a ``PREFIX`` and a ``FIELDS`` tuple (plus whatever it
    derives from them). Each field lives on a :class:`MetricsRegistry`
    as the counter ``<PREFIX>_<field>`` — a private registry until one
    is passed or :meth:`bind` re-homes the family onto a shared one — and
    reads, assigns and increments like a plain attribute: assignment sets
    the counter, so ``stats.field += 1`` is a read then a write, and
    its sites are serialized by their owners' locks; :meth:`inc` is the
    atomic increment for writers that hold no lock. Construction takes
    initial values positionally in ``FIELDS`` order or by name; equality
    compares the counters.
    """

    PREFIX = ""
    FIELDS: Tuple[str, ...] = ()

    __slots__ = ("_counters",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name in cls.FIELDS:
            setattr(cls, name, _counter_property(name))

    def __init__(self, *values: int,
                 registry: Optional[MetricsRegistry] = None, **named: int):
        initial = dict(zip(self.FIELDS, values), **named)
        unknown = set(initial) - set(self.FIELDS)
        if unknown or len(values) > len(self.FIELDS):
            raise TypeError(f"{type(self).__name__} takes {self.FIELDS}, "
                            f"got {values} {named}")
        if registry is None:
            registry = MetricsRegistry()
        self._counters: Dict[str, Scalar] = {}
        for name in self.FIELDS:
            counter = self._counters[name] = registry.counter(
                f"{self.PREFIX}_{name}")
            counter.inc(initial.get(name, 0))

    def bind(self, registry: MetricsRegistry) -> None:
        """Re-home the counters onto ``registry`` (a session's shared
        one), carrying the values accumulated so far."""
        for name in self.FIELDS:
            current = self._counters[name]
            target = registry.counter(current.name)
            if target is current:
                continue
            value = current.value
            if value:
                target.inc(value)
            self._counters[name] = target

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the field ``name`` under the counter's own
        lock: atomic without an owner's lock."""
        self._counters[name].inc(amount)

    def _values(self) -> Tuple[int, ...]:
        return tuple(self._counters[name].value for name in self.FIELDS)

    def snapshot(self):
        """A detached copy (on a private registry) of the current values."""
        return type(self)(*self._values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value}" for name, value
                          in zip(self.FIELDS, self._values()))
        return f"{type(self).__name__}({inner})"
