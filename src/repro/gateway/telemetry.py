"""Thread-safe telemetry core for the serving front end.

Three instrument kinds, one registry:

* :class:`Counter` — monotonically increasing totals (requests served,
  fallbacks by reason, breaker trips);
* :class:`Gauge` — point-in-time values (queue depth, breaker state,
  serving-cache hit counters mirrored from the inference service);
* :class:`Histogram` — latency/size distributions with p50/p95/p99 read
  from a bounded reservoir of recent observations, plus exact
  count/sum/min/max over the full lifetime.

A :class:`Telemetry` registry creates instruments on first use (get-or-
create, so instrumented code never needs registration boilerplate) and
exports everything as a JSON-able snapshot or Prometheus text exposition
(counters, gauges, and summaries with quantile labels; one renderer,
:func:`render_prometheus`, serves a registry and a merged fleet snapshot
alike).  All instruments are safe to update from multiple
threads; exports take a consistent per-instrument snapshot.  Hot paths hold
their instruments as attributes (one lookup, not one per update); gauges that
mirror another object are set by collectors when an export is read.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, deque

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "SHED_REASONS",
    "Telemetry",
    "escape_label_value",
    "escape_help_text",
    "render_prometheus",
]

#: Quantiles reported for every histogram, in export order.
QUANTILES = (0.50, 0.95, 0.99)
#: The snapshot keys those quantiles are reported under.
QUANTILE_KEYS = tuple(f"p{int(q * 100)}" for q in QUANTILES)

#: The admission decisions that count as *shedding* — refusing a request
#: the learned path will never see, for load (not health) reasons.  Each
#: gets its own counter so dashboards can tell a full queue from a pacing
#: refusal from a blown budget from a shutdown refusal.
SHED_REASONS = ("queue-full", "pacer-limit", "deadline", "closed")


def _sanitize(name: str) -> str:
    """Prometheus metric names allow ``[a-zA-Z0-9_:]`` only."""
    return "".join(c if c.isalnum() or c in "_:" else "_" for c in name)


def escape_label_value(value) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double-quote, and line-feed must be backslash-escaped."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def escape_help_text(text: str) -> str:
    """HELP lines escape backslash and line-feed (quotes are legal there)."""
    return str(text).replace("\\", r"\\").replace("\n", r"\n")


class Counter:
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A value that can go up and down (or be set outright)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Lifetime count/sum/min/max plus quantiles over a recent reservoir.

    The reservoir is a bounded FIFO window (not a decaying sample): p50/p95/
    p99 describe the last ``window`` observations, which is what an operator
    watching a serving dashboard wants — current behaviour, not the average
    over a process lifetime that may span several model versions.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "", *, window: int = 2048) -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._window: deque[float] = deque(maxlen=window)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._nonfinite = 0

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            # A single NaN would poison mean/sum forever and an inf would
            # pin max/quantiles; drop it but keep the evidence countable.
            with self._lock:
                self._nonfinite += 1
            return
        with self._lock:
            self._window.append(value)
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (nearest-rank) of the recent window; 0.0 when
        nothing has been observed."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if not self._window:
                return 0.0
            ordered = sorted(self._window)
        return ordered[int(q * (len(ordered) - 1))]

    def snapshot(self, *, include_samples: bool = False) -> dict:
        """Summary statistics; with ``include_samples`` the raw reservoir
        window rides along under ``"samples"`` so a downstream merge (the
        fleet's :func:`repro.fleet.telemetry.merge_snapshots`) can compute
        *exact* cross-shard quantiles instead of a max bound."""
        with self._lock:
            window = sorted(self._window)
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
            nonfinite = self._nonfinite
        quantiles = {
            key: (window[int(q * (len(window) - 1))] if window else 0.0)
            for q, key in zip(QUANTILES, QUANTILE_KEYS)
        }
        out = {
            "count": count,
            "sum": total,
            "min": lo if count else 0.0,
            "max": hi if count else 0.0,
            "mean": total / count if count else 0.0,
            "nonfinite": nonfinite,
            **quantiles,
        }
        if include_samples:
            out["samples"] = window
        return out


class Telemetry:
    """Get-or-create instrument registry with JSON and Prometheus export."""

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = _sanitize(namespace)
        self._lock = threading.Lock()
        self._instruments: "OrderedDict[str, Counter | Gauge | Histogram]" = OrderedDict()
        self._collectors: list = []

    # -- instrument access ----------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name, help, **kwargs)
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"telemetry name {name!r} is a {instrument.kind}, "
                    f"requested {cls.__name__.lower()}"
                )
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "", *, window: int = 2048) -> Histogram:
        return self._get_or_create(Histogram, name, help, window=window)

    def add_collector(self, collect) -> None:
        """Run ``collect()`` at the top of every :meth:`snapshot` and
        :meth:`to_prometheus`, for as long as the registry lives: gauges
        mirroring another object's state (cache tallies, breaker state) are
        set there, when read, not on the path that serves requests."""
        with self._lock:
            self._collectors.append(collect)

    def _collected(self) -> list:
        with self._lock:
            collectors = list(self._collectors)
        for collect in collectors:
            collect()
        with self._lock:
            return list(self._instruments.values())

    def record_shed(self, reason: str) -> None:
        """Count one shed admission decision, split by reason.

        ``sheds_total`` aggregates; ``shed_<reason>_total`` (one counter
        per :data:`SHED_REASONS` entry) attributes it, so the queue-full /
        pacer-limit / deadline / closed split is visible in both the JSON
        and Prometheus exports without callers managing counter names.
        """
        if reason not in SHED_REASONS:
            raise ValueError(
                f"unknown shed reason {reason!r}; expected one of {SHED_REASONS}"
            )
        self.counter("sheds_total", "requests shed at admission, all reasons").inc()
        self.counter(
            f"shed_{reason.replace('-', '_')}_total", f"requests shed: {reason}"
        ).inc()

    # -- export ---------------------------------------------------------------

    def snapshot(self, *, include_samples: bool = False) -> dict:
        """One consistent-enough JSON-able view of every instrument.
        ``include_samples`` forwards to every histogram (raw reservoirs for
        exact downstream merging)."""
        instruments = self._collected()
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for instrument in instruments:
            if isinstance(instrument, Histogram):
                snap = instrument.snapshot(include_samples=include_samples)
            else:
                snap = instrument.snapshot()
            out[f"{instrument.kind}s"][instrument.name] = snap
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition of :meth:`snapshot`, with each
        instrument's help text."""
        snapshot = self.snapshot()
        with self._lock:
            helps = {name: i.help for name, i in self._instruments.items() if i.help}
        return render_prometheus(snapshot, self.namespace, helps=helps)


def render_prometheus(snapshot: dict, namespace: str, *, helps=None) -> str:
    """Prometheus text exposition of a snapshot-shaped dict (a registry's
    :meth:`Telemetry.snapshot`, or a merged fleet snapshot): counters and
    gauges verbatim, histograms as summaries with quantile labels plus
    ``_count``/``_sum``.  ``helps`` maps instrument names to HELP text."""
    ns = _sanitize(namespace)
    helps = helps or {}
    lines: list[str] = []
    kinds = (("counters", "counter"), ("gauges", "gauge"), ("histograms", "summary"))
    for kind, type_ in kinds:
        for name, value in snapshot.get(kind, {}).items():
            metric = f"{ns}_{_sanitize(name)}"
            if name in helps:
                lines.append(f"# HELP {metric} {escape_help_text(helps[name])}")
            lines.append(f"# TYPE {metric} {type_}")
            if type_ != "summary":
                lines.append(f"{metric} {value:.10g}")
                continue
            for q, key in zip(QUANTILES, QUANTILE_KEYS):
                label = escape_label_value(f"{q:g}")
                lines.append(f'{metric}{{quantile="{label}"}} {value[key]:.10g}')
            lines.append(f"{metric}_sum {value['sum']:.10g}")
            lines.append(f"{metric}_count {value['count']}")
    return "\n".join(lines) + "\n"
