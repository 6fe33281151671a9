"""Distributed tracing primitives for the serving stack.

The model is deliberately small — an OpenTelemetry-shaped subset that fits
this codebase:

``TraceContext``
    The wire-format identity of a span: ``trace_id`` / ``span_id`` /
    ``parent_id`` plus the sampling decision.  Contexts serialize to plain
    tuples so they can ride the fleet RPC framing between processes.

``Span``
    A named, timed unit of work with attributes and events.  Spans are
    context managers; exiting finishes the span and hands it to its tracer.

``Tracer``
    Mints spans.  Ids are deterministic under a seed (a splitmix64 mix of
    seed-derived salts and a per-tracer counter) so seeded runs — tests,
    scenario replays — produce identical trace ids.  Sampling is head-based: the decision is
    made once at the root span and propagated to every child, including
    across processes.  A disabled tracer (``sample_rate=0``) returns a
    shared no-op span, so tracing-off costs one method call per request.

Finished sampled spans land in a bounded in-memory buffer (drained by the
fleet worker reply path), optionally in a :class:`SpanCollector`, a
:class:`~repro.obs.recorder.FlightRecorder`, and — bounded by a token
bucket so an overload cannot amplify into disk pressure — a JSONL export
sink.

``traced_section`` attaches child spans to whatever span the current
thread activated (a ``contextvars`` slot), which is how the serving layer
gains encode/forward spans without threading a tracer through
``CostInferenceService``.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import itertools
import json
import os
import threading
import typing
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field

__all__ = [
    "TraceContext",
    "Span",
    "NULL_SPAN",
    "Tracer",
    "SpanCollector",
    "SpanTree",
    "ObsConfig",
    "current_span",
    "activate_span",
    "traced_section",
]


class TraceContext(typing.NamedTuple):
    """Identity of one span, small enough to ride RPC framing.

    A NamedTuple rather than a dataclass: contexts are built once per span
    on the request path, and tuple construction is measurably cheaper than
    a frozen dataclass ``__init__``.
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None
    sampled: bool = True

    def to_wire(self):
        """Serialize for the fleet RPC framing (plain tuple)."""
        return (self.trace_id, self.span_id, self.parent_id, self.sampled)

    @classmethod
    def from_wire(cls, wire) -> "TraceContext | None":
        if wire is None:
            return None
        trace_id, span_id, parent_id, sampled = wire
        return cls(trace_id, span_id, parent_id, bool(sampled))


class Span:
    """A timed unit of work.  Use as a context manager or call finish()."""

    __slots__ = (
        "name",
        "context",
        "start_time",
        "end_time",
        "attrs",
        "events",
        "_tracer",
        "_perf_start",
        "_finished",
    )

    sampled = True

    def __init__(self, tracer, name, context, attrs=None):
        self.name = name
        self.context = context
        self.start_time = time.time()
        self.end_time = None
        self.attrs = dict(attrs) if attrs else {}
        self.events = []
        self._tracer = tracer
        self._perf_start = time.perf_counter()
        self._finished = False

    @property
    def trace_id(self):
        return self.context.trace_id

    @property
    def span_id(self):
        return self.context.span_id

    def set_attr(self, key, value):
        self.attrs[key] = value

    def set_attrs(self, **attrs):
        self.attrs.update(attrs)

    def add_event(self, name, **attrs):
        self.events.append({"name": name, "t": time.time(), **attrs})

    def finish(self):
        if self._finished:
            return
        self._finished = True
        self.end_time = self.start_time + (time.perf_counter() - self._perf_start)
        self._tracer._on_finish(self)

    def as_dict(self):
        return {
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "parent_id": self.context.parent_id,
            "name": self.name,
            "process": self._tracer.process_label,
            "pid": os.getpid(),
            "start": self.start_time,
            "duration_ms": None
            if self.end_time is None
            else (self.end_time - self.start_time) * 1e3,
            "attrs": self.attrs,
            "events": self.events,
        }

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.attrs.setdefault("error", repr(exc))
        self.finish()
        return False


class _NullSpan:
    """Shared no-op span returned when tracing is off or unsampled."""

    __slots__ = ()

    sampled = False
    context = None
    trace_id = None
    span_id = None
    name = "null"
    attrs: dict = {}

    def set_attr(self, key, value):
        pass

    def set_attrs(self, **attrs):
        pass

    def add_event(self, name, **attrs):
        pass

    def finish(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


NULL_SPAN = _NullSpan()

#: Slots in a tracer's precomputed sampling-decision table (power of two).
_DECISION_TABLE_SIZE = 4096

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x):
    """splitmix64 finalizer: uniform, bijective on 64 bits, ~20x cheaper
    than the sha256 it replaced on the per-span minting path."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64

_ACTIVE_SPAN: contextvars.ContextVar = contextvars.ContextVar(
    "repro_active_span", default=None
)


def current_span():
    """The span activated in this thread/context, or None."""
    return _ACTIVE_SPAN.get()


@contextlib.contextmanager
def activate_span(span):
    """Make ``span`` the implicit parent for traced_section in this context."""
    token = _ACTIVE_SPAN.set(span)
    try:
        yield span
    finally:
        _ACTIVE_SPAN.reset(token)


@contextlib.contextmanager
def traced_section(name, **attrs):
    """Child span under the active span; near-free when nothing is active."""
    parent = _ACTIVE_SPAN.get()
    if parent is None or not parent.sampled:
        yield NULL_SPAN
        return
    span = parent._tracer.start_span(name, parent=parent, attrs=attrs or None)
    token = _ACTIVE_SPAN.set(span)
    try:
        yield span
    except BaseException as exc:
        span.attrs.setdefault("error", repr(exc))
        raise
    finally:
        _ACTIVE_SPAN.reset(token)
        span.finish()


class Tracer:
    """Mints spans with deterministic-under-seed ids and head sampling.

    Parameters
    ----------
    sample_rate:
        Probability that a new root trace is sampled.  ``0.0`` disables the
        tracer entirely (every start returns :data:`NULL_SPAN`); child spans
        of an already-sampled parent context are always created so
        cross-process propagation works even when the local rate is 0.
    seed:
        When given, trace/span ids are a pure function of (seed, counter):
        two tracers with the same seed mint identical id sequences.
    export_path:
        Optional JSONL file; finished sampled spans are appended, rate
        bounded by ``max_export_per_sec`` (token bucket, bursts allowed).
    collector:
        Optional :class:`SpanCollector` fed every finished sampled span.
    recorder:
        Optional flight recorder fed every finished sampled span.
    """

    def __init__(
        self,
        sample_rate=1.0,
        *,
        seed=None,
        export_path=None,
        max_export_per_sec=200.0,
        collector=None,
        recorder=None,
        max_buffered_spans=8192,
        process_label="main",
        clock=time.monotonic,
    ):
        if not 0.0 <= float(sample_rate) <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.sample_rate = float(sample_rate)
        self.process_label = str(process_label)
        self._clock = clock
        if seed is None:
            self._key = os.urandom(16).hex()
        else:
            self._key = f"seed:{int(seed)}"
        # itertools.count: atomically incremented in C, so the every-request
        # sampling path never takes a Python lock.
        self._counter = itertools.count()
        # Per-tracer salts for the cheap per-span id hash.  Ids stay a pure
        # function of (seed, counter) — splitmix64 is a bijection, so ids
        # never collide within a tracer — but cost one 64-bit mix instead
        # of the sha256 an earlier version paid per mint.
        self._sample_salt = int.from_bytes(
            hashlib.sha256(f"{self._key}|sample".encode()).digest()[:8], "big"
        )
        self._trace_salt_hi = int.from_bytes(
            hashlib.sha256(f"{self._key}|trace-hi".encode()).digest()[:8], "big"
        )
        self._trace_salt_lo = int.from_bytes(
            hashlib.sha256(f"{self._key}|trace-lo".encode()).digest()[:8], "big"
        )
        self._span_salt = int.from_bytes(
            hashlib.sha256(f"{self._key}|span".encode()).digest()[:8], "big"
        )
        # The sampling decision runs on EVERY request when tracing is on,
        # so it is precomputed: one splitmix pass per table slot at init,
        # a single list index at runtime (decision period = table size,
        # irrelevant for head sampling).  A non-zero rate always keeps at
        # least one sampled slot so tiny rates cannot silently disable
        # tracing.
        self._decision_mask = _DECISION_TABLE_SIZE - 1
        if 0.0 < self.sample_rate < 1.0:
            threshold = int(self.sample_rate * 2**64)
            table = [
                _splitmix64(self._sample_salt + n) < threshold
                for n in range(_DECISION_TABLE_SIZE)
            ]
            if not any(table):
                table[
                    min(
                        range(_DECISION_TABLE_SIZE),
                        key=lambda n: _splitmix64(self._sample_salt + n),
                    )
                ] = True
            self._decisions = table
        else:
            self._decision_mask = 0
            self._decisions = [self.sample_rate >= 1.0]
        self._lock = threading.Lock()
        self._buffer = deque(maxlen=int(max_buffered_spans))
        self._collector = collector
        self._recorder = recorder
        self._export_path = export_path
        self._export_lock = threading.Lock()
        self._bucket = float(max_export_per_sec)
        self._bucket_max = max(1.0, float(max_export_per_sec))
        self._bucket_rate = float(max_export_per_sec)
        self._bucket_at = clock()
        self._spans_started = 0
        self._spans_dropped = 0
        self._spans_exported = 0

    @property
    def enabled(self):
        return self.sample_rate > 0.0

    # -- id minting ------------------------------------------------------

    def _mint_span_id(self):
        n = next(self._counter)
        return format(_splitmix64(self._span_salt + n), "016x")

    # -- span creation ---------------------------------------------------

    def start_trace(self, name, *, parent=None, attrs=None):
        """Start a root span (or a child of a cross-process parent context).

        ``parent`` is a :class:`TraceContext` from upstream (e.g. the fleet
        parent process) or None for a brand-new trace.  The upstream
        sampling decision wins: a sampled parent always yields a real span,
        an unsampled one always yields :data:`NULL_SPAN`.
        """
        if parent is not None:
            if not parent.sampled:
                return NULL_SPAN
            ctx = TraceContext(parent.trace_id, self._mint_span_id(), parent.span_id, True)
            self._spans_started += 1
            return Span(self, name, ctx, attrs)
        # Decide sampling BEFORE minting: unsampled requests (the vast
        # majority at production rates) then pay one counter bump and one
        # table lookup — no hashing at all.
        n = next(self._counter)
        if not self._decisions[n & self._decision_mask]:
            return NULL_SPAN
        trace_id = format(_splitmix64(self._trace_salt_hi + n), "016x") + format(
            _splitmix64(self._trace_salt_lo + n), "016x"
        )
        self._spans_started += 1
        return Span(
            self, name, TraceContext(trace_id, self._mint_span_id(), None, True), attrs
        )

    def start_span(self, name, *, parent, attrs=None):
        """Child span of a live Span (or TraceContext) in this process."""
        if parent is None or not parent.sampled:
            return NULL_SPAN
        ctx = parent.context if isinstance(parent, Span) else parent
        self._spans_started += 1
        return Span(
            self,
            name,
            TraceContext(ctx.trace_id, self._mint_span_id(), ctx.span_id, True),
            attrs,
        )

    # -- finish pipeline -------------------------------------------------

    def _on_finish(self, span):
        if self._collector is None and self._recorder is None and self._export_path is None:
            # No sinks: buffer the finished Span itself and materialize the
            # record dict lazily at drain() — keeps the per-span cost off
            # the request path when nothing consumes records eagerly.
            with self._lock:
                if len(self._buffer) == self._buffer.maxlen:
                    self._spans_dropped += 1
                self._buffer.append(span)
            return
        record = span.as_dict()
        with self._lock:
            if len(self._buffer) == self._buffer.maxlen:
                self._spans_dropped += 1
            self._buffer.append(record)
        if self._collector is not None:
            self._collector.add(record)
        if self._recorder is not None:
            self._recorder.record_span(record)
        if self._export_path is not None and self._take_token():
            self._export(record)

    def _take_token(self):
        with self._export_lock:
            now = self._clock()
            self._bucket = min(
                self._bucket_max, self._bucket + (now - self._bucket_at) * self._bucket_rate
            )
            self._bucket_at = now
            if self._bucket >= 1.0:
                self._bucket -= 1.0
                return True
            return False

    def _export(self, record):
        line = json.dumps(record, sort_keys=True, default=str)
        with self._export_lock:
            with open(self._export_path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        self._spans_exported += 1

    # -- draining --------------------------------------------------------

    def drain(self, trace_id=None):
        """Pop buffered span records — all, or only those of one trace."""
        with self._lock:
            if trace_id is None:
                out = list(self._buffer)
                self._buffer.clear()
                return [s.as_dict() if isinstance(s, Span) else s for s in out]
            out, keep = [], []
            for item in self._buffer:
                tid = (
                    item.context.trace_id if isinstance(item, Span) else item["trace_id"]
                )
                (out if tid == trace_id else keep).append(item)
            self._buffer.clear()
            self._buffer.extend(keep)
            return [s.as_dict() if isinstance(s, Span) else s for s in out]

    def stats(self):
        with self._lock:
            buffered = len(self._buffer)
        return {
            "sample_rate": self.sample_rate,
            "spans_started": self._spans_started,
            "spans_buffered": buffered,
            "spans_dropped": self._spans_dropped,
            "spans_exported": self._spans_exported,
        }


DISABLED_TRACER = Tracer(sample_rate=0.0, seed=0)


class SpanTree:
    """A stitched view of one trace across processes."""

    def __init__(self, trace_id, spans):
        self.trace_id = trace_id
        self.spans = list(spans)
        self._by_id = {s["span_id"]: s for s in self.spans}

    def __len__(self):
        return len(self.spans)

    def names(self):
        return sorted(s["name"] for s in self.spans)

    def processes(self):
        return sorted({(s["process"], s["pid"]) for s in self.spans})

    def roots(self):
        return [
            s
            for s in self.spans
            if s["parent_id"] is None or s["parent_id"] not in self._by_id
        ]

    def missing_parents(self):
        """Parent span ids referenced but not present — empty iff complete."""
        return sorted(
            {
                s["parent_id"]
                for s in self.spans
                if s["parent_id"] is not None and s["parent_id"] not in self._by_id
            }
        )

    def is_complete(self):
        """True when every parent edge resolves and exactly one root exists."""
        return bool(self.spans) and not self.missing_parents() and len(
            [s for s in self.spans if s["parent_id"] is None]
        ) == 1

    def children(self, span_id):
        return [s for s in self.spans if s["parent_id"] == span_id]

    def render(self, indent="  "):
        """Human-readable tree, children ordered by start time."""
        lines = []

        def walk(span, depth):
            dur = span.get("duration_ms")
            dur_s = f" {dur:.2f}ms" if dur is not None else ""
            attrs = span.get("attrs") or {}
            attr_s = (
                " {" + ", ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + "}"
                if attrs
                else ""
            )
            lines.append(
                f"{indent * depth}{span['name']} [{span['process']}/{span['pid']}]"
                f"{dur_s}{attr_s}"
            )
            for child in sorted(self.children(span["span_id"]), key=lambda s: s["start"]):
                walk(child, depth + 1)

        for root in sorted(self.roots(), key=lambda s: s["start"]):
            walk(root, 0)
        return "\n".join(lines)

    def as_dict(self):
        return {
            "trace_id": self.trace_id,
            "n_spans": len(self.spans),
            "complete": self.is_complete(),
            "names": self.names(),
            "processes": [list(p) for p in self.processes()],
        }


class SpanCollector:
    """Accumulates span records per trace; bounded by trace count (LRU)."""

    def __init__(self, max_traces=1024):
        self._traces: OrderedDict = OrderedDict()
        self._max_traces = int(max_traces)
        self._lock = threading.Lock()
        self._evicted = 0

    def add(self, record):
        trace_id = record.get("trace_id")
        if not trace_id:
            return
        with self._lock:
            spans = self._traces.get(trace_id)
            if spans is None:
                spans = []
                self._traces[trace_id] = spans
                while len(self._traces) > self._max_traces:
                    self._traces.popitem(last=False)
                    self._evicted += 1
            else:
                self._traces.move_to_end(trace_id)
            spans.append(record)

    def add_many(self, records):
        for record in records:
            self.add(record)

    def trace_ids(self):
        with self._lock:
            return list(self._traces)

    def tree(self, trace_id):
        with self._lock:
            spans = list(self._traces.get(trace_id, ()))
        return SpanTree(trace_id, spans)

    def stats(self):
        with self._lock:
            return {
                "traces": len(self._traces),
                "spans": sum(len(v) for v in self._traces.values()),
                "evicted_traces": self._evicted,
            }


@dataclass(frozen=True)
class ObsConfig:
    """Observability wiring for a fleet: what each process builds
    (:meth:`build`).

    ``sample_rate``/``seed`` parameterize each process's tracer (worker
    seeds are derived per worker id so ids never collide across shards);
    ``dump_dir`` is where flight recorders write incident snapshots;
    ``export_path`` is the parent-side JSONL span sink.
    """

    sample_rate: float = 1.0
    seed: int | None = None
    export_path: str | None = None
    dump_dir: str | None = None
    max_export_per_sec: float = 200.0
    recorder_capacity: int = 4096
    slo: object | None = field(default=None, compare=False)

    def build(self, process_label, *, collector=None):
        """One process's ``(tracer, recorder, slo)``, the tracer feeding
        the recorder so an incident dump holds the sampled spans before it
        (``slo`` is ``None`` without an ``slo`` config).  The process given
        the ``collector`` is the fleet parent: it mints ids from ``seed``
        and owns the JSONL export.  A worker derives its seed from its
        ``process_label`` and exports nothing: its spans ride the replies
        to the parent's collector."""
        from repro.evaluation.pool import derive_seed
        from repro.obs.recorder import FlightRecorder
        from repro.obs.slo import SLOMonitor

        parent = collector is not None
        seed = self.seed
        if seed is not None and not parent:
            seed = derive_seed(seed, f"trace-{process_label}")
        recorder = FlightRecorder(
            self.recorder_capacity, dump_dir=self.dump_dir, process_label=process_label
        )
        tracer = Tracer(
            self.sample_rate,
            seed=seed,
            export_path=self.export_path if parent else None,
            max_export_per_sec=self.max_export_per_sec,
            collector=collector,
            recorder=recorder,
            process_label=process_label,
        )
        return tracer, recorder, SLOMonitor(self.slo) if self.slo is not None else None
