"""In-memory span recorder, self-time arithmetic and percentile helpers.

A span is ``(span_id, parent_id, request_id, name, start, end)`` with times
in ``perf_counter`` seconds; ``parent_id`` 0 marks a request's root.  Spans
are recorded by the benchmark's own code around calls into each layer and
written out as JSONL when the run ends.  A coalesced ``serving.predict``
batch is recorded once per request it carried (same ``span_id``, one row
per parent), so every request's tree is complete on its own.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import threading
from array import array
from collections import defaultdict, deque

#: Tail percentiles tried, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10
#: Every span name this benchmark records.
NAMES = ("bench.request", "gateway.request", "fleet.request", "serving.predict",
         "pacing.try_admit")
_NAME_CODE = {name: float(code) for code, name in enumerate(NAMES)}


class SpanRecorder:
    """Append-only span store.

    Tracing is on in the odd rounds of the measured window, so traced and
    untraced rounds alternate inside one process and their goodput ratio is
    the tracing overhead.  The hot path only appends numbers to flat arrays
    (atomic under the GIL, so callers, the gateway's worker thread and the
    proxies share one recorder without a lock, and no per-span Python object
    is left for the garbage collector to walk); which requests a learned
    batch carried is worked out after the window, by
    :meth:`attribute_batches`.

    Span ids: request ``r`` owns ``4r`` (root), ``4r + 1`` (the call into
    the layer under test) and ``4r + 3`` (its ``try_admit``); batch ``b`` is
    ``4b + 2``."""

    def __init__(self) -> None:
        self._spans = array("d")  # span, parent, request, name code, start, end
        self._requests = array("d")  # request, id(first plan), n_plans, send, done
        self._request_envs: list = []
        self._batches = array("d")  # start, end, n_plans
        self._batch_envs: list = []
        self._batch_plans = array("d")  # id() of every plan of every batch
        self._ids = itertools.count(1)
        self._window: tuple[float, float] | None = None
        self._local = threading.local()

    def __len__(self) -> int:
        return len(self._spans) // 6

    @property
    def spans(self) -> list[tuple]:
        """``(span_id, parent_id, request_id, name, start, end)`` rows."""
        rows = zip(*[iter(self._spans)] * 6)
        return [(int(s), int(p), int(r), NAMES[int(n)], t0, t1) for s, p, r, n, t0, t1 in rows]

    @property
    def batches(self) -> list[tuple]:
        """``(start, end, n_plans)`` of every traced learned batch."""
        return list(zip(*[iter(self._batches)] * 3))

    def add(self, span_id, parent_id, request_id, name, start, end) -> None:
        self._spans.extend((span_id, parent_id, request_id, _NAME_CODE[name], start, end))

    def open_window(self, t0: float, round_seconds: float) -> None:
        self._window = (t0, round_seconds)

    def close_window(self) -> None:
        self._window = None

    def active(self, t: float) -> bool:
        """Whether a request starting (or due) at ``t`` is traced."""
        if self._window is None:
            return False
        t0, round_seconds = self._window
        return t >= t0 and int((t - t0) / round_seconds) % 2 == 1

    def begin_request(self) -> int:
        """A new traced request on this thread; returns its id."""
        request_id = next(self._ids)
        self._local.current = request_id
        return request_id

    def end_request(self, request_id, plans, env, layer, start, send, done, end) -> None:
        self._local.current = None
        self.add(4 * request_id + 1, 4 * request_id, request_id, layer, send, done)
        self.add(4 * request_id, 0, request_id, "bench.request", start, end)
        self._requests.extend((request_id, id(plans[0]), len(plans), send, done))
        self._request_envs.append(env)

    def current_request(self) -> int | None:
        """Id of the traced request running on this thread, or ``None``."""
        return getattr(self._local, "current", None)

    def add_batch(self, plans, env, started: float, ended: float) -> None:
        self._batches.extend((started, ended, len(plans)))
        self._batch_envs.append(env)
        self._batch_plans.extend(map(id, plans))

    def attribute_batches(self) -> int:
        """Turn the recorded batches into ``serving.predict`` spans, one row
        per traced request a batch carried; returns how many batches found
        a parent.  A batch is whole requests back to back, each starting
        with its first plan object, and it began while each of them was
        waiting inside the call."""
        requests = zip(zip(*[iter(self._requests)] * 5), self._request_envs)
        waiting = defaultdict(deque)
        for (request_id, first_plan, n_plans, send, done), env in sorted(
            requests, key=lambda row: row[0][3]
        ):
            waiting[(first_plan, env)].append((int(request_id), int(n_plans), send, done))
        attributed = 0
        offset = 0
        for number, ((started, ended, n_plans), env) in enumerate(
            zip(self.batches, self._batch_envs), start=1
        ):
            plan_ids = self._batch_plans[offset : offset + int(n_plans)]
            offset += int(n_plans)
            env = tuple(float(v) for v in env) if env is not None else None
            found = False
            i = 0
            while i < len(plan_ids):
                queue = waiting.get((plan_ids[i], env))
                while queue and queue[0][3] < started:
                    queue.popleft()  # answered before this batch began
                if not queue or queue[0][2] > started:
                    i += 1
                    continue
                request_id, carried, _send, _done = queue.popleft()
                self.add(4 * number + 2, 4 * request_id + 1, request_id, "serving.predict",
                         started, ended)
                found = True
                i += carried
            attributed += found
        del self._requests[:], self._request_envs[:]
        return attributed

    def write(self, path) -> None:
        """One JSON object per span row."""
        keys = ("span", "parent", "request", "name", "start", "end")
        with open(path, "w") as out:
            for row in self.spans:
                out.write(json.dumps(dict(zip(keys, row))) + "\n")


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> list[tuple]:
    """``(request_id, name, self_seconds, root_seconds)`` per span.

    Each child is first clipped to its (already clipped) parent, so a child
    never exceeds the parent; a span's self time is its clipped duration
    minus the part of it its children cover.  With sequential siblings —
    what this benchmark records — the self times of one request sum to its
    root span exactly."""
    children = defaultdict(list)
    roots = []
    for span in spans:
        if span[1] == 0:
            roots.append(span)
        else:
            children[(span[2], span[1])].append(span)
    out = []
    for root in roots:
        request_id = root[2]
        root_seconds = root[5] - root[4]
        stack = [(root, root[4], root[5])]
        while stack:
            span, start, end = stack.pop()
            clipped = []
            for child in children.get((request_id, span[0]), ()):
                c_start, c_end = max(child[4], start), min(child[5], end)
                if c_end > c_start:
                    clipped.append((c_start, c_end))
                    stack.append((child, c_start, c_end))
            out.append((request_id, span[3], (end - start) - _covered(clipped), root_seconds))
    return out


def _rank(p: float, n: int) -> int:
    """Nearest rank of the ``p``-th percentile among ``n`` samples (the
    epsilon keeps 99.9 % of 10 000 at 9 990, not one float ulp above it)."""
    return math.ceil(p * n / 100.0 - 1e-9)


def percentile(ordered, p: float) -> float:
    """Nearest-rank ``p``-th percentile of an ascending list (0.0 if empty)."""
    if not ordered:
        return 0.0
    return ordered[max(1, _rank(p, len(ordered))) - 1]


def tail_percentile(ordered) -> tuple[float, float]:
    """``(p, value)`` for the highest of :data:`TAIL_PERCENTILES` that has
    at least :data:`MIN_BEYOND` samples beyond it (the median if none)."""
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p, percentile(ordered, p)
    return 50.0, percentile(ordered, 50.0)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them; a
    single value is its own quartiles."""
    if len(values) < 2:
        only = float(values[0]) if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
