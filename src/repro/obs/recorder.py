"""Flight recorder: a per-process ring buffer that dumps on incidents.

Every process that serves traffic (the gateway's host process, each fleet
worker) keeps a bounded ring of recent structured events and span records.
When something goes wrong — a circuit-breaker trip, a worker crash, a shed
storm — the ring is snapshotted to a JSONL file so the seconds *before*
the incident can be reconstructed after the fact, exactly the post-hoc
telemetry that production steering deployments report needing.

Dump files are self-describing: the first line is a header record with the
trigger reason, process label, pid and timestamp; every following line is
one event in arrival order (oldest first).  Auto-dumps are cooldown-gated
so a storm of trips produces one snapshot, not a disk flood.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque

__all__ = ["FlightRecorder", "DEFAULT_DUMP_DIR_ENV"]

DEFAULT_DUMP_DIR_ENV = "REPRO_FLIGHT_DIR"

# Event kinds that trigger an automatic snapshot.
AUTO_DUMP_KINDS = frozenset({"breaker-trip", "worker-crash", "shed-storm"})

#: Ring size: entries a recorder keeps, oldest falling off.
CAPACITY = 4096
#: A ``shed-storm`` event fires when at least this many sheds land within
#: :data:`STORM_WINDOW_SECONDS`.
STORM_THRESHOLD = 50
STORM_WINDOW_SECONDS = 1.0
#: Minimum spacing between *automatic* dumps; explicit ``dump()`` calls
#: always write.
DUMP_COOLDOWN_SECONDS = 5.0


class FlightRecorder:
    """Bounded ring of events/spans with incident-triggered JSONL dumps.

    Parameters
    ----------
    dump_dir:
        Where snapshots go.  Defaults to ``$REPRO_FLIGHT_DIR`` or
        ``flight-dumps/`` under the working directory; created on first
        dump, never eagerly.
    process_label:
        Included in dump filenames and the header so merged incident
        folders stay attributable (e.g. ``"worker-2"``).
    """

    def __init__(self, *, dump_dir=None, process_label="main", clock=time.monotonic):
        self.process_label = str(process_label)
        self._ring = deque(maxlen=CAPACITY)
        self._lock = threading.Lock()
        self._clock = clock
        self._dump_dir = dump_dir
        self._shed_times = deque()
        self._last_auto_dump = None
        self._dump_seq = 0
        self.dumps_total = 0
        self.events_total = 0
        self.last_dump_path = None
        self.last_dump_reason = None

    # -- recording -------------------------------------------------------

    def record(self, kind, name="", **attrs):
        """Record a structured event; auto-dump on incident kinds."""
        event = {
            "type": "event",
            "kind": str(kind),
            "name": str(name),
            "t": time.time(),
            "attrs": attrs,
        }
        with self._lock:
            self._ring.append(event)
            self.events_total += 1
        if kind in AUTO_DUMP_KINDS:
            self._auto_dump(str(kind))
        return event

    def record_span(self, span_record):
        """Feed a finished span record into the ring (tracer hook)."""
        with self._lock:
            self._ring.append({"type": "span", **span_record})
            self.events_total += 1

    def note_shed(self, reason):
        """Count one shed; escalates to a ``shed-storm`` event on a burst."""
        now = self._clock()
        storm = False
        with self._lock:
            self._shed_times.append(now)
            horizon = now - STORM_WINDOW_SECONDS
            while self._shed_times and self._shed_times[0] < horizon:
                self._shed_times.popleft()
            if len(self._shed_times) >= STORM_THRESHOLD:
                storm = True
                self._shed_times.clear()
        if storm:
            self.record("shed-storm", reason, threshold=STORM_THRESHOLD,
                        window_seconds=STORM_WINDOW_SECONDS)
        return storm

    # -- dumping ---------------------------------------------------------

    def _auto_dump(self, reason):
        now = self._clock()
        with self._lock:
            if self._last_auto_dump is not None and (
                now - self._last_auto_dump
            ) < DUMP_COOLDOWN_SECONDS:
                return None
            self._last_auto_dump = now
        return self.dump(reason=reason)

    def dump(self, reason="manual"):
        """Snapshot the ring to a JSONL file in the dump directory; returns
        the file path."""
        dump_dir = self._dump_dir or os.environ.get(DEFAULT_DUMP_DIR_ENV, "flight-dumps")
        os.makedirs(dump_dir, exist_ok=True)
        with self._lock:
            self._dump_seq += 1
            seq = self._dump_seq
        fname = f"flight-{self.process_label}-pid{os.getpid()}-{seq:03d}-{reason}.jsonl"
        path = os.path.join(dump_dir, fname)
        with self._lock:
            entries = list(self._ring)
        header = {
            "type": "header",
            "reason": reason,
            "process": self.process_label,
            "pid": os.getpid(),
            "at": time.time(),
            "n_entries": len(entries),
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True, default=str) + "\n")
            for entry in entries:
                fh.write(json.dumps(entry, sort_keys=True, default=str) + "\n")
        with self._lock:
            self.dumps_total += 1
            self.last_dump_path = path
            self.last_dump_reason = reason
        return path

    # -- introspection ---------------------------------------------------

    def entries(self):
        with self._lock:
            return list(self._ring)

    def stats(self):
        with self._lock:
            return {
                "capacity": self._ring.maxlen,
                "buffered": len(self._ring),
                "events_total": self.events_total,
                "dumps_total": self.dumps_total,
                "last_dump_path": self.last_dump_path,
                "last_dump_reason": self.last_dump_reason,
            }
