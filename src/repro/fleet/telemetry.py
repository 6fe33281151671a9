"""Fleet-level telemetry: merging per-worker snapshots into one view.

Each fleet worker owns a small :class:`~repro.gateway.telemetry.Telemetry`
registry in its own process (what only the shard can measure: its
``service.predict`` calls and cache counters); operators want one
dashboard, not N.  The merge rules per instrument kind:

* **counters** — summed: totals across the fleet are the sum of per-shard
  totals, exactly.
* **gauges** — a shard's gauges are its ``serving_*`` cache tallies,
  which are summed, and ``model_weights_version``: a ``*_version`` gauge
  is a code, not an amount, and merges by **max**, the newest version any
  shard serves.  (Breaker and pacer gauges live in the parent, one per
  shard, and are never merged.)
* **histograms** — ``count``/``sum`` are summed and ``min``/``max``
  combined.  Every shard ships its raw reservoir (the worker's ``stats``
  RPC sends ``Telemetry.snapshot(include_samples=True)``), so the merged
  pXX is computed from the concatenated samples: the fleet-level p99 is
  the p99 of the fleet's recent observations.

The merged snapshot has the JSON shape of a single gateway's
``Telemetry.snapshot()`` plus a ``shards`` count.
"""

from __future__ import annotations

from repro.gateway.telemetry import QUANTILE_KEYS, QUANTILES

__all__ = ["merge_snapshots"]


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Combine per-worker telemetry snapshots (``Telemetry.snapshot(
    include_samples=True)`` shape; extra keys like ``breaker`` are ignored)
    into one.

    Merged quantiles are recomputed over the concatenated ``samples`` (same
    nearest-rank rule as :class:`~repro.gateway.telemetry.Histogram`), and
    the merged histogram keeps the combined ``samples`` so a merge of
    merges stays exact.
    """
    merged: dict = {
        "shards": len(snapshots),
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0.0) + value
        for name, value in snap.get("gauges", {}).items():
            seen = merged["gauges"].get(name)
            if seen is None:
                merged["gauges"][name] = value
            elif name.endswith("_version"):
                merged["gauges"][name] = max(seen, value)
            else:
                merged["gauges"][name] = seen + value
        for name, hist in snap.get("histograms", {}).items():
            out = merged["histograms"].get(name)
            if out is None:
                merged["histograms"][name] = {**hist, "samples": list(hist.get("samples", ()))}
                continue
            if hist["count"]:
                if out["count"]:
                    out["min"] = min(out["min"], hist["min"])
                    out["max"] = max(out["max"], hist["max"])
                else:
                    out["min"], out["max"] = hist["min"], hist["max"]
            out["count"] += hist["count"]
            out["sum"] += hist["sum"]
            out["nonfinite"] = out.get("nonfinite", 0) + hist.get("nonfinite", 0)
            out["samples"] += hist.get("samples", ())
    for out in merged["histograms"].values():
        ordered = sorted(out["samples"])
        for q, key in zip(QUANTILES, QUANTILE_KEYS):
            out[key] = ordered[int(q * (len(ordered) - 1))] if ordered else 0.0
        out["samples"] = ordered
        out["mean"] = out["sum"] / out["count"] if out["count"] else 0.0
    return merged
