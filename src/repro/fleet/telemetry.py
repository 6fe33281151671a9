"""Fleet-level telemetry: merging per-worker snapshots into one export.

Each fleet worker owns a small :class:`~repro.gateway.telemetry.Telemetry`
registry in its own process (what only the shard can measure: its
``service.predict`` calls and cache counters); operators want one
dashboard, not N.  The
merge rules per instrument kind:

* **counters** — summed: totals across the fleet are the sum of per-shard
  totals, exactly.
* **gauges** — tallies (queue depth, pacer inflight, ``serving_*`` cache
  counts) are summed.  ``*_version`` and ``*_state`` gauges are codes, not
  amounts, and merge by **max**: the newest version any shard serves and
  the worst state any shard is in (``breaker_state`` 2 means an open
  breaker somewhere, never two half-open ones).
* **histograms** — ``count``/``sum`` are summed exactly and ``min``/
  ``max`` combined exactly.  When every contributing shard ships its raw
  reservoir (``Telemetry.snapshot(include_samples=True)``, which the
  fleet worker's ``stats`` RPC does), the merged pXX is computed
  **exactly** from the concatenated samples — the fleet-level p99 is the
  p99 of the fleet's recent observations, not an upper bound.  When any
  shard's summary arrives without samples, the merge falls back to the
  conservative rule: merged pXX is the **max across shards** — a
  pessimistic bound (a merged p99 that looks fine guarantees every
  shard's p99 is fine).

The merged snapshot exports in the same JSON shape as a single gateway's
``Telemetry.snapshot()`` plus a ``shards`` count, and to Prometheus text
under the ``repro_fleet`` namespace.
"""

from __future__ import annotations

from repro.gateway.telemetry import QUANTILE_KEYS, QUANTILES, render_prometheus

__all__ = ["merge_snapshots", "merged_to_prometheus"]


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Combine per-worker telemetry snapshots (``Telemetry.snapshot()``
    shape; extra keys like ``breaker`` are ignored) into one.

    Histograms whose every non-empty contributor carries raw ``samples``
    get exact merged quantiles (recomputed over the concatenation, same
    nearest-rank rule as :class:`~repro.gateway.telemetry.Histogram`);
    the merged histogram keeps the combined ``samples`` so a merge of
    merges stays exact.  Otherwise quantiles degrade to the max-across-
    shards bound and ``samples`` is dropped.
    """
    merged: dict = {
        "shards": len(snapshots),
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    #: name -> (concatenated samples, still-exact flag)
    reservoirs: dict[str, tuple[list, bool]] = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0.0) + value
        for name, value in snap.get("gauges", {}).items():
            seen = merged["gauges"].get(name)
            if seen is None:
                merged["gauges"][name] = value
            elif name.endswith(("_version", "_state")):
                merged["gauges"][name] = max(seen, value)
            else:
                merged["gauges"][name] = seen + value
        for name, hist in snap.get("histograms", {}).items():
            samples, exact = reservoirs.get(name, ([], True))
            if hist["count"] and "samples" not in hist:
                exact = False  # a lossy summary poisons the exact merge
            else:
                samples = samples + list(hist.get("samples", ()))
            reservoirs[name] = (samples, exact)
            out = merged["histograms"].get(name)
            if out is None:
                merged["histograms"][name] = dict(hist)
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
            for key in QUANTILE_KEYS:
                out[key] = max(out[key], hist[key])
            out["mean"] = out["sum"] / out["count"] if out["count"] else 0.0
    for name, (samples, exact) in reservoirs.items():
        out = merged["histograms"][name]
        if exact and samples:
            ordered = sorted(samples)
            for q, key in zip(QUANTILES, QUANTILE_KEYS):
                out[key] = ordered[int(q * (len(ordered) - 1))]
            out["samples"] = ordered
        else:
            out.pop("samples", None)
    return merged


def merged_to_prometheus(merged: dict, *, namespace: str = "repro_fleet") -> str:
    """Prometheus text exposition of a merged snapshot, rendered as a single
    registry's (:func:`~repro.gateway.telemetry.render_prometheus`) plus a
    ``shards`` gauge.  Merged quantiles are exact when every shard shipped
    its samples, the max-across-shards bound otherwise."""
    gauges = {"shards": merged.get("shards", 0), **merged.get("gauges", {})}
    return render_prometheus({**merged, "gauges": gauges}, namespace)
