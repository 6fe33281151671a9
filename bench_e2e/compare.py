"""Compare result files written by ``run.py --out``: A/A or parent/change.

    python3 bench_e2e/compare.py --a A1.json A2.json --b B1.json B2.json

One row per workload x end-to-end metric: each side's median and quartiles
over its rounds (pooled over the side's files), the change of B against A,
the metric's bound from ``BENCHMARK.json`` and a verdict:

``same``        medians within the bound
``better``      B's median beats A's by more than the bound
``worse``       B's median is worse than A's by more than the bound
``unresolved``  a side's round spread exceeds the bound, and not every round
                of one side beats every round of the other

Runs whose input digests differ are not compared (exit 2).  Exit 1 on any
``worse`` row or when B failed more operations than A.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import quartiles  # noqa: E402


def verdict(a, b, *, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worse_by)`` for rounds ``a`` (base) and ``b``;
    ``worse_by`` is B's median change in the bad direction, as a share of
    A's median."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    noise = max(qa[2] - qa[0], qb[2] - qb[0]) / abs(qa[1]) if qa[1] else 0.0
    separated = max(b) < min(a) or min(b) > max(a)
    if noise > bound and not separated:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def load_side(paths) -> dict:
    """``{workload: {"rounds": {metric: [...]}, "failed", "attempted",
    "digest"}}`` pooled over one side's result files."""
    side: dict = {}
    for path in paths:
        for name, detail in json.loads(Path(path).read_text())["workloads"].items():
            entry = side.setdefault(
                name, {"rounds": {}, "failed": 0, "attempted": 0, "digests": set()}
            )
            entry["failed"] += detail["failed"]
            entry["attempted"] += detail["attempted"]
            entry["digests"].add((detail["stream_sha256"], detail["corpus_sha256"]))
            for metric, record in detail["end_to_end"].items():
                entry["rounds"].setdefault(metric, []).extend(record["rounds"])
    return side


def compare(a_paths, b_paths, declaration) -> int:
    side_a, side_b = load_side(a_paths), load_side(b_paths)
    status = 0
    for name in side_a:
        if name not in side_b:
            print(f"{name}: missing on side B")
            return 2
        digests = side_a[name]["digests"] | side_b[name]["digests"]
        if len(digests) != 1:
            print(f"{name}: input digests differ, refusing to compare: {sorted(digests)}")
            return 2
    header = f"{'workload':<14}{'metric':<15}{'A median [q1, q3]':>34}{'B median [q1, q3]':>34}" \
             f"{'change':>9}{'bound':>7}  verdict"
    print(header)
    for name, a in side_a.items():
        b = side_b[name]
        for spec in declaration["end_to_end"]:
            metric = spec["name"]
            ra, rb = a["rounds"][metric], b["rounds"][metric]
            result, worse_by = verdict(ra, rb, better=spec["better"], bound=spec["bound"])
            if result == "worse":
                status = 1
            qa, qb = quartiles(ra), quartiles(rb)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            print(
                f"{name:<14}{metric:<15}"
                f"{f'{qa[1]:.4f} [{qa[0]:.4f}, {qa[2]:.4f}]':>34}"
                f"{f'{qb[1]:.4f} [{qb[0]:.4f}, {qb[2]:.4f}]':>34}"
                f"{100 * change:>+8.1f}%{100 * spec['bound']:>6.0f}%  {result} ({spec['unit']})"
            )
        share_a = a["failed"] / max(1, a["attempted"])
        share_b = b["failed"] / max(1, b["attempted"])
        worse = share_b > share_a
        print(f"{name:<14}{'failed_share':<15}{share_a:>34.6f}{share_b:>34.6f}"
              f"{'':>16}  {'worse' if worse else 'same'} (must be 0)")
        if worse:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", nargs="+", required=True, help="result files of side A (base)")
    parser.add_argument("--b", nargs="+", required=True, help="result files of side B")
    args = parser.parse_args(argv)
    declaration = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return compare(args.a, args.b, declaration)


if __name__ == "__main__":
    sys.exit(main())
