"""bench_e2e: one end-to-end serving benchmark, four workloads.

One workload, as the benchmark contract runs it (prints every metric by
name with its unit, then one JSON object as the last line)::

    python3 bench_e2e/run.py --workload hot_zipf --seed 11 --seconds 28 --trace 0

All four workloads, each in its own fresh child process, one after another,
merged into one result file for ``compare.py`` (``--traced`` adds the
per-layer run of each workload and writes ``out/trace-<workload>.jsonl``)::

    python3 bench_e2e/run.py --seed 11 --traced --out bench_e2e/out/result.json

Exit status is non-zero when any answer failed a check.  Nothing is written
outside ``bench_e2e/out/``.
"""

from __future__ import annotations

import time

PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
#: The declaration this runner emits against: names, units, directions.
DECLARATION = HERE.parent / "BENCHMARK.json"
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
#: Rounds per measured window; a round-based metric is reported as the
#: median over its rounds, and the rounds are kept in the result file so
#: that ``compare.py`` can call a noisy pair ``unresolved``.
ROUNDS = 10


def _prepare_process() -> None:
    """Pin BLAS to one thread (before numpy loads), pin the process tree to
    one CPU, and put the benchmark's own modules and the program's ``src/``
    on the path.

    Why one CPU: the serving path is GIL-serialised, and on the 2-vCPU guest
    the baseline was recorded on, letting its caller and worker threads
    spread over both CPUs turns every GIL hand-off into a cross-CPU wake-up.
    ``hot_zipf`` then runs 2.4x slower *and* bistable (4.5k-8.8k requests/s
    from one round to the next).  Pinned, rounds agree within a few percent.
    Fleet workers are forked and inherit the pin: with the workers on the
    other CPU, six runs of identical code read 2.8k-3.8k requests/s
    (cross-vCPU wake-ups wait on the host); on one CPU they read 5.0k-5.2k.
    So ``fleet_zipf`` measures what the hop costs in CPU, not a parallel
    speed-up, which this guest cannot resolve."""
    for var in BLAS_ENV_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for path in (str(HERE.parent / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def environment() -> dict:
    import platform

    import numpy

    return {
        "cpu_count": os.cpu_count() or 1,
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV_VARS},
        "loadavg_at_start": list(os.getloadavg()),
    }


def _single(value: float) -> tuple:
    """A metric taken once per run: its only "round" is itself."""
    return value, [value]


def _trim_heap() -> None:
    """Return freed heap pages to the OS (glibc only; a no-op elsewhere)."""
    import ctypes

    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def measure(name, *, seed, seconds, trace, rounds, cold_sets, isolated_requests) -> dict:
    """Set up, check, warm up and measure one workload in this process."""
    import gc
    import resource
    import shutil
    import statistics
    import tempfile

    import inputs
    import workloads
    from load import Issuer
    from spans import SpanRecorder

    env = environment()
    if env["loadavg_at_start"][0] > env["cpu_count"]:
        print(f"WARNING: load average {env['loadavg_at_start'][0]:.2f} exceeds "
              f"cpu_count {env['cpu_count']}; expect noisy numbers")

    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"run-{name}-", dir=OUT_DIR))
    tracer = SpanRecorder() if trace else None
    dep = None
    layer: dict = {}
    try:
        corpus = inputs.build_corpus(scratch / "registry", cold_sets=cold_sets)
        # Training leaves ~40 MB of freed heap behind; whether glibc hands
        # it back on its own varies from run to run, and the fleet's
        # workers would inherit it.  Hand it back before anything is served.
        gc.collect()
        _trim_heap()
        children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        dep = workloads.build(name, corpus, seed, tracer, seconds)

        issuer = Issuer(dep.stream, dep.call, dep.layer, tracer)
        checked, problems = workloads.gate(dep, corpus, seed)
        first = workloads.warm_up(dep, issuer)
        gc.collect()
        gc.freeze()
        # Process start -> first measured request.
        setup_seconds = time.perf_counter() - PROCESS_STARTED + (
            workloads.OPEN_WARM_SECONDS if dep.open_loop else 0.0
        )

        before = workloads.read_counters(dep) if trace else None
        summary, wall, cpu = workloads.run_window(
            dep, issuer, seconds=seconds, rounds=rounds, first=first
        )
        resident_kib = workloads.resident_kib()
        if trace:
            after = workloads.read_counters(dep)
            layer = workloads.layer_metrics(
                dep, tracer, summary, before, after,
                wall=wall, cpu=cpu, seconds=seconds, rounds=rounds,
            )
            layer["fleet.promote_ms"] = workloads.promote_ms(dep, corpus)
            layer.update(workloads.isolated(dep, corpus, isolated_requests))
    finally:
        if dep is not None:
            dep.close()
        shutil.rmtree(scratch, ignore_errors=True)

    if trace:
        # Only now are the fleet's workers reaped and their CPU time known.
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        worker_cpu = (children.ru_utime + children.ru_stime
                      - children_before.ru_utime - children_before.ru_stime)
        fleet_requests = after.get("fleet_requests", 0.0)
        layer["fleet.cpu_us_per_req"] = (
            layer["bench.cpu_us_per_req"] + 1e6 * worker_cpu / fleet_requests
            if fleet_requests else 0.0
        )
        tracer.write(OUT_DIR / f"trace-{name}.jsonl")

    def over_rounds(metric):
        return statistics.median(summary[metric]), summary[metric]

    failed = summary["failed"] + len(problems)
    problems += issuer.problems
    return {
        "workload": name, "seed": seed, "seconds": seconds, "rounds": rounds, "trace": int(trace),
        "correct": not problems, "attempted": summary["attempted"] + checked, "failed": failed,
        "problems": problems[:20], "env": env,
        "stream_sha256": dep.stream.stream_sha256, "corpus_sha256": corpus.corpus_sha256,
        "counts": {k: summary[k] for k in ("learned", "fallback", "reasons", "lat_samples",
                                           "lat_tail_supported", "round_requests")},
        "spans": len(tracer) if trace else 0,
        # name -> (reported value, the per-round values it is the median of)
        "end_to_end": {
            "setup_s": _single(setup_seconds),
            "goodput_rps": over_rounds("goodput_rps"),
            "lat_p50_ms": over_rounds("lat_p50_ms"),
            "lat_p99_ms": over_rounds("lat_p99_ms"),
            "learned_share": _single(summary["learned"] / max(1, summary["attempted"])),
            "peak_rss_mb": _single(resident_kib / 1024.0),
        },
        "per_layer": layer,
    }


def report(result: dict, out_path) -> int:
    """Print every metric by name with its unit, write the detail file, and
    end with the one-line JSON object of the benchmark contract."""
    declared = json.loads(DECLARATION.read_text())
    counts = result["counts"]
    print(f"== {result['workload']}  seed={result['seed']}  window={result['seconds']}s x "
          f"{result['rounds']} rounds  cpu_count={result['env']['cpu_count']}  "
          f"trace={result['trace']}")
    print(f"   stream_sha256={result['stream_sha256'][:16]}  "
          f"corpus_sha256={result['corpus_sha256'][:16]}")
    print(f"   attempted={result['attempted']} failed={result['failed']} "
          f"learned={counts['learned']} fallback={counts['fallback']} reasons={counts['reasons']}")
    end_to_end = {}
    for spec in declared["end_to_end"]:
        value, per_round = result["end_to_end"][spec["name"]]
        note = ""
        if spec["name"].startswith("lat_p"):
            note = (f"  ({sum(counts['lat_samples'])} learned samples, at least "
                    f"{min(counts['lat_samples'])} per percentile taken; the window supports "
                    f"p{counts['lat_tail_supported']:g})")
        print(f"   {spec['name']:<34}{value:>14.4f} {spec['unit']}{note}")
        end_to_end[spec["name"]] = {"value": value, "unit": spec["unit"], "rounds": per_round}
    per_layer = {}
    if result["trace"]:
        layer = result["per_layer"]
        names = [spec["name"] for spec in declared["per_layer"]]
        if sorted(layer) != sorted(names):
            raise SystemExit("per-layer metrics differ from BENCHMARK.json: "
                             f"{sorted(set(layer) ^ set(names))}")
        for spec in declared["per_layer"]:
            print(f"   {spec['name']:<34}{layer[spec['name']]:>14.4f} {spec['unit']}")
            per_layer[spec["name"]] = {"value": layer[spec["name"]], "unit": spec["unit"]}
        print(f"   spans: {result['spans']} -> bench_e2e/out/trace-{result['workload']}.jsonl")
    for problem in result["problems"]:
        print(f"   FAILED {problem}")

    if out_path is not None:
        detail = dict(result, end_to_end=end_to_end, per_layer=per_layer)
        Path(out_path).write_text(json.dumps(detail, indent=1))
    final = per_layer if result["trace"] else {
        name: {"value": m["value"], "unit": m["unit"]} for name, m in end_to_end.items()
    }
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": final}))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own fresh child process, one after another."""
    OUT_DIR.mkdir(exist_ok=True)
    names = [spec["name"] for spec in json.loads(DECLARATION.read_text())["workloads"]]
    merged = {"seed": args.seed, "seconds": args.seconds, "quick": args.quick, "workloads": {}}
    status = 0
    for name in names:
        for trace in ([0, 1] if args.traced else [0]):
            part = OUT_DIR / f".part-{name}-{trace}.json"
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", str(part),
            ] + (["--quick"] if args.quick else [])
            child = subprocess.run(command)
            status = status or child.returncode
            if not part.exists():
                continue
            detail = json.loads(part.read_text())
            part.unlink()
            if trace:
                entry = merged["workloads"].setdefault(name, {})
                entry["per_layer"] = detail["per_layer"]
                entry["traced_correct"] = detail["correct"]
            else:
                merged["workloads"].setdefault(name, {}).update(detail)
    if args.out is not None:
        Path(args.out).write_text(json.dumps(merged, indent=1))
        print(f"wrote {args.out}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 runs the traced, per-layer variant")
    parser.add_argument("--traced", action="store_true",
                        help="without --workload: also run every workload traced")
    parser.add_argument("--quick", action="store_true",
                        help="self-test scale: 1 round x 0.5 s, small cold pool")
    parser.add_argument("--out", help="write the detailed result JSON here")
    args = parser.parse_args(argv)

    if args.seconds is None:
        args.seconds = float(json.loads(DECLARATION.read_text())["run_seconds"])
    if args.workload is None:
        return run_all(args)

    _prepare_process()
    import inputs
    import workloads

    if args.workload not in workloads.LIMIT_MS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(workloads.LIMIT_MS)}")
    trace = bool(args.trace)
    if args.quick:
        # Tracing alternates rounds, so the traced self-test needs two.
        rounds = 2 if trace else 1
        scale = dict(seconds=0.5 * rounds, rounds=rounds, cold_sets=128, isolated_requests=200)
    else:
        scale = dict(seconds=args.seconds, rounds=ROUNDS, cold_sets=inputs.COLD_SETS,
                     isolated_requests=workloads.ISOLATED_REQUESTS)
    return report(measure(args.workload, seed=args.seed, trace=trace, **scale), args.out)


if __name__ == "__main__":
    sys.exit(main())
