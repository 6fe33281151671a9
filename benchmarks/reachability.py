#!/usr/bin/env python
"""Reachability gate: which functions under ``src/repro`` does nothing run?

    python benchmarks/reachability.py        # exit 1 on a finding
    python benchmarks/reachability.py -v     # also list what the allow-list covers

Records, each run in a child interpreter of this file under a
``sys.setprofile`` + ``threading.setprofile`` hook that notes every code
object entered, two sides:

* **tests** — the tier-1 suite (``pytest tests``) and the end-to-end
  benchmark's self-tests (``pytest bench_e2e``);
* **entry points** — what runs the program for a reader: every
  ``examples/*.py``; ``python -m repro explain | fleet-select | scenarios
  --list | scenarios --scenario drift --target fleet``; the figure benches
  at ``REPRO_SCALE=smoke`` (``pytest benchmarks --benchmark-disable``, their
  artifacts written to a temporary directory); and ``bench_e2e/run.py
  --quick --workload W --trace {0,1}`` for every workload of
  ``BENCHMARK.json``.

Forked ``multiprocessing`` children (fleet shards, the evaluation pool)
inherit the hook but leave through ``os._exit`` and never run ``atexit``,
so they dump from a ``multiprocessing.util.Finalize`` registered after the
fork, or from a ``SIGTERM`` handler when ``Pool.terminate()`` ends them.
Processes started through ``subprocess`` are not recorded, which is why
``run.py`` is recorded directly rather than through its self-tests.

The recorded sets are compared with every ``def`` that ``ast`` finds under
``src/repro`` (methods and nested functions included; lambdas and
comprehensions not; interface declarations — a body that is only ``...``
or ``raise NotImplementedError`` — not either: they have no behaviour to
reach).  Two rules, one allow-list:

* **unreached** — neither side enters the function;
* **test-only** — tests enter it and no entry point does: nothing but a
  test needs it.

A finding is deleted, called, or named in :data:`ALLOW` with the reason it
stays, of one of the :data:`KINDS`.  An entry names a file, a class or a
function — ``path.py``, ``path.py::Class`` or ``path.py::Class.method`` —
and covers everything below it; a bare method name covers that method on
every class.

Whether a recorded run passes is mostly not this script's business: it does
not judge assertions (a figure's shape at smoke scale, a latency gate under
the profiler).  It does fail on a test, example or command that dies of any
other exception — an ``AttributeError`` is code that no longer runs.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"

#: Why code no entry point enters may stay.
KINDS = {
    "reference": "the slow, obvious implementation a fast path is checked "
    "against to 1e-9",
    "fault": "a fault or recovery path: entered when something fails",
    "protocol": "an arithmetic or interface protocol: operand order, a base "
    "default every subclass overrides, the operator vocabulary",
    "observability": "aim 4's instruments and debugging output",
}

#: Not entered by any entry point on purpose: entry (relative to
#: ``src/repro``) -> (kind, why it stays).
ALLOW: dict[str, tuple[str, str]] = {
    # -- reference ------------------------------------------------------------
    "core/deviance.py::LogNormalCost.sample": (
        "reference", "Monte-Carlo draws the closed forms of Lemma 1 and "
        "Theorem 1 are checked against"),
    "warehouse/sql.py::format_sql": (
        "reference", "the inverse the SQL parser is checked against: "
        "parse_sql(format_sql(q)) == q over generated queries"),
    "warehouse/sql.py::_table_ref": ("reference", "part of format_sql"),
    # -- fault and recovery ---------------------------------------------------
    "evaluation/parallel.py::ParallelEvaluationError": (
        "fault", "a figure-bench task that raised, re-raised in the parent "
        "with its remote traceback"),
    "evaluation/pool.py::capture_failure": ("fault", "as ParallelEvaluationError"),
    "fleet/fleet.py::ServingFleet._mark_dead": (
        "fault", "a shard that died: its tenants re-route to the survivors"),
    "fleet/fleet.py::ServingFleet.crash_worker": (
        "fault", "kills a shard, so that _mark_dead and the re-route run"),
    "fleet/router.py::ConsistentHashRouter.remove_shard": (
        "fault", "the ring without a dead shard (_mark_dead)"),
    "gateway/breaker.py::CircuitBreaker._trip_locked": (
        "fault", "the breaker opening on repeated errors or deadline misses"),
    "gateway/gateway.py::AnswerPath._tripped": ("fault", "as _trip_locked"),
    "gateway/gateway.py::Guard.refund": (
        "fault", "returns an admitted slot when the learned path refuses "
        "after admission"),
    "gateway/gateway.py::OptimizerGateway._pacer_release": (
        "fault", "frees the pacer slot of a queued request abandoned at its "
        "deadline or stranded by close()"),
    "lifecycle/canary.py::CanaryReport.summary": (
        "fault", "detail line of a replay's `rejected` event: a retrain the "
        "canary refuses"),
    "lifecycle/drift.py::DriftMonitor.flag": (
        "fault", "a breaker trip forcing the retrain signal"),
    "lifecycle/manager.py::ModelLifecycle._flag_breaker_trip": (
        "fault", "as DriftMonitor.flag"),
    "lifecycle/manager.py::ModelLifecycle.rollback": (
        "fault", "restores the previous model after a bad promote"),
    "lifecycle/registry.py::ModelRegistry.rollback": ("fault", "as ModelLifecycle.rollback"),
    "lifecycle/feedback.py::FeedbackLog.load": (
        "fault", "reloads the outcome log after a restart"),
    "lifecycle/feedback.py::FeedbackRecord.as_dict": (
        "fault", "the durable half of FeedbackLog.load"),
    # Entered by an entry point only when timing makes a request miss its
    # deadline, so whether a recorded run reaches them depends on the box.
    "fleet/fleet.py::ServingFleet._collect_owed": (
        "fault", "reads and discards the reply a shard owes a caller that "
        "missed its deadline; entered only when timing makes a request miss"),
    "gateway/breaker.py::CircuitBreaker.record_failure": (
        "fault", "counts an error or a deadline miss against the breaker; "
        "entered only when a call fails or timing makes a request miss"),
    "pacing/pacer.py::AdmissionPacer.release": (
        "fault", "returns a slot with no delivery sample (an abandoned, "
        "refunded or failed request); entered only when timing makes a "
        "request miss or a path fails"),
    # -- protocol -------------------------------------------------------------
    "nn/autodiff.py::Tensor.__radd__": (
        "protocol", "which operand order a model's expression uses is not an "
        "interface decision"),
    "nn/autodiff.py::Tensor.__rmul__": ("protocol", "as __radd__"),
    "nn/autodiff.py::Tensor.__truediv__": ("protocol", "as __radd__"),
    "serving/cache.py::LRUCache.__contains__": ("protocol", "container protocol"),
    "serving/cache.py::ProjectionTable.__len__": ("protocol", "container protocol"),
    "warehouse/catalog.py::Catalog.__contains__": ("protocol", "container protocol"),
    "warehouse/operators.py::PlanNode.attribute_signature": (
        "protocol", "base default that every operator in the vocabulary overrides"),
    "warehouse/operators.py::PlanNode._ctor_kwargs": (
        "protocol", "base default that every operator in the vocabulary overrides"),
    "warehouse/operators.py::CalcNode": (
        "protocol", "operator the encoder's one-hot vocabulary is sized for "
        "but the generated workloads' planner never emits"),
    "warehouse/operators.py::ProjectNode": ("protocol", "as CalcNode"),
    "warehouse/operators.py::LimitNode": ("protocol", "as CalcNode"),
    "warehouse/operators.py::FilterNode": (
        "protocol", "as CalcNode: the planner pushes predicates into scans"),
    # -- observability --------------------------------------------------------
    "__repr__": ("observability", "debugging aid: rendered in logs and "
                 "failed-assertion messages, never by a passing run"),
    "obs/trace.py": (
        "observability", "the tracer; bench_e2e times requests with its own "
        "spans.SpanRecorder, so no entry point samples a trace (ROADMAP 4, 12)"),
    "obs/recorder.py": ("observability", "the flight recorder, as obs/trace.py"),
    "fleet/fleet.py::ServingFleet.span_tree": ("observability", "as obs/trace.py"),
    "pacing/pacer.py::AdmissionPacer.state": (
        "observability", "the pacer's state on a sampled request span "
        "(AnswerPath.answer); no entry point samples a trace"),
    "pacing/pacer.py::AdmissionPacer.inflight": (
        "observability", "the slot count alone, read without advancing the "
        "state machine; stats() reports it beside everything else"),
    "fleet/router.py::ConsistentHashRouter.shards": (
        "observability", "the ring's membership and tenant placement"),
    "fleet/router.py::ConsistentHashRouter.assignment": ("observability", "as shards"),
    "lifecycle/registry.py::ModelRegistry.versions": (
        "observability", "the registry's listing, read before a rollback"),
    "lifecycle/manager.py::ModelLifecycle.predictor": (
        "observability", "the live model and service behind a lifecycle"),
    "lifecycle/manager.py::ModelLifecycle.service": ("observability", "as predictor"),
}


# -- recording (child interpreter) --------------------------------------------


class _Recorder:
    """Notes every code object entered; dumps those under ``src/repro``."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.seen: set = set()

    def hook(self, frame, event, arg) -> None:
        if event == "call":
            self.seen.add(frame.f_code)

    def install(self) -> None:
        from multiprocessing import util

        threading.setprofile(self.hook)
        sys.setprofile(self.hook)
        util.register_after_fork(self, _Recorder._after_fork)

    def _after_fork(self) -> None:
        from multiprocessing import util

        # A forked child clears the finalizer registry on its way in, so
        # the exit-time dump has to be registered on the child's side.
        util.Finalize(self, self.dump, exitpriority=0)
        # Pool.terminate() ends its workers with SIGTERM, which runs no
        # exit hook: dump first, then die of the signal as before.
        signal.signal(signal.SIGTERM, self._dump_then_die)

    def _dump_then_die(self, signum, frame) -> None:
        self.dump()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    def dump(self) -> None:
        prefix = str(PACKAGE) + os.sep
        lines = sorted(
            f"{code.co_filename[len(prefix):]}:{code.co_firstlineno}"
            for code in list(self.seen)
            if code.co_filename.startswith(prefix)
        )
        path = Path(self.out_dir) / f"entered-{os.getpid()}.txt"
        path.write_text("\n".join(lines) + "\n")


def _crash_notes(crashes: list[str]):
    """A pytest plugin noting each test that fails on an exception other
    than an assertion: code that no longer runs, not a missed shape."""
    import pytest

    judged = (AssertionError, pytest.fail.Exception)

    class CrashNotes:
        @pytest.hookimpl(wrapper=True)
        def pytest_runtest_makereport(self, item, call):
            report = yield
            if report.failed and call.excinfo is not None:
                if not call.excinfo.errisinstance(judged):
                    crashes.append(f"{item.nodeid}: {call.excinfo.exconly()}")
            return report

        def pytest_collectreport(self, report):
            if report.failed:
                crashes.append(f"{report.nodeid}: collection error")

    return CrashNotes()


def _run_main(kind: str, target: list[str], crashes: list[str]) -> int:
    """Run a script or ``-m`` module as ``__main__`` with ``target[1:]`` as
    its arguments; an exception other than an assertion is a crash."""
    import runpy
    import traceback

    sys.argv = list(target)
    try:
        if kind == "module":
            runpy.run_module(target[0], run_name="__main__", alter_sys=True)
        else:
            sys.path[0] = str(Path(target[0]).resolve().parent)
            runpy.run_path(target[0], run_name="__main__")
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else int(stop.code is not None)
    except AssertionError:
        traceback.print_exc()
        return 1
    except Exception as exc:
        traceback.print_exc()
        crashes.append(f"{' '.join(target)}: {type(exc).__name__}: {exc}")
        return 1
    return 0


def _record(out_dir: str, kind: str, target: list[str]) -> int:
    import pytest

    crashes: list[str] = []
    plugin = _crash_notes(crashes)
    recorder = _Recorder(out_dir)
    recorder.install()
    try:
        if kind == "pytest":
            return int(pytest.main(target, plugins=[plugin]))
        return _run_main(kind, target, crashes)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        recorder.dump()
        if crashes:
            path = Path(out_dir) / f"crashed-{os.getpid()}.txt"
            path.write_text("\n".join(crashes) + "\n")


# -- report (parent) ----------------------------------------------------------


def _declares_only(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """A body that is only ``...`` or ``raise NotImplementedError``."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if len(body) != 1:
        return False
    (stmt,) = body
    if isinstance(stmt, ast.Expr):
        return isinstance(stmt.value, ast.Constant) and stmt.value.value is ...
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def defined_functions() -> dict[tuple[str, int], str]:
    """``(relative path, first line) -> "path.py::Qual.name"`` for every def.

    The first line is the first decorator's when there is one, which is
    what ``co_firstlineno`` reports.
    """
    found: dict[tuple[str, int], str] = {}

    def visit(node: ast.AST, rel: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                if not _declares_only(child):
                    found[(rel, first)] = f"{rel}::{name}"
                visit(child, rel, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, rel, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, rel, scope)

    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        visit(ast.parse(path.read_text()), rel, "")
    return found


def _covers(entry: str, name: str) -> bool:
    if "." not in entry:  # a bare method name, on any class
        return name.endswith("." + entry)
    return name == entry or name.startswith((entry + "::", entry + "."))


#: ``python -m repro`` invocations recorded as entry points.
CLI_RUNS = (
    ["explain", "SELECT * FROM t0 JOIN t1 ON t0.key0 = t1.pk WHERE t0.key0 < 0.5"],
    ["fleet-select"],
    ["scenarios", "--list"],
    ["scenarios", "--scenario", "drift", "--target", "fleet"],
)


def _runs(artifacts: str) -> list[tuple[str, list[str], dict[str, str] | None]]:
    """``(side, child command, extra environment)`` of every recorded run.

    ``side`` is ``tests`` or ``entry``; a child command is ``pytest ARGS``,
    ``script PATH ARGS`` or ``module NAME ARGS``.  An environment of
    ``None`` keeps the caller's: ``bench_e2e`` finds ``src/`` itself and
    tests that it fails without it.  The rest run with ``src/`` on
    ``PYTHONPATH``.
    """
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    benches = {
        "REPRO_SCALE": "smoke",
        "BENCH_TRAINING_OUT": os.path.join(artifacts, "BENCH_training.json"),
        "BENCH_SCENARIOS_OUT": os.path.join(artifacts, "BENCH_scenarios.json"),
    }
    return (
        [("tests", ["pytest", "tests"], {}), ("tests", ["pytest", "bench_e2e"], None)]
        + [("entry", ["script", f"examples/{p.name}"], {})
           for p in sorted((REPO / "examples").glob("*.py"))]
        + [("entry", ["module", "repro", *argv], {}) for argv in CLI_RUNS]
        + [("entry", ["pytest", "benchmarks", "--benchmark-disable"], benches)]
        + [("entry", ["script", "bench_e2e/run.py", "--quick", "--workload", name,
                      "--trace", trace], {})
           for name in workloads for trace in ("0", "1")]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true")
    parser.add_argument("--record", metavar="DIR", help=argparse.SUPPRESS)
    args, rest = parser.parse_known_args(argv)
    if args.record:
        kind, *target = rest
        if kind == "pytest":
            target += ["-q", "-p", "no:cacheprovider"]
        return _record(args.record, kind, target)

    src_env = dict(os.environ)
    src_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    )
    entered: dict[str, set[tuple[str, int]]] = {"tests": set(), "entry": set()}
    crashes: list[str] = []
    with tempfile.TemporaryDirectory(prefix="reachability-") as out_dir:
        for n, (side, command, extra) in enumerate(_runs(out_dir)):
            dumps = Path(out_dir) / f"run-{n}"
            dumps.mkdir()
            env = None if extra is None else {**src_env, **extra}
            started = time.perf_counter()
            code = subprocess.run(
                [sys.executable, __file__, "--record", str(dumps), *command],
                cwd=REPO, env=env,
            ).returncode
            print(f"[{side}] {' '.join(command[1:])}: exit {code}, "
                  f"{time.perf_counter() - started:.0f} s", flush=True)
            for dump in dumps.glob("entered-*.txt"):
                for line in dump.read_text().split():
                    rel, _, lineno = line.rpartition(":")
                    entered[side].add((rel, int(lineno)))
            for dump in dumps.glob("crashed-*.txt"):
                crashes += dump.read_text().splitlines()

    defined = defined_functions()
    by_tests, by_entry = entered["tests"], entered["entry"]
    findings = {
        "unreached": sorted(n for k, n in defined.items() if k not in by_tests | by_entry),
        "test-only": sorted(
            n for k, n in defined.items() if k in by_tests and k not in by_entry
        ),
    }
    listed = findings["unreached"] + findings["test-only"]
    allowed = {entry: [n for n in listed if _covers(entry, n)] for entry in ALLOW}
    unknown = [e for e in ALLOW if not any(_covers(e, n) for n in defined.values())]
    unkinded = [e for e, (kind, _) in ALLOW.items() if kind not in KINDS]
    covered = set().union(*allowed.values())

    print(
        f"\n{len(defined)} functions under src/repro: tests enter "
        f"{sum(k in by_tests for k in defined)}, entry points "
        f"{sum(k in by_entry for k in defined)}; {len(findings['test-only'])} "
        f"test-only, {len(findings['unreached'])} unreached, "
        f"{len(covered)} of them allow-listed ({len(ALLOW)} entries: "
        + ", ".join(
            f"{sum(kind == k for k, _ in ALLOW.values())} {kind}" for kind in KINDS
        )
        + ")"
    )
    if args.verbose:
        for entry, names in allowed.items():
            kind, reason = ALLOW[entry]
            print(f"  allow {entry} [{len(names)}] {kind} — {reason}")
    for entry, names in allowed.items():
        if not names and entry not in unknown:
            print(f"note: allow-list entry {entry} is reached now; drop it")
    failures = [f"FAIL crashed: {line}" for line in crashes]
    failures += [f"FAIL allow-list entry {e} names nothing under src/repro" for e in unknown]
    failures += [f"FAIL allow-list entry {e} has no kind of {sorted(KINDS)}" for e in unkinded]
    for rule, names in findings.items():
        failures += [f"FAIL {rule}, not allow-listed: {n}" for n in names if n not in covered]
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
