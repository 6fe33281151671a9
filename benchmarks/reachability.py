#!/usr/bin/env python
"""Reachability gate: which functions under ``src/repro`` does no test enter?

    python benchmarks/reachability.py        # exit 1 on an unreached function
    python benchmarks/reachability.py -v     # also list what the allow-list covers

Runs the tier-1 suite (``pytest tests``) and the end-to-end benchmark's
self-tests (``pytest bench_e2e``), each in a child interpreter of this
file, under a ``sys.setprofile`` + ``threading.setprofile`` hook that notes
every code object entered.  Forked ``multiprocessing`` children (fleet
shards, the evaluation pool) inherit the hook but leave through
``os._exit`` and never run ``atexit``, so they dump from a
``multiprocessing.util.Finalize`` registered after the fork.  Processes
started through ``subprocess`` (``bench_e2e/run.py``) are not recorded.

The recorded set is compared with every ``def`` that ``ast`` finds under
``src/repro`` (methods and nested functions included; lambdas and
comprehensions not; interface declarations — a body that is only ``...``
or ``raise NotImplementedError`` — not either: they have no behaviour to
reach).  A function nothing entered must be deleted, tested, or named in
:data:`ALLOW` with the reason it stays.  An entry names a file, a class or
a function — ``path.py``, ``path.py::Class`` or ``path.py::Class.method``
— and covers everything below it; a bare method name covers that method
on every class.

Whether the suites pass is tier-1's business, not this script's: it reads
only what they entered.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"

#: Unreached on purpose: entry (relative to ``src/repro``) -> why it stays.
ALLOW: dict[str, str] = {
    "__repr__": "debugging aid: rendered in logs and failed-assertion messages, "
    "never by a passing run",
    "evaluation/tasks.py": "cells of the figure benches (fig6, fig8, fig11): they run "
    "in multiprocessing.Pool workers, which the pool ends with SIGTERM before any "
    "exit hook can dump; tests/test_parallel.py pins the harness that runs them",
    "core/deviance.py::DevianceReport.best_achievable_relative_deviance": "Theorem "
    "1's E[D(M_b)] as examples/environment_inference.py prints it",
    "core/predictor.py::AdaptiveCostPredictor.train_seconds": "Figure 9a's training-"
    "time row (benchmarks/bench_fig9_overheads.py reads it off every model)",
    "lifecycle/canary.py::CanaryReport.summary": "detail line of a replay's "
    "`rejected` event (workload/replay.py); no tier-1 scenario has its retrain "
    "rejected",
    "nn/autodiff.py::Tensor.__radd__": "arithmetic protocol: which operand order "
    "a model's expression uses is not an interface decision",
    "nn/autodiff.py::Tensor.__rmul__": "arithmetic protocol, as __radd__",
    "nn/autodiff.py::Tensor.__truediv__": "arithmetic protocol, as __radd__",
    "obs/trace.py::SpanTree.as_dict": "message of the span-tree assertions "
    "(`assert tree.is_complete(), tree.as_dict()`): built only when one fails",
    "obs/trace.py::_NullSpan": "null object held where a Span would be when a "
    "request is unsampled; hot call sites test `sampled` first, so these no-ops "
    "are the safety net for one that does not",
    "warehouse/operators.py::PlanNode.attribute_signature": "base default that "
    "every operator in the vocabulary overrides",
    "warehouse/operators.py::PlanNode._ctor_kwargs": "base default that every "
    "operator in the vocabulary overrides",
    "warehouse/operators.py::CalcNode": "operator the encoder's one-hot vocabulary "
    "is sized for but the generated workloads' planner never emits",
    "warehouse/operators.py::ProjectNode": "as CalcNode",
    "warehouse/operators.py::LimitNode": "as CalcNode",
    "warehouse/operators.py::FilterNode._ctor_kwargs": "clone() of a plan holding "
    "a Filter; the planner pushes predicates into scans, tests build Filters "
    "without cloning them",
    "workload/replay.py::ReplayEvent.as_dict": "BENCH_scenarios.json's drift rows "
    "(benchmarks/bench_scenario_matrix.py serialises each report's lifecycle "
    "events); tier-1 serialises only a report without any",
    "workload/replay.py::ReplayEngine._run_timed": "timed (open-loop, wall-clock) "
    "mode: every traffic row of benchmarks/bench_scenario_matrix.py; tier-1 "
    "replays in logical mode to stay deterministic",
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
        # A forked child clears the finalizer registry on its way in, so
        # the exit-time dump has to be registered on the child's side.
        util.register_after_fork(
            self, lambda rec: util.Finalize(rec, rec.dump, exitpriority=0)
        )

    def dump(self) -> None:
        prefix = str(PACKAGE) + os.sep
        lines = sorted(
            f"{code.co_filename[len(prefix):]}:{code.co_firstlineno}"
            for code in list(self.seen)
            if code.co_filename.startswith(prefix)
        )
        path = Path(self.out_dir) / f"entered-{os.getpid()}.txt"
        path.write_text("\n".join(lines) + "\n")


def _record(out_dir: str, pytest_args: list[str]) -> int:
    import pytest

    recorder = _Recorder(out_dir)
    recorder.install()
    try:
        return int(pytest.main(pytest_args))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        recorder.dump()


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true")
    parser.add_argument("--record", metavar="DIR", help=argparse.SUPPRESS)
    args, rest = parser.parse_known_args(argv)
    if args.record:
        return _record(args.record, rest)

    # tier-1 runs with src/ on PYTHONPATH; bench_e2e finds src/ itself and
    # tests that it fails without it, so its environment stays as it came.
    tier1_env = dict(os.environ)
    tier1_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    )
    suites = {"tests": tier1_env, "bench_e2e": None}
    entered: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory(prefix="reachability-") as out_dir:
        for suite, env in suites.items():
            command = [sys.executable, __file__, "--record", out_dir, suite,
                       "-q", "-p", "no:cacheprovider"]
            code = subprocess.run(command, cwd=REPO, env=env).returncode
            print(f"pytest {suite}: exit {code}")
        for dump in Path(out_dir).glob("entered-*.txt"):
            for line in dump.read_text().split():
                rel, _, lineno = line.rpartition(":")
                entered.add((rel, int(lineno)))

    defined = defined_functions()
    unreached = sorted(name for key, name in defined.items() if key not in entered)
    allowed = {
        entry: [name for name in unreached if _covers(entry, name)] for entry in ALLOW
    }
    unknown = [e for e in ALLOW if not any(_covers(e, n) for n in defined.values())]
    covered = set().union(*allowed.values())
    findings = [name for name in unreached if name not in covered]

    print(
        f"\n{len(defined)} functions under src/repro, {len(unreached)} unreached, "
        f"{len(unreached) - len(findings)} of them allow-listed "
        f"({len(ALLOW)} entries)"
    )
    if args.verbose:
        for entry, covered in allowed.items():
            print(f"  allow {entry} [{len(covered)} unreached] — {ALLOW[entry]}")
    for entry, covered in allowed.items():
        if not covered and entry not in unknown:
            print(f"note: allow-list entry {entry} is reached now; drop it")
    for entry in unknown:
        print(f"FAIL allow-list entry {entry} names nothing under src/repro")
    for name in findings:
        print(f"FAIL unreached, not allow-listed: {name}")
    return 1 if findings or unknown else 0


if __name__ == "__main__":
    sys.exit(main())
