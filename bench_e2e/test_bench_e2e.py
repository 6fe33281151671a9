"""Self-tests of the benchmark harness (not of the program it measures).

    python -m pytest bench_e2e -q

The end-to-end cases drive ``run.py --quick`` (1 round x 0.5 s, small cold
pool), so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import compare  # noqa: E402
import inputs  # noqa: E402
from load import Issuer, Samples, Tape, open_loop, summarize  # noqa: E402
from spans import SpanRecorder, self_times, tail_percentile  # noqa: E402

DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(HERE / "run.py")]


# -- span arithmetic ------------------------------------------------------------


def _sum_by_request(rows):
    totals = {}
    for request_id, _name, self_seconds, root_seconds in rows:
        total, _ = totals.get(request_id, (0.0, root_seconds))
        totals[request_id] = (total + self_seconds, root_seconds)
    return totals


def test_self_times_clip_children_and_sum_to_root():
    spans = [
        (1, 0, 7, "bench.request", 0.0, 10.0),
        (2, 1, 7, "gateway.request", 1.0, 4.0),
        (3, 2, 7, "pacing.try_admit", 0.5, 2.0),  # starts before its parent
        (4, 1, 7, "serving.predict", 5.0, 12.0),  # ends after the root
    ]
    rows = {name: s for _r, name, s, _root in self_times(spans)}
    assert rows == {
        "bench.request": pytest.approx(2.0),  # 10 - (3 + 5)
        "gateway.request": pytest.approx(2.0),  # 3 - the clipped [1, 2]
        "pacing.try_admit": pytest.approx(1.0),
        "serving.predict": pytest.approx(5.0),  # clipped to [5, 10]
    }
    assert all(s >= 0.0 for s in rows.values())
    assert sum(rows.values()) == pytest.approx(10.0)


def test_coalesced_batch_is_a_child_of_every_request_it_carried():
    tracer = SpanRecorder()
    first, second, late = [object(), object()], [object()], [object()]
    env = (0.5, 0.05, 0.5, 0.5)
    for plans, send, done in ((first, 1.0, 5.0), (second, 2.0, 5.5), (late, 4.5, 9.0)):
        request_id = tracer.begin_request()
        tracer.end_request(request_id, plans, env, "gateway.request", send, send, done, done)
    # One coalesced batch carried the first two; the third was sent after it began.
    tracer.add_batch(first + second + late, env, 3.0, 4.0)
    assert tracer.attribute_batches() == 1
    batch = [s for s in tracer.spans if s[3] == "serving.predict"]
    assert [(s[2], s[1]) for s in batch] == [(1, 5), (2, 9)]  # request id, parent call span
    assert len({s[0] for s in batch}) == 1  # one span, one row per parent
    totals = _sum_by_request(self_times(tracer.spans))
    assert totals[1] == (pytest.approx(4.0), pytest.approx(4.0))


# -- percentiles ----------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected", [(10_000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (15, 50.0)]
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    ordered = [float(v) for v in range(n)]
    p, value = tail_percentile(ordered)
    assert p == expected
    assert sum(1 for v in ordered if v > value) >= 10 or p == 50.0


# -- open loop ------------------------------------------------------------------


def _fake_stream(n, gap):
    due = np.arange(n) * gap
    zeros = np.zeros(n, dtype=np.int64)
    return inputs._stream([[None, None]], zeros, zeros, np.zeros((n, 4)), due)


def test_open_loop_latency_runs_from_the_due_time():
    stream = _fake_stream(20, 0.01)

    def stalls_once(i):
        if i == 5:
            time.sleep(0.1)
        return SimpleNamespace(costs=np.ones(2), source="learned", reason="ok")

    issuer = Issuer(stream, stalls_once, "gateway.request")
    t0 = time.perf_counter() + 0.01
    samples = open_loop(issuer, t0=t0, threads=1)
    order = np.argsort(samples.start)
    service = (samples.done - samples.send)[order]
    latency = (samples.done - samples.start)[order]
    # Requests 6.. were answered at once but were due during the stall: the
    # wait it imposed on them counts, and the generator reports it ran late.
    assert service[6] < 0.02 and latency[6] > 0.08
    assert latency[7] > 0.07
    summary = summarize(samples, t0=t0, seconds=0.2, rounds=1, limit_ms=50.0, by_due=True)
    assert summary["attempted"] == 20 and summary["failed"] == 0
    assert 1e3 * summary["late"][-1] > 80.0
    assert summary["goodput_rps"][0] < 20 / 0.2  # the late ones missed the limit


def test_bad_answers_and_raises_count_as_failed():
    stream = _fake_stream(4, 0.0)

    def broken(i):
        if i == 1:
            raise RuntimeError("boom")
        costs = np.array([1.0, np.nan]) if i == 2 else np.ones(3 if i == 3 else 2)
        return SimpleNamespace(costs=costs, source="learned", reason="ok")

    issuer = Issuer(stream, broken, "gateway.request")
    tape = Tape()
    for i in range(4):
        issuer.issue(i, tape)
    samples = Samples([tape])
    summary = summarize(samples, t0=samples.start[0], seconds=1.0, rounds=1, limit_ms=1e3,
                        by_due=False)
    assert summary["failed"] == 3 and summary["learned"] == 1
    assert summary["reasons"] == {"ok": 3, "raised": 1}
    assert len(issuer.problems) == 3


# -- digests --------------------------------------------------------------------


def test_stream_digests_follow_the_seed():
    pool = [[None]] * inputs.HOT_SETS
    a, again, other = (inputs.zipf_stream(s, pool, n=4096) for s in (1, 1, 2))
    assert a.stream_sha256 == again.stream_sha256 != other.stream_sha256
    assert a.tenants == again.tenants and a.envs == again.envs
    scan = inputs.scan_stream(1, pool, n=4096)
    assert len(set(scan.envs)) == 4096  # a fresh env every request
    opened = inputs.open_stream(1, pool, rate=150.0, horizon=4.0)
    assert opened.stream_sha256 != inputs.open_stream(2, pool, rate=150.0, horizon=4.0).stream_sha256
    assert all(0.0 < x < 4.0 for x in opened.due) and opened.due == sorted(opened.due)


# -- comparator -----------------------------------------------------------------


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    kw = dict(better="higher", bound=0.10)
    assert compare.verdict(base, [v * 1.02 for v in base], **kw)[0] == "same"
    assert compare.verdict(base, [v * 0.8 for v in base], **kw)[0] == "worse"
    assert compare.verdict(base, [v * 1.3 for v in base], **kw)[0] == "better"
    assert compare.verdict(base, [v * 1.3 for v in base], better="lower", bound=0.1)[0] == "worse"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert compare.verdict(noisy, [v * 0.95 for v in noisy], **kw)[0] == "unresolved"
    # ... unless every round of one side beats every round of the other.
    assert compare.verdict(noisy, [v * 3.0 for v in noisy], **kw)[0] == "better"


# -- the runner, end to end -------------------------------------------------------


@pytest.fixture(scope="module")
def quick_result():
    out = HERE / "out" / "selftest.json"
    done = subprocess.run(
        RUN + ["--quick", "--traced", "--seed", "11", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), done.stdout


def test_every_declared_metric_is_emitted_for_every_workload(quick_result):
    result, stdout = quick_result
    names = [w["name"] for w in DECLARATION["workloads"]]
    e2e = [m["name"] for m in DECLARATION["end_to_end"]]
    layers = [m["name"] for m in DECLARATION["per_layer"]]
    assert 2 <= len(names) <= 8 and 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    every = names + e2e + layers
    assert len(set(every)) == len(every)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in every)
    assert "setup_s" in e2e and all(m["bound"] <= 0.25 for m in DECLARATION["end_to_end"])
    assert sorted(result["workloads"]) == sorted(names)
    for name, detail in result["workloads"].items():
        assert detail["correct"] and detail["traced_correct"] and detail["failed"] == 0
        assert sorted(detail["end_to_end"]) == sorted(e2e), name
        assert sorted(detail["per_layer"]) == sorted(layers), name
        assert all(m["value"] > 0 for m in detail["end_to_end"].values()), name
        for metric in e2e + layers:
            assert re.search(rf"^\s+{re.escape(metric)}\s+-?[0-9.]+ \S+", stdout, re.M), metric


def test_workloads_separate_the_way_they_were_designed_to(quick_result):
    result, _ = quick_result
    w = result["workloads"]
    layer = lambda name, metric: w[name]["per_layer"][metric]["value"]  # noqa: E731
    assert w["hot_zipf"]["stream_sha256"] == w["fleet_zipf"]["stream_sha256"]
    assert len({d["corpus_sha256"] for d in w.values()}) == 1
    assert layer("hot_zipf", "serving.pred_hit_share") >= 0.99
    assert layer("fleet_zipf", "fleet.pred_hit_share") >= 0.99
    assert layer("cold_scan", "serving.pred_hit_share") <= 0.01
    assert layer("cold_scan", "serving.encode_hit_share") < 0.9
    assert layer("overload_open", "pacing.admit_share") < 0.5
    assert layer("overload_open", "gateway.shed_pacer_limit_share") > layer(
        "overload_open", "gateway.shed_deadline_share"
    )
    for name in ("hot_zipf", "cold_scan", "fleet_zipf"):
        assert w[name]["end_to_end"]["learned_share"]["value"] == 1.0


def test_traced_request_trees_sum_to_their_root(quick_result):
    for name in ("hot_zipf", "overload_open"):
        rows = [json.loads(line) for line in (HERE / "out" / f"trace-{name}.jsonl").open()]
        spans = [(r["span"], r["parent"], r["request"], r["name"], r["start"], r["end"])
                 for r in rows]
        assert {"bench.request", "gateway.request", "serving.predict"} <= {s[3] for s in spans}
        totals = _sum_by_request(self_times(spans))
        assert len(totals) > 10
        for total, root in totals.values():
            assert total == pytest.approx(root, rel=1e-9, abs=1e-12)


def test_runner_leaves_nothing_behind(quick_result):
    leftovers = [p.name for p in (HERE / "out").iterdir()
                 if p.name.startswith(("run-", ".part-"))]
    assert leftovers == []
    def runners():
        found = []
        for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
            try:
                argv = cmdline.read_bytes().split(b"\0")
                if b"python" in argv[0] and argv[1:2] == [str(HERE / "run.py").encode()]:
                    found.append(cmdline.parent.name)
            except (FileNotFoundError, ProcessLookupError):
                pass  # the process ended while we looked
        return found

    deadline = time.monotonic() + 5.0  # a reaped worker may linger in /proc for a moment
    while runners() and time.monotonic() < deadline:
        time.sleep(0.1)
    assert runners() == []


def test_contract_line_and_comparator_on_one_workload(quick_result, tmp_path):
    result, _ = quick_result
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            RUN + ["--workload", "hot_zipf", "--seed", "12", "--seconds", "1",
                   "--trace", str(trace), "--quick"],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
        assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
        assert sorted(last["metrics"]) == sorted(m["name"] for m in DECLARATION[section])
        assert all(sorted(v) == ["unit", "value"] for v in last["metrics"].values())

    same = tmp_path / "a.json"
    same.write_text(json.dumps(result))
    assert compare.main(["--a", str(same), "--b", str(same)]) == 0
    other = dict(result, workloads={
        k: dict(v, stream_sha256="0" * 64) for k, v in result["workloads"].items()
    })
    differs = tmp_path / "b.json"
    differs.write_text(json.dumps(other))
    assert compare.main(["--a", str(same), "--b", str(differs)]) == 2  # digests differ: refused
    slower = json.loads(json.dumps(result))
    record = slower["workloads"]["cold_scan"]["end_to_end"]["goodput_rps"]
    record["rounds"] = [v * 0.5 for v in record["rounds"]]
    worse = tmp_path / "c.json"
    worse.write_text(json.dumps(slower))
    assert compare.main(["--a", str(same), "--b", str(worse)]) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench_e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench_e2e/run.py", "--workload", "hot_zipf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
