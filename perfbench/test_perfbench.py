"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The smoke tests run every workload with a shortened request list; they need
the source tree's `src/` and take about half a minute.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_closed_forms_on_known_values():
    assert reference.a_closed(2, 4) == 4
    assert [reference.r_closed(n) for n in range(6)] == [1, 1, 2, 5, 11, 26]
    fib = [0, 1]
    while len(fib) < 30:
        fib.append(fib[-1] + fib[-2])
    for m in range(12):  # fence rows sum to F(m + 2)
        assert sum(reference.z_closed(m, k) for k in range(m + 1)) == fib[m + 2]
    assert reference.m_closed(3, 5) == 0 and reference.s_closed(2, 5) == 0


def _outcome(argv, ok=True, latency=0.2, rss=20_000):
    res = run.Outcome(argv, 0 if ok else 1, b"", latency, latency, rss, 2, 1, "", b"x\n", "")
    res.ok = ok
    return res


SETUP = [_outcome(["-c", "import twoline.cli"], latency=0.15)]


def test_probes_stay_out_of_timing_metrics():
    jobs = [["count", "a", "--k", "2", "--n", "4"], ["enumerate", "chords", "--n", "3", "--limit", "2"]]
    passes = [[_outcome(j, latency=0.1 * (i + 1)) for i, j in enumerate(jobs)] for _ in range(2)]
    quiet = run.end_to_end(SETUP, passes, [])
    slow_probes = [_outcome(["table", "a", "--max", "2000"], ok=False, latency=60.0, rss=900_000)] * 3
    loud = run.end_to_end(SETUP, passes, slow_probes)
    for name, _ in run.END_TO_END:
        if name == "ops_failed_ratio":
            assert quiet[name] == 0 and loud[name] == 3 / 5
        else:
            assert loud[name] == quiet[name], name


def test_failed_request_enters_only_the_failure_ratio():
    jobs = [["count", "a", "--k", "2", "--n", "4"], ["count", "r", "--n", "3"]]
    good = [[_outcome(j) for j in jobs] for _ in range(2)]
    bad = [[_outcome(jobs[0]), _outcome(jobs[1], ok=False, latency=50.0, rss=10**7)] for _ in range(2)]
    m = run.end_to_end(SETUP, bad, [])
    assert m["ops_failed_ratio"] == 1 / 2
    assert m["wall_s"] == pytest.approx(0.2) and m["peak_rss_mb"] < 100
    assert m["cli_p50_ms"] == pytest.approx(run.end_to_end(SETUP, good, [])["cli_p50_ms"])


# Small requests of the kinds each workload sends, all with a reference.
SMOKE_JOBS = {
    "cli-small": ["count a --k 2 --n 4", "table z --max 8 --format csv", "table b --max 8 --format bfile --out b.txt"],
    "big-values": ["count a --k 30 --n 30", "count d --k 50 --n 50", "count r --n 300", "asymptotic --n 1000"],
    "sequences": ["export A051286 --terms 10", "export A079487 --terms 30", "table b --max 10 --format bfile"],
    "enumerate": ["enumerate chords --n 10 --limit 100", "enumerate chords --n 5", "enumerate s012 --n 3 --k 3"],
}


@pytest.fixture
def small_runner(monkeypatch):
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    monkeypatch.setattr(workloads, "probes", lambda w: ("count a --k 1200 --n 1200", "count r --n 10400"))
    monkeypatch.setattr(workloads, "jobs", lambda w, s, m: [j.split() for j in SMOKE_JOBS[w]])


def _last_json(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_result_schema(workload, small_runner, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert result["metrics"]["ops_failed_ratio"]["value"] > 0  # the seed's probes fail
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], float) or isinstance(v["value"], int), name


def test_corrupted_reference_counts_as_failed(small_runner, capsys, monkeypatch):
    monkeypatch.setattr(reference, "a_closed", lambda k, n: 7)  # wrong for a(2, 4) = 4
    monkeypatch.setattr(
        workloads, "jobs", lambda w, s, m: [["count", "a", "--k", "2", "--n", "4"], ["count", "r", "--n", "3"]]
    )
    assert run.main(["--workload", "cli-small", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    result = _last_json(capsys)
    assert result["correct"] is False and result["failed"] == 1 and result["attempted"] == 2 + run.SETUP_REPS
    assert result["metrics"]["ops_failed_ratio"]["value"] == pytest.approx(3 / 4)


def test_corrupted_digest_counts_as_failed(tmp_path, small_runner, capsys, monkeypatch):
    with open(reference.REFS_PATH, encoding="utf-8") as fh:
        refs = json.load(fh)
    req = "table z --max 8 --format csv"
    refs["outputs"][req]["sha256"] = "0" * 64
    path = tmp_path / "refs.json"
    path.write_text(json.dumps(refs))
    monkeypatch.setattr(workloads, "jobs", lambda w, s, m: [req.split()])
    monkeypatch.setattr(reference, "REFS_PATH", str(path))
    assert run.main(["--workload", "cli-small", "--seed", "1", "--seconds", "0"]) == 0
    result = _last_json(capsys)
    assert result["correct"] is False and result["failed"] == 1


def test_traced_smoke_reports_every_per_layer_metric(small_runner, capsys):
    assert run.main(["--workload", "sequences", "--seed", "2", "--seconds", "0", "--trace", "1"]) == 0
    result = _last_json(capsys)
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.PER_LAYER)
    assert result["metrics"]["import.modules"]["value"] >= 1
    assert result["metrics"]["cli.output_bytes"]["value"] > 0


def test_refuses_to_run_without_a_source_tree(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cli-small", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == b""
