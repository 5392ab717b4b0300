"""tools/bench_pairs.py builds BENCH_<pr>.json from the result files of paired runs."""
import importlib.util
import json
import pathlib
import statistics

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def fabricate(root, side, values, correct=True, passes=3):
    """Write the result file a run of workload `w` leaves, with every metric at its
    entry in `values` (default 1.0) after `passes` timed passes, and read it back
    as the script does."""
    out = root / side / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    env = {"nproc": 2, "python": "3.11.7", "commit": f"{side}-commit", "src_sha256": f"{side}-sha", "mem_cap_bytes": 1}
    metrics = {m["name"]: {"value": values.get(m["name"], 1.0), "unit": m["unit"]} for m in BENCHMARK["end_to_end"]}
    doc = {"info": {"workload": "w", "seed": 1, "environment": env, "passes": passes}, "result": {"correct": correct, "metrics": metrics}}
    (out / "result-w.json").write_text(json.dumps(doc))
    return bench_pairs.read_result(str(root / side), "w")


def test_summary_from_fabricated_result_files(tmp_path):
    # wall_s (lower is better) and objects_per_s (higher is better), pair by pair;
    # the third pair is a tie in both, which the change does not win
    walls = [(2.0, 1.0), (1.0, 3.0), (5.0, 5.0), (4.0, 2.5), (3.0, 2.0)]
    rates = [(10.0, 20.0), (30.0, 5.0), (7.0, 7.0), (1.0, 2.0), (4.0, 3.0)]
    # each side's timed passes and peak_rss_mb, pair by pair: a 5th pass lifts the peak
    passes = [(5, 4), (4, 5), (4, 4), (4, 5), (5, 4)]
    peaks = [(25.8, 23.5), (23.6, 25.9), (23.4, 23.7), (23.8, 26.1), (25.6, 23.6)]
    pairs = {"w": {"seeds": [1, 2, 3, 4, 5], "parent": [], "change": []}}
    for i, ((wp, wc), (rp, rc), (sp, sc), (pp, pc)) in enumerate(zip(walls, rates, passes, peaks)):
        parent = {"wall_s": wp, "objects_per_s": rp, "peak_rss_mb": pp}
        pairs["w"]["parent"].append(fabricate(tmp_path, "parent", parent, passes=sp))
        change = {"wall_s": wc, "objects_per_s": rc, "peak_rss_mb": pc}
        pairs["w"]["change"].append(fabricate(tmp_path, "change", change, correct=i != 2, passes=sc))
    # fabricated checkouts: the counted files, and one beneath them that is not counted
    for side, counted in (("parent", ["a\n", "b\nc\n"]), ("change", ["a\n", "b\n"])):
        objects = tmp_path / side / "src" / "twoline" / "objects"
        (objects / "deeper").mkdir(parents=True)
        (objects.parent / "top.py").write_text(counted[0])
        (objects / "one.py").write_text(counted[1])
        (objects / "deeper" / "skipped.py").write_text("x\n" * 7)
    lines = {side: bench_pairs.src_lines(str(tmp_path / side)) for side in ("parent", "change")}
    assert lines == {"parent": 3, "change": 2}
    doc = bench_pairs.summarize(18, "a change", None, BENCHMARK, pairs, lines)

    bench_16 = json.loads((ROOT / "BENCH_16.json").read_text())
    assert doc.keys() == bench_16.keys()
    old = bench_16["workloads"]["big-values"]
    # BENCH_16 predates the pass counts
    assert doc["workloads"]["w"].keys() == {*old.keys(), "passes", "peak_by_passes"}
    assert doc["workloads"]["w"]["metrics"].keys() == old["metrics"].keys()
    assert doc["workloads"]["w"]["metrics"]["wall_s"].keys() == old["metrics"]["wall_s"].keys()

    w = doc["workloads"]["w"]
    assert w["pairs"] == 5 and w["correct"] == {"parent": True, "change": False}
    assert w["passes"] == {"parent": [5, 4, 4, 4, 5], "change": [4, 5, 4, 5, 4]}
    assert w["peak_by_passes"] == {
        "parent": {"4": statistics.median([23.6, 23.4, 23.8]), "5": statistics.median([25.8, 25.6])},
        "change": {"4": statistics.median([23.5, 23.7, 23.6]), "5": statistics.median([25.9, 26.1])},
    }
    assert list(w["peak_by_passes"]["parent"]) == ["4", "5"]  # fewest passes first
    for name, table in (("wall_s", walls), ("objects_per_s", rates)):
        for side, runs in zip(("parent", "change"), zip(*table)):
            q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
            assert w["metrics"][name][side] == {"median": median, "q1": q1, "q3": q3, "runs": list(runs)}
    assert w["metrics"]["wall_s"]["change_better_pairs"] == 3
    assert w["metrics"]["objects_per_s"]["change_better_pairs"] == 2
    assert w["metrics"]["setup_s"]["change_better_pairs"] == 0  # equal everywhere
    assert w["metrics"]["wall_s"]["bound"] == 0.24 and w["metrics"]["wall_s"]["better"] == "lower"
    assert w["metrics"]["wall_s"]["median_change"] == round((2.5 - 3.0) / 3.0, 4)
    # BENCH_16 predates the line totals
    assert doc["sides"]["change"].keys() == {*bench_16["sides"]["change"].keys(), "src_lines"}
    assert doc["sides"] == {
        "parent": {"src_sha256": "parent-sha", "commit": "parent-commit", "src_lines": 3},
        "change": {"src_sha256": "change-sha", "commit": "change-commit", "src_lines": 2},
    }
    assert doc["command"].startswith("python3 perfbench/run.py --workload <w> --seed <s> --seconds 16 --trace 0")
    assert doc["machine"] == {"nproc": 2, "python": "3.11.7", "mem_cap_bytes": 1}
