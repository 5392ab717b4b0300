#!/usr/bin/env python3
"""Paired parent/change runs of the end-to-end benchmark, summarized as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent ../parent --change ../change --pr 18 \\
        --title "what the change does" --seeds 1 2 3 4 5 --out BENCH_18.json

For each workload of the change's BENCHMARK.json and each seed, a pair runs
`python3 perfbench/run.py --workload W --seed S --seconds 16 --trace 0` (16
being BENCHMARK.json's run_seconds) from the root of each checkout, one run
at a time, parent first on the 1st, 3rd, ... pair and change first on the
others, and reads the run's `perfbench/out/result-W.json`.

The summary holds, per workload, the seeds, the pair count, whether every
run was correct, each run's timed passes over its job list (`info.passes`,
which moves `peak_rss_mb` when it flips) and, per side, the median
`peak_rss_mb` of the runs at each pass count (`peak_by_passes`, which
compares peaks at an equal pass count); per end-to-end metric of
BENCHMARK.json, its unit, direction and bound, each side's median, quartiles
(statistics.quantiles, method='inclusive') and runs, the pairs the change won
(strictly better in the metric's direction) and the relative change of the
medians.  Each side also records its `src/twoline` line total
(`src_lines`), over the files CI's line-count step counts.  Use clean
copies of the two commits (`git clone`), so that each side's commit and
`src/twoline` SHA-256 are recorded.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
METHOD = (
    "pairs of parent and change runs on one host, one run at a time, alternating which side "
    "runs first (parent first on the 1st, 3rd, ... pair); quartiles by "
    "statistics.quantiles(method='inclusive'); a pair is won when the change reads strictly better"
)


def read_result(root: str, workload: str) -> dict:
    """The result file the last run of `workload` left under `root`."""
    with open(os.path.join(root, "perfbench", "out", f"result-{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_side(root: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    subprocess.run(argv + ["--seconds", str(seconds), "--trace", "0"], cwd=root, check=True, stdout=subprocess.DEVNULL)
    return read_result(root, workload)


def src_lines(root: str) -> int:
    """Lines of src/twoline/*.py and src/twoline/objects/*.py under `root`, as `wc -l` counts them."""
    total = 0
    for package in ("twoline", os.path.join("twoline", "objects")):
        for path in glob.glob(os.path.join(root, "src", package, "*.py")):
            with open(path, encoding="utf-8") as fh:
                total += fh.read().count("\n")
    return total


def spread(runs: list[float]) -> dict:
    """Median, quartiles and the runs themselves."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def won(parent: float, change: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def relative(parent: float, change: float) -> float | None:
    if parent == 0:
        return 0.0 if change == 0 else None
    return round((change - parent) / parent, 4)


def peak_by_passes(runs: list[dict]) -> dict:
    """Pass count -> median peak_rss_mb of the runs that made that many timed
    passes, fewest passes first."""
    peaks = {}
    for r in sorted(runs, key=lambda r: r["info"]["passes"]):
        peaks.setdefault(str(r["info"]["passes"]), []).append(r["result"]["metrics"]["peak_rss_mb"]["value"])
    return {passes: statistics.median(values) for passes, values in peaks.items()}


def summarize(pr: int, title: str, claimed, benchmark: dict, pairs: dict, lines: dict) -> dict:
    """BENCH_<pr>.json from BENCHMARK.json's contents, `pairs`: workload ->
    {"seeds": [...], "parent": [result, ...], "change": [result, ...]}, the
    results in seed order, and `lines`: side -> its `src_lines`."""
    workloads, env = {}, {}
    for workload, runs in pairs.items():
        metrics = {}
        for spec in benchmark["end_to_end"]:
            name, better = spec["name"], spec["better"]
            values = {side: [r["result"]["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
            parent, change = spread(values["parent"]), spread(values["change"])
            metrics[name] = {
                "unit": spec["unit"],
                "better": better,
                "bound": spec["bound"],
                "parent": parent,
                "change": change,
                "change_better_pairs": sum(won(p, c, better) for p, c in zip(values["parent"], values["change"])),
                "median_change": relative(parent["median"], change["median"]),
            }
        workloads[workload] = {
            "seeds": runs["seeds"],
            "pairs": len(runs["seeds"]),
            "correct": {side: all(r["result"]["correct"] for r in runs[side]) for side in SIDES},
            "passes": {side: [r["info"]["passes"] for r in runs[side]] for side in SIDES},
            "peak_by_passes": {side: peak_by_passes(runs[side]) for side in SIDES},
            "metrics": metrics,
        }
        for side in SIDES:
            env[side] = runs[side][-1]["info"]["environment"]
    return {
        "pr": pr,
        "change": title,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {benchmark['run_seconds']}"
        " --trace 0, run from the root of a clean copy of each commit",
        "method": METHOD,
        "claimed": claimed,
        "sides": {
            side: {"src_sha256": env[side]["src_sha256"], "commit": env[side]["commit"], "src_lines": lines[side]}
            for side in SIDES
        },
        "workloads": workloads,
        "machine": {key: env["change"][key] for key in ("nproc", "python", "mem_cap_bytes")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="root of the parent commit's checkout")
    ap.add_argument("--change", required=True, help="root of the change commit's checkout")
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--title", required=True, help="one line saying what the change does")
    ap.add_argument("--seeds", type=int, nargs="+", required=True, help="one per pair")
    ap.add_argument("--claim", nargs=2, metavar=("WORKLOAD", "METRIC"), help="the gain claimed, if any")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    pairs = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = {"seeds": args.seeds, "parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(run_side(roots[side], workload, seed, benchmark["run_seconds"]))
                print(f"{workload} seed {seed} {side}: correct={runs[side][-1]['result']['correct']}", file=sys.stderr)
        pairs[workload] = runs
    claimed = {"workload": args.claim[0], "metric": args.claim[1]} if args.claim else None
    with open(args.out, "w", encoding="utf-8") as fh:
        lines = {side: src_lines(roots[side]) for side in SIDES}
        json.dump(summarize(args.pr, args.title, claimed, benchmark, pairs, lines), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
