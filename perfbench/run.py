#!/usr/bin/env python3
"""End-to-end benchmark of the `twoline` CLI, with an optional traced run.

    python3 perfbench/run.py --workload big-values --seed 1 --seconds 16 --trace 0

Run it from the root of a source tree.  Every request is a fresh
`python -m twoline.cli` process with that tree's `src/` on PYTHONPATH, under
an address-space cap, one at a time: a closed loop with a single client.
Each output is checked against an independent reference (reference.py).
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; with `--trace 0` the metrics are the end-to-end
ones, with `--trace 1` the per-layer ones from tracer.py.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MEM_CAP_BYTES = 512 << 20  # ~5x the largest timed request (export A079487, ~95 MB RSS)
OUTPUT_CAP_BYTES = 256 << 20  # larger outputs are drained, not kept, and fail the check
KEEP_BYTES = 1 << 20  # outputs up to this size are also kept in memory
SETUP_REPS = 5  # set-up samples before each pass, so they spread over the run
MIN_PASSES = 3
MAX_MEASURE_S = 100  # stop starting passes after this, whatever --seconds says

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_failed_ratio", "ratio"),
    ("cli_p50_ms", "ms"),
    ("cli_p90_ms", "ms"),
    ("objects_per_s", "1/s"),
    ("limit_p50_ms", "ms"),
)

PER_LAYER = (
    (("import.cli_s", "s"), ("import.modules", "count"))
    + (("cli.parse_ms", "ms"), ("cli.format_s", "s"), ("cli.output_bytes", "bytes"))
    + tuple((f"counting.{f}.s", "s") for f in tracer.COUNTING_FNS)
    + tuple((f"counting.{f}.peak_mb", "MB") for f in tracer.PEAK_FNS)
    + tuple(
        (f"counting.{f}.{m}", u) for f in tracer.MEMO_FNS for m, u in (("hit_ratio", "ratio"), ("cache_entries", "count"))
    )
    + tuple((f"series.{f}.s", "s") for f in tracer.SERIES_FNS)
    + tuple(
        (f"objects.{e}.{m}", u) for e in tracer.ENUMERATORS for m, u in (("objects_per_s", "1/s"), ("first100_ms", "ms"))
    )
    + (("objects.emitted", "count"),)
    + tuple((f"bijections.{p}.roundtrips_per_s", "1/s") for p in tracer.BIJECTION_PAIRS)
    + tuple((f"verify.{s}.s", "s") for s in tracer.SUITES)
    + (("verify.checks", "count"), ("trace.overhead_s", "s"))
)


class Outcome:
    """One child process: exit code, latencies, peak RSS and its stdout.

    Stdout is streamed to a file in the work directory, so the benchmark
    process stays small: the peak RSS the kernel reports for a child also
    counts pages it held as a fork of this process.  `text` holds the bytes
    when the output is small; `path` holds all of it until the next child.
    """

    def __init__(self, argv, rc, err, latency, first_line, maxrss_kb, size, lines, sha256, text, path):
        self.argv, self.rc, self.err = argv, rc, err
        self.latency, self.first_line, self.maxrss_kb = latency, first_line, maxrss_kb
        self.size, self.lines, self.sha256, self.text, self.path = size, lines, sha256, text, path
        self.ok = False


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP_BYTES, MEM_CAP_BYTES))


def _digest_file(path: str) -> tuple[int, int, str, bytes | None]:
    size, lines, sha = 0, 0, hashlib.sha256()
    head = bytearray()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            size += len(chunk)
            lines += chunk.count(b"\n")
            sha.update(chunk)
            if size <= KEEP_BYTES:
                head += chunk
    return size, lines, sha.hexdigest(), bytes(head) if size <= KEEP_BYTES else None


class Runner:
    """Starts children against one source tree, one at a time."""

    def __init__(self, root: str):
        self.root = root
        self.work = os.path.join(HERE, ".work")
        os.makedirs(self.work, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.python = sys.executable

    def child(self, cmd: list[str]) -> Outcome:
        err_path = os.path.join(self.work, "stderr")
        out_path = os.path.join(self.work, "stdout")
        with open(err_path, "wb") as err, open(out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=err, cwd=self.work, env=self.env, preexec_fn=_cap_memory
            )
            size, first = 0, None
            fd = proc.stdout.fileno()
            try:
                while chunk := os.read(fd, 1 << 20):
                    if first is None and b"\n" in chunk:
                        first = time.perf_counter()
                    size += len(chunk)
                    if size <= OUTPUT_CAP_BYTES:
                        out.write(chunk)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
        with open(err_path, "rb") as fh:
            err_text = fh.read()[-2000:]
        stats = _digest_file(out_path) if size <= OUTPUT_CAP_BYTES else (size, 0, "", None)
        return Outcome(cmd, proc.returncode, err_text, end - t0, (first or end) - t0, usage.ru_maxrss, *stats, out_path)

    def request(self, argv: list[str], prefix: list[str] | None = None) -> Outcome:
        """One CLI request; output written with --out is read back as its output."""
        res = self.child((prefix or [self.python, "-m", "twoline.cli"]) + argv)
        res.argv = argv
        if "--out" in argv:
            path = os.path.join(self.work, argv[argv.index("--out") + 1])
            if os.path.exists(path):
                res.size, res.lines, res.sha256, res.text = _digest_file(path)
                os.replace(path, res.path)
        return res

    def python_c(self, code: str) -> Outcome:
        return self.child([self.python, "-c", code])

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def checked(runner: Runner, checker: reference.Checker, argv: list[str], **kw) -> Outcome:
    res = runner.request(argv, **kw)
    res.ok = res.rc == 0 and res.size <= OUTPUT_CAP_BYTES and checker.ok(argv, res)
    return res


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _ratio(num, den):
    return num / den if den else float("nan")


def _quantile(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) density.  With a few
    request sizes far apart, a plain order statistic jumps between them from
    run to run; this estimate moves smoothly."""
    xs = sorted(xs)
    n = len(xs)
    if n < 2:
        return xs[0] if xs else float("nan")
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 32  # midpoint rule on each order statistic's interval
    total = weight_sum = 0.0
    for i, x in enumerate(xs):
        w = 0.0
        for j in range(steps):
            u = (i + (j + 0.5) / steps) / n
            w += math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u) - log_beta)
        total += w * x
        weight_sum += w
    return total / weight_sum


def setup_seconds(runner: Runner) -> list[Outcome]:
    """Fresh processes that start Python, import twoline.cli and build the parser."""
    runs = [runner.python_c("import twoline.cli as c; c.build_parser()") for _ in range(SETUP_REPS)]
    for r in runs:
        r.ok = r.rc == 0
    return runs


def timed_passes(runner, checker, jobs, seconds) -> tuple[list[list[Outcome]], list[Outcome]]:
    """Whole passes over the job list until `seconds` have gone, at least MIN_PASSES."""
    passes, setup = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start < seconds and time.perf_counter() - start < MAX_MEASURE_S
    ):
        setup += setup_seconds(runner)
        passes.append([checked(runner, checker, argv) for argv in jobs])
    return passes, setup


def _is_listing(argv) -> bool:
    return argv[0] != "verify" and "--limit" not in argv


def end_to_end(setup, passes, probes) -> dict[str, float]:
    """The end-to-end metrics; failed requests enter only ops_failed_ratio.

    A request's time in `wall_s` and `objects_per_s` is its median over the
    passes, which keeps a burst of machine noise in one pass out of them.
    """
    per_job = [[p[i] for p in passes if p[i].ok] for i in range(len(passes[0]))]
    done = [runs for runs in per_job if runs]
    samples = [r for runs in done for r in runs]
    latency = [_median([r.latency for r in runs]) for runs in done]
    listing = [(runs[0].lines, t) for runs, t in zip(done, latency) if _is_listing(runs[0].argv)]
    limited = [r for r in samples if "--limit" in r.argv] or samples
    jobs_failed = sum(1 for runs in per_job if len(runs) < len(passes))
    probes_failed = sum(1 for r in probes if not r.ok)
    return {
        "setup_s": _median([r.latency for r in setup if r.ok]),
        "wall_s": sum(latency),
        "peak_rss_mb": max((r.maxrss_kb for r in samples), default=0) / 1024,
        "ops_failed_ratio": (jobs_failed + probes_failed) / (len(per_job) + len(probes)),
        "cli_p50_ms": 1000 * _quantile([r.latency for r in samples], 0.5),
        "cli_p90_ms": 1000 * _quantile([r.latency for r in samples], 0.9),
        "objects_per_s": _ratio(sum(n for n, _ in listing), sum(t for _, t in listing)),
        "limit_p50_ms": 1000 * _quantile([r.first_line for r in limited], 0.5),
    }


def _take_spans(path: str) -> dict:
    """The spans file a tracer child wrote, removed once read; {} if none."""
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    os.remove(path)
    return doc


def traced_child(runner: Runner, args: list[str], name: str) -> tuple[Outcome, dict]:
    path = os.path.join(runner.work, f"spans-{name}.json")
    res = runner.child([runner.python, os.path.join(HERE, "tracer.py"), args[0], path] + args[1:])
    doc = _take_spans(path)
    res.ok = res.rc == 0 and bool(doc)
    return res, doc


def per_layer(runner, checker, jobs) -> tuple[dict[str, float], list[Outcome], dict]:
    """The traced run: import probes, one plain and one traced pass, the layer plan."""
    ran: list[Outcome] = []
    trace: dict[str, dict] = {}
    bare = [runner.python_c("pass") for _ in range(3 * SETUP_REPS)]
    imp = [runner.python_c("import twoline.cli") for _ in range(3 * SETUP_REPS)]
    mods = runner.python_c("import sys, twoline.cli; print(sum(m.split('.')[0] == 'twoline' for m in sys.modules))")
    for r in bare + imp + [mods]:
        r.ok = r.rc == 0
    ran += bare + imp + [mods]
    m: dict[str, float] = {
        "import.cli_s": _median([r.latency for r in imp]) - _median([r.latency for r in bare]),
        "import.modules": int(mods.text or b"0"),
    }

    plain = [checked(runner, checker, argv) for argv in jobs]
    traced = []
    parse, fmt = [], 0.0
    for i, argv in enumerate(jobs):
        path = os.path.join(runner.work, "spans-job.json")
        res = checked(runner, checker, argv, prefix=[runner.python, os.path.join(HERE, "tracer.py"), "job", path, "--"])
        doc = _take_spans(path)
        res.ok = res.ok and bool(doc)
        traced.append(res)
        trace[f"job{i}:{' '.join(argv)}"] = doc
        summary = doc.get("summary", {})
        parse += [summary["cli.parse"][1]] if "cli.parse" in summary else []
        fmt += sum(row[2] for name, row in summary.items() if name == f"cli.{argv[0]}")
    ran += plain + traced
    m["cli.parse_ms"] = 1000 * _median(parse)
    m["cli.format_s"] = fmt
    m["cli.output_bytes"] = sum(r.size for r in traced)
    m["trace.overhead_s"] = sum(r.latency for r in traced) - sum(r.latency for r in plain)

    summary: dict[str, list] = {}
    counts: dict[str, float] = {}
    peaks: dict[str, float] = {}
    for group in tracer.LAYERS:
        res, doc = traced_child(runner, ["layers", group], group)
        ran.append(res)
        trace[f"layers:{group}"] = doc
        summary.update(doc.get("summary", {}))
        counts.update(doc.get("counts", {}))
    for fn in tracer.PEAK_FNS:
        res, doc = traced_child(runner, ["peak", fn], f"peak-{fn}")
        ran.append(res)
        trace[f"peak:{fn}"] = doc
        summary.update(doc.get("summary", {}))
        peaks[fn] = doc.get("maxrss_kb", 0) / 1024

    def total(name):
        return summary.get(name, [0, float("nan")])[1]

    for f in tracer.COUNTING_FNS:
        m[f"counting.{f}.s"] = total(f"counting.{f}")
    for f in tracer.PEAK_FNS:
        m[f"counting.{f}.peak_mb"] = peaks[f]
    for f in tracer.MEMO_FNS:
        m[f"counting.{f}.hit_ratio"] = counts.get(f"counting.{f}.hit_ratio", float("nan"))
        m[f"counting.{f}.cache_entries"] = counts.get(f"counting.{f}.cache_entries", float("nan"))
    for f in tracer.SERIES_FNS:
        m[f"series.{f}.s"] = total(f"series.{f}")
    for e in tracer.ENUMERATORS:
        m[f"objects.{e}.objects_per_s"] = counts.get(f"objects.{e}.objects", 0) / total(f"objects.{e}")
        m[f"objects.{e}.first100_ms"] = 1000 * total(f"objects.{e}.first100")
    m["objects.emitted"] = counts.get("objects.emitted", float("nan"))
    for p in tracer.BIJECTION_PAIRS:
        m[f"bijections.{p}.roundtrips_per_s"] = counts.get(f"bijections.{p}.roundtrips", 0) / total(f"bijections.{p}")
    for s in tracer.SUITES:
        m[f"verify.{s}.s"] = total(f"verify.{s}")
    m["verify.checks"] = counts.get("verify.checks", float("nan"))
    return m, ran, trace


def environment(runner: Runner) -> dict:
    info = runner.python_c("import sys; print(sys.get_int_max_str_digits())")
    src = os.path.join(runner.root, "src", "twoline")
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    commit = None
    if os.path.isdir(os.path.join(runner.root, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=runner.root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "int_max_str_digits": int(info.text or b"0") if info.rc == 0 else None,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "mem_cap_bytes": MEM_CAP_BYTES,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "twoline", "cli.py")):
        print(f"perfbench: no source tree at {root}/src/twoline; run from the repository root", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # references may exceed the 4300-digit default
    with open(reference.REFS_PATH, encoding="utf-8") as fh:
        refs = json.load(fh)
    checker = reference.Checker(refs["outputs"])
    jobs = workloads.jobs(args.workload, args.seed, refs["map_requests"])

    runner = Runner(root)
    try:
        runner.python_c("import twoline.cli")  # writes bytecode caches before anything is timed
        env = environment(runner)
        if args.trace:
            metrics, ran, trace = per_layer(runner, checker, jobs)
            units = dict(PER_LAYER)
            extra = {"trace_file": write_out(f"trace-{args.workload}.json", trace)}
        else:
            passes, setup = timed_passes(runner, checker, jobs, args.seconds)
            probes = [checked(runner, checker, p.split()) for p in workloads.probes(args.workload)]
            metrics = end_to_end(setup, passes, probes)
            ran = [r for p in passes for r in p] + setup
            units = dict(END_TO_END)
            extra = {
                "passes": len(passes),
                "requests": len(ran),
                "probes": {" ".join(r.argv): {"rc": r.rc, "ok": r.ok} for r in probes},
            }
    finally:
        runner.close()

    failed = [r for r in ran if not r.ok]
    for r in failed:
        print(f"FAILED rc={r.rc}: {' '.join(r.argv)}\n{r.err.decode(errors='replace')}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]:>16.6g} {unit}")
    info = {"workload": args.workload, "seed": args.seed, "environment": env, **extra}
    print(json.dumps(info))
    result = {
        "correct": not failed,
        "attempted": len(ran),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    write_out(f"result-{args.workload}.json", {"info": info, "result": result})
    print(json.dumps(result))
    return 0


def write_out(name: str, doc) -> str:
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return os.path.relpath(path)


if __name__ == "__main__":
    sys.exit(main())
