"""Child-side code of the traced run: spans around calls into `twoline`.

Run as `python perfbench/tracer.py <mode> <spans-file> ...` with the
measured tree's `src/` on PYTHONPATH.  Modes:

  job -- ARGV...      run one CLI request; spans for argument parsing, the
                      command, and each call the command makes into the
                      counting, verify, bijections and objects layers
  layers GROUP        call one layer's public functions directly
  peak FUNCTION       one counting call alone in a fresh process, for its
                      peak RSS

Spans (name, start, end, parent) stay in memory and are written to the
spans file when the child ends, with per-name totals and self times.
Memoized kernels are never wrapped by replacing their module global: they
recurse through that global, so a wrapper would double the frame depth.
The job mode replaces only the CLI module's references to other modules.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import resource
import sys
import time

COUNTING_FNS = (
    "a_long", "b_value", "z_value", "m_count", "d_count", "s_count", "r_diag",
    "asymptotic_estimate", "a_table", "b_table", "z_table", "a_binomial", "a_diag_binomial",
)
PEAK_FNS = ("r_diag", "asymptotic_estimate", "d_count", "z_table")
MEMO_FNS = ("a_long", "b_value", "z_value")
SERIES_FNS = ("inv_sqrt_trunc", "inverse_trunc", "mul_trunc", "bivariate_inverse_coeffs", "composition_gf_coeffs")
ENUMERATORS = (
    "enum_matchings", "enum_peakless", "enum_012", "enum_compositions", "enum_weighted_paths",
    "enum_closed_sets", "enum_staircases", "enum_b_step_paths", "enum_domino_pairs", "enum_chords",
    "enum_lacings",
)
BIJECTION_PAIRS = (
    "closed-to-matching", "closed-to-012", "012-to-motzkin", "matching-to-weighted",
    "chords-to-motzkin", "motzkin-to-chords", "split-horizontals", "s1-to-domino", "s1-to-odd",
    "staircase-to-compositions",
)
SUITES = (
    "suite_triangle", "suite_bijections", "suite_fibonacci", "suite_diagonal", "suite_asymptotics",
    "suite_bounds", "suite_lacing", "suite_enumeration",
)
SPAN_KEEP = 5000  # spans written verbatim per child; the summary covers all


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def summary(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds]."""
        out: dict[str, list] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child_time):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return out

    def write(self, path: str) -> None:
        doc = {
            "spans": self.spans[:SPAN_KEEP],
            "spans_dropped": max(0, len(self.spans) - SPAN_KEEP),
            "summary": self.summary(),
            "counts": self.counts,
            "maxrss_kb": _peak_rss_kb(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _peak_rss_kb() -> int:
    """Peak RSS since exec (VmHWM).  ru_maxrss would also count the pages
    this process held as a fork of its parent before exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _wrap(tracer: Tracer, name: str, fn):
    def call(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if hasattr(result, "__next__"):
            return _spanned_iter(tracer, name, result)
        return result

    return call


def _spanned_iter(tracer: Tracer, name: str, it):
    while True:
        with tracer.span(name):
            try:
                obj = next(it)
            except StopIteration:
                return
        yield obj


class _LayerProxy:
    """Stands in for a module inside the CLI; each call it hands out is spanned."""

    def __init__(self, module, layer: str, tracer: Tracer):
        self._module, self._layer, self._tracer = module, layer, tracer

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if callable(value) and not isinstance(value, type):
            return _wrap(self._tracer, f"{self._layer}.{attr}", value)
        return value


def run_job(tracer: Tracer, argv: list[str]) -> int:
    from twoline import cli

    for alias, layer in (("cnt", "counting"), ("vfy", "verify"), ("bij", "bijections")):
        if hasattr(cli, alias):
            setattr(cli, alias, _LayerProxy(getattr(cli, alias), layer, tracer))
    for name in dir(cli):
        if name.startswith("enum_"):
            setattr(cli, name, _wrap(tracer, f"objects.{name}", getattr(cli, name)))
    with tracer.span("cli.parse"):
        args = cli.build_parser().parse_args(argv)
    with tracer.span(f"cli.{args.command}"):
        rc = args.func(args)
    sys.stdout.flush()
    return rc


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"tracer: wrong result from {what}")


def layer_counting(t: Tracer) -> None:
    import reference as ref
    from twoline import counting as c

    with t.span("counting.a_long"):
        v = c.a_long(300, 300)
    _check(v == ref.a_closed(300, 300), "a_long")
    with t.span("counting.b_value"):
        v = c.b_value(400, 400)
    _check(v == ref.b_closed(400, 400), "b_value")
    with t.span("counting.z_value"):  # the calls `export A079487 --terms 200000` makes
        terms, row = 0, 0
        while terms < 200000:
            for k in range(row + 1):
                v = c.z_value(row, k)
            terms += row + 1
            row += 1
    _check(v == ref.z_closed(row - 1, row - 1), "z_value")
    for name in MEMO_FNS:  # a kernel without a memo reports no hits and no entries
        cache_info = getattr(getattr(c, name), "cache_info", None)
        hits, misses, _, size = cache_info() if cache_info else (0, 0, None, 0)
        t.counts[f"counting.{name}.hit_ratio"] = hits / max(1, hits + misses)
        t.counts[f"counting.{name}.cache_entries"] = size
    with t.span("counting.m_count"):
        v = c.m_count(400, 0)
    _check(v == ref.m_closed(400, 0), "m_count")
    with t.span("counting.s_count"):
        v = c.s_count(300, 300)
    _check(v == ref.s_closed(300, 300), "s_count")
    with t.span("counting.a_table"):
        table = c.a_table(400)
    _check(table.value(200, 200) == ref.a_closed(200, 200), "a_table")
    with t.span("counting.b_table"):
        table = c.b_table(400)
    _check(table.value(150, 250) == ref.b_closed(150, 250), "b_table")
    with t.span("counting.a_binomial"):  # every entry up to k + n = 120
        for s in range(121):
            for k in range(s + 1):
                v = c.a_binomial(k, s - k)
    _check(v == ref.a_closed(120, 0), "a_binomial")
    with t.span("counting.a_diag_binomial"):  # the binomial route of `verify --suite diagonal`
        for n in range(1001):
            v = c.a_diag_binomial(n)
    _check(v == ref.r_closed(1000), "a_diag_binomial")


def layer_series(t: Tracer) -> None:
    import reference as ref
    from twoline import series as s
    from twoline.partsets import ONE_TWO

    p = s.series([1, -2, -1, -2, 1])
    with t.span("series.inv_sqrt_trunc"):
        g = s.inv_sqrt_trunc(p, 1000)
    _check(g.coeff(1000) == ref.r_closed(1000), "inv_sqrt_trunc")
    with t.span("series.inverse_trunc"):
        q = s.inverse_trunc(g, 1000)
    with t.span("series.mul_trunc"):
        one = s.mul_trunc(g, q, 1000)
    _check(one.coeffs == (1,) + (0,) * 1000, "inverse_trunc and mul_trunc")
    denom = s.series2({(0, 0): 1, (2, 0): -1, (0, 2): -1, (1, 1): -1, (2, 2): 1}, 400, 400)
    with t.span("series.bivariate_inverse_coeffs"):
        gf = s.bivariate_inverse_coeffs(denom, 400, 400)
    _check(gf.coeff(200, 200) == ref.a_closed(200, 200), "bivariate_inverse_coeffs")
    with t.span("series.composition_gf_coeffs"):
        comp = s.composition_gf_coeffs(ONE_TWO, 2000)
    _check(comp.coeff(10) == 89, "composition_gf_coeffs")


def layer_objects(t: Tracer) -> None:
    from twoline import objects as o
    from twoline.partsets import ONE_TWO

    calls = {
        "enum_matchings": (12, 12),
        "enum_peakless": (14, 1),
        "enum_012": (14, 13),
        "enum_compositions": (ONE_TWO, 24),
        "enum_weighted_paths": (14,),
        "enum_closed_sets": (20,),
        "enum_staircases": (12, 12),
        "enum_b_step_paths": (12, 12),
        "enum_domino_pairs": (12, 12),
        "enum_chords": (10,),
        "enum_lacings": (5, 5, "non_self_crossing"),
    }
    emitted = 0
    for name in ENUMERATORS:
        fn, args = getattr(o, name), calls[name]
        with t.span(f"objects.{name}"):
            n = sum(1 for _ in fn(*args))
        with t.span(f"objects.{name}.first100"):
            for _ in itertools.islice(fn(*args), 100):
                pass
        t.counts[f"objects.{name}.objects"] = n
        emitted += n
    t.counts["objects.emitted"] = emitted


def layer_bijections(t: Tracer) -> None:
    """The domains of `suite_bijections` at scale 14, each pair timed alone."""
    from twoline import bijections as b
    from twoline import objects as o
    from twoline.partsets import ONE_TWO

    closed = [c for m in range(0, 13, 2) for c in o.enum_closed_sets(m)]
    sums = [x for n in range(7) for k in range(2 * n + 1) for x in o.enum_012(n, k)]
    square = [m for n in range(6) for m in o.enum_matchings(n, n)]
    chords = [c for n in range(1, 9) for c in o.enum_chords(n)]
    levels = [p for n in range(1, 9) for p in o.enum_peakless(n, 0)]
    matchings = [m for s in range(13) for k in range(s + 1) for m in o.enum_matchings(k, s - k)]
    s1 = [c for n in range(11) for c in o.enum_compositions(ONE_TWO, n)]
    stairs = [x for s in range(11) for k in range(s + 1) for x in o.enum_staircases(k, s - k)]
    pairs = {
        "closed-to-matching": (closed, b.closed_set_to_matching, b.matching_to_closed_set),
        "closed-to-012": (closed, b.closed_set_to_012, b.sum012_to_closed_set),
        "012-to-motzkin": (sums, b.s012_to_motzkin, b.motzkin_to_s012),
        "matching-to-weighted": (square, b.matching_to_weighted_path, b.weighted_path_to_matching),
        "chords-to-motzkin": (chords, b.chords_to_motzkin, b.motzkin_to_chords),
        "motzkin-to-chords": (levels, b.motzkin_to_chords, b.chords_to_motzkin),
        "split-horizontals": (
            matchings,
            lambda m: (m.k, m.n) + tuple(b.matching_split_horizontals(m)),
            lambda parts: b.matching_from_horizontals(*parts),
        ),
        "s1-to-domino": (s1, b.composition_s1_to_domino, b.domino_to_composition_s1),
        "s1-to-odd": (s1, b.composition_s1_to_s2, b.composition_s2_to_s1),
        "staircase-to-compositions": (
            stairs,
            b.staircase_to_composition_pair,
            lambda hv: b.composition_pair_to_staircase(*hv),
        ),
    }
    for name in BIJECTION_PAIRS:
        domain, forward, inverse = pairs[name]
        with t.span(f"bijections.{name}"):
            bad = sum(1 for x in domain if inverse(forward(x)) != x)
        _check(bad == 0, name)
        t.counts[f"bijections.{name}.roundtrips"] = len(domain)


def layer_verify(t: Tracer) -> None:
    from twoline import verify as v

    scales = {"suite_triangle": (60,), "suite_bijections": (14,), "suite_diagonal": (1000,)}
    checks = 0
    for name in SUITES:
        with t.span(f"verify.{name}"):
            report = getattr(v, name)(*scales.get(name, ()))
        _check(report.overall, name)
        checks += len(report.checks)
    t.counts["verify.checks"] = checks


def peak(t: Tracer, name: str) -> None:
    import reference as ref
    from twoline import counting as c

    calls = {
        "r_diag": (lambda: c.r_diag(10000), lambda v: v == ref.r_closed(10000)),
        "asymptotic_estimate": (lambda: c.asymptotic_estimate(50000), lambda v: v.relative_error < 1e-4),
        "d_count": (lambda: c.d_count(2000, 2000), lambda v: v == ref.d_closed(2000, 2000)),
        "z_table": (lambda: c.z_table(400), lambda v: v.value(400, 150) == ref.z_closed(400, 150)),
    }
    run, ok = calls[name]
    with t.span(f"counting.{name}"):
        v = run()
    _check(ok(v), name)


LAYERS = {
    "counting": layer_counting,
    "series": layer_series,
    "objects": layer_objects,
    "bijections": layer_bijections,
    "verify": layer_verify,
}


def main(argv: list[str]) -> int:
    mode, path, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    rc = 0
    try:
        if mode == "job":
            rc = run_job(tracer, rest[1:] if rest[:1] == ["--"] else rest)
        elif mode == "layers":
            LAYERS[rest[0]](tracer)
        elif mode == "peak":
            peak(tracer, rest[0])
        else:
            raise SystemExit(f"tracer: unknown mode {mode!r}")
    finally:
        tracer.write(path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
