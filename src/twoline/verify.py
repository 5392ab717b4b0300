"""Verification suites: the package's identities run as machine checks.

Each suite produces a VerificationReport with one entry per check;
`overall` is the conjunction.  Every check is a pure function of its
parameters, so suites could be sharded freely; they are run sequentially
here because each one is already fast at its default scale.  The suites
that enumerate import the objects and bijections when they run, so the
suites of counts load neither.
"""
from __future__ import annotations

import json
import math
from itertools import islice, permutations
from operator import mul
from typing import NamedTuple

import twoline  # twoline.objects imports its modules when a suite enumerates

from . import counting as cnt
from . import families
from . import series as ser

class Check(NamedTuple):
    id: str
    ok: bool
    detail: str


class VerificationReport:
    def __init__(self, suite: str) -> None:
        self.suite = suite
        self.checks: list[Check] = []

    @property
    def overall(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, id: str, ok: bool, detail: str, witness: str | None = None) -> None:
        """Add a check; a failing one appends `witness`, what it compared, to its detail."""
        if not ok and witness is not None:
            detail += f"; {witness}"
        self.checks.append(Check(id, bool(ok), detail))

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "overall": self.overall,
            "checks": [
                {"id": c.id, "status": "pass" if c.ok else "fail", "detail": c.detail}
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _add_identity(rep: VerificationReport, id: str, detail: str, indices, holds) -> None:
    """Add check `id`, which passes when holds(*i) for every index tuple i;
    a failing check appends the first i that breaks it."""
    bad = next((i for i in indices if not holds(*i)), None)
    rep.add(id, bad is None, detail, bad and f"first mismatch ({', '.join(map(str, bad))})")


class _Arguments(dict):
    """`enumerate`'s parsed arguments for a families.FAMILIES call: None if not given."""

    __getattr__ = dict.get


def _listed(family: str, cell, names=None):
    """What `enumerate family` lists at `cell`, the values of `names` (default: required)."""
    required, _, call, _, _ = families.FAMILIES[family]
    return call(twoline.objects, _Arguments(zip(names or required, cell)))


def _series_inverse(denominator: dict, max_sum: int):
    """Coefficients of 1 / D(x, y) up to x^max_sum y^max_sum, D given by its terms."""
    denom = ser.series2(denominator, max_sum, max_sum)
    return ser.bivariate_inverse_coeffs(denom, max_sum, max_sum)


def suite_triangle(max_sum: int = 16) -> VerificationReport:
    """Five routes to a(k, n), and b against its series.  Each route's rows are
    built once and read cell by cell; a_binomial alone is evaluated per cell."""
    rep = VerificationReport("triangle")
    half, signed_max = max_sum // 2, min(max_sum, 20)
    table, zt, bt = cnt.a_table(max_sum), cnt.z_table(max_sum), cnt.b_table(max_sum)
    gf = _series_inverse({(0, 0): 1, (2, 0): -1, (0, 2): -1, (1, 1): -1, (2, 2): 1}, max_sum)
    bgf = _series_inverse({(0, 0): 1, (1, 1): -1, (2, 1): -1, (1, 2): -1, (2, 2): -1}, max_sum)
    along = list(islice(cnt._a_long_rows(max_sum), max_sum + 1))  # along[k][n] = a(k, n)
    peakless = list(islice(cnt._m_rows(), half + 1))  # peakless[k][k + n] = m(k, n)
    sums = list(islice(cnt._s_rows(max_sum), half + 1))  # sums[n][k] = s(n, k)
    tilings = list(islice(cnt._tiling_rows(), max_sum + 1))  # d(k, n) = tilings[k] . tilings[n]
    diagonal = list(islice(cnt.r_diag_terms(), half + 1))  # r(n)
    signed = cnt.signed_step_path_counts(signed_max)  # signed[k][n], every path walked once
    a = table.value
    fence = [(n, k) for n in range(half + 1) for k in range(2 * n + 1)]
    # check id, detail, indices, the identity at those indices
    rows = (
        ("four-way-agreement", "recurrence table, long recurrence, binomial sum and series "
         f"extraction agree for k+n <= {max_sum}", families.pairs(max_sum),
         lambda k, n: a(k, n) == along[k][n] == cnt.a_binomial(k, n) == gf.coeff(k, n)),
        ("signed-path-agreement", f"signed lattice-path enumeration agrees for k+n <= {signed_max}",
         families.pairs(signed_max), lambda k, n: signed[k][n] == a(k, n)),
        ("symmetry-and-parity", "a(k,n) = a(n,k); odd k+n entries vanish", families.pairs(max_sum),
         lambda k, n: a(k, n) == a(n, k) and (a(k, n) == 0 or (k + n) % 2 == 0)),
        ("row-unimodality", "rows weakly increase toward their centre",
         ((r,) for r in range(half + 1)),
         lambda r: list(table.rows[r][: r + 1]) == sorted(table.rows[r][: r + 1])),
        ("peakless-index-identity", f"m(k,n) = a(k-n,k+n) for k <= {half}",
         ((k, n) for k in range(half + 1) for n in range(-k, k + 1)),
         lambda k, n: peakless[k][k + n] == along[k - n][k + n]),
        ("fence-index-identity", f"z(2n,k) = a(2n-k,k) for 2n <= {max_sum}", fence,
         lambda n, k: zt.value(2 * n, k) == along[2 * n - k][k]),
        ("sum012-identity", f"s(n,k) = z(2n,k) for 2n <= {max_sum}", fence,
         lambda n, k: sums[n][k] == zt.value(2 * n, k)),
        ("domino-identity", f"d(k,n) = a(k,n) for k+n <= {max_sum}", families.pairs(max_sum),
         lambda k, n: sum(map(mul, tilings[k], tilings[n])) == a(k, n)),
        ("b-series-agreement", f"b recurrence matches series extraction for k+n <= {max_sum}",
         families.pairs(max_sum), lambda k, n: bt.value(k, n) == bgf.coeff(k, n)),
        ("diagonal-b-identity", "b(n,n) = a(n,n) = r(n)", ((n,) for n in range(half + 1)),
         lambda n: bt.value(n, n) == a(n, n) == diagonal[n]),
    )
    for check_id, detail, indices, holds in rows:
        _add_identity(rep, check_id, detail, indices, holds)
    return rep


def suite_fibonacci(max_m: int = 30) -> VerificationReport:
    rep = VerificationReport("fibonacci")
    table = cnt.a_table(2 * max_m - 2 if max_m >= 1 else 0)
    _add_identity(
        rep,
        "a-row-sums",
        f"row m of the matching triangle sums to F(2m) for m <= {max_m}",
        ((m,) for m in range(1, max_m + 1)),
        lambda m: sum(table.rows[m - 1]) == cnt.fibonacci(2 * m),
    )
    zt = cnt.z_table(max_m)
    _add_identity(
        rep,
        "z-row-sums",
        f"fence row m sums to F(m+2) for m <= {max_m}",
        ((m,) for m in range(max_m + 1)),
        lambda m: sum(zt.rows[m]) == cnt.fibonacci(m + 2),
    )
    return rep


def suite_diagonal(max_n: int = 200) -> VerificationReport:
    rep = VerificationReport("diagonal")
    g = ser.inv_sqrt_trunc(ser.series([1, -2, -1, -2, 1]), max_n)
    rs = list(islice(cnt.r_diag_terms(), max_n + 1))
    # tiling row n holds C(n-l, l) at n - 2l verticals, built by t(n, v) =
    # t(n-1, v-1) + t(n-2, v), the rule C(n-l, l) = C(n-1-l, l) + C(n-1-l, l-1)
    squares = [sum(map(mul, row, row)) for row in islice(cnt._tiling_rows(), max_n + 1)]
    _add_identity(
        rep,
        "series-route",
        f"holonomic recurrence matches the inverse square root series up to n = {max_n}",
        ((n,) for n in range(max_n + 1)),
        lambda n: rs[n] == g.coeff(n),
    )
    _add_identity(
        rep,
        "binomial-route",
        f"holonomic recurrence matches the squared-binomial sum up to n = {max_n}",
        ((n,) for n in range(max_n + 1)),
        lambda n: rs[n] == squares[n],
    )
    amax = min(max_n, 100)
    table = cnt.a_table(2 * amax)
    _add_identity(
        rep,
        "table-route",
        f"diagonal of the recurrence table agrees up to n = {amax}",
        ((n,) for n in range(amax + 1)),
        lambda n: rs[n] == table.value(n, n),
    )
    r5 = cnt.r_diag(5)
    rep.add("anchor-r5", r5 == 26, "r(5) = 26", f"r_diag(5) gives {r5}")
    return rep


def suite_asymptotics() -> VerificationReport:
    rep = VerificationReport("asymptotics")
    e4 = cnt.asymptotic_estimate(4)
    rep.add(
        "small-n-error",
        e4.relative_error < 0.06,
        f"relative error at n=4 is {e4.relative_error:.4f} (< 0.06)",
    )
    ns = (100, 200, 400, 800, 1600)
    errs = [cnt.asymptotic_estimate(n).relative_error for n in ns]
    rep.add(
        "monotone-decay",
        all(a > b for a, b in zip(errs, errs[1:])),
        "relative error decreases over n = " + ", ".join(map(str, ns)),
        "relative errors " + ", ".join(f"{e:.4e}" for e in errs),
    )
    scaled = [n * e for n, e in zip(ns, errs)]
    ratios = [b / a for a, b in zip(scaled, scaled[1:])]
    rep.add(
        "error-scale",
        all(0.8 <= r <= 1.25 for r in ratios),
        "n * relative_error stays bounded (successive ratios "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + ")",
    )
    return rep


def suite_bounds(max_sum: int = 60) -> VerificationReport:
    rep = VerificationReport("bounds")
    table = cnt.a_table(max(max_sum, 80))
    fib = [cnt.fibonacci(s) for s in range(max_sum + 1)]
    _add_identity(
        rep,
        "fibonacci-bound",
        f"a(k,n) <= F(k+n) for k+n <= {max_sum}",
        families.pairs(max_sum),
        # F(0) = 0 bounds nothing, so a(0,0) = 1 is its own base case
        lambda k, n: table.value(k, n) == 1
        if k + n == 0
        else table.value(k, n) <= fib[k + n],
    )
    a4040_t = table.value(40, 40)
    a4040_b = cnt.a_binomial(40, 40)
    rep.add(
        "forty-points-bound",
        a4040_t == a4040_b and a4040_t < 3**39,
        f"a(40,40) = {a4040_t} < 3^39 = {3**39} (table and binomial routes agree)",
        f"the binomial route gives {a4040_b}",
    )
    return rep


def roundtrip(domain, forward, inverse) -> tuple[int, int, int, object]:
    """Domain size, image size (distinct encodings), roundtrip failures and the
    first failing object's encoding, or None, of inverse(forward(x)) == x."""
    text = lambda x: x.encode() if hasattr(x, "encode") else repr(x)
    size = failures = 0
    images, witness = set(), None
    for obj in domain:
        size += 1
        image = forward(obj)
        images.add(text(image))
        if inverse(image) != obj:
            failures += 1
            witness = text(obj) if witness is None else witness
    return size, len(images), failures, witness


def suite_bijections(max_scale: int = 12) -> VerificationReport:
    from . import bijections as bij
    from .objects.compositions import Composition
    from .objects.fence import ClosedSet
    from .partsets import ONE_TWO

    rep = VerificationReport("bijections")
    s, nmax = max_scale, min(max_scale // 2 + 2, 8)
    closed_sets = ("closedsets", [(m,) for m in range(0, min(s, 12) + 1, 2)])
    s1_comps = ("compositions", [(n,) for n in range(min(s, 10) + 1)])
    # check id, the map it checks, noun, (family, cells of its required arguments)
    rows = (
        ("closed-to-matching", "closed-to-matching", "closed sets", closed_sets),
        ("closed-to-012", "closed-to-012", "closed sets", closed_sets),
        ("012-to-motzkin", "012-to-motzkin", "sums",
         ("s012", [(n, k) for n in range(min(s // 2, 6) + 1) for k in range(2 * n + 1)])),
        ("matching-to-weighted", "matching-to-weighted", "matchings",
         ("matchings", [(n, n) for n in range(min(s // 2, 5) + 1)])),
        ("chords-to-motzkin", "chords-to-motzkin", "configurations",
         ("chords", [(n,) for n in range(1, nmax + 1)])),
        ("motzkin-to-chords", "motzkin-to-chords", "paths",
         ("motzkin", [(n, 0) for n in range(1, nmax + 1)])),
        ("split-horizontals", "split-horizontals", "matchings",
         ("matchings", list(families.pairs(min(s, 12))))),
        ("s1-to-domino", "s1-to-domino", "compositions", s1_comps),
        ("s1-to-odd", "s1-to-s2", "compositions", s1_comps),
        ("staircase-to-compositions", "staircase-to-compositions", "staircases",
         ("staircases", list(families.pairs(min(s, 10))))),
    )
    rebuilt = {"split-horizontals": "segment layout", "staircase-to-compositions": "run pair"}
    marked = ClosedSet(14, frozenset({4, 5, 6, 8, 9, 10}))
    # check id -> (the anchor check that follows it, its detail, want, got)
    anchors = {
        "closed-to-012": (
            "closed-to-012-anchor", "the marked 14-vertex fence encodes as 0+0+2+1+2+1+0",
            (0, 0, 2, 1, 2, 1, 0), bij.closed_set_to_012(marked).summands,
        ),
        "s1-to-odd": (
            "s1-to-odd-anchor", "1+2+2+1+2+1+2 maps to 1+5+3+3", (1, 5, 3, 3),
            bij.composition_s1_to_s2(Composition((1, 2, 2, 1, 2, 1, 2), ONE_TWO)).parts,
        ),
    }
    maps = {name: (fn, inverse) for name, _, _, fn, inverse in families.maps()}
    for check_id, name, noun, (family, cells) in rows:
        fn, inverse = maps[name]
        domain = (obj for cell in cells for obj in _listed(family, cell))
        size, images, failures, witness = roundtrip(
            domain, lambda x: fn(bij, x), lambda y: inverse(bij, y)
        )
        if check_id in rebuilt:
            detail = f"{size} {noun} rebuilt from their {rebuilt[check_id]}"
        else:
            detail = f"{size} {noun}, {failures} roundtrip failures"
        rep.add(
            check_id, failures == 0 and images == size, detail,
            f"first failure {witness!r}, domain size {size}, image size {images}",
        )
        if check_id in anchors:
            anchor_id, anchor, want, got = anchors[check_id]
            rep.add(anchor_id, got == want, anchor, f"got {'+'.join(map(str, got))}")
    return rep


def _brute_force_lacings(k: int, n: int, mode: str | None) -> int:
    """Lacings among every visit order: those from L1 to the mode's end hole that
    pass Lacing.validate(mode), or for mode None those that start on the left,
    end on the right and give every hole an opposite-side lace-neighbour."""
    from .errors import InvalidInput
    from .objects import Lacing

    holes = [("L", i) for i in range(1, k + 1)] + [("R", j) for j in range(1, n + 1)]
    if mode is None:
        orders = (o for o in permutations(holes) if o[0][0] == "L" and o[-1][0] == "R")
        return sum(Lacing(k, n, o).unlaced_hole() is None for o in orders)
    end = ("R", 1) if mode == "right" else ("R", n)
    found = 0
    for rest in permutations(h for h in holes[1:] if h != end):
        try:
            Lacing(k, n, (holes[0], *rest, end)).validate(mode)
        except InvalidInput:
            continue
        found += 1
    return found


def suite_lacing() -> VerificationReport:
    rep = VerificationReport("lacing")
    for n in (2, 3, 4):
        got = _brute_force_lacings(n, n, "right")
        want = math.factorial(n - 1) ** 2 * cnt.a_long(n, n)
        rep.add(
            f"right-count-{n}x{n}",
            got == want,
            f"brute force found {got}, formula ((n-1)!)^2 a(n,n) gives {want}",
        )
    for n in (2, 3, 4):
        got = _brute_force_lacings(n, n, "non_self_crossing")
        rep.add(
            f"noncrossing-count-{n}x{n}",
            got == cnt.a_long(n, n),
            f"brute force found {got}, a(n,n) = {cnt.a_long(n, n)}",
        )
    mismatch_swapped, ok_all = False, True
    for k, n in ((2, 3), (3, 4), (2, 4)):
        b = cnt.b_value(k, n)
        ncross = _brute_force_lacings(k, n, "non_self_crossing")
        right = _brute_force_lacings(k, n, "right")
        free = _brute_force_lacings(k, n, None)
        formula = math.factorial(k - 1) * math.factorial(n - 1) * b
        free_formula = math.factorial(k) * math.factorial(n) * b
        ok = ncross == b and right == formula and free == free_formula
        ok_all = ok_all and ok
        mismatch_swapped = mismatch_swapped or right != free_formula
        rep.add(
            f"defective-{k}x{n}",
            ok,
            f"non-crossing {ncross} = b({k},{n}) = {b}; right {right} = "
            f"(k-1)!(n-1)!b = {formula}; unrestricted {free} = k!n!b = {free_formula}",
        )
    rep.add(
        "defective-formula-resolution",
        ok_all and mismatch_swapped,
        "brute force decides the uneven-shoe counts: right lacings number "
        "(k-1)!(n-1)! b(k,n) and unrestricted ones k! n! b(k,n); the swapped "
        "reading (k! n! for right lacings) disagrees with enumeration",
    )
    return rep


def suite_enumeration(max_scale: int = 12) -> VerificationReport:
    """Cardinality agreement between every enumerator and its counter: the check
    of each families.FAMILIES row that has one, the lacings check last."""
    rep = VerificationReport("enumeration")
    s = min(max_scale, 12)
    # the report's check order is part of its output, and lacings has come last
    rows = sorted(families.FAMILIES.items(), key=lambda item: item[0] == "lacings")
    for family, (*_, check) in rows:
        if check is not None:
            check_id, names, detail, cells, counter = check
            _add_identity(rep, check_id, detail(s), cells(s), _counted(family, names, counter))
    return rep


def _counted(family: str, names, counter):
    """holds(*cell): `enumerate family` lists counter(counting, *cell) objects there."""
    return lambda *cell: sum(1 for _ in _listed(family, cell, names)) == counter(cnt, *cell)


def suite_all(max_scale: int = 12) -> VerificationReport:
    """Every other suite, in table order.  The scale reaches triangle (capped at
    its default), enumeration and bijections; the rest run at their defaults."""
    scaled = {
        "triangle": min(max_scale, SUITES["triangle"][1]),
        "enumeration": max_scale,
        "bijections": max_scale,
    }
    rep = VerificationReport("all")
    for name, (_, default) in SUITES.items():
        if name != "all":
            rep.extend(run_suite(name, scaled.get(name, default)))
    return rep


# name -> (suite, default scale), in the order and at the scales of families.SUITES
SUITES = {name: (globals()[f"suite_{name}"], scale) for name, scale in families.SUITES.items()}


def run_suite(name: str, max_scale: int | None = None) -> VerificationReport:
    """Run one suite (or all of them) at an optional overriding scale."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    suite, default = SUITES[name]
    if default is None:
        return suite()
    return suite(default if max_scale is None else max_scale)
