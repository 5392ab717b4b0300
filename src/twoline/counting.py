"""Counters for the two-line matching triangle and its relatives.

Naming used throughout (mirrors the canonical text encodings and the CLI):

  a(k, n)   noncrossing matchings of k points on one line, n on the other;
            zero when k + n is odd, symmetric in (k, n)
  b(k, n)   segment/point configurations with equally many objects per line
            (the staircase triangle), with b(0,0) = 1 and b = 0 whenever
            exactly one index is zero
  z(m, k)   k-element closed vertex sets of the zigzag fence on m vertices
  d(k, n)   pairs of 2xk / 2xn domino tilings with equal vertical counts
  m(k, n)   peakless Motzkin paths of k steps ending at height n
  s(n, k)   n-term 0-1-2 sums equal to k with no 2 immediately before a 0
  r(n)      the diagonal a(n, n)

All values are exact Python ints.  Each recurrence is written once, as a
generator of rows (_a_rows, _a_long_rows, _b_diagonals, _z_rows, _m_rows,
_s_rows, _tiling_rows) that keeps only the rows the next one reads and never
changes a row it has yielded: a table is the first rows of one, and a_long
reads one entry of one.  Each family's single value but r(n) is one of two
binomial sums stepped term by term, so its work is bounded by the smaller
index: a_binomial, with m_count, s_count, d_count, z_value and a_diag_binomial
as index changes of it, and b_value.  r_diag keeps the holonomic recurrence.
Nothing here keeps a memo, and the sums and the brute-force signed paths
never read a recurrence, on purpose: verify compares them with the rows.
asymptotic_estimate needs only r(n) rounded to a double, and reads it from
r's binomial sum in decimal, rounded down and up, building the exact r(n) only
when that does not decide.  Tables are immutable, so everything here can be
shared freely across threads.
"""
from __future__ import annotations

import math
import sys
from itertools import count, islice
from typing import Iterator, NamedTuple

from .errors import InstanceTooLarge, NonIntegralRecurrenceStep

SIGNED_PATH_MAX_SUM = 24

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


class TriangleTable(NamedTuple):
    """A triangle as its display rows.

    kind "a": row r is a(2r,0)..a(0,2r), the entries with k + n = 2r;
    kind "b": row r is b(0,r)..b(r,0), the entries with k + n = r;
    kind "z": row m is the fence row z(m,0)..z(m,m).
    """

    kind: str
    rows: tuple[tuple[int, ...], ...]

    def value(self, i: int, j: int) -> int:
        """a(i, j), b(i, j) or z(i, j): zero at odd a-sums and outside the rows."""
        kind = self.kind
        if i < 0 or j < 0 or (kind == "a" and (i + j) % 2):
            return 0
        if kind == "a":
            r, pos = (i + j) // 2, j
        elif kind == "b":
            r, pos = i + j, i
        else:
            r, pos = i, j
        try:
            return self.rows[r][pos]
        except IndexError:  # past the last row, or z(m, k) with k > m
            return 0


class AsymptoticEstimate(NamedTuple):
    """Log-domain comparison of the leading-term estimate against exact r(n)."""

    n: int
    estimate_log: float
    exact_log: float
    relative_error: float


def _a_rows() -> Iterator[list[int]]:
    """Display rows a(2r, 0)..a(0, 2r) for r = 0, 1, 2, ...: the four-term recurrence

        a(k, n) = a(k-1, n-1) + a(k-2, n) + a(k, n-2) - a(k-2, n-2)

    for all (k, n) != (0, 0), with a = 0 at negative indices and a(0,0) = 1.
    Odd k + n is always zero, so row r reads only rows r-1 and r-2.
    """
    older, row = [], [1]  # rows -1 and 0
    while True:
        yield row
        p, o = [0, 0] + row + [0, 0], [0, 0] + older + [0, 0]
        older, row = row, [a + b + c - d for a, b, c, d in zip(p, p[1:], p[2:], o)]


def _first_rows(rows: Iterator[list[int]], n_rows: int) -> tuple[tuple[int, ...], ...]:
    """The first `n_rows` rows of a row generator, as tuples."""
    if n_rows > sys.maxsize:
        raise InstanceTooLarge(f"tables are built only up to {sys.maxsize} rows")
    return tuple(map(tuple, islice(rows, max(0, n_rows))))


def a_table(max_sum: int) -> TriangleTable:
    """Triangle of a(k, n) for k + n <= max_sum: rows 0..max_sum // 2 of _a_rows."""
    return TriangleTable("a", _first_rows(_a_rows(), max_sum // 2 + 1))


def _a_long_rows(width: int) -> Iterator[list[int]]:
    """Rows a(i, 0..width) for i = 0, 1, 2, ...: the one-sided recurrence

        a(k, n) = a(k-2, n) + a(k-1, n-1) + a(k-1, n-3) + a(k-1, n-5) + ...

    Row i is built from rows i-1 and i-2; the tail a(i-1, j-1) + a(i-1, j-3)
    + ... is a running sum over the entries of row i's parity class, so each
    row costs O(width) additions.
    """
    older, row = [0] * (width + 1), [1 - j % 2 for j in range(width + 1)]  # rows -1 and 0
    for i in count(1):
        yield row
        new, tail = older[:], 0
        for j in range(i % 2, width + 1, 2):  # a(i, j) = 0 when i + j is odd
            if j:
                tail += row[j - 1]
            new[j] += tail
        older, row = row, new


def a_long(k: int, n: int) -> int:
    """a(k, n): entry n of row k of _a_long_rows, at O(k n) additions."""
    if k < 0 or n < 0 or (k + n) % 2 == 1:
        return 0
    return next(islice(_a_long_rows(n), k, None))[n]


def a_binomial(k: int, n: int) -> int:
    """Closed form: sum over j = parity(k) of C(p, j) * C(q, j), p = (k+j)/2, q = (n+j)/2.

    Each term comes from the one before by the exact ratio
    (p+1)(p-j)(q+1)(q-j) / ((j+1)(j+2))^2, so the work is min(k, n)/2 steps.
    """
    if k < 0 or n < 0 or (k + n) % 2:
        return 0
    p, q = (k + 1) // 2, (n + 1) // 2  # at the first term, j = k % 2
    total = term = p * q if k % 2 else 1
    for i in range(k % 2 + 1, min(k, n), 2):  # i = j + 1: the term at j + 2 from the one at j
        p += 1
        q += 1
        d = i * (i + 1)
        term = term * (p * (p - i) * q * (q - i)) // (d * d)
        total += term
    return total


def a_diag_binomial(n: int) -> int:
    """Diagonal r(n) = a(n, n) as a's binomial sum: the sum of C(n-l, l)^2 over
    0 <= l <= n//2 is a_binomial(n, n), since C(n-l, l) = C((n+j)/2, j) with
    j = n - 2l."""
    return a_binomial(n, n)


def _b_diagonals() -> Iterator[list[int]]:
    """Antidiagonals b(0, s)..b(s, 0) for s = 0, 1, 2, ...: the one b recurrence

        b(i, j) = b(i-1, j-1) + b(i-1, j-2) + b(i-2, j-1) + b(i-2, j-2),

    which holds everywhere except (0, 0) and reads antidiagonals s-2..s-4.
    Each step adds 1 or 2 to both indices, so b(i, j) = 0 unless j <= 2i and
    i <= 2j: past the seeds s <= 3, only the entries s/3 <= i <= 2s/3 are
    computed, and the others read 0.
    """
    d4, d3, d2, d1 = [1], [0, 0], [0, 1, 0], [0, 1, 1, 0]  # s = 0..3
    yield from (d4, d3, d2, d1)
    for s in count(4):
        lo, hi = -(-s // 3), 2 * s // 3
        terms = zip(d2[lo - 1 : hi], d3[lo - 1 : hi], d3[lo - 2 : hi - 1], d4[lo - 2 : hi - 1])
        row = [0] * lo + [a + b + c + d for a, b, c, d in terms] + [0] * (s - hi)
        yield row
        d4, d3, d2, d1 = d3, d2, d1, row


def b_table(max_sum: int) -> TriangleTable:
    """Triangle of b(k, n) for k + n <= max_sum: antidiagonals 0..max_sum of _b_diagonals."""
    return TriangleTable("b", _first_rows(_b_diagonals(), max_sum + 1))


def _z_rows() -> Iterator[list[int]]:
    """Rows z(m, 0..m) for m = 0, 1, 2, ...: the fence triangle by rows.

    Rows 0 and 1 are (1) and (1, 1); afterwards

        z(2n, k)   = z(2n-1, k)   + z(2n-2, k-2)
        z(2n+1, k) = z(2n,   k-1) + z(2n-1, k).
    """
    older, row = [1], [1, 1]
    yield older
    while True:
        yield row
        if len(row) % 2:  # the next row, m = len(row), is odd
            shifted, lifted = [0] + row, older + [0, 0]
        else:
            shifted, lifted = row + [0], [0, 0] + older
        older, row = row, [x + y for x, y in zip(shifted, lifted)]


def z_table(max_row: int) -> TriangleTable:
    """Rows 0..max_row of the fence triangle z(m, k), from _z_rows."""
    return TriangleTable("z", _first_rows(_z_rows(), max_row + 1))


def b_value(k: int, n: int) -> int:
    """Closed form from B(x, y) = 1 / (1 - xy(1+x)(1+y)): the sum over m of
    C(m, k-m) * C(m, n-m), for max(k, n)/2 <= m <= min(k, n).

    Each term comes from the one before by the exact ratio
    (m+1)^2 (k-m)(n-m) / ((2m+2-k)(2m+1-k)(2m+2-n)(2m+1-n)).
    """
    m, top = (max(k, n) + 1) // 2, min(k, n)
    if m > top:  # includes every negative index
        return 0
    total = term = math.comb(m, k - m) * math.comb(m, n - m)
    for m in range(m, top):  # the term at m + 1 from the one at m
        term = term * ((m + 1) ** 2 * (k - m) * (n - m)) // (
            (2 * m + 2 - k) * (2 * m + 1 - k) * (2 * m + 2 - n) * (2 * m + 1 - n)
        )
        total += term
    return total


def z_value(m: int, k: int) -> int:
    """z(m, k) from a's binomial sum: z(2n, k) = a(2n-k, k), and for odd m the
    even-row rule z(m+1, k) = z(m, k) + z(m-1, k-2) gives a(m+1-k, k) - a(m+1-k, k-2)."""
    if k < 0 or k > m:
        return 0
    if m % 2 == 0:
        return a_binomial(m - k, k)
    return a_binomial(m + 1 - k, k) - a_binomial(m + 1 - k, k - 2)


def fibonacci(m: int) -> int:
    """F(m) with F(0) = 0, F(1) = F(2) = 1."""
    if m < 0:
        raise ValueError("negative Fibonacci index")
    a, b = 0, 1
    for _ in range(m):
        a, b = b, a + b
    return a


def r_diag_terms(kind=int) -> Iterator:
    """r(0), r(1), r(2), ... with r(n) = a(n, n), by the holonomic recurrence

        n r(n) = (2n-1) r(n-1) + (n-1) r(n-2) + (2n-3) r(n-3) - (n-2) r(n-4)

    with seeds r(0..3) = 1, 1, 2, 5, keeping a window of four terms.  The
    division by n is asserted exact.  The seeds are converted by `kind`, and
    the terms have its type: `decimal.Decimal` in a context of unbounded
    precision gives the same numbers, with linear-time printing.
    """
    r4, r3, r2, r1 = map(kind, (1, 1, 2, 5))  # r(i-4), ..., r(i-1) for i = 4
    yield from (r4, r3, r2, r1)
    i = 4
    while True:
        q, rem = divmod(
            (2 * i - 1) * r1 + (i - 1) * r2 + (2 * i - 3) * r3 - (i - 2) * r4, i
        )
        if rem:
            raise NonIntegralRecurrenceStep(f"step {i} not divisible by {i}")
        r4, r3, r2, r1 = r3, r2, r1, q
        yield q
        i += 1


def r_diag(n: int) -> int:
    """Diagonal value r(n) = a(n, n), term n of r_diag_terms."""
    if n < 0:
        raise ValueError("negative diagonal index")
    if n > sys.maxsize:
        raise InstanceTooLarge(f"r(n) is computed only for n <= {sys.maxsize}")
    return next(islice(r_diag_terms(), n, None))


def _diagonal_sum_bounds(n: int, prec: int) -> tuple[int, int]:
    """Integers lo <= r(n) <= hi: the sum of C(n-l, l)^2 over 0 <= l <= n//2,
    each C(n-l, l) from the one before by the exact ratio
    (n-2l+2)(n-2l+1) / (l (n-l+1)), in decimal at `prec` digits, once with
    every operation rounded down and once up.

    Every quantity in the loop is positive, so each rounding moves the sum
    the same way.  Each bound is built as coefficient * 10**exponent, since
    int(Decimal) is quadratic in the digits.
    """
    import decimal

    bounds = []
    for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING):
        context = decimal.Context(prec=prec, rounding=rounding, Emax=decimal.MAX_EMAX)
        with decimal.localcontext(context):
            total = c = decimal.Decimal(1)  # the term at l = 0
            for l in range(1, n // 2 + 1):
                c = c * ((n - 2 * l + 2) * (n - 2 * l + 1)) / (l * (n - l + 1))
                total += c * c
            _, digits, exponent = total.to_integral_value().as_tuple()
        bounds.append(int("".join(map(str, digits))) * 10**exponent)
    return bounds[0], bounds[1]


def _rounded(x: int) -> tuple[float, int]:
    """math.frexp of the int x > 0 rounded to a double's 53 bits, at any size.

    Like CPython's _PyLong_Frexp, which math.log uses on ints too large for a
    float: keep the top 55 bits with a sticky bit for the rest, then round
    those half to even.
    """
    shift = x.bit_length() - 55
    if shift <= 0:
        return math.frexp(float(x))
    top = x >> shift | (x & ((1 << shift) - 1) != 0)
    mantissa, exponent = math.frexp(float(top))
    return mantissa, exponent + shift


def asymptotic_estimate(n: int) -> AsymptoticEstimate:
    """Leading-term estimate phi^(2n+2) / (2 * 5^(1/4) * sqrt(pi n)) vs exact r(n).

    Works entirely in the log domain.  exact_log is math.log of the exact
    r(n), which depends only on r(n) rounded to 53 bits.  That rounding is
    read from an enclosure lo <= r(n) <= hi at about 30 digits
    (_diagonal_sum_bounds), at a cost linear in n: when lo and hi round to
    the same double, math.log(lo) is math.log(r(n)).  Only when they do not
    is the exact r(n) built.
    """
    if n < 1:
        raise ValueError("asymptotic estimate needs n >= 1")
    if n > sys.maxsize:
        raise InstanceTooLarge(f"r(n) is computed only for n <= {sys.maxsize}")
    estimate_log = (2 * n + 2) * math.log(GOLDEN_RATIO) - math.log(
        2 * 5**0.25 * math.sqrt(math.pi * n)
    )
    # about 2n roundings of relative size 10**(1 - prec) each: far below 2**-53
    lo, hi = _diagonal_sum_bounds(n, 30 + len(str(n)))
    exact_log = math.log(lo) if _rounded(lo) == _rounded(hi) else math.log(r_diag(n))
    relative_error = abs(math.exp(estimate_log - exact_log) - 1.0)
    return AsymptoticEstimate(n, estimate_log, exact_log, relative_error)


def _m_rows() -> Iterator[list[int]]:
    """Rows m(i, -i..i) for i = 0, 1, 2, ...: the last-step recurrence

        m(k, n) = m(k-1, n-1) + m(k-1, n) + m(k-1, n+1) - m(k-2, n).

    The body is _a_rows' under the index change m(k, n) = a(k-n, k+n).  It
    stays separate on purpose: peakless-index-identity compares these rows
    with the long recurrence; read from _a_rows, it would only repeat
    four-way-agreement's a table check, and no check would test an m recurrence.
    """
    older, row = [], [1]  # steps -1 and 0
    while True:
        yield row
        p, o = [0, 0] + row + [0, 0], [0, 0] + older + [0, 0]
        older, row = row, [a + b + c - d for a, b, c, d in zip(p, p[1:], p[2:], o)]


def m_count(k: int, n: int) -> int:
    """Peakless Motzkin paths with k steps ending at height n: a(k - n, k + n)."""
    return a_binomial(k - n, k + n)


def _s_rows(width: int) -> Iterator[list[int]]:
    """Rows s(n, 0..width) for n = 0, 1, 2, ...: n-term 0-1-2 sums by total."""
    # sums so far by total 0..width: the last summand was not 2, and was 2
    free, after2 = [1] + [0] * width, [0] * (width + 1)
    while True:
        row = [f + a for f, a in zip(free, after2)]
        yield row
        ends = [0] + row  # ends[t] = all sums at t - 1
        free, after2 = [f + e for f, e in zip(free, ends)], [0] + ends[:width]


def s_count(n: int, k: int) -> int:
    """0-1-2 sums: n ordered summands totalling k, never 0 right after 2: a(2n - k, k)."""
    return a_binomial(2 * n - k, k)


def _tiling_rows() -> Iterator[list[int]]:
    """Rows t(w, 0..w) for w = 0, 1, 2, ...: 2 x w domino tilings by their
    number of verticals (a leftmost vertical, or two stacked horizontals)."""
    older, row = [], [1]  # widths -1 and 0
    while True:
        yield row
        older, row = row, [v + h for v, h in zip([0] + row, older + [0, 0])]


def d_count(k: int, n: int) -> int:
    """Pairs of 2xk and 2xn domino tilings with equal numbers of verticals:
    the sum over v of t(k, v) t(n, v), where t(w, v) = C((w+v)/2, v) counts
    the 2xw tilings with v verticals, so it is a's binomial sum a(k, n)."""
    return a_binomial(k, n)


def signed_step_path_counts(max_sum: int) -> list[list[int]]:
    """Signed lattice-path oracle for a: totals[k][n] for k + n <= max_sum.

    Exhaustively walks every path from the origin with steps (2,0), (0,2),
    (1,1), (2,2) that ends at some k + n <= max_sum, once, adding its weight
    (-1)^(number of (2,2) steps) to its endpoint's total.  Deliberately
    unmemoized: this is the independent brute-force route against which the
    algebraic counters are checked.
    """
    if max_sum > SIGNED_PATH_MAX_SUM:
        raise InstanceTooLarge(f"signed path enumeration capped at k+n <= {SIGNED_PATH_MAX_SUM}")
    totals = [[0] * (max_sum + 1 - k) for k in range(max_sum + 1)]

    def walk(x: int, y: int, sign: int) -> None:
        totals[x][y] += sign
        if x + y + 2 <= max_sum:
            walk(x + 2, y, sign)
            walk(x, y + 2, sign)
            walk(x + 1, y + 1, sign)
            if x + y + 4 <= max_sum:
                walk(x + 2, y + 2, -sign)

    if totals:
        walk(0, 0, 1)
    return totals
