import math
import sys
from functools import lru_cache
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twoline import counting as cnt
from twoline import series as ser
from twoline.errors import InstanceTooLarge

# the five displayed rows of the matching triangle
TRIANGLE_ROWS = [
    (1,),
    (1, 1, 1),
    (1, 2, 2, 2, 1),
    (1, 3, 4, 5, 4, 3, 1),
    (1, 4, 7, 10, 11, 10, 7, 4, 1),
]

# the staircase triangle, anti-diagonal rows b(0,r)..b(r,0)
B_ROWS = [
    (1,),
    (0, 0),
    (0, 1, 0),
    (0, 1, 1, 0),
    (0, 0, 2, 0, 0),
    (0, 0, 2, 2, 0, 0),
    (0, 0, 1, 5, 1, 0, 0),
    (0, 0, 0, 5, 5, 0, 0, 0),
    (0, 0, 0, 3, 11, 3, 0, 0, 0),
]

# the fence triangle rows z(m, 0..m)
Z_ROWS = [
    (1,),
    (1, 1),
    (1, 1, 1),
    (1, 2, 1, 1),
    (1, 2, 2, 2, 1),
    (1, 3, 3, 3, 2, 1),
    (1, 3, 4, 5, 4, 3, 1),
    (1, 4, 6, 7, 7, 5, 3, 1),
    (1, 4, 7, 10, 11, 10, 7, 4, 1),
]


def pairs(max_sum):
    """(k, n) for k + n <= max_sum, odd sums included."""
    return [(k, s - k) for s in range(max_sum + 1) for k in range(s + 1)]


class TestATable:
    def test_displayed_rows(self):
        t = cnt.a_table(8)
        assert [t.rows[r] for r in range(5)] == TRIANGLE_ROWS

    def test_anchors(self):
        t = cnt.a_table(8)
        assert t.value(2, 4) == 4
        assert t.value(4, 4) == 11
        assert t.value(4, 4) == t.value(2, 4) + t.value(3, 3) + t.value(4, 2) - t.value(2, 2)
        assert t.value(1, 0) == 0

    def test_symmetry_and_parity(self):
        t = cnt.a_table(14)
        for k, n in pairs(14):
            v = t.value(k, n)
            assert v == t.value(n, k)
            if (k + n) % 2 == 1:
                assert v == 0

    def test_unimodal_rows(self):
        t = cnt.a_table(20)
        for r in range(11):
            row = t.rows[r]
            half = row[: len(row) // 2 + 1]
            assert list(half) == sorted(half)


class TestALong:
    def test_decomposition_example(self):
        assert cnt.a_long(2, 4) + cnt.a_long(3, 3) + cnt.a_long(3, 1) == 4 + 5 + 2
        assert cnt.a_long(4, 4) == 11

    def test_base(self):
        assert cnt.a_long(0, 0) == 1

    def test_bottom_row_value(self):
        assert cnt.a_long(5, 3) == 10

    def test_agrees_with_table(self):
        t = cnt.a_table(16)
        for k, n in pairs(16):
            assert cnt.a_long(k, n) == t.value(k, n)


class TestABinomial:
    def test_term_breakdown(self):
        # (3,5): j=1 gives 2*3, j=3 gives 1*4
        assert math.comb(2, 1) * math.comb(3, 1) == 6
        assert math.comb(3, 3) * math.comb(4, 3) == 4
        assert cnt.a_binomial(3, 5) == 10

    def test_anchors(self):
        assert cnt.a_binomial(0, 0) == 1
        assert cnt.a_binomial(2, 4) == 4
        assert cnt.a_binomial(1, 2) == 0

    def test_diagonal_specialization(self):
        assert cnt.a_diag_binomial(4) == 1 + 9 + 1 == 11
        assert cnt.a_diag_binomial(0) == 1
        assert cnt.a_diag_binomial(3) == 1 + 4 == 5


class TestClosedForms:
    """The binomial sums `count` reads, against the row generators."""

    def test_a_binomial_steps_equal_fresh_binomials(self):
        for k in range(-2, 61):
            for n in range(-2, 61):
                want = sum(
                    math.comb((k + j) // 2, j) * math.comb((n + j) // 2, j)
                    for j in range(k % 2, min(k, n) + 1, 2)
                ) if k >= 0 and n >= 0 and (k + n) % 2 == 0 else 0
                assert cnt.a_binomial(k, n) == want

    def test_a_binomial_past_every_row_generator(self):
        assert cnt.a_binomial(10**19, 2) == 1 + math.comb(10**19 // 2 + 1, 2)
        assert cnt.a_binomial(2, 10**19) == cnt.a_binomial(10**19, 2)

    def test_b_value_is_the_b_table(self):
        t = cnt.b_table(200)
        for s in range(201):
            for k in range(-1, s + 2):
                assert cnt.b_value(k, s - k) == t.value(k, s - k)

    def test_z_value_is_the_z_table(self):
        t = cnt.z_table(200)
        for m in range(-1, 201):
            for k in range(-2, m + 3):
                assert cnt.z_value(m, k) == t.value(m, k)

    @given(st.integers(0, 300).flatmap(lambda m: st.tuples(st.just(m), st.integers(-2, m + 2))))
    def test_z_value_is_entry_k_of_row_m(self, mk):
        m, k = mk
        row = next(islice(cnt._z_rows(), m, None))
        assert cnt.z_value(m, k) == (row[k] if 0 <= k <= m else 0)


class TestBTable:
    def test_displayed_rows(self):
        t = cnt.b_table(8)
        assert [t.rows[r] for r in range(9)] == B_ROWS

    def test_recurrence_example(self):
        t = cnt.b_table(8)
        assert t.value(4, 4) == 11 == 5 + 2 + 2 + 2
        assert t.value(3, 4) == 5
        assert t.value(0, 2) == 0

    def test_single_values_match(self):
        t = cnt.b_table(12)
        for k, n in pairs(12):
            assert cnt.b_value(k, n) == t.value(k, n)


class TestZTable:
    def test_displayed_rows(self):
        t = cnt.z_table(8)
        assert [t.rows[r] for r in range(9)] == Z_ROWS

    def test_anchors(self):
        t = cnt.z_table(8)
        assert t.rows[4] == (1, 2, 2, 2, 1)
        assert t.value(8, 3) == 10 == t.value(7, 3) + t.value(6, 1)
        assert t.value(3, 1) == 2

    def test_single_values_match(self):
        t = cnt.z_table(14)
        for m in range(15):
            for k in range(m + 1):
                assert cnt.z_value(m, k) == t.value(m, k)

    def test_rows_match_the_single_values(self):
        rows = list(islice(cnt._z_rows(), 61))
        t = cnt.z_table(60)
        for m, row in enumerate(rows):
            expected = [cnt.z_value(m, k) for k in range(m + 1)]
            assert row == expected
            assert list(t.rows[m]) == expected


class TestTableValueOutsideTheTriangle:
    @pytest.mark.parametrize("build", [cnt.a_table, cnt.b_table, cnt.z_table])
    def test_zero_at_negative_indices_and_past_the_last_row(self, build):
        t = build(10)
        assert t.value(0, 0) == 1
        for i, j in [(-1, 0), (0, -1), (-2, 2), (2, -2), (-1, -1), (-3, 5), (-3, 9)]:
            assert t.value(i, j) == 0
        for i, j in [(12, 0), (0, 12), (11, 1), (40, 40)]:
            assert t.value(i, j) == 0

    def test_zero_at_odd_a_sums(self):
        t = cnt.a_table(10)
        for k, n in pairs(11):
            if (k + n) % 2:
                assert t.value(k, n) == 0

    def test_zero_past_the_end_of_a_fence_row(self):
        t = cnt.z_table(10)
        for m in range(11):
            assert t.value(m, m) == 1
            assert t.value(m, m + 1) == t.value(m, m + 2) == 0


class TestFibonacci:
    def test_anchors(self):
        assert cnt.fibonacci(2) == 1
        assert cnt.fibonacci(4) == 3
        assert cnt.fibonacci(8) == 21

    def test_recurrence(self):
        for m in range(2, 40):
            assert cnt.fibonacci(m) == cnt.fibonacci(m - 1) + cnt.fibonacci(m - 2)


class TestDiagonal:
    def test_anchors(self):
        assert cnt.r_diag(3) == 5
        assert cnt.r_diag(4) == 11
        assert cnt.r_diag(5) == 26

    def test_matches_series_and_binomial(self):
        g = ser.inv_sqrt_trunc(ser.series([1, -2, -1, -2, 1]), 60)
        for n in range(61):
            assert cnt.r_diag(n) == cnt.a_diag_binomial(n) == g.coeff(n)

    def test_matches_table_diagonal(self):
        t = cnt.a_table(40)
        for n in range(21):
            assert cnt.r_diag(n) == t.value(n, n)


class TestAsymptotics:
    def test_small_n(self):
        est = cnt.asymptotic_estimate(4)
        assert math.isclose(math.exp(est.estimate_log), 11.6011, rel_tol=1e-4)
        assert 0.05 < est.relative_error < 0.06

    def test_n_equals_one(self):
        est = cnt.asymptotic_estimate(1)
        phi = cnt.GOLDEN_RATIO
        direct = phi**4 / (2 * 5**0.25 * math.sqrt(math.pi))
        assert math.isclose(math.exp(est.estimate_log), direct, rel_tol=1e-12)
        assert math.isclose(est.exact_log, 0.0, abs_tol=1e-12)

    def test_monotone_decay(self):
        e1000 = cnt.asymptotic_estimate(1000).relative_error
        e2000 = cnt.asymptotic_estimate(2000).relative_error
        e4000 = cnt.asymptotic_estimate(4000).relative_error
        assert e4000 < e2000 < e1000

    def test_enclosure_holds_at_a_tiny_precision(self):
        # at 5 digits nearly every operation rounds, so each direction shows
        for n, r in zip(range(301), cnt.r_diag_terms()):
            lo, hi = cnt._diagonal_sum_bounds(n, 5)
            assert lo <= r <= hi

    @given(st.integers(1, 2**1023))
    def test_rounded_is_frexp_of_the_float(self, x):
        assert cnt._rounded(x) == math.frexp(float(x))

    @pytest.mark.parametrize(
        "x",
        [1, 3, 2**53 - 1, 2**53 + 1, 2**60 + 2**7, 2**60 + 3 * 2**7, 2**60 + 2**7 + 1, 2**1023 + 2**970],
    )
    def test_rounded_halfway_cases_and_shifts(self, x):
        m, e = math.frexp(float(x))
        assert cnt._rounded(x) == (m, e)
        assert cnt._rounded(x << 2000) == (m, e + 2000)  # past a float's range

    def test_rounded_sticky_bit_breaks_a_tie(self):
        tie = (2**60 + 2**7) << 2000  # halfway: rounds to the even 2**60
        assert cnt._rounded(tie) == (0.5, 61 + 2000)
        # one set bit far below the kept 55 makes it round up
        assert cnt._rounded(tie + 1) == (math.frexp(float(2**60 + 2**8))[0], 61 + 2000)

    def test_rounded_past_the_largest_double(self):
        assert cnt._rounded(2**1024 - 1) == (0.5, 1025)

    def test_exact_log_is_the_log_of_r(self):
        for n, r in zip(range(1, 601), islice(cnt.r_diag_terms(), 1, None)):
            assert cnt.asymptotic_estimate(n).exact_log == math.log(r)

    @pytest.mark.parametrize("n", [4000, 30000])
    def test_exact_log_at_scale(self, n, monkeypatch):
        want = math.log(cnt.r_diag(n))
        monkeypatch.setattr(cnt, "r_diag", None)  # the enclosure decides, no fallback
        assert cnt.asymptotic_estimate(n).exact_log == want

    def test_a_wide_enclosure_falls_back_to_the_exact_value(self, monkeypatch):
        bounds, r_diag, calls = cnt._diagonal_sum_bounds, cnt.r_diag, []

        def wide(n, prec):
            lo, hi = bounds(n, prec)
            return lo // 2, hi * 2

        def counted(n):
            calls.append(n)
            return r_diag(n)

        monkeypatch.setattr(cnt, "_diagonal_sum_bounds", wide)
        monkeypatch.setattr(cnt, "r_diag", counted)
        for n in (2, 5, 100, 2000):
            assert cnt.asymptotic_estimate(n).exact_log == math.log(r_diag(n))
        assert calls == [2, 5, 100, 2000]

    def test_past_sys_maxsize_is_refused(self):
        with pytest.raises(InstanceTooLarge):
            cnt.asymptotic_estimate(sys.maxsize + 1)


class TestFibBound:
    def test_anchor(self):
        assert cnt.fibonacci(8) == 21
        assert cnt.a_long(4, 4) <= cnt.fibonacci(8)

    def test_base_convention(self):
        # F(0) = 0 bounds nothing, so a(0,0) = 1 is the bound's own base case
        assert cnt.a_long(0, 0) == 1 > cnt.fibonacci(0)

    def test_forty_points_bound(self):
        a = cnt.a_binomial(40, 40)
        assert a == cnt.a_table(80).value(40, 40)
        assert a < 3**39

    def test_holds_on_range(self):
        for s in range(61):
            for k in range(s + 1):
                a = cnt.a_long(k, s - k)
                assert a == 1 if s == 0 else a <= cnt.fibonacci(s)

    def test_growth_bounds_of_the_cli_size_guard(self):
        """a(k, n) and b(k, n) <= F(k + n), z(m, k) <= F(m + 2) and r(n) <= F(2n)."""
        fib = cnt.fibonacci
        assert all(max(row) <= fib(2 * r) for r, row in enumerate(cnt.a_table(300).rows) if r)
        assert all(max(row) <= fib(s) for s, row in enumerate(cnt.b_table(300).rows) if s)
        assert all(max(row) <= fib(m + 2) for m, row in enumerate(cnt.z_table(300).rows))
        r = islice(cnt.r_diag_terms(), 1, 301)
        assert all(rn <= fib(2 * n) for n, rn in enumerate(r, 1))


class TestSignedStepPaths:
    def test_anchors(self):
        signed = cnt.signed_step_path_counts(4)
        assert signed[1][1] == 1
        assert signed[2][0] == 1
        assert signed[2][2] == 2

    def test_agrees_with_triangle(self):
        t = cnt.a_table(12)
        signed = cnt.signed_step_path_counts(12)
        for s in range(13):
            for k in range(s + 1):
                assert signed[k][s - k] == t.value(k, s - k)

    def test_cutoff(self):
        with pytest.raises(InstanceTooLarge):
            cnt.signed_step_path_counts(cnt.SIGNED_PATH_MAX_SUM + 1)


def composition_identity_holds(n, ell):
    """Brute-force oracle for the twos-vs-summands composition identity.

    Counts {1,2}-compositions of n with exactly ell twos, and compositions
    of n + 2 into parts >= 2 with exactly ell + 1 summands; both must equal
    C(n - ell, ell).
    """

    def count_s1(total, twos):
        if total == 0:
            return 1 if twos == 0 else 0
        acc = count_s1(total - 1, twos)
        if total >= 2 and twos >= 1:
            acc += count_s1(total - 2, twos - 1)
        return acc

    def count_s3(total, parts):
        if parts == 0:
            return 1 if total == 0 else 0
        return sum(count_s3(total - p, parts - 1) for p in range(2, total + 1))

    lhs = count_s1(n, ell)
    rhs = count_s3(n + 2, ell + 1)
    expected = math.comb(n - ell, ell) if 0 <= ell <= n - ell else 0
    return lhs == rhs == expected


class TestCompositionIdentity:
    def test_four_twos_example(self):
        assert composition_identity_holds(5, 1)

    def test_trivial(self):
        assert composition_identity_holds(5, 0)

    def test_derived(self):
        assert composition_identity_holds(6, 2)
        assert math.comb(4, 2) == 6

    def test_range(self):
        for n in range(13):
            for ell in range(n // 2 + 1):
                assert composition_identity_holds(n, ell)


class TestAuxCounters:
    def test_peakless(self):
        assert cnt.m_count(3, 1) == 4
        assert cnt.m_count(1, 1) == 1
        assert cnt.m_count(2, 0) == 2

    def test_peakless_index_identity(self):
        for k in range(9):
            for n in range(-k, k + 1):
                assert cnt.m_count(k, n) == cnt.a_long(k - n, k + n)

    def test_sums(self):
        assert cnt.s_count(3, 3) == 5
        assert cnt.s_count(2, 0) == 1
        assert cnt.s_count(1, 2) == 1

    def test_sum_fence_identity(self):
        zt = cnt.z_table(20)
        for n in range(11):
            for k in range(2 * n + 1):
                assert cnt.s_count(n, k) == zt.value(2 * n, k)

    def test_dominoes(self):
        assert cnt.d_count(3, 5) == 10
        assert cnt.d_count(1, 1) == 1
        assert cnt.d_count(2, 2) == 2

    def test_domino_identity(self):
        for s in range(15):
            for k in range(s + 1):
                assert cnt.d_count(k, s - k) == cnt.a_long(k, s - k)


class TestRowSums:
    def test_a_rows_are_even_fibonacci(self):
        t = cnt.a_table(24)
        for m in range(1, 13):
            assert sum(t.rows[m - 1]) == cnt.fibonacci(2 * m)

    def test_z_rows_are_fibonacci(self):
        t = cnt.z_table(30)
        for m in range(31):
            assert sum(t.rows[m]) == cnt.fibonacci(m + 2)

    def test_b_diagonal_is_a_diagonal(self):
        bt = cnt.b_table(24)
        for n in range(13):
            assert bt.value(n, n) == cnt.r_diag(n)


def test_gf_extraction_matches_triangle():
    denom = ser.series2(
        {(0, 0): 1, (2, 0): -1, (0, 2): -1, (1, 1): -1, (2, 2): 1}, 14, 14
    )
    inv = ser.bivariate_inverse_coeffs(denom, 14, 14)
    t = cnt.a_table(14)
    for s in range(15):
        for k in range(s + 1):
            assert inv.coeff(k, s - k) == t.value(k, s - k)


# The top-down recurrences the bottom-up kernels replaced, kept here as
# oracles only.  They recurse, so they are used at small indices.

@lru_cache(maxsize=None)
def a_oracle(k, n):
    if k < 0 or n < 0 or (k + n) % 2 == 1:
        return 0
    if k == 0:
        return 1
    return a_oracle(k - 2, n) + sum(a_oracle(k - 1, j) for j in range(n - 1, -1, -2))


@lru_cache(maxsize=None)
def b_oracle(k, n):
    if k == 0 and n == 0:
        return 1
    if k < 0 or n < 0:
        return 0
    return b_oracle(k - 1, n - 1) + b_oracle(k - 1, n - 2) + b_oracle(k - 2, n - 1) + b_oracle(k - 2, n - 2)


@lru_cache(maxsize=None)
def m_oracle(i, h):
    if abs(h) > i:
        return 0
    if i == 0:
        return 1 if h == 0 else 0
    return m_oracle(i - 1, h - 1) + m_oracle(i - 1, h) + m_oracle(i - 1, h + 1) - m_oracle(i - 2, h)


@lru_cache(maxsize=None)
def tilings_oracle(width, verticals):
    """2 x width domino tilings with this many vertical dominoes."""
    if width < 0 or verticals < 0:
        return 0
    if width == 0:
        return 1 if verticals == 0 else 0
    return tilings_oracle(width - 1, verticals - 1) + tilings_oracle(width - 2, verticals)


def d_oracle(k, n):
    if k < 0 or n < 0:
        return 0
    return sum(tilings_oracle(k, v) * tilings_oracle(n, v) for v in range(min(k, n) + 1))


@lru_cache(maxsize=None)
def s_oracle(n, k, after2=False):
    """n-term 0-1-2 sums totalling k, no 0 right after a 2 (after2: the
    summand before the first one was a 2)."""
    if n == 0:
        return 1 if k == 0 else 0
    if k < 0:
        return 0
    return sum(
        s_oracle(n - 1, k - d, d == 2) for d in (0, 1, 2) if not (d == 0 and after2)
    )


def b_rows_by_k(width):
    """Rows b(k, 0..width) for k = 0, 1, 2, ...: the by-k form of the b
    recurrence that _b_diagonals replaced, through the pair sums
    b(k, j) + b(k-1, j)."""
    older, row = [0] * (width + 1), [1] + [0] * width
    while True:
        yield row
        s = [0, 0] + [x + y for x, y in zip(row, older)]  # s[j + 2] = b(k, j) + b(k-1, j)
        older, row = row, [x + y for x, y in zip(s[: width + 1], s[1:])]


def a_table_oracle(max_sum):
    """a(k, n) for k + n <= max_sum, keyed (k, n): the dict-backed four-term
    recurrence that _a_rows replaced."""
    t = {(0, 0): 1}

    def get(k, n):
        return t.get((k, n), 0)

    for s in range(1, max_sum + 1):
        for k in range(s + 1):
            n = s - k
            t[(k, n)] = get(k - 1, n - 1) + get(k - 2, n) + get(k, n - 2) - get(k - 2, n - 2)
    return t


# 0 <= k, n <= 30, plus a few negative indices; odd k + n included
INDEX = st.integers(min_value=-3, max_value=30)


class TestKernelsMatchOracles:
    @given(INDEX, INDEX)
    def test_a_long(self, k, n):
        assert cnt.a_long(k, n) == a_oracle(k, n)

    @given(INDEX, INDEX)
    def test_b_value(self, k, n):
        assert cnt.b_value(k, n) == b_oracle(k, n)

    @given(INDEX, st.integers(min_value=-33, max_value=33))
    def test_m_count(self, k, n):
        assert cnt.m_count(k, n) == (m_oracle(k, n) if abs(n) <= k else 0)

    @given(INDEX, INDEX)
    def test_d_count(self, k, n):
        assert cnt.d_count(k, n) == d_oracle(k, n)

    @given(INDEX, st.integers(min_value=-3, max_value=63))
    def test_s_count(self, n, k):
        assert cnt.s_count(n, k) == (s_oracle(n, k) if n >= 0 else 0)

    def test_b_table_rows_are_b_values(self):
        t = cnt.b_table(30)
        got = {(k, n): t.value(k, n) for k, n in pairs(30)}
        assert got == {(k, n): b_oracle(k, n) for k, n in pairs(30)}

    def test_a_table_matches_the_dict_recurrence(self):
        t = cnt.a_table(60)
        assert {(k, n): t.value(k, n) for k, n in pairs(60)} == a_table_oracle(60)

    @pytest.mark.parametrize("max_sum", [60, 400])
    def test_b_diagonals_are_the_by_k_rows_read_by_antidiagonals(self, max_sum):
        by_k = list(islice(b_rows_by_k(max_sum), max_sum + 1))
        want = [[by_k[i][s - i] for i in range(s + 1)] for s in range(max_sum + 1)]
        assert list(islice(cnt._b_diagonals(), max_sum + 1)) == want

    def test_a_long_rows_match_the_oracle(self):
        rows = islice(cnt._a_long_rows(30), 31)
        assert all(row == [a_oracle(k, n) for n in range(31)] for k, row in enumerate(rows))

    def test_m_rows_match_the_oracle(self):
        rows = islice(cnt._m_rows(), 31)
        assert all(row == [m_oracle(k, n) for n in range(-k, k + 1)] for k, row in enumerate(rows))

    def test_s_rows_match_the_oracle(self):
        rows = islice(cnt._s_rows(40), 31)
        assert all(row == [s_oracle(n, k) for k in range(41)] for n, row in enumerate(rows))

    def test_tiling_rows_match_the_oracle(self):
        rows = islice(cnt._tiling_rows(), 31)
        assert all(row == [tilings_oracle(w, v) for v in range(w + 1)] for w, row in enumerate(rows))

    def test_diagonal_binomial_ratio_matches_comb(self):
        for n in range(-2, 200):
            want = sum(math.comb(n - l, l) ** 2 for l in range(n // 2 + 1))
            assert cnt.a_diag_binomial(n) == want


class TestKernelsAtScale:
    """Sizes past Python's recursion limit that the seed recursions could not reach."""

    def test_a_long_2000(self):
        assert cnt.a_long(2000, 2000) == cnt.a_binomial(2000, 2000)

    def test_b_value_1500_is_the_diagonal(self):
        assert cnt.b_value(1500, 1500) == cnt.a_diag_binomial(1500)

    def test_m_count_1200(self):
        assert cnt.m_count(1200, 0) == next(islice(cnt._m_rows(), 1200, None))[1200]

    def test_r_terms_agree_with_r_diag_and_binomial_sum(self):
        terms = list(islice(cnt.r_diag_terms(), 301))
        assert terms == [cnt.r_diag(n) for n in range(301)]
        assert terms == [cnt.a_diag_binomial(n) for n in range(301)]

    @pytest.mark.parametrize(
        "build, size", [(cnt.a_table, 2 * sys.maxsize), (cnt.b_table, sys.maxsize), (cnt.z_table, sys.maxsize)]
    )
    def test_tables_past_sys_maxsize_rows_are_refused(self, build, size):
        with pytest.raises(InstanceTooLarge):
            build(size)

    def test_no_function_keeps_a_memo(self):
        assert [name for name, f in vars(cnt).items() if hasattr(f, "cache_info")] == []

    def test_z_value_past_the_recursion_limit(self):
        assert cnt.z_value(3000, 1500) == cnt.r_diag(1500)

    def test_fibonacci_keeps_no_module_state(self):
        def sizes():
            return {name: len(v) for name, v in vars(cnt).items() if isinstance(v, (list, dict))}

        before = sizes()
        assert cnt.fibonacci(3000) == cnt.fibonacci(2999) + cnt.fibonacci(2998)
        assert cnt.a_long(3000, 3000) <= cnt.fibonacci(6000)
        assert sizes() == before
