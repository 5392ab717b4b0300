import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoline import series as ser
from twoline.errors import EmptyPartSet, NonIntegralCoefficient, NonUnitConstantTerm
from twoline.partsets import AT_LEAST_TWO, ODD, ONE_TWO, PartSet


def brute_composition_count(n, parts):
    """Independent oracle: count compositions of n by direct recursion."""
    if n == 0:
        return 1
    return sum(brute_composition_count(n - p, parts) for p in parts if p <= n)


def brute_weighted_path_count(cost):
    """Independent oracle: walk every priced path returning to its level.

    Steps cost (in halves) 2 for a cheap horizontal, 4 for a luxury one and
    3 for each slant; a path must end at height 0 with budget exactly 0.
    """
    def walk(rem, h):
        if rem == 0:
            return 1 if h == 0 else 0
        total = 0
        for dc, dh in ((2, 0), (4, 0), (3, 1), (3, -1)):
            if rem - dc >= 0:
                total += walk(rem - dc, h + dh)
        return total

    return walk(2 * cost, 0)


class TestMulTrunc:
    def test_binomial_square(self):
        p = ser.series([1, 1])
        assert ser.mul_trunc(p, p, 3).coeffs == (1, 2, 1, 0)

    def test_telescoping(self):
        p = ser.series([1, -1])
        q = ser.series([1, 1, 1, 1])
        assert ser.mul_trunc(p, q, 3).coeffs == (1, 0, 0, 0)

    def test_even_square(self):
        p = ser.series([1, 0, -1])
        assert ser.mul_trunc(p, p, 4).coeffs == (1, 0, -2, 0, 1)


class TestInverseTrunc:
    def test_geometric(self):
        assert ser.inverse_trunc(ser.series([1, -1]), 4).coeffs == (1, 1, 1, 1, 1)

    def test_fibonacci_denominator_counts_compositions(self):
        got = ser.inverse_trunc(ser.series([1, -1, -1]), 5)
        expected = tuple(brute_composition_count(n, (1, 2)) for n in range(6))
        assert got.coeffs == expected == (1, 1, 2, 3, 5, 8)

    def test_identity(self):
        assert ser.inverse_trunc(ser.series([1]), 3).coeffs == (1, 0, 0, 0)

    def test_rejects_non_unit_constant(self):
        with pytest.raises(NonUnitConstantTerm):
            ser.inverse_trunc(ser.series([2, 1]), 3)


class TestInvSqrtTrunc:
    def test_perfect_square(self):
        # (1-x)^2 has inverse square root 1/(1-x)
        got = ser.inv_sqrt_trunc(ser.series([1, -2, 1]), 3)
        assert got.coeffs == (1, 1, 1, 1)

    def test_diagonal_series(self):
        got = ser.inv_sqrt_trunc(ser.series([1, -2, -1, -2, 1]), 5)
        assert got.coeffs[:5] == (1, 1, 2, 5, 11)
        assert got.coeff(5) == brute_weighted_path_count(5) == 26

    def test_trivial(self):
        assert ser.inv_sqrt_trunc(ser.series([1]), 2).coeffs == (1, 0, 0)

    def test_rejects_non_integral(self):
        with pytest.raises(NonIntegralCoefficient):
            ser.inv_sqrt_trunc(ser.series([1, -1]), 3)

    def test_rejects_non_unit_constant(self):
        with pytest.raises(NonUnitConstantTerm):
            ser.inv_sqrt_trunc(ser.series([0, 1]), 3)


small_ints = st.integers(min_value=-9, max_value=9)


@given(st.lists(small_ints, min_size=0, max_size=63), st.integers(0, 64))
@settings(max_examples=60)
def test_inverse_mul_roundtrip(tail, order):
    p = ser.series([1] + tail)
    q = ser.inverse_trunc(p, order)
    assert ser.mul_trunc(p, q, order).coeffs == (1,) + (0,) * order


@given(st.lists(small_ints, min_size=0, max_size=30), st.integers(0, 32))
@settings(max_examples=40)
def test_inv_sqrt_consistency(tail, order):
    r = ser.series([1] + tail)
    p = ser.inverse_trunc(ser.mul_trunc(r, r, order), order)
    got = ser.inv_sqrt_trunc(p, order)
    assert got.coeffs == (r.coeffs + (0,) * order)[: order + 1]
    square = ser.mul_trunc(got, ser.mul_trunc(got, p, order), order)
    assert square.coeffs == (1,) + (0,) * order


def inv_sqrt_full_sum(p, order):
    """The coefficients of inv_sqrt_trunc from the whole sum over i = 1..d-1,
    or None where a step is not an even integer."""
    q = ser.inverse_trunc(p, order)
    r = [1] + [0] * order
    for d in range(1, order + 1):
        acc = q.coeffs[d] - sum(r[i] * r[d - i] for i in range(1, d))
        if acc % 2:
            return None
        r[d] = acc // 2
    return tuple(r)


@given(
    st.lists(small_ints, min_size=0, max_size=30),
    st.booleans(),
    st.integers(0, 40),
)
@settings(max_examples=80)
def test_inv_sqrt_half_sum_equals_the_full_sum(tail, square, order):
    """The symmetric half sum gives the same coefficients as the whole sum, and
    fails on the same inputs.  `square` draws p = 1/r^2, which always has an
    inverse square root; otherwise p is arbitrary."""
    p = ser.series([1] + tail)
    if square:
        p = ser.inverse_trunc(ser.mul_trunc(p, p, order), order)
    try:
        got = ser.inv_sqrt_trunc(p, order).coeffs
    except NonIntegralCoefficient:
        got = None
    assert got == inv_sqrt_full_sum(p, order)


@given(st.lists(small_ints, min_size=0, max_size=40), st.integers(0, 40), st.integers(0, 40))
@settings(max_examples=60)
def test_truncation_stability(tail, big, small):
    big, small = max(big, small), min(big, small)
    p = ser.series([1] + tail)
    assert ser.inverse_trunc(p, big).coeffs[: small + 1] == ser.inverse_trunc(p, small).coeffs


MATCHING_DENOM = {(0, 0): 1, (2, 0): -1, (0, 2): -1, (1, 1): -1, (2, 2): 1}
STAIRCASE_DENOM = {(0, 0): 1, (1, 1): -1, (2, 1): -1, (1, 2): -1, (2, 2): -1}


class TestBivariateInverse:
    def test_matching_denominator(self):
        denom = ser.series2(MATCHING_DENOM, 6, 6)
        inv = ser.bivariate_inverse_coeffs(denom, 6, 6)
        assert inv.coeff(2, 4) == 4

    def test_binomials(self):
        denom = ser.series2({(0, 0): 1, (1, 0): -1, (0, 1): -1}, 6, 6)
        inv = ser.bivariate_inverse_coeffs(denom, 6, 6)
        assert inv.coeff(2, 2) == 6
        for i in range(7):
            for j in range(7):
                assert inv.coeff(i, j) == math.comb(i + j, i)

    def test_staircase_denominator(self):
        denom = ser.series2(STAIRCASE_DENOM, 4, 4)
        inv = ser.bivariate_inverse_coeffs(denom, 4, 4)
        assert inv.coeff(4, 4) == 11
        assert inv.coeff(0, 0) == 1

    def test_product_is_one(self):
        def product(p, q, K, N):
            """Coefficients of p * q up to (K, N), by the schoolbook sum."""
            return tuple(
                tuple(
                    sum(p.coeff(u, v) * q.coeff(i - u, j - v) for u in range(i + 1) for v in range(j + 1))
                    for j in range(N + 1)
                )
                for i in range(K + 1)
            )

        denom = ser.series2(MATCHING_DENOM, 8, 8)
        inv = ser.bivariate_inverse_coeffs(denom, 8, 8)
        assert product(denom, inv, 8, 8) == ser.series2({(0, 0): 1}, 8, 8).coeffs

    def test_truncation_stability(self):
        denom_big = ser.series2(MATCHING_DENOM, 9, 7)
        denom_small = ser.series2(MATCHING_DENOM, 5, 4)
        big = ser.bivariate_inverse_coeffs(denom_big, 9, 7)
        small = ser.bivariate_inverse_coeffs(denom_small, 5, 4)
        assert tuple(row[:5] for row in big.coeffs[:6]) == small.coeffs

    def test_rejects_non_unit_constant(self):
        with pytest.raises(NonUnitConstantTerm):
            ser.bivariate_inverse_coeffs(ser.series2({(1, 1): 1}, 2, 2), 2, 2)


class TestCompositionGF:
    def test_one_two(self):
        got = ser.composition_gf_coeffs(ONE_TWO, 5)
        assert got.coeffs == (1, 1, 2, 3, 5, 8)

    def test_odd_parts(self):
        got = ser.composition_gf_coeffs(ODD, 6)
        assert got.coeff(4) == 3  # 1+1+1+1, 1+3, 3+1
        for n in range(7):
            assert got.coeff(n) == brute_composition_count(n, (1, 3, 5))

    def test_single_part(self):
        assert ser.composition_gf_coeffs(PartSet.of((1,)), 3).coeffs == (1, 1, 1, 1)

    def test_at_least_two(self):
        got = ser.composition_gf_coeffs(AT_LEAST_TWO, 8)
        for n in range(9):
            assert got.coeff(n) == brute_composition_count(n, tuple(range(2, 9)))

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyPartSet):
            PartSet.of(())
