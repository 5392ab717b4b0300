"""Truncated formal power series over exact integers.

Everything here is dense and exact: a univariate series of order N is the
coefficient vector for degrees 0..N, a bivariate series of orders (K, N)
is the full (K+1) x (N+1) coefficient grid.  Coefficients are Python ints,
so there is no overflow and no rounding anywhere.  Multiplication is
schoolbook; the orders used in this project stay small enough that nothing
faster is warranted.

Series values are immutable and all operations are pure functions, so they
are safe to share between threads.
"""
from __future__ import annotations

from operator import mul
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .errors import NonIntegralCoefficient, NonUnitConstantTerm

if TYPE_CHECKING:
    from .partsets import PartSet


class TruncatedSeries(NamedTuple):
    """Integer power series truncated at an inclusive order: coefficients
    beyond it are semantically zero."""

    coeffs: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, d: int) -> int:
        """Coefficient of x^d (zero beyond the truncation order)."""
        if d < 0 or d > self.order:
            return 0
        return self.coeffs[d]

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"


def series(coeffs: Iterable[int]) -> TruncatedSeries:
    """Build a series from a coefficient list."""
    return TruncatedSeries(tuple(int(c) for c in coeffs) or (0,))


def mul_trunc(p: TruncatedSeries, q: TruncatedSeries, order: int) -> TruncatedSeries:
    """Product of two series, truncated at `order`."""
    out = [0] * (order + 1)
    pa, qa = p.coeffs, q.coeffs
    for i, pi in enumerate(pa[: order + 1]):
        if pi == 0:
            continue
        for j in range(min(len(qa), order + 1 - i)):
            out[i + j] += pi * qa[j]
    return TruncatedSeries(tuple(out) or (0,))


def inverse_trunc(p: TruncatedSeries, order: int) -> TruncatedSeries:
    """Reciprocal series of p, truncated at `order`.

    Requires p to have constant term 1, which makes every coefficient of
    the reciprocal an exact integer:

        q_0 = 1,   q_d = -sum_{i=1..d} p_i q_{d-i}.
    """
    if p.coeff(0) != 1:
        raise NonUnitConstantTerm(f"constant term is {p.coeff(0)}, expected 1")
    q = [0] * (order + 1)
    q[0] = 1
    for d in range(1, order + 1):
        acc = 0
        for i in range(1, min(d, p.order) + 1):
            pi = p.coeffs[i]
            if pi:
                acc += pi * q[d - i]
        q[d] = -acc
    return TruncatedSeries(tuple(q))


def inv_sqrt_trunc(p: TruncatedSeries, order: int) -> TruncatedSeries:
    """Inverse square root of p, truncated at `order`.

    Solves r*r*p = 1 coefficient by coefficient, staying in integers: with
    q = 1/p, the relation r*r = q gives

        r_0 = 1,   r_d = (q_d - sum_{i=1..d-1} r_i r_{d-i}) / 2,

    and the division by 2 must be exact.  If it is not, the input has no
    integer inverse square root and NonIntegralCoefficient is raised.  The
    sum is symmetric in i and d-i: twice its terms with i < d/2, plus the
    middle square r_{d/2}^2 when d is even.
    """
    q = inverse_trunc(p, order)  # also validates the constant term
    r = [0] * (order + 1)
    r[0] = 1
    for d in range(1, order + 1):
        h = (d + 1) // 2
        half = sum(map(mul, r[1:h], r[d - 1 : d - h : -1]))  # r_i r_{d-i} for 0 < i < d/2
        acc = q.coeffs[d] - 2 * half - (r[d // 2] ** 2 if d % 2 == 0 else 0)
        if acc % 2 != 0:
            raise NonIntegralCoefficient(
                f"coefficient of x^{d} is not an even integer step"
            )
        r[d] = acc // 2
    return TruncatedSeries(tuple(r))


class TruncatedSeries2(NamedTuple):
    """Bivariate integer series truncated at orders (K, N).

    coeffs[i][j] is the coefficient of x^i y^j.  The grid is rectangular:
    all rows have length N+1.
    """

    coeffs: tuple[tuple[int, ...], ...]

    @property
    def orders(self) -> tuple[int, int]:
        return len(self.coeffs) - 1, len(self.coeffs[0]) - 1

    def coeff(self, i: int, j: int) -> int:
        K, N = self.orders
        if i < 0 or j < 0 or i > K or j > N:
            return 0
        return self.coeffs[i][j]


def series2(terms: Mapping[tuple[int, int], int], K: int, N: int) -> TruncatedSeries2:
    """Build a bivariate series from a {(deg_x, deg_y): coefficient} mapping."""
    grid = [[0] * (N + 1) for _ in range(K + 1)]
    for (i, j), c in terms.items():
        if 0 <= i <= K and 0 <= j <= N:
            grid[i][j] = int(c)
    return TruncatedSeries2(tuple(tuple(row) for row in grid))


def bivariate_inverse_coeffs(
    denom: TruncatedSeries2, K: int, N: int
) -> TruncatedSeries2:
    """Reciprocal of a bivariate series with constant term 1, up to (K, N).

    Coefficients are filled in increasing (i, j): the coefficient at (i, j)
    depends only on reciprocal coefficients at strictly smaller lower-set
    positions, so one pass over the grid suffices.  Only the nonzero terms
    of the denominator are visited, which keeps the cost at
    O(K * N * nnz(denom)).
    """
    if denom.coeff(0, 0) != 1:
        raise NonUnitConstantTerm(f"constant term is {denom.coeff(0, 0)}, expected 1")
    terms = [
        (u, v, c)
        for u, row in enumerate(denom.coeffs)
        for v, c in enumerate(row)
        if c != 0 and (u, v) != (0, 0)
    ]
    out = [[0] * (N + 1) for _ in range(K + 1)]
    out[0][0] = 1
    for i in range(K + 1):
        for j in range(N + 1):
            if i == 0 and j == 0:
                continue
            acc = 0
            for u, v, c in terms:
                if u <= i and v <= j:
                    acc += c * out[i - u][j - v]
            out[i][j] = -acc
    return TruncatedSeries2(tuple(tuple(row) for row in out))


def composition_gf_coeffs(parts: PartSet, order: int) -> TruncatedSeries:
    """Coefficients 0..order of 1 / (1 - sum_{m in S} x^m).

    Coefficient n counts the compositions of n with all summands in S.
    Infinite part sets are materialized only up to `order`, which cannot
    change any coefficient <= order.
    """
    members = parts.members_up_to(order) if order > 0 else ()
    denom = [0] * (order + 1)
    denom[0] = 1
    for m in members:
        denom[m] -= 1
    return inverse_trunc(TruncatedSeries(tuple(denom)), order)
