"""Independent references for checking `twoline` output.

The closed forms here are written for the benchmark and share no code with
the package: a(k, n) by the binomial sum, r(n) by the squared-binomial sum
(with its binomials stepped incrementally), b(k, n) and d(k, n) by counting
step sequences, m and s through their identities with a, and z(m, k) by a
transfer-matrix count of closed sets straight from the fence definition.
Every other output is checked against the SHA-256 digest of the seed's
output, stored in refs.json together with the route that produced it.
"""
from __future__ import annotations

import math
import os
import random

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def a_closed(k: int, n: int) -> int:
    """a(k, n) = sum over j of parity k of C((k+j)/2, j) * C((n+j)/2, j)."""
    if k < 0 or n < 0 or (k + n) % 2:
        return 0
    return sum(
        math.comb((k + j) // 2, j) * math.comb((n + j) // 2, j)
        for j in range(k % 2, min(k, n) + 1, 2)
    )


def r_closed(n: int) -> int:
    """r(n) = sum over l of C(n-l, l)^2, each binomial stepped from the last."""
    total = c = 1  # the l = 0 term; c = C(n - l, l)
    for l in range(n // 2):
        c = c * (n - 2 * l) * (n - 2 * l - 1) // ((l + 1) * (n - l))
        total += c * c
    return total


def b_closed(k: int, n: int) -> int:
    """b(k, n): sequences of steps (i, j) with i, j in {1, 2} summing to (k, n).

    With t steps the first coordinates form a {1,2}-composition of k with
    k - t twos, C(t, k - t) ways, and likewise for n.
    """
    if k < 0 or n < 0:
        return 0
    return sum(math.comb(t, k - t) * math.comb(t, n - t) for t in range(min(k, n) + 1))


def _tilings(width: int, verticals: int) -> int:
    """2 x width domino tilings with the given number of vertical dominoes."""
    pairs, rem = divmod(width - verticals, 2)
    return math.comb(verticals + pairs, verticals) if verticals >= 0 and pairs >= 0 and not rem else 0


def d_closed(k: int, n: int) -> int:
    if k < 0 or n < 0:
        return 0
    return sum(_tilings(k, j) * _tilings(n, j) for j in range(min(k, n) + 1))


def m_closed(k: int, n: int) -> int:
    """Peakless Motzkin paths: m(k, n) = a(k - n, k + n)."""
    return a_closed(k - n, k + n) if abs(n) <= k else 0


def s_closed(n: int, k: int) -> int:
    """0-1-2 sums map to peakless paths ending at k - n: s(n, k) = a(2n - k, k)."""
    return a_closed(2 * n - k, k) if 0 <= k <= 2 * n else 0


def z_closed(m: int, k: int) -> int:
    """k-element closed sets of the fence on m vertices, by a transfer matrix.

    Vertices are visited in zigzag order; an odd (upper) vertex in the set
    forces both even neighbours in.  State: (previous vertex taken, the
    current vertex is forced) -> counts by set size.
    """
    states = {(True, False): [1] + [0] * k}  # "previous taken" is vacuous at v = 0
    for v in range(m):
        nxt: dict[tuple[bool, bool], list[int]] = {}
        for (prev, forced), poly in states.items():
            for take in (False, True):
                if forced and not take:
                    continue
                if v % 2 == 1 and take and not prev:
                    continue
                key = (take, v % 2 == 1 and take)
                acc = nxt.setdefault(key, [0] * (k + 1))
                for size, ways in enumerate(poly[: k + 1 - take]):
                    acc[size + take] += ways
        states = nxt
    return sum(poly[k] for poly in states.values()) if 0 <= k else 0


def count_value(argv: list[str]) -> int | None:
    """The closed-form value a `count` request should print, or None."""
    fam = argv[1]
    opts = dict(zip(argv[2::2], (int(v) for v in argv[3::2])))
    k, n = opts.get("--k"), opts.get("--n")
    if fam == "a":
        return a_closed(k, n)
    if fam == "b":
        return b_closed(k, n)
    if fam == "d":
        return d_closed(k, n)
    if fam == "m":
        return m_closed(k, n)
    if fam == "s":
        return s_closed(n, k)
    if fam == "z":
        return z_closed(n, k)
    if fam == "r":
        return r_closed(n)
    return None


def key(argv: list[str]) -> str:
    return " ".join(argv)


class Checker:
    """Decides whether one request's stdout is the right answer."""

    def __init__(self, digests: dict[str, dict]):
        self.digests = digests
        self._values: dict[str, int | None] = {}

    def expected_text(self, argv: list[str]) -> bytes | None:
        if argv[0] != "count":
            return None
        k = key(argv)
        if k not in self._values:
            self._values[k] = count_value(argv)
        value = self._values[k]
        return None if value is None else f"{value}\n".encode()

    def ok(self, argv: list[str], out) -> bool:
        """`out` has the output's `size`, `sha256`, `text` (bytes, when
        small) and `path` (a file holding all of it)."""
        want = self.expected_text(argv)
        if want is not None:
            return out.text == want
        ref = self.digests.get(key(argv))
        if ref is not None:
            return ref["bytes"] == out.size and ref["sha256"] == out.sha256
        if argv[:2] == ["export", "A051286"]:
            return r_sequence_ok(int(argv[argv.index("--terms") + 1]), out.path)
        return False


def r_sequence_ok(terms: int, path: str) -> bool:
    """A b-file of r(0..terms-1) with no recorded digest: check its shape and
    a seeded sample of lines against the squared-binomial sum."""
    sample = {0, 1, 2, 3, terms - 1} | set(random.Random(terms).sample(range(terms), min(terms, 8)))
    count = 0
    with open(path, "rb") as fh:
        for i, line in enumerate(fh):
            if i in sample and line != f"{i} {r_closed(i)}\n".encode():
                return False
            count += 1
    return count == terms
