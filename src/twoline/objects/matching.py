"""Noncrossing perfect matchings of points on two parallel lines.

Points are labelled U1..Uk on the upper line and L1..Ln on the lower line,
left to right.  A pair joining points on the same line must join adjacent
labels (anything wider would pass over a third marked point); pairs joining
the two lines must be order preserving, which is exactly the noncrossing
condition for segments between two parallel lines.
"""
from __future__ import annotations

from typing import Iterable, Iterator

from ..errors import InstanceTooLarge, InvalidInput
from ..frozen import Frozen, set_field

MATCHING_MAX_SUM = 24

Point = tuple[str, int]  # ("U", i) or ("L", j), 1-based
Pair = tuple[Point, Point]


def point_key(p: Point) -> tuple[int, int]:
    return (0 if p[0] == "U" else 1, p[1])


def encode_point(p: Point) -> str:
    return f"{p[0]}{p[1]}"


def decode_point(text: str) -> Point:
    line, idx = text[:1], text[1:]
    if line not in ("U", "L") or not idx.isdigit():
        raise InvalidInput(f"bad point {text!r}")
    return (line, int(idx))


def _normalize(pairs: Iterable[Pair]) -> tuple[Pair, ...]:
    norm = [tuple(sorted(p, key=point_key)) for p in pairs]
    return tuple(sorted(norm, key=lambda pr: (point_key(pr[0]), point_key(pr[1]))))


class Matching(Frozen):
    __slots__ = ("k", "n", "pairs")

    def __init__(self, k: int, n: int, pairs: tuple[Pair, ...]):
        set_field(self, "k", k)
        set_field(self, "n", n)
        set_field(self, "pairs", _normalize(pairs))

    def sort_key(self):
        return tuple((point_key(a), point_key(b)) for a, b in self.pairs)

    def cross_pairs(self) -> list[tuple[int, int]]:
        """(upper index, lower index) of every pair joining the two lines."""
        out = []
        for a, b in self.pairs:
            if a[0] != b[0]:
                up, lo = (a, b) if a[0] == "U" else (b, a)
                out.append((up[1], lo[1]))
        return sorted(out)

    def line_pairs(self, line: str) -> list[tuple[int, int]]:
        """Index pairs of same-line segments on the given line, sorted."""
        out = []
        for a, b in self.pairs:
            if a[0] == b[0] == line:
                out.append(tuple(sorted((a[1], b[1]))))
        return sorted(out)

    def validate(self) -> None:
        if self.k < 0 or self.n < 0:
            raise InvalidInput("negative point count")
        seen: set[Point] = set()
        for a, b in self.pairs:
            for p in (a, b):
                line, i = p
                bound = self.k if line == "U" else self.n
                if not 1 <= i <= bound:
                    raise InvalidInput(f"point {encode_point(p)} out of range")
                if p in seen:
                    raise InvalidInput(f"point {encode_point(p)} used twice")
                seen.add(p)
            if a == b:
                raise InvalidInput("pair joins a point to itself")
        if len(seen) != self.k + self.n:
            raise InvalidInput("not a perfect matching")
        for a, b in self.pairs:
            if a[0] == b[0] and abs(a[1] - b[1]) != 1:
                raise InvalidInput(
                    f"same-line pair {encode_point(a)}-{encode_point(b)} not adjacent"
                )
        crosses = self.cross_pairs()
        for (u1, l1), (u2, l2) in zip(crosses, crosses[1:]):
            if not (u1 < u2 and l1 < l2):
                raise InvalidInput("crossing segments between the lines")

    def encode(self) -> str:
        return ",".join(f"{encode_point(a)}-{encode_point(b)}" for a, b in self.pairs)

    @classmethod
    def decode(cls, text: str) -> "Matching":
        text = text.strip()
        pairs: list[Pair] = []
        if text:
            for token in text.split(","):
                try:
                    left, right = token.split("-")
                except ValueError:
                    raise InvalidInput(f"bad pair token {token!r}") from None
                pairs.append((decode_point(left), decode_point(right)))
        pts = [p for pr in pairs for p in pr]
        k = sum(1 for p in pts if p[0] == "U")
        n = sum(1 for p in pts if p[0] == "L")
        return cls(k, n, tuple(pairs))


def _lower_run(last: int, stop: int) -> tuple[Pair, ...]:
    """Lower points last+1..stop paired with their right neighbours."""
    return tuple((("L", j), ("L", j + 1)) for j in range(last + 1, stop, 2))


def enum_matchings(k: int, n: int) -> Iterator[Matching]:
    """All noncrossing matchings of (k, n) points, in canonical order.

    Depth first over the first unmatched upper point: it joins its right
    neighbour, or the next lower point that leaves an even gap (the skipped
    lower points pair up with their neighbours).  Partners are tried in
    point order, which is the order of `Matching.sort_key`.  Once the upper
    line is used up, the lower points left over pair up with their
    neighbours.
    """
    if k + n > MATCHING_MAX_SUM:
        raise InstanceTooLarge(f"matchings capped at k+n <= {MATCHING_MAX_SUM}")
    if k < 0 or n < 0 or (k + n) % 2 == 1:
        return

    def rec(u: int, last: int, pairs: tuple[Pair, ...]) -> Iterator[Matching]:
        # upper points before u and lower points up to `last` are matched
        if u > k:
            yield Matching(k, n, pairs + _lower_run(last, n))
            return
        if u < k:
            yield from rec(u + 2, last, pairs + ((("U", u), ("U", u + 1)),))
        for j in range(last + 1, n + 1, 2):
            yield from rec(u + 1, j, pairs + _lower_run(last, j - 1) + ((("U", u), ("L", j)),))

    yield from rec(1, 0, ())
