"""Noncrossing perfect matchings of points on two parallel lines.

Points are labelled U1..Uk on the upper line and L1..Ln on the lower line,
left to right.  A pair joining points on the same line must join adjacent
labels (anything wider would pass over a third marked point); pairs joining
the two lines must be order preserving, which is exactly the noncrossing
condition for segments between two parallel lines.

A matching stores its layout alone: each line read left to right is a word,
'p' a free point and 's' a segment joining two neighbouring points, and the
free points of the two lines join across, in order.
"""
from __future__ import annotations

from typing import Iterator

from ..errors import InstanceTooLarge, InvalidInput, ascii_int
from ..frozen import Frozen, set_field

MATCHING_MAX_SUM = 24


def _starts(word: str) -> list[tuple[str, int]]:
    """Each object of a line's word with the index of its first point."""
    out = []
    i = 1
    for obj in word:
        out.append((obj, i))
        i += 2 if obj == "s" else 1
    return out


def _point(text: str) -> tuple[int, int]:
    """(0 for U or 1 for L, index) of a point's text."""
    try:
        return ("U", "L").index(text[:1]), ascii_int(text[1:])
    except ValueError:
        raise InvalidInput(f"bad point {text!r}") from None


def _name(p: tuple[int, int]) -> str:
    return f"{'UL'[p[0]]}{p[1]}"


class Matching(Frozen):
    __slots__ = ("upper", "lower")  # the two lines' words over 'p' and 's'

    def __init__(self, upper: str, lower: str):
        set_field(self, "upper", upper)
        set_field(self, "lower", lower)

    @property
    def k(self) -> int:
        return len(self.upper) + self.upper.count("s")

    @property
    def n(self) -> int:
        return len(self.lower) + self.lower.count("s")

    def _pairs(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """The pairs, each point a 0 (upper) or 1 (lower) and an index: the
        upper line's pairs left to right, then the lower line's segments."""
        lower = _starts(self.lower)
        free = iter([j for obj, j in lower if obj == "p"])
        pairs = [((0, i), (0, i + 1) if obj == "s" else (1, next(free)))
                 for obj, i in _starts(self.upper)]
        return pairs + [((1, j), (1, j + 1)) for obj, j in lower if obj == "s"]

    def sort_key(self):
        return tuple(self._pairs())

    def cross_pairs(self) -> list[tuple[int, int]]:
        """(upper index, lower index) of every pair joining the two lines."""
        return [(a[1], b[1]) for a, b in self._pairs() if b[0] > a[0]]

    def line_pairs(self, line: str) -> list[tuple[int, int]]:
        """Index pairs of same-line segments on the given line, left to right."""
        word = self.upper if line == "U" else self.lower
        return [(i, i + 1) for obj, i in _starts(word) if obj == "s"]

    def validate(self) -> None:
        for word in (self.upper, self.lower):
            if bad := word.strip("ps"):
                raise InvalidInput(f"bad layout object {bad[0]!r}")
        if self.upper.count("p") != self.lower.count("p"):
            raise InvalidInput("leftover points cannot be matched up")

    def encode(self) -> str:
        return ",".join([f"{'UL'[a]}{i}-{'UL'[b]}{j}" for (a, i), (b, j) in self._pairs()])

    @classmethod
    def decode(cls, text: str) -> "Matching":
        """The pair list 'U1-L1,U2-U3,...', in any order and each pair either
        way round, if it is a noncrossing perfect matching of its points."""
        text = text.strip()
        pairs = []
        for token in text.split(",") if text else ():
            try:
                left, right = token.split("-")
            except ValueError:
                raise InvalidInput(f"bad pair token {token!r}") from None
            a, b = _point(left), _point(right)
            pairs.append((a, b) if a <= b else (b, a))
        k = sum(p[0] == 0 for pair in pairs for p in pair)
        sizes = (k, 2 * len(pairs) - k)
        # As if checked along the sorted pairs: a point out of range fails where
        # it first comes, one in range where it comes again.  A place is (pair,
        # its list index, which keeps equal pairs apart, 0 or 1 for its point).
        places: dict[tuple[int, int], list] = {}
        for i, (a, b) in enumerate(pairs):
            places.setdefault(a, []).append((a, b, i, 0))
            places.setdefault(b, []).append((a, b, i, 1))
        errors = []
        for p, where in places.items():
            if 1 <= p[1] <= sizes[p[0]]:
                where.remove(min(where))
                errors += [(place, f"point {_name(p)} used twice") for place in where]
            else:
                errors += [(place, f"point {_name(p)} out of range") for place in where]
        if errors:
            raise InvalidInput(min(errors)[1])
        # each point of 1..k and 1..n is now in exactly one pair
        if wide := [(a, b) for a, b in pairs if a[0] == b[0] and b[1] - a[1] != 1]:
            a, b = min(wide)
            raise InvalidInput(f"same-line pair {_name(a)}-{_name(b)} not adjacent")
        words = [["p"] * size for size in sizes]
        across = [0] * (k + 1)  # upper index -> the lower index it joins
        for (line, i), (other, j) in pairs:
            if line == other:
                words[line][i - 1:i + 1] = "s", ""  # one object for two points
            else:
                across[i] = j
        lows = [j for j in across if j]
        if any(j > l for j, l in zip(lows, lows[1:])):
            raise InvalidInput("crossing segments between the lines")
        return cls(*map("".join, words))


def enum_matchings(k: int, n: int) -> Iterator[Matching]:
    """All noncrossing matchings of (k, n) points, in `Matching.sort_key` order.

    Depth first over the next upper object: a segment, or a free point whose
    partner follows t lower segments, t = 0, 1, ...  Every choice can be
    completed, and once the upper line is used up, the lower points left pair
    up.  The search keeps its own stack of nodes, each with its next choice.
    """
    if k + n > MATCHING_MAX_SUM:
        raise InstanceTooLarge(f"matchings capped at k+n <= {MATCHING_MAX_SUM}")
    if k < 0 or n < 0 or (k + n) % 2 == 1:
        return
    runs = ["s" * t for t in range(n // 2 + 1)]
    # (upper word, lower word, upper and lower points left, choice): choice -1
    # is an upper segment, t >= 0 a free point after t lower segments
    stack = [("", "", k, n, -1)]
    pop, push = stack.pop, stack.append
    while stack:
        upper, lower, up, lo, t = pop()
        if not up:
            yield Matching(upper, lower + runs[lo // 2])
            continue
        if 2 * t + 3 <= lo:  # the next choice here, taken after this one's
            push((upper, lower, up, lo, t + 1))
        if t >= 0:
            push((upper + "p", lower + runs[t] + "p", up - 1, lo - 2 * t - 1, -1))
        elif up > 1:
            push((upper + "s", lower, up - 2, lo, -1))
