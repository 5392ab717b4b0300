"""Noncrossing perfect matchings of points on two parallel lines.

Points are labelled U1..Uk on the upper line and L1..Ln on the lower line,
left to right.  A pair joining points on the same line must join adjacent
labels (anything wider would pass over a third marked point); pairs joining
the two lines must be order preserving, which is exactly the noncrossing
condition for segments between two parallel lines.

A matching stores its layout alone: each line read left to right is a word,
'p' a free point and 's' a segment joining two neighbouring points, and the
free points of the two lines join across, in order.

Read column by column, a layout is a word over 0 < 1 < 2 (`DIGIT_TO_OBJECTS`):
between two free points an upper segment is a 0 and a lower segment a 2, and
the free point of each line, joined across, a 1.  So the matchings of (k, n)
points are the 0-1-2 sums of `sums012` with (k+n)/2 digits adding to n, renamed.
"""
from __future__ import annotations

from typing import Iterator

from ..errors import InstanceTooLarge, InvalidInput, ascii_int
from ..frozen import Frozen, set_field
from .sums012 import digit_words

MATCHING_MAX_SUM = 24

# digit -> the (upper, lower) objects it reads as, None on a line it adds nothing to
DIGIT_TO_OBJECTS = (("s", None), ("p", "p"), (None, "s"))
_TO_UPPER, _TO_LOWER = [str.maketrans(dict(zip("012", line))) for line in zip(*DIGIT_TO_OBJECTS)]


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

    @property
    def digits(self) -> str:
        """The digit word the layout reads as: in each gap between free points,
        the upper segments' 0s before the lower segments' 2s."""
        gaps = zip(self.upper.split("p"), self.lower.split("p"))
        return "1".join(["0" * len(up) + "2" * len(lo) for up, lo in gaps])

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


def from_digits(digits: str) -> Matching:
    """The matching whose layout reads as this digit word."""
    return Matching(digits.translate(_TO_UPPER), digits.translate(_TO_LOWER))


def enum_matchings(k: int, n: int) -> Iterator[Matching]:
    """All noncrossing matchings of (k, n) points, in `Matching.sort_key` order:
    the digit words of length (k+n)/2 and digit sum n, renamed.  In digit order
    an upper point pairs with the next one (0) before it pairs across (1), and
    across with a lower point past fewer lower segments (2) first."""
    if k + n > MATCHING_MAX_SUM:
        raise InstanceTooLarge(f"matchings capped at k+n <= {MATCHING_MAX_SUM}")
    if (k + n) % 2 == 0:
        yield from map(from_digits, digit_words((k + n) // 2, "012", n))
