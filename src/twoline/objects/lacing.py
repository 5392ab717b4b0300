"""Shoe lacings as visit orders of the holes.

Holes sit in two columns: L1..Lk on the left and R1..Rn on the right,
numbered from the top.  A lacing is the order in which the lace passes
through all the holes; the knot ties the last hole back to the first, and
that knot edge counts when asking whether a hole has a lace-neighbour on
the opposite side (it is ignored by the crossing test, which only looks at
the drawn segments).

Two modes are distinguished:

  right              starts at L1 and ends at R1 (the topmost pair);
                     crossings are allowed
  non_self_crossing  starts at L1 and ends at Rn; the straight-line
                     drawing has no crossings

Holes sit in two columns at integer rows, so the crossing test needs no
geometry: it compares row indices only, and is exact.
"""
from __future__ import annotations

from typing import Iterator

from ..errors import InstanceTooLarge, InvalidInput
from ..frozen import Frozen, set_field
from ..families import LACING_MODES as MODES

LACING_MAX_HOLES = 12

Hole = tuple[str, int]  # ("L", i) or ("R", j), 1-based from the top


def _laced(before: Hole, h: Hole, after: Hole) -> bool:
    """Whether h, between its lace-neighbours before and after, has one of them
    on the opposite side."""
    return before[0] != h[0] or after[0] != h[0]


def _coord(h: Hole) -> tuple[int, int]:
    return (0 if h[0] == "L" else 1, h[1])


def segments_cross(a: Hole, b: Hole, c: Hole, d: Hole) -> bool:
    """True iff segments ab and cd meet anywhere except a shared hole endpoint.

    Every hole sits in one of two columns, so three cases cover every pair:
    two segments spanning the columns, (L i, R j) and (L p, R q), cross iff
    (i - p)(j - q) < 0; two segments inside one column meet iff they are in
    the same column and their rows overlap in more than one point; and a
    column segment meets a spanning one iff the spanning segment's end in
    that column lies strictly inside the column segment's rows.
    """
    return _sorted_segments_cross(*sorted((a, b)), *sorted((c, d)))


def _sorted_segments_cross(a: Hole, b: Hole, c: Hole, d: Hole) -> bool:
    """segments_cross for ends in order, a <= b and c <= d: L before R, then top down."""
    if a[0] != b[0] and c[0] != d[0]:
        return (a[1] - c[1]) * (b[1] - d[1]) < 0
    if a[0] == b[0] and c[0] == d[0]:
        return a[0] == c[0] and min(b[1], d[1]) > max(a[1], c[1])
    if a[0] != b[0]:  # make ab the column segment
        a, b, c, d = c, d, a, b
    end = c if c[0] == a[0] else d
    return a[1] < end[1] < b[1]


class Lacing(Frozen):
    __slots__ = ("k", "n", "order")

    def __init__(self, k: int, n: int, order: tuple[Hole, ...]):
        set_field(self, "k", k)
        set_field(self, "n", n)
        set_field(self, "order", order)

    def sort_key(self):
        return tuple(_coord(h) for h in self.order)

    def unlaced_hole(self) -> Hole | None:
        """The first hole with no lace-neighbour on the opposite side, or None
        when every hole has one.  The knot closes the lace into a cycle, so
        the first and last holes are neighbours."""
        order = self.order
        for idx, h in enumerate(order):
            if not _laced(order[idx - 1], h, order[(idx + 1) % len(order)]):
                return h
        return None

    def has_crossing(self) -> bool:
        segs = [sorted(seg) for seg in zip(self.order, self.order[1:])]  # ends in order, once
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                if _sorted_segments_cross(*segs[i], *segs[j]):
                    return True
        return False

    def validate(self, mode: str) -> None:
        if mode not in MODES:
            raise InvalidInput(f"unknown mode {mode!r}")
        holes = [("L", i) for i in range(1, self.k + 1)]
        holes += [("R", j) for j in range(1, self.n + 1)]
        if sorted(self.order) != sorted(holes):
            raise InvalidInput("order is not a permutation of the holes")
        lonely = self.unlaced_hole()
        if lonely is not None:
            raise InvalidInput(f"hole {lonely} has no opposite-side neighbour")
        if self.order[:1] != (("L", 1),):
            raise InvalidInput("lacing must start at the top-left hole")
        want_end = ("R", 1) if mode == "right" else ("R", self.n)
        if self.order[-1] != want_end:
            raise InvalidInput(f"lacing must end at {want_end}")
        if mode == "non_self_crossing" and self.has_crossing():
            raise InvalidInput("lacing crosses itself")

    def encode(self) -> str:
        return "-".join(f"{s}{i}" for s, i in self.order)

    @classmethod
    def decode(cls, text: str) -> "Lacing":
        order: list[Hole] = []
        for tok in text.strip().split("-"):
            if not tok or tok[0] not in "LR" or not (tok[1:].isascii() and tok[1:].isdigit()):
                raise InvalidInput(f"bad hole token {tok!r}")
            order.append((tok[0], int(tok[1:])))
        k = sum(1 for h in order if h[0] == "L")
        n = len(order) - k
        return cls(k, n, tuple(order))


def enum_lacings(k: int, n: int, mode: str) -> Iterator[Lacing]:
    """Backtracking enumeration of valid lacings in visit-order.  A non-crossing
    lacing visits each column top-down, so its sides form runs of one or two
    holes.  It cannot cross: a later spanning segment has both rows no smaller
    than an earlier one's, and a column segment joins adjacent rows.  `verify`
    checks the converse by brute force."""
    if mode not in MODES:
        raise InvalidInput(f"unknown mode {mode!r}")
    if k + n > LACING_MAX_HOLES:
        raise InstanceTooLarge(f"lacing enumeration capped at k+n <= {LACING_MAX_HOLES}")
    if k < 1 or n < 1:
        return
    end = ("R", 1) if mode == "right" else ("R", n)
    holes = [("L", i) for i in range(1, k + 1)] + [("R", j) for j in range(1, n + 1)]
    total = k + n
    seq: list[Hole] = [("L", 1)]
    used = {("L", 1)}

    def rec() -> Iterator[Lacing]:
        if len(seq) == total:
            if seq[-1] == end:
                yield Lacing(k, n, tuple(seq))
            return
        for h in holes:
            if h in used or (h == end and len(seq) != total - 1):
                continue
            if mode == "non_self_crossing" and h[1] > 1 and (h[0], h[1] - 1) not in used:
                continue
            seq.append(h)
            used.add(h)
            # seq[-2] has both neighbours now; the knot laces L1 to the last hole
            if len(seq) == 2 or _laced(*seq[-3:]):
                yield from rec()
            seq.pop()
            used.remove(h)

    yield from rec()
