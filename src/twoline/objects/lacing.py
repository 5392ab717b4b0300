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

Hole coordinates are integers (column 0 or 1, row index), so every
intersection test below is exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..errors import InstanceTooLarge, InvalidInput
from ..families import LACING_MODES as MODES

LACING_MAX_HOLES = 12

Hole = tuple[str, int]  # ("L", i) or ("R", j), 1-based from the top


def _laced(before: Hole, h: Hole, after: Hole) -> bool:
    """Whether h, between its lace-neighbours before and after, has one of them
    on the opposite side."""
    return before[0] != h[0] or after[0] != h[0]


def _coord(h: Hole) -> tuple[int, int]:
    return (0 if h[0] == "L" else 1, h[1])


def _orient(a, b, c) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def segments_cross(a: Hole, b: Hole, c: Hole, d: Hole) -> bool:
    """True iff segments ab and cd meet anywhere except a shared hole endpoint."""
    pa, pb, pc, pd = _coord(a), _coord(b), _coord(c), _coord(d)
    shared = {a, b} & {c, d}
    o1, o2 = _orient(pc, pd, pa), _orient(pc, pd, pb)
    o3, o4 = _orient(pa, pb, pc), _orient(pa, pb, pd)
    if o1 == o2 == o3 == o4 == 0:
        # collinear: compare 1-D intervals along the line
        lo1, hi1 = sorted((pa, pb))
        lo2, hi2 = sorted((pc, pd))
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return False
        if lo < hi:
            return True
        # single shared coordinate: fine only if it is a shared endpoint hole
        return not (shared and _coord(next(iter(shared))) == lo)
    if o1 != o2 and o3 != o4 and 0 not in (o1, o2) and 0 not in (o3, o4):
        return True  # proper crossing
    # touching: an endpoint of one lies on the other segment
    for p, seg_lo, seg_hi, others in (
        (pa, pc, pd, (o1,)),
        (pb, pc, pd, (o2,)),
        (pc, pa, pb, (o3,)),
        (pd, pa, pb, (o4,)),
    ):
        if others[0] == 0 and min(seg_lo, seg_hi) <= p <= max(seg_lo, seg_hi):
            if not any(_coord(s) == p for s in shared):
                return True
    return False


@dataclass(frozen=True)
class Lacing:
    k: int
    n: int
    order: tuple[Hole, ...]

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

    def segments(self) -> list[tuple[Hole, Hole]]:
        return list(zip(self.order, self.order[1:]))

    def has_crossing(self) -> bool:
        segs = self.segments()
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                if segments_cross(*segs[i], *segs[j]):
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
        first, last = self.order[0], self.order[-1]
        if first != ("L", 1):
            raise InvalidInput("lacing must start at the top-left hole")
        want_end = ("R", 1) if mode == "right" else ("R", self.n)
        if last != want_end:
            raise InvalidInput(f"lacing must end at {want_end}")
        if mode == "non_self_crossing" and self.has_crossing():
            raise InvalidInput("lacing crosses itself")

    def encode(self) -> str:
        return "-".join(f"{s}{i}" for s, i in self.order)

    @classmethod
    def decode(cls, text: str) -> "Lacing":
        order: list[Hole] = []
        for tok in text.strip().split("-"):
            if not tok or tok[0] not in "LR" or not tok[1:].isdigit():
                raise InvalidInput(f"bad hole token {tok!r}")
            order.append((tok[0], int(tok[1:])))
        k = sum(1 for h in order if h[0] == "L")
        n = len(order) - k
        return cls(k, n, tuple(order))


def enum_lacings(k: int, n: int, mode: str) -> Iterator[Lacing]:
    """Backtracking enumeration of valid lacings in visit-order."""
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

    def crosses_new(h: Hole) -> bool:
        a = seq[-1]
        for c, d in zip(seq, seq[1:]):
            if segments_cross(a, h, c, d):
                return True
        return False

    def rec() -> Iterator[Lacing]:
        if len(seq) == total:
            if seq[-1] == end:
                yield Lacing(k, n, tuple(seq))
            return
        for h in holes:
            if h in used or (h == end and len(seq) != total - 1):
                continue
            if mode == "non_self_crossing" and crosses_new(h):
                continue
            seq.append(h)
            used.add(h)
            # seq[-2] has both neighbours now; the knot laces L1 to the last hole
            if len(seq) == 2 or _laced(*seq[-3:]):
                yield from rec()
            seq.pop()
            used.remove(h)

    yield from rec()
