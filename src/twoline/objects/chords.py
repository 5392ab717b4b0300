"""Rotationally symmetric noncrossing chord configurations.

One sector of the symmetric picture carries n points, labelled 1..n as in
the straightened arc diagram.  Inner arcs join two points of the same
sector and may not join neighbouring points; cross arcs join point q of a
sector to point p of the next sector and require p < q (anything else
collides with its own rotated copies).

Validation unrolls the configuration onto a universal cover of three
consecutive sector copies: every chord becomes an interval of cover
positions, two chords are incompatible iff they share a position or their
intervals strictly interleave.  Three copies suffice because no chord
reaches past the adjacent sector.
"""
from __future__ import annotations

from typing import Iterator

from ..errors import InstanceTooLarge, InvalidInput, ascii_int
from ..frozen import Frozen, set_field

CHORDS_MAX_POINTS = 12

Arc = tuple[int, int]


def _cover_intervals(arc: Arc, kind: str, n: int) -> list[tuple[int, int]]:
    """Cover positions (0-based over 3 copies) spanned by an arc's copies."""
    if kind == "inner":
        i, j = arc
        return [(i - 1 + c * n, j - 1 + c * n) for c in range(3)]
    p, q = arc
    return [(q - 1 + c * n, p - 1 + (c + 1) * n) for c in range(2)]


def _conflict(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Whether two cover intervals (lo, hi) share an end or strictly interleave."""
    (p, q), (r, s) = a, b
    return p == r or p == s or q == r or q == s or p < r < q < s or r < p < s < q


def _crossing(spans: list[tuple[int, int]]) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Two of the cover intervals in conflict, or None, in one pass after a sort.

    Intervals without a conflict nest or are disjoint, like brackets.  Taken by
    their left ends, each is tested against the innermost interval still open
    there: that one ends first among the open ones, so an interval that clears
    it clears them all, and the intervals closed before it are disjoint from it.
    """
    open_: list[tuple[int, int]] = []
    for iv in sorted(spans):
        while open_ and open_[-1][1] < iv[0]:
            open_.pop()
        if open_ and _conflict(open_[-1], iv):
            return open_[-1], iv
        open_.append(iv)
    return None


class ChordConfig(Frozen):
    __slots__ = ("n", "inner", "cross")

    def __init__(self, n: int, inner: tuple[Arc, ...], cross: tuple[Arc, ...]):
        set_field(self, "n", n)
        set_field(self, "inner", tuple(sorted(inner)))
        set_field(self, "cross", tuple(sorted(cross)))

    def sort_key(self):
        return (self.inner, self.cross)

    def validate(self) -> None:
        if self.n < 0:
            raise InvalidInput("negative point count")
        used: set[int] = set()
        for i, j in self.inner:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise InvalidInput("inner arc endpoint outside the sector")
            if j - i < 2:
                raise InvalidInput(f"inner arc ({i},{j}) joins neighbouring points")
            for e in (i, j):
                if e in used:
                    raise InvalidInput(f"point {e} used by two chords")
                used.add(e)
        for p, q in self.cross:
            if not (1 <= p <= self.n and 1 <= q <= self.n):
                raise InvalidInput("cross arc endpoint outside the sector")
            if p >= q:
                raise InvalidInput(f"cross arc ({p},{q}) collides with its own copies")
            for e in (p, q):
                if e in used:
                    raise InvalidInput(f"point {e} used by two chords")
                used.add(e)
        spans = [
            iv
            for kind, arcs in (("inner", self.inner), ("cross", self.cross))
            for arc in arcs
            for iv in _cover_intervals(arc, kind, self.n)
        ]
        pair = _crossing(spans)
        if pair is not None:
            raise InvalidInput(f"chords {pair[0]} and {pair[1]} cross on the cover")

    def encode(self) -> str:
        fmt = lambda arcs: ",".join(f"{i}-{j}" for i, j in arcs)
        return f"{self.n}:{fmt(self.inner)}:{fmt(self.cross)}"

    @classmethod
    def decode(cls, text: str) -> "ChordConfig":
        try:
            npart, ipart, cpart = text.strip().split(":")
            n = ascii_int(npart)
        except ValueError:
            raise InvalidInput(f"bad chord configuration {text!r}") from None
        return cls(n, decode_pairs(ipart), decode_pairs(cpart))


def decode_pairs(text: str) -> tuple[Arc, ...]:
    """The pair list 'i-j,k-l,...' of chords and segments; empty tokens are skipped."""
    pairs = []
    for tok in filter(None, text.split(",")):
        try:
            i, j = map(ascii_int, tok.split("-"))
        except ValueError:
            raise InvalidInput(f"bad pair {tok!r}: expected two integers 'i-j'") from None
        pairs.append((i, j))
    return tuple(pairs)


def _candidates(n: int) -> list[tuple[str, Arc]]:
    cands: list[tuple[str, Arc]] = []
    cands += [("inner", (i, j)) for i in range(1, n + 1) for j in range(i + 2, n + 1)]
    cands += [("cross", (p, q)) for p in range(1, n + 1) for q in range(p + 1, n + 1)]
    return cands


def _compatible(a: list[tuple[int, int]], b: list[tuple[int, int]]) -> bool:
    """Whether two arcs, given by their cover intervals, can be drawn together."""
    return not any(_conflict(iv_a, iv_b) for iv_a in a for iv_b in b)


def enum_chords(n: int) -> Iterator[ChordConfig]:
    """All symmetric configurations on n points per sector, in canonical order.

    Arc compatibility is pairwise, so configurations are exactly the
    cliques of the candidate compatibility graph.  Cliques are grown by
    ordered extension, which visits them in lexicographic order; the inner
    arcs are grown first, and each inner set is followed by the cross-arc
    sets compatible with it, which is the order of `ChordConfig.sort_key`.
    """
    if n > CHORDS_MAX_POINTS:
        raise InstanceTooLarge(f"chord enumeration capped at n <= {CHORDS_MAX_POINTS}")
    if n < 1:
        return
    cands = _candidates(n)
    m = len(cands)
    # each candidate's endpoints as a bit mask, and its cover intervals
    ends = [(1 << i) | (1 << j) for _, (i, j) in cands]
    spans = [_cover_intervals(arc, kind, n) for kind, arc in cands]
    # row a of the compatibility matrix as a bit mask over the candidates; the
    # relation is symmetric and no arc is compatible with itself
    compat = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if not ends[a] & ends[b] and _compatible(spans[a], spans[b]):
                compat[a] |= 1 << b
                compat[b] |= 1 << a
    inner = sum(1 << c for c in range(m) if cands[c][0] == "inner")
    cross = ((1 << m) - 1) ^ inner

    def cliques(allowed: int, picked=(), common=-1) -> Iterator[tuple[tuple[Arc, ...], int]]:
        """`picked` and its extensions by candidates in `allowed`, in lexicographic
        order, each with the mask of candidates compatible with all its arcs."""
        yield picked, common
        while allowed:
            c = (allowed & -allowed).bit_length() - 1
            allowed ^= 1 << c
            yield from cliques(allowed & compat[c], picked + (cands[c][1],), common & compat[c])

    for ins, common in cliques(inner):
        for crs, _ in cliques(common & cross):
            yield ChordConfig(n, ins, crs)
