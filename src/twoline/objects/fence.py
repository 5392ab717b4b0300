"""Closed vertex sets of zigzag fences.

The fence on m vertices is the alternating path v0 v1 ... v(m-1) drawn
with the even positions on a lower row and the odd positions on an upper
row; every edge is directed from the upper vertex down to its one or two
lower neighbours.  A vertex set is closed when no arrow leaves it: an
upper member forces both of its lower neighbours in.

A set is encoded as a bit string over the zigzag order, '1' marking a
member, so the fence size is the string length.
"""
from __future__ import annotations

from typing import Iterator

from ..errors import InstanceTooLarge, InvalidInput
from ..frozen import Frozen, set_field

FENCE_MAX_SIZE = 26


class ClosedSet(Frozen):
    __slots__ = ("fence_size", "members")

    def __init__(self, fence_size: int, members: frozenset[int]):
        set_field(self, "fence_size", fence_size)
        set_field(self, "members", frozenset(members))

    @property
    def size(self) -> int:
        return len(self.members)

    def sort_key(self):
        return self.encode()

    def validate(self) -> None:
        if self.fence_size < 0:
            raise InvalidInput("negative fence size")
        for v in self.members:
            if not 0 <= v < self.fence_size:
                raise InvalidInput(f"vertex {v} outside the fence")
        for v in self.members:
            if v % 2 == 1:  # upper vertex: lower neighbours v-1, v+1 forced in
                if v - 1 not in self.members:
                    raise InvalidInput(f"arrow leaves the set at {v}->{v - 1}")
                if v + 1 < self.fence_size and v + 1 not in self.members:
                    raise InvalidInput(f"arrow leaves the set at {v}->{v + 1}")

    def encode(self) -> str:
        return "".join(
            "1" if i in self.members else "0" for i in range(self.fence_size)
        )

    @classmethod
    def decode(cls, text: str) -> "ClosedSet":
        text = text.strip()
        if any(c not in "01" for c in text):
            raise InvalidInput(f"bad bit string {text!r}")
        return cls(len(text), frozenset(i for i, c in enumerate(text) if c == "1"))


def enum_closed_sets(m: int, size_filter: int | None = None) -> Iterator[ClosedSet]:
    """All closed sets of the fence on m vertices, in bit-string order.

    With size_filter set, only sets of that cardinality are yielded: a
    prefix is cut once it holds more members, or once the positions left
    cannot bring it up to that many.
    """
    if m > FENCE_MAX_SIZE:
        raise InstanceTooLarge(f"fence enumeration capped at m <= {FENCE_MAX_SIZE}")
    if m < 0:
        return

    def rec(pos: int, members: tuple[int, ...]) -> Iterator[ClosedSet]:
        if size_filter is not None and not 0 <= size_filter - len(members) <= m - pos:
            return
        if pos == m:
            yield ClosedSet(m, frozenset(members))
            return
        left_in = members[-1:] == (pos - 1,)
        if pos % 2 == 1 or not left_in:  # an upper member at pos-1 forces this lower vertex in
            yield from rec(pos + 1, members)
        if pos % 2 == 0 or left_in:  # an upper vertex needs its left lower neighbour in
            yield from rec(pos + 1, members + (pos,))

    yield from rec(0, ())
