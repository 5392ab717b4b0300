"""Closed vertex sets of zigzag fences.

The fence on m vertices is the alternating path v0 v1 ... v(m-1) drawn
with the even positions on a lower row and the odd positions on an upper
row; every edge is directed from the upper vertex down to its one or two
lower neighbours.  A vertex set is closed when no arrow leaves it: an
upper member forces both of its lower neighbours in.

A set is its bit string over the zigzag order, '1' marking a member, and
stores nothing else: the fence size is the string length.  Its pairs, a lower
vertex and the upper one after it, are the digits of a 0-1-2 sum renamed
(`DIGIT_TO_PAIR`): an upper member forces the next lower vertex in.
"""
from __future__ import annotations

from typing import Iterator

from ..errors import InstanceTooLarge, InvalidInput
from ..frozen import Frozen, set_field
from .sums012 import digit_words

FENCE_MAX_SIZE = 26

DIGIT_TO_PAIR = ("00", "10", "11")  # a summand 1 can only mean the pair's lower vertex


class ClosedSet(Frozen):
    __slots__ = ("bits",)

    def __init__(self, bits: str):
        set_field(self, "bits", bits)

    @property
    def fence_size(self) -> int:
        return len(self.bits)

    @property
    def members(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.bits) if c == "1")

    @property
    def size(self) -> int:
        return self.bits.count("1")

    def sort_key(self):
        return self.bits

    def validate(self) -> None:
        bits = self.bits
        if bits.strip("01"):
            raise InvalidInput(f"bad bit string {bits!r}")
        for v in range(1, len(bits), 2):
            if bits[v] == "1":  # upper vertex: lower neighbours v-1, v+1 forced in
                for w in (v - 1, v + 1):
                    if bits[w:w + 1] == "0":
                        raise InvalidInput(f"arrow leaves the set at {v}->{w}")

    def encode(self) -> str:
        return self.bits

    @classmethod
    def decode(cls, text: str) -> "ClosedSet":
        return cls(text.strip())


def enum_closed_sets(m: int, size_filter: int | None = None) -> Iterator[ClosedSet]:
    """All closed sets of the fence on m vertices, in bit-string order; with
    size_filter set, only those of that size.  An odd fence ends with a lower
    vertex: one more digit, 0 or 1, written as one bit."""
    if m > FENCE_MAX_SIZE:
        raise InstanceTooLarge(f"fence enumeration capped at m <= {FENCE_MAX_SIZE}")
    if m < 0:
        return
    pairs, odd = divmod(m, 2)
    last = "01" if odd else None
    yield from map(ClosedSet, digit_words(pairs + odd, DIGIT_TO_PAIR, size_filter, last))
