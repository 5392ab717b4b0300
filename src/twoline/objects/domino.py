"""Domino tilings of 2 x w strips, paired by vertical-domino count.

A tiling is a left-to-right block string: 'V' is one vertical domino
(width 1), 'H' is a stack of two horizontal dominoes (width 2).
"""
from __future__ import annotations

from typing import Iterator

from ..errors import InstanceTooLarge, InvalidInput
from ..frozen import Frozen, set_field

DOMINO_MAX_WIDTH = 20


# block -> its width, in lexicographic order of the blocks, which `tilings` keeps
BLOCK_WIDTH = {"H": 2, "V": 1}


def block_widths(t: str) -> tuple[int, ...]:
    """The widths of a tiling's blocks, left to right."""
    try:
        return tuple(BLOCK_WIDTH[c] for c in t)
    except KeyError:
        raise InvalidInput(f"bad tiling {t!r}") from None


def tiling_width(t: str) -> int:
    return sum(block_widths(t))


class DominoPair(Frozen):
    __slots__ = ("k", "n", "left", "right")

    def __init__(self, k: int, n: int, left: str, right: str):
        set_field(self, "k", k)
        set_field(self, "n", n)
        set_field(self, "left", left)
        set_field(self, "right", right)

    def sort_key(self):
        return (self.left, self.right)

    def validate(self) -> None:
        if tiling_width(self.left) != self.k or tiling_width(self.right) != self.n:
            raise InvalidInput("tiling widths do not match the strip sizes")
        if self.left.count("V") != self.right.count("V"):
            raise InvalidInput("vertical-domino counts differ")

    def encode(self) -> str:
        return f"{self.left}|{self.right}"

    @classmethod
    def decode(cls, text: str) -> "DominoPair":
        try:
            left, right = text.strip().split("|")
        except ValueError:
            raise InvalidInput(f"bad domino pair {text!r}") from None
        return cls(tiling_width(left), tiling_width(right), left, right)


def tilings(width: int) -> list[str]:
    """All block strings of the given width, in lexicographic order."""
    def rec(blocks: str, rem: int) -> Iterator[str]:
        if rem == 0:
            yield blocks
            return
        for block, w in BLOCK_WIDTH.items():
            if w <= rem:
                yield from rec(blocks + block, rem - w)

    return list(rec("", width))


def enum_domino_pairs(k: int, n: int) -> Iterator[DominoPair]:
    """Pairs of 2xk and 2xn tilings with equal vertical counts."""
    if k > DOMINO_MAX_WIDTH or n > DOMINO_MAX_WIDTH:
        raise InstanceTooLarge(f"domino strips capped at width {DOMINO_MAX_WIDTH}")
    if k < 0 or n < 0:
        return
    right_by_count: dict[int, list[str]] = {}
    for t in tilings(n):
        right_by_count.setdefault(t.count("V"), []).append(t)
    for left in tilings(k):
        for right in right_by_count.get(left.count("V"), []):
            yield DominoPair(k, n, left, right)
