"""Ordered 0-1-2 sums with no 2 immediately followed by a 0, and the search
that lists their digit words for peakless paths, closed sets and matchings."""
from __future__ import annotations

from typing import Iterator

from ..errors import InstanceTooLarge, InvalidInput, ascii_int
from ..frozen import Frozen, set_field
from .words import words

SUM012_MAX_TERMS = 20


class Sum012(Frozen):
    __slots__ = ("digits",)  # the digit word: '102' is 1+0+2

    def __init__(self, digits: str):
        set_field(self, "digits", digits)

    @property
    def summands(self) -> tuple[int, ...]:
        return tuple(map(int, self.digits))

    def sort_key(self):
        return self.digits

    def validate(self) -> None:
        if bad := self.digits.strip("012"):
            raise InvalidInput(f"summand {bad[0]} not in 0..2")
        if "20" in self.digits:
            raise InvalidInput("a 2 is immediately followed by a 0")

    def encode(self) -> str:
        return "+".join(self.digits)

    @classmethod
    def decode(cls, text: str) -> "Sum012":
        text = text.strip()
        try:
            summands = [ascii_int(t) for t in text.split("+")] if text else []
        except ValueError:
            raise InvalidInput(f"bad 0-1-2 sum {text!r}") from None
        if bad := [d for d in summands if d not in (0, 1, 2)]:  # so 10 is not the digits 1, 0
            raise InvalidInput(f"summand {bad[0]} not in 0..2")
        return cls("".join(map(str, summands)))


def digit_words(n: int, letters, total: int | None = None, last=None) -> Iterator[str]:
    """The n-digit words over 0 < 1 < 2 with no 0 right after a 2, in digit
    order, digit d written as letters[d] (the last as last[d], then below
    len(last)), and only those whose digits add up to total if it is set.  A
    state is (need, after a 2, digits left), entered only if 0 <= need <= room[left]."""
    last = last or letters
    top = len(last) - 1
    if total is None:  # need stays above every digit, and no room cuts it
        total = top + 2 * n
        room = [total] * (n + 1)
    else:  # the largest sum of the last `left` digits
        room = [0] + [top + 2 * left for left in range(n)]
    if n < 0 or not 0 <= total <= room[n]:
        return iter(())

    def moves(state):
        need, after2, left = state
        if not left:
            return None
        cap = room[left - 1]
        return [(e, (need - d, d == 2, left - 1) if left > 1 else None)
                for d, e in enumerate(letters if left > 1 else last)
                if (d or not after2) and 0 <= need - d <= cap]

    return words((total, False, n), moves)


def enum_012(n: int, k: int) -> Iterator[Sum012]:
    """All valid n-term 0-1-2 sums totalling k, in lexicographic order."""
    if n > SUM012_MAX_TERMS:
        raise InstanceTooLarge(f"0-1-2 sums capped at n <= {SUM012_MAX_TERMS}")
    yield from map(Sum012, digit_words(n, "012", k))
