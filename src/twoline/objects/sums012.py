"""Ordered 0-1-2 sums in which no 2 is immediately followed by a 0, and the
search that lists their digit words for peakless paths and closed sets too."""
from __future__ import annotations

from typing import Iterator

from ..errors import InstanceTooLarge, InvalidInput, ascii_int
from ..frozen import Frozen, set_field

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
    len(last)), and only those whose digits add up to total if it is set.  The
    search keeps its own stack and enters a prefix only if 0 <= need <= room[left]."""
    last = last or letters
    top = len(last) - 1
    if total is None:  # need stays above every digit, and no room cuts it
        total = top + 2 * n
        room = [total] * (n + 1)
    else:  # the largest sum of the last `left` digits
        room = [0] + [top + 2 * left for left in range(n)]
    if n < 0 or not 0 <= total <= room[n]:
        return
    if n == 0:
        yield ""
        return
    # ends[after a 2][need]: the letters of a last digit that leave need 0
    ends = [[tuple(e for d, e in enumerate(last) if (d or not after2) and 0 <= need - d <= room[0])
             for need in range(total + 1)] for after2 in (False, True)]
    zero, one, two = letters
    stack = [("", total, False, n)]  # (word, need, ends in a 2, digits left)
    pop, push = stack.pop, stack.append
    while stack:
        word, need, after2, left = pop()
        if left == 1:
            for e in ends[after2][need]:
                yield word + e
            continue
        left -= 1
        cap = room[left]
        # pushed in reverse, so the smallest digit is taken first
        if 2 <= need <= cap + 2:
            push((word + two, need - 2, True, left))
        if 1 <= need <= cap + 1:
            push((word + one, need - 1, False, left))
        if not after2 and need <= cap:
            push((word + zero, need, False, left))


def enum_012(n: int, k: int) -> Iterator[Sum012]:
    """All valid n-term 0-1-2 sums totalling k, in lexicographic order."""
    if n > SUM012_MAX_TERMS:
        raise InstanceTooLarge(f"0-1-2 sums capped at n <= {SUM012_MAX_TERMS}")
    yield from map(Sum012, digit_words(n, "012", k))
