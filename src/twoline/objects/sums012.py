"""Ordered 0-1-2 sums in which no 2 is immediately followed by a 0."""
from __future__ import annotations

from typing import Iterator

from ..errors import InstanceTooLarge, InvalidInput
from ..frozen import Frozen, set_field

SUM012_MAX_TERMS = 20


class Sum012(Frozen):
    __slots__ = ("summands",)

    def __init__(self, summands: tuple[int, ...]):
        set_field(self, "summands", summands)

    def sort_key(self):
        return self.summands

    def validate(self) -> None:
        for d in self.summands:
            if d not in (0, 1, 2):
                raise InvalidInput(f"summand {d} not in 0..2")
        for a, b in zip(self.summands, self.summands[1:]):
            if a == 2 and b == 0:
                raise InvalidInput("a 2 is immediately followed by a 0")

    def encode(self) -> str:
        return "+".join(str(d) for d in self.summands)

    @classmethod
    def decode(cls, text: str) -> "Sum012":
        text = text.strip()
        if not text:
            return cls(())
        try:
            return cls(tuple(int(t) for t in text.split("+")))
        except ValueError:
            raise InvalidInput(f"bad 0-1-2 sum {text!r}") from None


def enum_012(n: int, k: int) -> Iterator[Sum012]:
    """All valid n-term 0-1-2 sums totalling k, in lexicographic order."""
    if n > SUM012_MAX_TERMS:
        raise InstanceTooLarge(f"0-1-2 sums capped at n <= {SUM012_MAX_TERMS}")
    if n < 0 or k < 0 or k > 2 * n:
        return

    def rec(summands: tuple[int, ...], need: int) -> Iterator[Sum012]:
        """Sums extending `summands` whose later summands add up to `need`."""
        rem = n - len(summands)
        if rem == 0:  # the test below lets only sums reaching k get here
            yield Sum012(summands)
            return
        for d in (1, 2) if summands and summands[-1] == 2 else (0, 1, 2):
            if 0 <= need - d <= 2 * (rem - 1):
                yield from rec(summands + (d,), need - d)

    yield from rec((), k)
