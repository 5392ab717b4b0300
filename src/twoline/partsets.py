"""Part-set descriptors for compositions.

A composition of n draws its summands from a fixed set of positive
integers.  Three sets recur throughout this project: {1, 2}, the odd
numbers, and the integers >= 2.  The infinite sets are kept symbolic and
materialized only up to whatever bound a computation needs.
"""
from __future__ import annotations

from .errors import EmptyPartSet
from .frozen import Frozen, set_field

_ODD = "odd"
_GEQ2 = "geq2"
_EXPLICIT = "explicit"


class PartSet(Frozen):
    """A set of allowed composition parts, possibly infinite."""

    __slots__ = ("kind", "parts")

    def __init__(self, kind: str, parts: tuple[int, ...] = ()):
        set_field(self, "kind", kind)
        set_field(self, "parts", parts)

    @staticmethod
    def of(parts) -> "PartSet":
        """Explicit finite part set; parts must be positive integers."""
        items = tuple(sorted(set(parts)))
        if not items:
            raise EmptyPartSet("explicit part set is empty")
        if items[0] < 1:
            raise EmptyPartSet("parts must be positive integers")
        return PartSet(_EXPLICIT, items)

    @staticmethod
    def odd() -> "PartSet":
        return PartSet(_ODD)

    @staticmethod
    def at_least_two() -> "PartSet":
        return PartSet(_GEQ2)

    @staticmethod
    def parse(text: str) -> "PartSet":
        """Parse a CLI-style descriptor: 's1', 's2', 's3', 'odd', 'geq2' or '1,2,5'."""
        t = text.strip().lower()
        if t in ("s1", "1,2", "12"):
            return ONE_TWO
        if t in ("s2", "odd"):
            return ODD
        if t in ("s3", "geq2", ">=2"):
            return AT_LEAST_TWO
        try:
            return PartSet.of(int(p) for p in t.split(","))
        except ValueError:
            raise EmptyPartSet(f"cannot parse part set {text!r}") from None

    def __contains__(self, m: int) -> bool:
        if m < 1:
            return False
        if self.kind == _ODD:
            return m % 2 == 1
        if self.kind == _GEQ2:
            return m >= 2
        return m in self.parts

    def members_up_to(self, bound: int) -> tuple[int, ...]:
        """All parts <= bound, ascending."""
        if self.kind == _ODD:
            return tuple(range(1, bound + 1, 2))
        if self.kind == _GEQ2:
            return tuple(range(2, bound + 1))
        return tuple(p for p in self.parts if p <= bound)

    @property
    def label(self) -> str:
        if self.kind == _ODD:
            return "odd"
        if self.kind == _GEQ2:
            return "geq2"
        return ",".join(str(p) for p in self.parts)


ONE_TWO = PartSet.of((1, 2))
ODD = PartSet.odd()
AT_LEAST_TWO = PartSet.at_least_two()
