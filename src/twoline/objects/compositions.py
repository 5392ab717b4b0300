"""Ordered compositions with summands drawn from a fixed part set."""
from __future__ import annotations

from typing import Iterator

from ..errors import InstanceTooLarge, InvalidInput
from ..frozen import Frozen, set_field
from ..partsets import PartSet

COMPOSITION_MAX_TOTAL = 24


class Composition(Frozen):
    __slots__ = ("parts", "part_set")

    def __init__(self, parts: tuple[int, ...], part_set: PartSet):
        set_field(self, "parts", parts)
        set_field(self, "part_set", part_set)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def sort_key(self):
        return self.parts

    def validate(self) -> None:
        for p in self.parts:
            if p not in self.part_set:
                raise InvalidInput(f"part {p} not in set {self.part_set.label}")

    def encode(self) -> str:
        return "+".join(str(p) for p in self.parts)

    @classmethod
    def decode(cls, text: str, part_set: PartSet | None = None) -> "Composition":
        text = text.strip()
        parts: tuple[int, ...] = ()
        if text:
            try:
                parts = tuple(int(t) for t in text.split("+"))
            except ValueError:
                raise InvalidInput(f"bad composition {text!r}") from None
        if part_set is None:
            part_set = PartSet.of(parts) if parts else PartSet.of((1,))
        return cls(parts, part_set)


def enum_compositions(
    part_set: PartSet,
    n: int,
    part_count: tuple[int, int] | None = None,
    num_parts: int | None = None,
) -> Iterator[Composition]:
    """All part_set-compositions of n, optionally filtered.

    part_count = (p, c) keeps compositions containing part p exactly c
    times; num_parts = c keeps those with exactly c summands.
    """
    if n > COMPOSITION_MAX_TOTAL:
        raise InstanceTooLarge(f"compositions capped at n <= {COMPOSITION_MAX_TOTAL}")
    if n < 0:
        return
    members = part_set.members_up_to(n)

    def rec(parts: tuple[int, ...], rem: int) -> Iterator[Composition]:
        if rem == 0:
            if part_count is not None and parts.count(part_count[0]) != part_count[1]:
                return
            if num_parts is not None and len(parts) != num_parts:
                return
            yield Composition(parts, part_set)
            return
        for p in members:
            if p > rem:
                break
            yield from rec(parts + (p,), rem - p)

    yield from rec((), n)
