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
    times; num_parts = c keeps those with exactly c summands.  A filtered
    walk cuts a prefix once it holds too many parts or too many copies of p,
    or once what is left of n cannot take the parts or the copies still due.
    """
    if n > COMPOSITION_MAX_TOTAL:
        raise InstanceTooLarge(f"compositions capped at n <= {COMPOSITION_MAX_TOTAL}")
    if n < 0:
        return
    members = part_set.members_up_to(n)

    def rec(parts: tuple[int, ...], rem: int) -> Iterator[Composition]:
        if rem == 0:
            yield Composition(parts, part_set)
            return
        for p in members:
            if p > rem:
                break
            yield from rec(parts + (p,), rem - p)

    if part_count is None and num_parts is None:
        yield from rec((), n)
        return
    p, copies = part_count if part_count is not None else (0, 0)  # no part is 0
    if copies > 0 and p not in part_set:
        return
    # with no part up to n, (1, 1) asks rem = left, which only the empty composition meets
    smallest, largest = (members[0], members[-1]) if members else (1, 1)

    def cut(parts: tuple[int, ...], rem: int, copies: int) -> Iterator[Composition]:
        """rec, with `copies` copies of p still to place."""
        if copies < 0 or copies * p > rem:
            return
        if num_parts is not None:
            left = num_parts - len(parts)
            if not left * smallest <= rem <= left * largest:
                return
        if rem == 0:
            yield Composition(parts, part_set)
            return
        for q in members:
            if q > rem:
                break
            yield from cut(parts + (q,), rem - q, copies - (q == p))

    yield from cut((), n, copies)
