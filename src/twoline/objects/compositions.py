"""Ordered compositions with summands drawn from a fixed part set, and the
search that lists their words for domino tilings too."""
from __future__ import annotations

from typing import Iterator

from ..errors import InstanceTooLarge, InvalidInput, ascii_int
from ..frozen import Frozen, set_field
from ..partsets import PartSet
from .words import words

COMPOSITION_MAX_TOTAL = 24


def join(parts) -> str:
    """The text of a composition with these parts."""
    return "+".join(map(str, parts))


class Composition(Frozen):
    __slots__ = ("text", "part_set")  # the text: '1+2+2' is the parts 1, 2, 2

    def __init__(self, text: str, part_set: PartSet):
        set_field(self, "text", text)
        set_field(self, "part_set", part_set)

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(map(int, self.text.split("+"))) if self.text else ()

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
        return self.text

    @classmethod
    def decode(cls, text: str, part_set: PartSet | None = None) -> "Composition":
        text = text.strip()
        try:
            parts = tuple(map(ascii_int, text.split("+"))) if text else ()
        except ValueError:
            raise InvalidInput(f"bad composition {text!r}") from None
        return cls(join(parts), part_set or PartSet.of(parts or (1,)))


def part_words(n: int, table, sep: str = "", p: int = 0, copies: int = 0,
               size: int | None = None) -> Iterator[str]:
    """The words of the compositions of n into the parts of `table`, a sequence
    of (part, letter) in the order the words take them, each part written as
    its letter with sep between two; only those with `copies` copies of part p
    and, if size is set, `size` parts.  A state is (left of n, copies due,
    parts due), entered only if what is left can take those copies and parts."""
    counted = size is not None
    parts = [q for q, _ in table] or [1]  # with no part, only n = size = 0 completes
    low, high = (min(parts), max(parts)) if counted else (0, n)  # (0, n) cuts nothing

    def alive(rem: int, due: int, left: int) -> bool:
        return 0 <= due and due * p <= rem and low * left <= rem <= high * left

    def moves(state):
        rem, due, left = state
        if not rem:
            return None
        lead = sep if rem < n else ""
        steps = [(lead + letter, (rem - q, due - (q == p), left - counted)) for q, letter in table]
        return [(letter, after if after[0] else None) for letter, after in steps if alive(*after)]

    start = (n, copies, size if counted else 1)  # uncounted, one part is always due
    return words(start, moves) if alive(*start) else iter(())


def enum_compositions(
    part_set: PartSet,
    n: int,
    part_count: tuple[int, int] | None = None,
    num_parts: int | None = None,
) -> Iterator[Composition]:
    """All part_set-compositions of n, in the order of their parts, optionally
    filtered: part_count = (p, c) keeps compositions containing part p exactly
    c times; num_parts = c keeps those with exactly c summands."""
    if n > COMPOSITION_MAX_TOTAL:
        raise InstanceTooLarge(f"compositions capped at n <= {COMPOSITION_MAX_TOTAL}")
    p, copies = part_count if part_count is not None else (0, 0)  # no part is 0
    if copies > 0 and p not in part_set:
        return
    table = [(q, str(q)) for q in part_set.members_up_to(n)]
    for text in part_words(n, table, "+", p, copies, num_parts):
        yield Composition(text, part_set)
