"""Ordered compositions with summands drawn from a fixed part set, and the
search that lists their words for domino tilings too."""
from __future__ import annotations

from typing import Iterator

from ..errors import InstanceTooLarge, InvalidInput, ascii_int
from ..frozen import Frozen, set_field
from ..partsets import PartSet

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
    and, if size is set, `size` parts.  A state is what is left of n and the
    copies of p and parts still due; a move enters one only if what is left
    can take those copies and parts, so none below 0.  The moves are listed
    first, then the search keeps its own stack of (word, state)."""
    counted = size is not None
    parts = [q for q, _ in table] or [1]  # with no part, only n = size = 0 completes
    low, high = (min(parts), max(parts)) if counted else (0, n)  # (0, n) cuts nothing

    def alive(rem: int, due: int, left: int) -> bool:
        return 0 <= due and due * p <= rem and low * left <= rem <= high * left

    states = [(n, copies, size if counted else 1)]  # uncounted, one part is always due
    index = {states[0]: 0}
    moves: list = []  # moves[i]: (letter, next state's index) from state i, last first; None at 0
    for rem, due, left in states if alive(*states[0]) else ():  # grows as moves find states
        moves.append([] if rem else None)
        for q, letter in reversed(table) if rem else ():
            after = (rem - q, due - (q == p), left - counted)
            if q <= rem and alive(*after):
                if after not in index:
                    index[after] = len(states)
                    states.append(after)
                moves[-1].append((sep + letter if len(moves) > 1 else letter, index[after]))
    stack = [("", 0)] if moves else []
    pop, push = stack.pop, stack.append
    while stack:
        word, i = pop()
        if (row := moves[i]) is None:
            yield word
            continue
        for letter, j in row:
            push((word + letter, j))


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
