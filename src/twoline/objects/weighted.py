"""Level-returning paths with priced steps.

Step letters and prices: U and D are the sloped steps at 1.5 each, C is
the cheap horizontal at 1, L the luxury horizontal at 2.  A path must use
equally many U and D steps (it ends on its starting level), which forces
the total price to be a whole number.
"""
from __future__ import annotations

from typing import Iterator

from ..errors import InstanceTooLarge, InvalidInput
from ..frozen import Frozen, set_field
from .words import words

WEIGHTED_MAX_COST = 18

_HALF_COST = {"C": 2, "D": 3, "L": 4, "U": 3}


class WeightedPath(Frozen):
    __slots__ = ("steps",)

    def __init__(self, steps: str):
        set_field(self, "steps", steps)

    @property
    def cost(self) -> int:
        return sum(_HALF_COST[c] for c in self.steps) // 2

    def sort_key(self):
        return self.steps

    def validate(self) -> None:
        for c in self.steps:
            if c not in _HALF_COST:
                raise InvalidInput(f"bad step {c!r}")
        if self.steps.count("U") != self.steps.count("D"):
            raise InvalidInput("path does not return to its starting level")

    def encode(self) -> str:
        return self.steps

    @classmethod
    def decode(cls, text: str) -> "WeightedPath":
        return cls(text.strip())


def enum_weighted_paths(cost: int) -> Iterator[WeightedPath]:
    """All level-returning paths of the given whole price, lexicographically.

    Prices are tracked in half units so everything stays integral; a state
    with remaining budget r and height h is viable iff r >= 3|h| and
    r - 3|h| is even (slants to come home, then C/L/UD filler).
    """
    if cost > WEIGHTED_MAX_COST:
        raise InstanceTooLarge(f"weighted paths capped at cost <= {WEIGHTED_MAX_COST}")
    if cost < 0:
        return

    def moves(state):  # into viable states only, so only a level path spends the budget
        rem, h = state
        if not rem:
            return None
        steps = [(s, rem - _HALF_COST[s], h + (s == "U") - (s == "D")) for s in "CDLU"]
        return [(s, (r, nh) if r else None) for s, r, nh in steps
                if r >= 3 * abs(nh) and (r - 3 * abs(nh)) % 2 == 0]

    yield from map(WeightedPath, words((2 * cost, 0), moves))
