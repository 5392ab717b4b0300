"""Peakless Motzkin paths.

Steps are U = (1, 1), H = (1, 0), D = (1, -1); "peakless" forbids a U
immediately followed by a D.  Paths start at the origin and may dip below
their start level -- there is no nonnegativity floor in this family.  A path
is a 0-1-2 sum's digit word renamed (`DIGIT_TO_STEP`), of digit sum k + height.
"""
from __future__ import annotations

from typing import Iterator

from ..errors import InstanceTooLarge, InvalidInput
from ..frozen import Frozen, set_field
from .sums012 import digit_words

MOTZKIN_MAX_STEPS = 22

DIGIT_TO_STEP = "DHU"  # a summand's step: 0 falls, 1 is level, 2 rises


class MotzkinPath(Frozen):
    __slots__ = ("steps",)

    def __init__(self, steps: str):
        set_field(self, "steps", steps)

    @property
    def endpoint(self) -> tuple[int, int]:
        return len(self.steps), self.steps.count("U") - self.steps.count("D")

    def sort_key(self):
        return self.steps

    def validate(self) -> None:
        if bad := self.steps.strip(DIGIT_TO_STEP):
            raise InvalidInput(f"bad step {bad[0]!r}")
        if "UD" in self.steps:
            raise InvalidInput("path has a peak")

    def encode(self) -> str:
        return self.steps

    @classmethod
    def decode(cls, text: str) -> "MotzkinPath":
        return cls(text.strip())


def enum_peakless(k: int, n_end: int) -> Iterator[MotzkinPath]:
    """All peakless paths of k steps ending at height n_end, lexicographically."""
    if k > MOTZKIN_MAX_STEPS:
        raise InstanceTooLarge(f"path enumeration capped at k <= {MOTZKIN_MAX_STEPS}")
    yield from map(MotzkinPath, digit_words(k, DIGIT_TO_STEP, k + n_end))
