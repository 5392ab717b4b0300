"""Peakless Motzkin paths.

Steps are U = (1, 1), H = (1, 0), D = (1, -1); "peakless" forbids a U
immediately followed by a D.  Paths start at the origin and may dip below
their start level -- there is no nonnegativity floor in this family.
"""
from __future__ import annotations

from typing import Iterator

from ..errors import InstanceTooLarge, InvalidInput
from ..frozen import Frozen, set_field

MOTZKIN_MAX_STEPS = 22

_DELTA = {"U": 1, "H": 0, "D": -1}


class MotzkinPath(Frozen):
    __slots__ = ("steps",)

    def __init__(self, steps: str):
        set_field(self, "steps", steps)

    @property
    def endpoint(self) -> tuple[int, int]:
        return len(self.steps), sum(_DELTA[c] for c in self.steps)

    def sort_key(self):
        return self.steps

    def validate(self) -> None:
        for c in self.steps:
            if c not in _DELTA:
                raise InvalidInput(f"bad step {c!r}")
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
    if k < 0 or abs(n_end) > k:
        return

    def rec(steps: str, h: int) -> Iterator[MotzkinPath]:
        remaining = k - len(steps)
        if remaining == 0:  # the height test below lets only paths ending at n_end get here
            yield MotzkinPath(steps)
            return
        for step in "HU" if steps.endswith("U") else "DHU":
            nh = h + _DELTA[step]
            if abs(n_end - nh) < remaining:
                yield from rec(steps + step, nh)

    yield from rec("", 0)
