"""Staircase paths: alternating horizontal/vertical runs of length 1 or 2.

A staircase starts with a horizontal run and ends with a vertical one, so
it is a sequence of (h, v) run pairs; the horizontal lengths form one
{1,2}-composition and the vertical lengths another, with equally many
summands.  Read as lattice steps, the same pairs are a path to (k, n) with
steps (1,1), (1,2), (2,1), (2,2): a step path is a staircase in the step
encoding `11-22-21`.
"""
from __future__ import annotations

from typing import Iterator

from ..errors import InstanceTooLarge, InvalidInput
from ..frozen import Frozen, set_field

STAIRCASE_MAX_SUM = 28

Run = tuple[int, int]


class Staircase(Frozen):
    __slots__ = ("runs",)

    def __init__(self, runs: tuple[Run, ...]):
        set_field(self, "runs", runs)

    def sort_key(self):
        return self.runs

    def validate(self) -> None:
        for h, v in self.runs:
            if h not in (1, 2) or v not in (1, 2):
                raise InvalidInput(f"run lengths ({h},{v}) must be 1 or 2")

    def encode(self) -> str:
        return ",".join(f"H{h},V{v}" for h, v in self.runs)

    @classmethod
    def decode(cls, text: str) -> "Staircase":
        text = text.strip()
        if not text:
            return cls(())
        toks = text.split(",")
        if len(toks) % 2 != 0:
            raise InvalidInput("staircase must alternate H and V runs")
        runs = []
        for a, b in zip(toks[::2], toks[1::2]):
            if a[:1] != "H" or b[:1] != "V":
                raise InvalidInput(f"bad run pair {a},{b}")
            try:
                runs.append((int(a[1:]), int(b[1:])))
            except ValueError:
                raise InvalidInput(f"bad run pair {a},{b}") from None
        return cls(tuple(runs))

    def encode_steps(self) -> str:
        return "-".join(f"{h}{v}" for h, v in self.runs)


def enum_staircases(k: int, n: int) -> Iterator[Staircase]:
    """All staircases from (0,0) to (k,n), ordered by their run sequence."""
    if k + n > STAIRCASE_MAX_SUM:
        raise InstanceTooLarge(f"staircases capped at k+n <= {STAIRCASE_MAX_SUM}")
    if k < 0 or n < 0:
        return

    def rec(runs: tuple[Run, ...], rk: int, rn: int) -> Iterator[Staircase]:
        if rk == 0 and rn == 0:
            yield Staircase(runs)
            return
        for h in (1, 2):
            if h > rk:
                break
            for v in (1, 2):
                if v > rn:
                    break
                yield from rec(runs + ((h, v),), rk - h, rn - v)

    yield from rec((), k, n)


# Step paths are staircases (see the module docstring) under their own name.
enum_b_step_paths = enum_staircases
