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

from ..errors import InstanceTooLarge, InvalidInput, ascii_int
from ..frozen import Frozen, set_field
from .words import words

STAIRCASE_MAX_SUM = 28

Run = tuple[int, int]


def _run_texts(h: int, v: int) -> tuple[str, str]:
    """A run pair's text in the run encoding and in the step encoding."""
    return f"H{h},V{v}", f"{h}{v}"


# the four valid run pairs, in run order, with their texts; any other is written out
_RUN_TEXTS = {(h, v): _run_texts(h, v) for h in (1, 2) for v in (1, 2)}


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
        return ",".join([(_RUN_TEXTS.get(run) or _run_texts(*run))[0] for run in self.runs])

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
                runs.append((ascii_int(a[1:]), ascii_int(b[1:])))
            except ValueError:
                raise InvalidInput(f"bad run pair {a},{b}") from None
        return cls(tuple(runs))

    def encode_steps(self) -> str:
        return "-".join([(_RUN_TEXTS.get(run) or _run_texts(*run))[1] for run in self.runs])


def enum_staircases(k: int, n: int) -> Iterator[Staircase]:
    """All staircases from (0,0) to (k,n), ordered by their run sequence."""
    if k + n > STAIRCASE_MAX_SUM:
        raise InstanceTooLarge(f"staircases capped at k+n <= {STAIRCASE_MAX_SUM}")
    if k < 0 or n < 0:
        return

    def moves(state):  # into completable states only: some staircase finishes (ck, cn)
        if state == (0, 0):
            return None
        steps = [(run, state[0] - run[0], state[1] - run[1]) for run in _RUN_TEXTS]
        return [((run,), (ck, cn) if ck or cn else None) for run, ck, cn in steps
                if ck <= 2 * cn and cn <= 2 * ck]

    yield from map(Staircase, words((k, n), moves, ()))


# Step paths are staircases (see the module docstring) under their own name.
enum_b_step_paths = enum_staircases
