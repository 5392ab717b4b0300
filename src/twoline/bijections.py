"""Constructive maps between the combinatorial realizations.

Each map comes with its inverse, so composing the two is an executable
identity check; families.BIJECTIONS pairs them up, and the bijections suite
of verify runs each check over a whole enumerated domain.

Each correspondence is stated once, and both directions read that one copy:

- A matching is its layout (`objects.matching`): its two lines read left to
  right, each a string of objects, 'p' a free point, 's' a segment joining
  two neighbouring points.  Every map into or out of a matching reads or
  writes these two words; `_lay_out` lays a line out from segments given
  from outside.
- A weighted path's steps are the columns of a square matching's layout
  (`_STEP_TO_COLUMN`).  A closed set's bit pairs, a peakless path's steps
  and a matching's layout read column by column are 0-1-2 summands renamed
  by the tables their enumerators write with (`objects.fence.DIGIT_TO_PAIR`,
  `objects.motzkin.DIGIT_TO_STEP`, `objects.matching.DIGIT_TO_OBJECTS`), and
  a domino block's width is its {1,2}-part (`objects.domino.BLOCK_WIDTH`).

A table read the wrong way round still gives a bijection, so round trips
cannot catch it; known answers in the tests pin each table.
"""
from __future__ import annotations

from typing import Iterable

from .errors import InvalidInput
from .objects.compositions import Composition, join
from .objects.chords import ChordConfig
from .objects.domino import BLOCK_WIDTH, tiling_width
from .objects.fence import DIGIT_TO_PAIR, ClosedSet
from .objects.matching import Matching, from_digits
from .objects.motzkin import DIGIT_TO_STEP, MotzkinPath
from .objects.staircase import Staircase
from .objects.sums012 import Sum012
from .objects.weighted import WeightedPath
from .partsets import ODD, ONE_TWO


# ---------------------------------------------------------------------------
# 0-1-2 sums <-> closed sets, peakless paths and matchings: digits renamed
# ---------------------------------------------------------------------------

_PAIR_TO_DIGIT = {pair: digit for digit, pair in zip("012", DIGIT_TO_PAIR)}
_TO_PAIRS = str.maketrans(dict(zip("012", DIGIT_TO_PAIR)))
_TO_STEPS = str.maketrans("012", DIGIT_TO_STEP)
_TO_DIGITS = str.maketrans(DIGIT_TO_STEP, "012")


def _pair_digits(bits: str) -> str:
    """The 0-1-2 digits of an even fence's bits, a digit per bit pair."""
    return "".join([_PAIR_TO_DIGIT[bits[i:i + 2]] for i in range(0, len(bits), 2)])


def closed_set_to_012(c: ClosedSet) -> Sum012:
    """Summand i counts the members of the bit pair at 2i."""
    c.validate()
    if c.fence_size % 2 != 0:
        raise InvalidInput("0-1-2 construction needs an even fence")
    return Sum012(_pair_digits(c.bits))


def sum012_to_closed_set(s: Sum012) -> ClosedSet:
    s.validate()
    return ClosedSet(s.digits.translate(_TO_PAIRS))


def s012_to_motzkin(s: Sum012) -> MotzkinPath:
    s.validate()
    return MotzkinPath(s.digits.translate(_TO_STEPS))


def motzkin_to_s012(p: MotzkinPath) -> Sum012:
    p.validate()
    return Sum012(p.steps.translate(_TO_DIGITS))


def closed_set_to_matching(c: ClosedSet) -> Matching:
    """Arrange non-members on the upper line and members on the lower line.

    A bit pair of two non-members is an upper segment, one of two members a
    lower segment, and a `10` frees its member and the non-member after it,
    which join across: the digits of `closed_set_to_012` read as a layout.
    """
    c.validate()
    if c.fence_size % 2 != 0:
        raise InvalidInput("matching construction needs an even fence")
    return from_digits(_pair_digits(c.bits))


def matching_to_closed_set(m: Matching) -> ClosedSet:
    """Inverse: the lower points are the members."""
    m.validate()
    return ClosedSet(m.digits.translate(_TO_PAIRS))


# ---------------------------------------------------------------------------
# matchings <-> weighted paths
# ---------------------------------------------------------------------------

# step -> the column it reads in a square matching's layout: the upper line's
# object over the lower line's.  A free point over a segment is a rise.
_STEP_TO_COLUMN = {"C": "pp", "L": "ss", "U": "ps", "D": "sp"}
_COLUMN_TO_STEP = {v: k for k, v in _STEP_TO_COLUMN.items()}


def matching_to_weighted_path(m: Matching) -> WeightedPath:
    """Column-by-column reading of a square matching as a priced path: the
    i-th upper object sits over the i-th lower object."""
    m.validate()
    if m.k != m.n:
        raise InvalidInput("weighted-path construction needs equal line sizes")
    return WeightedPath("".join(_COLUMN_TO_STEP[t + b] for t, b in zip(m.upper, m.lower)))


def weighted_path_to_matching(w: WeightedPath) -> Matching:
    """Inverse: expand each step into its column."""
    w.validate()
    columns = [_STEP_TO_COLUMN[step] for step in w.steps]
    return Matching("".join(c[0] for c in columns), "".join(c[1] for c in columns))


# ---------------------------------------------------------------------------
# peakless paths <-> chord configurations
# ---------------------------------------------------------------------------

def chords_to_motzkin(c: ChordConfig) -> MotzkinPath:
    """Left-to-right scan of one sector of the arc diagram.

    A point opening an inner arc or closing a cross arc rises, an isolated
    point is level, a point closing an inner arc or opening a cross arc
    falls.
    """
    c.validate()
    step = ["H"] * c.n
    for i, j in c.inner:
        step[i - 1] = "U"
        step[j - 1] = "D"
    for p, q in c.cross:
        step[p - 1] = "D"
        step[q - 1] = "U"
    return MotzkinPath("".join(step))


def motzkin_to_chords(p: MotzkinPath) -> ChordConfig:
    """Decode a level-returning peakless path into its unique configuration.

    The rises and falls of the periodic repetition of the path form a
    balanced bracket sequence (U opens, D closes).  Matching brackets over
    two concatenated periods pairs every U of the first period with its D:
    a D in the same period closes an inner arc, a D in the second period
    is the image point in the next sector, i.e. a cross arc.  Periodicity
    keeps every match within one period of its opener.
    """
    p.validate()
    n, height = p.endpoint
    if height != 0:
        raise InvalidInput("chord decoding needs a path returning to height 0")
    doubled = p.steps * 2
    stack: list[int] = []  # 0-based positions of open U steps
    inner: list[tuple[int, int]] = []
    cross: list[tuple[int, int]] = []
    for pos, ch in enumerate(doubled):
        if ch == "U":
            stack.append(pos)
        elif ch == "D":
            if not stack:
                continue  # closes a U from the previous period; periodic duplicate
            start = stack.pop()
            if start >= n:
                continue  # second-period copy of an arc already recorded
            if pos < n:
                inner.append((start + 1, pos + 1))
            else:
                cross.append((pos - n + 1, start + 1))
    return ChordConfig(n, tuple(inner), tuple(cross))


# ---------------------------------------------------------------------------
# matchings <-> horizontal-segment layouts
# ---------------------------------------------------------------------------

def _lay_out(size: int, segments: Iterable[tuple[int, int]]) -> str:
    """One line of `size` points with these sorted segments on it."""
    objects = ["p"] * size
    for a, _ in segments:
        objects[a - 1:a + 1] = "s", ""  # one object for two points, so indices stay put
    return "".join(objects)


def matching_split_horizontals(m: Matching):
    """The same-line segments of each line, as two sorted tuples."""
    m.validate()
    return tuple(m.line_pairs("U")), tuple(m.line_pairs("L"))


def matching_from_horizontals(
    k: int,
    n: int,
    upper: Iterable[tuple[int, int]],
    lower: Iterable[tuple[int, int]],
) -> Matching:
    """Rebuild the matching: lay the segments out, and the free points join
    left to right.  The segments come from outside, so the rebuilt matching
    must have the given sizes and hold exactly the given segments."""
    given = [sorted(tuple(sorted(seg)) for seg in segs) for segs in (upper, lower)]
    refusal = f"no matching of {k} and {n} points has these segments"
    if any(a < 1 or b > size for segs, size in zip(given, (k, n)) for a, b in segs):
        raise InvalidInput(refusal)  # laid out, it would land elsewhere on its line
    m = Matching(_lay_out(k, given[0]), _lay_out(n, given[1]))
    m.validate()
    if (m.k, m.n, m.line_pairs("U"), m.line_pairs("L")) != (k, n, *given):
        raise InvalidInput(refusal)
    return m


# ---------------------------------------------------------------------------
# {1,2}-compositions <-> dominoes and odd compositions
# ---------------------------------------------------------------------------

# a part's text -> its block and back, and no separator between blocks
_RENAME = str.maketrans({"+": None} | {b: str(w) for b, w in BLOCK_WIDTH.items()}
                        | {str(w): b for b, w in BLOCK_WIDTH.items()})


def composition_s1_to_domino(c: Composition) -> str:
    """Each part becomes the block of its width."""
    c.validate()
    if any(p not in (1, 2) for p in c.parts):
        raise InvalidInput("parts must be 1 or 2")
    return c.text.translate(_RENAME)


def domino_to_composition_s1(tiling: str) -> Composition:
    tiling_width(tiling)  # refuses a letter that is not a block
    return Composition("+".join(tiling.translate(_RENAME)), ONE_TWO)


def composition_s1_to_s2(c: Composition) -> Composition:
    """{1,2}-composition of n -> odd composition of n + 1.

    Append a trailing 1 and cut after every 1: each block of t twos plus
    its closing 1 merges into the odd summand 2t + 1.
    """
    c.validate()
    if any(p not in (1, 2) for p in c.parts):
        raise InvalidInput("parts must be 1 or 2")
    twos = c.text.replace("+", "").split("1")  # the twos before each 1, and after the last
    return Composition(join(2 * len(run) + 1 for run in twos), ODD)


def composition_s2_to_s1(c: Composition) -> Composition:
    """Inverse: each odd part 2t + 1 unfolds to t twos and a 1; drop the tail 1."""
    c.validate()
    if any(p % 2 == 0 for p in c.parts) or not c.parts:
        raise InvalidInput("need a nonempty all-odd composition")
    return Composition("+".join("1".join("2" * (p // 2) for p in c.parts)), ONE_TWO)


# ---------------------------------------------------------------------------
# staircases <-> composition pairs
# ---------------------------------------------------------------------------

def staircase_to_composition_pair(s: Staircase) -> tuple[Composition, Composition]:
    s.validate()
    horiz = Composition(join(h for h, _ in s.runs), ONE_TWO)
    vert = Composition(join(v for _, v in s.runs), ONE_TWO)
    return horiz, vert


def composition_pair_to_staircase(horiz: Composition, vert: Composition) -> Staircase:
    horiz.validate()
    vert.validate()
    if len(horiz.parts) != len(vert.parts):
        raise InvalidInput("compositions must have equally many summands")
    st = Staircase(tuple(zip(horiz.parts, vert.parts)))
    st.validate()
    return st
