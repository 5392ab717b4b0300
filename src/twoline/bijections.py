"""Constructive maps between the combinatorial realizations.

Each map comes with its inverse, so composing the two is an executable
identity check; families.BIJECTIONS pairs them up, and the bijections suite
of verify runs each check over a whole enumerated domain.
"""
from __future__ import annotations

from typing import Iterable

from .errors import InvalidInput
from .objects.compositions import Composition
from .objects.chords import ChordConfig
from .objects.fence import ClosedSet
from .objects.matching import Matching, Pair
from .objects.motzkin import MotzkinPath
from .objects.staircase import Staircase
from .objects.sums012 import Sum012
from .objects.weighted import WeightedPath
from .partsets import ODD, ONE_TWO


# ---------------------------------------------------------------------------
# closed sets <-> matchings
# ---------------------------------------------------------------------------

def _color_runs(c: ClosedSet) -> list[tuple[bool, int]]:
    """Maximal runs of (is_member, length) along the zigzag order."""
    runs: list[tuple[bool, int]] = []
    for i in range(c.fence_size):
        b = i in c.members
        if runs and runs[-1][0] == b:
            runs[-1] = (b, runs[-1][1] + 1)
        else:
            runs.append((b, 1))
    return runs


def closed_set_to_matching(c: ClosedSet) -> Matching:
    """Arrange non-members on the upper line and members on the lower line.

    Runs of equal colour become groups.  Every member group followed by a
    non-member group donates its last point to a segment reaching the
    first point of that group; all remaining points pair up with their
    neighbour inside their own group.  Closedness makes the group sizes
    work out: interior runs are odd, the two boundary runs are even.
    """
    c.validate()
    if c.fence_size % 2 != 0:
        raise InvalidInput("matching construction needs an even fence")
    runs = _color_runs(c)
    pairs: list[Pair] = []
    u = l = 0  # points placed so far on the upper / lower line
    for idx, (black, size) in enumerate(runs):
        if black:
            start = l + 1
            l += size
            tail = idx + 1 < len(runs)  # followed by a white group: donate last
            stop = l - 1 if tail else l
            for a in range(start, stop, 2):
                pairs.append((("L", a), ("L", a + 1)))
            if tail:
                pairs.append((("L", l), ("U", u + 1)))
        else:
            start = u + 1 if idx == 0 else u + 2  # first point taken by a segment
            u += size
            for a in range(start, u, 2):
                pairs.append((("U", a), ("U", a + 1)))
    return Matching(u, l, tuple(pairs))


def matching_to_closed_set(m: Matching) -> ClosedSet:
    """Inverse construction: read the group structure off the matching."""
    m.validate()
    crosses = m.cross_pairs()
    ups = [u for u, _ in crosses]
    los = [l for _, l in crosses]
    sizes: list[tuple[bool, int]] = []
    sizes.append((False, (ups[0] - 1) if ups else m.k))
    for i in range(len(crosses)):
        lo_prev = los[i - 1] if i else 0
        sizes.append((True, los[i] - lo_prev))
        up_next = ups[i + 1] if i + 1 < len(ups) else m.k + 1
        sizes.append((False, up_next - ups[i]))
    sizes.append((True, m.n - (los[-1] if los else 0)))
    members: set[int] = set()
    pos = 0
    for black, size in sizes:
        if black:
            members.update(range(pos, pos + size))
        pos += size
    return ClosedSet(m.k + m.n, frozenset(members))


# ---------------------------------------------------------------------------
# closed sets <-> 0-1-2 sums
# ---------------------------------------------------------------------------

def closed_set_to_012(c: ClosedSet) -> Sum012:
    """Summand i counts the members on the i-th down-left edge of the fence."""
    c.validate()
    if c.fence_size % 2 != 0:
        raise InvalidInput("0-1-2 construction needs an even fence")
    out = []
    for i in range(c.fence_size // 2):
        lower, upper = 2 * i, 2 * i + 1
        out.append((lower in c.members) + (upper in c.members))
    return Sum012(tuple(out))


def sum012_to_closed_set(s: Sum012) -> ClosedSet:
    """Inverse: a summand 1 can only mean the lower vertex of its edge."""
    s.validate()
    members: set[int] = set()
    for i, d in enumerate(s.summands):
        if d >= 1:
            members.add(2 * i)
        if d == 2:
            members.add(2 * i + 1)
    return ClosedSet(2 * len(s.summands), frozenset(members))


# ---------------------------------------------------------------------------
# 0-1-2 sums <-> peakless paths
# ---------------------------------------------------------------------------

_DIGIT_TO_STEP = {2: "U", 1: "H", 0: "D"}
_STEP_TO_DIGIT = {v: k for k, v in _DIGIT_TO_STEP.items()}


def s012_to_motzkin(s: Sum012) -> MotzkinPath:
    s.validate()
    return MotzkinPath("".join(_DIGIT_TO_STEP[d] for d in s.summands))


def motzkin_to_s012(p: MotzkinPath) -> Sum012:
    p.validate()
    return Sum012(tuple(_STEP_TO_DIGIT[c] for c in p.steps))


# ---------------------------------------------------------------------------
# matchings <-> weighted paths
# ---------------------------------------------------------------------------

def _line_objects(size: int, segs: list[tuple[int, int]]) -> list[bool]:
    """Left-to-right object list for one line: True = lone (cross) point."""
    seg_start = {a: b for a, b in segs}
    out = []
    i = 1
    while i <= size:
        if i in seg_start:
            out.append(False)
            i += 2
        else:
            out.append(True)
            i += 1
    return out


def matching_to_weighted_path(m: Matching) -> WeightedPath:
    """Column-by-column reading of a square matching as a priced path.

    Segments contract to white points, cross endpoints stay black; the
    i-th upper object sits over the i-th lower object.  Black over black
    is a cheap step, white over white luxury, black over white a rise,
    white over black a fall.
    """
    m.validate()
    if m.k != m.n:
        raise InvalidInput("weighted-path construction needs equal line sizes")
    top = _line_objects(m.k, m.line_pairs("U"))
    bottom = _line_objects(m.n, m.line_pairs("L"))
    steps = []
    for t, b in zip(top, bottom):
        if t and b:
            steps.append("C")
        elif not t and not b:
            steps.append("L")
        elif t:
            steps.append("U")
        else:
            steps.append("D")
    return WeightedPath("".join(steps))


def weighted_path_to_matching(w: WeightedPath) -> Matching:
    """Inverse: expand each column back into points and rejoin the blacks."""
    w.validate()
    pairs: list[Pair] = []
    free_u: list[int] = []
    free_l: list[int] = []
    u = l = 0
    for step in w.steps:
        top_black = step in ("C", "U")
        bottom_black = step in ("C", "D")
        if top_black:
            u += 1
            free_u.append(u)
        else:
            pairs.append((("U", u + 1), ("U", u + 2)))
            u += 2
        if bottom_black:
            l += 1
            free_l.append(l)
        else:
            pairs.append((("L", l + 1), ("L", l + 2)))
            l += 2
    pairs += [(("U", a), ("L", b)) for a, b in zip(free_u, free_l)]
    return Matching(u, l, tuple(pairs))


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
    """Rebuild the matching: leftover points rejoin left to right."""
    pairs: list[Pair] = [(("U", a), ("U", b)) for a, b in upper]
    pairs += [(("L", a), ("L", b)) for a, b in lower]
    used_u = {i for pr in pairs if pr[0][0] == "U" for _, i in pr}
    used_l = {i for pr in pairs if pr[0][0] == "L" for _, i in pr}
    free_u = [i for i in range(1, k + 1) if i not in used_u]
    free_l = [j for j in range(1, n + 1) if j not in used_l]
    if len(free_u) != len(free_l):
        raise InvalidInput("leftover points cannot be matched up")
    pairs += [(("U", a), ("L", b)) for a, b in zip(free_u, free_l)]
    m = Matching(k, n, tuple(pairs))
    m.validate()
    return m


# ---------------------------------------------------------------------------
# {1,2}-compositions <-> dominoes and odd compositions
# ---------------------------------------------------------------------------

def composition_s1_to_domino(c: Composition) -> str:
    """1 becomes a vertical domino, 2 a stacked horizontal pair."""
    c.validate()
    if any(p not in (1, 2) for p in c.parts):
        raise InvalidInput("parts must be 1 or 2")
    return "".join("V" if p == 1 else "H" for p in c.parts)


def domino_to_composition_s1(tiling: str) -> Composition:
    if any(ch not in "VH" for ch in tiling):
        raise InvalidInput(f"bad tiling {tiling!r}")
    return Composition(tuple(1 if ch == "V" else 2 for ch in tiling), ONE_TWO)


def composition_s1_to_s2(c: Composition) -> Composition:
    """{1,2}-composition of n -> odd composition of n + 1.

    Append a trailing 1 and cut after every 1: each block of t twos plus
    its closing 1 merges into the odd summand 2t + 1.
    """
    c.validate()
    if any(p not in (1, 2) for p in c.parts):
        raise InvalidInput("parts must be 1 or 2")
    out: list[int] = []
    twos = 0
    for p in list(c.parts) + [1]:
        if p == 2:
            twos += 1
        else:
            out.append(2 * twos + 1)
            twos = 0
    return Composition(tuple(out), ODD)


def composition_s2_to_s1(c: Composition) -> Composition:
    """Inverse: each odd part 2t + 1 unfolds to t twos and a 1; drop the tail 1."""
    c.validate()
    if any(p % 2 == 0 for p in c.parts) or not c.parts:
        raise InvalidInput("need a nonempty all-odd composition")
    flat: list[int] = []
    for p in c.parts:
        flat.extend([2] * ((p - 1) // 2))
        flat.append(1)
    if flat[-1] != 1:
        raise InvalidInput("image does not end with a 1")
    return Composition(tuple(flat[:-1]), ONE_TWO)


# ---------------------------------------------------------------------------
# staircases <-> composition pairs
# ---------------------------------------------------------------------------

def staircase_to_composition_pair(s: Staircase) -> tuple[Composition, Composition]:
    s.validate()
    horiz = Composition(tuple(h for h, _ in s.runs), ONE_TWO)
    vert = Composition(tuple(v for _, v in s.runs), ONE_TWO)
    return horiz, vert


def composition_pair_to_staircase(horiz: Composition, vert: Composition) -> Staircase:
    horiz.validate()
    vert.validate()
    if len(horiz.parts) != len(vert.parts):
        raise InvalidInput("compositions must have equally many summands")
    st = Staircase(tuple(zip(horiz.parts, vert.parts)))
    st.validate()
    return st
