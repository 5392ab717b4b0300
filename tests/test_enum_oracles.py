"""The streaming enumerators against collect-and-sort oracles.

`matchings_oracle` and `chords_oracle` build every object and sort it by
`sort_key`, the way the package enumerated matchings and symmetric chord
configurations before it generated them in canonical order.  They are kept
here as test-only oracles: the streaming generators must yield exactly the
same objects in exactly the same order, and must build no more objects
than they are asked for.  `lacings_oracle` is brute force over every visit
order, against the pruned backtracking of `enum_lacings`.  Since it validates
through `Lacing.validate`, it shares that method's crossing test, so
`segments_cross_reference`, a general-position segment intersection, checks
the two-column rule of `segments_cross` on its own.  `crossing_search_lacings`
is the search `enum_lacings` ran before it walked columns top-down, testing
each new segment against the drawn ones; the top-down walk must yield exactly
its lacings, in its order, at sizes past the brute force's reach.
"""
from itertools import combinations, islice, permutations

import pytest

from twoline.errors import InvalidInput
from twoline.objects import (
    LACING_MAX_HOLES,
    MODES,
    ChordConfig,
    Lacing,
    Matching,
    enum_chords,
    enum_lacings,
    enum_matchings,
    segments_cross,
)
from twoline.objects import chords as chords_mod
from twoline.objects import matching as matching_mod
from twoline.objects.chords import _candidates
from twoline.objects.lacing import _laced


def _line_configs(size):
    """(segments, free points) for every layout of adjacent pairs on `size` points."""
    out = []

    def rec(pos, segs, free):
        if pos > size:
            out.append((tuple(segs), tuple(free)))
            return
        free.append(pos)
        rec(pos + 1, segs, free)
        free.pop()
        if pos + 1 <= size:
            segs.append((pos, pos + 1))
            rec(pos + 2, segs, free)
            segs.pop()

    rec(1, [], [])
    return out


def matchings_oracle(k, n):
    if k < 0 or n < 0 or (k + n) % 2 == 1:
        return []
    lower_by_free = {}
    for segs, free in _line_configs(n):
        lower_by_free.setdefault(len(free), []).append((segs, free))
    found = []
    for usegs, ufree in _line_configs(k):
        for lsegs, lfree in lower_by_free.get(len(ufree), []):
            pairs = [(("U", a), ("U", b)) for a, b in usegs]
            pairs += [(("L", a), ("L", b)) for a, b in lsegs]
            pairs += [(("U", u), ("L", l)) for u, l in zip(ufree, lfree)]
            found.append(Matching(k, n, tuple(pairs)))
    found.sort(key=Matching.sort_key)
    return found


def _pair_valid(a, b, n):
    """Whether the configuration of the two candidate arcs a and b validates."""
    arcs = {"inner": [], "cross": []}
    for kind, arc in (a, b):
        arcs[kind].append(arc)
    try:
        ChordConfig(n, tuple(arcs["inner"]), tuple(arcs["cross"])).validate()
    except InvalidInput:
        return False
    return True


def chords_oracle(n):
    if n < 1:
        return []
    cands = _candidates(n)
    m = len(cands)
    compat = [[_pair_valid(cands[a], cands[b], n) for b in range(m)] for a in range(m)]
    found = []
    picked = []

    def rec(allowed):
        inner = tuple(cands[i][1] for i in picked if cands[i][0] == "inner")
        cross = tuple(cands[i][1] for i in picked if cands[i][0] == "cross")
        found.append(ChordConfig(n, inner, cross))
        for idx, c in enumerate(allowed):
            picked.append(c)
            rec([d for d in allowed[idx + 1 :] if compat[c][d]])
            picked.pop()

    rec(list(range(m)))
    found.sort(key=ChordConfig.sort_key)
    return found


def lacings_oracle(k, n, mode):
    """Every order that starts at L1, in backtracking order, kept if valid."""
    holes = [("L", i) for i in range(1, k + 1)] + [("R", j) for j in range(1, n + 1)]
    found = []
    for rest in permutations(holes[1:]):
        lacing = Lacing(k, n, (holes[0], *rest))
        try:
            lacing.validate(mode)
        except InvalidInput:
            continue
        found.append(lacing)
    return found


def crossing_search_lacings(k, n):
    """The backtracking search `enum_lacings` ran for non-self-crossing
    lacings before it walked columns top-down: it rejects any hole whose
    segment from the last hole crosses a segment already drawn."""
    if k < 1 or n < 1:
        return []
    end = ("R", n)
    holes = [("L", i) for i in range(1, k + 1)] + [("R", j) for j in range(1, n + 1)]
    total = k + n
    seq = [("L", 1)]
    used = {("L", 1)}
    found = []

    def crosses_new(h):
        a = seq[-1]
        return any(segments_cross(a, h, c, d) for c, d in zip(seq, seq[1:]))

    def rec():
        if len(seq) == total:
            if seq[-1] == end:
                found.append(Lacing(k, n, tuple(seq)))
            return
        for h in holes:
            if h in used or (h == end and len(seq) != total - 1) or crosses_new(h):
                continue
            seq.append(h)
            used.add(h)
            if len(seq) == 2 or _laced(*seq[-3:]):
                rec()
            seq.pop()
            used.remove(h)

    rec()
    return found


def _coord(h):
    return (0 if h[0] == "L" else 1, h[1])


def _orient(a, b, c):
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def segments_cross_reference(a, b, c, d):
    """True iff segments ab and cd meet anywhere except a shared hole endpoint,
    by orientations in the plane, for holes anywhere."""
    pa, pb, pc, pd = _coord(a), _coord(b), _coord(c), _coord(d)
    shared = {a, b} & {c, d}
    o1, o2 = _orient(pc, pd, pa), _orient(pc, pd, pb)
    o3, o4 = _orient(pa, pb, pc), _orient(pa, pb, pd)
    if o1 == o2 == o3 == o4 == 0:
        # collinear: compare 1-D intervals along the line
        lo1, hi1 = sorted((pa, pb))
        lo2, hi2 = sorted((pc, pd))
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return False
        if lo < hi:
            return True
        # single shared coordinate: fine only if it is a shared endpoint hole
        return not (shared and _coord(next(iter(shared))) == lo)
    if o1 != o2 and o3 != o4 and 0 not in (o1, o2) and 0 not in (o3, o4):
        return True  # proper crossing
    # touching: an endpoint of one lies on the other segment
    for p, seg_lo, seg_hi, o in ((pa, pc, pd, o1), (pb, pc, pd, o2), (pc, pa, pb, o3), (pd, pa, pb, o4)):
        if o == 0 and min(seg_lo, seg_hi) <= p <= max(seg_lo, seg_hi):
            if not any(_coord(s) == p for s in shared):
                return True
    return False


@pytest.mark.parametrize("k", range(1, 7))
def test_two_column_rule_equals_the_geometry(k):
    """Every pair of distinct segments between holes, each drawn either way."""
    for n in range(1, 7):
        holes = [("L", i) for i in range(1, k + 1)] + [("R", j) for j in range(1, n + 1)]
        segments = list(combinations(holes, 2))
        for (a, b), (c, d) in combinations(segments, 2):
            want = segments_cross_reference(a, b, c, d)
            for args in ((a, b, c, d), (b, a, c, d), (c, d, a, b), (c, d, b, a)):
                assert segments_cross(*args) == want, args


@pytest.mark.parametrize("total", range(-1, 17))
def test_matchings_equal_the_oracle(total):
    for k in range(-1, total + 2):
        assert list(enum_matchings(k, total - k)) == matchings_oracle(k, total - k)


@pytest.mark.parametrize("n", range(-1, 12))
def test_chords_equal_the_oracle(n):
    assert list(enum_chords(n)) == chords_oracle(n)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("total", range(2, 8))
def test_lacings_equal_the_brute_force(mode, total):
    for k in range(1, total):
        assert list(enum_lacings(k, total - k, mode)) == lacings_oracle(k, total - k, mode)


@pytest.mark.parametrize("total", range(2, LACING_MAX_HOLES))  # 12 holes add 1.1 s
def test_top_down_lacings_equal_the_crossing_search(total):
    for k in range(1, total):
        got = list(enum_lacings(k, total - k, "non_self_crossing"))
        assert got == crossing_search_lacings(k, total - k)


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts the objects it builds."""
    built = []
    cls = getattr(module, name)

    def build(*args):
        built.append(None)
        return cls(*args)

    monkeypatch.setattr(module, name, build)
    return built


def test_a_matching_prefix_builds_only_its_objects(monkeypatch):
    built = _counting(monkeypatch, matching_mod, "Matching")
    head = list(islice(enum_matchings(12, 12), 100))
    assert head == matchings_oracle(12, 12)[:100]
    assert len(built) <= 100


def test_a_chord_prefix_builds_only_its_objects(monkeypatch):
    built = _counting(monkeypatch, chords_mod, "ChordConfig")
    head = list(islice(enum_chords(10), 100))
    assert head == chords_oracle(10)[:100]
    assert len(built) <= 100
