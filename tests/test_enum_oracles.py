"""The streaming enumerators against collect-and-sort oracles.

`matchings_oracle` and `chords_oracle` build every object and sort it by
its sort key, the way the package enumerated matchings and symmetric chord
configurations before it generated them in canonical order.  They are kept
here as test-only oracles: the streaming generators must yield exactly the
same objects in exactly the same order, and must build no more objects
than they are asked for.  A matching was a list of point pairs then, and
`normalize_oracle`, `validate_oracle` and `encode_oracle` keep how such a list
was sorted, checked and written: `Matching.decode` must refuse a pair list
with the message `validate_oracle` gives, or write it as `encode_oracle` does.
`lacings_oracle` is brute force over every visit order, against the pruned backtracking of `enum_lacings`.  Since it validates
through `Lacing.validate`, it shares that method's crossing test, so
`segments_cross_reference`, a general-position segment intersection, checks
the two-column rule of `segments_cross` on its own.  `crossing_search_lacings`
is the search `enum_lacings` ran before it walked columns top-down, testing
each new segment against the drawn ones; the top-down walk must yield exactly
its lacings, in its order, at sizes past the brute force's reach.
`closed_sets_oracle` and `staircases_oracle` are brute force too: every bit
string kept if no arrow of the fence leaves it, and every sequence of run
pairs kept if it sums to the target, against two searches that cut prefixes.
`digit_words_oracle` keeps every word over three letters whose digits sum to
the total, for the prefixes of the sums and paths that share the fence's search.
"""
from functools import cache
from itertools import combinations, islice, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoline.errors import InvalidInput
from twoline.objects import (
    LACING_MAX_HOLES,
    MODES,
    ChordConfig,
    ClosedSet,
    Lacing,
    Matching,
    Staircase,
    enum_012,
    enum_chords,
    enum_closed_sets,
    enum_lacings,
    enum_matchings,
    enum_peakless,
    enum_staircases,
    segments_cross,
)
from twoline.objects import chords as chords_mod
from twoline.objects import fence as fence_mod
from twoline.objects import matching as matching_mod
from twoline.objects import motzkin as motzkin_mod
from twoline.objects import staircase as staircase_mod
from twoline.objects import sums012 as sums012_mod
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


def point_key(p):
    return (0 if p[0] == "U" else 1, p[1])


def normalize_oracle(pairs):
    """Each pair's points sorted, then the pairs: ("U", i) before ("L", j)."""
    norm = [tuple(sorted(p, key=point_key)) for p in pairs]
    return tuple(sorted(norm, key=lambda pr: (point_key(pr[0]), point_key(pr[1]))))


def encode_oracle(pairs):
    return ",".join(f"{a[0]}{a[1]}-{b[0]}{b[1]}" for a, b in pairs)


def validate_oracle(k, n, pairs):
    """Raise InvalidInput unless the normalized pairs are a noncrossing
    perfect matching of k upper and n lower points."""
    if k < 0 or n < 0:
        raise InvalidInput("negative point count")
    seen = set()
    for a, b in pairs:
        for p in (a, b):
            line, i = p
            bound = k if line == "U" else n
            if not 1 <= i <= bound:
                raise InvalidInput(f"point {line}{i} out of range")
            if p in seen:
                raise InvalidInput(f"point {line}{i} used twice")
            seen.add(p)
        if a == b:
            raise InvalidInput("pair joins a point to itself")
    if len(seen) != k + n:
        raise InvalidInput("not a perfect matching")
    for a, b in pairs:
        if a[0] == b[0] and abs(a[1] - b[1]) != 1:
            raise InvalidInput(f"same-line pair {a[0]}{a[1]}-{b[0]}{b[1]} not adjacent")
    crosses = sorted(
        (a[1], b[1]) if a[0] == "U" else (b[1], a[1]) for a, b in pairs if a[0] != b[0]
    )
    for (u1, l1), (u2, l2) in zip(crosses, crosses[1:]):
        if not (u1 < u2 and l1 < l2):
            raise InvalidInput("crossing segments between the lines")


def pair_lists_oracle(k, n):
    """The normalized pair lists of the matchings of (k, n) points, sorted."""
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
            found.append(normalize_oracle(pairs))
    return sorted(found, key=lambda pairs: [(point_key(a), point_key(b)) for a, b in pairs])


def matchings_oracle(k, n):
    return [Matching.decode(encode_oracle(pairs)) for pairs in pair_lists_oracle(k, n)]


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


@cache
def closed_sets_oracle(m):
    """Every bit string of length m, in string order, kept if no arrow leaves
    it: each upper (odd) vertex points down to the lower vertices beside it,
    and a member's arrow must end at a member."""
    arrows = [(v, w) for v in range(1, m, 2) for w in (v - 1, v + 1) if w < m]
    return [
        ClosedSet(bits) for bits in map("".join, product("01", repeat=m))
        if all(bits[v] <= bits[w] for v, w in arrows)
    ]


@cache
def _run_sequences(max_sum):
    """(k, n) -> every sequence of run pairs (h, v), h and v in {1, 2}, that
    sums to (k, n), for k + n <= max_sum, sorted."""
    found = {}
    for length in range(max_sum // 2 + 1):
        for runs in product(product((1, 2), repeat=2), repeat=length):
            k, n = sum(h for h, _ in runs), sum(v for _, v in runs)
            if k + n <= max_sum:
                found.setdefault((k, n), []).append(runs)
    return {target: sorted(seqs) for target, seqs in found.items()}


def staircases_oracle(k, n):
    return [Staircase(runs) for runs in _run_sequences(14).get((k, n), [])]


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


_points = st.tuples(st.sampled_from("UL"), st.integers(0, 4))
_valid = st.sampled_from(
    [pairs for s in range(9) for k in range(s + 1) for pairs in pair_lists_oracle(k, s - k)]
)


@st.composite
def _pair_lists(draw):
    """Pairs of small points, a pairing of all of U1..Uk and L1..Ln, or a valid
    matching's pairs with some dropped, repeated or redrawn; each pair either
    way round, in any order."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        pairs = draw(st.lists(st.tuples(_points, _points), max_size=6))
    elif kind == 1:
        k, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
        n -= (k + n) % 2
        points = [("U", i) for i in range(1, k + 1)] + [("L", j) for j in range(1, n + 1)]
        order = draw(st.permutations(points))
        pairs = list(zip(order[::2], order[1::2]))
    else:
        pairs = list(draw(_valid))
        edits = st.tuples(st.integers(0, 2), st.integers(0, 9), _points)
        for edit, at, p in draw(st.lists(edits, max_size=2)):
            if pairs:
                at %= len(pairs)
                if edit == 0:
                    del pairs[at]
                elif edit == 1:
                    pairs.append(pairs[at])
                else:
                    pairs[at] = (pairs[at][0], p)
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pairs = [(b, a) if flip else (a, b) for (a, b), flip in zip(pairs, flips)]
    return draw(st.permutations(pairs))


@settings(max_examples=500)
@given(_pair_lists())
def test_decode_refuses_and_writes_pair_lists_as_the_oracle(pairs):
    k = sum(p[0] == "U" for pair in pairs for p in pair)
    normalized = normalize_oracle(pairs)
    text = encode_oracle(pairs)
    try:
        validate_oracle(k, 2 * len(pairs) - k, normalized)
    except InvalidInput as refused:
        with pytest.raises(InvalidInput) as got:
            Matching.decode(text)
        assert str(got.value) == str(refused)
    else:
        m = Matching.decode(text)
        m.validate()
        assert m.encode() == encode_oracle(normalized)
        assert m.sort_key() == tuple((point_key(a), point_key(b)) for a, b in normalized)


@pytest.mark.parametrize("n", range(-1, 12))
def test_chords_equal_the_oracle(n):
    assert list(enum_chords(n)) == chords_oracle(n)


@pytest.mark.parametrize("m", range(15))
def test_closed_sets_equal_the_brute_force(m):
    every = closed_sets_oracle(m)
    assert list(enum_closed_sets(m)) == every
    for size in range(-1, m + 2):
        assert list(enum_closed_sets(m, size)) == [c for c in every if c.bits.count("1") == size]


@pytest.mark.parametrize("total", range(-1, 15))
def test_staircases_equal_the_brute_force(total):
    for k in range(-1, total + 2):
        assert list(enum_staircases(k, total - k)) == staircases_oracle(k, total - k)


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


def test_a_closed_set_prefix_builds_only_its_objects(monkeypatch):
    built = _counting(monkeypatch, fence_mod, "ClosedSet")
    head = list(islice(enum_closed_sets(14), 10))
    assert head == closed_sets_oracle(14)[:10]
    assert len(built) <= 10


def digit_words_oracle(n, total, letters):
    """Every word of n letters for the digits 0 < 1 < 2, in digit order, kept
    if its digits add up to total and no 2 comes right before a 0."""
    words = map("".join, product(letters, repeat=n))
    return [w for w in words if sum(map(letters.index, w)) == total and letters[2] + letters[0] not in w]


def test_a_sum_prefix_builds_only_its_objects(monkeypatch):
    built = _counting(monkeypatch, sums012_mod, "Sum012")
    head = list(islice(enum_012(10, 10), 10))
    assert [s.digits for s in head] == digit_words_oracle(10, 10, "012")[:10]
    assert len(built) <= 10


def test_a_path_prefix_builds_only_its_objects(monkeypatch):
    built = _counting(monkeypatch, motzkin_mod, "MotzkinPath")
    head = list(islice(enum_peakless(10, 0), 10))
    assert [p.steps for p in head] == digit_words_oracle(10, 10, "DHU")[:10]
    assert len(built) <= 10


@pytest.mark.parametrize(
    "module, cap, enumerate_",
    [
        (fence_mod, "FENCE_MAX_SIZE", lambda: enum_closed_sets(4001)),
        (sums012_mod, "SUM012_MAX_TERMS", lambda: enum_012(3000, 3000)),
        (motzkin_mod, "MOTZKIN_MAX_STEPS", lambda: enum_peakless(3000, 0)),
        (matching_mod, "MATCHING_MAX_SUM", lambda: enum_matchings(3000, 3000)),
    ],
    ids=["closed sets", "sums", "paths", "matchings"],
)
def test_words_longer_than_the_recursion_limit_arrive(monkeypatch, module, cap, enumerate_):
    """The word searches keep their own stacks, so a word's length is bound
    only by the cap, not by Python's recursion depth."""
    monkeypatch.setattr(module, cap, 10**6)
    head = list(islice(enumerate_(), 3))
    assert len(head) == 3 and len(set(head)) == 3
    assert [obj.sort_key() for obj in head] == sorted(obj.sort_key() for obj in head)
    for obj in head:
        obj.validate()


def test_a_staircase_prefix_builds_only_its_objects(monkeypatch):
    built = _counting(monkeypatch, staircase_mod, "Staircase")
    head = list(islice(enum_staircases(7, 7), 10))
    assert head == staircases_oracle(7, 7)[:10]
    assert len(built) <= 10
