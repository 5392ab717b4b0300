import functools
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twoline import bijections as bij
from twoline import cli, families
from twoline import counting as cnt
from twoline.errors import InvalidInput
from twoline.objects import (
    ChordConfig,
    ClosedSet,
    Composition,
    Matching,
    MotzkinPath,
    Staircase,
    Sum012,
    WeightedPath,
    enum_012,
    enum_chords,
    enum_closed_sets,
    enum_compositions,
    enum_matchings,
    enum_peakless,
    enum_staircases,
    enum_weighted_paths,
)
from twoline.partsets import ODD, ONE_TWO

from enumerated import nth_object

# a 16-vertex fence with member runs of sizes 3, 3 and 2, and the
# matching its construction produces
FENCE16 = ClosedSet("0000111011100011")
FENCE16_IMAGE = "U1-U2,U3-U4,U5-L3,U6-L6,U7-U8,L1-L2,L4-L5,L7-L8"

# a 14-vertex fence whose down-left edges carry 0,0,2,1,2,1,0 members
FENCE14 = ClosedSet("00001110111000")


class TestClosedSetToMatching:
    def test_empty_set(self):
        got = bij.closed_set_to_matching(ClosedSet("0000"))
        assert got.encode() == "U1-U2,U3-U4"

    def test_full_set(self):
        got = bij.closed_set_to_matching(ClosedSet("1111"))
        assert got.encode() == "L1-L2,L3-L4"

    def test_sixteen_vertex_example(self):
        got = bij.closed_set_to_matching(FENCE16)
        got.validate()
        assert got.encode() == FENCE16_IMAGE

    def test_fourteen_vertex_example(self):
        # digits 0021210: a table read the wrong way round still round-trips
        got = bij.closed_set_to_matching(FENCE14)
        assert got == Matching("sspps", "spsp") and got.digits == "0021210"
        assert got.encode() == "U1-U2,U3-U4,U5-L3,U6-L6,U7-U8,L1-L2,L4-L5"
        assert bij.matching_to_closed_set(got) == FENCE14

    def test_image_cardinality(self):
        images = Counter()
        for c in enum_closed_sets(8):
            m = bij.closed_set_to_matching(c)
            m.validate()
            images[(m.k, m.n)] += 1
        for s in range(9):
            assert images[(8 - s, s)] == cnt.a_long(8 - s, s)

    def test_roundtrip(self):
        for fence in range(0, 13, 2):
            for c in enum_closed_sets(fence):
                assert bij.matching_to_closed_set(bij.closed_set_to_matching(c)) == c

    def test_inverse_covers_all_matchings(self):
        for s in range(0, 11, 2):
            for k in range(s + 1):
                for m in enum_matchings(k, s - k):
                    c = bij.matching_to_closed_set(m)
                    c.validate()
                    assert bij.closed_set_to_matching(c) == m

    def test_rejects_odd_fence(self):
        with pytest.raises(InvalidInput):
            bij.closed_set_to_matching(ClosedSet("000"))


class TestClosedSetTo012:
    def test_fourteen_vertex_example(self):
        assert bij.closed_set_to_012(FENCE14).summands == (0, 0, 2, 1, 2, 1, 0)

    def test_empty_and_full(self):
        assert bij.closed_set_to_012(ClosedSet("00000000")).summands == (0,) * 4
        assert bij.closed_set_to_012(ClosedSet("11111111")).summands == (2,) * 4

    def test_roundtrip(self):
        for fence in range(0, 13, 2):
            for c in enum_closed_sets(fence):
                s = bij.closed_set_to_012(c)
                s.validate()
                assert bij.sum012_to_closed_set(s) == c

    def test_inverse_covers_all_sums(self):
        for n in range(7):
            for k in range(2 * n + 1):
                for s in enum_012(n, k):
                    c = bij.sum012_to_closed_set(s)
                    c.validate()
                    assert c.size == k
                    assert bij.closed_set_to_012(c) == s


class TestSum012ToMotzkin:
    def test_substitutions(self):
        assert bij.s012_to_motzkin(Sum012("111")).encode() == "HHH"
        assert bij.s012_to_motzkin(Sum012("012")).encode() == "DHU"
        assert bij.s012_to_motzkin(Sum012("210")).encode() == "UHD"

    def test_endpoint(self):
        # n = 3 summands totalling k = 3 land at (n, k - n) = (3, 0)
        assert bij.s012_to_motzkin(Sum012("012")).endpoint == (3, 0)

    def test_roundtrip_and_peakless(self):
        for n in range(7):
            for k in range(2 * n + 1):
                for s in enum_012(n, k):
                    p = bij.s012_to_motzkin(s)
                    p.validate()
                    assert p.endpoint == (n, k - n)
                    assert bij.motzkin_to_s012(p) == s

    def test_composite_index_identity(self):
        # closed set -> 0-1-2 sum -> path lands at (n, k - n)
        zt = cnt.z_table(12)
        for fence in range(0, 13, 2):
            landed = Counter()
            for c in enum_closed_sets(fence):
                p = bij.s012_to_motzkin(bij.closed_set_to_012(c))
                landed[p.endpoint] += 1
            n = fence // 2
            for k in range(fence + 1):
                assert landed[(n, k - n)] == zt.value(fence, k) == cnt.s_count(n, k)


class TestMatchingToWeighted:
    def test_single_cross(self):
        m = Matching.decode("U1-L1")
        assert bij.matching_to_weighted_path(m).encode() == "C"

    def test_two_horizontals(self):
        m = Matching.decode("U1-U2,L1-L2")
        assert bij.matching_to_weighted_path(m).encode() == "L"

    def test_four_column_example(self):
        # every column kind once: the column table read the wrong way round
        # (a rise for a fall) would still round-trip, but not give this path
        m = Matching.decode("U1-U2,U3-L5,U4-L6,U5-U6,L1-L2,L3-L4")
        assert bij.matching_to_weighted_path(m).encode() == "LUCD"
        assert bij.weighted_path_to_matching(WeightedPath("LUCD")) == m

    def test_image_is_whole_family(self):
        for n in range(6):
            image = sorted(
                bij.matching_to_weighted_path(m).encode() for m in enum_matchings(n, n)
            )
            family = sorted(w.encode() for w in enum_weighted_paths(n))
            assert image == family

    def test_cost_equals_line_size(self):
        for n in range(6):
            for m in enum_matchings(n, n):
                assert bij.matching_to_weighted_path(m).cost == n

    def test_roundtrip(self):
        for n in range(6):
            for m in enum_matchings(n, n):
                w = bij.matching_to_weighted_path(m)
                assert bij.weighted_path_to_matching(w) == m

    def test_rejects_uneven_lines(self):
        m = Matching.decode("U1-U2")
        with pytest.raises(InvalidInput):
            bij.matching_to_weighted_path(m)


class TestMotzkinChords:
    def test_no_chords(self):
        cfg = bij.motzkin_to_chords(MotzkinPath("HHH"))
        assert cfg == ChordConfig(3, (), ())

    def test_ten_point_example(self):
        path = MotzkinPath("DHDUUHDDUU")
        cfg = bij.motzkin_to_chords(path)
        assert cfg == ChordConfig(10, ((4, 8), (5, 7)), ((1, 10), (3, 9)))
        assert bij.chords_to_motzkin(cfg) == path

    def test_cardinality(self):
        assert sum(1 for _ in enum_chords(4)) == cnt.a_long(4, 4) == 11

    def test_roundtrip_both_ways(self):
        for n in range(1, 9):
            for cfg in enum_chords(n):
                assert bij.motzkin_to_chords(bij.chords_to_motzkin(cfg)) == cfg
            for p in enum_peakless(n, 0):
                assert bij.chords_to_motzkin(bij.motzkin_to_chords(p)) == p

    def test_interleaved_fall_runs(self):
        # the ambiguous pattern: the open fall must reach past the inner arc
        cfg = bij.motzkin_to_chords(MotzkinPath("DUHDU"))
        assert cfg == ChordConfig(5, ((2, 4),), ((1, 5),))

    def test_rejects_unbalanced_path(self):
        with pytest.raises(InvalidInput):
            bij.motzkin_to_chords(MotzkinPath("UHH"))


class TestSplitHorizontals:
    def test_seven_by_nine_example(self):
        m = Matching.decode("U3-U4,U6-U7,L1-L2,L4-L5,L7-L8,U1-L3,U2-L6,U5-L9")
        assert (m.upper, m.lower) == ("ppsps", "spspsp")
        up, lo = bij.matching_split_horizontals(m)
        assert up == ((3, 4), (6, 7))
        assert lo == ((1, 2), (4, 5), (7, 8))
        assert bij.matching_from_horizontals(7, 9, up, lo) == m

    def test_all_cross(self):
        m = Matching("pp", "pp")
        assert bij.matching_split_horizontals(m) == ((), ())

    def test_roundtrip_exhaustive(self):
        for s in range(0, 13, 2):
            for k in range(s + 1):
                for m in enum_matchings(k, s - k):
                    up, lo = bij.matching_split_horizontals(m)
                    assert bij.matching_from_horizontals(m.k, m.n, up, lo) == m

    def test_rejects_uneven_leftovers(self):
        with pytest.raises(InvalidInput):
            bij.matching_from_horizontals(3, 0, ((1, 2),), ())


class TestCompositionMaps:
    def test_domino_anchor(self):
        c = Composition("1+2+2+1+2+1+2", ONE_TWO)
        assert bij.composition_s1_to_domino(c) == "VHHVHVH"

    def test_domino_trivial(self):
        assert bij.composition_s1_to_domino(Composition("1", ONE_TWO)) == "V"
        assert bij.composition_s1_to_domino(Composition("2+2", ONE_TWO)) == "HH"

    def test_domino_roundtrip(self):
        for n in range(11):
            for c in enum_compositions(ONE_TWO, n):
                assert bij.domino_to_composition_s1(bij.composition_s1_to_domino(c)) == c

    def test_odd_anchor(self):
        c = Composition("1+2+2+1+2+1+2", ONE_TWO)
        assert bij.composition_s1_to_s2(c).parts == (1, 5, 3, 3)

    def test_odd_smallest(self):
        assert bij.composition_s1_to_s2(Composition("1", ONE_TWO)).parts == (1, 1)

    def test_odd_counts(self):
        fours = list(enum_compositions(ONE_TWO, 4))
        fives = list(enum_compositions(ODD, 5))
        assert len(fours) == len(fives) == 5
        image = {bij.composition_s1_to_s2(c) for c in fours}
        assert image == set(fives)

    def test_odd_roundtrip_and_summand_count(self):
        for n in range(11):
            for c in enum_compositions(ONE_TWO, n):
                img = bij.composition_s1_to_s2(c)
                assert img.n == n + 1
                assert len(img.parts) == c.parts.count(1) + 1
                assert bij.composition_s2_to_s1(img) == c

    def test_rejects_foreign_parts(self):
        with pytest.raises(InvalidInput):
            bij.composition_s1_to_s2(Composition("3", ONE_TWO))


class TestStaircaseMaps:
    def test_eight_by_eight_example(self):
        st = Staircase(((2, 2), (2, 1), (1, 2), (1, 1), (2, 2)))
        h, v = bij.staircase_to_composition_pair(st)
        assert h.parts == (2, 2, 1, 1, 2) and h.n == 8
        assert v.parts == (2, 1, 2, 1, 2) and v.n == 8
        assert bij.composition_pair_to_staircase(h, v) == st

    def test_trivial(self):
        h, v = bij.staircase_to_composition_pair(Staircase(((1, 1),)))
        assert h.parts == (1,) and v.parts == (1,)

    def test_roundtrip_exhaustive(self):
        for s in range(17):
            for k in range(s + 1):
                for st in enum_staircases(k, s - k):
                    h, v = bij.staircase_to_composition_pair(st)
                    assert bij.composition_pair_to_staircase(h, v) == st

    def test_rejects_uneven_pair(self):
        with pytest.raises(InvalidInput):
            bij.composition_pair_to_staircase(
                Composition("1+1", ONE_TWO), Composition("2", ONE_TWO)
            )


# bijection domain form -> the first `enumerate` family that lists it: each
# object type of families.FAMILIES (read in reverse, so the first family of a
# type wins), and the one text form a domain takes
FORM_FAMILIES = {
    **{form: family for family, (_, form, *_) in reversed(families.FAMILIES.items())},
    "s1": "compositions",
}


@st.composite
def size_pairs(draw):
    """Two sizes up to 6, the second often equal to the first or 0: the shapes
    of square matchings and of paths that end on level."""
    first = draw(st.integers(0, 6))
    return first, draw(st.sampled_from([first, 0]) | st.integers(0, 6))


@pytest.mark.parametrize("pair", families.BIJECTIONS, ids=lambda pair: pair[0])
@given(sizes=size_pairs(), index=st.integers(0, 60))
@settings(max_examples=60)
def test_every_inverse_undoes_its_map(pair, sizes, index):
    """Object `index` (or the last) of the domain's `enumerate` family at small
    sizes comes back from the inverse of its image, which is valid and reads
    back from its own encoding.  Draws the map refuses (odd fences, non-square
    matchings, paths that end off level) are discarded."""
    _, _, domain, image, forward, inverse = pair
    obj = nth_object(FORM_FAMILIES[domain], sizes, index)
    assume(obj is not None)
    try:
        img = forward(bij, obj)
    except InvalidInput:
        assume(False)
    assert inverse(bij, img) == obj
    if hasattr(img, "validate"):
        img.validate()
    decode, encode = cli.CODECS[image]
    assert decode(encode(img)) == (img[2:] if image == "segments" else img)  # k, n are flags


# ---------------------------------------------------------------------------
# growth: every map runs in time about linear in its input
# ---------------------------------------------------------------------------

def _tokens(rng, choices, size):
    """Random tokens joined until the text holds at least `size` characters."""
    text = ""
    while len(text) < size:
        text += rng.choice(choices)
    return text


@functools.cache
def large_objects(size):
    """One object of each bijection domain form, about `size` steps, parts,
    runs or points long.  The peakless path returns to its level and mixes
    inner and cross arcs; the weighted path gives a square matching."""
    rng = random.Random(size)
    path = MotzkinPath(_tokens(rng, ("H", "UHD", "UUHDD", "DHUH"), size))
    s012 = bij.motzkin_to_s012(path)
    weighted = WeightedPath(_tokens(rng, ("C", "L", "UD", "DU"), size))
    matching = bij.weighted_path_to_matching(weighted)
    s1 = Composition("+".join(str(rng.choice((1, 2))) for _ in range(size)), ONE_TWO)
    staircase = Staircase(tuple((rng.choice((1, 2)), rng.choice((1, 2))) for _ in range(size)))
    return {
        "MotzkinPath": path,
        "Sum012": s012,
        "ClosedSet": bij.sum012_to_closed_set(s012),
        "ChordConfig": bij.motzkin_to_chords(path),
        "WeightedPath": weighted,
        "Matching": matching,
        "segments": (matching.k, matching.n, *bij.matching_split_horizontals(matching)),
        "s1": s1,
        "tiling": bij.composition_s1_to_domino(s1),
        "odd": bij.composition_s1_to_s2(s1),
        "Staircase": staircase,
        "s1-pair": bij.staircase_to_composition_pair(staircase),
    }


def map_seconds(name, domain, size):
    """One run of `map name` on the size-`size` object, as the CLI runs it:
    decode the object's text, map it, encode the image."""
    obj = large_objects(size)[domain]
    decode, fn, encode = cli.MAPS[name]
    text = cli.CODECS[domain][1](obj)
    start = time.perf_counter()
    parsed = (*obj[:2], *decode(text)) if domain == "segments" else decode(text)
    encode(fn(bij, parsed))
    return time.perf_counter() - start


@pytest.mark.parametrize("name, domain", [m[:2] for m in families.maps()], ids=[m[0] for m in families.maps()])
def test_every_map_grows_about_linearly(name, domain):
    """A 4 times larger input takes at most 8 times as long, where a quadratic
    map takes about 16 times.  The two sizes are timed in alternating rounds
    and their best times compared, so a busy spell on the host slows both
    sizes' runs alike instead of failing the large one alone."""
    small, large = 2000, 8000
    best = {small: math.inf, large: math.inf}
    for _ in range(3):
        for size in best:
            best[size] = min(best[size], map_seconds(name, domain, size))
    ratio = best[large] / best[small]
    assert ratio <= 8, f"{name}: {large} / {small} input took {ratio:.1f} times as long"
