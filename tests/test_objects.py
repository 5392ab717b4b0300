import inspect
import pickle
import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twoline import families
from twoline import counting as cnt
from twoline.errors import InstanceTooLarge, InvalidInput
from twoline.objects import (
    ChordConfig,
    ClosedSet,
    Composition,
    DominoPair,
    Lacing,
    Matching,
    MotzkinPath,
    Staircase,
    Sum012,
    WeightedPath,
    enum_012,
    enum_b_step_paths,
    enum_chords,
    enum_closed_sets,
    enum_compositions,
    enum_domino_pairs,
    enum_lacings,
    enum_matchings,
    enum_peakless,
    enum_staircases,
    enum_weighted_paths,
)
from twoline.objects.chords import _conflict, _crossing
from twoline.partsets import AT_LEAST_TWO, ODD, ONE_TWO, PartSet

from enumerated import nth_object


def assert_sorted_unique(objs):
    keys = [o.sort_key() for o in objs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


class TestMatchings:
    def test_two_four_count(self):
        ms = list(enum_matchings(2, 4))
        assert len(ms) == 4
        for m in ms:
            m.validate()
        assert_sorted_unique(ms)

    def test_single_pair(self):
        ms = list(enum_matchings(1, 1))
        assert [m.encode() for m in ms] == ["U1-L1"]

    def test_three_three(self):
        assert sum(1 for _ in enum_matchings(3, 3)) == cnt.a_long(3, 3) == 5

    def test_count_agreement(self):
        for s in range(11):
            for k in range(s + 1):
                assert sum(1 for _ in enum_matchings(k, s - k)) == cnt.a_long(k, s - k)

    def test_odd_total_is_empty(self):
        assert list(enum_matchings(2, 1)) == []

    def test_cutoff(self):
        with pytest.raises(InstanceTooLarge):
            next(enum_matchings(13, 13))

    def test_encode_decode(self):
        for m in enum_matchings(3, 5):
            assert Matching.decode(m.encode()) == m

    def test_rejects_wide_same_line_pair(self):
        with pytest.raises(InvalidInput, match="same-line pair U1-U3 not adjacent"):
            Matching.decode("U1-U3,U2-U4")

    def test_rejects_crossing_segments(self):
        with pytest.raises(InvalidInput, match="crossing segments"):
            Matching.decode("U1-L2,U2-L1")

    def test_rejects_reused_point(self):
        with pytest.raises(InvalidInput, match="point U1 used twice"):
            Matching.decode("U1-L1,U1-L2")

    def test_rejects_incomplete(self):
        with pytest.raises(InvalidInput, match="leftover points"):
            Matching("pp", "p").validate()

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInput, match="point L2 out of range"):
            Matching.decode("U1-L2")

    def test_rejects_a_letter_outside_the_layout(self):
        with pytest.raises(InvalidInput, match="bad layout object 'x'"):
            Matching("px", "p").validate()

    def test_stores_its_layout(self):
        m = Matching.decode("L4-L3,U3-L5,U2-U1,L1-L2")
        assert (m.upper, m.lower, m.k, m.n) == ("sp", "ssp", 3, 5)
        assert m.encode() == "U1-U2,U3-L5,L1-L2,L3-L4"

    @pytest.mark.parametrize("text", ["U\u0661-L1", "U\u00b2-L1", "U1-L\uff11"])
    def test_indices_are_ascii_digits(self, text):
        with pytest.raises(InvalidInput, match="bad point"):
            Matching.decode(text)


class TestPeakless:
    def test_three_one_paths(self):
        ps = list(enum_peakless(3, 1))
        assert [p.encode() for p in ps] == ["DUU", "HHU", "HUH", "UHH"]

    def test_trivial(self):
        assert [p.encode() for p in enum_peakless(1, 1)] == ["U"]

    def test_no_peak_at_two(self):
        assert [p.encode() for p in enum_peakless(2, 0)] == ["DU", "HH"]

    def test_count_agreement(self):
        for k in range(9):
            for n in range(-k, k + 1):
                got = list(enum_peakless(k, n))
                assert len(got) == cnt.m_count(k, n)
                assert_sorted_unique(got)
                for p in got:
                    p.validate()

    def test_endpoint(self):
        assert MotzkinPath("DHU").endpoint == (3, 0)

    def test_cutoff(self):
        with pytest.raises(InstanceTooLarge):
            next(enum_peakless(23, 1))

    def test_rejects_peak(self):
        with pytest.raises(InvalidInput):
            MotzkinPath("UDH").validate()

    def test_rejects_bad_step(self):
        with pytest.raises(InvalidInput):
            MotzkinPath("UXH").validate()


class TestDominoes:
    def test_three_five_count(self):
        assert sum(1 for _ in enum_domino_pairs(3, 5)) == 10

    def test_trivial(self):
        assert [d.encode() for d in enum_domino_pairs(1, 1)] == ["V|V"]

    def test_two_two(self):
        ds = list(enum_domino_pairs(2, 2))
        assert len(ds) == cnt.a_long(2, 2) == 2
        assert_sorted_unique(ds)

    def test_count_agreement(self):
        for k in range(7):
            for n in range(7):
                got = list(enum_domino_pairs(k, n))
                assert len(got) == cnt.d_count(k, n)
                for d in got:
                    d.validate()

    def test_cutoff(self):
        with pytest.raises(InstanceTooLarge):
            next(enum_domino_pairs(21, 1))

    def test_encode_decode(self):
        for d in enum_domino_pairs(3, 5):
            assert DominoPair.decode(d.encode()) == d

    def test_rejects_unequal_verticals(self):
        with pytest.raises(InvalidInput):
            DominoPair(3, 3, "VVV", "VH").validate()  # widths match, counts 3 vs 1

    def test_rejects_wrong_width(self):
        with pytest.raises(InvalidInput):
            DominoPair(3, 3, "VV", "VVV").validate()


class TestClosedSets:
    def test_fence_four(self):
        sizes = sorted(c.size for c in enum_closed_sets(4))
        assert sizes == [0, 1, 1, 2, 2, 3, 3, 4]

    def test_fence_three(self):
        zt = cnt.z_table(3)
        for k in range(4):
            assert sum(1 for _ in enum_closed_sets(3, size_filter=k)) == zt.value(3, k)

    def test_empty_fence(self):
        cs = list(enum_closed_sets(0))
        assert len(cs) == 1 and cs[0].size == 0

    def test_count_agreement(self):
        zt = cnt.z_table(12)
        for m in range(13):
            got = list(enum_closed_sets(m))
            assert len(got) == sum(zt.rows[m])
            assert_sorted_unique(got)
            for c in got:
                c.validate()

    def test_cutoff(self):
        with pytest.raises(InstanceTooLarge):
            next(enum_closed_sets(27))

    def test_encode_decode(self):
        for c in enum_closed_sets(7):
            assert ClosedSet.decode(c.encode()) == c

    def test_rejects_open_set(self):
        # upper vertex 1 in the set, its lower neighbour 2 missing
        with pytest.raises(InvalidInput):
            ClosedSet("1100").validate()
        with pytest.raises(InvalidInput):
            ClosedSet("0110").validate()

    def test_rejects_out_of_range(self):
        # a position that holds neither bit
        for bits in ("0120", "1 11", "11-1"):
            with pytest.raises(InvalidInput, match="bad bit string"):
                ClosedSet(bits).validate()


class TestSums012:
    def test_three_three_listing(self):
        got = [s.encode() for s in enum_012(3, 3)]
        assert got == ["0+1+2", "0+2+1", "1+0+2", "1+1+1", "2+1+0"]

    def test_trivial(self):
        assert [s.encode() for s in enum_012(2, 0)] == ["0+0"]
        assert [s.encode() for s in enum_012(1, 2)] == ["2"]

    def test_count_agreement(self):
        for n in range(9):
            for k in range(2 * n + 1):
                got = list(enum_012(n, k))
                assert len(got) == cnt.s_count(n, k)
                assert_sorted_unique(got)
                for s in got:
                    s.validate()

    def test_cutoff(self):
        with pytest.raises(InstanceTooLarge):
            next(enum_012(21, 3))

    def test_rejects_two_then_zero(self):
        with pytest.raises(InvalidInput):
            Sum012("120").validate()

    def test_rejects_bad_digit(self):
        with pytest.raises(InvalidInput):
            Sum012("13").validate()


class TestCompositions:
    def test_filter_by_twos(self):
        got = [c.encode() for c in enum_compositions(ONE_TWO, 5, part_count=(2, 1))]
        assert got == ["1+1+1+2", "1+1+2+1", "1+2+1+1", "2+1+1+1"]

    def test_two_summands(self):
        got = [c.encode() for c in enum_compositions(AT_LEAST_TWO, 7, num_parts=2)]
        assert got == ["2+5", "3+4", "4+3", "5+2"]

    def test_odd_trivial(self):
        assert [c.encode() for c in enum_compositions(ODD, 1)] == ["1"]

    def test_counts_match_series(self):
        from twoline.series import composition_gf_coeffs

        for parts in (ONE_TWO, ODD, AT_LEAST_TWO):
            gf = composition_gf_coeffs(parts, 10)
            for n in range(11):
                assert sum(1 for _ in enum_compositions(parts, n)) == gf.coeff(n)

    def test_sorted(self):
        assert_sorted_unique(list(enum_compositions(ONE_TWO, 9)))

    def test_cutoff(self):
        with pytest.raises(InstanceTooLarge):
            next(enum_compositions(ONE_TWO, 25))

    def test_rejects_part_outside_set(self):
        with pytest.raises(InvalidInput):
            Composition((1, 4), ONE_TWO).validate()

    @pytest.mark.parametrize("parts", [ONE_TWO, ODD, AT_LEAST_TWO], ids=["s1", "s2", "s3"])
    def test_filters_equal_filtering_every_composition(self, parts):
        """Each cut walk lists what the unfiltered walk lists and the filter keeps."""
        for n in range(13):
            every = [c.parts for c in enum_compositions(parts, n)]

            def check(part_count=None, num_parts=None):
                got = [c.parts for c in enum_compositions(parts, n, part_count, num_parts)]
                assert got == [
                    c for c in every
                    if (part_count is None or c.count(part_count[0]) == part_count[1])
                    and (num_parts is None or len(c) == num_parts)
                ], (n, part_count, num_parts)

            for size in range(-1, n + 2):
                check(num_parts=size)
            for p in range(n + 2):
                for copies in range(-1, n + 2):
                    check(part_count=(p, copies))
            for p in (1, 2, 3):
                for copies in range(n + 1):
                    for size in range(copies, n + 1):
                        check((p, copies), size)

    def test_a_filtered_walk_visits_only_what_it_can_complete(self):
        start = time.perf_counter()
        assert [c.parts for c in enum_compositions(ONE_TWO, 24, num_parts=12)] == [(2,) * 12]
        assert time.perf_counter() - start < 0.02  # the walk of all 75 025 takes about 0.2 s


class TestWeightedPaths:
    def test_cost_three_listing(self):
        got = [w.encode() for w in enum_weighted_paths(3)]
        assert got == ["CCC", "CL", "DU", "LC", "UD"]

    def test_zero_cost(self):
        assert [w.encode() for w in enum_weighted_paths(0)] == [""]

    def test_unit_cost(self):
        assert [w.encode() for w in enum_weighted_paths(1)] == ["C"]

    def test_count_agreement(self):
        for c in range(9):
            got = list(enum_weighted_paths(c))
            assert len(got) == cnt.r_diag(c)
            assert_sorted_unique(got)
            for w in got:
                w.validate()
                assert w.cost == c

    def test_cutoff(self):
        with pytest.raises(InstanceTooLarge):
            next(enum_weighted_paths(19))

    def test_rejects_unbalanced(self):
        with pytest.raises(InvalidInput):
            WeightedPath("UC").validate()


class TestChords:
    def test_single_point(self):
        cs = list(enum_chords(1))
        assert len(cs) == 1 and cs[0].inner == () and cs[0].cross == ()

    def test_three_points(self):
        assert sum(1 for _ in enum_chords(3)) == cnt.a_long(3, 3) == 5

    def test_count_agreement(self):
        for n in range(1, 8):
            got = list(enum_chords(n))
            assert len(got) == cnt.r_diag(n)
            assert_sorted_unique(got)
            for c in got:
                c.validate()

    def test_ten_point_example_present(self):
        target = ChordConfig(10, ((4, 8), (5, 7)), ((1, 10), (3, 9)))
        target.validate()
        assert any(c == target for c in enum_chords(10))

    def test_cutoff(self):
        with pytest.raises(InstanceTooLarge):
            next(enum_chords(13))

    def test_encode_decode(self):
        for c in enum_chords(5):
            assert ChordConfig.decode(c.encode()) == c

    def test_rejects_neighbouring_inner_arc(self):
        with pytest.raises(InvalidInput):
            ChordConfig(5, ((2, 3),), ()).validate()

    def test_rejects_reversed_cross_arc(self):
        with pytest.raises(InvalidInput):
            ChordConfig(5, (), ((3, 2),)).validate()
        with pytest.raises(InvalidInput):
            ChordConfig(5, (), ((3, 3),)).validate()

    def test_rejects_crossing_cross_arcs(self):
        with pytest.raises(InvalidInput):
            ChordConfig(4, (), ((1, 3), (2, 4))).validate()

    def test_rejects_shared_endpoint(self):
        with pytest.raises(InvalidInput):
            ChordConfig(5, ((1, 3),), ((3, 5),)).validate()

    def test_rejects_inner_cross_clash_on_cover(self):
        # valid per-period endpoints, but the rotated copies interleave
        with pytest.raises(InvalidInput):
            ChordConfig(10, ((2, 9),), ((3, 8),)).validate()

    def test_nested_cross_arcs_valid(self):
        ChordConfig(4, (), ((1, 4), (2, 3))).validate()

    @given(st.lists(st.tuples(st.integers(0, 16), st.integers(1, 8)).map(lambda t: (t[0], t[0] + t[1])), max_size=9))
    def test_the_sweep_finds_a_conflict_iff_a_pair_has_one(self, spans):
        pair = _crossing(spans)
        pairwise = [(a, b) for i, a in enumerate(spans) for b in spans[i + 1:] if _conflict(a, b)]
        if pair is None:
            assert pairwise == []
        else:
            assert set(pair) <= set(spans) and _conflict(*pair)

    def test_refusal_names_two_conflicting_intervals(self):
        with pytest.raises(InvalidInput) as info:
            ChordConfig(10, ((2, 9), (4, 6)), ((3, 8),)).validate()
        a, b = [tuple(map(int, iv.split(", "))) for iv in re.findall(r"\((\d+, \d+)\)", str(info.value))]
        assert _conflict(a, b)

    def test_rejects_negative_point_count(self):
        with pytest.raises(InvalidInput, match="negative point count"):
            ChordConfig(-3, (), ()).validate()
        ChordConfig(0, (), ()).validate()  # the empty configuration, image of the empty path


class TestLacings:
    def test_noncrossing_three(self):
        ls = list(enum_lacings(3, 3, "non_self_crossing"))
        assert len(ls) == cnt.a_long(3, 3) == 5
        for l in ls:
            l.validate("non_self_crossing")
        assert_sorted_unique(ls)

    def test_right_three(self):
        ls = list(enum_lacings(3, 3, "right"))
        assert len(ls) == 20
        for l in ls:
            l.validate("right")

    def test_right_two(self):
        got = [l.encode() for l in enum_lacings(2, 2, "right")]
        assert got == ["L1-L2-R2-R1", "L1-R2-L2-R1"]

    def test_defective_counts(self):
        bt = cnt.b_table(8)
        for k, n in ((2, 1), (2, 3), (3, 4), (2, 4), (3, 5)):
            got = sum(1 for _ in enum_lacings(k, n, "non_self_crossing"))
            assert got == bt.value(k, n)

    def test_cutoff(self):
        with pytest.raises(InstanceTooLarge):
            next(enum_lacings(7, 6, "right"))

    def test_encode_decode(self):
        for l in enum_lacings(2, 3, "right"):
            assert Lacing.decode(l.encode()) == l

    @pytest.mark.parametrize("text", ["L1-R\u0661", "L1-R\u00b2", "L\uff11-R1"])
    def test_indices_are_ascii_digits(self, text):
        with pytest.raises(InvalidInput, match="bad hole token"):
            Lacing.decode(text)

    def test_rejects_same_side_run(self):
        bad = Lacing(2, 2, (("L", 1), ("L", 2), ("R", 1), ("R", 2)))
        # L2's neighbours are L1 and R1 -- fine; R1 has L2 -- fine; but ends at R2
        bad.validate("non_self_crossing")  # this one is actually legal
        worse = Lacing(3, 1, (("L", 1), ("L", 2), ("L", 3), ("R", 1)))
        with pytest.raises(InvalidInput):
            worse.validate("non_self_crossing")

    def test_rejects_wrong_endpoints(self):
        bad = Lacing(2, 2, (("L", 2), ("L", 1), ("R", 2), ("R", 1)))
        with pytest.raises(InvalidInput):
            bad.validate("right")
        bad2 = Lacing(2, 2, (("L", 1), ("R", 1), ("L", 2), ("R", 2)))
        with pytest.raises(InvalidInput):
            bad2.validate("right")

    def test_rejects_crossing_in_noncrossing_mode(self):
        # L1->R1 then R1->L2 then L2->R2: fine; force a crossing instead
        crossing = Lacing(3, 3, (("L", 1), ("R", 2), ("L", 2), ("R", 1), ("L", 3), ("R", 3)))
        with pytest.raises(InvalidInput):
            crossing.validate("non_self_crossing")

    def test_rejects_missing_hole(self):
        with pytest.raises(InvalidInput):
            Lacing(2, 2, (("L", 1), ("R", 1), ("R", 2))).validate("right")

    @pytest.mark.parametrize("mode", ["right", "non_self_crossing"])
    def test_rejects_an_empty_order(self, mode):
        with pytest.raises(InvalidInput):
            Lacing(0, 0, ()).validate(mode)

    def test_unlaced_hole(self):
        # L1 has an opposite-side neighbour only through the knot to R2
        assert Lacing(2, 2, (("L", 1), ("L", 2), ("R", 1), ("R", 2))).unlaced_hole() is None
        worse = Lacing(3, 1, (("L", 1), ("L", 2), ("L", 3), ("R", 1)))
        assert worse.unlaced_hole() == ("L", 2)


class TestStaircases:
    def test_eight_by_eight_example_present(self):
        target = Staircase(((2, 2), (2, 1), (1, 2), (1, 1), (2, 2)))
        assert any(s == target for s in enum_staircases(8, 8))

    def test_trivial(self):
        assert [s.encode() for s in enum_staircases(1, 1)] == ["H1,V1"]

    def test_two_one(self):
        got = list(enum_staircases(2, 1))
        assert [s.encode() for s in got] == ["H2,V1"]
        assert cnt.b_value(2, 1) == 1

    def test_count_agreement(self):
        bt = cnt.b_table(10)
        for s in range(11):
            for k in range(s + 1):
                got = list(enum_staircases(k, s - k))
                assert len(got) == bt.value(k, s - k)
                assert_sorted_unique(got)
                for st in got:
                    st.validate()

    def test_cutoff(self):
        with pytest.raises(InstanceTooLarge):
            next(enum_staircases(15, 14))

    def test_encode_decode(self):
        for s in enum_staircases(4, 5):
            assert Staircase.decode(s.encode()) == s

    def test_rejects_long_run(self):
        with pytest.raises(InvalidInput):
            Staircase(((3, 1),)).validate()

    def test_a_long_run_is_written_out(self):
        assert Staircase(((3, 1),)).encode() == "H3,V1"
        assert Staircase(((1, 1), (3, 1))).encode_steps() == "11-31"


def decode_steps(text):
    """The staircase a step path such as `11-22-21` encodes (`encode_steps`
    inverted); nothing in the package reads step paths back."""
    text = text.strip()
    if not text:
        return Staircase(())
    runs = []
    for tok in text.split("-"):
        if len(tok) != 2 or not tok.isdigit():
            raise InvalidInput(f"bad step token {tok!r}")
        runs.append((int(tok[0]), int(tok[1])))
    return Staircase(tuple(runs))


class TestStepPaths:
    """Step paths are staircases in the step encoding `11-22-21`."""

    def test_trivial(self):
        assert [p.encode_steps() for p in enum_staircases(1, 1)] == ["11"]

    def test_known_counts(self):
        assert sum(1 for _ in enum_staircases(4, 4)) == 11
        assert sum(1 for _ in enum_staircases(3, 4)) == 5

    def test_count_agreement(self):
        bt = cnt.b_table(10)
        for s in range(11):
            for k in range(s + 1):
                got = [p.encode_steps() for p in enum_staircases(k, s - k)]
                assert len(got) == bt.value(k, s - k)
                assert got == sorted(set(got))

    def test_cutoff(self):
        with pytest.raises(InstanceTooLarge):
            next(enum_b_step_paths(15, 14))

    def test_encode_decode(self):
        for p in enum_staircases(3, 4):
            assert decode_steps(p.encode_steps()) == p
        assert decode_steps("") == Staircase(())

    def test_rejects_bad_step(self):
        with pytest.raises(InvalidInput):
            decode_steps("11-31").validate()
        with pytest.raises(InvalidInput):
            decode_steps("11-2")


class TestMutatedCorpus:
    """Single-field perturbations of valid objects must all be rejected."""

    def test_matching_cross_swap(self):
        count = 0
        for m in enum_matchings(3, 3):
            crosses = m.cross_pairs()
            if len(crosses) < 2:
                continue
            (u1, l1), (u2, l2) = crosses[0], crosses[1]
            swap = {f"U{u1}-L{l1}": f"U{u1}-L{l2}", f"U{u2}-L{l2}": f"U{u2}-L{l1}"}
            mutated = ",".join(swap.get(pair, pair) for pair in m.encode().split(","))
            with pytest.raises(InvalidInput):
                Matching.decode(mutated)
            count += 1
        assert count > 0

    def test_matching_widened_segment(self):
        count = 0
        for m in enum_matchings(4, 2):
            pairs = m.encode().split(",")
            for a, b in m.line_pairs("U"):
                if b + 1 <= 4 and (b + 1, b + 2) not in m.line_pairs("U"):
                    widened = [f"U{a}-U{b + 2}" if p == f"U{a}-U{b}" else p for p in pairs]
                    with pytest.raises(InvalidInput):
                        Matching.decode(",".join(widened))
                    count += 1
        assert count > 0

    def test_closed_set_member_dropped(self):
        count = 0
        for c in enum_closed_sets(8):
            for upper in (v for v in c.members if v % 2 == 1):
                mutated = ClosedSet(c.bits[:upper - 1] + "0" + c.bits[upper:])
                with pytest.raises(InvalidInput):
                    mutated.validate()
                count += 1
        assert count > 0

    def test_sum012_digit_flip(self):
        count = 0
        for s in enum_012(4, 4):
            for i in range(len(s.digits) - 1):
                if s.digits[i] == "2" and s.digits[i + 1] != "0":
                    with pytest.raises(InvalidInput):
                        Sum012(s.digits[:i + 1] + "0" + s.digits[i + 2:]).validate()
                    count += 1
        assert count > 0

    def test_weighted_step_flip(self):
        count = 0
        for w in enum_weighted_paths(4):
            if "U" in w.steps:
                with pytest.raises(InvalidInput):
                    WeightedPath(w.steps.replace("U", "C", 1)).validate()
                count += 1
        assert count > 0

    def test_chord_arc_shift(self):
        count = 0
        for c in enum_chords(5):
            for i, j in c.inner:
                mutated = ChordConfig(5, tuple(a for a in c.inner if a != (i, j)) + ((i, i + 1),), c.cross)
                with pytest.raises(InvalidInput):
                    mutated.validate()
                count += 1
        assert count > 0

    def test_domino_tile_flip(self):
        count = 0
        for d in enum_domino_pairs(3, 3):
            if "V" in d.left and "H" in d.left:
                mutated = DominoPair(3, 3, d.left.replace("V", "H", 1), d.right)
                with pytest.raises(InvalidInput):
                    mutated.validate()
                count += 1
        assert count > 0

    def test_staircase_run_stretch(self):
        for st in enum_staircases(3, 3):
            h, v = st.runs[0]
            mutated = Staircase(((h + 2, v),) + st.runs[1:])
            with pytest.raises(InvalidInput):
                mutated.validate()


# family -> how its encoding is read back, where that is not type(obj).decode(text)
DECODERS = {
    "compositions": lambda text, part_set: Composition.decode(text, PartSet.parse(part_set)),
    "steppaths": lambda text, part_set: decode_steps(text),
}


@pytest.mark.parametrize("family", families.FAMILIES)
@given(
    sizes=st.lists(st.integers(0, 5), min_size=3, max_size=3),
    index=st.integers(0, 40),
    part_set=st.sampled_from(["s1", "s2", "s3"]),
    mode=st.sampled_from(families.LACING_MODES),
)
def test_every_enumerated_object_decodes_from_its_encoding(family, sizes, index, part_set, mode):
    """Object `index` (or the last, if there are fewer) of each `enumerate`
    family at small sizes is valid and is what its encoding decodes to."""
    obj = nth_object(family, sizes, index, part_set, mode)
    if obj is None:
        return
    obj.validate(*([mode] if isinstance(obj, Lacing) else []))
    text = families.FAMILIES[family][3](obj)
    decode = DECODERS.get(family, lambda text, part_set: type(obj).decode(text))
    assert decode(text, part_set) == obj



# one object of each object type and of PartSet, and its repr.  ChordConfig
# is built from arguments it normalizes (unsorted arcs); MotzkinPath and
# WeightedPath have equal fields.
VALUES = [
    (Matching("sp", "ps"), "Matching(upper='sp', lower='ps')"),
    (MotzkinPath("UHD"), "MotzkinPath(steps='UHD')"),
    (DominoPair(3, 2, "VH", "VV"), "DominoPair(k=3, n=2, left='VH', right='VV')"),
    (ClosedSet("011001"), "ClosedSet(bits='011001')"),
    (Sum012("102"), "Sum012(digits='102')"),
    (Composition((1, 3, 3), ODD), "Composition(parts=(1, 3, 3), part_set=PartSet(kind='odd', parts=()))"),
    (WeightedPath("UHD"), "WeightedPath(steps='UHD')"),
    (ChordConfig(10, [(5, 7), (4, 8)], [(3, 9), (1, 10)]),
     "ChordConfig(n=10, inner=((4, 8), (5, 7)), cross=((1, 10), (3, 9)))"),
    (Lacing(2, 2, (("L", 1), ("R", 2), ("L", 2), ("R", 1))),
     "Lacing(k=2, n=2, order=(('L', 1), ('R', 2), ('L', 2), ('R', 1)))"),
    (Staircase(((2, 2), (2, 1))), "Staircase(runs=((2, 2), (2, 1)))"),
    (PartSet("explicit", (1, 2)), "PartSet(kind='explicit', parts=(1, 2))"),
]
VALUE_IDS = [type(obj).__name__ for obj, _ in VALUES]
# every type above by name, the only names their reprs use
NAMESPACE = {type(obj).__name__: type(obj) for obj, _ in VALUES}


def test_every_object_type_has_a_value():
    forms = {form for _, form, *_ in families.FAMILIES.values()}
    assert forms | {"PartSet"} == set(VALUE_IDS)


def fields_of(obj) -> dict:
    """The object's fields by name, in constructor order."""
    return {name: getattr(obj, name) for name in inspect.signature(type(obj)).parameters}


@pytest.mark.parametrize("obj, text", VALUES, ids=VALUE_IDS)
class TestValueSemantics:
    """Each type stores its fields, normalized, and is a value: its repr is
    `Type(field=value, ...)` and builds an equal object by keyword, equal
    objects hash equal, no field can be assigned or deleted, and pickling
    gives the object back."""

    def test_repr(self, obj, text):
        assert repr(obj) == text

    def test_the_repr_builds_an_equal_object(self, obj, text):
        again = eval(text, NAMESPACE)
        assert again is not obj and again == obj and hash(again) == hash(obj)

    def test_objects_of_two_types_are_unequal(self, obj, text):
        assert [other for other, _ in VALUES if other == obj] == [obj]
        assert obj != text and obj != tuple(fields_of(obj).values())

    def test_fields_cannot_be_assigned_or_deleted(self, obj, text):
        for name in [*fields_of(obj), "other"]:
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert repr(obj) == text

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, obj, text, protocol):
        again = pickle.loads(pickle.dumps(obj, protocol))
        assert type(again) is type(obj) and again == obj and repr(again) == text


def test_part_set_parts_default_to_none():
    assert PartSet("odd") == PartSet("odd", ()) == ODD


@pytest.mark.parametrize("family", families.FAMILIES)
def test_objects_that_differ_in_a_field_are_unequal(family):
    """Three objects of one family are unequal to each other, and each is
    equal to its own copy, with an equal hash."""
    objs = [nth_object(family, (5, 3, 5), i) for i in range(3)]
    copies = [pickle.loads(pickle.dumps(obj)) for obj in objs]
    assert [[a == b for b in copies] for a in objs] == [[i == j for j in range(3)] for i in range(3)]
    assert len({*objs, *copies}) == 3
