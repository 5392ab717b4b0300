"""The verify suites, the lacing modes and the bijection pairs, each listed once.

`cli`, `verify` and `objects.lacing` read them from here.  The module imports
nothing, so loading it costs a process next to nothing.
"""

# suite -> default scale, in the order `verify --suite all` runs them; None
# marks a suite that takes no scale
SUITES = {
    "triangle": 16, "enumeration": 12, "bijections": 12, "fibonacci": 30, "diagonal": 200,
    "asymptotics": None, "bounds": 60, "lacing": None, "all": 12,
}

LACING_MODES = ("right", "non_self_crossing")

# (forward name, inverse name, domain form, image form, forward, inverse).  A
# form names an object type in twoline.objects or a text shape the CLI reads.
# Each map takes the twoline.bijections module and looks its function up when
# it runs, so nothing is imported here and a substituted function is honoured.
# A segment layout carries the line sizes: (k, n, upper, lower).
BIJECTIONS = (
    ("closed-to-matching", "matching-to-closed", "ClosedSet", "Matching",
     lambda b, c: b.closed_set_to_matching(c), lambda b, m: b.matching_to_closed_set(m)),
    ("closed-to-012", "012-to-closed", "ClosedSet", "Sum012",
     lambda b, c: b.closed_set_to_012(c), lambda b, s: b.sum012_to_closed_set(s)),
    ("012-to-motzkin", "motzkin-to-012", "Sum012", "MotzkinPath",
     lambda b, s: b.s012_to_motzkin(s), lambda b, p: b.motzkin_to_s012(p)),
    ("matching-to-weighted", "weighted-to-matching", "Matching", "WeightedPath",
     lambda b, m: b.matching_to_weighted_path(m), lambda b, w: b.weighted_path_to_matching(w)),
    ("motzkin-to-chords", "chords-to-motzkin", "MotzkinPath", "ChordConfig",
     lambda b, p: b.motzkin_to_chords(p), lambda b, c: b.chords_to_motzkin(c)),
    ("split-horizontals", "join-horizontals", "Matching", "segments",
     lambda b, m: (m.k, m.n, *b.matching_split_horizontals(m)),
     lambda b, layout: b.matching_from_horizontals(*layout)),
    ("s1-to-domino", "domino-to-s1", "s1", "tiling",
     lambda b, c: b.composition_s1_to_domino(c), lambda b, t: b.domino_to_composition_s1(t)),
    ("s1-to-s2", "s2-to-s1", "s1", "odd",
     lambda b, c: b.composition_s1_to_s2(c), lambda b, c: b.composition_s2_to_s1(c)),
    ("staircase-to-compositions", "compositions-to-staircase", "Staircase", "s1-pair",
     lambda b, s: b.staircase_to_composition_pair(s),
     lambda b, pair: b.composition_pair_to_staircase(*pair)),
)


def maps():
    """Every map in both directions: (name, domain form, image form, map, inverse)."""
    for forward_name, inverse_name, domain, image, forward, inverse in BIJECTIONS:
        yield forward_name, domain, image, forward, inverse
        yield inverse_name, image, domain, inverse, forward
