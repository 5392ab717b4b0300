"""The verify suites, the lacing modes, the `enumerate` families and the
bijection pairs, each listed once.

`cli`, `verify` and `objects.lacing` read them from here.  The module imports
nothing, so loading it costs a process next to nothing: every call in a table
takes the module it reads as an argument.
"""

# suite -> default scale, in the order `verify --suite all` runs them; None
# marks a suite that takes no scale
SUITES = {
    "triangle": 16, "enumeration": 12, "bijections": 12, "fibonacci": 30, "diagonal": 200,
    "asymptotics": None, "bounds": 60, "lacing": None, "all": 12,
}

LACING_MODES = ("right", "non_self_crossing")


def pairs(max_sum: int):
    """(k, n) for k + n <= max_sum, by antidiagonals."""
    return ((k, s - k) for s in range(max_sum + 1) for k in range(s + 1))


def encode(obj) -> str:
    """An object's canonical text, which `enumerate` prints and `map` reads."""
    return obj.encode()


def _small(s: int) -> int:
    """The largest size the enumeration checks of the fastest-growing families reach."""
    return min(s // 2 + 2, 8)


def _compositions(o, a):
    from .partsets import PartSet  # loaded already: the compositions module imports it

    part_count = tuple(a.part_count) if a.part_count else None
    return o.enum_compositions(PartSet.parse(a.set or "s1"), a.n, part_count, a.summands)


# family -> (arguments `enumerate` requires, object type (its cli.CODECS form),
# enumerator call, encoder, `verify --suite enumeration` check or None), in the
# order `enumerate` offers them.  A call takes the twoline.objects package, whose
# attributes import only their family's module, and the parsed arguments.  A
# check is (id, the arguments a cell sets, detail at scale s, cells at scale s,
# counter): a cell holds those arguments' values, and the counter takes
# twoline.counting and a cell's values and gives the number of objects there.
FAMILIES = {
    "matchings": (("k", "n"), "Matching", lambda o, a: o.enum_matchings(a.k, a.n), encode, (
        "matchings", ("k", "n"),
        lambda s: f"matching enumeration sizes equal a(k,n) for k+n <= {s}",
        pairs, lambda c, k, n: c.a_long(k, n))),
    "motzkin": (("k", "n"), "MotzkinPath", lambda o, a: o.enum_peakless(a.k, a.n), encode, (
        "peakless-paths", ("k", "n"),
        lambda s: f"path enumeration sizes equal m(k,n) for k <= {min(s, 10)}",
        lambda s: ((k, n) for k in range(min(s, 10) + 1) for n in range(-k, k + 1)),
        lambda c, k, n: c.m_count(k, n))),
    "dominoes": (("k", "n"), "DominoPair", lambda o, a: o.enum_domino_pairs(a.k, a.n), encode, (
        "domino-pairs", ("k", "n"), lambda s: "tiling-pair enumeration sizes equal d(k,n)",
        lambda s: ((k, n) for k in range(_small(s) + 1) for n in range(_small(s) + 1)),
        lambda c, k, n: c.d_count(k, n))),
    "closedsets": (("m",), "ClosedSet", lambda o, a: o.enum_closed_sets(a.m, a.size), encode, (
        "closed-sets", ("m", "size"),
        lambda s: f"closed-set enumeration sizes equal z(m,k) for m <= {s}",
        lambda s: ((m, k) for m in range(s + 1) for k in range(m + 1)),
        lambda c, m, size: c.z_value(m, size))),
    "s012": (("n", "k"), "Sum012", lambda o, a: o.enum_012(a.n, a.k), encode, (
        "sums-012", ("n", "k"), lambda s: "0-1-2 sum enumeration sizes equal s(n,k)",
        lambda s: ((n, k) for n in range(_small(s) + 1) for k in range(2 * n + 1)),
        lambda c, n, k: c.s_count(n, k))),
    "compositions": (("n",), "Composition", _compositions, encode, None),
    "weighted": (("cost",), "WeightedPath", lambda o, a: o.enum_weighted_paths(a.cost), encode, (
        "weighted-paths", ("cost",), lambda s: "priced-path enumeration sizes equal r(cost)",
        lambda s: ((cost,) for cost in range(_small(s) + 1)), lambda c, cost: c.r_diag(cost))),
    "chords": (("n",), "ChordConfig", lambda o, a: o.enum_chords(a.n), encode, (
        "chords", ("n",), lambda s: "symmetric chord enumeration sizes equal a(n,n)",
        lambda s: ((n,) for n in range(1, _small(s) + 1)), lambda c, n: c.r_diag(n))),
    "lacings": (("k", "n"), "Lacing", lambda o, a: o.enum_lacings(a.k, a.n, a.mode), encode, (
        "lacings", ("k", "n", "mode"),
        lambda s: f"non-crossing lacing counts equal b(k,n) for k+n <= {min(s, 8)}",
        lambda s: ((k, t - k, "non_self_crossing")
                   for t in range(2, min(s, 8) + 1) for k in range(1, t)),
        lambda c, k, n, mode: c.b_value(k, n))),
    "staircases": (("k", "n"), "Staircase", lambda o, a: o.enum_staircases(a.k, a.n), encode, (
        "staircases", ("k", "n"),
        lambda s: f"staircase enumeration sizes equal b(k,n) for k+n <= {s}",
        pairs, lambda c, k, n: c.b_value(k, n))),
    # the staircases in their step encoding
    "steppaths": (("k", "n"), "Staircase", lambda o, a: o.enum_staircases(a.k, a.n),
                  lambda s: s.encode_steps(), (
        "step-paths", ("k", "n"),
        lambda s: f"step-path enumeration sizes equal b(k,n) for k+n <= {s}",
        pairs, lambda c, k, n: c.b_value(k, n))),
}

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
