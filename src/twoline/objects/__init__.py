"""Explicit combinatorial objects and their exhaustive enumerators.

Every family provides an immutable object type, a `twoline.frozen.Frozen`
subclass, with validate()/encode()/decode(), and an enum_* generator that
yields valid objects in the order of the type's sort_key, raising
InstanceTooLarge beyond the documented feasibility cutoffs.  For matchings
and chord configurations that is not the string order of the encodings.

Enumerators search depth first and carry the word built so far as the value
its object stores, so no branch undoes what it did.  0-1-2 sums, peakless
paths and closed sets share `sums012.digit_words`, which keeps its own stack,
as `enum_matchings` does; the others recurse.  The lacing search alone keeps
a set beside its word: its visit order as a tuple would make each hole test
a scan.

Each name below is imported from its module on first access (PEP 562) and
then bound here, so using one family loads only that family's module.
"""
_EXPORTS = {
    "chords": ("CHORDS_MAX_POINTS", "ChordConfig", "enum_chords"),
    "compositions": ("COMPOSITION_MAX_TOTAL", "Composition", "enum_compositions"),
    "domino": ("DOMINO_MAX_WIDTH", "DominoPair", "enum_domino_pairs", "tilings"),
    "fence": ("FENCE_MAX_SIZE", "ClosedSet", "enum_closed_sets"),
    "lacing": ("LACING_MAX_HOLES", "MODES", "Lacing", "enum_lacings", "segments_cross"),
    "matching": ("MATCHING_MAX_SUM", "Matching", "enum_matchings"),
    "motzkin": ("MOTZKIN_MAX_STEPS", "MotzkinPath", "enum_peakless"),
    "staircase": ("STAIRCASE_MAX_SUM", "Staircase", "enum_b_step_paths", "enum_staircases"),
    "sums012": ("SUM012_MAX_TERMS", "Sum012", "enum_012"),
    "weighted": ("WEIGHTED_MAX_COST", "WeightedPath", "enum_weighted_paths"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module, so -X importtime shows it
    value = getattr(__import__(f"{__name__}.{_OWNER[name]}", fromlist=[name]), name)
    return globals().setdefault(name, value)


def __dir__():
    return sorted({*globals(), *__all__})
