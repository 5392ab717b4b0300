"""Explicit combinatorial objects and their exhaustive enumerators.

Every family provides a frozen dataclass with validate()/encode()/decode()
and an enum_* generator that yields valid objects in the lexicographic
order of their canonical encodings, raising InstanceTooLarge beyond the
documented feasibility cutoffs.
"""
from .chords import CHORDS_MAX_POINTS, ChordConfig, enum_chords
from .compositions import COMPOSITION_MAX_TOTAL, Composition, enum_compositions
from .domino import DOMINO_MAX_WIDTH, DominoPair, enum_domino_pairs, tilings
from .fence import FENCE_MAX_SIZE, ClosedSet, enum_closed_sets
from .lacing import LACING_MAX_HOLES, MODES, Lacing, enum_lacings, segments_cross
from .matching import MATCHING_MAX_SUM, Matching, enum_matchings
from .motzkin import MOTZKIN_MAX_STEPS, MotzkinPath, enum_peakless
from .staircase import STAIRCASE_MAX_SUM, Staircase, enum_b_step_paths, enum_staircases
from .sums012 import SUM012_MAX_TERMS, Sum012, enum_012
from .weighted import WEIGHTED_MAX_COST, WeightedPath, enum_weighted_paths

__all__ = [
    "ChordConfig",
    "ClosedSet",
    "Composition",
    "DominoPair",
    "Lacing",
    "Matching",
    "MotzkinPath",
    "Staircase",
    "Sum012",
    "WeightedPath",
    "enum_012",
    "enum_b_step_paths",
    "enum_chords",
    "enum_closed_sets",
    "enum_compositions",
    "enum_domino_pairs",
    "enum_lacings",
    "enum_matchings",
    "enum_peakless",
    "enum_staircases",
    "enum_weighted_paths",
    "segments_cross",
    "tilings",
    "CHORDS_MAX_POINTS",
    "COMPOSITION_MAX_TOTAL",
    "DOMINO_MAX_WIDTH",
    "FENCE_MAX_SIZE",
    "LACING_MAX_HOLES",
    "MATCHING_MAX_SUM",
    "MODES",
    "MOTZKIN_MAX_STEPS",
    "STAIRCASE_MAX_SUM",
    "SUM012_MAX_TERMS",
    "WEIGHTED_MAX_COST",
]
