"""The benchmark's workloads: which `twoline` requests each one sends.

A workload is an ordered list of job templates.  Each template lists the
argument vectors it may become; the seed picks one, so the same seed gives
the same requests.  The choices are narrow on purpose: a run with another
seed does nearly the same amount of work, so run-to-run spread measures the
machine, not the inputs.

The traffic is built from the README's CLI examples and the sizes in the
ROADMAP baseline table, not from usage telemetry (there is none).
"""
from __future__ import annotations

import random

WORKLOADS = ("cli-small", "big-values", "sequences", "enumerate")

# Inputs on which the seed is known to fail.  They run once per run, count in
# ops_failed_ratio, and stay out of every other metric.  The single-count
# probes are cheap and run in every workload; the two bulk-output probes run
# in `sequences`, the workload of that layer (`table a --max 2000` needs
# seconds to reach the memory cap).
COUNT_PROBES = (
    "count a --k 1200 --n 1200",  # RecursionError, traceback, exit 1
    "count b --k 1500 --n 1500",  # RecursionError
    "count m --k 1200 --n 0",  # RecursionError
    "count z --n 1500 --k 500",  # RecursionError
    "count r --n 10400",  # int->str digit limit, mislabelled exit 2
)
BULK_PROBES = (
    "export A051286 --terms 20000",  # int->str digit limit, exit 2
    "table a --max 2000",  # grows without bound; killed by the memory cap
)


def probes(workload: str) -> tuple[str, ...]:
    return COUNT_PROBES + (BULK_PROBES if workload == "sequences" else ())


README_EXAMPLES = (
    "count a --k 2 --n 4",
    "count r --n 3",
    "table z --max 8 --format csv",
    "table b --max 8 --format bfile --out b.txt",
    "enumerate s012 --n 3 --k 3",
    "enumerate compositions --n 5 --set s1 --part-count 2 1",
    "enumerate lacings --k 3 --n 3 --mode right --limit 5",
    "map closed-to-012 00001110111000",
    "map motzkin-to-chords DHDUUHDDUU",
    "verify --suite all --max 12",
    "export A051286 --terms 10",
    "asymptotic --n 1000",
)


def _pairs(fmt: str, values, same_parity: bool = False) -> list[str]:
    return [
        fmt.format(k=k, n=n) for k in values for n in values if not same_parity or (k + n) % 2 == 0
    ]


def _each(fmt: str, values) -> list[str]:
    return [fmt.format(v=v) for v in values]


# Variants of one template cost within about 1% of each other.
BIG_VALUES = (
    _pairs("count a --k {k} --n {n}", range(299, 302), same_parity=True),
    _pairs("count d --k {k} --n {n}", range(1498, 1503)),
    _pairs("count b --k {k} --n {n}", range(399, 402)),
    _each("count m --k {v} --n 0", range(399, 402)),
    _pairs("count s --n {k} --k {n}", range(299, 302)),
    _each("count r --n {v}", range(9990, 10001)),
    _each("asymptotic --n {v}", (29900, 30000, 30100)),
    _each("verify --suite diagonal --max {v}", (698, 700, 702)),
    ["verify --suite triangle --max 50"],
)

# Jobs whose peak memory or output size would move with the parameter take
# no variant, or only mirror-image variants of equal size.
SEQUENCES = (
    _each("export A079487 --terms {v}", (199000, 200000, 201000)),
    _each("export A125250 --terms {v}", (99500, 100000, 100500)),
    ["export A051286 --terms 10000"],
    # A078698 term 804 is the first with more than 4300 digits.
    _each("export A078698 --terms {v}", (799, 801, 803)),
    ["table a --max 200 --format bfile"],
    ["table b --max 400 --format json"],
    ["verify --suite asymptotics"],
)

_MIRRORED = ((11, 13), (13, 11))
ENUMERATE = (
    ["enumerate matchings --k 12 --n 12"],
    _each("enumerate motzkin --k 14 --n {v}", (1, -1)),
    _each("enumerate s012 --n 14 --k {v}", (13, 15)),
    ["enumerate compositions --n 24 --set s1"],
    ["enumerate weighted --cost 14"],
    ["enumerate closedsets --m 20"],
    [f"enumerate staircases --k {k} --n {n}" for k, n in _MIRRORED],
    [f"enumerate steppaths --k {k} --n {n}" for k, n in _MIRRORED],
    [f"enumerate dominoes --k {k} --n {n}" for k, n in _MIRRORED],
    ["enumerate chords --n 10"],
    ["enumerate lacings --k 5 --n 5"],
    [f"enumerate matchings --k {k} --n {n} --limit 100" for k, n in ((10, 14), (14, 10))],
    ["enumerate matchings --k 12 --n 12 --limit 100"],
    ["enumerate chords --n 10 --limit 100"],
    ["verify --suite all"],
    ["verify --suite bijections --max 14"],
)

# cli-small: the README examples plus small requests of every subcommand.
# The seed picks the count arguments and map inputs (every choice costs the
# same) and the order; the rest is fixed so each run does the same work.
SMALL_COUNT_FAMILIES = "abzdmsrabzdmsrabzd"
SMALL_FIXED = (
    "table a --max 10 --format csv",
    "table b --max 10 --format bfile",
    "table z --max 10 --format json",
    "table a --max 6 --format bfile",
    "table b --max 6 --format csv",
    "table z --max 6 --format csv",
    "enumerate matchings --k 4 --n 4",
    "enumerate motzkin --k 6 --n 0",
    "enumerate closedsets --m 8",
    "enumerate s012 --n 4 --k 4",
    "enumerate compositions --n 8 --set s2",
    "enumerate chords --n 5",
    "enumerate matchings --k 5 --n 5 --limit 10",
    "enumerate chords --n 5 --limit 10",
    "enumerate motzkin --k 8 --n 0 --limit 10",
    "enumerate compositions --n 8 --set s1 --limit 5",
    "export A079487 --terms 30",
    "export A125250 --terms 30",
    "asymptotic --n 2000",
    "asymptotic --n 500 --format json",
)
SMALL_MAPS = 5
# Map inputs are small objects enumerated once by make_refs.py; refs.json
# lists them, so the benchmark never imports the package it measures.


def _small_count(fam: str, rng: random.Random) -> str:
    k, n = rng.randint(0, 20), rng.randint(0, 20)
    if fam == "r":
        return f"count r --n {n}"
    if fam == "z":
        return f"count z --n {n} --k {min(k, n)}"
    return f"count {fam} --k {k} --n {n}"


def jobs(workload: str, seed: int, map_requests: list[str]) -> list[list[str]]:
    """One pass of the workload: the argument vectors, in the order sent."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-small":
        picked = list(README_EXAMPLES) + list(SMALL_FIXED)
        picked += [_small_count(fam, rng) for fam in SMALL_COUNT_FAMILIES]
        picked += rng.sample(map_requests, SMALL_MAPS)
        rng.shuffle(picked)
    else:
        templates = {"big-values": BIG_VALUES, "sequences": SEQUENCES, "enumerate": ENUMERATE}[workload]
        picked = [rng.choice(t) for t in templates]
    return [p.split() for p in picked]


def digest_requests(map_requests: list[str]) -> list[str]:
    """Every request whose reference is a recorded digest (all but `count`)."""
    every = list(README_EXAMPLES) + list(SMALL_FIXED) + list(map_requests)
    for templates in (BIG_VALUES, SEQUENCES, ENUMERATE):
        for t in templates:
            every += t
    return list(dict.fromkeys(r for r in every if not r.startswith("count ")))
