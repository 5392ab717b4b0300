#!/usr/bin/env python3
"""Record the digests the benchmark checks non-`count` output against.

    python3 perfbench/make_refs.py

Run from the root of the tree whose output is the reference (the seed).
Every request in workloads.digest_requests() is sent through the same
runner the benchmark uses; its stdout (or --out file) is stored as a
SHA-256 digest with its size and the route that produced it.  The small
objects fed to `map` are enumerated here, once, so that the benchmark
itself never imports the package it measures.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def map_requests() -> list[str]:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from twoline import bijections as b
    from twoline import objects as o
    from twoline.partsets import ONE_TWO

    closed = [c for m in (4, 6, 8) for c in list(o.enum_closed_sets(m))[1:3]]
    sums = [x for n, k in ((3, 3), (4, 5)) for x in list(o.enum_012(n, k))[:2]]
    square = [m for n in (2, 3) for m in list(o.enum_matchings(n, n))[:2]]
    levels = [p for n in (4, 6) for p in list(o.enum_peakless(n, 0))[1:3]]
    chords = [c for n in (3, 4) for c in list(o.enum_chords(n))[:2]]
    s1 = [c for n in (5, 7) for c in list(o.enum_compositions(ONE_TWO, n))[1:3]]
    stairs = [x for k, n in ((3, 3), (2, 4)) for x in list(o.enum_staircases(k, n))[:2]]
    reqs = []
    reqs += [f"map closed-to-matching {c.encode()}" for c in closed]
    reqs += [f"map matching-to-closed {b.closed_set_to_matching(c).encode()}" for c in closed]
    reqs += [f"map closed-to-012 {c.encode()}" for c in closed]
    reqs += [f"map 012-to-closed {x.encode()}" for x in sums]
    reqs += [f"map 012-to-motzkin {x.encode()}" for x in sums]
    reqs += [f"map motzkin-to-012 {b.s012_to_motzkin(x).encode()}" for x in sums]
    reqs += [f"map matching-to-weighted {m.encode()}" for m in square]
    reqs += [f"map weighted-to-matching {b.matching_to_weighted_path(m).encode()}" for m in square]
    reqs += [f"map motzkin-to-chords {p.encode()}" for p in levels]
    reqs += [f"map chords-to-motzkin {c.encode()}" for c in chords]
    reqs += [f"map split-horizontals {m.encode()}" for m in square]
    for m in square:
        up, lo = b.matching_split_horizontals(m)
        text = ";".join(",".join(f"{x}-{y}" for x, y in seg) for seg in (up, lo))
        reqs.append(f"map join-horizontals {text} --k {m.k} --n {m.n}")
    reqs += [f"map s1-to-domino {c.encode()}" for c in s1]
    reqs += [f"map domino-to-s1 {b.composition_s1_to_domino(c)}" for c in s1]
    reqs += [f"map s1-to-s2 {c.encode()}" for c in s1]
    reqs += [f"map s2-to-s1 {b.composition_s1_to_s2(c).encode()}" for c in s1]
    reqs += [f"map staircase-to-compositions {x.encode()}" for x in stairs]
    reqs += [
        "map compositions-to-staircase " + ";".join(c.encode() for c in b.staircase_to_composition_pair(x))
        for x in stairs
    ]
    return reqs


def main() -> int:
    runner = run.Runner(os.getcwd())
    env = run.environment(runner)
    route = f"stdout of `python -m twoline.cli` at {env['commit'] or 'src sha256 ' + env['src_sha256']}"
    maps = map_requests()
    outputs = {}
    try:
        for req in workloads.digest_requests(maps):
            res = runner.request(req.split())
            if res.rc != 0 or res.size > run.OUTPUT_CAP_BYTES:
                raise SystemExit(f"make_refs: {req!r} exited {res.rc}: {res.err.decode(errors='replace')}")
            outputs[reference.key(req.split())] = {"sha256": res.sha256, "bytes": res.size, "route": route}
            print(f"{res.latency:7.3f}s {req}", file=sys.stderr)
    finally:
        runner.close()
    doc = {"environment": env, "map_requests": maps, "outputs": outputs}
    with open(reference.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
