"""Acceptance criteria, one test per criterion.

Each test prints a single ACCEPTANCE line (visible with pytest -s) and then
asserts; run with:

    pytest tests/test_acceptance.py -v -s
"""
import math
import time

from twoline import bijections as bij
from twoline import counting as cnt
from twoline import series as ser
from twoline import verify as vfy
from twoline.objects import ClosedSet, Composition, enum_lacings
from twoline.partsets import ONE_TWO

TRIANGLE_ROWS = [
    (1,),
    (1, 1, 1),
    (1, 2, 2, 2, 1),
    (1, 3, 4, 5, 4, 3, 1),
    (1, 4, 7, 10, 11, 10, 7, 4, 1),
]


def report(num, name, ok, elapsed, budget=None):
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({elapsed * 1000:.1f} ms"
    if budget is not None:
        line += f", budget {budget * 1000:.0f} ms"
    print(line + ")")
    assert ok
    if budget is not None:
        assert elapsed <= budget


def test_criterion_1_triangle_fidelity():
    cnt.a_table(8)  # warm-up
    best = float("inf")
    for _ in range(10):
        t0 = time.perf_counter()
        table = cnt.a_table(8)
        best = min(best, time.perf_counter() - t0)
    ok = [table.rows[r] for r in range(5)] == TRIANGLE_ROWS
    report(1, "triangle-fidelity", ok, best, budget=0.001)


def test_criterion_2_five_way_agreement():
    start = time.perf_counter()
    table = cnt.a_table(40)
    denom = ser.series2(
        {(0, 0): 1, (2, 0): -1, (0, 2): -1, (1, 1): -1, (2, 2): 1}, 40, 40
    )
    gf = ser.bivariate_inverse_coeffs(denom, 40, 40)
    signed = cnt.signed_step_path_counts(20)
    ok = True
    for s in range(41):
        for k in range(s + 1):
            n = s - k
            v = table.value(k, n)
            if not (v == cnt.a_long(k, n) == cnt.a_binomial(k, n) == gf.coeff(k, n)):
                ok = False
            if s <= 20 and signed[k][n] != v:
                ok = False
    report(2, "five-way-agreement", ok, time.perf_counter() - start, budget=30.0)


def test_criterion_3_reference_point_values():
    start = time.perf_counter()
    zt = cnt.z_table(8)
    bt = cnt.b_table(8)
    ok = (
        cnt.a_long(2, 4) == 4
        and cnt.d_count(3, 5) == 10
        and cnt.m_count(3, 1) == 4
        and cnt.s_count(3, 3) == 5
        and cnt.r_diag(3) == 5
        and zt.rows[4] == (1, 2, 2, 2, 1)
        and zt.value(8, 3) == 10
        and bt.value(4, 4) == 11
        and bt.value(3, 4) == 5
    )
    report(3, "reference-point-values", ok, time.perf_counter() - start)


def test_criterion_4_forty_points_and_fibonacci_bounds():
    start = time.perf_counter()
    a4040 = cnt.a_long(40, 40)
    ok = a4040 == cnt.a_binomial(40, 40) and a4040 < 3**39
    for s in range(2, 61):
        for k in range(s + 1):
            if not cnt.a_long(k, s - k) <= cnt.fibonacci(s):
                ok = False
    report(4, "forty-points-bound", ok, time.perf_counter() - start, budget=1.0)


def test_criterion_5_fibonacci_structure():
    start = time.perf_counter()
    at = cnt.a_table(58)
    ok = all(sum(at.rows[m - 1]) == cnt.fibonacci(2 * m) for m in range(1, 31))
    zt = cnt.z_table(30)
    ok = ok and all(sum(zt.rows[m]) == cnt.fibonacci(m + 2) for m in range(31))
    report(5, "fibonacci-structure", ok, time.perf_counter() - start)


def test_criterion_6_diagonal_chain():
    start = time.perf_counter()
    g = ser.inv_sqrt_trunc(ser.series([1, -2, -1, -2, 1]), 200)
    ok = cnt.r_diag(5) == 26
    for n in range(201):
        if not (cnt.r_diag(n) == cnt.a_diag_binomial(n) == g.coeff(n)):
            ok = False
    report(6, "diagonal-chain", ok, time.perf_counter() - start, budget=5.0)


def test_criterion_7_enumeration_count_agreement():
    start = time.perf_counter()
    rep = vfy.suite_enumeration(12)
    for c in rep.checks:
        if not c.ok:
            print(f"  enumeration mismatch: {c.id}: {c.detail}")
    report(7, "enumeration-count-agreement", rep.overall, time.perf_counter() - start)


def test_criterion_8_bijection_roundtrips():
    start = time.perf_counter()
    rep = vfy.suite_bijections(12)
    anchor_012 = bij.closed_set_to_012(
        ClosedSet(14, frozenset({4, 5, 6, 8, 9, 10}))
    ).summands == (0, 0, 2, 1, 2, 1, 0)
    anchor_comp = bij.composition_s1_to_s2(
        Composition((1, 2, 2, 1, 2, 1, 2), ONE_TWO)
    ).parts == (1, 5, 3, 3)
    for c in rep.checks:
        if not c.ok:
            print(f"  bijection failure: {c.id}: {c.detail}")
    ok = rep.overall and anchor_012 and anchor_comp
    report(8, "bijection-roundtrips", ok, time.perf_counter() - start)


def test_criterion_9_lacing_formulas():
    start = time.perf_counter()
    counts = {
        n: sum(1 for _ in enum_lacings(n, n, "right")) for n in (2, 3, 4)
    }
    ok = counts == {
        n: math.factorial(n - 1) ** 2 * cnt.a_long(n, n) for n in (2, 3, 4)
    } and counts[2] == 2 and counts[3] == 20 and counts[4] == 396
    rep = vfy.suite_lacing()
    resolution = next(
        c for c in rep.checks if c.id == "defective-formula-resolution"
    )
    ok = ok and rep.overall and resolution.ok and "(k-1)!(n-1)!" in resolution.detail
    report(9, "lacing-formulas", ok, time.perf_counter() - start, budget=60.0)


def test_criterion_10_asymptotics():
    start = time.perf_counter()
    ok = cnt.asymptotic_estimate(4).relative_error < 0.06
    ns = (100, 200, 400, 800, 1600)
    errs = [cnt.asymptotic_estimate(n).relative_error for n in ns]
    ok = ok and all(a > b for a, b in zip(errs, errs[1:]))
    scaled = [n * e for n, e in zip(ns, errs)]
    ok = ok and all(
        0.8 <= b / a <= 1.25 for a, b in zip(scaled, scaled[1:])
    )
    report(10, "asymptotics", ok, time.perf_counter() - start, budget=10.0)
