import time
from types import SimpleNamespace

import pytest

from twoline import bijections as bij
from twoline import counting as cnt
from twoline import verify as vfy
from twoline.objects import Sum012, enum_012, enum_closed_sets


def test_all_suite_passes_quickly():
    start = time.perf_counter()
    rep = vfy.run_suite("all", 12)
    elapsed = time.perf_counter() - start
    assert rep.overall
    assert elapsed < 60.0
    ids = {c.id for c in rep.checks}
    # one representative check from every section
    for probe in (
        "four-way-agreement",
        "matchings",
        "closed-to-matching",
        "a-row-sums",
        "series-route",
        "monotone-decay",
        "fibonacci-bound",
        "defective-formula-resolution",
    ):
        assert probe in ids


def test_every_suite_runs_and_passes():
    for name in vfy.SUITES:
        rep = vfy.run_suite(name, 8)
        assert rep.suite == name
        assert rep.overall, [c for c in rep.checks if not c.ok]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        vfy.run_suite("nope")


def test_report_serialization():
    rep = vfy.suite_asymptotics()
    data = rep.to_dict()
    assert data["suite"] == "asymptotics"
    assert data["overall"] is True
    assert all(c["status"] == "pass" for c in data["checks"])


def test_overall_is_conjunction():
    rep = vfy.VerificationReport("demo")
    rep.add("ok", True, "fine")
    assert rep.overall
    rep.add("bad", False, "broken")
    assert not rep.overall


class TestRoundtrip:
    def test_passing_report(self):
        size, images, failures, witness = vfy.roundtrip(
            enum_closed_sets(8), bij.closed_set_to_012, bij.sum012_to_closed_set
        )
        assert size == images == 55
        assert failures == 0 and witness is None

    def test_failing_report_finds_witness(self):
        size, images, failures, witness = vfy.roundtrip(
            enum_012(2, 2), lambda s: s, lambda s: Sum012((9,))
        )
        assert failures == size > 0
        assert witness == "0+2"


def failed_detail(rep, check_id):
    check = next(c for c in rep.checks if c.id == check_id)
    assert not check.ok
    return check.detail


class TestFailureWitnesses:
    """A failing comparison prints both of its sides; a passing one keeps its
    detail (the suites' passing reports are pinned elsewhere)."""

    def test_anchor_r5(self, monkeypatch):
        monkeypatch.setattr(cnt, "r_diag", lambda n: 27)
        assert failed_detail(vfy.suite_diagonal(10), "anchor-r5") == "r(5) = 26; r_diag(5) gives 27"

    def test_closed_to_012_anchor(self, monkeypatch):
        to_012 = bij.closed_set_to_012  # the roundtrip domain stops short of the 14-vertex fence
        monkeypatch.setattr(
            bij, "closed_set_to_012",
            lambda c: SimpleNamespace(summands=(0, 2, 1)) if c.fence_size == 14 else to_012(c),
        )
        assert failed_detail(vfy.suite_bijections(4), "closed-to-012-anchor") == (
            "the marked 14-vertex fence encodes as 0+0+2+1+2+1+0; got 0+2+1"
        )

    def test_s1_to_odd_anchor(self, monkeypatch):
        to_s2 = bij.composition_s1_to_s2  # the roundtrip domain stops short of n = 11
        monkeypatch.setattr(
            bij, "composition_s1_to_s2",
            lambda c: SimpleNamespace(parts=(11,)) if c.n == 11 else to_s2(c),
        )
        assert failed_detail(vfy.suite_bijections(4), "s1-to-odd-anchor") == (
            "1+2+2+1+2+1+2 maps to 1+5+3+3; got 11"
        )

    def test_monotone_decay(self, monkeypatch):
        errors = {4: 0.05, 100: 0.25, 200: 0.125, 400: 0.5, 800: 0.25, 1600: 0.125}
        monkeypatch.setattr(cnt, "asymptotic_estimate", lambda n: SimpleNamespace(relative_error=errors[n]))
        assert failed_detail(vfy.suite_asymptotics(), "monotone-decay") == (
            "relative error decreases over n = 100, 200, 400, 800, 1600; relative errors "
            "2.5000e-01, 1.2500e-01, 5.0000e-01, 2.5000e-01, 1.2500e-01"
        )

    def test_forty_points_bound(self, monkeypatch):
        a_binomial = cnt.a_binomial
        monkeypatch.setattr(cnt, "a_binomial", lambda k, n: a_binomial(k, n) + 1)
        detail = failed_detail(vfy.suite_bounds(10), "forty-points-bound")
        a4040 = cnt.a_table(80).value(40, 40)
        assert detail == (
            f"a(40,40) = {a4040} < 3^39 = {3**39} (table and binomial routes agree); "
            f"the binomial route gives {a4040 + 1}"
        )
