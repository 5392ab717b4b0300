import time

import pytest

from twoline import bijections as bij
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
