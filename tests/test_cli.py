import argparse
import decimal
import json
import math
import os
import pathlib
import subprocess
import sys
from decimal import Decimal
from itertools import islice
from operator import mul

import pytest

from twoline import bijections as bij
from twoline import cli, families
from twoline import counting as cnt
from twoline.cli import _diagonal_terms, _exact_decimal, main
from twoline.objects import Sum012


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TILINGS = list(islice(cnt._tiling_rows(), 15))  # TILINGS[w][v] = t(w, v)
PEAKLESS = list(islice(cnt._m_rows(), 15))  # PEAKLESS[k][k + n] = m(k, n)
SUMS012 = list(islice(cnt._s_rows(14), 15))  # SUMS012[n][k] = s(n, k)


class TestCount:
    def test_known_values(self, capsys):
        assert run(capsys, "count", "a", "--k", "2", "--n", "4") == (0, "4\n", "")
        assert run(capsys, "count", "r", "--n", "3") == (0, "5\n", "")
        assert run(capsys, "count", "a", "--k", "1", "--n", "2") == (0, "0\n", "")

    def test_other_families(self, capsys):
        assert run(capsys, "count", "b", "--k", "4", "--n", "4")[1] == "11\n"
        assert run(capsys, "count", "z", "--n", "8", "--k", "3")[1] == "10\n"
        assert run(capsys, "count", "d", "--k", "3", "--n", "5")[1] == "10\n"
        assert run(capsys, "count", "m", "--k", "3", "--n", "1")[1] == "4\n"
        assert run(capsys, "count", "s", "--n", "3", "--k", "3")[1] == "5\n"

    def test_missing_index_is_usage_error(self, capsys):
        code, out, err = run(capsys, "count", "a", "--k", "2")
        assert code == 2 and out == "" and err

    def test_bad_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "q", "--k", "1", "--n", "1"])
        assert exc.value.code == 2

    def test_values_past_the_int_to_str_digit_limit(self, capsys):
        code, out, _ = run(capsys, "count", "r", "--n", "10400")
        assert code == 0 and out == f"{cnt.a_diag_binomial(10400)}\n"

    # family -> its value on (k, n), read from its row generator (`count` reads a
    # binomial sum); the indices of the test below stay under 15
    ROW_COUNTERS = {
        "a": cnt.a_long,
        "b": cnt.b_table(30).value,
        "z": cnt.z_table(16).value,
        "d": lambda k, n: sum(map(mul, TILINGS[k], TILINGS[n])) if min(k, n) >= 0 else 0,
        "m": lambda k, n: PEAKLESS[k][k + n] if abs(n) <= k else 0,
        "s": lambda n, k: SUMS012[n][k] if min(n, k) >= 0 else 0,
    }

    @pytest.mark.parametrize("family", ROW_COUNTERS)
    def test_every_count_equals_its_row_generator(self, family):
        names, counter = cli.COUNTERS[family]
        for k in range(-2, 15):
            heights = range(-abs(k) - 1, abs(k) + 2) if family == "m" else range(-2, 15)
            for n in heights:
                args = dict(zip(names, (k, n)))
                got = counter(argparse.Namespace(**args))
                assert got == self.ROW_COUNTERS[family](*args.values()), (family, args)

    def test_recursion_exhaustion_is_exit_4(self, capsys, monkeypatch):
        def deep(k, n):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cnt, "b_value", deep)
        code, out, err = run(capsys, "count", "b", "--k", "1500", "--n", "1500")
        assert code == 4 and out == ""
        assert "Traceback" not in err and len(err.splitlines()) == 1


class TestTable:
    def test_z_csv(self, capsys):
        code, out, _ = run(capsys, "table", "z", "--max", "4", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["1", "1,1", "1,1,1", "1,2,1,1", "1,2,2,2,1"]

    def test_a_single_entry(self, capsys):
        assert run(capsys, "table", "a", "--max", "0")[1] == "1\n"

    def test_b_central_value(self, capsys):
        _, out, _ = run(capsys, "table", "b", "--max", "8", "--format", "csv")
        last = out.splitlines()[-1].split(",")
        assert last[len(last) // 2] == "11"

    def test_bfile_layout(self, capsys):
        _, out, _ = run(capsys, "table", "z", "--max", "3", "--format", "bfile")
        assert out.splitlines() == [
            "0 1",
            "1 1",
            "2 1",
            "3 1",
            "4 1",
            "5 1",
            "6 1",
            "7 2",
            "8 1",
            "9 1",
        ]

    def test_json(self, capsys):
        _, out, _ = run(capsys, "table", "a", "--max", "2", "--format", "json")
        data = json.loads(out)
        assert data["rows"] == [[1], [1, 1, 1], [1, 2, 2, 2, 1]]

    def test_unwritable_output_is_io_error(self, capsys):
        code, _, err = run(
            capsys, "table", "z", "--max", "2", "--out", "/nonexistent-dir/t.txt"
        )
        assert code == 3 and err


class TestEnumerate:
    def test_s012(self, capsys):
        code, out, _ = run(capsys, "enumerate", "s012", "--n", "3", "--k", "3")
        assert code == 0 and len(out.splitlines()) == 5

    def test_motzkin_single(self, capsys):
        assert run(capsys, "enumerate", "motzkin", "--k", "1", "--n", "1")[1] == "U\n"

    def test_weighted(self, capsys):
        _, out, _ = run(capsys, "enumerate", "weighted", "--cost", "3")
        assert out.splitlines() == ["CCC", "CL", "DU", "LC", "UD"]

    def test_limit(self, capsys):
        _, out, _ = run(capsys, "enumerate", "weighted", "--cost", "3", "--limit", "2")
        assert out.splitlines() == ["CCC", "CL"]

    def test_compositions_filters(self, capsys):
        _, out, _ = run(
            capsys,
            "enumerate", "compositions", "--n", "5", "--set", "s1",
            "--part-count", "2", "1",
        )
        assert len(out.splitlines()) == 4
        _, out, _ = run(
            capsys,
            "enumerate", "compositions", "--n", "7", "--set", "s3", "--summands", "2",
        )
        assert out.splitlines() == ["2+5", "3+4", "4+3", "5+2"]

    def test_line_counts_match_counts(self, capsys):
        _, out, _ = run(capsys, "enumerate", "matchings", "--k", "3", "--n", "5")
        assert len(out.splitlines()) == 10

    def test_too_large_is_exit_4(self, capsys):
        code, _, err = run(capsys, "enumerate", "matchings", "--k", "13", "--n", "13")
        assert code == 4 and err

    def test_bad_params_is_exit_2(self, capsys):
        code, _, _ = run(capsys, "enumerate", "matchings", "--k", "3")
        assert code == 2


# map name -> the form of text it reads (see families.BIJECTIONS)
MAP_DOMAINS = {name: domain for name, domain, *_ in families.maps()}

# form -> malformed texts of that form, each refused by the form's decoder or
# by the map's own check
MALFORMED = {
    "ClosedSet": ("1+x",),
    "Matching": ("U1-X2", "U1L1"),
    "Sum012": ("1+x",),
    "MotzkinPath": ("UXD",),
    "WeightedPath": ("CXL",),
    "ChordConfig": ("4:1-3",),
    "segments": ("a-b;", "1-2"),
    "s1": ("1+x",),
    "tiling": ("VXH",),
    "odd": ("",),
    "s1-pair": ("1+b;1",),
    "Staircase": ("H1,X1", "H1"),
}


class TestMap:
    def test_closed_to_012_anchor(self, capsys):
        code, out, _ = run(capsys, "map", "closed-to-012", "00001110111000")
        assert code == 0 and out == "0+0+2+1+2+1+0\n"

    def test_s1_to_s2_anchor(self, capsys):
        assert run(capsys, "map", "s1-to-s2", "1+2+2+1+2+1+2")[1] == "1+5+3+3\n"

    def test_chords_both_ways(self, capsys):
        _, out, _ = run(capsys, "map", "motzkin-to-chords", "DHDUUHDDUU")
        assert out == "10:4-8,5-7:1-10,3-9\n"
        _, out, _ = run(capsys, "map", "chords-to-motzkin", "10:4-8,5-7:1-10,3-9")
        assert out == "DHDUUHDDUU\n"

    def test_split_and_join(self, capsys):
        m = "U1-L1,U2-U3,L2-L3"
        _, out, _ = run(capsys, "map", "split-horizontals", m)
        assert out == "2-3;2-3\n"
        _, out, _ = run(
            capsys, "map", "join-horizontals", "2-3;2-3", "--k", "3", "--n", "3"
        )
        assert out == m + "\n"
        # upper and lower layouts that differ, so a swapped pair shows
        lopsided = "U1-U2,U3-L1,L2-L3"
        assert run(capsys, "map", "split-horizontals", lopsided)[1] == "1-2;2-3\n"
        _, out, _ = run(capsys, "map", "join-horizontals", "1-2;2-3", "--k", "3", "--n", "3")
        assert out == lopsided + "\n"

    def test_invalid_object_is_exit_2(self, capsys):
        code, _, err = run(capsys, "map", "closed-to-012", "0102")
        assert code == 2 and err

    def test_invalid_domain_is_exit_2(self, capsys):
        # odd fence cannot be arranged as a matching
        code, _, _ = run(capsys, "map", "closed-to-matching", "000")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, token",
        [
            (("join-horizontals", "1-2-3;", "--k", "3", "--n", "0"), "1-2-3"),
            (("chords-to-motzkin", "3:1-2-3:"), "1-2-3"),
            (("join-horizontals", "1;", "--k", "1", "--n", "0"), "1"),
            (("chords-to-motzkin", "3:1:"), "1"),
            (("join-horizontals", "a-b;", "--k", "2", "--n", "0"), "a-b"),
        ],
    )
    def test_malformed_pair_is_refused_in_one_line(self, capsys, argv, token):
        code, out, err = run(capsys, "map", *argv)
        lines = err.splitlines()
        assert code == 2 and out == "" and len(lines) == 1
        assert repr(token) in lines[0]
        assert "unpack" not in err and "invalid literal" not in err

    @pytest.mark.parametrize(
        "name, text",
        [(name, text) for name in cli.MAPS for text in MALFORMED[MAP_DOMAINS[name]]],
    )
    def test_malformed_text_to_every_map_is_refused_in_one_line(self, capsys, name, text):
        sizes = ("--k", "3", "--n", "3") if name == "join-horizontals" else ()
        code, out, err = run(capsys, "map", name, text, *sizes)
        lines = err.splitlines()
        assert code == 2 and out == "" and len(lines) == 1
        assert lines[0].startswith("twoline: ")


class TestVerify:
    def test_triangle_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "triangle", "--max", "10")
        assert code == 0
        report = json.loads(out)
        assert report["overall"] is True
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "fibonacci", "--max", "10", "--format", "text"
        )
        assert code == 0
        assert out.splitlines()[-1] == "overall: pass"

    def test_bounds_suite_mentions_forty(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bounds", "--max", "20")
        report = json.loads(out)
        assert code == 0
        ids = [c["id"] for c in report["checks"]]
        assert "forty-points-bound" in ids

    def test_enumeration_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "enumeration")
        report = json.loads(out)
        assert code == 0 and report["suite"] == "enumeration"
        _, out_all, _ = run(capsys, "verify", "--suite", "all")
        all_checks = json.loads(out_all)["checks"]
        assert all(c in all_checks for c in report["checks"])

    def test_failed_roundtrip_names_its_witness(self, capsys, monkeypatch):
        monkeypatch.setattr(bij, "motzkin_to_s012", lambda p: Sum012((1,) * len(p.steps)))
        code, out, _ = run(capsys, "verify", "--suite", "bijections", "--format", "text")
        assert code == 1
        line = next(x for x in out.splitlines() if " 012-to-motzkin:" in x)
        assert line.startswith("FAIL")
        assert "first failure '0', domain size 609, image size 609" in line
        passing = [x for x in out.splitlines() if x.startswith("PASS")]
        assert passing and not any("first failure" in x for x in passing)

    def test_failed_counting_check_names_its_index(self, capsys, monkeypatch):
        tiling_rows = cnt._tiling_rows

        def one_tiling_too_many():  # of width 5 with 3 verticals: d(3, 5) is off by one first
            for w, row in enumerate(tiling_rows()):
                yield [t + ((w, v) == (5, 3)) for v, t in enumerate(row)]

        monkeypatch.setattr(cnt, "_tiling_rows", one_tiling_too_many)
        code, out, _ = run(capsys, "verify", "--suite", "triangle", "--format", "text")
        assert code == 1
        line = next(x for x in out.splitlines() if " domino-identity:" in x)
        assert line == "FAIL domino-identity: d(k,n) = a(k,n) for k+n <= 16; first mismatch (3, 5)"
        passing = [x for x in out.splitlines() if x.startswith("PASS")]
        assert len(passing) == 9 and not any("first mismatch" in x for x in passing)

    def test_failed_enumeration_check_names_its_index(self, capsys, monkeypatch):
        m_count = cnt.m_count
        monkeypatch.setattr(cnt, "m_count", lambda k, n: m_count(k, n) + ((k, n) == (4, 2)))
        code, out, _ = run(capsys, "verify", "--suite", "enumeration", "--format", "text")
        assert code == 1
        line = next(x for x in out.splitlines() if " peakless-paths:" in x)
        assert line == (
            "FAIL peakless-paths: path enumeration sizes equal m(k,n) for k <= 10; "
            "first mismatch (4, 2)"
        )
        passing = [x for x in out.splitlines() if x.startswith("PASS")]
        assert len(passing) == 9 and not any("first mismatch" in x for x in passing)

    def test_lacing_suite_records_resolution(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lacing")
        report = json.loads(out)
        assert code == 0
        byid = {c["id"]: c for c in report["checks"]}
        assert byid["defective-formula-resolution"]["status"] == "pass"
        assert "(k-1)!(n-1)!" in byid["defective-formula-resolution"]["detail"]

    @pytest.mark.parametrize("suite", ["lacing", "asymptotics"])
    def test_max_on_a_suite_without_a_scale_is_a_usage_error(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max", "5")
        assert code == 2 and out == ""
        assert err == f"twoline: suite {suite!r} takes no --max\n"


class TestExport:
    def test_diagonal(self, capsys):
        _, out, _ = run(capsys, "export", "A051286", "--terms", "6")
        assert out.splitlines() == ["0 1", "1 1", "2 2", "3 5", "4 11", "5 26"]

    def test_fence_triangle(self, capsys):
        _, out, _ = run(capsys, "export", "A079487", "--terms", "5")
        assert [line.split()[1] for line in out.splitlines()] == ["1"] * 5

    def test_staircase_triangle(self, capsys):
        _, out, _ = run(capsys, "export", "A125250", "--terms", "6")
        values = [line.split()[1] for line in out.splitlines()]
        assert values == ["1", "0", "0", "0", "1", "0"]

    def test_lacings(self, capsys):
        _, out, _ = run(capsys, "export", "A078698", "--terms", "3")
        assert out.splitlines() == ["0 1", "1 2", "2 20"]

    def test_bad_terms_is_exit_2(self, capsys):
        code, _, _ = run(capsys, "export", "A051286", "--terms", "0")
        assert code == 2


class TestExactDecimal:
    """The r(n) exports run the diagonal recurrence in exact Decimal arithmetic."""

    def test_decimal_terms_equal_the_int_terms(self):
        ints = list(islice(cnt.r_diag_terms(), 3001))
        with _exact_decimal():
            decimals = list(islice(cnt.r_diag_terms(Decimal), 3001))
        assert all(isinstance(d, Decimal) for d in decimals)
        assert decimals == ints
        assert list(map(str, decimals)) == list(map(str, ints))

    def test_shoelace_terms_equal_the_factorial_form(self):
        with _exact_decimal():
            got = list(islice(_diagonal_terms("A078698"), 300))
        r = list(islice(cnt.r_diag_terms(), 301))
        assert got == [math.factorial(n - 1) ** 2 * r[n] for n in range(1, 301)]

    def test_the_context_is_unbounded_and_traps_inexact_and_rounded(self):
        with _exact_decimal() as ctx:
            assert (ctx.prec, ctx.Emax) == (decimal.MAX_PREC, decimal.MAX_EMAX)
            with pytest.raises(decimal.Inexact):
                Decimal("1.5").to_integral_exact()
            with pytest.raises(decimal.Rounded):
                Decimal("1.0").to_integral_exact()


class TestAsymptotic:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "asymptotic", "--n", "4")
        assert code == 0 and "relative_error=5.46" in out

    def test_json(self, capsys):
        _, out, _ = run(capsys, "asymptotic", "--n", "10", "--format", "json")
        data = json.loads(out)
        assert 0 < data["relative_error"] < 0.03


@pytest.mark.parametrize(
    "argv",
    [
        "count a --k 2 --n 4 --limit 3",
        "enumerate s012 --n 2 --k 2 --format json",
        "verify --format csv",
        "asymptotic --n 10 --format bfile",
        "table z --max 2 --format text",
        "map s1-to-s2 1+2 --limit 1",
        "export A051286 --terms 3 --format bfile",
    ],
)
def test_flags_a_subcommand_ignores_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2


def test_outputs_are_deterministic(capsys):
    first = run(capsys, "enumerate", "matchings", "--k", "4", "--n", "4")
    second = run(capsys, "enumerate", "matchings", "--k", "4", "--n", "4")
    assert first == second


def test_count_matches_enumerate(capsys):
    for family, args, count_args in (
        ("matchings", ["--k", "3", "--n", "3"], ["a", "--k", "3", "--n", "3"]),
        ("s012", ["--n", "4", "--k", "5"], ["s", "--n", "4", "--k", "5"]),
        ("weighted", ["--cost", "4"], ["r", "--n", "4"]),
    ):
        _, lines, _ = run(capsys, "enumerate", family, *args)
        _, value, _ = run(capsys, "count", *count_args)
        assert len(lines.splitlines()) == int(value)


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def no_digit_limit():
    """Lift the int -> str digit limit of Python 3.11+ for one test, as main does."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "argv, code, value",
    [
        ("count a --k 1200 --n 1200", 0, lambda: cnt.r_diag(1200)),
        ("count b --k 1500 --n 1500", 0, lambda: cnt.a_diag_binomial(1500)),
        ("count m --k 1200 --n 0", 0, lambda: cnt.r_diag(1200)),
        ("count r --n 10400", 0, lambda: cnt.a_diag_binomial(10400)),
        ("count a --k 2000 --n 2000", 0, lambda: cnt.r_diag(2000)),
        ("count z --n 1500 --k 500", 0, lambda: next(islice(cnt._z_rows(), 1500, None))[500]),
        ("count z --n 100000 --k 3", 0, lambda: cnt.a_long(99997, 3)),
        ("verify --suite triangle --max -1", 2, None),
        ("verify --suite all --max -1", 2, None),
        ("enumerate weighted --cost 3 --limit -1", 2, None),
        ("count r --n 10000000000000000000", 4, None),
        ("asymptotic --n 10000000000000000000", 4, None),
        ("verify --suite diagonal --max 10000000000000000000", 4, None),
        ("verify --suite fibonacci --max 10000000000000000000", 4, None),
    ],
)
def test_no_traceback_in_a_real_process(argv, code, value, no_digit_limit):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "twoline.cli", *argv.split()],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code
    if value is None:
        assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1
    else:
        assert proc.stdout == f"{value()}\n"


class TestStreaming:
    """Every subcommand writes through cli._write, one batch at a time."""

    @pytest.mark.parametrize("kind", ["a", "b", "z"])
    @pytest.mark.parametrize("max_row", [0, 1, 7, 60])
    def test_json_table_equals_json_dumps_of_the_whole(self, capsys, kind, max_row):
        table = {"a": lambda m: cnt.a_table(2 * m), "b": cnt.b_table, "z": cnt.z_table}[kind]
        whole = {"kind": kind, "rows": [list(r) for r in table(max_row).rows]}
        code, out, _ = run(capsys, "table", kind, "--max", str(max_row), "--format", "json")
        assert code == 0 and out == json.dumps(whole) + "\n"

    def test_batches_are_whole_blocks_and_lose_nothing(self):
        pieces = [f"{i:06d}\n" for i in range(30000)] + ["x" * (3 * cli.BATCH_BYTES)] + ["y\n"]
        batches = list(cli._batches(pieces))
        assert "".join(batches) == "".join(pieces)
        assert [len(b) for b in batches[:-1]] == [cli.BATCH_BYTES] * 3 + [3 * cli.BATCH_BYTES]
        assert len(batches[-1]) == len("".join(pieces)) % cli.BATCH_BYTES
        assert list(cli._batches([])) == [""]

    def test_out_file_equals_stdout_across_many_batches(self, capsys, tmp_path):
        argv = ["export", "A051286", "--terms", "1500"]
        _, out, _ = run(capsys, *argv)
        assert len(out) > 4 * cli.BATCH_BYTES
        path = tmp_path / "r.txt"
        assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert path.read_text(encoding="utf-8") == out

    def test_empty_output_still_creates_the_out_file(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        code, _, _ = run(capsys, "enumerate", "matchings", "--k", "2", "--n", "2", "--limit", "0",
                         "--out", str(path))
        assert code == 0 and path.read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize(
        "argv", ["enumerate matchings --k 13 --n 13", "table a --max 2000", "export A051286 --terms 100000"]
    )
    def test_refused_before_the_first_line_writes_nothing(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 4 and out == "" and len(err.splitlines()) == 1
        path = tmp_path / "F"
        code, out, err = run(capsys, *argv.split(), "--out", str(path))
        assert code == 4 and out == "" and len(err.splitlines()) == 1
        assert not path.exists()


@pytest.mark.parametrize(
    "argv, low, high",
    [
        ("table a --max 150 --format csv", 1, 1.5),
        ("table a --max 150 --format bfile", 1, 1.5),
        ("table z --max 400 --format json", 1, 1.5),
        ("export A051286 --terms 3000", 0.95, 1.5),
        ("export A078698 --terms 400", 0.95, 1.5),
        ("export A079487 --terms 60000", 1, 1.5),
        # most b entries lie far below F(k + n), so b's estimate runs high
        ("table b --max 400 --format csv", 2, 4),
        ("export A125250 --terms 60000", 2, 4),
    ],
)
def test_the_size_guard_estimates_the_output(capsys, monkeypatch, argv, low, high):
    """The estimate lies between `low` and `high` times the real size: the
    guard passes a cap of `high` times it and refuses one of `low` times it."""
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    monkeypatch.setattr(cli, "MAX_OUTPUT_BYTES", int(high * len(out)))
    assert run(capsys, *argv.split())[0] == 0
    monkeypatch.setattr(cli, "MAX_OUTPUT_BYTES", int(low * len(out)))
    assert run(capsys, *argv.split())[:2] == (4, "")


def test_fib_digits_bounds_the_digits_of_fibonacci():
    assert all(len(str(cnt.fibonacci(m))) <= cli._fib_digits(m) for m in range(3000))


# run cli.main on the arguments, then print the process's own peak RSS in KiB
PEAK_PROBE = """
import sys
from twoline import cli, families
code = cli.main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
@pytest.mark.parametrize(
    "argv, limit_mb",
    [
        ("table a --max 600 --format bfile", 40),
        ("table z --max 1500 --format csv", 60),
        ("export A051286 --terms 20000", 40),
        ("table b --max 1500", 25),
        ("export A125250 --terms 1100000", 25),
    ],
)
def test_own_peak_memory_of_large_writers(argv, limit_mb):
    """VmHWM, read by the child itself: a waited child's ru_maxrss would also
    count the memory of the process that started it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_PROBE, *argv.split()],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stderr.split()[-1]) / 1024 <= limit_mb


def test_the_probe_over_the_cap_is_refused_under_a_memory_limit():
    """`table a --max 2000` under a 512 MiB address-space limit exits 4 in one line."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "twoline.cli", "table", "a", "--max", "2000"],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap,
    )
    assert proc.returncode == 4 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "512 MiB" in proc.stderr
