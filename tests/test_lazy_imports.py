"""Each subcommand imports only the modules it uses.

`twoline` and `twoline.objects` resolve their names on first access (PEP 562),
and `cli` imports the verify, bijection and object layers inside the commands
that call them.  A wrong name in a table entry therefore no longer fails at
import; the tests below resolve every one of them instead.
"""
import os
import pathlib
import subprocess
import sys

import pytest

import twoline
from twoline import cli, families, objects, verify
from twoline.objects import lacing

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# run cli.main on the arguments in a fresh interpreter, then list sys.modules
PROBE = """
import contextlib, io, sys
from twoline import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""

UNUSED_BY_COUNTERS = (
    "twoline.objects", "twoline.bijections", "twoline.verify", "twoline.series",
    "twoline.partsets", "dataclasses",
)


def modules_after(*argv):
    """Exit code of `cli.main(argv)` in a new process, and the modules it loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    code, *modules = proc.stdout.split()
    return int(code), modules


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "a", "--k", "2", "--n", "4"),
        ("table", "a", "--max", "3", "--format", "json"),
        ("export", "A079487", "--terms", "10"),
        ("asymptotic", "--n", "10", "--format", "json"),
    ],
)
def test_counting_commands_load_only_the_counters(argv):
    code, modules = modules_after(*argv)
    assert code == 0
    assert [m for m in modules if m.split(".objects.")[0] in UNUSED_BY_COUNTERS] == []


@pytest.mark.parametrize("suite", ["triangle", "diagonal", "asymptotics", "fibonacci", "bounds"])
def test_suites_of_counts_load_no_objects_or_bijections(suite):
    scale = ("--max", "4") if families.SUITES[suite] is not None else ()
    code, modules = modules_after("verify", "--suite", suite, *scale)
    assert code == 0
    assert [m for m in modules if m.startswith(("twoline.objects", "twoline.bijections"))] == []


def test_a_suite_of_counts_loads_no_dataclasses():
    code, modules = modules_after("verify", "--suite", "diagonal", "--max", "20")
    assert code == 0
    unused = ("dataclasses", "twoline.partsets", "twoline.objects")
    assert [m for m in modules if m.startswith(unused)] == []


# every `enumerate` family at a small size, one map and the suites that build objects
OBJECT_REQUESTS = [
    *(("enumerate", family, "--k", "2", "--n", "2", "--m", "4", "--cost", "4")
      for family in families.FAMILIES),
    ("map", "closed-to-012", "00001110111000"),
    ("verify", "--suite", "all", "--max", "4"),
]


@pytest.mark.parametrize("argv", OBJECT_REQUESTS, ids=" ".join)
def test_object_requests_load_no_dataclasses_or_inspect(argv):
    """The object types are `twoline.frozen.Frozen` subclasses: loading one
    imports neither `dataclasses` nor the `inspect` it would pull in."""
    code, modules = modules_after(*argv)
    assert code == 0
    assert [m for m in modules if m in ("dataclasses", "inspect")] == []


def test_an_enumeration_loads_only_its_family():
    """Paths, closed sets and domino tilings load the module that holds their
    shared search too."""
    for argv, loaded in [
        (("matchings", "--k", "2", "--n", "2"), ["matching", "sums012", "words"]),
        (("motzkin", "--k", "2", "--n", "0"), ["motzkin", "sums012", "words"]),
        (("closedsets", "--m", "5"), ["fence", "sums012", "words"]),
        (("compositions", "--n", "5"), ["compositions", "words"]),
        (("dominoes", "--k", "2", "--n", "2"), ["compositions", "domino", "words"]),
    ]:
        code, modules = modules_after("enumerate", *argv)
        assert code == 0
        objects_loaded = [m for m in modules if m.startswith("twoline.objects.")]
        assert objects_loaded == [f"twoline.objects.{name}" for name in loaded]
        assert "twoline.bijections" not in modules and "twoline.verify" not in modules


def parser_choices(command, option):
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return next(a for a in sub.choices[command]._actions if option in a.option_strings).choices


def test_suite_choices_are_the_verify_suites_in_order():
    assert parser_choices("verify", "--suite") == tuple(verify.SUITES)


def test_mode_choices_are_the_lacing_modes_in_order():
    assert parser_choices("enumerate", "--mode") == lacing.MODES


@pytest.mark.parametrize("family", families.FAMILIES)
def test_every_enumerator_resolves(family):
    args = cli.build_parser().parse_args(
        ["enumerate", family, "--k", "2", "--n", "2", "--m", "4", "--cost", "4"]
    )
    _, _, call, encode, _ = families.FAMILIES[family]
    found = list(call(objects, args))
    assert found and all(isinstance(encode(obj), str) for obj in found)


# one valid object per map, from the golden corpus
MAP_SAMPLES = {
    "closed-to-matching": ("001110",),
    "matching-to-closed": ("U1-U2,L1-L2",),
    "closed-to-012": ("001011",),
    "012-to-closed": ("0+2",),
    "012-to-motzkin": ("1+0+2",),
    "motzkin-to-012": ("UHD",),
    "matching-to-weighted": ("U1-L1,U2-L2",),
    "weighted-to-matching": ("CL",),
    "motzkin-to-chords": ("DHDUUHDDUU",),
    "chords-to-motzkin": ("10:4-8,5-7:1-10,3-9",),
    "split-horizontals": ("U1-L1,U2-U3,L2-L3",),
    "join-horizontals": ("2-3;2-3", "--k", "3", "--n", "3"),
    "s1-to-domino": ("1+2+1",),
    "domino-to-s1": ("VHV",),
    "s1-to-s2": ("1+2+2+1+2+1+2",),
    "s2-to-s1": ("1+5+3+3",),
    "staircase-to-compositions": ("H2,V2,H2,V1",),
    "compositions-to-staircase": ("2+2;2+1",),
}


def test_every_map_has_a_sample():
    assert set(MAP_SAMPLES) == set(cli.MAPS)


@pytest.mark.parametrize("name", cli.MAPS)
def test_every_map_resolves(name, capsys):
    assert cli.main(["map", name, *MAP_SAMPLES[name]]) == 0
    assert capsys.readouterr().out.strip()


def map_text(capsys, name, text):
    """stdout of `map name text`; join-horizontals takes --k and --n from its sample."""
    assert cli.main(["map", name, text, *MAP_SAMPLES[name][1:]]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("pair", families.BIJECTIONS, ids=lambda pair: pair[0])
@pytest.mark.parametrize("there, back", [(0, 1), (1, 0)], ids=["forward", "inverse"])
def test_every_pair_inverts_through_the_text_codecs(pair, there, back, capsys):
    text = MAP_SAMPLES[pair[there]][0]
    image = map_text(capsys, pair[there], text)
    assert map_text(capsys, pair[back], image.rstrip("\n")) == text + "\n"


@pytest.mark.parametrize(
    "package", [twoline, objects], ids=lambda p: p.__name__
)
def test_every_exported_name_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError):
        package.no_such_name
