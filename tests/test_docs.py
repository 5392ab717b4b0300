"""README names every map, every verify suite and every `enumerate` family, so
none is added undocumented, states the output cap, and names the counter each
`count` family reads."""
import pathlib
import re

import pytest

from twoline import cli, families
from twoline import counting as cnt

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
QUOTED = set(re.findall(r"`([^`\n]+)`", README))


@pytest.mark.parametrize("name", [*cli.MAPS, *families.SUITES, *families.FAMILIES])
def test_readme_names_it_in_backticks(name):
    assert name in QUOTED


def test_readme_states_the_output_cap():
    assert f"over {cli.MAX_OUTPUT_BYTES >> 20} MiB" in README


def count_route_bullets():
    """The bullets after README's "`count` takes one route per family:", each on one line."""
    section = README.split("`count` takes one route per family:\n", 1)[1].split("\n\n", 1)[0]
    return [" ".join(b.split()) for b in section.split("\n* ")]


def test_every_backticked_name_in_the_count_routes_is_in_counting():
    quoted = {re.match(r"\w+", q).group() for b in count_route_bullets() for q in re.findall(r"`([^`]+)`", b)}
    names = quoted - set(cli.COUNTERS)  # the rest are family letters
    assert names and [name for name in sorted(names) if not hasattr(cnt, name)] == []


def test_the_count_routes_name_what_each_family_calls():
    routes = dict(re.findall(r"`(\w+)` reads [^`]*`(\w+)", " ".join(count_route_bullets())))
    assert routes.keys() == cli.COUNTERS.keys()
    for family, name in routes.items():
        assert name in cli.COUNTERS[family][1].__code__.co_names, (family, name)
