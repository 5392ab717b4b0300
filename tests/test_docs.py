"""README names every map and every verify suite, so neither is added undocumented,
and it states the output cap."""
import pathlib
import re

import pytest

from twoline import cli, families

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
QUOTED = set(re.findall(r"`([^`\n]+)`", README))


@pytest.mark.parametrize("name", [*cli.MAPS, *families.SUITES])
def test_readme_names_it_in_backticks(name):
    assert name in QUOTED


def test_readme_states_the_output_cap():
    assert f"over {cli.MAX_OUTPUT_BYTES >> 20} MiB" in README
