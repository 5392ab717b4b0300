"""Golden CLI corpus: the exit code and the SHA-256 of stdout of fixed requests.

`golden_cli.json` pins what the CLI prints for the README examples, every
count and enumerate family, every map in both directions, every verify suite
in both formats, every export sequence, both asymptotic formats and the
refusal cases.  After a deliberate output change, re-record the hashes with

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

from twoline.cli import main

CORPUS_PATH = pathlib.Path(__file__).with_name("golden_cli.json")
CORPUS = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout digest of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("request_", CORPUS, ids=[" ".join(r["argv"]) for r in CORPUS])
def test_golden_output(request_, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # requests with --out write relative paths
    assert run(request_["argv"]) == (request_["exit"], request_["stdout_sha256"])


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        home = os.getcwd()
        os.chdir(tmp)
        try:
            for req in CORPUS:
                req["exit"], req["stdout_sha256"] = run(req["argv"])
        finally:
            os.chdir(home)
    lines = ",\n".join(json.dumps(req) for req in CORPUS)
    CORPUS_PATH.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_cli.py --record")
    record()
