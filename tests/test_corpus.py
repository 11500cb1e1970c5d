"""Output corpus: every case in corpus/cases.txt keeps its pinned exit code, stdout and stderr.

Each case runs in process through ``crrkit.cli.main`` in a copy of the corpus directory, with
help screens wrapped at 80 columns; argparse's ``--help`` and usage errors end in SystemExit,
whose code is the case's. ``golden/corpus.sha256`` pins each case as its exit code and the
sha256 of its stdout and stderr; ``python tests/corpus/repin.py`` rewrites it from the current
code and prints the cases that moved. ``corpus/same.txt`` holds groups of cases that must print
the same rows, such as one input file and its copy with other line ends or quoting. The cases
and groups live in data files, so that no argv is a literal constant of a test module. Every
stdout line of a json-lines case is strict JSON: no Infinity, -Infinity or NaN token.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import shutil
import warnings
from pathlib import Path

import pytest

from crrkit.cli import main

CORPUS = Path(__file__).parent / "corpus"
MANIFEST = Path(__file__).parent / "golden" / "corpus.sha256"


def cases() -> list[str]:
    lines = (CORPUS / "cases.txt").read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def groups() -> list[list[str]]:
    """The groups of corpus/same.txt: runs of case lines between blank lines."""
    blocks = (CORPUS / "same.txt").read_text(encoding="utf-8").split("\n\n")
    lines = ([line for line in block.splitlines() if not line.startswith("#")] for block in blocks)
    return [group for group in lines if group]


def run_case(line: str) -> tuple[object, str, str]:
    """A case's exit code, stdout and stderr, run in the working directory; the name of a
    numpy warning raised as an error stands for the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(shlex.split(line))
        except SystemExit as exc:
            code = exc.code
        except RuntimeWarning as exc:
            code = type(exc).__name__
    return code, out.getvalue(), err.getvalue()


def pin(line: str, code: object, out: str, err: str) -> str:
    """The manifest line of a case's outcome."""
    digests = (hashlib.sha256(s.encode()).hexdigest() for s in (out, err))
    return " ".join((str(code), *digests, line))


def run_corpus(workdir: Path) -> dict[str, tuple[object, str, str]]:
    """Every case's outcome, in cases.txt order, each run in ``workdir``, a fresh copy of the
    corpus, with numpy warnings raised as errors, as the suite's warning filter raises them."""
    shutil.copytree(CORPUS, workdir)
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(workdir)
    os.environ["COLUMNS"] = "80"  # argparse wraps help and usage to the terminal width
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return {line: run_case(line) for line in cases()}
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory) -> dict[str, tuple[object, str, str]]:
    return run_corpus(tmp_path_factory.mktemp("corpus") / "corpus")


def test_every_case_matches_its_pin(outcomes):
    pinned = MANIFEST.read_text(encoding="utf-8").splitlines()
    assert [line.split(" ", 3)[3] for line in pinned] == cases(), "repin: the case list changed"
    assert len(outcomes) == len(pinned), "a case line appears twice in cases.txt"
    got = [pin(line, *outcome) for line, outcome in outcomes.items()]
    moved = [f"pinned {old}\n   got {new}" for old, new in zip(pinned, got) if old != new]
    assert not moved, "\n".join(moved)


def test_each_group_prints_the_same_rows(outcomes):
    for group in groups():
        assert len(group) > 1 and set(group) <= set(outcomes), f"not a group of cases: {group}"
        rows = {}
        for line in group:
            assert "json-lines" not in shlex.split(line), f"a grouped case prints json: {line}"
            code, out, _ = outcomes[line]
            assert code == 0, f"exit {code}: {line}"
            rows[line] = [row for row in out.splitlines() if not row.startswith("#")]
        first, *others = group
        assert rows[first], f"no rows: {first}"
        for line in others:
            assert rows[line] == rows[first], f"rows differ:\n  {first}\n  {line}"


def _refuse(token: str) -> None:
    raise ValueError(f"{token} is no JSON value")


def test_json_lines_cases_print_strict_json(outcomes):
    json_cases = [line for line in outcomes if "json-lines" in shlex.split(line)]
    assert json_cases, "no json-lines case"
    for line in json_cases:
        for row in outcomes[line][1].splitlines():
            try:
                json.loads(row, parse_constant=_refuse)
            except ValueError as exc:
                pytest.fail(f"{exc}: {line}\n  {row}")
