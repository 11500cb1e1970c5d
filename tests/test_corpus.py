"""Output corpus: every case in corpus/cases.txt keeps its pinned exit code, stdout and stderr.

Each case runs in process through ``crrkit.cli.main`` in a copy of the corpus directory, with
help screens wrapped at 80 columns; argparse's ``--help`` and usage errors end in SystemExit,
whose code is the case's. ``golden/corpus.sha256`` pins each case as its exit code and the
sha256 of its stdout and stderr; ``python tests/corpus/repin.py`` rewrites it from the current
code and prints the cases that moved. The cases live in the data file, so that no argv is a
literal constant of a test module.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import shutil
from pathlib import Path

from crrkit.cli import main

CORPUS = Path(__file__).parent / "corpus"
MANIFEST = Path(__file__).parent / "golden" / "corpus.sha256"


def cases() -> list[str]:
    lines = (CORPUS / "cases.txt").read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def run_case(line: str) -> str:
    """The manifest line of one case, run in the working directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(shlex.split(line))
        except SystemExit as exc:
            code = exc.code
    digests = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))
    return " ".join((str(code), *digests, line))


def run_corpus(workdir: Path) -> list[str]:
    """Every case's manifest line, each run in ``workdir``, a fresh copy of the corpus."""
    shutil.copytree(CORPUS, workdir)
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(workdir)
    os.environ["COLUMNS"] = "80"  # argparse wraps help and usage to the terminal width
    try:
        return [run_case(line) for line in cases()]
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def test_every_case_matches_its_pin(tmp_path):
    pinned = MANIFEST.read_text(encoding="utf-8").splitlines()
    got = run_corpus(tmp_path / "corpus")
    assert [line.split(" ", 3)[3] for line in pinned] == cases(), "repin: the case list changed"
    moved = [f"pinned {old}\n   got {new}" for old, new in zip(pinned, got) if old != new]
    assert not moved, "\n".join(moved)
