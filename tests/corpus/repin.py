"""Rewrite tests/golden/corpus.sha256 from the current code and print the cases that moved.

    PYTHONPATH=src python tests/corpus/repin.py

A case moved when its exit code or either digest differs from the old pin, or it is new.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_corpus import MANIFEST, pin, run_corpus  # noqa: E402


def main() -> None:
    old = set(MANIFEST.read_text(encoding="utf-8").splitlines()) if MANIFEST.exists() else set()
    with tempfile.TemporaryDirectory() as workdir:
        outcomes = run_corpus(Path(workdir) / "corpus")
    lines = [pin(line, *outcome) for line, outcome in outcomes.items()]
    MANIFEST.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    moved = [line for line in lines if line not in old]
    for line in moved:
        print(f"moved: {line}")
    print(f"{len(lines)} cases, {len(moved)} moved", file=sys.stderr)


if __name__ == "__main__":
    main()
