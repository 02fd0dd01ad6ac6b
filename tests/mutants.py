"""Opt-in mutation runner for the catalogue in ``mutants.json``.

Each entry is a one-line change to the checking layer: its file, the exact
old text and the new text, and the ids of the tests expected to kill it. For
each mutant the runner copies the tree to a temporary directory, applies the
change there, runs only the named tests, and prints ``killed`` or
``survived`` (``error`` when pytest could not run them). A kill by a
``STREAM_DIGESTS`` test alone does not count: digests are re-pinned by
design, so an entry names a semantic test.

    python tests/mutants.py           # every mutant
    python tests/mutants.py ID ...    # the named ones

Exits 1 unless every mutant run is killed. pytest does not collect this file;
``test_mutants.py`` checks that every old text still occurs exactly once in
``src/``.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = json.loads(Path(__file__).with_name("mutants.json").read_text())


def run(mutant: dict) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        target = tree / mutant["file"]
        text = target.read_text()
        assert text.count(mutant["old"]) == 1, mutant["id"]
        target.write_text(text.replace(mutant["old"], mutant["new"]))
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               *mutant["tests"]], cwd=tree, capture_output=True,
                              env={**os.environ, "PYTHONPATH": str(tree / "src")})
    return {0: "survived", 1: "killed"}.get(done.returncode, "error")


def main(ids: list[str]) -> int:
    chosen = [m for m in CATALOGUE if not ids or m["id"] in ids]
    results = [run(m) for m in chosen]
    for mutant, result in zip(chosen, results):
        print(f"{mutant['id']}: {result}")
    return 0 if chosen and all(r == "killed" for r in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
