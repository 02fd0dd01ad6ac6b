"""The mutant catalogue (``mutants.json``, run by ``mutants.py``) cannot rot:
every old text occurs exactly once in ``src/``, and every killing test exists."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads(Path(__file__).with_name("mutants.json").read_text())


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["id"] for m in MUTANTS])
def test_old_text_occurs_once_in_src(mutant):
    sources = [path.read_text() for path in sorted((ROOT / "src").rglob("*.py"))]
    assert sum(text.count(mutant["old"]) for text in sources) == 1
    assert mutant["old"] in (ROOT / mutant["file"]).read_text()
    assert mutant["new"] != mutant["old"] and mutant["tests"]
    for test_id in mutant["tests"]:
        path, *_, name = test_id.split("::")
        assert f"def {name}(" in (ROOT / path).read_text(), test_id
