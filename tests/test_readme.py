"""The README's library example runs against the current public API."""

import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text()
    match = re.search(r"## Library example\s*```python\n(.*?)```", text, re.S)
    assert match, "README.md has no python block under '## Library example'"
    return match.group(1)


def test_readme_library_example_runs_and_gives_its_commented_value():
    *setup, last = _library_example().strip().splitlines()
    expr, comment = last.split("#", 1)
    namespace = {}
    exec("\n".join(setup), namespace)
    got = eval(expr, namespace)
    # the comment names the value in math notation, e.g. sqrt(0.5)
    expected = eval(comment.strip(), vars(math).copy())
    assert got == pytest.approx(expected, abs=1e-15)


def test_readme_config_table_lists_the_schema_keys_in_order():
    from choqbern.experiments import _SCHEMA
    text = README.read_text()
    table = text[text.index("| key | type | range | default |"):].split("\n\n", 1)[0]
    keys = re.findall(r"^\| `(\w+)` \|", table, re.M)
    assert keys == list(_SCHEMA)
