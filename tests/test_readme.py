"""The README's library example runs against the current public API."""

import math
import re
import shlex
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


def test_readme_lists_the_keys_each_run_reads():
    from choqbern.experiments import EXPERIMENT_IDS, _reads
    text = README.read_text()
    start = text.index("a run accepts only the keys it reads:")
    stated = {}
    for bullet in text[start:text.index("\n\n", text.index("\n- ", start))].split("\n- ")[1:]:
        label, keys = bullet.split(": ", 1)
        stated[label.strip("`")] = set(re.findall(r"`(\w+)`", keys))
    assert stated.keys() == {"every run", *EXPERIMENT_IDS, "a run with no `capacity` key"}
    for run in EXPERIMENT_IDS:
        reads = stated["every run"] | stated[run]
        assert set(_reads({"experiment": run, "capacity": {}})) == reads, run
        assert set(_reads({"experiment": run})) == \
            reads | stated["a run with no `capacity` key"], run


def test_readme_streaming_sizes_match_the_code():
    from choqbern.experiments import _BLOCK_CELLS, _GEMM_ROWS
    from choqbern.randomfn import _CHUNK_CELLS
    text = README.read_text()
    start = text.index("The sweep streams each degree's samples")
    paragraph = " ".join(text[start:text.index("\n\n", start)].split())
    block = re.search(r"`(\d+) \* max\(1, 2\^(\d+) // \((\d+) \* max\(n \+ 1, g\)\)\)` "
                      r"samples", paragraph)
    chunk = re.search(r"chunks of 2\^(\d+) cells \((\d+) KB\)", paragraph)
    assert block and chunk, "the streaming paragraph names no block or chunk size"
    assert int(block.group(1)) == int(block.group(3)) == _GEMM_ROWS
    assert 2 ** int(block.group(2)) == _BLOCK_CELLS
    assert f"whole {_GEMM_ROWS}-row chunks" in paragraph
    assert f"chunk of {_GEMM_ROWS} rows" in paragraph
    assert f"most {8 * _BLOCK_CELLS // 2 ** 20} MB" in paragraph
    assert 2 ** int(chunk.group(1)) == _CHUNK_CELLS
    assert int(chunk.group(2)) * 1024 == 8 * _CHUNK_CELLS


def test_readme_cli_lines_parse():
    # a flag the CLI drops cannot stay documented
    from choqbern.cli import _build_parser
    text = README.read_text()
    block = re.search(r"## CLI\s*```\n(.*?)```", text, re.S)
    assert block, "README.md has no code block under '## CLI'"
    lines = block.group(1).strip().splitlines()
    assert lines
    for line in lines:
        prog, *argv = shlex.split(line.replace("[", "").replace("]", ""), comments=True)
        assert prog == "choqbern"
        _build_parser().parse_args(argv)  # exits 2 on an unknown flag or value


def test_readme_degree_range_matches_the_code():
    from choqbern.bernstein import N_MAX
    text = README.read_text()
    row = next(line for line in text.splitlines() if line.startswith("| `schedule` |"))
    stated = re.search(r"degrees in \[1, (\d+)\]", row)
    assert stated, "the schedule row states no degree range"
    assert int(stated.group(1)) == N_MAX


def test_readme_capacity_atom_limit_matches_the_code():
    from choqbern.capacity import TABLE_ATOM_LIMIT
    text = README.read_text()
    row = next(line for line in text.splitlines() if line.startswith("| `capacity` |"))
    stated = re.findall(r"at most (\d+) atoms", row)
    assert stated, "the capacity row states no atom limit"
    assert [int(n) for n in stated] == [TABLE_ATOM_LIMIT]
