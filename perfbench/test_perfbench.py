"""Tests of the benchmark's own pieces; they run no timed sweep.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from check import reference_problems, row_problems, sweep_problems
from tracing import Tracer, modulus_cells, self_times
from workloads import WORKLOADS, config_for

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

CSV = ("experiment,n1,n2,p,epsilon,eta,r,measured,bound,pass\n"
       "capacity_convergence,4,4,,,,,0.25,1,true\n"
       "capacity_convergence,4,4,,0.10000000000000001,,,0,2.75,true\n")


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [(0, "outer", None, 0.0, 10.0),
             (1, "child", 0, 1.0, 3.0),
             (2, "child", 0, 2.0, 5.0),   # overlaps the first child
             (3, "leaf", 2, 2.5, 3.5)]
    got = self_times(spans)
    assert got["outer"] == pytest.approx(6.0)
    assert got["child"] == pytest.approx(2.0 + 2.0)
    assert got["leaf"] == pytest.approx(1.0)


def test_modulus_cells_counts_offsets_rows_and_atoms():
    # g=5, windows (2, 1): offsets (0,1); (1,-1..1); (2,-1..1)
    expected = 5 * 4 + (4 * 4 + 4 * 5 + 4 * 4) + (3 * 4 + 3 * 5 + 3 * 4)
    assert modulus_cells(2, 3, 5, (0.5, 0.25)) == 3 * expected
    assert modulus_cells(1, 2, 5, 0.5) == 2 * (4 + 3)


def test_row_check_accepts_passing_rows_and_rejects_failures():
    assert row_problems(CSV) == []
    assert row_problems(CSV.replace("0.25,1,true", "1.5,1,false"))
    assert row_problems(CSV.replace("0.25,1,true", "1.5,1,true"))
    assert row_problems(CSV.replace("experiment,", "exp,", 1))
    assert row_problems(CSV.splitlines()[0] + "\n")


def test_reference_check_allows_ulp_drift_only():
    assert reference_problems(CSV.replace("0.25,", "0.25000000000000006,"), CSV) == []
    assert reference_problems(CSV.replace("0.25,", "0.2500001,"), CSV)
    assert reference_problems(CSV.replace(",4,4,,,", ",4,8,,,"), CSV)
    assert reference_problems(CSV + CSV.splitlines()[1] + "\n", CSV)


def test_sweep_check_needs_exit_zero_and_a_clean_summary():
    ok = json.dumps({"totals": {"failed": 0}})
    assert sweep_problems(0, ok, CSV, CSV) == []
    assert sweep_problems(1, ok, CSV, None)
    assert sweep_problems(0, ok, None, None)
    assert sweep_problems(0, json.dumps({"totals": {"failed": 1}}), CSV, None)


def test_workload_configs_depend_on_the_seed_and_parse():
    from choqbern.experiments import ExperimentConfig
    for name in WORKLOADS:
        assert config_for(name, 3) == config_for(name, 3)
        assert config_for(name, 3) != config_for(name, 4)
        cfg = ExperimentConfig.from_mapping(config_for(name, 3))
        assert cfg.seed == 3


def _sweep(run_cli, config: Path, out: Path) -> str:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = run_cli(["experiment", "--config", str(config), "--out", str(out),
                      "--threads", "1"])
    assert rc == 0
    return out.read_text()


def test_tracing_leaves_output_and_modules_unchanged(tmp_path):
    from choqbern import cli, experiments
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "capacity_convergence",
                                  "family": "affine_noise", "schedule": [4, 16],
                                  "grid_points": 9, "seed": 1}))
    out = tmp_path / "rows.csv"
    before = {name: getattr(experiments, name) for name in dir(experiments)}
    runners = dict(experiments._RUNNERS)
    from_mapping = vars(experiments.ExperimentConfig)["from_mapping"]
    plain = _sweep(cli.run_cli, config, out)

    tracer = Tracer()
    counts = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            traced = _sweep(tracer.wrap("cli.run_cli", cli.run_cli), config, out)
        finally:
            tracer.restore()
        assert traced == plain
        counts.append(dict(tracer.counters))
    assert counts[0] == counts[1]
    assert counts[0]["bernstein.multivariate_grid.calls"] == 2
    assert counts[0]["capacity.subset_table.entries"] == 1 << 5
    names = {span[1] for span in tracer.spans}
    assert {"cli.run_cli", "experiments.runner", "bernstein.basis_matrix"} <= names
    assert {name: getattr(experiments, name) for name in dir(experiments)} == before
    assert experiments._RUNNERS == runners
    assert vars(experiments.ExperimentConfig)["from_mapping"] is from_mapping


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    fake = {"times": [1.0, 1.1, 1.2], "peak_rss_mb": 40.0, "failed": 0, "attempted": 4}
    e2e = run.end_to_end(fake, [0.1, 0.2])
    assert {m["name"] for m in spec["end_to_end"]} == set(e2e)
    for m in spec["end_to_end"]:
        assert e2e[m["name"]]["unit"] == m["unit"]
    layer_names = {m["name"]: m["unit"] for m in spec["per_layer"]}
    fake_layer = {"layer": {name: 0 for name in layer_names}}
    per_layer = run.per_layer(fake_layer)
    assert {name: v["unit"] for name, v in per_layer.items()} == layer_names


def test_without_sources_the_benchmark_exits_nonzero_silently(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mean2d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
