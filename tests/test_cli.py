import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from choqbern import Capacity, ConfigError, ExperimentConfig, cli
from choqbern.cli import _load_capacity, parse_config, run_cli
from choqbern.randomfn import FAMILIES, RandomFunction

SQRT_CAP = {
    "atoms": ["a", "b"],
    "repr": {"type": "distorted", "distortion": {"kind": "power", "alpha": 0.5},
             "weights": [0.5, 0.5]},
}

NON_SUBMODULAR_CAP = {
    "atoms": 2,
    "repr": {"type": "table", "values": {"": 0.0, "0": 0.1, "1": 0.1, "0,1": 1.0}},
}

POSSIBILITY_CAP = {
    "atoms": 3,
    "repr": {"type": "possibility", "lambda": [0.5, 1.0, 0.3]},
}


@pytest.fixture
def cap_file(tmp_path):
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(SQRT_CAP))
    return str(path)


def test_integrate_prints_answer(cap_file, capsys):
    code = run_cli(["integrate", "--capacity", cap_file,
                    "--values", "0,1", "--subset", "all"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert float(out) == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert out == format(math.sqrt(0.5), ".17g")


def test_integrate_oracle_and_norm(cap_file, capsys):
    assert run_cli(["integrate", "--capacity", cap_file, "--values", "0,1",
                    "--method", "oracle", "--steps", "100000"]) == 0
    oracle = float(capsys.readouterr().out)
    assert oracle == pytest.approx(math.sqrt(0.5), abs=1e-4)
    assert run_cli(["integrate", "--capacity", cap_file, "--values", "0,1",
                    "--p", "2"]) == 0
    norm = float(capsys.readouterr().out)
    assert norm == pytest.approx(0.5 ** 0.25, abs=1e-12)


def test_integrate_subset(cap_file, capsys):
    assert run_cli(["integrate", "--capacity", cap_file,
                    "--values", "3,9", "--subset", "0"]) == 0
    got = float(capsys.readouterr().out)
    assert got == pytest.approx(3.0 * math.sqrt(0.5), abs=1e-12)


def test_capacity_check_output(tmp_path, capsys):
    path = tmp_path / "pos.json"
    path.write_text(json.dumps(POSSIBILITY_CAP))
    assert run_cli(["capacity-check", "--capacity", str(path)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == '{"monotone": true, "subadditive": true, "submodular": true}'
    assert run_cli(["capacity-check", "--capacity", str(path),
                    "--mode", "exhaustive"]) == 0
    assert json.loads(capsys.readouterr().out)["submodular"] is True


def test_capacity_check_counterexample(tmp_path, capsys):
    path = tmp_path / "tab.json"
    path.write_text(json.dumps({
        "atoms": 2,
        "repr": {"type": "table",
                 "values": {"": 0, "0": 0.1, "1": 0.1, "0,1": 1.0}}}))
    assert run_cli(["capacity-check", "--capacity", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"monotone": True, "subadditive": False, "submodular": False}


def test_bad_capacity_file_is_input_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert run_cli(["capacity-check", "--capacity", missing]) == 2
    assert "missing.json" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["capacity-check", "--capacity", str(bad)]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"atoms": 2, "repr": {"type": "wat"}}))
    assert run_cli(["capacity-check", "--capacity", str(bad2)]) == 2
    assert "wat" in capsys.readouterr().err


# 21 atoms: one more than a 2**M subset table allows
WIDE_CAP = {"atoms": 21, "repr": {"type": "distorted",
                                  "distortion": {"kind": "power", "alpha": 0.5}}}


@pytest.mark.parametrize("spec, mode", [
    (NON_SUBMODULAR_CAP, "analytic"),  # a table has no analytic verdict
    (WIDE_CAP, "exhaustive")])
def test_capacity_check_names_the_mode(tmp_path, capsys, spec, mode):
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(spec))
    assert run_cli(["capacity-check", "--capacity", str(path), "--mode", mode]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --mode: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", [
    5, [], "abc", None, {"repr": 5}, {"atoms": "x", "repr": {"type": "possibility"}},
    {"atoms": 2, "repr": {"type": "table", "values": []}},
    {"atoms": 2, "repr": {"type": "possibility", "lambda": [None, 1]}},
    {"atoms": 2, "repr": {"type": "distorted", "distortion": {"kind": "custom_table"}}},
    # each would parse, to as many atoms as lambda has entries, if iterated
    *[{"atoms": atoms, "repr": {"type": "possibility", "lambda": [1.0] * n}}
      for atoms, n in (("ab", 2), ({"x": 1, "y": 2}, 2), (True, 1))],
    {**SQRT_CAP, "extra": 1},
    # json writes and reads NaN and +-Infinity; the file is refused before a
    # capacity is built, so none is integrated to nan or certified
    {"atoms": 2, "repr": {**SQRT_CAP["repr"], "weights": [math.nan, math.nan]}},
    {"atoms": 2, "repr": {"type": "possibility", "lambda": [math.nan, 1.0]}},
    {"atoms": 2, "repr": {"type": "distorted", "distortion": {
        "kind": "custom_table", "xs": [0, 0.5, 1], "ys": [0, math.nan, 1]}}},
    {"atoms": 1, "repr": {"type": "table", "values": {"": 0, "0": -math.inf}}},
])
@pytest.mark.parametrize("command", [
    ["capacity-check"], ["integrate", "--values", "0,1"],
    ["modulus", "--family", "affine_noise", "--atoms", "2", "--kind", "gamma",
     "--delta", "0.1"]])
def test_malformed_capacity_file_is_input_error(tmp_path, capsys, command, spec):
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(spec))
    assert run_cli([*command, "--capacity", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"capacity file '{path}'" in err
    assert "Traceback" not in err


_LEAF = (st.none() | st.booleans() | st.integers(-2, 6) | st.floats(-2.0, 2.0)
         | st.text(max_size=2) | st.sampled_from(["power", "rational_2t", "0", "0,1"]))
# small atom counts only: a valid capacity is built, and its table has 2^M entries
_VALUE = st.recursive(_LEAF, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(st.text(max_size=2), inner, max_size=3),
                      max_leaves=6)
_CAPACITY = st.fixed_dictionaries(
    {"repr": st.fixed_dictionaries(
        {"type": st.sampled_from(["distorted", "possibility", "table"])},
        optional={"distortion": st.fixed_dictionaries(
                      {"kind": st.sampled_from(["power", "rational_2t", "custom_table"])},
                      optional={"alpha": _VALUE}) | _VALUE,
                  "weights": _VALUE, "lambda": _VALUE, "values": _VALUE})},
    optional={"atoms": st.integers(1, 4) | _VALUE}) | _VALUE


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_CAPACITY)
def test_load_capacity_returns_a_capacity_or_config_error(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cap.json"
        path.write_text(json.dumps(spec))
        try:
            cap = _load_capacity(str(path))
        except ConfigError:
            return
    assert isinstance(cap, Capacity)


def test_modulus_subcommand(capsys):
    assert run_cli(["modulus", "--family", "deterministic:absdev", "--atoms", "2",
                    "--dim", "1", "--kind", "k", "--delta", "0.2",
                    "--grid", "257"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(51.0 / 256.0, abs=1e-15)


def test_modulus_gamma_needs_capacity(capsys):
    assert run_cli(["modulus", "--family", "affine_noise", "--atoms", "3",
                    "--kind", "gamma", "--delta", "0.1"]) == 2
    assert "--capacity" in capsys.readouterr().err


def test_modulus_gamma(cap_file, capsys):
    assert run_cli(["modulus", "--family", "affine_noise", "--atoms", "2",
                    "--dim", "1", "--kind", "gamma", "--capacity", cap_file,
                    "--delta", "0.25", "--p", "2", "--grid", "101"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] > 0.0


# exact stdout of ``modulus --kind gamma`` with the 2-atom sqrt capacity,
# recorded from an eager table over every offset in the window; the value
# prints with 17 significant digits, so a query that skips an offset it
# needs shows here
_GAMMA_STDOUT = [
    (["--family", "affine_noise", "--dim", "1", "--delta", "0.25", "--p", "2",
      "--grid", "101"], 0.25, "0.46283662217297994"),
    (["--family", "affine_noise", "--dim", "2", "--delta", "0.2", "--grid", "9"],
     0.2, "0.24651016296014927"),
    (["--family", "affine_noise", "--dim", "2", "--delta", "0.2", "--delta2", "0.1",
      "--p", "2", "--grid", "9", "--params", '{"z": [0.3, -0.8]}'],
     0.2, "0.12099548286987544"),
    (["--family", "step_noise", "--dim", "2", "--delta", "0.25", "--delta2", "0.5",
      "--p", "2.5", "--grid", "33", "--params", '{"z": [0.7, -0.4]}'],
     0.25, "0.6335819813828043"),
    (["--family", "deterministic:absdev", "--dim", "1", "--delta", "0.5",
      "--grid", "257"], 0.5, "0.5"),
    (["--family", "step_noise", "--dim", "1", "--delta", "0.1", "--p", "2.5",
      "--grid", "101"], 0.1, "0.8705505632961241"),
]


@pytest.mark.parametrize("args, delta, value", _GAMMA_STDOUT)
def test_modulus_gamma_stdout_pinned(cap_file, capsys, args, delta, value):
    assert run_cli(["modulus", "--atoms", "2", "--kind", "gamma",
                    "--capacity", cap_file] + args) == 0
    assert capsys.readouterr().out == (
        f'{{"kind": "gamma", "delta": {delta}, "value": {value}}}\n')


def test_approx_subcommand(capsys):
    assert run_cli(["approx", "--family", "deterministic:absdev", "--atoms", "1",
                    "--dim", "1", "--n", "16"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True
    assert out["sup_error"] <= out["bound"] + 1e-9


def test_stochastic_subcommand_deterministic(capsys):
    args = ["stochastic", "--n", "100", "--seed", "42", "--index", "3",
            "--epsilon", "0.3", "--r", "0.9"]
    assert run_cli(args) == 0
    first = capsys.readouterr().out
    assert run_cli(args) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert 0.0 <= payload["m_n"] <= 1.0
    assert payload["lemma_bound"] > 0.0


# exact stdout recorded with the scalar node-row path; m_n and the bound print
# with 17 significant digits, so any change in a drawn node shows here
_STOCHASTIC_STDOUT = [
    (["--n", "100", "--seed", "42", "--index", "3", "--epsilon", "0.3"],
     '{"n": 100, "seed": 42, "index": 3, "m_n": 0.06244645775160795, '
     '"lemma_bound": 0.0033781070994810445, "exceeds": false}\n'),
    (["--n", "1", "--seed", "0", "--index", "0"],
     '{"n": 1, "seed": 0, "index": 0, "m_n": 0.7584508034372819}\n'),
    (["--n", "1600", "--seed", str(2 ** 64 - 1), "--index", "12345",
      "--epsilon", "0.05", "--r", "0.5", "--distortion", "exp_decay"],
     '{"n": 1600, "seed": 18446744073709551615, "index": 12345, '
     '"m_n": 0.022035701007286856, "lemma_bound": 178.3294083375911, '
     '"exceeds": false}\n'),
]


@pytest.mark.parametrize("args, stdout", _STOCHASTIC_STDOUT)
def test_stochastic_stdout_pinned(capsys, args, stdout):
    assert run_cli(["stochastic"] + args) == 0
    assert capsys.readouterr().out == stdout


def test_list_families(capsys):
    assert run_cli(["list-families"]) == 0
    fams = json.loads(capsys.readouterr().out)
    assert "affine_noise" in fams and "deterministic:absdev" in fams


def _write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_experiment_round_trip_identical_bytes(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "experiment": "stochastic", "family": "affine_noise",
        "schedule": [25], "samples": 300, "epsilons": [0.3],
    })
    out1 = tmp_path / "rows1.csv"
    out2 = tmp_path / "rows2.csv"
    assert run_cli(["experiment", "--config", cfg, "--seed", "42",
                    "--out", str(out1)]) == 0
    summary1 = json.loads(capsys.readouterr().out)
    assert run_cli(["experiment", "--config", cfg, "--seed", "42",
                    "--out", str(out2)]) == 0
    summary2 = json.loads(capsys.readouterr().out)
    assert out1.read_bytes() == out2.read_bytes()
    assert summary1 == summary2
    assert summary1["totals"]["failed"] == 0


def test_experiment_seed_changes_hash(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "experiment": "stochastic", "family": "affine_noise",
        "schedule": [25], "samples": 100})
    run_cli(["experiment", "--config", cfg, "--seed", "1", "--out",
             str(tmp_path / "a.csv")])
    h1 = json.loads(capsys.readouterr().out)["config_hash"]
    run_cli(["experiment", "--config", cfg, "--seed", "2", "--out",
             str(tmp_path / "b.csv")])
    h2 = json.loads(capsys.readouterr().out)["config_hash"]
    assert h1 != h2


def test_run_cli_reuses_one_parser(tmp_path, capsys, monkeypatch):
    parser = cli._build_parser()
    seen = []

    def parse_args(argv):
        seen.append(argv[0])
        return type(parser).parse_args(parser, argv)

    monkeypatch.setattr(parser, "parse_args", parse_args)
    cfg = _write_config(tmp_path, {"experiment": "capacity_convergence", "dim": 1,
                                   "grid_points": 9, "schedule": [4, 16]})
    assert run_cli(["experiment", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
    capsys.readouterr()
    # a refused flag after a sweep still exits 2: each call parses a fresh
    # namespace, and the unread-flag rule reads the parser's own defaults
    assert run_cli(["experiment", "--config", cfg, "--threads", "2"]) == 2
    assert "--threads" in capsys.readouterr().err
    assert run_cli(["stochastic", "--n", "25", "--r", "0.5"]) == 2
    assert capsys.readouterr().err.startswith("error: --r: only --epsilon reads it")
    assert run_cli(["stochastic", "--n", "25"]) == 0
    assert seen == ["experiment", "experiment", "stochastic", "stochastic"]


def test_capacity_schedule_that_goes_down_exits_two(tmp_path, capsys):
    # the trend row bounds each distance by the previous entry's, which means
    # nothing along a decreasing schedule: (64, 16) after (256, 256) failed it
    config = {"experiment": "capacity_convergence", "family": "affine_noise",
              "capacity": {"atoms": 5, "repr": {
                  "type": "possibility", "lambda": [0.5, 0.625, 0.75, 0.875, 1.0]}},
              "dim": 2, "grid_points": 65, "schedule": [4, 16, 64, 256, [64, 16]],
              "seed": 7}
    assert run_cli(["experiment", "--config", _write_config(tmp_path, config)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: key 'schedule': entry [64, 16] lowers a degree of [256, 256]")
    for schedule in ([[16, 4], [4, 16]], [[4, 4], [16, 8], [16, 4]]):
        with pytest.raises(ConfigError, match="^key 'schedule': entry"):
            ExperimentConfig.from_mapping({**config, "schedule": schedule})
    # a degree may stay put, and the mean run keeps C08's schedule
    for schedule in ([4, 4, [4, 16], [64, 16], 64], [[4, 4]]):
        ExperimentConfig.from_mapping({**config, "schedule": schedule})
    c08 = [[4, 4], [16, 16], [64, 64], [16, 4], [64, 16]]
    cfg = ExperimentConfig.from_mapping({"experiment": "mean_convergence",
                                         "schedule": c08})
    assert [list(nv) for nv in cfg.schedule] == c08


def test_experiment_exit_one_on_failing_row(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "experiment": "capacity_convergence", "family": "step_noise", "dim": 1,
        "capacity": {"atoms": 4, "repr": {
            "type": "distorted", "distortion": {"kind": "power", "alpha": 0.5}}},
        "schedule": [4, 6, 9], "epsilons": [0.2], "seed": 1})
    out = tmp_path / "rows.csv"
    assert run_cli(["experiment", "--config", cfg, "--out", str(out)]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["totals"]["failed"] >= 1
    assert "false" in out.read_text()


def test_experiment_bad_config_exit_two(tmp_path, capsys):
    assert run_cli(["experiment", "--config", str(tmp_path / "none.json")]) == 2
    cfg = _write_config(tmp_path, {"experiment": "mean_convergence", "p": 0.5})
    assert run_cli(["experiment", "--config", cfg]) == 2
    assert "'p'" in capsys.readouterr().err
    cfg2 = _write_config(tmp_path, {"experiment": "stochastic",
                                    "rs": [1.0]}, "r.json")
    assert run_cli(["experiment", "--config", cfg2]) == 2
    assert "'rs'" in capsys.readouterr().err
    cfg3 = _write_config(tmp_path, {"experiment": "stochastic",
                                    "tau": {"kind": "const", "scale": 0.2}},
                         "tau.json")
    assert run_cli(["experiment", "--config", cfg3]) == 2
    assert "tau(n) >= 1" in capsys.readouterr().err
    # json.dumps writes NaN, which json reads; the file is refused before parsing
    cfg4 = _write_config(tmp_path, {"experiment": "capacity_convergence", "family": {
        "name": "affine_noise", "params": {"z": [math.nan, 1, 0, 0, 0]}}}, "nan.json")
    assert run_cli(["experiment", "--config", cfg4]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: config file '{cfg4}': NaN is not a finite number")


def test_experiment_stdout_csv(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "experiment": "stochastic", "family": "affine_noise",
        "schedule": [25], "samples": 100})
    assert run_cli(["experiment", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("experiment,n1,n2,p,epsilon,eta,r,measured,bound,pass")
    assert out.rstrip().endswith("}")  # JSON summary on the last line


def test_modulus_sample_kind(capsys):
    assert run_cli(["modulus", "--family", "affine_noise", "--atoms", "3",
                    "--dim", "1", "--kind", "sample", "--delta", "0.1",
                    "--atom", "1", "--grid", "101"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] >= 0.0


def test_threads_env_var(tmp_path, capsys, monkeypatch):
    # CHOQBERN_THREADS is not read: setting it changes no byte of the rows
    cfg = _write_config(tmp_path, {
        "experiment": "capacity_convergence", "family": "affine_noise",
        "schedule": [4, 16]})
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli(["experiment", "--config", cfg, "--out", str(a)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("CHOQBERN_THREADS", "2")
    assert run_cli(["experiment", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_threads_flag(tmp_path, capsys):
    # sweeps set their own threads: --threads 1 changes no byte, any other value
    # is an input error, and so is a library caller's workers other than 1
    cfg = _write_config(tmp_path, {
        "experiment": "capacity_convergence", "family": "affine_noise",
        "schedule": [4, 16]})
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli(["experiment", "--config", cfg, "--out", str(a)]) == 0
    capsys.readouterr()
    assert run_cli(["experiment", "--config", cfg, "--out", str(b),
                    "--threads", "1"]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    for bad in ("0", "-2", "2"):
        c = tmp_path / f"c{bad}.csv"
        assert run_cli(["experiment", "--config", cfg, "--out", str(c),
                        "--threads", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --threads: ")
        assert "Traceback" not in err
        assert not c.exists()
    assert parse_config(cfg, workers=1).raw == parse_config(cfg).raw
    with pytest.raises(ValueError, match="^workers: "):
        parse_config(cfg, workers=2)


@pytest.mark.parametrize("flag, env, name", [
    ("0", None, "--threads"),
    ("-2", None, "--threads"),
    ("0", "4", "--threads"),  # CHOQBERN_THREADS is not read
])
def test_bad_worker_threads_is_input_error(tmp_path, capsys, monkeypatch,
                                           flag, env, name):
    cfg = _write_config(tmp_path, {"experiment": "capacity_convergence",
                                   "schedule": [4], "grid_points": 9})
    monkeypatch.delenv("CHOQBERN_THREADS", raising=False)
    if env is not None:
        monkeypatch.setenv("CHOQBERN_THREADS", env)
    out = tmp_path / "rows.csv"
    argv = ["experiment", "--config", cfg, "--out", str(out), "--threads", flag]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert name in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("payload, key", [
    ({"experiment": "stochastic", "deltas": None}, "deltas"),
    ({"experiment": "mean_convergence", "atoms": None}, "atoms"),
    ({"experiment": "mean_convergence", "schedule": [None]}, "schedule"),
    ({"experiment": "stochastic", "tau": {"kind": "log", "scale": None}}, "tau"),
    ({"experiment": "stochastic", "capacity": []}, "capacity"),
    ({"experiment": "mean_convergence", "schedule": "abc"}, "schedule"),
    ({"experiment": "mean_convergence", "family_params": "abc"}, "family_params"),
    ({"experiment": "stochastic", "degenerate_nodes": "no"}, "degenerate_nodes"),
    ({"experiment": "mean_convergence", "p": "12"}, "p"),
    ({"experiment": "stochastic", "schedule": [4.9]}, "schedule"),
    ({"experiment": "mean_convergence", "grid_points": 5.7}, "grid_points"),
    ({"experiment": "stochastic", "samples": True}, "samples"),
    ({"experiment": "capacity_convergence", "dim": "2"}, "dim"),
    ({"experiment": "mean_convergence", "workers": -3}, "workers"),
    ({"experiment": "mean_convergence", "shedule": [4]}, "shedule"),
    ({"experiment": "stochastic", "seed": -1}, "seed"),
    ({"experiment": "stochastic", "seed": 2 ** 64}, "seed"),
    ({"experiment": "capacity_convergence",
      "family": {"name": "affine_noise", "params": {"scale": None}}}, "family"),
    ({"experiment": "capacity_convergence", "family_params": {"z": [1, 2]}},
     "family_params"),
    ({"experiment": "stochastic", "family": "step_noise"}, "family"),
    ({"experiment": "mean_convergence",
      "family": {"name": "affine_noise", "params": {"bogus": 1}}}, "family"),
    ({"experiment": "mean_convergence", "family_params": {"bogus": 1}},
     "family_params"),
    # the hypotheses of each run's estimate
    ({"experiment": "mean_convergence", "dim": 1, "schedule": [4, 8]}, "dim"),
    ({"experiment": "mean_convergence", "capacity": NON_SUBMODULAR_CAP}, "capacity"),
    ({"experiment": "possibility_convergence", "capacity": {"atoms": 3, "repr": {
        "type": "distorted", "distortion": {"kind": "rational_2t"}}}}, "capacity"),
    ({"experiment": "capacity_convergence", "capacity": NON_SUBMODULAR_CAP}, "capacity"),
    # atoms is an atom count or a label list, nothing else that iterates
    *[({"experiment": run, "capacity": {"atoms": atoms, "repr": {
        "type": "distorted", "distortion": {"kind": "rational_2t"}}}}, "capacity")
      for run in ("capacity_convergence", "stochastic")
      for atoms in ("abc", {"x": 1, "y": 2}, True)],
    # degrees finer than the grid, and subset tables past 20 atoms
    ({"experiment": "stochastic", "grid_points": 9, "schedule": [100]}, "schedule"),
    ({"experiment": "possibility_convergence", "grid_points": 9, "schedule": [100]},
     "schedule"),
    ({"experiment": "mean_convergence", "grid_points": 9, "schedule": [[100, 100]]},
     "schedule"),
    ({"experiment": "mean_convergence", "atoms": 24}, "capacity"),
    ({"experiment": "capacity_convergence", "atoms": 24}, "capacity"),
    # degrees beyond bernstein.N_MAX, which even the capacity run cannot take
    ({"experiment": "capacity_convergence", "dim": 1, "grid_points": 9,
      "schedule": [200000]}, "schedule"),
    # a nested object refuses a key that nothing reads
    ({"experiment": "capacity_convergence", "capacity": {"atoms": 2, "repr": {
        **SQRT_CAP["repr"], "weight": [0.9, 0.1]}}}, "capacity"),
    ({"experiment": "capacity_convergence",
      "family": {"name": "affine_noise", "parms": {"scale": 5}}}, "family"),
    ({"experiment": "stochastic", "tau": {"kind": "sqrt", "scal": 8}}, "tau"),
    # a list of numbers must hold one
    ({"experiment": "mean_convergence", "p": [], "grid_points": 9,
      "schedule": [[4, 4]]}, "p"),
    *[({"experiment": "capacity_convergence" if key == "etas" else "stochastic", key: []},
       key) for key in ("deltas", "epsilons", "etas", "rs")],
    # finite parameters whose products overflow on the grid: every comparison
    # with the nan they give is false, so the event rows would pass
    ({"experiment": "stochastic",
      "family": {"name": "affine_noise", "params": {"scale": 1e308, "amp": 1e308}}},
     "family"),
])
def test_experiment_bad_value_names_its_key(tmp_path, capsys, payload, key):
    cfg = _write_config(tmp_path, payload)
    assert run_cli(["experiment", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: key '{key}': ")
    assert "Traceback" not in err


def test_a_wide_table_that_is_not_submodular_exits_2(tmp_path, capsys):
    # supermodular on 13 atoms: refused for what it is, not for its size
    values = {",".join(str(i) for i in range(13) if mask >> i & 1):
              (bin(mask).count("1") / 13) ** 2 for mask in range(1 << 13)}
    cfg = _write_config(tmp_path, {"experiment": "mean_convergence", "capacity": {
        "atoms": 13, "repr": {"type": "table", "values": values}}})
    assert run_cli(["experiment", "--config", cfg]) == 2
    assert capsys.readouterr().err == \
        "error: key 'capacity': capacity is not submodular\n"


def test_out_of_memory_exits_two_naming_the_size_inputs(tmp_path, capsys,
                                                      monkeypatch):
    from choqbern import experiments

    def runner(cfg):
        raise MemoryError("Unable to allocate 1.00 TiB")
    monkeypatch.setitem(experiments._RUNNERS, "capacity_convergence", runner)
    cfg = _write_config(tmp_path, {"experiment": "capacity_convergence"})
    assert run_cli(["experiment", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory")
    for name in ("grid_points", "samples", "schedule", "--grid"):
        assert name in err
    assert "Traceback" not in err


def test_experiment_unbounded_family_names_its_key(tmp_path, capsys, monkeypatch):
    def build(m, dim, params):
        return RandomFunction(m, dim, lambda pts, w: np.mean(pts, axis=-1),
                              name="unbounded", m_sup=None)
    monkeypatch.setitem(FAMILIES, "_unbounded", build)
    cfg = _write_config(tmp_path, {"experiment": "capacity_convergence",
                                   "family": "_unbounded", "schedule": [4]})
    assert run_cli(["experiment", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: key 'family': ")


def test_experiment_and_stochastic_print_one_slope_message(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"experiment": "stochastic", "capacity": {
        "repr": {"type": "distorted", "distortion": {"kind": "power"}}}})
    assert run_cli(["experiment", "--config", cfg]) == 2
    from_config = capsys.readouterr().err
    assert run_cli(["stochastic", "--n", "5", "--epsilon", "0.1",
                    "--distortion", "power"]) == 2
    from_flag = capsys.readouterr().err
    assert from_config.startswith("error: key 'capacity': ")
    assert from_flag.startswith("error: --distortion: ")
    assert (from_config.removeprefix("error: key 'capacity': ")
            == from_flag.removeprefix("error: --distortion: "))


@pytest.mark.parametrize("flag, value", [("--seed", -1), ("--index", 2 ** 64)])
def test_stochastic_seed_outside_64_bits_is_input_error(capsys, flag, value):
    assert run_cli(["stochastic", "--n", "5", flag, str(value)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ")
    assert str(value) in err and "2**64" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("params", ["5", "[1]", '{"scale": null}', '{"bogus": 1}'])
@pytest.mark.parametrize("command", [
    ["modulus", "--kind", "sample", "--delta", "0.1"], ["approx", "--n", "4"]])
def test_params_must_be_a_family_object(capsys, command, params):
    assert run_cli(command + ["--family", "affine_noise", "--atoms", "3",
                              "--grid", "9", "--params", params]) == 2
    err = capsys.readouterr().err
    assert "--params" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, flag", [
    (["--grid", "0"], "--grid"), (["--grid", "1"], "--grid"),
    (["--atom", "5"], "--atom"), (["--atom", "-1"], "--atom")])
@pytest.mark.parametrize("command", [
    ["modulus", "--kind", "sample", "--delta", "0.1"], ["approx", "--n", "4"]])
def test_modulus_and_approx_check_grid_and_atom(capsys, command, flags, flag):
    assert run_cli(command + ["--family", "affine_noise", "--atoms", "5"] + flags) == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err


@pytest.mark.parametrize("dim", ["0", "3"])
@pytest.mark.parametrize("command", [
    ["modulus", "--kind", "sample", "--delta", "0.1"], ["approx", "--n", "4"]])
def test_modulus_and_approx_dim_is_1_or_2(capsys, command, dim):
    # argparse refuses the value: exit 2, naming the flag
    with pytest.raises(SystemExit) as exc:
        run_cli(command + ["--family", "affine_noise", "--dim", dim])
    assert exc.value.code == 2
    assert "--dim" in capsys.readouterr().err


_MODULUS = ["modulus", "--family", "affine_noise", "--atoms", "2", "--grid", "9"]


@pytest.mark.parametrize("command, flag", [
    (["integrate", "--values", "a,b"], "--values"),
    (["integrate", "--values", "1,2,3"], "--values"),
    (["integrate", "--values", "1,2", "--subset", "7"], "--subset"),
    (["integrate", "--values", "1,2", "--method", "oracle", "--steps", "0"], "--steps"),
    (["integrate", "--values", "1,2", "--p", "20"], "--p"),
    (_MODULUS + ["--kind", "sample", "--delta", "inf"], "--delta"),
    (_MODULUS + ["--kind", "k", "--delta", "-0.1"], "--delta"),
    (_MODULUS + ["--kind", "gamma", "--delta", "0.1", "--delta2", "0.2"], "--delta2"),
    (_MODULUS + ["--kind", "gamma", "--dim", "2", "--delta", "0.1", "--delta2", "nan"],
     "--delta2"),
    (_MODULUS + ["--kind", "gamma", "--delta", "0.1", "--p", "0.5"], "--p"),
    (_MODULUS + ["--kind", "sample", "--delta", "0.1", "--atoms", "0"], "--atoms"),
    (_MODULUS + ["--kind", "k", "--dim", "2", "--delta", "0.1"], "--dim"),
    # non-finite parameters, given or from an overflow on the grid
    (_MODULUS + ["--kind", "k", "--delta", "0.1", "--params", '{"z": [NaN, 1]}'],
     "--params"),
    (_MODULUS + ["--kind", "sample", "--delta", "0.1", "--atom", "1",
                 "--params", '{"scale": 1e308, "amp": 1e308}'], "--params"),
    # --p is the norm over every atom by the sorted formula
    (["integrate", "--values", "1,2", "--p", "2", "--subset", "0"], "--subset"),
    (["integrate", "--values", "1,2", "--p", "2", "--method", "oracle"], "--method"),
    (_MODULUS + ["--kind", "gamma", "--delta", "0.1", "--atoms", "3"], "--atoms"),
])
def test_integrate_and_modulus_name_the_bad_flag(cap_file, capsys, command, flag):
    assert run_cli(command + ["--capacity", cap_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", [None, WIDE_CAP])
def test_gamma_modulus_names_the_capacity(tmp_path, capsys, spec):
    # a missing capacity file, then one too wide for its subset table
    command = _MODULUS + ["--kind", "gamma", "--delta", "0.1", "--atoms", "21"]
    if spec is not None:
        path = tmp_path / "cap.json"
        path.write_text(json.dumps(spec))
        command += ["--capacity", str(path)]
    assert run_cli(command) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --capacity: ")
    assert "Traceback" not in err


_APPROX = ["approx", "--family", "affine_noise", "--grid", "9"]
_K_MODULUS = ["modulus", "--family", "affine_noise", "--grid", "9", "--kind", "k",
              "--delta", "0.1"]


@pytest.mark.parametrize("command, flag", [
    (["integrate", "--capacity", "CAP", "--values", "0,1", "--steps", "0"], "--steps"),
    (["integrate", "--capacity", "CAP", "--values", "0,1", "--p", "2", "--steps", "5"],
     "--steps"),
    (_K_MODULUS + ["--p", "0.5", "--capacity", "nonexist.json"], "--capacity"),
    (_K_MODULUS + ["--p", "0.5"], "--p"),
    (_K_MODULUS + ["--atom", "3"], "--atom"),
    (_MODULUS + ["--kind", "gamma", "--delta", "0.1", "--capacity", "CAP", "--atom", "1"],
     "--atom"),
    (_MODULUS + ["--kind", "sample", "--delta", "0.1", "--capacity", "CAP"], "--capacity"),
    (["stochastic", "--n", "5", "--r", "7", "--distortion", "nope"], "--r"),
    (["stochastic", "--n", "5", "--distortion", "exp_decay"], "--distortion"),
])
def test_a_flag_the_mode_does_not_read_is_refused(cap_file, capsys, command, flag):
    assert run_cli([cap_file if a == "CAP" else a for a in command]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {flag}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    _K_MODULUS + ["--atom", "0", "--p", "1"],
    ["stochastic", "--n", "5", "--r", "0.9", "--distortion", "rational_2t"],
    ["integrate", "--capacity", "CAP", "--values", "0,1", "--steps", "1000000"]])
def test_an_unread_flag_at_its_default_is_accepted(cap_file, capsys, command):
    assert run_cli([cap_file if a == "CAP" else a for a in command]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("command, flag", [
    (["stochastic", "--n", "0"], "--n"),
    (["stochastic", "--n", "5", "--epsilon", "-1"], "--epsilon"),
    (["stochastic", "--n", "5", "--epsilon", "0.1", "--r", "1.5"], "--r"),
    (["stochastic", "--n", "5", "--epsilon", "0.1", "--distortion", "nope"],
     "--distortion"),
    (["stochastic", "--n", "5", "--epsilon", "0.1", "--distortion", "power"],
     "--distortion"),
    (_APPROX + ["--n", "0"], "--n"),
    (_APPROX + ["--n", "4", "--n2", "4", "--dim", "1"], "--n2"),
    (_APPROX + ["--n", "4", "--n2", "0", "--dim", "2"], "--n2"),
    (_APPROX + ["--n", "4", "--atoms", "0"], "--atoms"),
    # 1/sqrt(n) below one step of the 9-point grid: n > 8**2
    (_APPROX + ["--n", "65"], "--n"),
    (_APPROX + ["--n", "65", "--n2", "100", "--dim", "2"], "--n"),
    (_APPROX + ["--n", "100", "--n2", "65", "--dim", "2"], "--n2"),
    # non-finite inputs, which would print NaN, and NaN is not JSON
    (["stochastic", "--n", "5", "--epsilon", "nan"], "--epsilon"),
    (_APPROX + ["--n", "4", "--params", '{"z": [NaN, 1, 0, 0, 0]}'], "--params"),
    (_APPROX + ["--n", "4", "--params", '{"scale": -Infinity}'], "--params"),
    # finite parameters whose products overflow on the grid
    (_APPROX + ["--n", "4", "--atom", "4", "--params", '{"scale": 1e308, "amp": 1e308}'],
     "--params"),
    # a degree is an integer in [1, 100000] for every command
    (["stochastic", "--n", "100001"], "--n"),
])
def test_stochastic_and_approx_name_the_bad_flag(capsys, command, flag):
    assert run_cli(command) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [
    # n = (grid - 1)**2 is the finest degree the 9-point grid resolves
    ["approx", "--n", "64"], ["approx", "--n", "64", "--n2", "100", "--dim", "2"],
    # only the K modulus is 1-d
    ["modulus", "--kind", "sample", "--dim", "2", "--delta", "0.2"],
    ["modulus", "--kind", "gamma", "--dim", "2", "--delta", "0.2", "--capacity", "CAP"]])
def test_finest_approx_degree_and_2d_moduli_run(cap_file, capsys, flags):
    flags = [cap_file if f == "CAP" else f for f in flags]
    flags += ["--family", "affine_noise", "--atoms", "2", "--grid", "9"]
    assert run_cli(flags) == 0
    assert json.loads(capsys.readouterr().out)


def test_importing_the_cli_loads_no_pool_logging_or_subprocess():
    # the benchmark's set-up time is the import plus one config parse
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    code = ("import sys, choqbern.cli; print(sorted({'concurrent.futures', 'logging', "
            "'subprocess'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
