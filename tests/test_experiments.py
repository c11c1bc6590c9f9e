import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from choqbern import (ConfigError, ExperimentConfig, InputError, make_distorted,
                      make_distortion, make_possibility, make_table, run_experiment,
                      semi_metric)
from choqbern import experiments
from choqbern.bernstein import multivariate_grid
from choqbern.capacity import TOL, subset_table
from choqbern.choquet import integral_batch, powered_integrals, sorted_levels
from choqbern.cli import run_cli
from choqbern.experiments import (EXPERIMENT_IDS, ROW_TOLERANCE, _SCHEMA, _reads,
                                  _cp_sup, _cp_sup_direct, _sample_errors,
                                  run_capacity_convergence, run_mean_convergence,
                                  run_possibility_convergence,
                                  run_stochastic_experiment, tau_value)
from choqbern.randomfn import FAMILIES, Grid, RandomFunction, build_family
from conftest import random_capacity


def _cfg(overrides):
    base = {"experiment": "mean_convergence", "family": "affine_noise"}
    base.update(overrides)
    return ExperimentConfig.from_mapping(base)


def test_minimal_config_defaults():
    cfg = _cfg({})
    assert cfg.schedule == [(4, 4), (16, 16), (64, 64)]
    assert cfg.p == (1.0,)
    assert cfg.grid_points == 65
    assert cfg.capacity is not None
    cfg_s = ExperimentConfig.from_mapping({"experiment": "stochastic"})
    assert cfg_s.capacity.form.distortion.kind == "rational_2t"
    assert cfg_s.dim == 1
    assert cfg_s.schedule == [(25,), (100,), (400,)]  # 1-D entries are tuples too
    assert cfg_s.family.name == "affine_noise" and cfg_s.family.dim == 1


def test_config_rejections():
    with pytest.raises(ConfigError, match="experiment"):
        ExperimentConfig.from_mapping({})
    with pytest.raises(ConfigError, match="unknown experiment"):
        _cfg({"experiment": "nope"})
    with pytest.raises(ConfigError, match="'p'"):
        _cfg({"p": 0.5})
    with pytest.raises(ConfigError, match="'rs'"):
        ExperimentConfig.from_mapping({"experiment": "stochastic", "rs": [1.0]})
    with pytest.raises(ConfigError, match="family"):
        _cfg({"family": "nonexistent"})  # surfaces at run time otherwise
    with pytest.raises(ConfigError, match="schedule"):
        _cfg({"schedule": []})
    with pytest.raises(ConfigError, match="capacity"):
        _cfg({"capacity": {"repr": {"type": "distorted",
                                    "distortion": {"kind": "bogus"}}}})
    # a non-finite number anywhere in a library caller's dict names its key
    with pytest.raises(ConfigError, match="^key 'capacity': NaN is not a finite number"):
        _cfg({"capacity": {"atoms": 2, "repr": {
            "type": "distorted", "weights": [math.nan, math.nan],
            "distortion": {"kind": "power", "alpha": 0.5}}}})
    with pytest.raises(ConfigError, match="^key 'family': Infinity is not a finite"):
        _cfg({"family": {"name": "affine_noise", "params": {"scale": math.inf}}})
    # finite parameters whose products overflow on the grid
    with pytest.raises(ConfigError, match="^key 'family': family 'affine_noise' "
                                          "is not finite on the 65-point grid"):
        _cfg({"family": {"name": "affine_noise",
                         "params": {"scale": 1e308, "amp": 1e308}}})


def test_config_family_resolution_checked_at_parse_time():
    with pytest.raises(ConfigError, match="nonexistent"):
        _cfg({"family": {"name": "nonexistent"}})


# the keys each run reads besides seed, grid_points, capacity, family and
# schedule, which every run reads, and atoms, which sizes a default capacity
_OWN = {"mean_convergence": {"p"},
        "capacity_convergence": {"dim", "epsilons", "etas"},
        "possibility_convergence": {"dim", "epsilons"},
        "stochastic": {"samples", "degenerate_nodes", "atoms", "deltas", "epsilons",
                       "rs", "tau"}}
_EVERY_RUN = {"seed", "grid_points", "capacity", "family", "schedule"}
_THREE_ATOMS = {"mean_convergence": {"atoms": 3, "repr": {
                    "type": "distorted", "distortion": {"kind": "power", "alpha": 0.5}}},
                "possibility_convergence": {"atoms": 3, "repr": {
                    "type": "possibility", "lambda": [0.5, 1.0, 0.3]}}}
_THREE_ATOMS["capacity_convergence"] = _THREE_ATOMS["mean_convergence"]


def _defaults(run: str) -> dict:
    """Every key of a ``run`` config, each set to its default as JSON."""
    config = {"experiment": run}
    for key, (_, _, default, _) in _SCHEMA.items():
        config[key] = default(config) if callable(default) else default
    return config


_UNREAD = [({"experiment": run, key: _defaults(run)[key]}, key)
           for run in EXPERIMENT_IDS for key in _SCHEMA
           if key not in _EVERY_RUN | _OWN[run] | {"atoms"}]
# a capacity as written holds its own atom count, which atoms would contradict
_UNREAD += [({"experiment": run, "capacity": capacity, "atoms": 5}, "atoms")
            for run, capacity in _THREE_ATOMS.items()]


@pytest.mark.parametrize("config, key", _UNREAD,
                         ids=[f"{c['experiment']}-{k}" + ("-capacity" * ("capacity" in c))
                              for c, k in _UNREAD])
def test_a_key_the_run_does_not_read_is_refused(tmp_path, capsys, config, key):
    # even at its default, which is the value the run would use
    with pytest.raises(ConfigError, match=f"^key '{key}': not read by this "
                                          f"{config['experiment']} run") as err:
        ExperimentConfig.from_mapping(config)
    assert "(it reads: experiment, seed," in str(err.value)
    path, out = tmp_path / "config.json", tmp_path / "rows.csv"
    path.write_text(json.dumps(config))
    assert run_cli(["experiment", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: key '{key}': ")
    assert not out.exists()


@pytest.mark.parametrize("run", EXPERIMENT_IDS)
def test_a_run_accepts_every_key_it_reads(run):
    # each at its default parses to the values of the bare config
    bare = ExperimentConfig.from_mapping({"experiment": run})
    full = {key: value for key, value in _defaults(run).items()
            if key in _EVERY_RUN | _OWN[run] | {"experiment", "atoms"}}
    # elsewhere a capacity as written takes the place of atoms
    configs = [full] if run == "stochastic" else [
        {k: v for k, v in full.items() if k != drop} for drop in ("atoms", "capacity")]
    grid = Grid(bare.dim, bare.grid_points)
    for config in configs:
        cfg = ExperimentConfig.from_mapping(config)
        for field in dataclasses.fields(cfg):
            if field.name not in ("raw", "capacity", "family"):
                assert getattr(cfg, field.name) == getattr(bare, field.name), field.name
        assert np.array_equal(subset_table(cfg.capacity), subset_table(bare.capacity))
        assert np.array_equal(cfg.family.grid_tensor(grid), bare.family.grid_tensor(grid))


def test_tau_catalog():
    assert tau_value({"kind": "log", "scale": 4.0}, 100) == \
        pytest.approx(4.0 * math.log(101.0))
    assert tau_value({"kind": "sqrt", "scale": 2.0}, 16) == 8.0
    assert tau_value({"kind": "const", "scale": 3.0}, 7) == 3.0
    with pytest.raises(ConfigError, match="tau\\(n\\) >= 1"):
        ExperimentConfig.from_mapping({"experiment": "stochastic",
                                       "tau": {"kind": "const", "scale": 0.5}})
    with pytest.raises(ConfigError, match="tau"):
        ExperimentConfig.from_mapping({"experiment": "stochastic",
                                       "schedule": [4],
                                       "tau": {"kind": "sqrt", "scale": 3.0}})
    with pytest.raises(ConfigError, match="kind"):
        ExperimentConfig.from_mapping({"experiment": "stochastic",
                                       "tau": {"kind": "poly"}})


@pytest.mark.parametrize("tau", [{"kind": "bogus"}, {"scale": 2.0}])
def test_tau_value_owns_the_kind_rule(tmp_path, capsys, tau):
    # an input error, like every other library refusal, that names the kinds
    with pytest.raises(InputError, match=r"unknown tau kind .*'log', 'sqrt', 'const'"):
        tau_value(tau, 3)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "stochastic", "tau": tau}))
    assert run_cli(["experiment", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: key 'tau': unknown tau kind ") and "'sqrt'" in err


def test_stochastic_rejects_infinite_slope():
    with pytest.raises(ConfigError, match="slope|power"):
        ExperimentConfig.from_mapping({
            "experiment": "stochastic",
            "capacity": {"repr": {"type": "distorted",
                                  "distortion": {"kind": "power", "alpha": 0.5}}},
        })


def test_config_hash_tracks_seed():
    a = _cfg({"seed": 1}).config_hash()
    b = _cfg({"seed": 2}).config_hash()
    assert a != b
    assert _cfg({"seed": 1}).config_hash() == a


def _perfbench_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_config_hash_pinned():
    # summaries carry config_hash, so these values pin the summary bytes
    defaults = {"mean_convergence": "2671b1d43cb6f16c",
                "capacity_convergence": "ce1087f7aa4141fb",
                "possibility_convergence": "4e0eb10d6ecef9eb",
                "stochastic": "a2d12b270728f116"}
    for experiment, expected in defaults.items():
        cfg = ExperimentConfig.from_mapping({"experiment": experiment})
        assert cfg.config_hash() == expected
    workloads = _perfbench_workloads()
    for name, expected in (("mean2d", "abf2c93c36236a76"),
                           ("capconv_wide", "9b80bc7128186d30"),
                           ("stoch_wide", "7129d52f3a4f8e32")):
        cfg = ExperimentConfig.from_mapping(workloads.config_for(name, 0))
        assert cfg.config_hash() == expected


# Small sweeps of the runners no perfbench reference covers; the digests are
# sha256 of their CSV, so a change to any row's bytes fails here.
_PINNED_SWEEPS = [
    ({"experiment": "possibility_convergence", "dim": 1, "schedule": [4, [16], 64],
      "epsilons": [0.05, 0.1, 0.3]},
     "f65bb79015d21f902105f128b9226dda97e99fc6784fa6090e24d624451c3019"),
    ({"experiment": "possibility_convergence", "dim": 2, "schedule": [4, [16, 4], 64],
      "epsilons": [0.05, 0.1, 0.3]},
     "050ca25817f757534aa1ff58a3e2747aced01f98db23ebb36f9f0a178a2844d6"),
    ({"experiment": "capacity_convergence", "dim": 1, "schedule": [4, [16], 64],
      "epsilons": [0.02, 0.1], "etas": [0.05, 0.5]},
     "d0e236fd01c2f3b9f39cc3197196ae71125a2424e93eba3e5398d7e7c3265a8c"),
    # the perfbench reference allows 1e-9 relative drift on 2-D capacity rows;
    # these two do not.  Possibility levels against noise amplitudes that fall
    # with the level give capacities strictly between 0 and 1 ...
    ({"experiment": "capacity_convergence", "dim": 2, "grid_points": 17,
      "family": {"name": "affine_noise", "params": {
          "z": [(-1) ** i * (16 - i) / 16 for i in range(16)], "scale": 0.0}},
      "capacity": {"atoms": 16, "repr": {"type": "possibility",
                                         "lambda": [0.5 + i / 30 for i in range(16)]}},
      "schedule": [4, [16, 4], 64], "epsilons": [0.001, 0.003, 0.01],
      "etas": [0.05, 0.5]},
     "6670dde1290f8026362dcb4ca2c11de6fd73fa2c478a2ae15650ffa4afc63627"),
    # ... and atoms 0 and 1 tie at every point, all three are 0 at the corners,
    # and epsilon 1.5 lies above every value, so most exceedance sets are empty
    ({"experiment": "capacity_convergence", "dim": 2, "grid_points": 17,
      "family": {"name": "step_noise", "params": {"z": [1.0, -1.0, 0.5],
                                                  "thresholds": [0.5, 0.5, 0.5]}},
      "capacity": {"atoms": 3, "repr": {"type": "table", "values": {
          "": 0.0, "0": 0.3, "1": 0.6, "2": 0.5, "0,1": 0.8, "0,2": 0.7, "1,2": 0.9,
          "0,1,2": 1.0}}},
      "schedule": [4, [16, 4], 64], "epsilons": [0.05, 0.5, 1.5], "etas": [0.05, 0.5]},
     "ed491d5aff9d3a90725e6b0f986a3aa131381feadd7e618dabb87559a1b8f766"),
    ({"experiment": "stochastic", "schedule": [25, 100], "samples": 300,
      "deltas": [0.1, 0.2], "epsilons": [0.1, 0.3]},
     "3ed8e6ee471d40bf9e26994e2825eb408d216132acea0bc44ecf4b2693f497a2"),
    ({"experiment": "stochastic", "schedule": [25, 100], "samples": 300,
      "deltas": [0.1, 0.2], "epsilons": [0.1, 0.3], "degenerate_nodes": True},
     "0c1f5a8ec0e82cb1ff2ff2e21d5797744b9829575fb8c4e96dde1cb3aded25f4"),
    # p = 1.5 takes the direct C_p sum, p = 1 and 3 the moment expansion
    ({"experiment": "mean_convergence", "family": "step_noise", "grid_points": 17,
      "schedule": [[4, 4], [16, 8]], "p": [1, 1.5, 3]},
     "1931e7d67824b5a3a067612e124299cd42690a7ba4bb7d6d7494751e2d6dbfca"),
]


@pytest.mark.parametrize("config, digest", _PINNED_SWEEPS)
def test_sweep_csv_pinned(config, digest):
    csv = run_experiment(ExperimentConfig.from_mapping(config)).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == digest


@pytest.mark.parametrize("config", [
    *(c for c, _ in _PINNED_SWEEPS if c["experiment"] == "capacity_convergence"),
    _perfbench_workloads().config_for("capconv_wide", 0)])
def test_capacity_run_reads_the_semi_metric_and_sets_of_its_rows(config):
    # the runner sorts each entry's |B_n f - f| rows once for both kinds of
    # row; d_n is still _semi_metric_of them, and each Markov row's capacity
    # the largest eval_sets of {diff >= eps}, bit for bit
    cfg = ExperimentConfig.from_mapping(config)
    f, grid = cfg.family, Grid(cfg.dim, cfg.grid_points)
    rows = run_capacity_convergence(cfg).rows
    width = 1 + len(cfg.epsilons)
    for i, entry in enumerate(cfg.schedule):
        diff = np.abs(f.grid_tensor(grid) - multivariate_grid(f, entry, grid))
        d_row, *markov = rows[i * width:(i + 1) * width]
        assert d_row.measured.hex() == experiments._semi_metric_of(
            diff, subset_table(cfg.capacity)).hex()
        flat = diff.reshape(-1, cfg.atoms)
        for eps, row in zip(cfg.epsilons, markov):
            want = float(experiments.eval_sets(cfg.capacity, flat >= eps).max())
            assert (row.epsilon, row.measured.hex()) == (eps, want.hex())


_WORDS = ("kind", "scale", "name", "params", "repr", "type", "atoms", "distortion",
          "alpha", "lambda", "weights", "values", "z", "", "0", "0,1")
# integers and floats stay small: an integral float counts as an integer, and
# parsing builds the capacity, so a large atom count would build a large one
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-20.0, 20.0)
    | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=3)
    | st.sampled_from(_WORDS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_WORDS), inner, max_size=4),
    max_leaves=8)


def _object(required: dict, **optional):
    return st.fixed_dictionaries(required, optional=optional) | _JSON


_DISTORTION = _object(
    {"kind": st.sampled_from(["power", "rational_2t", "custom_table"])},
    alpha=_JSON, xs=_JSON, ys=_JSON)
# mostly valid values, drawn only for keys the run reads, so that parsing
# often gets past the early keys to the capacity, family, schedule and tau checks
_NEAR = {
    "seed": st.just(0), "samples": st.just(50),
    "degenerate_nodes": st.booleans(), "dim": st.sampled_from([1, 2]),
    "atoms": st.sampled_from([2, 3]), "grid_points": st.just(9),
    "p": st.just([1, 2]), "deltas": st.just(0.1), "epsilons": st.just([0.1]),
    "etas": st.just(0.05), "rs": st.just([0.9]),
    "capacity": _object({"repr": _object(
        {"type": st.sampled_from(["distorted", "possibility", "table"])},
        distortion=_DISTORTION, weights=_JSON, values=_JSON,
        **{"lambda": _JSON})}, atoms=st.integers(1, 4) | _JSON),
    "family": st.sampled_from(["affine_noise", "step_noise"])
    | _object({"name": st.sampled_from(["affine_noise", "nope"])}, params=_JSON),
    "schedule": st.lists(st.integers(1, 8) | st.lists(_JSON, max_size=3), max_size=4),
    "tau": _object({"kind": st.sampled_from(["log", "sqrt", "const"])}, scale=_JSON),
}


@settings(derandomize=True, deadline=None, max_examples=300)
@example({"experiment": "mean_convergence"},  # AttributeError: values is a list
         {"capacity": {"atoms": 2, "repr": {"type": "table", "values": []}}})
@example({"experiment": "stochastic"},  # KeyError: custom_table needs xs and ys
         {"capacity": {"repr": {"type": "distorted",
                                "distortion": {"kind": "custom_table"}}}})
@example({"experiment": "mean_convergence"}, {"p": 10 ** 400})  # OverflowError
@given(st.sampled_from(EXPERIMENT_IDS).flatmap(lambda run: st.fixed_dictionaries(
           {"experiment": st.just(run)},
           optional={k: v for k, v in _NEAR.items() if k in _reads({"experiment": run})})),
       st.dictionaries(st.sampled_from(list(_SCHEMA)), _JSON, max_size=2))
def test_from_mapping_returns_a_config_or_config_error(near, arbitrary):
    try:
        cfg = ExperimentConfig.from_mapping({**near, **arbitrary})
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


_RUN_CAPACITIES = [
    {"atoms": 5, "repr": {"type": "distorted",
                          "distortion": {"kind": "power", "alpha": 0.5}}},
    # more atoms than a subset table allows
    {"atoms": 24, "repr": {"type": "possibility",
                           "lambda": [0.5 + i / 46 for i in range(24)]}},
    {"atoms": 24, "repr": {"type": "distorted", "distortion": {"kind": "rational_2t"}}},
    {"atoms": 5, "repr": {"type": "distorted", "distortion": {"kind": "rational_2t"}}},
    {"atoms": 3, "repr": {"type": "possibility", "lambda": [0.5, 1.0, 0.3]}},
    {"atoms": 2, "repr": {"type": "table",  # not submodular
                          "values": {"": 0.0, "0": 0.1, "1": 0.1, "0,1": 1.0}}},
    {"atoms": 2, "repr": {"type": "table",
                          "values": {"": 0.0, "0": 0.6, "1": 0.6, "0,1": 1.0}}},
]


def _table_capacity(m, tbl):
    """A config's "table" capacity object with the 2**m entries of ``tbl``."""
    return {"atoms": m, "repr": {"type": "table", "values": {
        ",".join(str(i) for i in range(m) if mask >> i & 1): float(tbl[mask])
        for mask in range(1 << m)}}}


# possibility levels with mu({0}) = -TOL / 8, which ``make_table`` accepts:
# on step_noise one cell's integral of the squared error rounds below 0
_NEGATIVE_SINGLETON = subset_table(make_possibility((0.0, 0.6, 1.0, 0.8, 0.45))).copy()
_NEGATIVE_SINGLETON[1] = -TOL / 8


# the keys a run reads beyond those every run reads: (required, optional);
# a stochastic run takes few samples and a tau(n) below its small degrees
_OWN_KEYS = {
    "mean_convergence": ({}, {"p": st.sampled_from([1, [1, 2], []])}),
    "capacity_convergence": ({}, {"dim": st.sampled_from([1, 2])}),
    "possibility_convergence": ({}, {"dim": st.sampled_from([1, 2])}),
    "stochastic": ({"samples": st.just(50),
                    "tau": st.just({"kind": "const", "scale": 1})}, {}),
}


def _run_config(run):
    required, optional = _OWN_KEYS[run]
    return st.fixed_dictionaries(
        {"experiment": st.just(run), "grid_points": st.just(9),
         # [100] and [4, 100] are finer than the 9-point grid
         "schedule": st.sampled_from([[2, 4], [4], [100], [4, 100]]), **required},
        optional={"capacity": st.sampled_from(_RUN_CAPACITIES),
                  "family": st.sampled_from(["affine_noise", "step_noise",
                                             "deterministic:absdev"]), **optional})


@settings(derandomize=True, deadline=None, max_examples=200)
@example({"experiment": "capacity_convergence", "grid_points": 9, "schedule": [2, 4],
          # overflows on the grid: nan rows, exit 1, unless refused
          "family": {"name": "affine_noise", "params": {"scale": 1e308, "amp": 1e308}}})
@example({"experiment": "mean_convergence", "grid_points": 33, "schedule": [[16, 16]],
          "p": [2], "capacity": _table_capacity(5, _NEGATIVE_SINGLETON),
          # a negative integral: a nan row, exit 1, unless clamped at 0
          "family": {"name": "step_noise", "params": {"z": [
              -0.7312715117751976, 0.6948674738744653, 0.5275492379532281,
              -0.4898619485211566, -0.009129825816118098]}}})
@given(st.sampled_from(EXPERIMENT_IDS).flatmap(_run_config))
def test_a_config_that_parses_also_runs(config):
    # every hypothesis of a run's estimate is checked when the config is parsed
    try:
        cfg = ExperimentConfig.from_mapping(config)
    except ConfigError as exc:
        assert str(exc).startswith("key '")
        return
    rows = run_experiment(cfg).rows
    assert rows
    assert all(math.isfinite(r.measured) and math.isfinite(r.bound) for r in rows)


def test_mean_run_on_a_certified_table_does_not_warn():
    # the local check certifies this table, so the modulus table must not
    # call it uncertified
    cfg = ExperimentConfig.from_mapping({
        "experiment": "mean_convergence", "grid_points": 9, "schedule": [[2, 4]],
        "capacity": _RUN_CAPACITIES[-1]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_experiment(cfg).rows


@pytest.mark.parametrize("m, cap", [
    (13, make_possibility(tuple(np.linspace(0.5, 1.0, 13)))),
    (16, make_distorted(make_distortion("power", alpha=0.5), [1 / 16] * 16))])
@pytest.mark.parametrize("config", [
    {"experiment": "mean_convergence", "schedule": [[2, 4]]},
    {"experiment": "capacity_convergence", "dim": 1, "schedule": [2, 4]}])
def test_a_wide_submodular_table_is_certified_and_runs(m, cap, config):
    # more atoms than an O(4**M) pairwise check takes, within the table limit
    cfg = ExperimentConfig.from_mapping({
        **config, "grid_points": 9, "capacity": _table_capacity(m, subset_table(cap))})
    assert cfg.atoms == m
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_experiment(cfg).rows
    assert rows and all(math.isfinite(r.measured) for r in rows)


@pytest.mark.parametrize("config", [
    {"experiment": "mean_convergence", "schedule": [[100, 100]]},
    {"experiment": "mean_convergence", "schedule": [[4, 4], [4, 100]]},
    {"experiment": "possibility_convergence", "dim": 1, "schedule": [100]},
    {"experiment": "possibility_convergence", "dim": 2, "schedule": [4, 100]},
    {"experiment": "stochastic", "schedule": [25, 100]},
])
def test_degree_finer_than_the_grid_names_schedule(config):
    # the grid modulus at 1/sqrt(n) < 1/8 is 0 on 9 points, and so the bound
    with pytest.raises(ConfigError, match=r"^key 'schedule': degree 100 is finer "
                                          r"than the grid.*= 64"):
        ExperimentConfig.from_mapping({**config, "grid_points": 9})
    ExperimentConfig.from_mapping({**config, "grid_points": 11})  # 100 = 10**2


def test_capacity_run_takes_any_degree():
    # the semi-metric reads no modulus
    cfg = ExperimentConfig.from_mapping({"experiment": "capacity_convergence", "dim": 1,
                                         "grid_points": 9, "schedule": [4, 100]})
    assert run_experiment(cfg).all_passed


@pytest.mark.parametrize("run", ["mean_convergence", "capacity_convergence"])
def test_table_runs_refuse_more_than_20_atoms(run):
    for capacity in ({"atoms": 24, "repr": {"type": "distorted",
                                            "distortion": {"kind": "rational_2t"}}},
                     {"atoms": 21, "repr": {"type": "possibility",
                                            "lambda": [1.0] * 21}}):
        with pytest.raises(ConfigError, match=r"^key 'capacity': .*at most 20 atoms"):
            ExperimentConfig.from_mapping({"experiment": run, "capacity": capacity})
    cfg = ExperimentConfig.from_mapping({"experiment": run, "atoms": 20})
    assert cfg.atoms == 20


def test_possibility_run_with_24_atoms_completes():
    # the possibility run reads its capacity through eval_sets, with no 2**M table
    cfg = ExperimentConfig.from_mapping({"experiment": "possibility_convergence",
                                         "atoms": 24, "grid_points": 17,
                                         "schedule": [4, 16], "epsilons": [0.05, 0.3]})
    result = run_experiment(cfg)
    assert cfg.capacity._table is None
    assert len(result.rows) == 6 and result.all_passed


def test_semi_metric_properties(rng):
    cap = random_capacity(rng, 4, kind="distorted")
    grid = Grid(1, 33)
    fs = [build_family("affine_noise", 4, 1,
                       {"z": list(rng.uniform(-1, 1, 4)),
                        "scale": float(rng.uniform(0.2, 2.0))})
          for _ in range(3)]
    assert semi_metric(fs[0], fs[0], cap, grid) == 0.0
    for f, g in ((fs[0], fs[1]), (fs[1], fs[2])):
        assert semi_metric(f, g, cap, grid) <= 1.0
    d01 = semi_metric(fs[0], fs[1], cap, grid)
    d12 = semi_metric(fs[1], fs[2], cap, grid)
    d02 = semi_metric(fs[0], fs[2], cap, grid)
    assert d02 <= d01 + d12 + 1e-9
    other = build_family("affine_noise", 2, 1)
    with pytest.raises(InputError):
        semi_metric(fs[0], other, cap, grid)


def test_mean_convergence_constant_family():
    cfg = _cfg({"family": {"name": "affine_noise",
                           "params": {"scale": 0.0, "amp": 0.0}},
                "schedule": [[4, 4], [8, 8]]})
    res = run_mean_convergence(cfg)
    assert all(r.measured == 0.0 for r in res.rows)
    assert res.all_passed


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_mean_run_integrals_share_one_sort_across_p(family):
    # x and x^p sort alike for x >= 0 and ties add exact zeros, so one sort of
    # a mean run's error rows gives each p the integrals of its powered rows
    powers = (1.0, 1.5, 2.0, 2.5, 3.0)
    grid = Grid(2, 17)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        params = {} if family.startswith("deterministic") else {
            "z": list(rng.uniform(-1, 1, 5))}
        f = build_family(family, 5, 2, params)
        mu = subset_table(random_capacity(rng, 5))
        for n_vec in ((4, 4), (16, 16), (64, 64), (16, 4), (64, 16)):
            err = np.abs(f.grid_tensor(grid) - multivariate_grid(f, n_vec, grid))
            err = err.reshape(-1, 5)
            for p, got in zip(powers, powered_integrals(*sorted_levels(err, mu), powers)):
                assert np.array_equal(got, integral_batch(err ** p, mu)), (seed, n_vec, p)


@pytest.mark.parametrize("g", [2, 17, 65])
@pytest.mark.parametrize("n1, n2", [(1, 1), (4, 4), (64, 16), (64, 64)])
def test_cp_sup_closed_form_matches_direct_sum(n1, n2, g):
    grid = Grid(2, g)
    powers = (1.0, 2.0, 3.0, 16.0)
    for p, got in zip(powers, _cp_sup(n1, n2, powers, grid)):
        want = _cp_sup_direct(n1, n2, p, grid)
        assert abs(got - want) <= 1e-14 * want


def test_mean_convergence_refuses_non_submodular():
    with pytest.raises(ConfigError, match="^key 'capacity': .*not submodular"):
        _cfg({"capacity": {
            "atoms": 2,
            "repr": {"type": "table",
                     "values": {"": 0.0, "0": 0.1, "1": 0.1, "0,1": 1.0}}}})


def test_mean_convergence_requires_dim2():
    # the Choquet-mean estimate is 2-D, so a mean run does not read 'dim'
    with pytest.raises(ConfigError, match="^key 'dim': not read by this mean_convergence"):
        ExperimentConfig.from_mapping({
            "experiment": "mean_convergence", "family": "affine_noise", "dim": 1,
            "schedule": [4, 8]})


def test_capacity_convergence_rows_recomputable(tmp_path):
    cfg = ExperimentConfig.from_mapping({
        "experiment": "capacity_convergence", "family": "affine_noise",
        "schedule": [4, 16, 64], "epsilons": [0.05, 0.1], "seed": 11})
    res = run_capacity_convergence(cfg)
    assert res.all_passed
    path = tmp_path / "rows.csv"
    res.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "experiment,n1,n2,p,epsilon,eta,r,measured,bound,pass"
    for line in lines[1:]:
        cells = line.split(",")
        measured, bound, flag = float(cells[7]), float(cells[8]), cells[9]
        assert (measured <= bound + ROW_TOLERANCE) == (flag == "true")


def test_capacity_convergence_unbounded_family_rejected():
    def build(m, dim, params):
        return RandomFunction(m, dim, lambda pts, w: np.mean(pts, axis=-1),
                              name="unbounded", m_sup=None)
    FAMILIES["_unbounded"] = build
    try:
        with pytest.raises(ConfigError, match="^key 'family': .*bounded family"):
            ExperimentConfig.from_mapping({
                "experiment": "capacity_convergence", "family": "_unbounded",
                "schedule": [4]})
    finally:
        del FAMILIES["_unbounded"]


def test_possibility_convergence_requires_possibility():
    with pytest.raises(ConfigError, match="^key 'capacity': .*possibility capacity"):
        ExperimentConfig.from_mapping({
            "experiment": "possibility_convergence", "family": "affine_noise",
            "capacity": {"atoms": 3, "repr": {
                "type": "distorted", "distortion": {"kind": "rational_2t"}}},
            "schedule": [4]})


def test_possibility_convergence_trend_and_estimate():
    cfg = ExperimentConfig.from_mapping({
        "experiment": "possibility_convergence", "dim": 1,
        "family": "affine_noise",
        "capacity": {"atoms": 5, "repr": {
            "type": "possibility", "lambda": [0.3, 0.6, 1.0, 0.8, 0.45]}},
        "schedule": [4, 16, 64, 256], "epsilons": [0.25], "seed": 7})
    res = run_possibility_convergence(cfg)
    assert res.all_passed
    est = [r.measured for r in res.rows if r.epsilon is None]
    assert all(v <= 0.0 for v in est)  # per-sample quantitative estimate holds
    trend = [r.measured for r in res.rows if r.epsilon is not None]
    assert trend == [1.0, 1.0, 0.45, 0.0]  # frozen from a pilot run, seed 7
    assert all(a + 1e-12 >= b for a, b in zip(trend, trend[1:]))


def test_stochastic_rate_row_matches_closed_form():
    from choqbern import theorem6_bound
    cfg = ExperimentConfig.from_mapping({
        "experiment": "stochastic", "family": "affine_noise",
        "schedule": [100], "samples": 400, "deltas": [0.2],
        "epsilons": [0.3], "rs": [0.9], "tau": {"kind": "log", "scale": 4.0},
        "seed": 3})
    res = run_stochastic_experiment(cfg)
    rate_rows = [r for r in res.rows if r.epsilon is None and r.r is not None]
    assert len(rate_rows) == 1
    tau = tau_value({"kind": "log", "scale": 4.0}, 100)
    closed = theorem6_bound(100, tau, 0.9, 2.0)
    # the emitted bound adds a Monte Carlo margin on top of the closed form
    assert rate_rows[0].bound >= closed
    assert rate_rows[0].bound == pytest.approx(closed, abs=3 * 2.0 * 0.05)


def test_possibility_convergence_constant_family():
    cfg = ExperimentConfig.from_mapping({
        "experiment": "possibility_convergence", "dim": 1,
        "family": {"name": "affine_noise", "params": {"scale": 0.0, "amp": 0.0}},
        "schedule": [4, 16]})
    res = run_possibility_convergence(cfg)
    assert all(r.measured == 0.0 for r in res.rows if r.epsilon is None)
    assert res.all_passed


def test_stochastic_degenerate_nodes():
    cfg = ExperimentConfig.from_mapping({
        "experiment": "stochastic", "family": "affine_noise",
        "schedule": [25, 100], "samples": 200, "degenerate_nodes": True,
        "deltas": [0.1, 0.2], "epsilons": [0.05], "seed": 5})
    res = run_stochastic_experiment(cfg)
    assert res.all_passed
    # M_n = 0 everywhere: implication counts and exceedance capacities vanish
    for r in res.rows:
        if r.epsilon is not None and r.eta is None and r.r is None:
            assert r.measured == 0.0
        if r.epsilon is not None and r.r is not None:
            assert r.measured == 0.0


_DISTORTED = {"type": "distorted", "distortion": {"kind": "rational_2t"}}


@pytest.mark.parametrize("capacity, message", [
    ({"atoms": 5, "repr": _DISTORTED, "junk": 1}, "unknown key 'junk' in capacity;"),
    ({"atoms": 5, "repr": {**_DISTORTED, "weights": "garbage"}},
     "could not convert string to float"),
    ({"atoms": 3, "repr": _DISTORTED}, "capacity atoms 3 differ"),
    ({"atoms": ["a", "b"], "repr": _DISTORTED}, "differ from the run's atoms 5"),
    ({"atoms": 3, "repr": {**_DISTORTED, "weights": "garbage"}, "junk": 1}, "junk"),
    # sample i is drawn on atom i mod M, so the run's measure is uniform
    ({"atoms": 5, "repr": {**_DISTORTED, "weights": [0.5, 0.5, 0, 0, 0]}},
     "uniform weights"),
])
def test_stochastic_capacity_refuses_keys_it_would_ignore(capacity, message):
    with pytest.raises(ConfigError, match="key 'capacity'") as err:
        ExperimentConfig.from_mapping({"experiment": "stochastic",
                                       "capacity": capacity})
    assert message in str(err.value)


def test_stochastic_capacity_keys_it_reads_still_parse():
    for capacity in ({"repr": _DISTORTED}, {"atoms": 4, "repr": _DISTORTED},
                     {"atoms": ["a", "b", "c", "d"], "repr": _DISTORTED},
                     {"atoms": 4, "repr": {**_DISTORTED, "weights": [0.25] * 4}}):
        cfg = ExperimentConfig.from_mapping({"experiment": "stochastic", "atoms": 4,
                                             "capacity": capacity})
        assert cfg.atoms == 4 and cfg.capacity.form.distortion.kind == "rational_2t"


def test_mean_run_certifies_a_table_once(monkeypatch):
    # the config parser and the modulus table both ask for the verdict
    from choqbern import capacity
    calls = []
    real = capacity._local_walk

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(capacity, "_local_walk", spy)
    cfg = ExperimentConfig.from_mapping({
        "experiment": "mean_convergence", "grid_points": 9, "schedule": [[2, 4]],
        "capacity": _RUN_CAPACITIES[-1]})
    assert run_experiment(cfg).rows
    assert len(calls) == 1


def _streamed(n, cfg):
    """Every sample's deviation and sup error, joined over the streamed
    blocks, and the number of blocks."""
    f, grid = cfg.family, Grid(1, cfg.grid_points)
    blocks = list(_sample_errors(f, n, cfg, cfg.samples, grid, f.grid_tensor(grid)))
    return [np.concatenate(column) for column in zip(*blocks)], len(blocks)


def _blocks_match_one_block(monkeypatch, n, samples, blocks, degenerate):
    cfg = ExperimentConfig.from_mapping({
        "experiment": "stochastic", "family": "affine_noise", "schedule": [n],
        "samples": samples, "degenerate_nodes": degenerate, "seed": 8})
    streamed, count = _streamed(n, cfg)
    assert count == blocks
    rows, width = experiments._GEMM_ROWS, max(n + 1, cfg.grid_points)
    # one block; budgets of 7 and 300 rows, which round to blocks of 128 and
    # 256 rows; then, at the default block, chunks of one row and of 7 rows
    # (on the wider array), 7 not a multiple of M = 5; M_n is taken chunk by
    # chunk inside the node pass, so the chunks cover it too
    for name, cells, other_blocks in (
            ("_BLOCK_CELLS", rows * samples * width, 1),
            ("_BLOCK_CELLS", 7 * width, -(-samples // rows)),
            ("_BLOCK_CELLS", 300 * width, -(-samples // (2 * rows))),
            ("_CHUNK_CELLS", width, blocks), ("_CHUNK_CELLS", 7 * width, blocks)):
        with monkeypatch.context() as patch:
            patch.setattr(experiments, name, cells)
            other, other_count = _streamed(n, cfg)
        assert other_count == other_blocks
        for a, b in zip(streamed, other):
            assert a.shape == (samples,) and np.array_equal(a, b)


@pytest.mark.parametrize("degenerate", [False, True])
def test_stochastic_blocks_match_one_block(monkeypatch, degenerate):
    # eight blocks of 128 rows, the last one partial: the 1601 nodes set the
    # block
    _blocks_match_one_block(monkeypatch, 1600, 900, 8, degenerate)


@pytest.mark.parametrize("degenerate", [False, True])
def test_stochastic_blocks_match_one_block_where_the_grid_sets_it(monkeypatch,
                                                                  degenerate):
    # six blocks of 896 rows, the last one partial: at n = 25 the 257 grid
    # values of each sample's product, not its 26 nodes, set the block
    _blocks_match_one_block(monkeypatch, 25, 5010, 6, degenerate)


@pytest.mark.parametrize("degenerate", [False, True])
def test_stochastic_blocks_match_one_block_where_a_block_is_two_rows(monkeypatch,
                                                                     degenerate):
    # 800 = 114 * 7 + 2: a GEMM of the last 2 rows alone rounds them unlike
    # the same rows inside a taller GEMM, so every GEMM has _GEMM_ROWS rows
    _blocks_match_one_block(monkeypatch, 1600, 800, 7, degenerate)


def _child_env(threads, **extra):
    """Environment of a child process that imports this checkout's choqbern
    with ``threads`` BLAS threads."""
    threads = str(threads)
    return dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                PYTHONPATH=str(Path(experiments.__file__).resolve().parents[1]), **extra)


# compares every sample's deviation and sup error across block budgets (the
# default, one block, 7 rows and 300 rows) under the BLAS kernel that
# OPENBLAS_CORETYPE selects; prints the cases whose budgets disagree
_BLOCKS_MATCH = """
import json
import numpy as np
from choqbern import ExperimentConfig, experiments
from choqbern.randomfn import Grid
unequal = []
for n, samples in ((1600, 900), (25, 5010), (1600, 800)):
    for degenerate in (False, True):
        cfg = ExperimentConfig.from_mapping({
            "experiment": "stochastic", "family": "affine_noise", "schedule": [n],
            "samples": samples, "degenerate_nodes": degenerate, "seed": 8})
        f, grid = cfg.family, Grid(1, cfg.grid_points)
        width = max(n + 1, cfg.grid_points)
        runs = []
        for cells in (experiments._BLOCK_CELLS, experiments._GEMM_ROWS * samples * width,
                      7 * width, 300 * width):
            experiments._BLOCK_CELLS = cells
            blocks = experiments._sample_errors(f, n, cfg, samples, grid,
                                                f.grid_tensor(grid))
            runs.append([np.concatenate(column) for column in zip(*blocks)])
        if not all(np.array_equal(a, b)
                   for run in runs[1:] for a, b in zip(runs[0], run)):
            unequal.append([n, samples, degenerate])
print(json.dumps(unequal))
"""


@pytest.mark.parametrize("kernel", ["Haswell", "Zen", "Sandybridge", "Prescott"])
def test_stochastic_blocks_match_under_every_blas_kernel(kernel):
    # the default kernel is covered in process above; a kernel is chosen only
    # when OpenBLAS loads, so each one runs in a child process
    env = _child_env(threads=1, OPENBLAS_CORETYPE=kernel)
    proc = subprocess.run([sys.executable, "-c", _BLOCKS_MATCH], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# runs one degenerate-node sweep, whose GEMM bits depend on the BLAS thread
# count unless the run pins it, and prints its CSV digest and the thread
# count before and after the run
_THREADS_RUN = """
import hashlib, json
from choqbern import ExperimentConfig, experiments, run_experiment
cfg = ExperimentConfig.from_mapping({
    "experiment": "stochastic", "schedule": [400], "samples": 3000,
    "degenerate_nodes": True, "seed": 3})
get, _ = experiments._openblas_threads()
before = get()
csv = run_experiment(cfg).to_csv()
print(json.dumps([hashlib.sha256(csv.encode()).hexdigest(), before, get()]))
"""


def test_run_bytes_do_not_depend_on_the_blas_thread_count():
    outputs = []
    for threads in (1, 2):
        proc = subprocess.run([sys.executable, "-c", _THREADS_RUN],
                              env=_child_env(threads=threads),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    (digest_1, *counts_1), (digest_2, *counts_2) = outputs
    assert digest_1 == digest_2
    # each run restored the count it found; OpenBLAS caps it at the cores
    assert counts_1 == [1, 1]
    assert counts_2 == [min(2, len(os.sched_getaffinity(0)))] * 2


def test_run_pins_one_blas_thread_and_restores_it_on_an_error(monkeypatch):
    get, _ = experiments._openblas_threads()
    before, inside = get(), []

    def fail(cfg):
        inside.append(get())
        raise InputError("runner failed")
    monkeypatch.setitem(experiments._RUNNERS, "stochastic", fail)
    with pytest.raises(InputError, match="runner failed"):
        run_experiment(ExperimentConfig.from_mapping({"experiment": "stochastic"}))
    assert inside == [1] and get() == before


def test_runs_on_two_threads_share_the_blas_pin(monkeypatch):
    # a run that leaves while another is still inside keeps the pin, and the
    # last one out restores the count the first one in found
    get, put = experiments._openblas_threads()
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    seen = []

    def first(cfg):
        first_in.set()
        second_in.wait(60)

    def second(cfg):
        second_in.set()
        first_out.wait(60)
        seen.append(get())
    monkeypatch.setitem(experiments._RUNNERS, "stochastic", first)
    monkeypatch.setitem(experiments._RUNNERS, "mean_convergence", second)
    runs = [threading.Thread(target=run_experiment, args=(ExperimentConfig.from_mapping(
        {"experiment": name}),)) for name in ("stochastic", "mean_convergence")]
    before = get()
    put(2)
    found = get()  # 2, unless OpenBLAS caps it at one core
    try:
        runs[0].start()
        assert first_in.wait(60)
        runs[1].start()
        runs[0].join(60)
        assert not runs[0].is_alive()
        first_out.set()
        runs[1].join(60)
        assert not runs[1].is_alive()
        assert seen == [1] and get() == found
    finally:
        put(before)


def test_stochastic_helper_error_is_raised_and_the_helper_joined(monkeypatch):
    # the helper thread draws each block's rows: a failure on the second
    # block reaches the run, and no thread outlives it
    real, calls = experiments.sample_rows, []

    def fail_second(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise InputError("second block")
        return real(*args, **kwargs)
    monkeypatch.setattr(experiments, "sample_rows", fail_second)
    cfg = ExperimentConfig.from_mapping({
        "experiment": "stochastic", "schedule": [1600], "samples": 800, "seed": 2})
    before = threading.active_count()
    with pytest.raises(InputError, match="second block"):
        run_experiment(cfg)
    assert threading.active_count() == before
    assert len(calls) == 2


def test_stochastic_blocks_closed_early_join_the_helper():
    # seven blocks at n = 1600; the helper waits to start the third
    cfg = ExperimentConfig.from_mapping({
        "experiment": "stochastic", "schedule": [1600], "samples": 800, "seed": 2})
    f, grid = cfg.family, Grid(1, cfg.grid_points)
    before = threading.active_count()
    blocks = _sample_errors(f, 1600, cfg, 0, grid, f.grid_tensor(grid))
    next(blocks)
    assert threading.active_count() == before + 1
    blocks.close()
    assert threading.active_count() == before


def _traced_peak(config: dict) -> int:
    """Largest traced allocation, in bytes, while one parsed config runs a
    second time: a process's first sweep also traces one-off imports and
    caches (about 1.3 MB), which are not its working set."""
    cfg = ExperimentConfig.from_mapping(config)
    run_experiment(cfg)
    tracemalloc.start()
    try:
        run_experiment(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _stochastic_bound(n, g):
    """Bytes of two blocks' node rows, one (_GEMM_ROWS, g) product, the
    basis and two chunks of node-pass temporaries, and the block's rows."""
    rows = experiments._GEMM_ROWS
    block = rows * max(1, experiments._BLOCK_CELLS // (rows * max(n + 1, g)))
    return 8 * (2 * block * (n + 1) + rows * g + (n + 1) * g
                + 2 * experiments._CHUNK_CELLS), block


def test_stochastic_working_set_is_a_few_blocks():
    # at n = 25 and g = 257 the grid, not the 26 nodes, sets the block (896
    # rows); a product as tall as the block, not one chunk, would not fit
    n, g = 25, 257
    bound, block = _stochastic_bound(n, g)
    assert bound < 8 * (2 * block * (n + 1) + block * g + (n + 1) * g)
    base = {"experiment": "stochastic", "schedule": [n], "seed": 4}
    assert _traced_peak({**base, "samples": 20_000}) < bound
    # ten times the samples add none of the 16 bytes per sample that a
    # per-sample array of deviations or errors would hold (cheap nodes)
    small = _traced_peak({**base, "samples": 20_000, "degenerate_nodes": True})
    large = _traced_peak({**base, "samples": 200_000, "degenerate_nodes": True})
    assert large - small < 256 * 1024


def test_stochastic_peak_holds_two_blocks_of_rows():
    # n = 1600, g = 257: seven blocks of 128 rows, the last one partial.  Two
    # blocks' rows are alive at once (the one in the GEMM and the one the
    # helper thread makes); a third block's rows would not fit
    n, g = 1600, 257
    bound, block = _stochastic_bound(n, g)
    assert bound < 8 * (3 * block * (n + 1) + (n + 1) * g)
    peak = _traced_peak({"experiment": "stochastic", "schedule": [n], "grid_points": g,
                         "samples": 800, "seed": 4})
    assert peak < bound


_RUN_STOCHASTIC = """
import sys
from choqbern import ExperimentConfig, run_experiment
cfg = ExperimentConfig.from_mapping({
    "experiment": "stochastic", "family": "affine_noise", "schedule": [1600],
    "grid_points": 65, "samples": int(sys.argv[1]), "seed": 3})
assert run_experiment(cfg).all_passed
"""

# runs each sample count in a child of its own and prints the peak RSS of
# the largest child so far after each; the small count goes first
_PEAKS = """
import json, resource, subprocess, sys
peaks = []
for samples in sys.argv[2:]:
    subprocess.run([sys.executable, "-c", sys.argv[1], samples], check=True)
    peaks.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
print(json.dumps(peaks))
"""


def test_stochastic_peak_memory_does_not_grow_with_samples():
    # 1300 samples already fill a whole block at n = 1600; 13000 rows of 1601
    # nodes would take 166 MB if they were held at once
    proc = subprocess.run([sys.executable, "-c", _PEAKS, _RUN_STOCHASTIC,
                           "1300", "13000"], env=_child_env(threads=1),
                          capture_output=True, text=True, check=True)
    small_kb, large_kb = json.loads(proc.stdout)
    assert large_kb - small_kb < 32 * 1024


def test_stochastic_small_run_passes_and_orders_rows():
    cfg = ExperimentConfig.from_mapping({
        "experiment": "stochastic", "family": "affine_noise",
        "schedule": [100, 25], "samples": 500, "deltas": [0.2],
        "epsilons": [0.3], "rs": [0.5, 0.9], "seed": 31})
    res = run_stochastic_experiment(cfg)
    assert res.all_passed
    ns = [r.n1 for r in res.rows]
    assert ns == sorted(ns)  # degrees are processed in sorted order
    assert res.metadata["config_hash"] == cfg.config_hash()


def test_rerun_is_byte_identical():
    base = {"experiment": "stochastic", "family": "affine_noise",
            "schedule": [25], "samples": 300, "seed": 77}
    csv1 = run_experiment(ExperimentConfig.from_mapping(base)).to_csv()
    csv2 = run_experiment(ExperimentConfig.from_mapping(base)).to_csv()
    assert csv1 == csv2


def test_honest_failure_is_reported():
    # a discontinuous family over a fine schedule has a non-monotone
    # semi-metric trend, so trend rows legitimately fail
    cfg = ExperimentConfig.from_mapping({
        "experiment": "capacity_convergence", "family": "step_noise", "dim": 1,
        "capacity": {"atoms": 4, "repr": {
            "type": "distorted", "distortion": {"kind": "power", "alpha": 0.5}}},
        "schedule": [4, 6, 9], "epsilons": [0.2], "seed": 1})
    res = run_experiment(cfg)
    assert not res.all_passed
    assert res.summary()["totals"]["failed"] == len(res.violations()) > 0


def test_summary_shape():
    cfg = ExperimentConfig.from_mapping({
        "experiment": "stochastic", "family": "affine_noise",
        "schedule": [25], "samples": 100, "epsilons": [0.3], "seed": 2})
    res = run_experiment(cfg)
    summary = res.summary()
    assert set(summary) == {"config_hash", "totals", "violations"}
    assert summary["totals"]["rows"] == len(res.rows)
    assert summary["totals"]["vacuous"] == len(res.metadata["vacuous"])
    # n=25, eps=0.3, r=0.9: the closed-form bound exceeds one
    assert summary["totals"]["vacuous"] >= 1
