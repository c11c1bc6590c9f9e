import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from choqbern import (ConfigError, ExperimentConfig, InputError, make_distorted,
                      make_distortion, make_table, run_experiment, semi_metric)
from choqbern import experiments
from choqbern.experiments import (EXPERIMENT_IDS, ROW_TOLERANCE, _SCHEMA,
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
    assert cfg.p_values == (1.0,)
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
        _cfg({"rs": [1.0]})
    with pytest.raises(ConfigError, match="family"):
        _cfg({"family": "nonexistent"})  # surfaces at run time otherwise
    with pytest.raises(ConfigError, match="schedule"):
        _cfg({"schedule": []})
    with pytest.raises(ConfigError, match="capacity"):
        _cfg({"capacity": {"repr": {"type": "distorted",
                                    "distortion": {"kind": "bogus"}}}})


def test_config_family_resolution_checked_at_parse_time():
    with pytest.raises(ConfigError, match="nonexistent"):
        _cfg({"family": {"name": "nonexistent"}})


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
# mostly valid values, so that parsing often gets past the early keys to the
# capacity, family, schedule and tau checks
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
@example({"experiment": "stochastic"}, {"p": 10 ** 400})  # OverflowError
@given(st.fixed_dictionaries({"experiment": st.sampled_from(EXPERIMENT_IDS)},
                             optional=_NEAR),
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


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.fixed_dictionaries(
    {"experiment": st.sampled_from(EXPERIMENT_IDS), "grid_points": st.just(9),
     # [100] and [4, 100] are finer than the 9-point grid
     "schedule": st.sampled_from([[2, 4], [100], [4, 100]]), "samples": st.just(50),
     "tau": st.just({"kind": "const", "scale": 1})},
    optional={"dim": st.sampled_from([1, 2]), "p": st.sampled_from([1, [1, 2], []]),
              "capacity": st.sampled_from(_RUN_CAPACITIES),
              "family": st.sampled_from(["affine_noise", "step_noise",
                                         "deterministic:absdev"])}))
def test_a_config_that_parses_also_runs(config):
    # every hypothesis of a run's estimate is checked when the config is parsed
    try:
        cfg = ExperimentConfig.from_mapping(config)
    except ConfigError as exc:
        assert str(exc).startswith("key '")
        return
    assert run_experiment(cfg).rows


def test_mean_run_on_a_certified_table_does_not_warn():
    # the exhaustive check certifies this table, so the modulus table must not
    # call it uncertified
    cfg = ExperimentConfig.from_mapping({
        "experiment": "mean_convergence", "grid_points": 9, "schedule": [[2, 4]],
        "capacity": _RUN_CAPACITIES[-1]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_experiment(cfg).rows


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
    with pytest.raises(ConfigError, match="^key 'dim': must be 2"):
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
    real = capacity.check_properties

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(capacity, "check_properties", spy)
    cfg = ExperimentConfig.from_mapping({
        "experiment": "mean_convergence", "grid_points": 9, "schedule": [[2, 4]],
        "capacity": _RUN_CAPACITIES[-1]})
    assert run_experiment(cfg).rows
    assert len(calls) == 1


@pytest.mark.parametrize("degenerate", [False, True])
def test_stochastic_blocks_match_one_block(monkeypatch, degenerate):
    n, samples = 1600, 3000  # three blocks of 1249 rows, the last one partial
    cfg = ExperimentConfig.from_mapping({
        "experiment": "stochastic", "family": "affine_noise", "schedule": [n],
        "samples": samples, "degenerate_nodes": degenerate, "seed": 8})
    f, grid = cfg.family, Grid(1, cfg.grid_points)
    grid_values = f.grid_tensor(grid)
    streamed = _sample_errors(f, n, cfg, samples, grid, grid_values)
    assert experiments._BLOCK_CELLS // (n + 1) < samples
    for cells in (samples * (n + 1), 7 * (n + 1)):  # one block; blocks of 7 rows
        monkeypatch.setattr(experiments, "_BLOCK_CELLS", cells)
        other = _sample_errors(f, n, cfg, samples, grid, grid_values)
        for a, b in zip(streamed, other):
            assert np.array_equal(a, b)


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
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(experiments.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _PEAKS, _RUN_STOCHASTIC,
                           "1300", "13000"], env=env, capture_output=True,
                          text=True, check=True)
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


def test_workers_do_not_change_rows():
    base = {"experiment": "capacity_convergence", "family": "affine_noise",
            "schedule": [4, 16, 64], "seed": 9}
    res1 = run_experiment(ExperimentConfig.from_mapping(base))
    cfg = ExperimentConfig.from_mapping(base)
    cfg.workers = 3
    res2 = run_experiment(cfg)
    assert res1.to_csv() == res2.to_csv()


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
