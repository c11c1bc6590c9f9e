"""Acceptance suite: one test per quantitative criterion, each printing a
PASS line (run with ``pytest -s tests/test_acceptance.py`` to see them)."""

import math
import time

import numpy as np
import pytest

from choqbern import (bernstein_basis, check_properties, choquet_integral,
                      choquet_integral_oracle, eval_capacity, integral_batch,
                      lemma51_bound, make_distorted, make_distortion,
                      make_possibility, make_table, run_experiment,
                      sikkema_constant, subset_table)
from choqbern.bernstein import basis_matrix, moment_sum, tail_sum
from choqbern.experiments import ExperimentConfig
from choqbern.randomfn import (ChoquetModulusTable, Grid, RandomFunction, build_family,
                              stochastic_modulus)
from conftest import random_capacity, random_distortion, random_probability

RNG_SEED = 20260809


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_c01_choquet_oracle_equivalence():
    rng = np.random.default_rng(RNG_SEED)
    m = 10
    steps = 10 ** 6
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        cap = random_capacity(rng, m, kind=("distorted", "possibility", "table")[i % 3])
        f = rng.uniform(-5.0, 5.0, m)
        subset = None if i % 5 == 0 else int(rng.integers(1, 1 << m))
        a = choquet_integral(f, cap, subset).value
        b = choquet_integral_oracle(f, cap, subset, steps=steps).value
        worst = max(worst, abs(a - b))
        assert abs(a - b) <= 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(1, f"sorted-sum vs oracle on 1000 instances: worst diff "
               f"{worst:.3e} <= 1e-4 in {elapsed:.1f}s")


def test_c02_integral_law_suite():
    rng = np.random.default_rng(RNG_SEED + 1)

    def instances(count, kinds=("distorted", "possibility", "table")):
        for i in range(count):
            m = int(rng.integers(2, 11))
            yield m, random_capacity(rng, m, kind=kinds[i % len(kinds)])

    # comonotone additivity (any capacity)
    for m, cap in instances(1000):
        base = rng.uniform(-2, 2, m)
        order = np.argsort(base)
        f = np.empty(m)
        g = np.empty(m)
        f[order] = np.sort(rng.uniform(-2, 2, m))
        g[order] = np.sort(rng.uniform(-2, 2, m))
        lhs = choquet_integral(f + g, cap).value
        rhs = choquet_integral(f, cap).value + choquet_integral(g, cap).value
        assert abs(lhs - rhs) <= 1e-10
    # translation invariance
    for m, cap in instances(1000):
        f = rng.uniform(-2, 2, m)
        c = float(rng.uniform(-3, 3))
        subset = int(rng.integers(1, 1 << m))
        lhs = choquet_integral(f + c, cap, subset).value
        rhs = choquet_integral(f, cap, subset).value + c * eval_capacity(cap, subset)
        assert abs(lhs - rhs) <= 1e-12
    # positive homogeneity
    for m, cap in instances(1000):
        f = rng.uniform(-2, 2, m)
        a = float(rng.uniform(0, 4))
        assert abs(choquet_integral(a * f, cap).value
                   - a * choquet_integral(f, cap).value) <= 1e-12
    # subadditivity and both modulus inequalities need submodular capacities
    for m, cap in instances(1000, kinds=("distorted", "possibility")):
        f = rng.uniform(-2, 2, m)
        g = rng.uniform(-2, 2, m)
        int_f = choquet_integral(f, cap).value
        int_g = choquet_integral(g, cap).value
        assert choquet_integral(f + g, cap).value <= int_f + int_g + 1e-10
        assert abs(int_f) <= choquet_integral(np.abs(f), cap).value + 1e-10
        assert abs(int_f - int_g) <= choquet_integral(np.abs(f - g), cap).value + 1e-10
    # union subadditivity for nonnegative integrands under subadditive capacity
    for m, cap in instances(1000, kinds=("distorted", "possibility")):
        f = rng.uniform(0, 3, m)
        a = int(rng.integers(1, 1 << m))
        b = int(rng.integers(1, 1 << m))
        assert choquet_integral(f, cap, a | b).value <= \
            choquet_integral(f, cap, a).value + choquet_integral(f, cap, b).value + 1e-10
    _report(2, "comonotone/translation/homogeneity/subadditivity/modulus/union "
               "laws on 1000 instances each")


def test_c03_submodularity_certificates():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(100):
        m = int(rng.integers(2, 11))
        cap = make_distorted(random_distortion(rng), random_probability(rng, m))
        rep = check_properties(cap, mode="exhaustive")
        assert (rep.monotone, rep.subadditive, rep.submodular) == (True, True, True)
    for _ in range(100):
        m = int(rng.integers(2, 11))
        lam = rng.random(m)
        lam[int(rng.integers(m))] = 1.0
        cap = make_possibility(tuple(lam))
        rep = check_properties(cap, mode="exhaustive")
        assert (rep.monotone, rep.subadditive, rep.submodular) == (True, True, True)
    counter = make_table(2,
                         {0: 0.0, 1: 0.1, 2: 0.1, 3: 1.0})
    assert not check_properties(counter, mode="exhaustive").submodular
    _report(3, "100 distorted + 100 possibility capacities certified; "
               "two-atom counterexample flagged")


def _thm0_instances(rng, count):
    out = []
    for i in range(count):
        m = int(rng.integers(3, 6))
        name = "affine_noise" if i % 2 == 0 else "step_noise"
        params = {"z": list(rng.uniform(-1, 1, m))}
        if name == "affine_noise":
            params.update(scale=float(rng.uniform(0.5, 1.5)),
                          amp=float(rng.uniform(0.1, 0.5)))
        else:
            params.update(thresholds=list(np.sort(rng.uniform(0.1, 0.9, m))))
        f = build_family(name, m, 2, params)
        cap = random_capacity(rng, m, kind="distorted" if i % 3 else "possibility")
        out.append((f, cap))
    return out


def test_c04_modulus_scaling_suite():
    rng = np.random.default_rng(RNG_SEED + 3)
    grid = Grid(2, 65)
    alphas = (0.5, 1.0, 2.0, 3.7)
    gammas = (0.05, 0.1)
    checks = 0
    for f, cap in _thm0_instances(rng, 50):
        table = ChoquetModulusTable(f, cap, grid, (0.37, 0.37), powers=(1.0, 2.0))
        for p in (1.0, 2.0):
            for g1 in gammas:
                for g2 in gammas:
                    base = table.gamma(g1, g2, p=p)
                    for a1 in alphas:
                        for a2 in alphas:
                            lhs = table.gamma(a1 * g1, a2 * g2, p=p)
                            assert lhs <= (1.0 + a1 + a2) * base + 1e-9
                            checks += 1
            for d1 in gammas:
                for e1 in gammas:
                    for d2 in gammas:
                        for e2 in gammas:
                            lhs = table.gamma(d1 + d2, e1 + e2, p=p)
                            rhs = table.gamma(d1, e1, p=p) + table.gamma(d2, e2, p=p)
                            assert lhs <= rhs + 1e-9
                            checks += 1
    _report(4, f"modulus scaling + subadditivity: {checks} checks over 50 instances")


def test_c05_moment_bound():
    violations = 0
    for n in (10, 50, 200):
        for j in range(7):
            bound = 2.0 * math.gamma(1.0 + j / 2.0)
            for x in np.linspace(0.0, 1.0, 101):
                if moment_sum(n, float(x), j) > bound:
                    violations += 1
    assert violations == 0
    _report(5, "deviation-moment sums below 2*Gamma(1 + j/2) at 2121 points")


def test_c06_tail_bound():
    violations = 0
    for n in (10, 100, 1000):
        for delta in (0.05, 0.1, 0.3):
            bound = 1.0 / (4.0 * n * delta * delta)
            for x in np.linspace(0.0, 1.0, 101):
                if tail_sum(n, float(x), delta) > bound:
                    violations += 1
    assert violations == 0
    _report(6, "basis tail mass below 1/(4 n delta^2) at 909 points")


def test_c07_sikkema_estimate():
    c = sikkema_constant()
    assert abs(c - 1.089) < 1e-3  # matches the reported leading digits
    grid = np.arange(257) / 256
    for name, fn in (("absdev", lambda x: np.abs(x - 0.5)), ("sqrt", np.sqrt)):
        samples_on_grid = fn(grid)
        # the ordinary modulus of fn on the grid: a one-atom function's sample modulus
        one_atom = RandomFunction(1, 1,
                                  lambda pts, w, fn=fn: fn(pts[..., 0]))
        for n in (4, 16, 64, 256):
            approx = basis_matrix(n, grid) @ fn(np.arange(n + 1) / n)
            sup_err = float(np.abs(approx - samples_on_grid).max())
            omega = stochastic_modulus(one_atom, 1.0 / math.sqrt(n), 0, Grid(1, 257))
            assert sup_err <= c * omega
    _report(7, f"uniform error below {c:.6f} * modulus for both test functions, "
               "n in {4,16,64,256}")


def _mean_cfg(family, capacity):
    return ExperimentConfig.from_mapping({
        "experiment": "mean_convergence",
        "family": family,
        "capacity": capacity,
        "schedule": [[4, 4], [16, 16], [64, 64], [16, 4], [64, 16]],
        "p": [1, 2],
        "seed": 17,
    })


SQRT_CAP5 = {"atoms": 5, "repr": {"type": "distorted",
                                  "distortion": {"kind": "power", "alpha": 0.5}}}
POSS_CAP5 = {"atoms": 5, "repr": {"type": "possibility",
                                  "lambda": [0.3, 0.6, 1.0, 0.8, 0.45]}}


def test_c08_mean_convergence_bound():
    rows_checked = 0
    for family in ("affine_noise", "deterministic:absdev"):
        for capacity in (SQRT_CAP5, POSS_CAP5):
            cfg = _mean_cfg(family, capacity)
            res = run_experiment(cfg)
            assert res.all_passed
            rows_checked += len(res.rows)
            for p in (1.0, 2.0):
                diag = [r.measured for r in res.rows
                        if r.p == p and r.n1 == r.n2]
                assert all(a + 1e-12 >= b for a, b in zip(diag, diag[1:]))
            _check_elp(cfg)
    _report(8, f"Choquet-mean bound rows ({rows_checked}) pass; diagonal trend "
               "nonincreasing; integrated pointwise step verified")


def _check_elp(cfg):
    """Pointwise integrated step: error integral below the basis-weighted
    sum of node-difference integrals, spot-checked on a 3x3 point set."""
    cap, f = cfg.capacity, cfg.family
    mu = subset_table(cap)
    m = cap.atom_count
    probes = [0.1, 0.5, 0.9]
    for n1, n2 in cfg.schedule:
        mesh = np.stack(np.meshgrid(np.arange(n1 + 1) / n1,
                                    np.arange(n2 + 1) / n2, indexing="ij"), axis=-1)
        node_vals = np.stack([f.evaluator(mesh, w) for w in range(m)], axis=-1)
        for p in cfg.p_values:
            for x1 in probes:
                for x2 in probes:
                    fx = np.array([f.eval((x1, x2), w) for w in range(m)])
                    b1 = bernstein_basis(n1, x1)
                    b2 = bernstein_basis(n2, x2)
                    approx = np.einsum("k,l,klm->m", b1, b2, node_vals)
                    lhs = float(integral_batch(
                        np.abs(fx - approx)[None, :] ** p, mu)[0])
                    inner = integral_batch(
                        np.abs(fx[None, None, :] - node_vals).reshape(-1, m) ** p, mu)
                    rhs = float(np.dot(np.outer(b1, b2).reshape(-1), inner))
                    assert lhs <= rhs + 1e-9


def test_c09_capacity_convergence():
    cfg = ExperimentConfig.from_mapping({
        "experiment": "capacity_convergence",
        "family": "affine_noise",
        "capacity": SQRT_CAP5,
        "schedule": [4, 16, 64, 256],
        "epsilons": [0.02, 0.1],
        "etas": [0.05],
        "seed": 17,
    })
    res = run_experiment(cfg)
    assert res.all_passed
    d_vals = [r.measured for r in res.rows if r.epsilon is None]
    assert all(a + 1e-12 >= b for a, b in zip(d_vals, d_vals[1:]))
    final = [r for r in res.rows
             if r.eta is not None and r.epsilon == 0.1 and r.n1 == 256]
    assert final and final[0].measured < 0.05
    _report(9, f"semi-metric trend {['%.2e' % v for v in d_vals]} nonincreasing; "
               f"capacity at n=256 is {final[0].measured:.3e} < 0.05")


def test_c10_stochastic_implication():
    total_rows = 0
    for family in ("affine_noise", "deterministic:absdev"):
        cfg = ExperimentConfig.from_mapping({
            "experiment": "stochastic",
            "family": family,
            "atoms": 5,
            "capacity": {"repr": {"type": "distorted",
                                  "distortion": {"kind": "rational_2t"}}},
            "schedule": [25, 100, 400, 1600],
            "deltas": [0.1, 0.2],
            "epsilons": [0.3],
            "rs": [0.9],
            "samples": 10000,
            "seed": 42,
        })
        res = run_experiment(cfg)
        assert res.all_passed
        chain = [r for r in res.rows
                 if r.epsilon is None and r.eta is None and r.r is None]
        assert len(chain) == 4 and all(r.measured <= 1e-9 for r in chain)
        implication = [r for r in res.rows
                       if r.epsilon is not None and r.eta is None and r.r is None]
        assert all(r.measured == 0.0 for r in implication)
        combos = {(r.epsilon, r.n1) for r in implication}
        for delta in (0.1, 0.2):
            base = math.ceil(1.0 / delta ** 2)
            for k in (1, 4, 16):
                assert (delta, base * k) in combos
        total_rows += len(res.rows)
    _report(10, f"zero implication violations and chain slack <= 1e-9 across "
                f"2 families x 10^4 samples ({total_rows} rows)")


def test_c11_deviation_bound():
    closed = lemma51_bound(200, 0.3, 0.9, 2.0)
    assert closed == pytest.approx(3.555249981504666e-08, rel=1e-12)
    assert closed == pytest.approx(3.55e-08, rel=2e-3)
    cfg = ExperimentConfig.from_mapping({
        "experiment": "stochastic",
        "family": "affine_noise",
        "capacity": {"repr": {"type": "distorted",
                              "distortion": {"kind": "rational_2t"}}},
        "schedule": [200],
        "deltas": [0.2],
        "epsilons": [0.1, 0.3],
        "rs": [round(0.1 * k, 1) for k in range(1, 10)],
        "grid_points": 65,
        "samples": 10 ** 5,
        "seed": 42,
    })
    res = run_experiment(cfg)
    assert res.all_passed
    tight = [r for r in res.rows if r.epsilon == 0.3 and r.r == 0.9]
    assert tight and tight[0].measured == 0.0  # no exceedance in 1e5 samples
    vacuous = res.metadata["vacuous"]
    assert vacuous  # loose parameter rows where the closed form exceeds one
    for idx in vacuous:
        assert res.rows[idx].passed and res.rows[idx].bound >= 1.0
    _report(11, f"closed-form bound {closed:.4g}; zero exceedances in 1e5 "
                f"samples; {len(vacuous)} vacuous-pass rows")


def test_c12_determinism():
    base = {
        "experiment": "stochastic",
        "family": "affine_noise",
        "schedule": [25, 100],
        "samples": 2000,
        "seed": 99,
    }
    a = run_experiment(ExperimentConfig.from_mapping(base)).to_csv()
    b = run_experiment(ExperimentConfig.from_mapping(base)).to_csv()
    assert a == b
    other = {
        "experiment": "capacity_convergence",
        "family": "affine_noise",
        "schedule": [4, 16],
        "seed": 99,
    }
    c = run_experiment(ExperimentConfig.from_mapping(other)).to_csv()
    d = run_experiment(ExperimentConfig.from_mapping(other)).to_csv()
    assert c == d
    _report(12, "re-runs emit byte-identical CSV for fixed (config, seed)")
