"""Theorem-verification harness: convergence sweeps emitting measured/bound rows.

Each run produces rows of (schedule point, parameters, measured quantity,
bound); a row passes iff measured <= bound + ROW_TOLERANCE, so every pass
flag is recomputable from the stored fields.  Trend rows carry the
previous measured value (plus a 1e-12 slack) in their bound field.  Runs
are deterministic for a fixed (config, seed): Monte Carlo samples use
per-sample substreams and schedule entries may be evaluated on a thread
pool without affecting results.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .bernstein import basis_matrix, multivariate_grid, sikkema_constant
from .capacity import (Capacity, Distortion, GroundSpace, InputError,
                       PossibilityRepr, capacity_from_spec, check_properties,
                       distortion_from_spec, known_submodular, subset_table)
from .choquet import integral_batch
from .randomfn import (FAMILIES, ChoquetModulusTable, Grid, RandomFunction,
                       build_family, sample_modulus_profile, PAIR_TOL)
from .stochastic import (KTable, StochasticProcessSpec, lemma51_bound,
                         max_deviation_rows, sample_rows, theorem6_bound)

ROW_TOLERANCE = 1e-9
TREND_SLACK = 1e-12
# error-event thresholds are products of computed moduli; counting an event
# only beyond this slack keeps exact-zero cases (constant samples) clean
EVENT_SLACK = 1e-12

EXPERIMENT_IDS = ("mean_convergence", "capacity_convergence",
                  "possibility_convergence", "stochastic")

CSV_HEADER = "experiment,n1,n2,p,epsilon,eta,r,measured,bound,pass"


class ConfigError(ValueError):
    """An experiment configuration is invalid; the message names the key."""


@dataclass(frozen=True)
class BoundRow:
    """One measured-versus-bound record; empty fields are None."""

    experiment: str
    n1: int | None
    n2: int | None
    p: float | None
    epsilon: float | None
    eta: float | None
    r: float | None
    measured: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.bound + ROW_TOLERANCE


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


@dataclass
class ExperimentResult:
    rows: list[BoundRow]
    metadata: dict

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def violations(self) -> list[int]:
        return [i for i, r in enumerate(self.rows) if not r.passed]

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([
                r.experiment, _fmt(r.n1), _fmt(r.n2), _fmt(r.p), _fmt(r.epsilon),
                _fmt(r.eta), _fmt(r.r), _fmt(r.measured), _fmt(r.bound),
                "true" if r.passed else "false",
            ]))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv())

    def summary(self) -> dict:
        failed = self.violations()
        return {
            "config_hash": self.metadata.get("config_hash", ""),
            "totals": {
                "rows": len(self.rows),
                "passed": len(self.rows) - len(failed),
                "failed": len(failed),
                "vacuous": len(self.metadata.get("vacuous", [])),
            },
            "violations": failed,
        }


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

TAU_KINDS = ("log", "sqrt", "const")


def tau_value(tau: Mapping, n: int) -> float:
    kind = tau["kind"]
    scale = float(tau.get("scale", 1.0))
    if kind == "log":
        return scale * math.log(n + 1.0)
    if kind == "sqrt":
        return scale * math.sqrt(n)
    if kind == "const":
        return scale
    raise ConfigError(f"unknown tau kind '{kind}' (known: {TAU_KINDS})")


def _validate_tau(tau: Mapping) -> dict:
    if "kind" not in tau:
        raise ConfigError("tau object missing key 'kind'")
    kind = tau["kind"]
    if kind not in TAU_KINDS:
        raise ConfigError(f"unknown tau kind '{kind}' (known: {TAU_KINDS})")
    scale = float(tau.get("scale", 1.0))
    # every catalog entry is nondecreasing in n, so tau(n) >= 1 reduces to n = 1
    if tau_value({"kind": kind, "scale": scale}, 1) < 1.0:
        raise ConfigError(f"tau '{kind}' with scale {scale} violates tau(n) >= 1")
    return {"kind": kind, "scale": scale}


_DEFAULT_SCHEDULES = {
    "mean_convergence": [[4, 4], [16, 16], [64, 64]],
    "capacity_convergence": [4, 16, 64, 256],
    "possibility_convergence": [4, 16, 64, 256],
    "stochastic": [25, 100, 400],
}


@dataclass
class ExperimentConfig:
    experiment: str
    capacity: Capacity | None
    distortion: Distortion | None
    family: str
    family_params: dict
    dim: int
    atoms: int
    schedule: list
    p_values: tuple[float, ...]
    grid_points: int
    deltas: tuple[float, ...]
    epsilons: tuple[float, ...]
    etas: tuple[float, ...]
    rs: tuple[float, ...]
    tau: dict
    seed: int
    samples: int
    degenerate_nodes: bool = False
    workers: int = 1
    raw: dict = field(default_factory=dict, repr=False)

    def config_hash(self) -> str:
        payload = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @classmethod
    def from_mapping(cls, obj: Mapping) -> "ExperimentConfig":
        if "experiment" not in obj:
            raise ConfigError("config missing key 'experiment'")
        experiment = obj["experiment"]
        if experiment not in EXPERIMENT_IDS:
            raise ConfigError(f"unknown experiment '{experiment}' "
                              f"(known: {EXPERIMENT_IDS})")

        fam = obj.get("family", "affine_noise")
        if isinstance(fam, str):
            family, family_params = fam, dict(obj.get("family_params", {}))
        elif isinstance(fam, Mapping):
            if "name" not in fam:
                raise ConfigError("family object missing key 'name'")
            family, family_params = fam["name"], dict(fam.get("params", {}))
        else:
            raise ConfigError("key 'family' must be a name or an object")
        if family not in FAMILIES:
            raise ConfigError(f"key 'family': unknown family '{family}' "
                              f"(known: {sorted(FAMILIES)})")

        dim = int(obj.get("dim", 1 if experiment == "stochastic" else 2))
        if experiment == "stochastic" and dim != 1:
            raise ConfigError("key 'dim' must be 1 for stochastic runs")
        if dim not in (1, 2):
            raise ConfigError(f"key 'dim' must be 1 or 2, got {dim}")

        atoms = int(obj.get("atoms", 5))
        if atoms < 1:
            raise ConfigError("key 'atoms' must be a positive atom count")

        capacity = None
        distortion = None
        try:
            if experiment == "stochastic":
                if "capacity" in obj:
                    rep = obj["capacity"].get("repr", {})
                    if rep.get("type") != "distorted":
                        raise ConfigError("stochastic runs need a capacity of "
                                          "repr type 'distorted'")
                    if "distortion" not in rep:
                        raise ConfigError("capacity repr missing key 'distortion'")
                    distortion = distortion_from_spec(rep["distortion"])
                else:
                    distortion = distortion_from_spec({"kind": "rational_2t"})
                if not (0.0 < distortion.derivative_at_zero < math.inf):
                    raise ConfigError("key 'capacity': the distortion slope at zero "
                                      "must be finite and positive for deviation "
                                      "bounds (power with exponent < 1 is rejected)")
            elif "capacity" in obj:
                capacity = capacity_from_spec(obj["capacity"])
            elif experiment == "possibility_convergence":
                levels = tuple(np.linspace(0.5, 1.0, atoms))
                capacity = capacity_from_spec(
                    {"atoms": atoms, "repr": {"type": "possibility",
                                              "lambda": list(levels)}})
            else:
                capacity = capacity_from_spec(
                    {"atoms": atoms,
                     "repr": {"type": "distorted",
                              "distortion": {"kind": "power", "alpha": 0.5}}})
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"key 'capacity': {exc}") from exc
        if capacity is not None:
            atoms = capacity.atom_count

        schedule_raw = obj.get("schedule", _DEFAULT_SCHEDULES[experiment])
        if not isinstance(schedule_raw, Sequence) or len(schedule_raw) == 0:
            raise ConfigError("key 'schedule' must be a nonempty list")
        schedule = []
        for entry in schedule_raw:
            if isinstance(entry, (int, float)):
                n = int(entry)
                if n < 1:
                    raise ConfigError(f"key 'schedule': degree {entry} must be >= 1")
                schedule.append(n if (dim == 1 or experiment == "stochastic")
                                else (n, n))
            else:
                pair = tuple(int(v) for v in entry)
                if len(pair) != dim or any(v < 1 for v in pair):
                    raise ConfigError(f"key 'schedule': bad entry {entry}")
                schedule.append(pair if dim > 1 else pair[0])

        p_raw = obj.get("p", [1.0])
        p_values = tuple(float(v) for v in (p_raw if isinstance(p_raw, Sequence)
                                            else [p_raw]))
        for p in p_values:
            if not (1.0 <= p <= 16.0):
                raise ConfigError(f"key 'p' must lie in [1, 16], got {p}")

        grid_points = int(obj.get("grid_points", 257 if dim == 1 else 65))
        if grid_points < 2:
            raise ConfigError("key 'grid_points' must be >= 2")

        def _floats(key, default, lo=0.0, hi=math.inf, open_ends=False):
            vals = obj.get(key, default)
            if not isinstance(vals, Sequence):
                vals = [vals]
            out = tuple(float(v) for v in vals)
            for v in out:
                ok = lo < v < hi if open_ends else lo <= v <= hi
                if not ok:
                    raise ConfigError(f"key '{key}': value {v} out of range")
            return out

        deltas = _floats("deltas", [0.1, 0.2], 0.0, 1.0, open_ends=True)
        epsilons = _floats("epsilons", [0.1], 0.0, math.inf, open_ends=True)
        etas = _floats("etas", [0.05], 0.0, 1.0, open_ends=True)
        rs = _floats("rs", [0.9], 0.0, 1.0, open_ends=True)

        tau = _validate_tau(obj.get("tau", {"kind": "log", "scale": 4.0}))
        if experiment == "stochastic":
            for n in schedule:
                if tau_value(tau, n) >= n:
                    raise ConfigError(f"key 'tau': tau(n) = {tau_value(tau, n):g} "
                                      f">= n at n = {n}; the deviation estimate "
                                      "needs tau(n) < n")

        seed = int(obj.get("seed", 0))
        samples = int(obj.get("samples", 10000))
        if samples < 1:
            raise ConfigError("key 'samples' must be >= 1")
        degenerate = bool(obj.get("degenerate_nodes", False))
        workers = int(obj.get("workers", 1))

        raw = json.loads(json.dumps(obj))  # canonical deep copy for hashing
        return cls(experiment, capacity, distortion, family, family_params, dim,
                   atoms, schedule, p_values, grid_points, deltas, epsilons, etas,
                   rs, tau, seed, samples, degenerate, workers, raw)


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def _parallel_map(fn: Callable, items: Sequence, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def require_submodular(cap: Capacity) -> None:
    """Refuse capacities that cannot be certified submodular."""
    if known_submodular(cap):
        return
    if cap.atom_count <= 12:
        report = check_properties(cap, mode="exhaustive")
        if report.submodular:
            return
        raise InputError("capacity is not submodular")
    raise InputError("capacity submodularity cannot be certified "
                     "(explicit table with more than 12 atoms)")


def _build(cfg: ExperimentConfig) -> tuple[RandomFunction, Capacity, Grid]:
    cap = cfg.capacity
    f = build_family(cfg.family, cap.space, cfg.dim, cfg.family_params)
    return f, cap, Grid(cfg.dim, cfg.grid_points)


def semi_metric(f: RandomFunction, g: RandomFunction, cap: Capacity,
                grid: Grid | None = None) -> float:
    """sup over grid x of the Choquet integral of |F-G| / (1 + |F-G|)."""
    if f.space != g.space or f.dim != g.dim:
        raise InputError("semi-metric needs functions on the same space and domain")
    if grid is None:
        grid = Grid.default_for(f.dim)
    diff = np.abs(f.grid_tensor(grid) - g.grid_tensor(grid))
    phi = diff / (1.0 + diff)
    vals = integral_batch(phi.reshape(-1, f.atom_count), subset_table(cap))
    return float(vals.max())


def _capacity_of_exceedance(diff: np.ndarray, eps: float,
                            mu_table: np.ndarray) -> float:
    """sup over grid x of mu({atoms with |diff| >= eps}); diff shape (..., M)."""
    m = diff.shape[-1]
    flags = diff.reshape(-1, m) >= eps
    masks = flags @ (np.int64(1) << np.arange(m, dtype=np.int64))
    return float(mu_table[masks].max())


def _semi_metric_from_tensors(t: np.ndarray, b: np.ndarray,
                              mu_table: np.ndarray) -> float:
    diff = np.abs(t - b)
    phi = diff / (1.0 + diff)
    m = diff.shape[-1]
    return float(integral_batch(phi.reshape(-1, m), mu_table).max())


def _cp_sup(n1: int, n2: int, p: float, grid: Grid) -> float:
    """sup over grid x of sum p*p*(1 + sqrt(n1)|x1-k1/n1| + sqrt(n2)|x2-k2/n2|)^p."""
    coords = grid.coords
    b1 = basis_matrix(n1, coords)
    b2 = basis_matrix(n2, coords)
    dev1 = math.sqrt(n1) * np.abs(coords[:, None] - np.arange(n1 + 1) / n1)
    dev2 = math.sqrt(n2) * np.abs(coords[:, None] - np.arange(n2 + 1) / n2)
    best = 0.0
    for i in range(coords.size):
        inner = (1.0 + dev1[i][:, None, None] + dev2[None, :, :]) ** p
        s = np.einsum("k,jl,kjl->j", b1[i], b2, inner)
        best = max(best, float(s.max()))
    return best


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def run_mean_convergence(cfg: ExperimentConfig) -> ExperimentResult:
    """Choquet-mean error against the modulus bound along the degree schedule."""
    if cfg.dim != 2:
        raise InputError("mean-convergence runs are defined for dim 2")
    f, cap, grid = _build(cfg)
    require_submodular(cap)
    t0 = time.perf_counter()
    tensor = f.grid_tensor(grid)
    mu = subset_table(cap)
    m = f.atom_count
    min_n1 = min(n for n, _ in cfg.schedule)
    min_n2 = min(n for _, n in cfg.schedule)

    table = ChoquetModulusTable(f, cap, grid,
                                (1.0 / math.sqrt(min_n1), 1.0 / math.sqrt(min_n2)),
                                powers=cfg.p_values)

    def one_entry(n_vec) -> list[BoundRow]:
        n1, n2 = n_vec
        # one approximation error per schedule entry, shared by every p
        err = np.abs(tensor - multivariate_grid(f, (n1, n2), grid)).reshape(-1, m)
        out = []
        for p in cfg.p_values:
            gamma = table.gamma(1.0 / math.sqrt(n1), 1.0 / math.sqrt(n2), p=p)
            lhs = integral_batch(err ** p, mu) ** (1.0 / p)
            bound = _cp_sup(n1, n2, p, grid) ** (1.0 / p) * gamma
            out.append(BoundRow("mean_convergence", n1, n2, p, None, None, None,
                                float(lhs.max()), bound))
        return out

    # rows are p-major: every schedule entry for one p, then the next p
    per_entry = _parallel_map(one_entry, cfg.schedule, cfg.workers)
    rows = [row for rows_of_p in zip(*per_entry) for row in rows_of_p]
    meta = {"experiment": cfg.experiment, "seed": cfg.seed,
            "grid_points": cfg.grid_points, "config_hash": cfg.config_hash(),
            "wall_time": time.perf_counter() - t0, "vacuous": []}
    return ExperimentResult(rows, meta)


def run_capacity_convergence(cfg: ExperimentConfig) -> ExperimentResult:
    """Semi-metric trend, Markov transfer, and threshold rows along the schedule."""
    f, cap, grid = _build(cfg)
    require_submodular(cap)
    if f.m_sup is None:
        raise InputError(f"family '{f.name}' has no uniform bound; "
                         "capacity-convergence runs need a bounded family")
    t0 = time.perf_counter()
    tensor = f.grid_tensor(grid)
    mu = subset_table(cap)
    schedule = list(cfg.schedule)

    def one_entry(n_vec) -> tuple[float, list[float]]:
        nv = (n_vec,) if isinstance(n_vec, int) else n_vec
        approx = multivariate_grid(f, nv, grid)
        diff = np.abs(tensor - approx)
        d_n = _semi_metric_from_tensors(tensor, approx, mu)
        caps = [_capacity_of_exceedance(diff, eps, mu) for eps in cfg.epsilons]
        return d_n, caps

    computed = _parallel_map(one_entry, schedule, cfg.workers)

    def span(entry) -> tuple[int, int | None]:
        return (entry, None) if isinstance(entry, int) else entry

    rows: list[BoundRow] = []
    prev_d = None
    for entry, (d_n, caps) in zip(schedule, computed):
        n1, n2 = span(entry)
        trend_bound = 1.0 if prev_d is None else prev_d + TREND_SLACK
        rows.append(BoundRow("capacity_convergence", n1, n2, None, None, None, None,
                             d_n, trend_bound))
        for eps, cap_val in zip(cfg.epsilons, caps):
            rows.append(BoundRow("capacity_convergence", n1, n2, None, eps, None,
                                 None, cap_val, (1.0 + eps) / eps * d_n))
        prev_d = d_n
    # threshold rows: capacity below eta once the semi-metric has crossed
    for eps_idx, eps in enumerate(cfg.epsilons):
        for eta in cfg.etas:
            threshold = eps * eta / (1.0 + eps)
            start = next((i for i, (d_n, _) in enumerate(computed)
                          if d_n < threshold), None)
            if start is None:
                continue
            for entry, (_, caps) in zip(schedule[start:], computed[start:]):
                n1, n2 = span(entry)
                rows.append(BoundRow("capacity_convergence", n1, n2, None, eps, eta,
                                     None, caps[eps_idx], eta))
    meta = {"experiment": cfg.experiment, "seed": cfg.seed,
            "grid_points": cfg.grid_points, "config_hash": cfg.config_hash(),
            "wall_time": time.perf_counter() - t0, "vacuous": []}
    return ExperimentResult(rows, meta)


def run_possibility_convergence(cfg: ExperimentConfig) -> ExperimentResult:
    """Per-sample quantitative estimate and exceedance trend under possibility."""
    f, cap, grid = _build(cfg)
    if not isinstance(cap.form, PossibilityRepr):
        raise InputError("possibility-convergence runs need a possibility capacity")
    t0 = time.perf_counter()
    tensor = f.grid_tensor(grid)
    mu = subset_table(cap)
    m = f.atom_count
    const = sikkema_constant() if cfg.dim == 1 else 3.0
    n_floor = min(min(nv) if not isinstance(nv, int) else nv for nv in cfg.schedule)
    dists, profile = sample_modulus_profile(f, grid,
                                            max_dist=1.0 / math.sqrt(n_floor))
    axes = tuple(range(tensor.ndim - 1))
    schedule = list(cfg.schedule)

    def one_entry(n_vec) -> tuple[np.ndarray, np.ndarray]:
        nv = (n_vec,) if isinstance(n_vec, int) else n_vec
        approx = multivariate_grid(f, nv, grid)
        sup_err = np.abs(tensor - approx).max(axis=axes)
        n_min = min(nv)
        j = int(np.searchsorted(dists, 1.0 / math.sqrt(n_min) + PAIR_TOL, "right")) - 1
        return sup_err, profile[j]

    computed = _parallel_map(one_entry, schedule, cfg.workers)

    rows: list[BoundRow] = []
    prev = {eps: None for eps in cfg.epsilons}
    for n_vec, (sup_err, o_vals) in zip(schedule, computed):
        n1, n2 = (n_vec, None) if isinstance(n_vec, int) else n_vec
        excess = float((sup_err - const * o_vals).max())
        rows.append(BoundRow("possibility_convergence", n1, n2, None, None, None,
                             None, excess, 0.0))
        for eps in cfg.epsilons:
            mask = int(np.dot(o_vals > eps, 1 << np.arange(m)))
            level = float(subset_table(cap)[mask]) if mask else 0.0
            trend_bound = 1.0 if prev[eps] is None else prev[eps] + TREND_SLACK
            rows.append(BoundRow("possibility_convergence", n1, n2, None, eps, None,
                                 None, level, trend_bound))
            prev[eps] = level
    meta = {"experiment": cfg.experiment, "seed": cfg.seed,
            "grid_points": cfg.grid_points, "config_hash": cfg.config_hash(),
            "wall_time": time.perf_counter() - t0, "vacuous": []}
    return ExperimentResult(rows, meta)


def _sup_errors(f: RandomFunction, rows: np.ndarray, atoms: np.ndarray,
                basis_t: np.ndarray, grid_values: np.ndarray) -> np.ndarray:
    """Per-sample sup over grid x of |B_n(f, Y)(x, w) - f(x, w)|."""
    count, width = rows.shape
    out = np.empty(count)
    chunk = max(1, 2_000_000 // width)
    for s in range(0, count, chunk):
        block = rows[s:s + chunk]
        who = atoms[s:s + chunk]
        node_vals = np.empty_like(block)
        for w in np.unique(who):
            sel = who == w
            node_vals[sel] = f.evaluator(block[sel][..., None], int(w))
        approx = node_vals @ basis_t
        target = grid_values[:, who].T
        out[s:s + chunk] = np.abs(approx - target).max(axis=1)
    return out


def run_stochastic_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Monte Carlo verification of the stochastic-node estimates.

    Per schedule degree the run emits, in order: one chain row (largest
    excess of the per-sample error over c*K(1/sqrt(n)) + K(M_n)), then per
    admissible delta an implication-violation count row and a
    capacity-level row, then per (epsilon, r) a deviation-bound row, then
    per r a rate-function row.  Sample i of degree-index d uses substream
    (seed, d * samples + i) with atom i mod M, so results are independent
    of batching.
    """
    u = cfg.distortion
    space = GroundSpace.of_size(cfg.atoms)
    f = build_family(cfg.family, space, 1, cfg.family_params)
    spec = StochasticProcessSpec(f, Grid(1, cfg.grid_points))
    t0 = time.perf_counter()
    grid = spec.k_grid
    ktab = KTable(f, grid)
    c = sikkema_constant()
    coords = grid.coords
    grid_values = f.grid_tensor(grid)  # (g, M)
    m = f.atom_count
    s_count = cfg.samples
    u_slope = u.derivative_at_zero

    degrees = sorted(set(cfg.schedule))

    def one_degree(item) -> tuple[int, list[BoundRow], list[int]]:
        d_idx, n = item
        if cfg.degenerate_nodes:
            rows_n = np.tile(np.arange(n + 1) / n, (s_count, 1))
        else:
            rows_n = sample_rows(n, cfg.seed, s_count, start_index=d_idx * s_count)
        dev = max_deviation_rows(rows_n)
        atoms = np.arange(s_count) % m
        basis_t = basis_matrix(n, coords).T
        sup_err = _sup_errors(f, rows_n, atoms, basis_t, grid_values)
        k_sqrt = float(ktab(1.0 / math.sqrt(n)))
        k_dev = ktab(dev)

        out: list[BoundRow] = []
        vacuous: list[int] = []
        chain_excess = float((sup_err - (c * k_sqrt + k_dev)).max())
        out.append(BoundRow("stochastic", n, None, None, None, None, None,
                            chain_excess, 0.0))
        for delta in cfg.deltas:
            if n < 1.0 / (delta * delta):
                continue
            k_delta = float(ktab(delta))
            if k_delta <= 0.0:
                continue
            exceed = sup_err > (1.0 + c) * k_delta + EVENT_SLACK
            violations = int(np.count_nonzero(exceed & (dev <= delta)))
            out.append(BoundRow("stochastic", n, None, None, delta, None, None,
                                float(violations), 0.0))
            lhs_cap = u(np.count_nonzero(exceed) / s_count)
            rhs_cap = u(np.count_nonzero(dev > delta) / s_count)
            out.append(BoundRow("stochastic", n, None, None, delta, delta, None,
                                lhs_cap, rhs_cap))
        for eps in cfg.epsilons:
            p_hat = np.count_nonzero(dev > eps) / s_count
            sigma = math.sqrt(p_hat * (1.0 - p_hat) / s_count)
            for r in cfg.rs:
                closed = lemma51_bound(n, eps, r, u_slope)
                out.append(BoundRow("stochastic", n, None, None, eps, None, r,
                                    u(p_hat), closed + 3.0 * u_slope * sigma))
                if closed >= 1.0:
                    vacuous.append(len(out) - 1)
        tau_n = tau_value(cfg.tau, n)
        delta6 = math.sqrt(tau_n / n)
        thresh = (1.0 + c) * float(ktab(delta6))
        p_hat6 = np.count_nonzero(sup_err > thresh + EVENT_SLACK) / s_count
        sigma6 = math.sqrt(p_hat6 * (1.0 - p_hat6) / s_count)
        for r in cfg.rs:
            closed = theorem6_bound(n, tau_n, r, u_slope)
            out.append(BoundRow("stochastic", n, None, None, None, None, r,
                                u(p_hat6), closed + 3.0 * u_slope * sigma6))
            if closed >= 1.0:
                vacuous.append(len(out) - 1)
        return d_idx, out, vacuous

    computed = _parallel_map(one_degree, list(enumerate(degrees)), cfg.workers)
    rows: list[BoundRow] = []
    vacuous_all: list[int] = []
    for _, out, vac in sorted(computed, key=lambda t: t[0]):
        base = len(rows)
        rows.extend(out)
        vacuous_all.extend(base + i for i in vac)
    meta = {"experiment": cfg.experiment, "seed": cfg.seed,
            "grid_points": cfg.grid_points, "config_hash": cfg.config_hash(),
            "wall_time": time.perf_counter() - t0, "vacuous": vacuous_all}
    return ExperimentResult(rows, meta)


_RUNNERS = {
    "mean_convergence": run_mean_convergence,
    "capacity_convergence": run_capacity_convergence,
    "possibility_convergence": run_possibility_convergence,
    "stochastic": run_stochastic_experiment,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    return _RUNNERS[cfg.experiment](cfg)
