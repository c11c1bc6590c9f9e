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
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .bernstein import (N_MAX, basis_matrix, moment_sums, multivariate_grid,
                        sikkema_constant, uniform_constant)
from .capacity import (CERTIFY_ATOM_LIMIT, TABLE_ATOM_LIMIT, Capacity, DistortedRepr,
                       InputError, PossibilityRepr, capacity_from_spec,
                       certified_submodular, eval_sets, refuse_unknown_keys, subset_table)
from .choquet import P_MAX, integral_batch
from .randomfn import (FAMILIES, ChoquetModulusTable, Grid, RandomFunction,
                       build_family, profile_at, sample_modulus_profile)
from .stochastic import (KTable, _check_slope, lemma51_bound, max_deviation_rows,
                         sample_rows, theorem6_bound)

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


@contextmanager
def named_errors(where: str):
    """Turn whatever a malformed JSON value raises into ``ConfigError``.

    The message starts with ``where`` (a key, a file), so every bad input
    gets one error that says where it is rather than a traceback.  A
    ``ConfigError`` from a nested ``named_errors`` already says where.
    """
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, ArithmeticError, LookupError,
            AttributeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class BoundRow:
    """One measured-versus-bound record; empty fields are None.

    ``vacuous`` marks a row whose closed-form bound is at least one, so it
    passes whatever is measured; the CSV does not carry it.
    """

    experiment: str
    n1: int | None
    n2: int | None
    p: float | None
    epsilon: float | None
    eta: float | None
    r: float | None
    measured: float
    bound: float
    vacuous: bool = False

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


_DEFAULT_SCHEDULES = {
    "mean_convergence": [[4, 4], [16, 16], [64, 64]],
    "capacity_convergence": [4, 16, 64, 256],
    "possibility_convergence": [4, 16, 64, 256],
    "stochastic": [25, 100, 400],
}

_JSON_TYPES = {int: "an integer", float: "a number", bool: "true or false",
               dict: "an object", list: "a list"}


def _as(kind: type, v):
    """``v`` as JSON type ``kind``; 4.0 is an int and 4 a float, a bool neither."""
    if kind is int and isinstance(v, float) and v.is_integer():
        v = int(v)
    elif kind is float and isinstance(v, int) and not isinstance(v, bool):
        v = float(v)
    if not isinstance(v, kind) or isinstance(v, bool) is not (kind is bool):
        raise TypeError(f"expected {_JSON_TYPES[kind]}, got {json.dumps(v)}")
    return v


def _floats(v, f) -> tuple[float, ...]:
    """A number or a nonempty list of numbers."""
    if v == []:
        raise ValueError("must be a number or a nonempty list")
    return tuple(_as(float, x) for x in (v if isinstance(v, list) else [v]))


def _within(x, interval: str) -> bool:
    """Whether ``x`` lies in ``interval``, written like "(0, 1]"."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return ((lo < x) if interval[0] == "(" else (lo <= x)) and \
        ((x < hi) if interval[-1] == ")" else (x <= hi))


def _dim(v, f) -> int:
    """Stochastic runs are 1-D and the Choquet-mean estimate is 2-D."""
    v, need = _as(int, v), {"stochastic": 1, "mean_convergence": 2}.get(f["experiment"])
    if need is not None and v != need:
        raise ValueError(f"must be {need} for {f['experiment']} runs")
    return v


def _family(v, f) -> RandomFunction:
    """A name, or an object {"name": ..., "params": {...}}.

    The family is built on the capacity's atoms; a stochastic run needs a
    continuous one and a capacity run a bounded one.
    """
    name, params = v, {}
    if isinstance(v, dict):
        refuse_unknown_keys(v, "family", ("name", "params"))
        name, params = v.get("name"), _as(dict, v.get("params", {}))
    if not isinstance(name, str) or name not in FAMILIES:
        raise ValueError(f"unknown family {name!r} (known: {sorted(FAMILIES)})")
    fn = build_family(name, f["capacity"].atom_count, f["dim"], params)
    if f["experiment"] == "stochastic" and not fn.continuous:
        raise ValueError(f"family '{name}' is not continuous in x; "
                         "stochastic runs require continuity")
    if f["experiment"] == "capacity_convergence" and fn.m_sup is None:
        raise ValueError(f"family '{name}' has no uniform bound; "
                         "capacity_convergence runs need a bounded family")
    return fn


def _capacity(spec, f) -> Capacity:
    """The capacity, which must meet the hypotheses of the run's estimate.

    Mean and capacity runs need one that ``certified_submodular`` certifies:
    analytically, or by the exhaustive check for a table of at most
    ``CERTIFY_ATOM_LIMIT`` atoms; they build its 2**M subset table, so at
    most ``TABLE_ATOM_LIMIT`` atoms.  Possibility runs need a possibility
    measure.  A stochastic run draws sample i on atom i mod M, so it needs a
    distorted capacity with uniform weights on the run's atoms (the default)
    whose distortion has a finite positive slope at zero.
    """
    spec, run = _as(dict, spec), f["experiment"]
    if run == "stochastic":
        spec = {"atoms": f["atoms"], **spec}
    cap = capacity_from_spec(spec)
    if run == "stochastic":
        if cap.atom_count != f["atoms"]:
            raise ValueError(f"capacity atoms {json.dumps(spec['atoms'])} differ from the "
                             f"run's atoms {f['atoms']}")
        form = cap.form
        if not isinstance(form, DistortedRepr) or len(set(form.weights)) > 1:
            raise ValueError("stochastic runs draw sample i on atom i mod M, so they need "
                             "a distorted capacity with uniform weights")
        _check_slope(form.distortion.derivative_at_zero)
    elif run == "possibility_convergence" and not isinstance(cap.form, PossibilityRepr):
        raise ValueError("possibility_convergence runs need a possibility capacity")
    elif run in ("mean_convergence", "capacity_convergence"):
        if cap.atom_count > TABLE_ATOM_LIMIT:
            raise ValueError(f"{run} runs build a table over all 2**M subsets, so they "
                             f"allow at most {TABLE_ATOM_LIMIT} atoms, not {cap.atom_count}")
        if not certified_submodular(cap):
            raise ValueError("capacity is not submodular"
                             if cap.atom_count <= CERTIFY_ATOM_LIMIT else
                             "submodularity cannot be certified (explicit table "
                             f"with more than {CERTIFY_ATOM_LIMIT} atoms)")
    return cap


def _default_capacity(f) -> dict:
    if f["experiment"] == "possibility_convergence":
        rep = {"type": "possibility", "lambda": list(np.linspace(0.5, 1.0, f["atoms"]))}
    else:
        u = ({"kind": "rational_2t"} if f["experiment"] == "stochastic"
             else {"kind": "power", "alpha": 0.5})
        rep = {"type": "distorted", "distortion": u}
    return {"atoms": f["atoms"], "repr": rep}


def _schedule(v, f) -> list:
    """Tuples of ``dim`` degrees, (n,) in 1-D; a bare n means (n,) * dim.

    A run that reads a grid modulus at 1/sqrt(n) needs n <= (grid_points - 1)**2
    on every axis, or the modulus, and so the bound, is 0.
    """
    if not _as(list, v):
        raise ValueError("must be a nonempty list")
    dim, out = f["dim"], []
    finest = (f["grid_points"] - 1) ** 2
    for entry in v:
        nv = (tuple(_as(int, n) for n in entry) if isinstance(entry, list)
              else (_as(int, entry),) * dim)
        if len(nv) != dim or not 1 <= min(nv) <= max(nv) <= N_MAX:
            raise ValueError(f"bad entry {entry!r}: needs {dim} degrees in [1, {N_MAX}]")
        if f["experiment"] != "capacity_convergence" and max(nv) > finest:
            raise ValueError(f"degree {max(nv)} is finer than the grid: "
                             f"{f['experiment']} runs need n <= (grid_points - 1)**2 "
                             f"= {finest}, or the modulus at 1/sqrt(n) is 0")
        out.append(nv)
    return out


def _tau(v, f) -> dict:
    """tau(n) >= 1 for every n, and tau(n) < n along a stochastic schedule."""
    v = _as(dict, v)
    refuse_unknown_keys(v, "tau", ("kind", "scale"))
    if v.get("kind") not in TAU_KINDS:
        raise ValueError(f"unknown tau kind {v.get('kind')!r} (known: {TAU_KINDS})")
    tau = {"kind": v["kind"], "scale": _as(float, v.get("scale", 1.0))}
    # every catalog entry is nondecreasing in n, so tau(n) >= 1 reduces to n = 1
    if not tau_value(tau, 1) >= 1.0:
        raise ValueError(f"{tau} violates tau(n) >= 1")
    for (n,) in f["schedule"] if f["experiment"] == "stochastic" else ():
        if tau_value(tau, n) >= n:
            raise ValueError(f"tau(n) = {tau_value(tau, n):g} >= n at n = {n}; "
                             "the deviation estimate needs tau(n) < n")
    return tau


# Every key but 'experiment': key -> (type, range, default), parsed in this
# order.  A type is a JSON type or a parser that also gets the keys parsed
# before it; a callable default is computed from those keys too.
_SCHEMA = {
    "seed": (int, f"[0, {2 ** 64})", 0),
    "samples": (int, "[1, inf)", 10000),
    "degenerate_nodes": (bool, None, False),
    "dim": (_dim, "[1, 2]", lambda f: 1 if f["experiment"] == "stochastic" else 2),
    "atoms": (int, "[1, inf)", 5),
    "grid_points": (int, "[2, inf)",
                    lambda f: Grid.default_for(f["dim"]).points_per_axis),
    "p": (_floats, f"[1, {P_MAX:g}]", [1.0]),
    "deltas": (_floats, "(0, 1)", [0.1, 0.2]),
    "epsilons": (_floats, "(0, inf)", [0.1]),
    "etas": (_floats, "(0, 1)", [0.05]),
    "rs": (_floats, "(0, 1)", [0.9]),
    "capacity": (_capacity, None, _default_capacity),
    "family": (_family, None, "affine_noise"),
    "schedule": (_schedule, None, lambda f: _DEFAULT_SCHEDULES[f["experiment"]]),
    "tau": (_tau, None, {"kind": "log", "scale": 4.0}),
}


@dataclass
class ExperimentConfig:
    experiment: str
    capacity: Capacity
    family: RandomFunction
    dim: int
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

    @property
    def atoms(self) -> int:
        return self.capacity.atom_count

    def config_hash(self) -> str:
        payload = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @classmethod
    def from_mapping(cls, obj: Mapping) -> "ExperimentConfig":
        """Check a JSON config against ``_SCHEMA`` and fill in the defaults."""
        raw = json.loads(json.dumps(obj))  # canonical deep copy, parsed and hashed
        if "experiment" not in raw:
            raise ConfigError("config missing key 'experiment'")
        if raw["experiment"] not in EXPERIMENT_IDS:
            raise ConfigError(f"key 'experiment': unknown experiment "
                              f"{raw['experiment']!r} (known: {EXPERIMENT_IDS})")
        unknown = sorted(raw.keys() - _SCHEMA.keys() - {"experiment"})
        if unknown:
            raise ConfigError(f"key '{unknown[0]}': unknown key "
                              f"(known: experiment, {', '.join(_SCHEMA)})")
        f = {"experiment": raw["experiment"]}
        for key, (kind, interval, default) in _SCHEMA.items():
            value = raw[key] if key in raw else (
                default(f) if callable(default) else default)
            with named_errors(f"key '{key}'"):
                f[key] = _as(kind, value) if kind in _JSON_TYPES else kind(value, f)
                for x in f[key] if isinstance(f[key], tuple) else [f[key]]:
                    if interval and not _within(x, interval):
                        raise ValueError(f"{x!r} is not in {interval}")
        return cls(f["experiment"], f["capacity"], f["family"], f["dim"], f["schedule"],
                   f["p"], f["grid_points"], f["deltas"], f["epsilons"], f["etas"],
                   f["rs"], f["tau"], f["seed"], f["samples"], f["degenerate_nodes"],
                   raw=raw)


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def _parallel_map(fn: Callable, items: Sequence, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _result(cfg: ExperimentConfig, rows: list[BoundRow], t0: float) -> ExperimentResult:
    """The rows with the run metadata; ``t0`` is when the timed part began."""
    return ExperimentResult(rows, {
        "experiment": cfg.experiment, "seed": cfg.seed,
        "grid_points": cfg.grid_points, "config_hash": cfg.config_hash(),
        "wall_time": time.perf_counter() - t0,
        "vacuous": [i for i, r in enumerate(rows) if r.vacuous]})


def semi_metric(f: RandomFunction, g: RandomFunction, cap: Capacity,
                grid: Grid) -> float:
    """sup over grid x of the Choquet integral of |F-G| / (1 + |F-G|)."""
    if f.atom_count != g.atom_count or f.dim != g.dim:
        raise InputError("semi-metric needs functions on the same atoms and domain")
    diff = np.abs(f.grid_tensor(grid) - g.grid_tensor(grid))
    return _semi_metric_of(diff, subset_table(cap))


def _semi_metric_of(diff: np.ndarray, mu_table: np.ndarray) -> float:
    """sup over grid x of the Choquet integral of diff / (1 + diff); shape (..., M)."""
    phi = diff / (1.0 + diff)
    return float(integral_batch(phi.reshape(-1, diff.shape[-1]), mu_table).max())


def _cp_sup(n1: int, n2: int, powers, grid: Grid) -> list[float]:
    """sup over grid x of C_p(x) = sum_k p_k1,n1(x1) p_k2,n2(x2) (1 + a + b)^p, per p.

    Here a = sqrt(n1)|x1 - k1/n1| and b = sqrt(n2)|x2 - k2/n2|.  At integer p
    the multinomial expansion

        (1 + a + b)^p = sum over i + j <= p of p! / (i! j! (p - i - j)!) a^i b^j

    turns C_p into the same sum over products A_i(x1) B_j(x2) of the 1-D
    moment sums A_i = sum_k p_k,n1 a^i and B_j = sum_k p_k,n2 b^j
    (``moment_sums``).  Every term is >= 0, so nothing cancels.  The moments
    are computed once, up to the largest integer p, and shared by every p.
    A non-integer p has no finite expansion and takes the direct double sum
    of ``_cp_sup_direct``.
    """
    top = max((int(p) for p in powers if float(p).is_integer()), default=0)
    a = moment_sums(n1, grid.coords, top)
    b = moment_sums(n2, grid.coords, top)
    out = []
    for p in powers:
        if not float(p).is_integer():
            out.append(_cp_sup_direct(n1, n2, p, grid))
            continue
        q = int(p)
        # p! / (i! j! (p - i - j)!), which is 0 where i + j > p
        coef = np.array([[math.comb(q, i) * math.comb(q - i, j) for j in range(q + 1)]
                         for i in range(q + 1)], dtype=float)
        out.append(float(np.einsum("ix,ij,jy->xy", a[:q + 1], coef, b[:q + 1]).max()))
    return out


def _cp_sup_direct(n1: int, n2: int, p: float, grid: Grid) -> float:
    """``_cp_sup`` at one p by the direct sum over (k1, k2), row by row of the grid."""
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
    f, cap, grid = cfg.family, cfg.capacity, Grid(cfg.dim, cfg.grid_points)
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
        for p, cp in zip(cfg.p_values, _cp_sup(n1, n2, cfg.p_values, grid)):
            gamma = table.gamma(1.0 / math.sqrt(n1), 1.0 / math.sqrt(n2), p=p)
            lhs = integral_batch(err ** p, mu) ** (1.0 / p)
            bound = cp ** (1.0 / p) * gamma
            out.append(BoundRow("mean_convergence", n1, n2, p, None, None, None,
                                float(lhs.max()), bound))
        return out

    # rows are p-major: every schedule entry for one p, then the next p
    per_entry = _parallel_map(one_entry, cfg.schedule, cfg.workers)
    rows = [row for rows_of_p in zip(*per_entry) for row in rows_of_p]
    return _result(cfg, rows, t0)


def run_capacity_convergence(cfg: ExperimentConfig) -> ExperimentResult:
    """Semi-metric trend, Markov transfer, and threshold rows along the schedule."""
    f, cap, grid = cfg.family, cfg.capacity, Grid(cfg.dim, cfg.grid_points)
    t0 = time.perf_counter()
    tensor = f.grid_tensor(grid)
    mu = subset_table(cap)

    def one_entry(n_vec) -> tuple[float, list[float]]:
        approx = multivariate_grid(f, n_vec, grid)
        diff = np.abs(tensor - approx)
        d_n = _semi_metric_of(diff, mu)
        flat = diff.reshape(-1, diff.shape[-1])
        caps = [float(eval_sets(cap, flat >= eps).max()) for eps in cfg.epsilons]
        return d_n, caps

    computed = _parallel_map(one_entry, cfg.schedule, cfg.workers)

    rows: list[BoundRow] = []
    prev_d = None
    for entry, (d_n, caps) in zip(cfg.schedule, computed):
        n1, n2 = (*entry, None)[:2]  # n2 stays empty in 1-D
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
            for entry, (_, caps) in zip(cfg.schedule[start:], computed[start:]):
                n1, n2 = (*entry, None)[:2]
                rows.append(BoundRow("capacity_convergence", n1, n2, None, eps, eta,
                                     None, caps[eps_idx], eta))
    return _result(cfg, rows, t0)


def run_possibility_convergence(cfg: ExperimentConfig) -> ExperimentResult:
    """Per-sample quantitative estimate and exceedance trend under possibility."""
    f, cap, grid = cfg.family, cfg.capacity, Grid(cfg.dim, cfg.grid_points)
    t0 = time.perf_counter()
    tensor = f.grid_tensor(grid)
    const = uniform_constant(cfg.dim)
    n_floor = min(min(n_vec) for n_vec in cfg.schedule)
    dists, profile = sample_modulus_profile(f, grid,
                                            max_dist=1.0 / math.sqrt(n_floor))
    axes = tuple(range(tensor.ndim - 1))

    def one_entry(n_vec) -> tuple[np.ndarray, np.ndarray]:
        approx = multivariate_grid(f, n_vec, grid)
        sup_err = np.abs(tensor - approx).max(axis=axes)
        return sup_err, profile_at(dists, profile, 1.0 / math.sqrt(min(n_vec)))

    computed = _parallel_map(one_entry, cfg.schedule, cfg.workers)

    rows: list[BoundRow] = []
    prev = {eps: None for eps in cfg.epsilons}
    for n_vec, (sup_err, o_vals) in zip(cfg.schedule, computed):
        n1, n2 = (*n_vec, None)[:2]
        excess = float((sup_err - const * o_vals).max())
        rows.append(BoundRow("possibility_convergence", n1, n2, None, None, None,
                             None, excess, 0.0))
        for eps in cfg.epsilons:
            level = float(eval_sets(cap, (o_vals > eps)[None, :])[0])
            trend_bound = 1.0 if prev[eps] is None else prev[eps] + TREND_SLACK
            rows.append(BoundRow("possibility_convergence", n1, n2, None, eps, None,
                                 None, level, trend_bound))
            prev[eps] = level
    return _result(cfg, rows, t0)


# node values per streamed block of samples: bounds the stochastic sweep's
# working set (about 16 MB per block-sized array) whatever 'samples' is
_BLOCK_CELLS = 2_000_000


def _sup_errors(f: RandomFunction, rows: np.ndarray, start: int,
                basis_t: np.ndarray, grid_values: np.ndarray) -> np.ndarray:
    """Per-sample sup over grid x of |B_n(f, Y)(x, w) - f(x, w)|.

    Row i is sample ``start + i``, on atom (start + i) mod M, so rows i,
    i + M, ... share one atom and are evaluated through one strided view.
    """
    m = f.atom_count
    node_vals = np.empty_like(rows)
    for i in range(min(m, len(rows))):
        node_vals[i::m] = f.evaluator(rows[i::m][..., None], (start + i) % m)
    approx = node_vals @ basis_t
    atoms = np.arange(start, start + len(rows)) % m
    return np.abs(approx - grid_values[:, atoms].T).max(axis=1)


def _sample_errors(f: RandomFunction, n: int, cfg: ExperimentConfig,
                   start_index: int, grid: Grid,
                   grid_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample node deviation M_n and sup error of one degree.

    The samples are streamed in blocks of ``_BLOCK_CELLS // (n + 1)`` rows,
    so memory does not grow with ``cfg.samples``.  Sample i uses substream
    ``start_index + i`` and atom i mod M.
    """
    s_count = cfg.samples
    basis_t = basis_matrix(n, grid.coords).T
    dev, sup_err = np.empty(s_count), np.empty(s_count)
    block = max(1, _BLOCK_CELLS // (n + 1))
    for s in range(0, s_count, block):
        count = min(block, s_count - s)
        if cfg.degenerate_nodes:
            rows = np.tile(np.arange(n + 1) / n, (count, 1))
        else:
            rows = sample_rows(n, cfg.seed, count, start_index=start_index + s)
        dev[s:s + count] = max_deviation_rows(rows)
        sup_err[s:s + count] = _sup_errors(f, rows, s, basis_t, grid_values)
    return dev, sup_err


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
    u = cfg.capacity.form.distortion
    f, grid = cfg.family, Grid(1, cfg.grid_points)
    t0 = time.perf_counter()
    ktab = KTable(f, grid)
    c = sikkema_constant()
    grid_values = f.grid_tensor(grid)  # (g, M)
    s_count = cfg.samples
    u_slope = u.derivative_at_zero

    degrees = sorted({n for (n,) in cfg.schedule})

    def one_degree(item) -> list[BoundRow]:
        d_idx, n = item
        dev, sup_err = _sample_errors(f, n, cfg, d_idx * s_count, grid, grid_values)
        k_sqrt = float(ktab(1.0 / math.sqrt(n)))
        k_dev = ktab(dev)

        out: list[BoundRow] = []
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
                                    u(p_hat), closed + 3.0 * u_slope * sigma,
                                    vacuous=closed >= 1.0))
        tau_n = tau_value(cfg.tau, n)
        delta6 = math.sqrt(tau_n / n)
        thresh = (1.0 + c) * float(ktab(delta6))
        p_hat6 = np.count_nonzero(sup_err > thresh + EVENT_SLACK) / s_count
        sigma6 = math.sqrt(p_hat6 * (1.0 - p_hat6) / s_count)
        for r in cfg.rs:
            closed = theorem6_bound(n, tau_n, r, u_slope)
            out.append(BoundRow("stochastic", n, None, None, None, None, r,
                                u(p_hat6), closed + 3.0 * u_slope * sigma6,
                                vacuous=closed >= 1.0))
        return out

    per_degree = _parallel_map(one_degree, list(enumerate(degrees)), cfg.workers)
    return _result(cfg, [row for out in per_degree for row in out], t0)


_RUNNERS = {
    "mean_convergence": run_mean_convergence,
    "capacity_convergence": run_capacity_convergence,
    "possibility_convergence": run_possibility_convergence,
    "stochastic": run_stochastic_experiment,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    return _RUNNERS[cfg.experiment](cfg)
