"""Theorem-verification harness: convergence sweeps emitting measured/bound rows.

Each run produces rows of (schedule point, parameters, measured quantity,
bound); a row passes iff measured <= bound + ROW_TOLERANCE, so every pass
flag is recomputable from the stored fields.  Trend rows carry the
previous measured value (plus a 1e-12 slack) in their bound field.  Runs
are deterministic for a fixed (config, seed): Monte Carlo samples use
per-sample substreams, and every sweep runs its schedule in order.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .bernstein import (basis_matrix, bernstein_nodes, degree_vector, moment_sums,
                        multivariate_grid, uniform_constant)
from .capacity import (TABLE_ATOM_LIMIT, Capacity, DistortedRepr,
                       InputError, PossibilityRepr, capacity_from_spec,
                       certified_submodular, eval_sets, refuse_unknown_keys, subset_table)
from .choquet import (P_MAX, integral_batch, powered_integrals, semi_metric_levels,
                      sorted_levels)
from .randomfn import (_CHUNK_CELLS, ChoquetModulusTable, Grid, RandomFunction,
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


def refuse_constant(name: str):
    """``json``'s ``parse_constant`` hook: NaN, Infinity and -Infinity are refused."""
    raise ValueError(f"{name} is not a finite number")


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

_TAU = {"log": lambda n: math.log(n + 1.0), "sqrt": math.sqrt, "const": lambda n: 1.0}


def tau_value(tau: Mapping, n: int) -> float:
    """tau(n) = scale * the kind's rate; ``scale`` defaults to 1."""
    if tau.get("kind") not in _TAU:
        raise InputError(f"unknown tau kind {tau.get('kind')!r} (known: {tuple(_TAU)})")
    return float(tau.get("scale", 1.0)) * _TAU[tau["kind"]](n)


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


def _family(v, f) -> RandomFunction:
    """A name, or an object {"name": ..., "params": {...}}.

    The family is built on the capacity's atoms and must be finite on the
    run's grid; a stochastic run needs a continuous one and a capacity run a
    bounded one.
    """
    name, params = v, {}
    if isinstance(v, dict):
        refuse_unknown_keys(v, "family", ("name", "params"))
        name, params = v.get("name"), _as(dict, v.get("params", {}))
    fn = build_family(name, f["capacity"].atom_count, f["dim"], params)
    fn.grid_tensor(Grid(f["dim"], f["grid_points"]))  # memoized; refuses non-finite values
    if f["experiment"] == "stochastic" and not fn.continuous:
        raise ValueError(f"family '{name}' is not continuous in x; "
                         "stochastic runs require continuity")
    if f["experiment"] == "capacity_convergence" and fn.m_sup is None:
        raise ValueError(f"family '{name}' has no uniform bound; "
                         "capacity_convergence runs need a bounded family")
    return fn


def _capacity(spec, f) -> Capacity:
    """The capacity, which must meet the hypotheses of the run's estimate.

    Mean and capacity runs need one that ``certified_submodular`` certifies
    (analytically, or a table by its local check) and build its 2**M subset
    table, so at most ``TABLE_ATOM_LIMIT`` atoms.  Possibility runs need a
    possibility measure.  A stochastic run draws sample i on atom i mod M, so
    it needs a distorted capacity with uniform weights on the run's atoms
    (the default) whose distortion has a finite positive slope at zero.
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
            raise ValueError("capacity is not submodular")
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
    """Tuples of ``dim`` degrees (``degree_vector``), (n,) in 1-D.

    A run that reads a grid modulus at 1/sqrt(n) needs every degree at most
    the grid's ``finest_degree``, or the modulus, and so the bound, is 0.  A
    capacity run's trend row compares each entry with the one before, so no
    degree of its schedule may go down; a possibility run's trend rows read
    the modulus at each entry's smallest degree, so that one may not.
    """
    if not _as(list, v):
        raise ValueError("must be a nonempty list")
    out, finest = [], Grid(f["dim"], f["grid_points"]).finest_degree
    for entry in v:
        nv = degree_vector([_as(int, n) for n in entry] if isinstance(entry, list)
                           else _as(int, entry), f["dim"])
        if f["experiment"] != "capacity_convergence" and max(nv) > finest:
            raise ValueError(f"degree {max(nv)} is finer than the grid: "
                             f"{f['experiment']} runs need n <= (grid_points - 1)**2 "
                             f"= {finest}, or the modulus at 1/sqrt(n) is 0")
        if (f["experiment"] == "capacity_convergence" and out
                and any(a < b for a, b in zip(nv, out[-1]))):
            raise ValueError(f"entry {list(nv)} lowers a degree of {list(out[-1])}: "
                             "capacity_convergence runs need degrees that never go "
                             "down, since each trend row bounds the distance by the "
                             "previous entry's")
        if (f["experiment"] == "possibility_convergence" and out
                and min(nv) < min(out[-1])):
            raise ValueError(f"entry {list(nv)} lowers the smallest degree of "
                             f"{list(out[-1])}: possibility_convergence runs need a "
                             "smallest degree that never goes down, since each "
                             "trend row bounds the exceedance level by the "
                             "previous entry's")
        out.append(nv)
    return out


def _tau(v, f) -> dict:
    """tau(n) >= 1 for every n, and tau(n) < n along a stochastic schedule."""
    v = _as(dict, v)
    refuse_unknown_keys(v, "tau", ("kind", "scale"))
    tau = {"kind": v.get("kind"), "scale": _as(float, v.get("scale", 1.0))}
    # every catalog entry is nondecreasing in n, so tau(n) >= 1 reduces to n = 1
    if not tau_value(tau, 1) >= 1.0:
        raise ValueError(f"{tau} violates tau(n) >= 1")
    for (n,) in f["schedule"] if f["experiment"] == "stochastic" else ():
        if tau_value(tau, n) >= n:
            raise ValueError(f"tau(n) = {tau_value(tau, n):g} >= n at n = {n}; "
                             "the deviation estimate needs tau(n) < n")
    return tau


# Every key but 'experiment': key -> (type, range, default, runs), parsed in
# this order.  A type is a JSON type or a parser that also gets the keys parsed
# before it; a callable default is computed from those keys too.  A config sets
# only keys its run reads: ``runs`` lists those runs, or tests the raw config.
_SCHEMA = {
    "seed": (int, f"[0, {2 ** 64})", 0, EXPERIMENT_IDS),
    "samples": (int, "[1, inf)", 10000, ("stochastic",)),
    "degenerate_nodes": (bool, None, False, ("stochastic",)),
    # stochastic runs are 1-D and the Choquet-mean estimate is 2-D
    "dim": (int, "[1, 2]", lambda f: 1 if f["experiment"] == "stochastic" else 2,
            ("capacity_convergence", "possibility_convergence")),
    # elsewhere the atom count sizes the default capacity
    "atoms": (int, "[1, inf)", 5,
              lambda raw: raw["experiment"] == "stochastic" or "capacity" not in raw),
    "grid_points": (int, "[2, inf)",
                    lambda f: Grid.default_for(f["dim"]).points_per_axis, EXPERIMENT_IDS),
    "p": (_floats, f"[1, {P_MAX:g}]", [1.0], ("mean_convergence",)),
    "deltas": (_floats, "(0, 1)", [0.1, 0.2], ("stochastic",)),
    "epsilons": (_floats, "(0, inf)", [0.1],
                 ("capacity_convergence", "possibility_convergence", "stochastic")),
    "etas": (_floats, "(0, 1)", [0.05], ("capacity_convergence",)),
    "rs": (_floats, "(0, 1)", [0.9], ("stochastic",)),
    "capacity": (_capacity, None, _default_capacity, EXPERIMENT_IDS),
    "family": (_family, None, "affine_noise", EXPERIMENT_IDS),
    "schedule": (_schedule, None, lambda f: _DEFAULT_SCHEDULES[f["experiment"]],
                 EXPERIMENT_IDS),
    "tau": (_tau, None, {"kind": "log", "scale": 4.0}, ("stochastic",)),
}


def _reads(raw: Mapping) -> list[str]:
    """The ``_SCHEMA`` keys that the run of config ``raw`` reads, in order."""
    return [key for key, (*_, runs) in _SCHEMA.items()
            if (runs(raw) if callable(runs) else raw["experiment"] in runs)]


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    capacity: Capacity
    family: RandomFunction
    dim: int
    schedule: list
    p: tuple[float, ...]
    grid_points: int
    deltas: tuple[float, ...]
    epsilons: tuple[float, ...]
    etas: tuple[float, ...]
    rs: tuple[float, ...]
    tau: dict
    seed: int
    samples: int
    degenerate_nodes: bool = False
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
        unread = sorted(raw.keys() - _reads(raw) - {"experiment"})
        if unread:
            raise ConfigError(f"key '{unread[0]}': not read by this {raw['experiment']} "
                              f"run (it reads: experiment, {', '.join(_reads(raw))})")
        for key, value in raw.items():
            with named_errors(f"key '{key}'"):
                json.loads(json.dumps(value), parse_constant=refuse_constant)
        f = {"experiment": raw["experiment"]}
        for key, (kind, interval, default, _) in _SCHEMA.items():
            value = raw[key] if key in raw else (
                default(f) if callable(default) else default)
            with named_errors(f"key '{key}'"):
                f[key] = _as(kind, value) if kind in _JSON_TYPES else kind(value, f)
                for x in f[key] if isinstance(f[key], tuple) else [f[key]]:
                    if interval and not _within(x, interval):
                        raise ValueError(f"{x!r} is not in {interval}")
        del f["atoms"]  # the capacity holds the count
        return cls(**f, raw=raw)


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def _result(cfg: ExperimentConfig, rows: list[BoundRow], t0: float) -> ExperimentResult:
    """The rows with the run metadata; ``t0`` is when the timed part began."""
    return ExperimentResult(rows, {
        "experiment": cfg.experiment, "seed": cfg.seed,
        "grid_points": cfg.grid_points, "config_hash": cfg.config_hash(),
        "wall_time": time.perf_counter() - t0,
        "vacuous": [i for i, r in enumerate(rows) if r.vacuous]})


def _step(n_vec) -> float:
    """1/sqrt(min n): the step at which an estimate reads a modulus."""
    return 1.0 / math.sqrt(min(n_vec))


def uniform_estimate(f: RandomFunction, n_vec, grid: Grid, profile=None):
    """(sup |B_n f - f|, omega, c * omega) per atom on ``grid``, shape (M,) each.

    The estimate is sup |B_n f - f| <= c * omega(1/sqrt(min n)), c the
    ``uniform_constant`` of f's dimension.  ``profile`` is a
    ``sample_modulus_profile`` of f on ``grid`` that reaches the step.
    """
    step = _step(n_vec)
    omega = profile_at(*(profile or sample_modulus_profile(f, grid, max_dist=step)), step)
    err = np.abs(f.grid_tensor(grid) - multivariate_grid(f, n_vec, grid))
    return err.max(axis=tuple(range(f.dim))), omega, uniform_constant(f.dim) * omega


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
    are computed once, up to the largest integer p, and shared by every p,
    and by both axes where n1 = n2.
    A non-integer p has no finite expansion and takes the direct double sum
    of ``_cp_sup_direct``.
    """
    top = max((int(p) for p in powers if float(p).is_integer()), default=0)
    a = moment_sums(n1, grid.coords, top)
    b = a if n2 == n1 else moment_sums(n2, grid.coords, top)
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
    # the nodes spelled out, not ``bernstein_nodes``: this is the reference
    dev1, dev2 = (math.sqrt(n) * np.abs(coords[:, None] - np.arange(n + 1) / n)
                  for n in (n1, n2))
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
    # per axis, the coarsest step of the schedule
    table = ChoquetModulusTable(f, cap, grid, tuple(map(_step, zip(*cfg.schedule))),
                                powers=cfg.p)

    # rows are p-major: every schedule entry for one p, then the next p
    per_p = [[] for _ in cfg.p]
    for n1, n2 in cfg.schedule:
        # one approximation error per schedule entry, shared by every p
        err = np.abs(tensor - multivariate_grid(f, (n1, n2), grid)).reshape(-1, m)
        cps = _cp_sup(n1, n2, cfg.p, grid)
        integrals = powered_integrals(*sorted_levels(err, mu), cfg.p)
        for rows_of_p, p, cp, integral in zip(per_p, cfg.p, cps, integrals):
            gamma = table.gamma(1.0 / math.sqrt(n1), 1.0 / math.sqrt(n2), p=p)
            # clamped at 0: a table within TOL below 0 can round an integral below it
            lhs = np.maximum(integral, 0.0) ** (1.0 / p)
            bound = cp ** (1.0 / p) * gamma
            rows_of_p.append(BoundRow("mean_convergence", n1, n2, p, None, None, None,
                                      float(lhs.max()), bound))
    return _result(cfg, [row for rows_of_p in per_p for row in rows_of_p], t0)


def run_capacity_convergence(cfg: ExperimentConfig) -> ExperimentResult:
    """Semi-metric trend, Markov transfer, and threshold rows along the schedule."""
    f, cap, grid = cfg.family, cfg.capacity, Grid(cfg.dim, cfg.grid_points)
    t0 = time.perf_counter()
    tensor = f.grid_tensor(grid)
    mu = subset_table(cap)

    rows: list[BoundRow] = []
    computed = []  # (d_n, caps) per schedule entry, for the threshold rows
    prev_d = None
    for entry in cfg.schedule:
        diff = np.abs(tensor - multivariate_grid(f, entry, grid))
        # d_n is _semi_metric_of(diff, mu) and each cap the largest
        # capacity of {diff >= eps}, from one sort of the rows
        integrals, exceedances = semi_metric_levels(diff.reshape(-1, cap.atom_count),
                                                    mu, cfg.epsilons)
        d_n = float(integrals.max())
        caps = [float(e.max()) for e in exceedances]
        computed.append((d_n, caps))
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
    profile = sample_modulus_profile(f, grid, max_dist=max(map(_step, cfg.schedule)))

    rows: list[BoundRow] = []
    prev = {eps: None for eps in cfg.epsilons}
    for n_vec in cfg.schedule:
        sup_err, o_vals, bound = uniform_estimate(f, n_vec, grid, profile)
        n1, n2 = (*n_vec, None)[:2]
        rows.append(BoundRow("possibility_convergence", n1, n2, None, None, None,
                             None, float((sup_err - bound).max()), 0.0))
        for eps in cfg.epsilons:
            level = float(eval_sets(cap, (o_vals > eps)[None, :])[0])
            trend_bound = 1.0 if prev[eps] is None else prev[eps] + TREND_SLACK
            rows.append(BoundRow("possibility_convergence", n1, n2, None, eps, None,
                                 None, level, trend_bound))
            prev[eps] = level
    return _result(cfg, rows, t0)


# the stochastic sweep multiplies node values by the basis in index-aligned
# chunks of _GEMM_ROWS rows, every GEMM of one shape, so a sample's sup error
# does not depend on the block that holds it; a block is a whole number of
# chunks, about _BLOCK_CELLS cells of node rows or of grid values.  Two
# blocks' node rows are alive at once (the helper thread makes the next while
# the GEMM runs on this one), each at most 2 MB unless one chunk of rows is
# larger, so the sweep's working set does not grow with 'samples'
_GEMM_ROWS = 128
_BLOCK_CELLS = 2 ** 18


def _node_pass(f: RandomFunction, rows: np.ndarray, start: int) -> np.ndarray:
    """Node deviation M_n of each sample in one block, then its node values.

    Row i is sample ``start + i``, on atom (start + i) mod M.  Chunk by chunk
    of ``_CHUNK_CELLS`` cells, M_n is taken before the node values overwrite
    the chunk, the rows of one atom evaluated through one strided view.
    """
    m = f.atom_count
    count, width = rows.shape
    dev = np.empty(count)
    step = max(1, _CHUNK_CELLS // width)
    for c in range(0, count, step):
        part = rows[c:c + step]
        dev[c:c + step] = max_deviation_rows(part)
        for i in range(min(m, len(part))):
            part[i::m] = f.evaluator(part[i::m][..., None], (start + c + i) % m)
    return dev


def _sup_errors(values: np.ndarray, start: int, basis_t: np.ndarray,
                grid_values: np.ndarray, approx: np.ndarray) -> np.ndarray:
    """Sup error of each sample in one block, from its node values.

    Row i is sample ``start + i``, on atom w = (start + i) mod M; its sup
    error is the sup over grid x of |B_n(f, Y)(x, w) - f(x, w)|.  ``start``
    is a multiple of ``_GEMM_ROWS``.  Each chunk of ``_GEMM_ROWS`` rows, the
    last one zero-padded, is one GEMM into the (_GEMM_ROWS, g) buffer
    ``approx``, from which the grid values are subtracted in place before
    the chunk's abs-max.
    """
    m = grid_values.shape[1]
    sup_err = np.empty(len(values))
    for c in range(0, len(values), _GEMM_ROWS):
        chunk = values[c:c + _GEMM_ROWS]
        rows = len(chunk)
        if rows < _GEMM_ROWS:
            chunk = np.pad(chunk, ((0, _GEMM_ROWS - rows), (0, 0)))
        part = np.matmul(chunk, basis_t, out=approx)[:rows]
        for i in range(min(m, rows)):
            part[i::m] -= grid_values[:, (start + c + i) % m]
        np.abs(part, out=part).max(axis=1, out=sup_err[c:c + rows])
    return sup_err


def _sample_errors(f: RandomFunction, n: int, cfg: ExperimentConfig,
                   start_index: int, grid: Grid, grid_values: np.ndarray):
    """Per-sample node deviation M_n and sup error of one degree, block by block.

    Yields (dev, sup_err) for consecutive blocks of
    ``_GEMM_ROWS * max(1, _BLOCK_CELLS // (_GEMM_ROWS * max(n + 1, g)))``
    samples, g the grid size, so memory does not grow with ``cfg.samples``.
    Sample i uses substream ``start_index + i`` and atom i mod M.  The
    blocks run as a two-stage pipeline: while this thread runs one block's
    GEMMs and error reduction, a helper thread draws the next block's rows
    and runs its node pass.
    Every chunk's GEMM writes into one product buffer that lives as long
    as the degree, so the helper's temporaries meet the same arrays here
    however the two threads interleave, and the peak is reached in the
    first blocks, not by chance in one of many.
    """
    basis_t = basis_matrix(n, grid.coords).T
    g = grid.points_per_axis
    block = _GEMM_ROWS * max(1, _BLOCK_CELLS // (_GEMM_ROWS * max(n + 1, g)))
    approx = np.empty((_GEMM_ROWS, g))

    def nodes(s):  # on the helper thread
        count = min(block, cfg.samples - s)
        rows = (np.tile(bernstein_nodes(n), (count, 1)) if cfg.degenerate_nodes
                else sample_rows(n, cfg.seed, count, start_index=start_index + s))
        return rows, _node_pass(f, rows, s)

    from concurrent.futures import ThreadPoolExecutor  # here: it loads logging
    with ThreadPoolExecutor(max_workers=1) as helper:  # joined on every exit
        ahead = helper.submit(nodes, 0)
        for s in range(0, cfg.samples, block):
            # the helper's exception is raised here; the rebinding frees the
            # last block's rows while the helper is idle, so the next block's
            # rows reuse their memory (freed during a node pass, they can be
            # split by its small allocations, and the peak RSS grows a block)
            values, dev = ahead.result()
            if s + block < cfg.samples:
                ahead = helper.submit(nodes, s + block)
            sup_err = _sup_errors(values, s, basis_t, grid_values, approx)
            yield dev, sup_err


def run_stochastic_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Monte Carlo verification of the stochastic-node estimates.

    Per schedule degree the run emits, in order: one chain row (largest
    excess of the per-sample error over c*K(1/sqrt(n)) + K(M_n)), then per
    admissible delta an implication-violation count row and a
    capacity-level row, then per (epsilon, r) a deviation-bound row, then
    per r a rate-function row.  Sample i of degree-index d uses substream
    (seed, d * samples + i) with atom i mod M, so results are independent
    of batching.  Every threshold is known before the first draw, so each
    statistic (a maximum or a count, both exact) is reduced block by block
    and no array grows with ``samples``.
    """
    u = cfg.capacity.form.distortion
    f, grid = cfg.family, Grid(1, cfg.grid_points)
    t0 = time.perf_counter()
    ktab = KTable(f, grid)
    c = uniform_constant(1)
    grid_values = f.grid_tensor(grid)  # (g, M)
    s_count = cfg.samples
    u_slope = u.derivative_at_zero

    rows: list[BoundRow] = []
    for d_idx, n in enumerate(sorted({n for (n,) in cfg.schedule})):
        c_k_sqrt = c * float(ktab(_step((n,))))  # c K(1/sqrt(n))
        deltas = [d for d in cfg.deltas if n >= 1.0 / (d * d) and ktab(d) > 0.0]
        tau_n = tau_value(cfg.tau, n)
        # M_n is counted above each delta, then above each epsilon; the sup
        # error above (1 + c) K(delta) for each delta, then for sqrt(tau(n) / n)
        dev_cuts = np.array([*deltas, *cfg.epsilons])
        err_cuts = np.array([(1.0 + c) * float(ktab(d)) + EVENT_SLACK
                             for d in (*deltas, math.sqrt(tau_n / n))])
        nd = len(deltas)
        chain_excess = -math.inf
        dev_over = np.zeros(dev_cuts.size, dtype=np.int64)
        err_over = np.zeros(err_cuts.size, dtype=np.int64)
        violations = np.zeros(nd, dtype=np.int64)
        for dev, sup_err in _sample_errors(f, n, cfg, d_idx * s_count, grid, grid_values):
            chain_excess = np.maximum(chain_excess, (sup_err - (c_k_sqrt + ktab(dev))).max())
            dev_hit = dev > dev_cuts[:, None]
            err_hit = sup_err > err_cuts[:, None]
            dev_over += np.count_nonzero(dev_hit, axis=1)
            err_over += np.count_nonzero(err_hit, axis=1)
            violations += np.count_nonzero(err_hit[:nd] & ~dev_hit[:nd], axis=1)
        dev_over, err_over = dev_over.tolist(), err_over.tolist()

        rows.append(BoundRow("stochastic", n, None, None, None, None, None,
                             float(chain_excess), 0.0))
        for j, delta in enumerate(deltas):
            rows.append(BoundRow("stochastic", n, None, None, delta, None, None,
                                 float(violations[j]), 0.0))
            rows.append(BoundRow("stochastic", n, None, None, delta, delta, None,
                                 u(err_over[j] / s_count), u(dev_over[j] / s_count)))
        for eps, over in zip(cfg.epsilons, dev_over[nd:]):
            p_hat = over / s_count
            sigma = math.sqrt(p_hat * (1.0 - p_hat) / s_count)
            for r in cfg.rs:
                closed = lemma51_bound(n, eps, r, u_slope)
                rows.append(BoundRow("stochastic", n, None, None, eps, None, r,
                                     u(p_hat), closed + 3.0 * u_slope * sigma,
                                     vacuous=closed >= 1.0))
        p_hat6 = err_over[-1] / s_count
        sigma6 = math.sqrt(p_hat6 * (1.0 - p_hat6) / s_count)
        for r in cfg.rs:
            closed = theorem6_bound(n, tau_n, r, u_slope)
            rows.append(BoundRow("stochastic", n, None, None, None, None, r,
                                 u(p_hat6), closed + 3.0 * u_slope * sigma6,
                                 vacuous=closed >= 1.0))
    return _result(cfg, rows, t0)


_RUNNERS = {
    "mean_convergence": run_mean_convergence,
    "capacity_convergence": run_capacity_convergence,
    "possibility_convergence": run_possibility_convergence,
    "stochastic": run_stochastic_experiment,
}


@functools.cache
def _openblas_threads():
    """(get, set) of the loaded OpenBLAS's thread count, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = [line.split()[-1] for line in fh if "openblas" in line]
    except OSError:  # no /proc/self/maps outside Linux
        return None
    if not libs:
        return None
    try:
        lib = ctypes.CDLL(libs[0])
    except OSError:  # the mapped file is gone or cannot be opened again
        return None
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):
        get = getattr(lib, name.format("get"), None)
        put = getattr(lib, name.format("set"), None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


class _OneBlasThread:
    """OpenBLAS at one thread while a run is inside, its count restored on
    every exit, an exception included.

    A GEMM's bits can depend on the thread count, which is global to the
    process, so a run pins it.  Runs on several threads share the pin: the
    count the first one found is restored when the last one leaves.  BLAS
    runs only on the thread that called ``run_experiment``, so the
    stochastic sweep's helper thread is not affected.  Where no OpenBLAS
    symbol is found, this does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._runs = 0
        self._before = 0

    def __enter__(self):
        blas = _openblas_threads()
        if blas is not None:
            get, put = blas
            with self._lock:
                if self._runs == 0:
                    self._before = get()
                    put(1)
                self._runs += 1

    def __exit__(self, *exc_info):
        blas = _openblas_threads()
        if blas is not None:
            with self._lock:
                self._runs -= 1
                if self._runs == 0:
                    blas[1](self._before)


_ONE_BLAS_THREAD = _OneBlasThread()


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    with _ONE_BLAS_THREAD:
        return _RUNNERS[cfg.experiment](cfg)
