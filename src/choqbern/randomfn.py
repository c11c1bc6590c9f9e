"""Random functions on the unit cube and their moduli of continuity.

A random function maps (point, atom) to a real; fixing the atom yields a
sample function.  All suprema over the cube are taken over finite
equispaced grids so results are reproducible; grid moduli lower-bound
their continuum counterparts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Mapping

import numpy as np

from .capacity import Capacity, InputError, certified_submodular, subset_table
from .choquet import P_MAX, sorted_levels, telescoped_sum

PAIR_TOL = 1e-12  # slack when matching grid pair distances against deltas

DEFAULT_GRID_1D = 257
DEFAULT_GRID_2D = 65


@dataclass(frozen=True)
class Grid:
    """Equispaced grid on [0, 1]^dim including both endpoints."""

    dim: int
    points_per_axis: int

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("grid dimension must be >= 1")
        if self.points_per_axis < 2:
            raise InputError("grid needs at least 2 points per axis")

    @property
    def coords(self) -> np.ndarray:
        g = self.points_per_axis
        return np.arange(g) / (g - 1)

    @property
    def spacing(self) -> float:
        return 1.0 / (self.points_per_axis - 1)

    @classmethod
    def default_for(cls, dim: int, points: int | None = None) -> "Grid":
        if points is None:
            points = DEFAULT_GRID_1D if dim == 1 else DEFAULT_GRID_2D
        return cls(dim, points)


@dataclass(eq=False)
class RandomFunction:
    """Stochastic process on [0, 1]^dim over ``atom_count`` atoms.

    ``evaluator(points, atom)`` must be a pure function accepting an array
    of shape (..., dim) and returning shape (...); grid tensors are
    memoized per grid (the only internal mutation).
    """

    atom_count: int
    dim: int
    evaluator: Callable[[np.ndarray, int], np.ndarray]
    name: str = "anonymous"
    m_sup: float | None = None
    continuous: bool = True
    _grids: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.atom_count < 1:
            raise InputError(f"a random function needs at least one atom, "
                             f"got {self.atom_count}")

    def eval(self, x, atom: int) -> float:
        pts = np.atleast_1d(np.asarray(x, dtype=float))
        if pts.shape != (self.dim,):
            raise InputError(f"point must have {self.dim} coordinates")
        if np.any(pts < -PAIR_TOL) or np.any(pts > 1 + PAIR_TOL):
            raise InputError(f"point {pts.tolist()} outside the unit cube")
        if not (0 <= atom < self.atom_count):
            raise InputError(f"atom index {atom} out of range")
        return float(self.evaluator(pts, atom))

    def grid_tensor(self, grid: Grid) -> np.ndarray:
        """Values on the grid, shape (g,)*dim + (M,); memoized."""
        if grid.dim != self.dim:
            raise InputError("grid dimension mismatch")
        key = (grid.dim, grid.points_per_axis)
        if key not in self._grids:
            pts = np.stack(np.meshgrid(*[grid.coords] * self.dim, indexing="ij"),
                           axis=-1)
            out = np.stack([self.evaluator(pts, w) for w in range(self.atom_count)],
                           axis=-1)
            out = np.ascontiguousarray(out, dtype=float)
            out.setflags(write=False)
            self._grids[key] = out
        return self._grids[key]


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def _coord_mean(pts: np.ndarray) -> np.ndarray:
    """Mean of the last axis; in 1-D the one coordinate, which has its bits."""
    return pts[..., 0] if pts.shape[-1] == 1 else np.mean(pts, axis=-1)


def _absdev(m: int, dim: int, params: dict) -> RandomFunction:
    def ev(pts, atom):
        return np.abs(_coord_mean(pts) - 0.5)
    return RandomFunction(m, dim, ev, name="deterministic:absdev", m_sup=0.5)


def _affine_noise(m: int, dim: int, params: dict) -> RandomFunction:
    z = np.asarray(params.pop("z", np.linspace(-1.0, 1.0, m) if m > 1 else [1.0]),
                   dtype=float)
    if z.shape != (m,):
        raise InputError(f"'z' needs {m} entries")
    scale = float(params.pop("scale", 1.0))
    amp = float(params.pop("amp", 0.25))

    def ev(pts, atom, z=z, scale=scale, amp=amp):
        sq = _coord_mean(pts) ** 2
        base = scale * sq
        # gain is nonlinear in x so the noise survives Bernstein smoothing
        noise_gain = amp * 0.5 * (1.0 + sq)
        return base + noise_gain * z[atom]

    sup = abs(scale) + abs(amp) * float(np.max(np.abs(z))) if z.size else abs(scale)
    return RandomFunction(m, dim, ev, name="affine_noise", m_sup=sup)


def _step_noise(m: int, dim: int, params: dict) -> RandomFunction:
    z = np.asarray(params.pop("z", np.linspace(-1.0, 1.0, m) if m > 1 else [1.0]),
                   dtype=float)
    thresholds = np.asarray(params.pop("thresholds",
                                       (np.arange(m) + 1.0) / (m + 1.0)), dtype=float)
    if z.shape != (m,) or thresholds.shape != (m,):
        raise InputError(f"'z' and 'thresholds' need {m} entries")

    def ev(pts, atom, z=z, thresholds=thresholds):
        return np.where(_coord_mean(pts) >= thresholds[atom], z[atom], 0.0)

    sup = float(np.max(np.abs(z))) if z.size else 0.0
    return RandomFunction(m, dim, ev, name="step_noise", m_sup=sup,
                          continuous=False)


# name -> builder(m, dim, params) on m atoms; a builder pops each parameter it reads
FAMILIES: dict[str, Callable[[int, int, dict], RandomFunction]] = {
    "deterministic:absdev": _absdev,
    "affine_noise": _affine_noise,
    "step_noise": _step_noise,
}


def build_family(name: str, m: int, dim: int,
                 params: Mapping | None = None) -> RandomFunction:
    """The family ``name`` on ``m`` atoms; a parameter its builder does not read
    is refused."""
    if name not in FAMILIES:
        raise InputError(f"unknown family '{name}' (known: {sorted(FAMILIES)})")
    unread = dict(params or {})
    f = FAMILIES[name](m, dim, unread)
    if unread:
        raise InputError(f"family '{name}' has no parameter {list(unread)[0]!r}")
    return f


def list_families() -> list[str]:
    return sorted(FAMILIES)


# ---------------------------------------------------------------------------
# Moduli of continuity on grids
# ---------------------------------------------------------------------------

def _window(delta: float, grid: Grid) -> int:
    if delta < 0:
        raise InputError("delta must be nonnegative")
    steps = math.floor((delta + PAIR_TOL) / grid.spacing + 1e-9)
    return min(max(steps, 0), grid.points_per_axis - 1)


def _box_windows(deltas, grid: Grid) -> tuple[int, int]:
    """Per-axis windows (w1, w2) of a box of one delta for every axis, or one
    per axis, on a grid of dim <= 2; a 1-D box has w2 = 0."""
    if grid.dim > 2:
        raise InputError("modulus computation supports dim <= 2 only")
    deltas = np.ravel(deltas)
    if deltas.size not in (1, grid.dim):
        raise InputError(f"expected one delta or {grid.dim}, got {deltas.size}")
    windows = [_window(float(d), grid) for d in np.broadcast_to(deltas, grid.dim)]
    return (*windows, 0)[:2]


def _offsets(w1: int, w2: int) -> list[tuple[int, int]]:
    """Grid offsets (dx, dy) != (0, 0) with dx <= w1 and |dy| <= w2, one of
    each pair +-(dx, dy): dx >= 0, and dy > 0 where dx = 0.

    With w2 = 0 these are the 1-D offsets (1, 0) ... (w1, 0).
    """
    return [(dx, dy) for dx in range(w1 + 1)
            for dy in range(0 if dx == 0 else -w2, w2 + 1) if (dx, dy) != (0, 0)]


def _translate_pair(tensor: np.ndarray, offset: tuple[int, ...]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Views (a, b) of a grid tensor with a[i] = tensor[i + offset] and
    b[i] = tensor[i], over the grid indices i where both points exist.

    ``offset`` holds one step per leading axis; a zero step keeps its axis
    whole, so (0, dx, dy) translates an atom-major (M, g, g) tensor.
    """
    a = tuple([slice(d, None) if d >= 0 else slice(None, n + d)
               for d, n in zip(offset, tensor.shape)])
    b = tuple([slice(None, n - d) if d >= 0 else slice(-d, None)
               for d, n in zip(offset, tensor.shape)])
    return tensor[a], tensor[b]


def _powered_integrals(v: np.ndarray, mu: np.ndarray, powers) -> list[np.ndarray]:
    """Integrals of |D|^p per column of ``sorted_levels`` output, one array per p.

    |D| and |D|^p sort identically, so every p shares one sorting pass.
    """
    return [telescoped_sum(v if p == 1.0 else v ** p, mu) for p in powers]


def _keep_thresholds(rows: np.ndarray, mu_table: np.ndarray, powers,
                     factor: float) -> np.ndarray:
    """One UB threshold per (K, M) row of |D|: a lower bound of min over p of
    (LB_p / factor)^(1/p), where LB_p is the row's integral of |D|^p.

    Each p's root is taken of r = LB_p / factor, or of 0 where r is below
    the normal range or not finite; see "Threshold slack" in
    ``ChoquetModulusTable``.
    """
    r = np.array(_powered_integrals(*sorted_levels(rows, mu_table), powers)) / factor
    r[~((r >= np.finfo(float).tiny) & (r <= np.finfo(float).max))] = 0.0
    roots = r ** (1.0 / np.array(powers))[:, None] * (1.0 - 360 * np.finfo(float).eps)
    return roots.min(axis=0)


def _predecessor_thresholds(atoms: np.ndarray, mu_table: np.ndarray, powers,
                            factor: float, dx: int, tops: dict) -> dict:
    """Keep thresholds of the offsets (dx, dy) whose (dx - 1, dy) was walked.

    ``atoms`` is the atom-major grid tensor and ``tops[dy]`` the grid position
    of the top-UB cell of (dx - 1, dy); clipped into the one fewer first-axis
    position of (dx, dy), it is a cell of (dx, dy), and the LB is that cell's
    integral.  One gather and one ``_keep_thresholds`` call serve every dy.
    """
    if not tops:
        return {}
    dim = atoms.ndim - 1
    dys = list(tops)
    pos = np.array([tops[dy] for dy in dys]).T  # (dim, len(dys))
    pos[0] = np.minimum(pos[0], atoms.shape[1] - 1 - dx)
    steps = np.array([(dx, dy)[:dim] for dy in dys]).T
    # the cells of ``_translate_pair``: a at pos + max(step, 0), b at pos + max(-step, 0)
    a = atoms[(slice(None), *(pos + np.maximum(steps, 0)))]
    b = atoms[(slice(None), *(pos + np.maximum(-steps, 0)))]
    return dict(zip(dys, _keep_thresholds(np.abs(a - b).T, mu_table, powers, factor)))


class ChoquetModulusTable:
    """Per-offset maxima of the Choquet L^p distance between grid translates.

    Precomputes, for every axis offset within a window, the maximum over
    grid positions of the integral of |F(t) - F(s)|^p; modulus queries then
    reduce to a maximum over the offsets inside a delta box (``_box_windows``);
    a 1-D table is a 2-D one with no second axis.

    Exact pruning.  For h >= 0 and any nonnegative monotone table, the
    Choquet integral of h is at most max(h) * max(mu_table): the telescoped
    terms (h_k - h_(k-1)) mu_k sum to at most max(h) * mu_0 (Abel summation,
    mu_k nonincreasing in k).  No submodularity is needed, and mu of the
    full set may exceed 1.  So per offset, with UB the max over atoms of a
    cell's |D| and LB_p the integral of any one cell of the offset, a cell
    with UB^p * max(mu_table) < LB_p for every p cannot hold a maximum of
    the offset.  One threshold per offset, a lower bound thr of min over p
    of (LB_p / max(mu_table))^(1/p), decides: only the cells with UB >= thr
    go through ``sorted_levels``/``telescoped_sum``.

    The LB cell of (dx, dy) is the top-UB grid position of (dx - 1, dy),
    clipped into the cell range of (dx, dy): neighbouring offsets peak at
    nearby positions, and one gather and one ``sorted_levels`` call give
    the LBs, and one vectorised root the thresholds, of every dy of a dx
    before its dy loop.  Offsets with no (dx - 1, dy), which are (0, dy > 0)
    and (1, dy <= 0), and (1,) in 1-D, take their own top-UB cell through
    the same ``_keep_thresholds``.

    Rounding slack, with u = eps / 2.  The kernel's |D|^p values lie within
    one ulp (2u) of the exact powers, so none exceeds (1 + 2u) UB^p, and the
    bound above (Abel summation needs no order among them) caps their exact
    telescoped sum at (1 + 2u) UB^p max(mu_table).  The kernel adds M terms,
    each formed by one difference and one product, so its result exceeds that
    sum by at most (M + 1)u relative, up to O(M u^2) terms.  The bound test
    fl(fl(UB^p) * F) >= LB_p loses at most 4u to its power and two products.
    So a cell's computed integral stays below its computed bound once the
    factor F exceeds 1 + (M + 7)u + O(M u^2); the factor
    F = max(mu_table) * (1 + (M + 4) eps) = max(mu_table) * (1 + (2M + 8)u)
    leaves (M + 1)u for the second-order terms.  LB_p is the computed
    integral of a cell of the offset, so it is at most the offset's computed
    maximum: a cell that fails the bound test for every p has a computed
    integral below every such maximum, and each p's maximum cell passes.

    Threshold slack.  ``_keep_thresholds`` takes thr = min over p of
    thr_p = fl(fl(r^q) * s), with r = fl(LB_p / F), q = fl(1/p) and
    s = 1 - 360 eps = 1 - 720u (exact), and every cell that passes the bound
    test for some p has UB >= thr_p.  Such a cell has LB_p <= fl(fl(UB^p) F)
    <= UB^p F (1 + 2u)(1 + u) (power and product of the test), so
    UB >= (LB_p / F)^(1/p) (1 - 3u - O(u^2)); an overflowed fl(UB^p) means
    UB^p > MAX >= r, which also puts UB above thr_p.  Against that, thr_p
    exceeds (LB_p / F)^(1/p) s by at most u from the division (inside a
    root with p >= 1), 2u from the root itself, a factor
    exp(u |ln r| / p) <= 1 + 710u + O(u^2) from q, as |q - 1/p| <= u / p
    and a finite normal r has |ln r| < 709.8, and u from the product with s
    (also where it dips below the normal range: fl(r^q) >= min(r, 1) is
    normal, so the subnormal spacing there is 2u * tiny <= 2u fl(r^q)).
    That is 717u + O(u^2) in all; s leaves 3u for the second-order terms.
    Where r is below the normal range (subnormal, 0, or negative through a
    table entry in [-``capacity.TOL``, 0)) or not finite, its relative error
    is unbounded, and the root is taken of 0: thr_p = 0 keeps every cell of
    the offset, a superset of any kept set.  LB_p = 0, as for a constant
    function, so keeps every cell, and no offset reaches
    ``np.maximum.reduceat`` with no kept cell.

    The kept cells of every dy of one dx run through the kernel together,
    and ``np.maximum.reduceat`` takes each offset's maximum; each cell's
    integral does not depend on the batch (``telescoped_sum``
    is elementwise per column), so LB_p has the bits of its cell's kernel
    result, and every table entry has the bits an unpruned kernel gives it.
    Keeping more cells than the bound test changes no entry, and the next
    dx's LB cells come from the UB argmax, which the keep test does not move.
    The working set is one offset's |D| plus one dx's kept cells.
    """

    def __init__(self, f: RandomFunction, cap: Capacity, grid: Grid,
                 max_deltas, powers):
        w1, w2 = _box_windows(max_deltas, grid)
        self.powers = tuple(float(p) for p in powers)
        for p in self.powers:
            if not (1.0 <= p <= P_MAX):
                raise InputError(f"p must lie in [1, {P_MAX:g}], got {p}")
        if not certified_submodular(cap):
            warnings.warn("capacity is not certified submodular; the modulus "
                          "triangle/scaling properties may fail", stacklevel=2)
        self.grid = grid
        m = f.atom_count
        # atom-major, so an offset's |D| is (M, cells) and UB a leading-axis max
        atoms = np.ascontiguousarray(np.moveaxis(f.grid_tensor(grid), -1, 0))
        mu_table = subset_table(cap)
        factor = float(mu_table.max()) * (1.0 + (m + 4) * np.finfo(float).eps)
        # (w1 + 1,) in 1-D, (w1 + 1, 2 w2 + 1) in 2-D; written through (w1 + 1, -1) views
        self._off = {p: np.zeros((w1 + 1, 2 * w2 + 1)[:f.dim]) for p in self.powers}
        cells = {p: off.reshape(w1 + 1, -1) for p, off in self._off.items()}
        tops = {}  # dy -> grid position of the previous dx's top-UB cell
        for dx, group in groupby(_offsets(w1, w2), key=lambda o: o[0]):
            dys = [dy for _, dy in group]
            thr = _predecessor_thresholds(atoms, mu_table, self.powers, factor, dx, tops)
            tops = {}
            kept = []
            for dy in dys:
                a, b = _translate_pair(atoms, (0, dx, dy)[:1 + f.dim])
                d = np.abs(a - b).reshape(m, -1)
                ub = d.max(axis=0)
                top = ub.argmax()
                tops[dy] = np.unravel_index(top, a.shape[1:])
                t = thr[dy] if dy in thr else _keep_thresholds(
                    d[:, top].reshape(1, m), mu_table, self.powers, factor)[0]
                kept.append(d.compress(ub >= t, axis=1))
            starts = np.cumsum([0] + [k.shape[1] for k in kept[:-1]])
            v, mu = sorted_levels(np.concatenate(kept, axis=1).T, mu_table)
            for p, vals in zip(self.powers, _powered_integrals(v, mu, self.powers)):
                cells[p][dx, dys[0] + w2:dys[-1] + w2 + 1] = np.maximum.reduceat(vals, starts)

    def gamma(self, *deltas: float, p: float) -> float:
        """Choquet L^p modulus for a delta box: one delta, or one per axis."""
        if p not in self._off:
            raise InputError(f"p={p} was not precomputed (have {self.powers})")
        d1, d2 = _box_windows(deltas, self.grid)
        off = self._off[p]
        off = off.reshape(len(off), -1)  # (w1 + 1, 2 w2 + 1), w2 = 0 in 1-D
        w2 = off.shape[1] // 2
        if d1 + 1 > off.shape[0] or d2 > w2:
            raise InputError("delta exceeds the precomputed window")
        best = float(off[:d1 + 1, w2 - d2:w2 + d2 + 1].max())
        return best ** (1.0 / p)


def choquet_modulus(f: RandomFunction, cap: Capacity, deltas, p: float,
                    grid: Grid) -> float:
    """Choquet L^p modulus over grid pairs in a box of one delta or one per axis."""
    table = ChoquetModulusTable(f, cap, grid, deltas, powers=(p,))
    return table.gamma(*np.ravel(deltas), p=table.powers[0])


def sample_modulus_profile(f: RandomFunction, grid: Grid,
                           max_dist: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-atom maxima of |f(x, w) - f(y, w)| by Euclidean grid distance.

    Returns (distances, profile) where profile[d, w] is the running max of
    sample increments over all grid pairs at distance <= distances[d];
    distances are sorted ascending starting at 0.  ``max_dist`` prunes the
    offset enumeration to distances that will actually be queried.
    """
    if max_dist is None:
        max_dist = math.sqrt(f.dim) + 1.0  # beyond every grid pair
    limit = max_dist + PAIR_TOL
    w1, w2 = _box_windows(max_dist, grid)
    tensor = f.grid_tensor(grid)
    entries = []
    for dx, dy in _offsets(w1, w2):
        dist = math.hypot(dx, dy) * grid.spacing
        # the window bounds a 1-D walk (w2 = 0); in 2-D the disc trims its corners
        if w2 and dist > limit:
            continue
        a, b = _translate_pair(tensor, (dx, dy)[:f.dim])
        entries.append((dist, np.abs(a - b).reshape(-1, f.atom_count).max(axis=0)))
    entries.sort(key=lambda e: e[0])
    dists = np.array([0.0] + [e[0] for e in entries])
    prof = np.vstack([np.zeros(f.atom_count)] + [e[1] for e in entries])
    return dists, np.maximum.accumulate(prof, axis=0)


def profile_at(dists: np.ndarray, profile: np.ndarray, delta):
    """Rows of a ``sample_modulus_profile`` at ``delta``, a number or an array.

    The row of the largest distance <= delta + PAIR_TOL: right-continuous in
    delta, and a delta that misses a grid distance by rounding still gets it.
    """
    delta = np.asarray(delta, dtype=float)
    if np.any(delta < 0):
        raise InputError("delta must be nonnegative")
    return profile[np.searchsorted(dists, delta + PAIR_TOL, side="right") - 1]


def stochastic_modulus(f: RandomFunction, delta: float, atom: int,
                       grid: Grid) -> float:
    """Max of |f(x, atom) - f(y, atom)| over grid pairs with ||x-y|| <= delta."""
    if not (0 <= atom < f.atom_count):
        raise InputError(f"atom index {atom} out of range")
    dists, prof = sample_modulus_profile(f, grid, max_dist=delta)
    return float(profile_at(dists, prof, delta)[atom])
