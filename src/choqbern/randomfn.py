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
from typing import Callable, Mapping

import numpy as np

from .capacity import Capacity, GroundSpace, InputError, known_submodular, subset_table
from .choquet import P_MAX

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
    """Stochastic process on [0, 1]^dim over a finite atom space.

    ``evaluator(points, atom)`` must be a pure function accepting an array
    of shape (..., dim) and returning shape (...); grid tensors are
    memoized per grid (the only internal mutation).
    """

    space: GroundSpace
    dim: int
    evaluator: Callable[[np.ndarray, int], np.ndarray]
    name: str = "anonymous"
    m_sup: float | None = None
    continuous: bool = True
    _grids: dict = field(default_factory=dict, repr=False)

    @property
    def atom_count(self) -> int:
        return self.space.atom_count

    def eval(self, x, atom: int) -> float:
        pts = np.atleast_1d(np.asarray(x, dtype=float))
        if pts.shape != (self.dim,):
            raise InputError(f"point must have {self.dim} coordinates")
        if np.any(pts < -PAIR_TOL) or np.any(pts > 1 + PAIR_TOL):
            raise InputError(f"point {pts.tolist()} outside the unit cube")
        if not (0 <= atom < self.atom_count):
            raise InputError(f"atom index {atom} out of range")
        return float(self.evaluator(pts, atom))

    def sample(self, atom: int) -> "SampleFunction":
        return SampleFunction(self, atom)

    def grid_tensor(self, grid: Grid) -> np.ndarray:
        """Values on the grid, shape (g,)*dim + (M,); memoized."""
        if grid.dim != self.dim:
            raise InputError("grid dimension mismatch")
        key = (grid.dim, grid.points_per_axis)
        if key not in self._grids:
            c = grid.coords
            if self.dim == 1:
                pts = c[:, None]
            else:
                mesh = np.meshgrid(*([c] * self.dim), indexing="ij")
                pts = np.stack(mesh, axis=-1)
            out = np.stack([self.evaluator(pts, w) for w in range(self.atom_count)],
                           axis=-1)
            out = np.ascontiguousarray(out, dtype=float)
            out.setflags(write=False)
            self._grids[key] = out
        return self._grids[key]


@dataclass(frozen=True)
class SampleFunction:
    """One deterministic sample path of a random function."""

    parent: RandomFunction
    atom: int

    def __call__(self, x) -> float:
        return self.parent.eval(x, self.atom)


def eval_random_function(f: RandomFunction, x, atom: int) -> float:
    return f.eval(x, atom)


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def _absdev(space: GroundSpace, dim: int, params: Mapping) -> RandomFunction:
    def ev(pts, atom):
        return np.abs(np.mean(pts, axis=-1) - 0.5)
    return RandomFunction(space, dim, ev, name="deterministic:absdev", m_sup=0.5)


def _affine_noise(space: GroundSpace, dim: int, params: Mapping) -> RandomFunction:
    m = space.atom_count
    z = np.asarray(params.get("z", np.linspace(-1.0, 1.0, m) if m > 1 else [1.0]),
                   dtype=float)
    if z.shape != (m,):
        raise InputError(f"'z' needs {m} entries")
    scale = float(params.get("scale", 1.0))
    amp = float(params.get("amp", 0.25))

    def ev(pts, atom, z=z, scale=scale, amp=amp):
        mean = np.mean(pts, axis=-1)
        base = scale * mean ** 2
        # gain is nonlinear in x so the noise survives Bernstein smoothing
        noise_gain = amp * 0.5 * (1.0 + mean ** 2)
        return base + noise_gain * z[atom]

    sup = abs(scale) + abs(amp) * float(np.max(np.abs(z))) if z.size else abs(scale)
    return RandomFunction(space, dim, ev, name="affine_noise", m_sup=sup)


def _step_noise(space: GroundSpace, dim: int, params: Mapping) -> RandomFunction:
    m = space.atom_count
    z = np.asarray(params.get("z", np.linspace(-1.0, 1.0, m) if m > 1 else [1.0]),
                   dtype=float)
    thresholds = np.asarray(params.get("thresholds",
                                       (np.arange(m) + 1.0) / (m + 1.0)), dtype=float)
    if z.shape != (m,) or thresholds.shape != (m,):
        raise InputError(f"'z' and 'thresholds' need {m} entries")

    def ev(pts, atom, z=z, thresholds=thresholds):
        mean = np.mean(pts, axis=-1)
        return np.where(mean >= thresholds[atom], z[atom], 0.0)

    sup = float(np.max(np.abs(z))) if z.size else 0.0
    return RandomFunction(space, dim, ev, name="step_noise", m_sup=sup,
                          continuous=False)


FAMILIES: dict[str, Callable[[GroundSpace, int, Mapping], RandomFunction]] = {
    "deterministic:absdev": _absdev,
    "affine_noise": _affine_noise,
    "step_noise": _step_noise,
}


def build_family(name: str, space: GroundSpace, dim: int,
                 params: Mapping | None = None) -> RandomFunction:
    if name not in FAMILIES:
        raise InputError(f"unknown family '{name}' (known: {sorted(FAMILIES)})")
    return FAMILIES[name](space, dim, params or {})


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


def _translate_pair(tensor: np.ndarray, offset: tuple[int, ...]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Views (a, b) of a grid tensor with a[i] = tensor[i + offset] and
    b[i] = tensor[i], over the grid indices i where both points exist.

    ``offset`` holds one nonnegative step per axis, except that the second
    step of a 2-D offset may be negative.
    """
    g = tensor.shape[0]
    if len(offset) == 1:
        d = offset[0]
        return tensor[d:], tensor[:g - d]
    dx, dy = offset
    if dy >= 0:
        return tensor[dx:, dy:], tensor[:g - dx, :g - dy]
    return tensor[dx:, :g + dy], tensor[:g - dx, -dy:]


class ChoquetModulusTable:
    """Per-offset maxima of the Choquet L^p distance between grid translates.

    Precomputes, for every axis offset within a window, the maximum over
    grid positions of the integral of |F(t) - F(s)|^p; modulus queries then
    reduce to a maximum over the offsets inside a delta box.  Several p
    exponents share one sorting pass (|D| and |D|^p sort identically).
    Supported for dim <= 2.

    Kernel layout: per offset, the (K, M) rows of differences (K grid
    positions, M atoms) get one stable argsort along the atoms; one flat
    gather then puts the sorted values in atom-major (M, K) layout, where
    row k holds every position's k-th smallest difference.  The upper-set
    bitmasks are accumulated over those rows from the top rank down, and
    each integral sum_k (v_k^p - v_{k-1}^p) mu_k is added up rank by rank
    in ascending k.  For M <= 8 that is the order numpy's row sum uses, so
    the table is bit-identical to a row-wise kernel; above, the two differ
    in the last bits.  The working set is a few (M, K) arrays of one
    offset, whatever the window.
    """

    def __init__(self, f: RandomFunction, cap: Capacity, grid: Grid,
                 max_deltas=None, powers=(1.0,)):
        if f.dim > 2:
            raise InputError("modulus computation supports dim <= 2 only")
        self.powers = tuple(float(p) for p in powers)
        for p in self.powers:
            if not (1.0 <= p <= P_MAX):
                raise InputError(f"p must lie in [1, {P_MAX:g}], got {p}")
        if not known_submodular(cap):
            warnings.warn("capacity is not certified submodular; the modulus "
                          "triangle/scaling properties may fail", stacklevel=2)
        self.f = f
        self.cap = cap
        self.grid = grid
        g = grid.points_per_axis
        if max_deltas is None:
            max_deltas = (1.0,) * f.dim
        elif np.isscalar(max_deltas):
            max_deltas = (float(max_deltas),) * f.dim
        tensor = f.grid_tensor(grid)
        mu_table = subset_table(cap)
        m = f.atom_count
        if f.dim == 1:
            w = _window(max(max_deltas), grid)
            keys = [(d,) for d in range(1, w + 1)]
            self._off = {p: np.zeros(w + 1) for p in self.powers}
        else:
            w1 = _window(max_deltas[0], grid)
            w2 = _window(max_deltas[1], grid)
            keys = [(dx, dy) for dx in range(w1 + 1)
                    for dy in range((0 if dx == 0 else -w2), w2 + 1)
                    if (dx, dy) != (0, 0)]
            self._off = {p: np.zeros((w1 + 1, 2 * w2 + 1)) for p in self.powers}
            self._w2 = w2

        atom_bits = np.int64(1) << np.arange(m, dtype=np.int64)
        # flat index of each grid position's first entry in a (K, M) block
        row_start = np.arange(g ** f.dim, dtype=np.int64)[:, None] * m
        for key in keys:
            a, b = _translate_pair(tensor, key)
            diff = np.abs(a - b).reshape(-1, m)
            order = np.argsort(diff, axis=1, kind="stable")
            # atom-major (M, K): v[k] is each position's k-th smallest difference
            v = diff.ravel()[(order + row_start[:len(diff)]).T]
            upper = atom_bits[order.T]
            for k in range(m - 2, -1, -1):
                upper[k] += upper[k + 1]
            mu = mu_table[upper]
            for p in self.powers:
                if p == 1.0:
                    vp = v
                elif p == 2.0:
                    vp = np.square(v)
                else:
                    vp = np.power(v, p)
                integral = vp[0] * mu[0]
                if m > 1:
                    # ascending ranks, the summation order of a row-wise sum
                    terms = (vp[1] - vp[0]) * mu[1]
                    for k in range(2, m):
                        terms += (vp[k] - vp[k - 1]) * mu[k]
                    integral = integral + terms
                val = float(integral.max())
                if f.dim == 1:
                    self._off[p][key[0]] = val
                else:
                    self._off[p][key[0], key[1] + self._w2] = val

    def gamma(self, *deltas: float, p: float | None = None) -> float:
        """Choquet L^p modulus for a per-axis delta box."""
        if p is None:
            if len(self.powers) != 1:
                raise InputError("several powers precomputed; pass p explicitly")
            p = self.powers[0]
        if p not in self._off:
            raise InputError(f"p={p} was not precomputed (have {self.powers})")
        if len(deltas) != self.f.dim:
            raise InputError(f"expected {self.f.dim} deltas")
        off = self._off[p]
        if self.f.dim == 1:
            d = _window(deltas[0], self.grid)
            if d + 1 > off.shape[0]:
                raise InputError("delta exceeds the precomputed window")
            best = float(off[:d + 1].max())
        else:
            d1 = _window(deltas[0], self.grid)
            d2 = _window(deltas[1], self.grid)
            if d1 + 1 > off.shape[0] or d2 > self._w2:
                raise InputError("delta exceeds the precomputed window")
            w2 = self._w2
            best = float(off[:d1 + 1, w2 - d2:w2 + d2 + 1].max())
        return best ** (1.0 / p)


def choquet_modulus(f: RandomFunction, cap: Capacity, deltas, p: float,
                    grid: Grid | None = None) -> float:
    """Choquet L^p modulus of continuity over grid pairs within a delta box."""
    if np.isscalar(deltas):
        deltas = (float(deltas),) * f.dim
    deltas = tuple(float(d) for d in deltas)
    if len(deltas) != f.dim:
        raise InputError(f"expected {f.dim} deltas")
    if grid is None:
        grid = Grid.default_for(f.dim)
    table = ChoquetModulusTable(f, cap, grid, max_deltas=deltas, powers=(p,))
    return table.gamma(*deltas)


def sample_modulus_profile(f: RandomFunction, grid: Grid,
                           max_dist: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-atom maxima of |f(x, w) - f(y, w)| by Euclidean grid distance.

    Returns (distances, profile) where profile[d, w] is the running max of
    sample increments over all grid pairs at distance <= distances[d];
    distances are sorted ascending starting at 0.  ``max_dist`` prunes the
    offset enumeration to distances that will actually be queried.
    """
    g = grid.points_per_axis
    tensor = f.grid_tensor(grid)
    m = f.atom_count
    limit = math.sqrt(f.dim) + 1.0 if max_dist is None else max_dist + PAIR_TOL
    if f.dim == 1:
        w = min(g - 1, int(math.floor(limit / grid.spacing + 1e-9)))
        dists = np.arange(w + 1) * grid.spacing
        prof = np.zeros((w + 1, m))
        for d in range(1, w + 1):
            a, b = _translate_pair(tensor, (d,))
            prof[d] = np.abs(a - b).max(axis=0)
        return dists, np.maximum.accumulate(prof, axis=0)
    if f.dim != 2:
        raise InputError("modulus computation supports dim <= 2 only")
    w = min(g - 1, int(math.floor(limit / grid.spacing + 1e-9)))
    entries = []
    for dx in range(w + 1):
        for dy in (range(0, w + 1) if dx == 0 else range(-w, w + 1)):
            if dx == 0 and dy == 0:
                continue
            dist = math.hypot(dx, dy) * grid.spacing
            if dist > limit:
                continue
            a, b = _translate_pair(tensor, (dx, dy))
            diff = np.abs(a - b).reshape(-1, m).max(axis=0)
            entries.append((dist, diff))
    entries.sort(key=lambda e: e[0])
    dists = np.concatenate([[0.0], [e[0] for e in entries]])
    prof = np.vstack([np.zeros(m)] + [e[1] for e in entries])
    return dists, np.maximum.accumulate(prof, axis=0)


def stochastic_modulus(f: RandomFunction, delta: float, atom: int,
                       grid: Grid | None = None) -> float:
    """Max of |f(x, atom) - f(y, atom)| over grid pairs with ||x-y|| <= delta."""
    if delta < 0:
        raise InputError("delta must be nonnegative")
    if not (0 <= atom < f.atom_count):
        raise InputError(f"atom index {atom} out of range")
    if grid is None:
        grid = Grid.default_for(f.dim)
    dists, prof = sample_modulus_profile(f, grid, max_dist=delta)
    j = int(np.searchsorted(dists, delta + PAIR_TOL, side="right")) - 1
    return float(prof[j, atom])
