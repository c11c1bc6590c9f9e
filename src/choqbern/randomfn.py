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

from .capacity import (Capacity, InputError, _monotone, certified_submodular, check_integer,
                       subset_table)
from .choquet import check_p, powered_integrals, sorted_levels

PAIR_TOL = 1e-12  # slack when matching grid pair distances against deltas

DEFAULT_GRID_1D = 257
DEFAULT_GRID_2D = 65


@dataclass(frozen=True)
class Grid:
    """Equispaced grid on [0, 1]^dim including both endpoints."""

    dim: int
    points_per_axis: int

    def __post_init__(self):
        check_integer(self.dim, "grid dimension", 1)
        check_integer(self.points_per_axis, "grid points per axis", 2)

    @property
    def coords(self) -> np.ndarray:
        g = self.points_per_axis
        return np.arange(g) / (g - 1)

    @property
    def spacing(self) -> float:
        return 1.0 / (self.points_per_axis - 1)

    @property
    def finest_degree(self) -> int:
        """The largest n whose 1/sqrt(n) spans a grid step; past it a grid modulus is 0."""
        return (self.points_per_axis - 1) ** 2

    @classmethod
    def default_for(cls, dim: int, points: int | None = None) -> "Grid":
        if points is None:
            points = DEFAULT_GRID_1D if dim == 1 else DEFAULT_GRID_2D
        return cls(dim, points)


@dataclass(eq=False)
class RandomFunction:
    """Stochastic process on [0, 1]^dim over ``atom_count`` atoms.

    ``evaluator(points, atoms)`` must be a pure function of an array of
    shape (..., dim) and an atom index: either an int, or an integer array
    that broadcasts against ``points.shape[:-1]``.  It returns the values
    at the joint broadcast shape; a result that ignores ``atoms`` has the
    shape of ``points.shape[:-1]`` and is broadcast by the caller.  Grid
    tensors are memoized per grid (the only internal mutation).
    """

    atom_count: int
    dim: int
    evaluator: Callable[[np.ndarray, int | np.ndarray], np.ndarray]
    name: str = "anonymous"
    m_sup: float | None = None
    continuous: bool = True
    _grids: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.atom_count = check_integer(self.atom_count, "atom count", 1)
        self.dim = check_integer(self.dim, "dimension", 1)

    def check_atom(self, atom: int) -> None:
        check_integer(atom, "atom index", 0, self.atom_count)

    def check_grid(self, grid: Grid) -> None:
        if grid.dim != self.dim:
            raise InputError("grid dimension mismatch")

    def eval(self, x, atom: int) -> float:
        pts = np.atleast_1d(np.asarray(x, dtype=float))
        if pts.shape != (self.dim,):
            raise InputError(f"point must have {self.dim} coordinates")
        if not np.all((pts >= -PAIR_TOL) & (pts <= 1 + PAIR_TOL)):  # NaN is not inside
            raise InputError(f"point {pts.tolist()} outside the unit cube")
        self.check_atom(atom)
        return float(self.evaluator(pts, atom))

    def on_axes(self, axes) -> np.ndarray:
        """Values at every point of the product of ``axes`` (one coordinate
        array per dimension) for every atom, shape (len(a) for a in axes) + (M,).

        One evaluator call on the point tensor against the atom vector.  For
        an elementwise evaluator, as every built-in family is, each entry has
        the bits of its one-point, one-atom call.
        """
        if len(axes) != self.dim:
            raise InputError(f"expected {self.dim} coordinate axes, got {len(axes)}")
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        out = np.asarray(self.evaluator(pts[..., None, :], np.arange(self.atom_count)),
                         dtype=float)
        shape = pts.shape[:-1] + (self.atom_count,)
        if out.shape != shape:  # a result that ignores the atoms
            return np.broadcast_to(out, shape).copy()
        return np.ascontiguousarray(out)

    def grid_tensor(self, grid: Grid) -> np.ndarray:
        """Values on the grid, shape (g,)*dim + (M,); memoized.

        A value that is not finite (say, from parameters whose products
        overflow) is an ``InputError``: no bound holds for it.
        """
        self.check_grid(grid)
        key = (grid.dim, grid.points_per_axis)
        if key not in self._grids:
            with np.errstate(all="ignore"):  # an overflow is refused below
                out = self.on_axes([grid.coords] * self.dim)
            if not np.isfinite(out).all():
                raise InputError(f"family '{self.name}' is not finite on the "
                                 f"{grid.points_per_axis}-point grid")
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


def family_builder(name: str) -> Callable[[int, int, dict], RandomFunction]:
    """The builder of the built-in family ``name``; any other name is refused."""
    if not isinstance(name, str) or name not in FAMILIES:
        raise InputError(f"unknown family {name!r} (known: {sorted(FAMILIES)})")
    return FAMILIES[name]


def build_family(name: str, m: int, dim: int,
                 params: Mapping | None = None) -> RandomFunction:
    """The family ``name`` on ``m`` atoms; a parameter its builder does not read
    is refused."""
    build = family_builder(name)
    m = check_integer(m, "atom count", 1)  # the builders size their defaults by it
    unread = dict(params or {})
    f = build(m, dim, unread)
    if unread:
        raise InputError(f"family '{name}' has no parameter {list(unread)[0]!r}")
    return f


def list_families() -> list[str]:
    return sorted(FAMILIES)


# ---------------------------------------------------------------------------
# Moduli of continuity on grids
# ---------------------------------------------------------------------------

def _window(delta: float, grid: Grid) -> int:
    if not delta >= 0:  # NaN is not
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


def _lower_bounds(d: np.ndarray, ub: np.ndarray, forms, powers) -> list[float]:
    """Closed-form LBs of an offset's largest integral of |D|^p, one per p.

    ``d`` is the offset's (M, cells) |D| and ``ub`` its max over the atoms.
    ``forms`` is (chain, chain_weights, weights) from ``ChoquetModulusTable``:
    LB_p is the largest of fl(x_j^p) * weights[j], with x the largest
    per-cell minimum over the atoms followed by every atom's largest |D|,
    and of the chain bound at the first top-UB cell: the dot product of
    chain_weights with the p-th powers of its running minima over the atoms
    in chain order.  The weights carry the slack of "Rounding slack"; they
    are zeros where the table is not monotone and nonnegative.
    """
    chain, chain_weights, weights = forms
    x = np.empty(len(d) + 1)
    x[0] = d.min(axis=0).max()
    d.max(axis=1, out=x[1:])
    minima = np.minimum.accumulate(d[chain, ub.argmax()])
    p = np.array(powers)[:, None]
    return np.maximum((x ** p * weights).max(axis=1), minima ** p @ chain_weights).tolist()


def _keep_threshold(lbs, powers, factor: float) -> float:
    """A UB threshold from one LB per p: a lower bound of min over p of
    (LB_p / factor)^(1/p).

    Each p's root is taken of r = LB_p / factor, or of 0 where LB_p is below
    ``_BOUND_FLOOR`` or not finite; see "Threshold slack" in
    ``ChoquetModulusTable``.
    """
    return min((lb / factor if _BOUND_FLOOR <= lb < math.inf else 0.0) ** (1.0 / p)
               for lb, p in zip(lbs, powers)) * (1.0 - 360 * np.finfo(float).eps)


def _offset_maxima(atoms: np.ndarray, mu_table: np.ndarray, powers, factor: float,
                   forms, offset: tuple[int, ...]) -> tuple[float, ...]:
    """One offset's exact value per p: the maximum over grid positions of the
    integral of |D|^p, for every p in ``powers`` from one sorting pass.

    ``atoms`` is the atom-major grid tensor and ``offset`` one step per grid
    axis.  The ``_lower_bounds`` of the offset give the ``_keep_threshold``
    root that keeps the cells that can hold a maximum, so only the kept
    cells go through the kernel.
    """
    m = len(atoms)
    a, b = _translate_pair(atoms, (0, *offset))
    d = np.abs(a - b).reshape(m, -1)
    ub = d.max(axis=0)
    thr = _keep_threshold(_lower_bounds(d, ub, forms, powers), powers, factor)
    v, mu = sorted_levels(d.compress(ub >= thr, axis=1).T, mu_table)
    return tuple(float(vals.max()) for vals in powered_integrals(v, mu, powers))


# the triangle bound's slack sigma, and the least bound that may skip an offset
# or LB that may drop a cell; see "Rounding slack" in ``ChoquetModulusTable``
_TRIANGLE_SLACK = 1.0 + 4 * np.finfo(float).eps
_BOUND_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


class ChoquetModulusTable:
    """Choquet L^p moduli of a random function over delta boxes, on demand.

    ``gamma(*deltas, p)`` is the p-th root of the maximum, over the grid
    offsets of its delta box (``_box_windows``, ``_offsets``), of the
    offset's exact value: the maximum over grid positions of the integral
    of |F(t) - F(s)|^p (``_offset_maxima``).  A 1-D table is a 2-D one with
    no second axis.  Construction takes only the per-atom axis moduli
    omega1_w(dx) and omega2_w(dy): the largest |D| of atom w over the cells
    of the axis offsets (dx, 0) and (0, dy), with omega(0) = 0.

    Offset skip.  x + (dx, 0) is on the grid whenever x and x + (dx, dy)
    are, so by the triangle inequality every cell of (dx, dy) has
    |D_w| <= omega1_w(dx) + omega2_w(|dy|) for every atom w.  On a table
    that is monotone and nonnegative, entry by entry and with no tolerance,
    the Choquet integral is monotone in its integrand (Denneberg,
    Non-Additive Measure and Integral, 1994), so every cell's integral of
    |D|^p is at most that of b^p, b_w = fl(fl(omega1_w + omega2_w) * sigma).
    The bound of an offset is fl(C^(b^p) * S), with C^ the kernel
    (``sorted_levels``/``powered_integrals``, one call over every offset)
    and S = 1 + (M + 4) eps.  ``make_table`` lets entries lie within
    ``capacity.TOL`` below 0 or below a subset's entry, and then C is not
    monotone (on two atoms, (0, 1 + TOL, 0, 1) gives d = (1, 0) the
    integral 1 + TOL and b = (1, 1) the integral 1), so there the bound is
    fl(fl(max_w b_w^p) * F), F = max(mu_table) * (1 + (M + 4) eps), from the
    Abel bound below.  Each power walks its box's offsets in descending
    order of its own bound and stops at the first one below the best exact
    value found so far: that offset and every later one have exact values
    at most their bounds, which are no larger.  Every offset reached goes through
    ``_offset_maxima`` once, for every power, into a per-offset cache that
    every query shares; that cache is the table's working set.  So each box
    maximum is a maximum of the same exact per-offset values, whichever
    queries came before, and has the bits of an eager table over every
    offset.

    Exact pruning.  For h >= 0 and any table, the Choquet integral of h is
    at most max(h) * max(mu_table): the telescoped terms (h_k - h_(k-1)) mu_k
    have nonnegative differences, so they sum to at most max(h) *
    max(mu_table) (Abel summation).  No monotonicity is needed, and mu of the
    full set may exceed 1.  Per offset, with LB_p at most the computed
    integral of some cell of the offset, a cell with UB^p * max(mu_table)
    < LB_p for every p, UB its max over atoms of |D|, cannot hold a maximum
    of the offset.  One threshold per offset, a lower bound thr of min over
    p of (LB_p / max(mu_table))^(1/p), decides: only the cells with
    UB >= thr go through the kernel, one call per offset.  On a monotone,
    nonnegative table the integral C(h) of a cell is at least min(h) mu(X),
    as {h > t} = X for t < min(h), and at least h_i mu({i}) for every atom
    i, as i is in {h > t} for t < h_i.  Both are terms of a chain bound:
    with the atoms in one fixed order (the chain, by their largest axis
    moduli) and T_r the first r of them, {h > t} holds T_r for t below
    m_r = min(h over T_r), so C(h) >= sum_r m_r (mu(T_r) - mu(T_(r-1))),
    which is C(h) itself where h falls along the chain.  LB_p is the
    largest over the offset's cells of the first two, and the chain bound
    of its first top-UB cell (``_lower_bounds``); no cell is sorted for it.
    Elsewhere LB_p = 0, which keeps every cell.

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
    leaves (M + 1)u for the second-order terms.  LB_p is at most the
    computed integral of a cell of the offset (below), so at most the
    offset's computed maximum: a cell that fails the bound test for every p
    has a computed integral below every such maximum, and each p's maximum
    cell passes.

    On a monotone, nonnegative table the kernel is also close to the exact
    integral C(h) of the exact powers h of a cell's computed |D|.  Summed by
    parts, the telescoped sum over the computed powers P_k is
    sum_k P_k (mu_k - mu_(k+1)) (mu_M = 0) with weights mu_k - mu_(k+1) >= 0,
    and C(h) is the same sum over h_k, so the one ulp of each power moves it
    by at most 2u C(h).  A difference P_k - P_(k-1) that the power's rounding
    makes negative is at most 4u h_k in size, and h_k mu_k <= C(h), so the terms'
    absolute values sum to C(h) (1 + O(M u)), and the kernel's result lies
    within (M + 3)u + O(M^2 u^2) of C(h), relative.  With M <= 20 atoms the
    second-order terms are below u / 10^12.  Then:
    - the skip bound: a cell's computed |D| is fl(|a - b|) <= (1 + u)|a - b|
      <= (1 + u)(|a - c| + |c - b|), c the grid point x + (dx, 0), and each
      axis modulus is at least (1 - u) times its exact difference, so
      |D_w| <= (1 + u)(omega1_w + omega2_w) / (1 - u); a difference, or sum
      of moduli, below the normal range is exact, and fl(s * sigma) >= s.
      sigma = 1 + 4 eps = 1 + 8u exceeds (1 + u) / (1 - u)^3 = 1 + 4u +
      O(u^2), so b_w >= |D_w|, and C(|D|^p) <= C(b^p) by monotonicity.  So
      a cell's computed integral is at most (1 + (M + 3)u) C(b^p), and C^(b^p)
      is at least (1 - (M + 3)u) C(b^p): their ratio is 1 + (2M + 6)u +
      O(M^2 u^2), and fl(C^(b^p) * S) >= (1 - u)(1 + (2M + 8)u) C^(b^p)
      leaves u for the second-order terms.  Where the table is not monotone,
      the Abel bound holds as above with U = max_w b_w >= UB in place of UB:
      fl(fl(U^p) * F) loses at most 4u to its power (one ulp) and two
      products.
    - the closed-form LBs: ``_lower_bounds`` forms fl(fl(x^p) * w), with
      w = fl(mu * s) and s = 1 - 2(M + 4) eps = 1 - (4M + 16)u, and x the
      computed |D| that a cell's bound min(h) mu(X) or h_i mu({i}) reads.
      Its power and two products put it below (1 + 4u) s times that bound.
      The chain bound's weights are fl(fl(mu(T_r) - mu(T_(r-1))) * s) >= 0,
      so its powers, weights and sum of M products put it below
      (1 + (M + 4)u) s times the exact chain bound of the cell.  The cell's
      computed integral is at least (1 - (M + 3)u) times each bound, which
      leaves (2M + 9)u for the second-order terms: LB_p is below the
      computed integral of the cell it comes from.
    Underflow adds at most 2^-1074 to each power and product beyond the
    relative bounds, at most 4M 2^-1074 to a comparison; a bound or LB of at
    least tiny / eps (``_BOUND_FLOOR``) leaves u times it, above 2^-1024,
    which covers that, so a bound below that floor, or one not finite
    (an overflowed power), never skips, and such an LB is taken as 0.
    max(mu_table) is within ``capacity.TOL`` of 1 for every capacity.

    Threshold slack.  ``_keep_threshold`` takes thr = min over p of
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
    An LB_p below ``_BOUND_FLOOR`` (so r is normal wherever it is not) or
    not finite is taken as 0: thr_p = 0 keeps every cell of the offset, a
    superset of any kept set.  LB_p = 0, as for a constant function, so
    keeps every cell, and no offset reaches its maximum with no kept cell.

    Each cell's integral does not depend on the other kept cells
    (``telescoped_sum`` is elementwise per column), so keeping more cells
    than the bound test changes no offset value.  A query holds one
    offset's |D| at a time.
    """

    def __init__(self, f: RandomFunction, cap: Capacity, grid: Grid,
                 max_deltas, powers):
        self._windows = w1, w2 = _box_windows(max_deltas, grid)
        self.powers = tuple(check_p(float(p)) for p in powers)
        if not certified_submodular(cap):
            warnings.warn("capacity is not certified submodular; the modulus "
                          "triangle/scaling properties may fail", stacklevel=2)
        self.grid = grid
        m = f.atom_count
        # atom-major, so an offset's |D| is (M, cells) and UB a leading-axis max
        self._atoms = np.ascontiguousarray(np.moveaxis(f.grid_tensor(grid), -1, 0))
        self._mu_table = mu = subset_table(cap)

        def atom_moduli(offset):
            a, b = _translate_pair(self._atoms, (0, *offset[:f.dim]))
            return np.abs(a - b).reshape(m, -1).max(axis=1)
        omega1 = np.array([np.zeros(m)] + [atom_moduli((dx, 0)) for dx in range(1, w1 + 1)])
        omega2 = np.array([np.zeros(m)] + [atom_moduli((0, dy)) for dy in range(1, w2 + 1)])
        self._offsets = offsets = np.array(_offsets(w1, w2), dtype=np.int64).reshape(-1, 2)
        b = (omega1[offsets[:, 0]] + omega2[np.abs(offsets[:, 1])]) * _TRIANGLE_SLACK
        levels = sorted_levels(b, mu)  # also refuses a table of another atom count
        slack = (m + 4) * np.finfo(float).eps
        self._factor = float(mu.max()) * (1.0 + slack)
        monotone = bool(mu.min() >= 0) and _monotone(mu.reshape((2,) * m), 0.0)
        # ``_lower_bounds``' chain: the atoms by their largest axis moduli, the
        # largest first, and the capacity each adds to the ones before it;
        # then mu(X) and the singletons
        chain = np.argsort(-(omega1.max(axis=0) + omega2.max(axis=0)), kind="stable")
        weights = np.append(np.diff(mu[np.cumsum(np.int64(1) << chain)], prepend=0.0),
                            (mu[-1], *mu[np.int64(1) << np.arange(m)]))
        weights *= (1.0 - 2 * slack) if monotone else 0.0
        self._forms = chain, weights[:m], weights[m:]
        # per p, one bound per offset; infinite where it may not skip
        with np.errstate(over="ignore", invalid="ignore"):
            if monotone:
                bounds = [c * (1.0 + slack) for c in powered_integrals(*levels, self.powers)]
            else:
                top = b.max(axis=1)
                bounds = [(top if p == 1.0 else top ** p) * self._factor
                          for p in self.powers]
        self._bounds, self._walks = {}, {}
        for p, bound in zip(self.powers, bounds):
            bound[~(bound >= _BOUND_FLOOR)] = np.inf
            order = np.argsort(-bound, kind="stable")
            self._bounds[p] = bound
            self._walks[p] = order, bound[order], offsets[order]
        self._maxima: dict[int, tuple[float, ...]] = {}  # offset index -> value per p

    def gamma(self, *deltas: float, p: float) -> float:
        """Choquet L^p modulus for a delta box: one delta, or one per axis."""
        if p not in self._walks:
            raise InputError(f"p={p} is not one of the table's powers {self.powers}")
        d1, d2 = _box_windows(deltas, self.grid)
        if d1 > self._windows[0] or d2 > self._windows[1]:
            raise InputError("delta exceeds the table's window")
        at, (order, bounds, offsets) = self.powers.index(p), self._walks[p]
        inside = (offsets[:, 0] <= d1) & (np.abs(offsets[:, 1]) <= d2)
        best = np.float64(0.0)
        for i, bound in zip(order[inside], bounds[inside]):
            if bound < best:
                break
            if i not in self._maxima:
                self._maxima[i] = _offset_maxima(
                    self._atoms, self._mu_table, self.powers, self._factor,
                    self._forms, tuple(self._offsets[i, :self.grid.dim]))
            best = np.maximum(best, self._maxima[i][at])
        return float(best) ** (1.0 / p)


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
    if not np.all(delta >= 0):  # NaN is not
        raise InputError("delta must be nonnegative")
    return profile[np.searchsorted(dists, delta + PAIR_TOL, side="right") - 1]


def stochastic_modulus(f: RandomFunction, delta: float, atom: int,
                       grid: Grid) -> float:
    """Max of |f(x, atom) - f(y, atom)| over grid pairs with ||x-y|| <= delta."""
    f.check_atom(atom)
    dists, prof = sample_modulus_profile(f, grid, max_dist=delta)
    return float(profile_at(dists, prof, delta)[atom])
