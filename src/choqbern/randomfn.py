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

from .capacity import (Capacity, InputError, certified_submodular, check_integer, subset_max,
                       subset_table)
from .choquet import check_p, powered_integrals, sorted_levels

PAIR_TOL = 1e-12  # slack when matching grid pair distances against deltas

# cells per chunk of an elementwise pass (a point tensor's evaluator calls, the
# stochastic sweep's node deviations, node values and error reduction): 512 KB
# of float64, so a chunk's temporaries stay in L2 where a whole tensor's would not
_CHUNK_CELLS = 1 << 16

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
    shape of ``points.shape[:-1]`` and is broadcast by the caller.  It must
    be pointwise, each entry depending only on its own point and atom,
    because callers evaluate a point tensor in slabs of any size.  Grid
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

        The point mesh is built once; the output is filled along its first
        axis in slabs of about ``_CHUNK_CELLS`` cells, one evaluator call per
        slab on (..., 1, dim) points against the atom vector, so the call's
        temporaries stay cache-sized.  For a pointwise evaluator, as every
        built-in family is, each entry has the bits of its one-point,
        one-atom call.
        """
        if len(axes) != self.dim:
            raise InputError(f"expected {self.dim} coordinate axes, got {len(axes)}")
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        out = np.empty(pts.shape[:-1] + (self.atom_count,))
        atoms = np.arange(self.atom_count)
        step = max(1, _CHUNK_CELLS // max(1, math.prod(out.shape[1:])))
        for c in range(0, len(out), step):
            # the assignment broadcasts a result that ignores the atoms and
            # converts an integer result to float
            out[c:c + step] = self.evaluator(pts[c:c + step, ..., None, :], atoms)
        return out

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
    ``forms`` is (chain, chain_weights, weights, gap) from
    ``ChoquetModulusTable``: LB_p is the largest of fl(x_j^p) * weights[j],
    with x the largest per-cell minimum over the atoms followed by every
    atom's largest |D|, and of the chain bound at the first top-UB cell: the
    dot product of chain_weights with the p-th powers of its running minima
    over the atoms in chain order; less fl(fl(top^p) * gap), top the largest
    UB.  The weights carry the slack of "Rounding slack"; they are zeros
    where the table has a negative nonempty entry.
    """
    chain, chain_weights, weights, gap = forms
    x = np.empty(len(d) + 1)
    x[0] = d.min(axis=0).max()
    d.max(axis=1, out=x[1:])
    minima = np.minimum.accumulate(d[chain, ub.argmax()])
    p = np.array(powers)[:, None]
    xp = x ** p  # the atoms' largest |D| hold top, so their largest power is fl(top^p)
    lbs = np.maximum((xp * weights).max(axis=1), minima ** p @ chain_weights)
    return (lbs - xp[:, 1:].max(axis=1) * gap).tolist()


def _offset_diffs(atoms: np.ndarray, offset: tuple[int, ...]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """An offset's |D|, (M, cells), and its UB, the max over the atoms per cell.

    ``atoms`` is the atom-major grid tensor and ``offset`` one step per grid
    axis.
    """
    a, b = _translate_pair(atoms, (0, *offset))
    d = np.abs(a - b).reshape(len(atoms), -1)
    return d, d.max(axis=0)


def _offset_maxima(d: np.ndarray, ub: np.ndarray, mu_table: np.ndarray, powers,
                   factor: float, forms) -> tuple[float, ...]:
    """One offset's exact value per p: the maximum over grid positions of the
    integral of |D|^p, for every p in ``powers`` from one sorting pass.

    ``d`` and ``ub`` are the offset's ``_offset_diffs``.  Only the cells
    that pass the bound test fl(fl(UB^p) * factor) >= LB_p for some p, with
    LB_p its ``_lower_bounds``, go through the kernel; an LB_p below
    ``_BOUND_FLOOR``, or one that is not finite, keeps every cell.
    """
    # an LB that overflows keeps every cell, and a UB^p that does passes the test
    with np.errstate(over="ignore", invalid="ignore"):
        lbs = _lower_bounds(d, ub, forms, powers)
        if all(_BOUND_FLOOR <= lb < math.inf for lb in lbs):
            keep = np.zeros(len(ub), dtype=bool)
            for p, lb in zip(powers, lbs):
                keep |= (ub if p == 1.0 else ub ** p) * factor >= lb
            d = d.compress(keep, axis=1)
    v, mu = sorted_levels(d.T, mu_table)
    return tuple(float(vals.max()) for vals in powered_integrals(v, mu, powers))


def _top_bound(top: float, p: float, factor: float) -> float:
    """The Abel bound fl(fl(top^p) * factor) of an offset whose largest |D| is
    ``top``; infinite where the power overflows."""
    try:
        return top ** p * factor
    except OverflowError:
        return math.inf


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

    Envelope and minorant.  ``make_table`` lets entries of mu = ``mu_table``
    lie within ``capacity.TOL`` below 0 or below a subset's entry.  The
    bounds read two monotone tables (``capacity.subset_max``): the envelope
    mu*(B) = max(0, mu(A) over A within B) >= mu, with mu*(X) = max(mu), and
    the minorant nu(B) = min(mu(C) over C containing B) <= mu, with nu(X) =
    mu(X), >= 0 where mu is >= 0 on every nonempty set.  Sorted increments
    of h >= 0 are >= 0, so C_nu(h) <= C_mu(h) <= C_mu*(h), and C_mu*, C_nu
    are monotone in h (Denneberg, Non-Additive Measure and Integral, 1994).

    Offset skip.  x + (dx, 0) is on the grid whenever x and x + (dx, dy)
    are, so by the triangle inequality every cell of (dx, dy) has
    |D_w| <= omega1_w(dx) + omega2_w(|dy|) for every atom w, and every
    cell's integral of |D|^p is at most C_mu*(b^p), b_w =
    fl(fl(omega1_w + omega2_w) * sigma).  The bound of an offset is
    fl(fl(C^(b^p) * S) + fl(fl(max_w b_w^p) * G)), with C^ the kernel on mu*
    (``sorted_levels``/``powered_integrals``, one call over every offset),
    S = 1 + (M + 5) eps and G the twins' term (below).  Each power walks its
    box's offsets in descending order of its own bound and stops at the
    first one below the best exact value found so far: that offset and
    every later one have exact values at most their bounds, which are no
    larger.  Every offset reached has its |D| pass (``_offset_diffs``) and,
    unless its top cell rules it out (below), goes through
    ``_offset_maxima`` once, for every power, into a per-offset cache that
    every query shares; that cache is the table's working set.  So each box
    maximum is a maximum of the same exact per-offset values, whichever
    queries came before, and has the bits of an eager table over every
    offset.

    Exact pruning.  For h >= 0, C_mu*(h) <= max(h) * max(mu) by Abel
    summation, and mu of the full set may exceed 1.  Per offset, with LB_p
    at most the computed integral of some cell of the offset, a cell that
    fails the bound test fl(fl(UB^p) * F) >= LB_p for every p, UB its max
    over atoms of |D| and F = max(mu) (1 + (M + 4) eps) + G, cannot hold a
    maximum of the offset; only the cells that pass go through the kernel,
    one call per offset.  The integral C_nu(h) of a cell is at least
    min(h) nu(X), as {h > t} = X for t < min(h), and at least h_i nu({i})
    for every atom i, as i is in {h > t} for t < h_i.  Both are terms of a
    chain bound: with the atoms in one fixed order (the chain, by their
    largest axis moduli) and T_r the first r of them, {h > t} holds T_r for
    t below m_r = min(h over T_r), so C_nu(h) >= sum_r m_r (nu(T_r) -
    nu(T_(r-1))), which is C_nu(h) itself where h falls along the chain.
    These need nu >= 0; where mu has a negative nonempty entry no
    nonnegative minorant exists, and the forms' weights are 0.  LB_p is the
    largest over the offset's cells of the first two, and the chain bound
    of its first top-UB cell, less fl(fl(top^p) * G) (``_lower_bounds``); no
    cell is sorted for it.  An LB_p of 0, as for a constant function, keeps
    every cell, so no offset reaches its maximum with no kept cell.  The
    same bound at the offset's top cell, fl(fl(top^p) * F) with top its
    largest |D|, is at least the computed integral of every cell, so where
    it is below the best exact value the walk has for p, the offset cannot
    raise it: it is skipped before its LBs and kernel call, and only top is
    cached, for a later query to test against its own best.  Where top = 0,
    every computed integral is 0, exactly, with no kernel call.

    Rounding slack, with u = eps / 2.  The kernel sorts a cell's computed
    |D| and takes powers P_k within one ulp (2u) of the exact powers h_k of
    the computed |D| of rank k.  An increment fl(P_k - P_(k-1)) is >= 0
    unless the power rounds out of order, and then it is at most 4u h_k in
    size, as P_(k-1) <= (1 + 2u) h_k and P_k >= (1 - 2u) h_k.

    The twins.  The kernel on mu has twins, the same kernel on mu* and on
    nu, with the same sort.  Rounding is monotone, so where every increment
    is >= 0 (always at p = 1) each term fl(fl(P_k - P_(k-1)) mu_k) lies
    between its twins', and so does the kernel.  In general the exact sum
    E_mu = sum_k (P_k - P_(k-1)) mu_k is E_mu* less sum_k (P_k - P_(k-1))
    (mu*_k - mu_k), whose terms of increments >= 0 are >= 0; at most M - 1
    negative increments add at most 4u h_k g <= 4u g UB^p each, g the
    largest of mu* - nu over the nonempty sets, and E_mu >= E_nu -
    4(M - 1)u g UB^p likewise.  The kernel lies within (M + 1)u of E_mu
    relative to its terms' absolute values (below), and |mu_k| <= mu*_k + g
    (<= nu_k + g where mu >= 0), which adds (M + 1)u g UB^p (1 + O(M u)).
    So the kernel on mu is at most (1 + (M + 3)u) C_mu*(h) plus, and where
    mu >= 0 on the nonempty sets at least (1 - (M + 3)u) C_nu(h) less,
    (5M - 3)u g UB^p, up to O(M^2 u^2) of each.  G = 3M eps g = 6M u g,
    times a computed power of UB or of a larger value, covers the g terms
    with (M + 3)u g UB^p to spare.  A monotone, nonnegative table is its own
    mu* and nu, so g = G = 0 and every bound has the bits it has without G.

    On a monotone, nonnegative lambda (mu* or nu) the kernel is within
    (M + 3)u + O(M^2 u^2) of C_lambda(h), relative.  Its terms' absolute
    values sum to C_lambda(h) (1 + O(M u)), as h_k lambda_k <= C_lambda(h);
    it adds M terms, each from one difference and one product, so it is
    within (M + 1)u of the exact telescoped sum over P_k, relative to that,
    up to O(M u^2); summed by parts, that sum is sum_k P_k (lambda_k -
    lambda_(k+1)) (lambda_M = 0), weights >= 0, which the one ulp of each
    power moves by at most 2u C_lambda(h).  With M <= 20 atoms the
    second-order terms are below u / 10^12.  Then:
    - the bound test: C_mu*(h) <= UB^p max(mu), so a cell's computed
      integral is at most (1 + (M + 3)u) UB^p max(mu) plus the g term;
      fl(fl(UB^p) * F) loses 4u to its power and two products and u to the
      sum in F, so F needs 1 + (M + 8)u, and max(mu) (1 + (2M + 8)u) leaves
      M u for the second-order terms.  LB_p is at most the computed integral
      of a cell of the offset (below), so at most the offset's computed
      maximum: a cell that fails the bound test for every p has a computed
      integral below every such maximum, and each p's maximum cell passes.
      The top-cell test takes the same computed bound at the largest UB;
      rounding is monotone, so that bound is at least every cell's.
    - the skip bound: a cell's computed |D| is fl(|a - b|) <= (1 + u)|a - b|
      <= (1 + u)(|a - c| + |c - b|), c the grid point x + (dx, 0), and each
      axis modulus is at least (1 - u) times its exact difference, so
      |D_w| <= (1 + u)(omega1_w + omega2_w) / (1 - u); a difference, or sum
      of moduli, below the normal range is exact, and fl(s * sigma) >= s.
      sigma = 1 + 4 eps = 1 + 8u exceeds (1 + u) / (1 - u)^3 = 1 + 4u +
      O(u^2), so b_w >= |D_w|, and C_mu*(h) <= C_mu*(b^p).  So a cell's
      computed integral is at most (1 + (M + 3)u) C_mu*(b^p) plus the g
      term, and C^(b^p) is at least (1 - (M + 3)u) C_mu*(b^p): their ratio
      is 1 + (2M + 6)u + O(M^2 u^2).  The product with S and the sum with
      the G term (max_w b_w >= UB) lose u each; S = 1 + (2M + 10)u, one eps
      more than F's factor, leaves 2u for the second-order terms.
    - the closed-form LBs: ``_lower_bounds`` forms fl(fl(x^p) * w), with
      w = fl(nu * s) and s = 1 - 2(M + 4) eps = 1 - (4M + 16)u, and x the
      computed |D| that a cell's bound min(h) nu(X) or h_i nu({i}) reads.
      Its power and two products put it below (1 + 4u) s times that bound.
      The chain bound's weights are fl(fl(nu(T_r) - nu(T_(r-1))) * s) >= 0,
      so its powers, weights and sum of M products put it below
      (1 + (M + 4)u) s times the exact chain bound of the cell.  The cell's
      computed integral is at least (1 - (M + 3)u) times each bound, less
      the g term, which the G term (top >= the cell's UB) and one more u for
      its difference cover; that leaves (2M + 8)u for the second-order
      terms: LB_p is below the computed integral of the cell it comes from.
    Underflow adds at most 2^-1074 to each power and product beyond the
    relative bounds, at most 4M 2^-1074 to a comparison; a bound or LB of at
    least tiny / eps (``_BOUND_FLOOR``) leaves u times it, above 2^-1024,
    which covers that, so a bound below that floor, or one not finite
    (an overflowed power), never skips, and such an LB keeps every cell.
    max(mu) is within ``capacity.TOL`` of 1 for every capacity.

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
        # the envelope mu*, the minorant nu and the twins' term G, 0 on a
        # monotone, nonnegative table; see "The twins"
        upper = np.maximum(subset_max(mu), 0.0)
        lower = -subset_max(-mu[::-1])[::-1]
        eps = np.finfo(float).eps
        gap = 3 * m * eps * float((upper - lower)[1:].max())
        levels = sorted_levels(b, upper)  # also refuses a table of another atom count
        slack = (m + 4) * eps
        self._factor = float(mu.max()) * (1.0 + slack) + gap
        # ``_lower_bounds``' chain: the atoms by their largest axis moduli, the
        # largest first, and the capacity nu adds to the ones before it; then
        # nu(X) and the singletons; no weights where nu has a negative entry
        chain = np.argsort(-(omega1.max(axis=0) + omega2.max(axis=0)), kind="stable")
        weights = np.append(np.diff(lower[np.cumsum(np.int64(1) << chain)], prepend=0.0),
                            (lower[-1], *lower[np.int64(1) << np.arange(m)]))
        weights *= (1.0 - 2 * slack) if lower[1:].min() >= 0 else 0.0
        self._forms = chain, weights[:m], weights[m:], gap
        # per p, one bound per offset; infinite where it may not skip
        with np.errstate(over="ignore", invalid="ignore"):
            top = levels[0][-1]  # each offset's largest b_w
            bounds = [c * (1.0 + slack + eps) + (top if p == 1.0 else top ** p) * gap
                      for p, c in zip(self.powers, powered_integrals(*levels, self.powers))]
        self._bounds, self._walks = {}, {}
        for p, bound in zip(self.powers, bounds):
            bound[~(bound >= _BOUND_FLOOR)] = np.inf
            order = np.argsort(-bound, kind="stable")
            self._bounds[p] = bound
            self._walks[p] = order, bound[order], offsets[order]
        self._maxima: dict[int, tuple[float, ...]] = {}  # offset index -> value per p
        self._tops: dict[int, float] = {}  # offset index -> largest |D|, where skipped

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
            values = self._maxima.get(i)
            if values is None:
                values = self._reach(i, p, best)
            if values is not None:
                best = np.maximum(best, values[at])
        return float(best) ** (1.0 / p)

    def _reach(self, i: int, p: float, best) -> tuple[float, ...] | None:
        """Offset i's exact values, one per power, now cached; or None where
        the Abel bound at its top cell is below ``best`` for p, and then only
        its largest |D| is cached, so a later query re-tests it without a
        |D| pass."""
        offset, d = tuple(self._offsets[i, :self.grid.dim]), None
        top = self._tops.get(i)
        if top is None:
            d, ub = _offset_diffs(self._atoms, offset)
            top = float(ub.max())
        if _BOUND_FLOOR <= _top_bound(top, p, self._factor) < best:
            self._tops[i] = top
            return None
        if top == 0.0:  # every |D| is 0, and so is every integral the kernel computes
            values = (0.0,) * len(self.powers)
        else:
            if d is None:
                d, ub = _offset_diffs(self._atoms, offset)
            values = _offset_maxima(d, ub, self._mu_table, self.powers, self._factor,
                                    self._forms)
        self._maxima[i] = values
        return values


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
