"""Bernstein basis and operators, moment sums, and tail bounds.

The basis is evaluated in log space (log-binomial plus k*log x plus
(n-k)*log(1-x)) with exact handling of the endpoints, which keeps values
finite for degrees up to 1e5.  Partition of unity holds to about 1e-12
for degrees up to a few thousand and degrades to roughly 1e-10 at the
degree cap.

Basis values below the smallest normal double (about 2.2e-308) are set to
zero.  For k/n far from x, p_{k,n}(x) underflows into the subnormal range,
and subnormal operands slow every BLAS product with the basis several-fold
(a samples-by-basis GEMM at n = 1600 ran at a fifth of its n = 100 rate).
The cutoff is the float format's own: dropping weights below it moves a
weighted sum of values only when that sum is below about 1e-285 times the
largest value, so operator values stay as they were.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .capacity import InputError
from .randomfn import Grid, RandomFunction

N_MAX = 10 ** 5
J_MAX = 16
_TINY = np.finfo(float).tiny  # smallest normal double

MultiDegree = tuple  # per-axis degrees, each >= 1


def sikkema_constant() -> float:
    """Optimal constant in the uniform Bernstein bound against w1(f, 1/sqrt(n))."""
    return (4306.0 + 837.0 * math.sqrt(6.0)) / 5832.0


@dataclass(frozen=True, eq=False)
class BernsteinBasisEval:
    """Basis values p_{k,n}(x) for k = 0..n at one point."""

    n: int
    values: np.ndarray


@lru_cache(maxsize=128)
def _lgamma_table(n: int) -> np.ndarray:
    out = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    out.setflags(write=False)
    return out


def _check_degree(n: int) -> None:
    if not (1 <= n <= N_MAX):
        raise InputError(f"degree must lie in [1, {N_MAX}], got {n}")


def bernstein_basis(n: int, x: float) -> BernsteinBasisEval:
    """All n+1 basis values at x, computed via log-space binomials."""
    _check_degree(n)
    if not (0.0 <= x <= 1.0):
        raise InputError(f"x must lie in [0, 1], got {x}")
    vals = np.zeros(n + 1)
    if x == 0.0:
        vals[0] = 1.0
    elif x == 1.0:
        vals[n] = 1.0
    else:
        k = np.arange(n + 1)
        lg = _lgamma_table(n)
        logs = lg[n] - lg[k] - lg[n - k] + k * math.log(x) + (n - k) * math.log1p(-x)
        vals = np.exp(logs)
        vals[vals < _TINY] = 0.0  # no subnormals (see the module docstring)
    return BernsteinBasisEval(n, vals)


def basis_matrix(n: int, xs: Sequence[float]) -> np.ndarray:
    """Stacked basis rows, shape (len(xs), n+1)."""
    return np.vstack([bernstein_basis(n, float(x)).values for x in xs])


def bernstein_univariate(samples, x: float) -> float:
    """B_n(f)(x) from the n+1 samples f(k/n); degree n = len(samples) - 1."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < 2:
        raise InputError("need at least two sample values")
    basis = bernstein_basis(samples.size - 1, x).values
    return float(np.dot(samples, basis))


def bernstein_multivariate(f: RandomFunction, n_vec, x, atom: int) -> float:
    """Tensor-product Bernstein operator applied to a random function."""
    n_vec = tuple(int(n) for n in (n_vec if not np.isscalar(n_vec) else [n_vec]))
    if len(n_vec) != f.dim:
        raise InputError(f"expected {f.dim} degrees, got {len(n_vec)}")
    for n in n_vec:
        _check_degree(n)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (f.dim,):
        raise InputError(f"point must have {f.dim} coordinates")
    nodes = _node_tensor(f, n_vec, atom)
    out = nodes
    for axis, n in enumerate(n_vec):
        basis = bernstein_basis(n, float(x[axis])).values
        out = np.tensordot(basis, out, axes=(0, 0))
    return float(out)


def _node_tensor(f: RandomFunction, n_vec, atom: int) -> np.ndarray:
    axes = [np.arange(n + 1) / n for n in n_vec]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return np.asarray(f.evaluator(pts, atom), dtype=float)


def multivariate_grid(f: RandomFunction, n_vec, grid: Grid) -> np.ndarray:
    """Operator values over a grid for every atom, shape (g,)*dim + (M,)."""
    n_vec = tuple(int(n) for n in n_vec)
    if len(n_vec) != f.dim:
        raise InputError(f"expected {f.dim} degrees, got {len(n_vec)}")
    mats = [basis_matrix(n, grid.coords) for n in n_vec]
    nodes = np.stack([_node_tensor(f, n_vec, w) for w in range(f.atom_count)],
                     axis=-1)
    if f.dim == 1:
        return np.einsum("ik,km->im", mats[0], nodes)
    # contract one axis at a time; the joint einsum would cost O(g^2 n^2 M)
    partial = np.tensordot(mats[0], nodes, axes=(1, 0))  # (g, n2+1, M)
    return np.einsum("jl,ilm->ijm", mats[1], partial)


def moment_sums(n: int, xs: Sequence[float], j_max: int) -> np.ndarray:
    """Sums over k of p_{k,n}(x) * (sqrt(n) |x - k/n|) ** j, shape (j_max + 1, len(xs)).

    Row j holds the order-j sum at every x; all orders share one basis matrix.
    """
    if not (0 <= j_max <= J_MAX):
        raise InputError(f"moment order must lie in [0, {J_MAX}], got {j_max}")
    xs = np.asarray(xs, dtype=float)
    basis = basis_matrix(n, xs)
    dev = math.sqrt(n) * np.abs(xs[:, None] - np.arange(n + 1) / n)
    return np.stack([np.einsum("xk,xk->x", basis, dev ** j) for j in range(j_max + 1)])


def moment_sum(n: int, x: float, j: int) -> float:
    """Sum over k of p_{k,n}(x) * (sqrt(n) |x - k/n|) ** j."""
    return float(moment_sums(n, [x], j)[j, 0])


def tail_sum(n: int, x: float, delta: float) -> float:
    """Sum of p_{k,n}(x) over k with |k/n - x| >= delta."""
    if delta <= 0:
        raise InputError(f"delta must be positive, got {delta}")
    basis = bernstein_basis(n, x).values
    mask = np.abs(np.arange(n + 1) / n - x) >= delta
    return float(basis[mask].sum())
