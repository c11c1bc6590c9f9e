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
import numbers
from functools import lru_cache
from typing import Sequence

import numpy as np

from .capacity import InputError
from .randomfn import Grid, RandomFunction

N_MAX = 10 ** 5
J_MAX = 16
_TINY = np.finfo(float).tiny  # smallest normal double


def sikkema_constant() -> float:
    """Optimal constant in the uniform Bernstein bound against w1(f, 1/sqrt(n))."""
    return (4306.0 + 837.0 * math.sqrt(6.0)) / 5832.0


def uniform_constant(dim: int) -> float:
    """c in sup |B_n f - f| <= c * w(f, 1/sqrt(min n)) on [0, 1]^dim.

    Sikkema's constant in 1-D, 3 for the tensor-product operator in 2-D.
    """
    return sikkema_constant() if dim == 1 else 3.0


@lru_cache(maxsize=128)
def _lgamma_table(n: int) -> np.ndarray:
    out = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    out.setflags(write=False)
    return out


def _check_degree(n) -> int:
    """``n`` as an int degree; a non-integral value or a bool is refused."""
    if not (isinstance(n, numbers.Real) and float(n).is_integer()) or isinstance(n, bool):
        raise InputError(f"degree must be an integer, got {n}")
    if not (1 <= n <= N_MAX):
        raise InputError(f"degree must lie in [1, {N_MAX}], got {n}")
    return int(n)


def bernstein_nodes(n: int) -> np.ndarray:
    """The nodes k/n, k = 0..n, at which B_n samples a function."""
    return np.arange(n + 1) / n


def degree_vector(n_vec, dim: int) -> tuple[int, ...]:
    """One checked degree per axis; a bare number is the degree of every axis."""
    if isinstance(n_vec, np.ndarray):
        n_vec = n_vec.tolist()  # a 0-d array gives its one number
    n_vec = list(n_vec) if np.iterable(n_vec) and not np.isscalar(n_vec) else [n_vec] * dim
    if len(n_vec) != dim:
        raise InputError(f"expected {dim} degrees, got {len(n_vec)}")
    return tuple(_check_degree(n) for n in n_vec)


def basis_matrix(n: int, xs: Sequence[float]) -> np.ndarray:
    """Basis values p_{k,n}(x) for k = 0..n at every x, shape (len(xs), n+1).

    One log-space pass over all points; rows at x = 0 and x = 1 are exact
    unit vectors.  log x and log(1 - x) are taken per point with ``math``,
    so a row has the same bits whatever other points share the call.
    """
    n = _check_degree(n)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise InputError(f"points must form a 1-d sequence, got shape {xs.shape}")
    inside = (xs >= 0.0) & (xs <= 1.0)
    if not inside.all():
        raise InputError(f"x must lie in [0, 1], got {xs[~inside][0]}")
    interior = (xs > 0.0) & (xs < 1.0)
    safe = np.where(interior, xs, 0.5)  # endpoint rows are set exactly below
    k = np.arange(n + 1)
    lg = _lgamma_table(n)
    # log C(n, k) + k log x + (n - k) log(1 - x), built in place
    out = np.multiply.outer([math.log(x) for x in safe], k)
    out += lg[n] - lg[k] - lg[n - k]
    out += np.multiply.outer([math.log1p(-x) for x in safe], n - k)
    np.exp(out, out=out)
    out[out < _TINY] = 0.0  # no subnormals (see the module docstring)
    out[~interior] = 0.0
    out[xs == 0.0, 0] = 1.0
    out[xs == 1.0, n] = 1.0
    return out


def bernstein_basis(n: int, x: float) -> np.ndarray:
    """All n+1 basis values at x: the one-point row of ``basis_matrix``."""
    return basis_matrix(n, [x])[0]


def bernstein_univariate(samples, x: float) -> float:
    """B_n(f)(x) from the n+1 samples f(k/n); degree n = len(samples) - 1."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < 2:
        raise InputError("need at least two sample values")
    basis = bernstein_basis(samples.size - 1, x)
    return float(np.dot(samples, basis))


def bernstein_multivariate(f: RandomFunction, n_vec, x, atom: int) -> float:
    """Tensor-product Bernstein operator applied to a random function."""
    n_vec = degree_vector(n_vec, f.dim)
    f.check_atom(atom)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (f.dim,):
        raise InputError(f"point must have {f.dim} coordinates")
    out = f.on_axes([bernstein_nodes(n) for n in n_vec])[..., atom]
    for axis, n in enumerate(n_vec):
        basis = bernstein_basis(n, float(x[axis]))
        out = np.tensordot(basis, out, axes=(0, 0))
    return float(out)


def multivariate_grid(f: RandomFunction, n_vec, grid: Grid) -> np.ndarray:
    """Operator values over a grid for every atom, shape (g,)*dim + (M,).

    In 2-D the second axis is the 1-D contraction on the first axis's result
    read as (n2+1, g*M) rows: each entry still sums l in order, one multiply
    and one add per term, so it keeps the bits of "jl,ilm->ijm" with a
    g*M-long inner loop.  At M = 1 the reshape is a view, so einsum keeps its
    l-innermost dot and the old bits.
    """
    n_vec = degree_vector(n_vec, f.dim)
    f.check_grid(grid)
    mats = [basis_matrix(n, grid.coords) for n in n_vec]
    nodes = f.on_axes([bernstein_nodes(n) for n in n_vec])
    if f.dim == 1:
        return np.einsum("ik,km->im", mats[0], nodes)
    # contract one axis at a time; the joint einsum would cost O(g^2 n^2 M)
    partial = np.tensordot(mats[0], nodes, axes=(1, 0))  # (g, n2+1, M)
    del nodes
    g, width, m = partial.shape
    flat = partial.transpose(1, 0, 2).reshape(width, g * m)
    del partial
    return np.einsum("jl,lx->jx", mats[1], flat).reshape(g, g, m).transpose(1, 0, 2)


def moment_sums(n: int, xs: Sequence[float], j_max: int) -> np.ndarray:
    """Sums over k of p_{k,n}(x) * (sqrt(n) |x - k/n|) ** j, shape (j_max + 1, len(xs)).

    Row j holds the order-j sum at every x; all orders share one basis matrix.
    """
    if not (0 <= j_max <= J_MAX):
        raise InputError(f"moment order must lie in [0, {J_MAX}], got {j_max}")
    xs = np.asarray(xs, dtype=float)
    basis = basis_matrix(n, xs)
    dev = math.sqrt(n) * np.abs(xs[:, None] - bernstein_nodes(n))
    return np.stack([np.einsum("xk,xk->x", basis, dev ** j) for j in range(j_max + 1)])


def moment_sum(n: int, x: float, j: int) -> float:
    """Sum over k of p_{k,n}(x) * (sqrt(n) |x - k/n|) ** j."""
    return float(moment_sums(n, [x], j)[j, 0])


def tail_sum(n: int, x: float, delta: float) -> float:
    """Sum of p_{k,n}(x) over k with |k/n - x| >= delta."""
    if not delta > 0:  # NaN is not
        raise InputError(f"delta must be positive, got {delta}")
    basis = bernstein_basis(n, x)
    mask = np.abs(bernstein_nodes(n) - x) >= delta
    return float(basis[mask].sum())
