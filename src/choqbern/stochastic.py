"""Stochastic Bernstein polynomials over order-statistic node arrays.

Nodes are rows of sorted i.i.d. uniforms; their maximal deviation from the
equispaced grid controls the approximation error through the uniform
modulus of continuity K and its right-continuous inverse.  Monte Carlo
draws use counter-based substreams keyed by (master seed, sample index),
so results do not depend on batching or scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bernstein import bernstein_basis
from .capacity import InputError
from .randomfn import Grid, RandomFunction, profile_at, sample_modulus_profile


@dataclass(frozen=True)
class SeededStream:
    """Deterministic substream fully determined by (master_seed, stream_index)."""

    master_seed: int
    stream_index: int

    def __post_init__(self):
        # both are halves of the 128-bit Philox key; wrapping would alias streams
        if not (0 <= self.master_seed < 1 << 64 and 0 <= self.stream_index < 1 << 64):
            raise InputError(f"seed {self.master_seed} and stream index "
                             f"{self.stream_index} must lie in [0, 2**64)")

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def sample_rows(n: int, master_seed: int, count: int,
                start_index: int = 0) -> np.ndarray:
    """Stack ``count`` node rows from consecutive substreams, shape (count, n+1).

    Row i holds the n+1 uniforms of substream (master_seed, start_index + i)
    sorted ascending: the order statistics Y_{n,0} <= ... <= Y_{n,n}.  One
    Philox generator serves every row: before each row its state is reset to
    that of a fresh generator keyed (master_seed, start_index + i), which is
    all a substream is, instead of building a generator per row.
    """
    if n < 1:
        raise InputError(f"degree must be >= 1, got {n}")
    # SeededStream rejects a seed or index outside [0, 2**64) before any draw
    SeededStream(master_seed, start_index + max(count - 1, 0))
    gen = SeededStream(master_seed, start_index).generator()
    bits = gen.bit_generator
    fresh = bits.state  # counter 0, empty buffer; only the key varies by row
    key = fresh["state"]["key"]
    out = np.empty((count, n + 1))
    for i in range(count):
        key[1] = start_index + i
        bits.state = fresh
        gen.random(out=out[i])
    out.sort(axis=1)
    return out


def max_deviation_rows(rows: np.ndarray) -> np.ndarray:
    """M_n = max over k of |Y_{n,k} - k/n| for each row of a (count, n+1) stack."""
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[1] - 1
    dev = rows - np.arange(n + 1) / n
    return np.abs(dev, out=dev).max(axis=1)


def stochastic_bernstein(f: RandomFunction, nodes, x: float, atom: int) -> float:
    """B_n(f, Y)(x, atom) on one sorted node row Y of n+1 points in [0, 1]."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise InputError(f"a node row needs shape (n + 1,) with n >= 1, "
                         f"got {nodes.shape}")
    if not np.all((nodes >= 0.0) & (nodes <= 1.0)):
        raise InputError("nodes must lie in [0, 1]")
    if np.any(np.diff(nodes) < 0.0):
        raise InputError("nodes must be sorted nondecreasing")
    if f.dim != 1:
        raise InputError("stochastic Bernstein polynomials need a 1-d function")
    if not (0 <= atom < f.atom_count):
        raise InputError(f"atom index {atom} out of range")
    samples = np.asarray(f.evaluator(nodes[:, None], atom), dtype=float)
    return float(np.dot(samples, bernstein_basis(nodes.size - 1, x)))


# ---------------------------------------------------------------------------
# Uniform modulus K and its right-continuous inverse
# ---------------------------------------------------------------------------

class KTable:
    """Grid modulus K(f, delta) = sup over atoms of the sample moduli.

    Precomputed once per (function, grid); lookups accept arbitrary real
    deltas and cost O(1) each.
    """

    def __init__(self, f: RandomFunction, grid: Grid):
        if f.dim != 1:
            raise InputError("K modulus is defined for 1-d functions")
        self._dists, prof = sample_modulus_profile(f, grid)
        self._max = prof.max(axis=1)

    def __call__(self, delta) -> np.ndarray | float:
        out = profile_at(self._dists, self._max, delta)
        return float(out) if out.ndim == 0 else out


def k_modulus(f: RandomFunction, delta: float, grid: Grid) -> float:
    """K(f, delta): max over atoms and grid pairs |x-y| <= delta of |f(x)-f(y)|.

    Each call builds a ``KTable``, one walk over every grid offset; for
    repeated queries on one function, build the table once and call it.
    """
    return float(KTable(f, grid)(delta))


def default_delta_grid(points: int = 1025) -> np.ndarray:
    return np.arange(points) / (points - 1)


def k_inverse(f: RandomFunction, eps: float, grid: Grid,
              delta_grid=None) -> float:
    """Largest delta in the delta grid with K(f, delta) <= eps (0 if none).

    Emulates the right-continuous inverse of K on a finite grid; by
    construction delta <= k_inverse(f, k_modulus(f, delta)) for every grid
    delta.  Like ``k_modulus``, each call builds a ``KTable``; for repeated
    queries, build the table once and compare ``table(delta_grid)`` with eps.
    """
    if eps < 0:
        raise InputError("eps must be nonnegative")
    if delta_grid is None:
        delta_grid = default_delta_grid()
    delta_grid = np.asarray(delta_grid, dtype=float)
    if np.any(np.diff(delta_grid) < 0):
        raise InputError("delta grid must be sorted ascending")
    table = KTable(f, grid)
    ok = table(delta_grid) <= eps
    if not np.any(ok):
        return 0.0
    return float(delta_grid[np.flatnonzero(ok)[-1]])


# ---------------------------------------------------------------------------
# Closed-form deviation bounds
# ---------------------------------------------------------------------------

def _check_r(r: float) -> None:
    if not (0.0 < r < 1.0):
        raise InputError(f"r must lie in (0, 1), got {r}")


def _check_slope(u_prime_0: float) -> None:
    if not (0.0 < u_prime_0 < math.inf):
        raise InputError("the distortion slope at zero must be finite and positive "
                         "(power distortions with exponent < 1 are rejected)")


def lemma51_bound(n: int, eps: float, r: float, u_prime_0: float) -> float:
    """Distorted-probability tail bound for the node deviation M_n.

    u'(0) * (n+1) / sqrt(1-r) * exp(-(3r/2) * n * eps**2).
    """
    if n < 1:
        raise InputError(f"degree must be >= 1, got {n}")
    if eps < 0:
        raise InputError("eps must be nonnegative")
    _check_r(r)
    _check_slope(u_prime_0)
    return u_prime_0 * (n + 1) / math.sqrt(1.0 - r) * math.exp(-1.5 * r * n * eps * eps)


def theorem6_bound(n: int, tau_n: float, r: float, u_prime_0: float) -> float:
    """Rate-function form of the deviation bound with tau(n) >= 1.

    u'(0) * (n+1) / sqrt(1-r) * exp(-(3r/2) * tau(n)); equals
    ``lemma51_bound`` under tau(n) = n * eps**2.
    """
    if n < 1:
        raise InputError(f"degree must be >= 1, got {n}")
    if tau_n < 1.0:
        raise InputError(f"tau(n) >= 1 is required, got {tau_n}")
    _check_r(r)
    _check_slope(u_prime_0)
    return u_prime_0 * (n + 1) / math.sqrt(1.0 - r) * math.exp(-1.5 * r * tau_n)
