"""Shared generators and brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from choqbern import (integral_batch, make_distorted, make_distortion,
                      make_possibility, make_table, subset_table)

DISTORTION_KINDS = ("power", "rational_2t", "exp_decay", "log2", "sine", "arctan")


def random_distortion(rng: np.random.Generator):
    kind = DISTORTION_KINDS[int(rng.integers(len(DISTORTION_KINDS)))]
    if kind == "power":
        return make_distortion("power", alpha=float(rng.uniform(0.3, 1.0)))
    return make_distortion(kind)


def random_probability(rng: np.random.Generator, m: int) -> tuple[float, ...]:
    w = rng.dirichlet(np.ones(m))
    return tuple(w)


def random_monotone_table(rng: np.random.Generator, m: int) -> np.ndarray:
    """Random normalized monotone set function via a subset running max."""
    tbl = rng.random(1 << m)
    masks = np.arange(1 << m)
    for b in range(m):
        bit = 1 << b
        has = (masks & bit) != 0
        tbl[has] = np.maximum(tbl[has], tbl[masks[has] ^ bit])
    tbl /= tbl[-1]
    tbl[0] = 0.0
    return tbl


def random_capacity(rng: np.random.Generator, m: int, kind: str | None = None):
    if kind is None:
        kind = ("distorted", "possibility", "table")[int(rng.integers(3))]
    if kind == "distorted":
        return make_distorted(random_distortion(rng), random_probability(rng, m))
    if kind == "possibility":
        lam = rng.random(m)
        lam[int(rng.integers(m))] = 1.0
        return make_possibility(tuple(lam))
    return make_table(m, random_monotone_table(rng, m))


def brute_gamma(f, cap, deltas, p, grid) -> float:
    """Choquet L^p modulus by an explicit loop over all grid pairs."""
    mu = subset_table(cap)
    coords = grid.coords
    g = coords.size
    tensor = f.grid_tensor(grid)
    best = 0.0
    if f.dim == 1:
        points = [(i,) for i in range(g)]
    else:
        points = list(itertools.product(range(g), repeat=2))
    for a in points:
        for b in points:
            if all(abs(coords[a[k]] - coords[b[k]]) <= deltas[k] + 1e-12
                   for k in range(f.dim)):
                diff = np.abs(tensor[a] - tensor[b])[None, :] ** p
                best = max(best, float(integral_batch(diff, mu)[0]))
    return best ** (1.0 / p)


def brute_sample_modulus(f, delta, atom, grid) -> float:
    """Euclidean-ball sample modulus by an explicit pair loop."""
    coords = grid.coords
    g = coords.size
    tensor = f.grid_tensor(grid)
    best = 0.0
    if f.dim == 1:
        points = [(i,) for i in range(g)]
    else:
        points = list(itertools.product(range(g), repeat=2))
    for a in points:
        for b in points:
            dist = math.sqrt(sum((coords[a[k]] - coords[b[k]]) ** 2
                                 for k in range(f.dim)))
            if dist <= delta + 1e-12:
                best = max(best, abs(float(tensor[a][atom]) - float(tensor[b][atom])))
    return best


def exact_basis(n: int, x: float) -> np.ndarray:
    """Bernstein basis from exact integer binomials (oracle for small n)."""
    return np.array([math.comb(n, k) * x ** k * (1.0 - x) ** (n - k)
                     for k in range(n + 1)])


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
