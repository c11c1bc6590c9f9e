"""The asymmetric Choquet integral on a finite capacity space.

Two independent evaluation routes ship side by side: a closed-form
sorted-sum over the level sets of the integrand, and a midpoint-rule
quadrature of the defining survival-function integrals.  The second is
deliberately kept as a slow cross-check for the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .capacity import Capacity, InputError, as_members, check_integer, eval_sets

P_MAX = 16.0  # largest supported L^p exponent


@dataclass(frozen=True)
class IntegralResult:
    value: float
    method: str
    steps_used: int = 0


def _atom_values(f, m: int) -> np.ndarray:
    vals = np.asarray(f, dtype=float)
    if vals.shape != (m,):
        raise InputError(f"expected {m} atom values, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise InputError("atom values must be finite")
    return vals


def choquet_integral(f, cap: Capacity,
                     subset: Union[int, Iterable[int], None] = None) -> IntegralResult:
    """Sorted-sum Choquet integral of f over a subset A (default: all atoms).

    A one-row ``telescoped_sum``: with A's atoms ranked by a stable sort of
    their values v_0 <= ... <= v_{k-1}, the integral is
    sum_r (v_r - v_{r-1}) * mu(atoms of A at ranks >= r) with v_{-1} = 0,
    which telescopes the survival-function definition exactly; tied atoms
    add exact-zero terms.  The upper-set capacities come from ``eval_sets``,
    so on the full set the result is ``integral_batch`` of the row, bit for bit.
    """
    m = cap.atom_count
    member = as_members(subset, m)
    vals = _atom_values(f, m)
    order = np.flatnonzero(member)
    if order.size == 0:
        return IntegralResult(0.0, "sorted_sum", 0)
    order = order[np.argsort(vals[order], kind="stable")]
    upper = np.zeros((order.size, m), dtype=bool)
    upper[:, order] = np.tri(order.size, dtype=bool).T  # row r: the ranks >= r
    mu = eval_sets(cap, upper)
    return IntegralResult(float(telescoped_sum(vals[order], mu)), "sorted_sum", 0)


def choquet_integral_oracle(f, cap: Capacity,
                            subset: Union[int, Iterable[int], None] = None,
                            steps: int = 10 ** 6) -> IntegralResult:
    """Midpoint-rule quadrature of the survival-function integrals.

    The positive part integrates mu(A intersect {f > t}) over [0, max f + 1]
    and the negative part integrates the same minus mu(A) over
    [min f - 1, 0]; each nonempty part gets ``steps`` midpoint cells.  The
    integrand is a step function with jumps of total height at most one per
    part, so the quadrature error is bounded by the sum of the two cell
    widths.
    """
    steps = check_integer(steps, "oracle steps", 1000)
    m = cap.atom_count
    member = as_members(subset, m)
    vals = _atom_values(f, m)
    if not member.any():
        return IntegralResult(0.0, "riemann_oracle", 0)
    distinct = np.unique(vals[member])
    # survivors[j] = mu(A intersect {f > distinct[j-1]}); survivors[0] = mu(A)
    cuts = np.concatenate([[-np.inf], distinct])
    survivors = eval_sets(cap, member & (vals > cuts[:, None]))

    total, used = 0.0, 0
    # the positive part on [0, max f + 1], then the negative one on [min f - 1, 0]
    for lo, hi, base in ((0.0, float(distinct[-1]) + 1.0, 0.0),
                         (float(distinct[0]) - 1.0, 0.0, survivors[0])):
        if lo < hi:
            h = (hi - lo) / steps
            mids = lo + (np.arange(steps) + 0.5) * h
            buckets = np.searchsorted(mids, distinct, side="left")
            counts = np.diff(np.concatenate([[0], buckets, [steps]]))
            total += h * float(np.dot(counts, survivors - base))
            used += steps
    return IntegralResult(total, "riemann_oracle", used)


def check_p(p: float) -> float:
    """``p`` if it is an L^p exponent in [1, ``P_MAX``], which NaN is not."""
    if not (1.0 <= p <= P_MAX):
        raise InputError(f"p must lie in [1, {P_MAX:g}], got {p}")
    return p


def choquet_lp_norm(f, cap: Capacity, p: float) -> float:
    """((C) integral of |f|^p over the whole space) ** (1/p)."""
    check_p(p)
    vals = _atom_values(f, cap.atom_count)
    integral = choquet_integral(np.abs(vals) ** p, cap).value
    return float(integral ** (1.0 / p))


def capacity_distribution_function(f, cap: Capacity, x: float) -> float:
    """Capacity of the sublevel set {atoms: f <= x}."""
    vals = _atom_values(f, cap.atom_count)
    return float(eval_sets(cap, (vals <= x)[None, :])[0])


def comonotone(f, g, tol: float = 0.0) -> bool:
    """Pairwise-product comonotonicity test for two atom functions."""
    fv = np.asarray(f, dtype=float)
    gv = np.asarray(g, dtype=float)
    df = fv[:, None] - fv[None, :]
    dg = gv[:, None] - gv[None, :]
    return bool(np.all(df * dg >= -tol))


def sorted_levels(values: np.ndarray, mu_table: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Sorted values and upper-set capacities of (K, M) rows, atom-major.

    Returns ``(v, mu)``, both of shape (M, K): ``v[k]`` holds every row's
    k-th smallest value and ``mu[k]`` the capacity of the atoms at ranks
    >= k, looked up in ``mu_table`` (the capacity over all 2**M bitmasks).

    Kernel layout: the rows get one stable argsort along the atoms; one flat
    gather then puts the sorted values in atom-major (M, K) layout, where
    row k holds every row's k-th smallest value.  The upper-set bitmasks
    are accumulated over those rows from the top rank down.  With
    ``telescoped_sum`` adding rank by rank in ascending k, the integrals
    for M <= 8 are bit-identical to a row-wise kernel's (numpy's row sum
    adds fewer than 8 terms in that order); above, the two differ in the
    last bits, because numpy's row sum is then pairwise.
    """
    k, m = values.shape
    if np.shape(mu_table) != (1 << m,):
        raise InputError(f"{m} atom values need a capacity table of {1 << m} "
                         f"entries, got shape {np.shape(mu_table)}")
    order = np.argsort(values, axis=1, kind="stable")
    # flat index of each row's first entry
    row_start = np.arange(k, dtype=np.int64)[:, None] * m
    v = values.ravel()[(order + row_start).T]
    upper = (np.int64(1) << np.arange(m, dtype=np.int64))[order.T]
    for r in range(m - 2, -1, -1):
        upper[r] += upper[r + 1]
    return v, mu_table[upper]


def telescoped_sum(v: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """sum_k (v_k - v_{k-1}) mu_k per column of ``sorted_levels`` output (v_{-1} = 0).

    The terms are added in ascending rank, the order of a row-wise sum.
    """
    out = v[0] * mu[0]
    if len(v) > 1:
        terms = (v[1] - v[0]) * mu[1]
        for r in range(2, len(v)):
            terms += (v[r] - v[r - 1]) * mu[r]
        out = out + terms
    return out


def integral_batch(values: np.ndarray, mu_table: np.ndarray) -> np.ndarray:
    """Sorted-sum Choquet integrals over the full space for a batch of rows.

    ``values`` has shape (K, M); ``mu_table`` holds the capacity over all
    2**M bitmasks.  Ties contribute exact-zero increments; a row's result
    is ``choquet_integral`` of it over the full set, bit for bit.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[None, :]
    return telescoped_sum(*sorted_levels(values, mu_table))
