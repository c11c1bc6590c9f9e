import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choqbern import (InputError, capacity_distribution_function, choquet_integral,
                      choquet_integral_oracle, choquet_lp_norm, comonotone,
                      eval_capacity, eval_sets, integral_batch, make_distorted,
                      make_distortion, make_possibility, make_table, subset_table)
from choqbern.capacity import TOL
from choqbern.choquet import semi_metric_levels, sorted_levels, telescoped_sum
from conftest import random_capacity, random_monotone_table


@pytest.fixture(scope="module")
def sqrt_cap2():
    return make_distorted(make_distortion("power", alpha=0.5), [0.5, 0.5])


def test_constant_on_subset_is_calibrated():
    cap = make_possibility((0.4, 1.0))
    res = choquet_integral([3.0, 3.0], cap, [0])
    assert res.value == pytest.approx(3.0 * 0.4, abs=1e-15)
    assert res.method == "sorted_sum"


def test_two_atom_sqrt_examples(sqrt_cap2):
    assert choquet_integral([0.0, 1.0], sqrt_cap2).value == pytest.approx(
        math.sqrt(0.5), abs=1e-15)
    assert choquet_integral([-1.0, 1.0], sqrt_cap2).value == pytest.approx(
        math.sqrt(2.0) - 1.0, abs=1e-15)


def test_empty_subset_is_zero(sqrt_cap2):
    assert choquet_integral([1.0, 2.0], sqrt_cap2, []).value == 0.0
    assert choquet_integral_oracle([1.0, 2.0], sqrt_cap2, []).value == 0.0


def test_oracle_matches_closed_forms(sqrt_cap2):
    got = choquet_integral_oracle([0.0, 1.0], sqrt_cap2, steps=10 ** 6)
    assert got.value == pytest.approx(math.sqrt(0.5), abs=1e-5)
    assert got.steps_used == 2 * 10 ** 6
    both = choquet_integral_oracle([-1.0, 1.0], sqrt_cap2, steps=10 ** 6)
    assert both.value == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-5)


def test_oracle_constant_with_aligned_jump():
    # hi = 4, so the jump at 3 sits exactly on a cell boundary: the midpoint
    # rule is exact up to roundoff
    cap = make_possibility((0.4, 1.0))
    got = choquet_integral_oracle([3.0, 3.0], cap, [0], steps=10 ** 6)
    assert got.value == pytest.approx(1.2, abs=1e-9)


def test_oracle_requires_minimum_steps(sqrt_cap2):
    with pytest.raises(InputError):
        choquet_integral_oracle([0.0, 1.0], sqrt_cap2, steps=10)


def test_sorted_sum_vs_oracle_random(rng):
    steps = 10 ** 5
    m = 10
    worst_ratio = 0.0
    for i in range(200):
        cap = random_capacity(rng, m)
        f = rng.uniform(-5.0, 5.0, m)
        subset = None if i % 5 == 0 else int(rng.integers(1, 1 << m))
        a = choquet_integral(f, cap, subset).value
        b = choquet_integral_oracle(f, cap, subset, steps=steps).value
        vals = f if subset is None else f[[j for j in range(m) if subset >> j & 1]]
        # one cell width per integration part bounds the step-function error
        budget = (max(float(vals.max()) + 1.0, 0.0)
                  + max(1.0 - float(vals.min()), 0.0)) / steps
        assert abs(a - b) <= budget
        worst_ratio = max(worst_ratio, abs(a - b) / budget)
    assert worst_ratio <= 1.0


def test_lp_norm_examples(sqrt_cap2):
    for p in (1.0, 2.0, 3.5, 16.0):
        assert choquet_lp_norm([1.0, 1.0], sqrt_cap2, p) == pytest.approx(1.0, abs=1e-12)
    assert choquet_lp_norm([0.0, 1.0], sqrt_cap2, 2.0) == pytest.approx(
        0.5 ** 0.25, abs=1e-12)
    with pytest.raises(InputError):
        choquet_lp_norm([0.0, 1.0], sqrt_cap2, 0.5)
    with pytest.raises(InputError):
        choquet_lp_norm([0.0, 1.0], sqrt_cap2, 17.0)


def test_lp_triangle_inequality(rng):
    for _ in range(300):
        m = int(rng.integers(2, 7))
        kind = ("distorted", "possibility")[int(rng.integers(2))]
        cap = random_capacity(rng, m, kind=kind)
        f = rng.uniform(-3, 3, m)
        g = rng.uniform(-3, 3, m)
        p = float(rng.choice([1.0, 2.0, 4.0]))
        lhs = choquet_lp_norm(f + g, cap, p)
        assert lhs <= choquet_lp_norm(f, cap, p) + choquet_lp_norm(g, cap, p) + 1e-10


def test_distribution_function(sqrt_cap2):
    assert capacity_distribution_function([2.0, 2.0], sqrt_cap2, 3.0) == 1.0
    assert capacity_distribution_function([2.0, 2.0], sqrt_cap2, 1.0) == 0.0
    assert capacity_distribution_function([0.0, 1.0], sqrt_cap2, 0.5) == \
        pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_monotonicity_and_positivity(rng):
    for _ in range(200):
        m = int(rng.integers(2, 8))
        cap = random_capacity(rng, m)
        f = rng.uniform(-2, 2, m)
        g = f + rng.uniform(0, 1, m)
        assert choquet_integral(f, cap).value <= choquet_integral(g, cap).value + 1e-12
        h = np.abs(f)
        assert choquet_integral(h, cap).value >= -1e-15


def test_positive_homogeneity(rng):
    for _ in range(200):
        m = int(rng.integers(2, 8))
        cap = random_capacity(rng, m)
        f = rng.uniform(-2, 2, m)
        a = float(rng.uniform(0, 5))
        assert choquet_integral(a * f, cap).value == pytest.approx(
            a * choquet_integral(f, cap).value, abs=1e-12)


def test_translation_invariance(rng):
    for _ in range(200):
        m = int(rng.integers(2, 8))
        cap = random_capacity(rng, m)
        f = rng.uniform(-2, 2, m)
        c = float(rng.uniform(-3, 3))
        subset = int(rng.integers(1, 1 << m))
        mu_a = eval_capacity(cap, subset)
        assert choquet_integral(f + c, cap, subset).value == pytest.approx(
            choquet_integral(f, cap, subset).value + c * mu_a, abs=1e-12)


def _comonotone_pair(rng, m):
    base = rng.uniform(-2, 2, m)
    order = np.argsort(base)
    f = np.empty(m)
    g = np.empty(m)
    f[order] = np.sort(rng.uniform(-2, 2, m))
    g[order] = np.sort(rng.uniform(-2, 2, m))
    return f, g


def test_comonotone_additivity(rng):
    for _ in range(200):
        m = int(rng.integers(2, 8))
        cap = random_capacity(rng, m)
        f, g = _comonotone_pair(rng, m)
        assert comonotone(f, g)
        assert choquet_integral(f + g, cap).value == pytest.approx(
            choquet_integral(f, cap).value + choquet_integral(g, cap).value,
            abs=1e-10)


def test_subadditivity_under_submodular(rng):
    for _ in range(200):
        m = int(rng.integers(2, 8))
        kind = ("distorted", "possibility")[int(rng.integers(2))]
        cap = random_capacity(rng, m, kind=kind)
        f = rng.uniform(-2, 2, m)
        g = rng.uniform(-2, 2, m)
        assert choquet_integral(f + g, cap).value <= \
            choquet_integral(f, cap).value + choquet_integral(g, cap).value + 1e-10


def test_modulus_inequalities(rng):
    for _ in range(200):
        m = int(rng.integers(2, 8))
        kind = ("distorted", "possibility")[int(rng.integers(2))]
        cap = random_capacity(rng, m, kind=kind)
        f = rng.uniform(-2, 2, m)
        g = rng.uniform(-2, 2, m)
        assert abs(choquet_integral(f, cap).value) <= \
            choquet_integral(np.abs(f), cap).value + 1e-12
        assert abs(choquet_integral(f, cap).value - choquet_integral(g, cap).value) \
            <= choquet_integral(np.abs(f - g), cap).value + 1e-10


def test_union_subadditivity(rng):
    for _ in range(200):
        m = int(rng.integers(2, 8))
        kind = ("distorted", "possibility")[int(rng.integers(2))]
        cap = random_capacity(rng, m, kind=kind)
        f = rng.uniform(0, 3, m)
        a = int(rng.integers(1, 1 << m))
        b = int(rng.integers(1, 1 << m))
        assert choquet_integral(f, cap, a | b).value <= \
            choquet_integral(f, cap, a).value + choquet_integral(f, cap, b).value + 1e-10


def test_choquet_markov(rng):
    phi = lambda t: t / (1.0 + t)
    for _ in range(200):
        m = int(rng.integers(2, 8))
        cap = random_capacity(rng, m)
        h = rng.uniform(0, 4, m)
        a = float(rng.uniform(0.1, 3.0))
        level = sum(1 << i for i in range(m) if h[i] >= a)
        lhs = eval_capacity(cap, level)
        rhs = choquet_integral(phi(h), cap).value / phi(a)
        assert lhs <= rhs + 1e-10


def test_tie_permutation_bit_exact(rng):
    m = 8
    cap = random_capacity(rng, m)
    f = np.array([1.5, -0.5, 1.5, 0.25, -0.5, 1.5, 0.25, 2.0])
    reference = choquet_integral(f, cap).value
    for _ in range(100):
        perm = rng.permutation(m)
        # permute only positions holding equal values so f is unchanged as a
        # multiset per atom; instead shuffle the computation order by casting
        # through a differently-ordered array of the same values
        shuffled = f.copy()
        ties = [np.flatnonzero(f == v) for v in np.unique(f)]
        for group in ties:
            shuffled[rng.permutation(group)] = f[group]
        assert choquet_integral(shuffled, cap).value == reference


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=6),
       st.floats(0, 4), st.floats(-5, 5))
def test_scaling_translation_property(values, a, c):
    cap = make_distorted(make_distortion("rational_2t"),
                         [1.0 / len(values)] * len(values))
    f = np.asarray(values)
    base = choquet_integral(f, cap).value
    assert choquet_integral(a * f, cap).value == pytest.approx(a * base, abs=1e-9)
    assert choquet_integral(f + c, cap).value == pytest.approx(base + c, abs=1e-9)


def test_integral_batch_matches_scalar(rng):
    # the scalar integral is one row of the batch kernel, bit for bit
    for m in range(1, 17):
        for kind in ("distorted", "possibility", "table"):
            cap = random_capacity(rng, m, kind=kind)
            tbl = subset_table(cap)
            block = rng.uniform(-3, 3, (9, m))
            block[3, 0] = block[3, m - 1]  # ties
            block[5] = np.round(block[5])
            block[6] = block[6, 0]  # all atoms equal
            block[7] = 0.0
            batch = integral_batch(block, tbl)
            for k in range(block.shape[0]):
                assert choquet_integral(block[k], cap).value == batch[k]
                assert integral_batch(block[k], tbl)[0] == batch[k]


def test_scalar_paths_need_no_bitmask():
    # 70 atoms: beyond the 2**M table and an int64 bitmask
    m = 70
    w = np.full(m, 1.0 / m)
    cap = make_distorted(make_distortion("sine"), tuple(w))
    f = np.arange(m, dtype=float)
    value = choquet_integral(f, cap).value
    # mu({f >= k}) = sin(pi/2 * (m - k) / m), one step of height 1 per rank
    want = sum(np.sin(0.5 * np.pi * (m - k) / m) for k in range(1, m))
    assert value == pytest.approx(want, rel=1e-13)
    assert capacity_distribution_function(f, cap, m / 2 - 1) == pytest.approx(
        np.sin(0.25 * np.pi), abs=1e-15)
    oracle = choquet_integral_oracle(f, cap, steps=10 ** 5).value
    assert abs(oracle - value) <= (m + 1.0) / 10 ** 5


def test_atom_function_validation(sqrt_cap2):
    with pytest.raises(InputError):
        choquet_integral([1.0], sqrt_cap2)
    with pytest.raises(InputError):
        choquet_integral([np.nan, 1.0], sqrt_cap2)


def _row_wise_integral_batch(values, mu_table):
    """The row-wise (K, M) sorted-sum kernel, as a reference."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[None, :]
    k, m = values.shape
    order = np.argsort(values, axis=1, kind="stable")
    v_sorted = np.take_along_axis(values, order, axis=1)
    bits = (np.int64(1) << order.astype(np.int64))
    upper = np.cumsum(bits[:, ::-1], axis=1)[:, ::-1]
    mu = mu_table[upper]
    out = v_sorted[:, 0] * mu[:, 0]
    if m > 1:
        out = out + np.sum(np.diff(v_sorted, axis=1) * mu[:, 1:], axis=1)
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 9, 12, 16])
def test_integral_batch_matches_row_wise_kernel(rng, m):
    # below 8 difference terms numpy's row sum adds in ascending rank, as the
    # kernel does, so the two agree bit for bit; from 8 terms on it is pairwise
    for cap in (random_capacity(rng, m), make_distorted(
            make_distortion("sine"), [1.0 / m] * m)):
        tbl = subset_table(cap)
        block = rng.uniform(-3, 3, (257, m))
        block[::7] = np.round(block[::7])  # ties across atoms
        block[1::5, : m // 2 + 1] = 0.0  # exact zeros
        block[2::11] = block[2::11, :1]  # all atoms equal
        block[3::13] = np.abs(block[3::13])
        inputs = [block, np.abs(block), block[0], block[:1], np.zeros(m)]
        for values in inputs:
            got = integral_batch(values, tbl)
            want = _row_wise_integral_batch(values, tbl)
            assert got.shape == want.shape
            if m <= 8:
                assert np.array_equal(got, want)
            else:
                # a signed row's integral can cancel to near 0, so its error is
                # relative to the size of the values rather than of the result
                scale = 0.0 if values.min() >= 0 else np.abs(values).max()
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * scale)



# x and the next double up, whose x / (1 + x) rounds an ulp below x's
_INVERTED = (float.fromhex("0x1.b3b6dd6ccb5c4p-3"), float.fromhex("0x1.b3b6dd6ccb5c5p-3"))
_VALUES = st.sampled_from([0.0, 0.25, 0.5, 1.0, *_INVERTED]) | st.floats(0.0, 4.0)


@settings(derandomize=True, deadline=None, max_examples=200)
@example(16, "possibility", 1, [[0.5] * 16], [0.5])
@example(2, "table", 2, [[_INVERTED[1], _INVERTED[0]] * 8], [_INVERTED[0]])
@given(st.sampled_from([*range(1, 9), 16]),
       st.sampled_from(["distorted", "possibility", "table", "near_monotone"]),
       st.integers(0, 2 ** 32 - 1),
       st.lists(st.lists(_VALUES, min_size=16, max_size=16), max_size=4),
       st.lists(st.floats(1e-3, 5.0), max_size=3))
def test_semi_metric_levels_match_integral_batch_and_eval_sets(m, kind, seed, rows,
                                                               thresholds):
    # one sort gives every row's integral of h / (1 + h) and capacities of
    # {h >= t}: the bits of integral_batch and of eval_sets, ties, all-zero
    # rows, a t equal to a value and a t above every value included
    rng = np.random.default_rng(seed)
    if kind == "near_monotone":  # make_table accepts mu's within TOL of 0
        tbl = random_monotone_table(rng, m)
        tbl[0] = TOL / 4  # the empty set
        tbl[1] = -TOL / 8 if m > 1 else 1.0  # {0}
        cap = make_table(m, tbl)
    else:
        cap = random_capacity(rng, m, kind=kind)
    h = np.array([*rows, [0.0] * 16, [1.0, 0.5] * 8], dtype=float)[:, :m]
    thresholds = [*thresholds, float(h.max()) + 1.0, float(h.flat[seed % h.size])]
    mu_table = subset_table(cap)
    integrals, caps = semi_metric_levels(h, mu_table, thresholds)
    assert integrals.tobytes() == integral_batch(h / (1.0 + h), mu_table).tobytes()
    assert len(caps) == len(thresholds)
    for t, got in zip(thresholds, caps):
        assert got.tobytes() == eval_sets(cap, h >= t).tobytes()


def test_semi_metric_levels_on_a_pair_that_x_over_1_plus_x_reorders():
    # sorted by x, the pair's integral of x / (1 + x) reads the upper set of
    # the wrong atom at the second rank; with both singletons at 0 that moves
    # the result by an ulp, and the rows go through integral_batch instead
    mu_table = np.array([0.0, 0.0, 0.0, 1.0])
    h = np.array([[_INVERTED[1], _INVERTED[0]]])
    v, mu = sorted_levels(h, mu_table)
    want = integral_batch(h / (1.0 + h), mu_table)
    assert telescoped_sum(v / (1.0 + v), mu) != want
    assert semi_metric_levels(h, mu_table, [])[0] == want
