import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choqbern import (InputError, bernstein_basis, bernstein_multivariate,
                      bernstein_univariate, integral_batch, make_distorted,
                      make_distortion, moment_sum, sikkema_constant, subset_table,
                      tail_sum)
from choqbern.bernstein import basis_matrix, multivariate_grid
from choqbern.randomfn import Grid, RandomFunction, build_family, stochastic_modulus
from conftest import exact_basis


def test_basis_small_cases():
    b = bernstein_basis(2, 0.5)
    assert b.shape == (3,)
    assert np.allclose(b, [0.25, 0.5, 0.25], atol=1e-15)
    assert np.array_equal(bernstein_basis(5, 0.0), [1, 0, 0, 0, 0, 0])
    assert np.array_equal(bernstein_basis(5, 1.0), [0, 0, 0, 0, 0, 1])


def test_basis_against_exact_binomials():
    for n in (1, 3, 10, 30, 50):
        for x in (0.017, 0.3, 0.5, 0.9):
            got = bernstein_basis(n, x)
            assert np.allclose(got, exact_basis(n, x), rtol=1e-12, atol=1e-300)


def test_basis_partition_of_unity_large():
    vals = bernstein_basis(1000, 0.3)
    assert np.all(vals >= 0.0)
    assert abs(vals.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [400, 1600, 10 ** 5])
@pytest.mark.parametrize("x", [1e-9, 1e-3, 0.25, 0.5, 0.5 + 1e-9, 0.999, 1.0 - 1e-9])
def test_basis_has_no_subnormals(n, x):
    vals = bernstein_basis(n, x)
    tiny = np.finfo(float).tiny
    assert not np.any((vals > 0.0) & (vals < tiny))
    assert np.all(vals >= 0.0)
    # the module docstring's accuracy: ~1e-12 to a few thousand, ~1e-10 at 1e5
    assert abs(vals.sum() - 1.0) <= (1e-12 if n <= 1600 else 3e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 512), st.floats(0.0, 1.0))
def test_basis_partition_property(n, x):
    vals = bernstein_basis(n, x)
    assert np.all(vals >= 0.0)
    assert abs(vals.sum() - 1.0) <= 1e-12


def test_basis_domain_and_degree_validation():
    with pytest.raises(InputError):
        bernstein_basis(3, 1.5)
    with pytest.raises(InputError):
        bernstein_basis(0, 0.5)
    with pytest.raises(InputError):
        bernstein_basis(10 ** 5 + 1, 0.5)


def test_univariate_linear_reproduction():
    for n in (1, 7, 40):
        nodes = np.arange(n + 1) / n
        for x in (0.0, 0.3, 0.77, 1.0):
            assert bernstein_univariate(nodes, x) == pytest.approx(x, abs=1e-12)
    assert bernstein_univariate(np.full(11, 4.2), 0.3) == pytest.approx(4.2, abs=1e-12)


def test_univariate_square_value():
    nodes = (np.arange(11) / 10) ** 2
    got = bernstein_univariate(nodes, 0.5)
    assert got == pytest.approx(0.275, abs=1e-12)
    assert got == pytest.approx(0.5 ** 2 + 0.5 * 0.5 / 10, abs=1e-12)


def test_endpoint_interpolation_bit_exact():
    vals = np.array([0.3712, -1.25, 9.0, 2.5, -0.125])
    assert bernstein_univariate(vals, 0.0) == vals[0]
    assert bernstein_univariate(vals, 1.0) == vals[-1]


def test_multivariate_examples():
    f_const = RandomFunction(1, 2, lambda pts, w: np.full(np.shape(pts)[:-1], 3.5))
    assert bernstein_multivariate(f_const, (4, 6), (0.3, 0.9), 0) == \
        pytest.approx(3.5, abs=1e-12)
    f_sum = RandomFunction(1, 2, lambda pts, w: pts[..., 0] + pts[..., 1])
    assert bernstein_multivariate(f_sum, (7, 5), (0.3, 0.8), 0) == \
        pytest.approx(1.1, abs=1e-12)
    f_prod = RandomFunction(1, 2, lambda pts, w: pts[..., 0] * pts[..., 1])
    assert bernstein_multivariate(f_prod, (10, 10), (0.5, 0.5), 0) == \
        pytest.approx(0.25, abs=1e-12)
    with pytest.raises(InputError):
        bernstein_multivariate(f_sum, (4,), (0.5, 0.5), 0)


def test_multivariate_grid_matches_pointwise():
    f = build_family("affine_noise", 2, 2, {"z": [-0.5, 1.0]})
    grid = Grid(2, 9)
    surface = multivariate_grid(f, (5, 7), grid)
    c = grid.coords
    for i in (0, 3, 8):
        for j in (2, 6):
            for w in range(2):
                assert surface[i, j, w] == pytest.approx(
                    bernstein_multivariate(f, (5, 7), (c[i], c[j]), w), abs=1e-13)


def test_moment_sum_values():
    assert moment_sum(17, 0.42, 0) == pytest.approx(1.0, abs=1e-12)
    assert moment_sum(4, 0.5, 2) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(InputError):
        moment_sum(4, 0.5, 17)


def test_moment_bound_spot_checks():
    for n in (10, 50):
        for j in range(7):
            bound = 2.0 * math.gamma(1.0 + j / 2.0)
            for x in np.linspace(0, 1, 11):
                assert moment_sum(n, float(x), j) <= bound
    # reference ceilings
    assert 2.0 * math.gamma(1.0) == 2.0
    assert 2.0 * math.gamma(1.5) == pytest.approx(math.sqrt(math.pi), abs=1e-14)
    assert 2.0 * math.gamma(2.0) == 2.0
    assert math.gamma(1.5) == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-14)


def test_tail_sum_values():
    assert tail_sum(100, 0.5, 0.5) == pytest.approx(2.0 * 0.5 ** 100, rel=1e-12)
    assert 1.0 / (4 * 100 * 0.1 ** 2) == pytest.approx(0.25)
    assert tail_sum(50, 0.3, 1.01) == 0.0
    with pytest.raises(InputError):
        tail_sum(50, 0.3, 0.0)


def test_tail_bound_spot_checks():
    for n in (10, 100):
        for delta in (0.05, 0.1, 0.3):
            bound = 1.0 / (4.0 * n * delta * delta)
            for x in np.linspace(0, 1, 11):
                assert tail_sum(n, float(x), delta) <= bound


def test_sikkema_constant_value():
    c = sikkema_constant()
    assert c == (4306.0 + 837.0 * math.sqrt(6.0)) / 5832.0
    assert 1.089 < c < 1.090
    assert c > 1.0
    assert round(c, 3) == 1.090 or abs(c - 1.089) < 1e-3


def test_grid_modulus_identity():
    # the ordinary modulus of tabulated values is the sample modulus of a
    # one-atom function on their grid
    identity = RandomFunction(1, 1, lambda pts, w: pts[..., 0])
    grid = Grid(1, 257)
    assert stochastic_modulus(identity, 0.25, 0, grid) == pytest.approx(0.25, abs=1e-15)
    assert stochastic_modulus(identity, 0.0, 0, grid) == 0.0


def test_jensen_step_inequality_2d(rng):
    # integrated pointwise bound: the operator error at x is dominated by the
    # basis-weighted integrals of |F(x) - F(nodes)|^p under a submodular capacity
    m = 4
    f = build_family("affine_noise", m, 2,
                     {"z": list(rng.uniform(-1, 1, m)), "amp": 0.4})
    cap = make_distorted(make_distortion("power", alpha=0.5),
                         [1.0 / m] * m)
    mu = subset_table(cap)
    n1, n2 = 8, 6
    nodes1 = np.arange(n1 + 1) / n1
    nodes2 = np.arange(n2 + 1) / n2
    mesh = np.stack(np.meshgrid(nodes1, nodes2, indexing="ij"), axis=-1)
    node_vals = np.stack([f.evaluator(mesh, w) for w in range(m)], axis=-1)
    for p in (1.0, 2.0):
        for x1 in (0.0, 0.35, 0.8):
            for x2 in (0.2, 0.65, 1.0):
                fx = np.array([f.eval((x1, x2), w) for w in range(m)])
                approx = np.array([
                    bernstein_multivariate(f, (n1, n2), (x1, x2), w)
                    for w in range(m)])
                lhs = float(integral_batch(np.abs(fx - approx)[None, :] ** p, mu)[0])
                weights = np.outer(bernstein_basis(n1, x1),
                                   bernstein_basis(n2, x2))
                diffs = np.abs(fx[None, None, :] - node_vals) ** p
                inner = integral_batch(diffs.reshape(-1, m), mu)
                rhs = float(np.dot(weights.reshape(-1), inner))
                assert lhs <= rhs + 1e-9


def test_basis_matrix_shape():
    mat = basis_matrix(6, np.linspace(0, 1, 5))
    assert mat.shape == (5, 7)
    assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-13)


# sha256 of the C-order bytes of basis_matrix(n, Grid(dim, g).coords), recorded
# with the per-point basis: a change in any bit of any entry shows here
_BASIS_DIGESTS = {
    (1, 1): "fdf0b8681e6cfe521285575d22afa116962d6fe796d1143c62a5ca3f66f81c60",
    (1, 4): "06b13aaa4f28cc146fcadce0cf47f054bb97c49faa8420f953e8d571c54a6cbf",
    (1, 25): "ca467cd27c20e6f2b7efd806ef625d3478c488931ba203d48fff3d5891b32d97",
    (1, 64): "94e4a202502184cca97aec3104f2c44c02db6292419b1e678a9f2fb96ad6e3d9",
    (1, 400): "bd3c2bcbd23fdabee771cc045061a7014872c3d6944f3aafdb40e90c9d0ea30f",
    (1, 1600): "ff01d46e32180f4993ecb6c12b45234fbd8562f452c463ecbd4ec2bfeeca4c14",
    (1, 10 ** 5): "b8e3956264cdd3bd362de612c13c47b0afdb06383b9a7d33aa8c6258bac8ea78",
    (2, 1): "8970450da62cfe0944f10ec918b5b38decdf30e4eed386b8f12f9869de22e5b1",
    (2, 4): "fbccfe1c761dac0070840c9411b896ece25ce3abc92ee910e33f27b0415706ec",
    (2, 25): "798c8a41a850fa6043404e95400ef0ecd80e1ee4c16cf0035671836d87d1b9e7",
    (2, 64): "9bb3b272e2c808945dac229509cb05f785a251d3505aea0509123efd206fc374",
    (2, 400): "2ff54a88298156844e9a47ee753b5b5f3e06b199ccc841223ec37d7f50e26e9b",
    (2, 1600): "b189fed2a5189436cf10bfc14ef76bfb827fe159182d19d356a1f922d6ced00f",
    (2, 10 ** 5): "d8071cd603efef053ae75ecec3262165b382462bfc623aa551697cd716ad3255",
}


@pytest.mark.parametrize("dim, n", sorted(_BASIS_DIGESTS))
def test_basis_matrix_bits_pinned(dim, n):
    xs = Grid(dim, {1: 257, 2: 65}[dim]).coords
    digest = hashlib.sha256()
    # hashed a block of rows at a time so n = 1e5 stays near 16 MB; rows are
    # contiguous, so the digest is that of the whole matrix
    block = max(1, 2_000_000 // (n + 1))
    for i in range(0, xs.size, block):
        digest.update(basis_matrix(n, xs[i:i + block]).tobytes())
    assert digest.hexdigest() == _BASIS_DIGESTS[dim, n]


def test_basis_matrix_rows_match_one_point_calls():
    xs = np.concatenate([np.random.default_rng(8).random(40), [0.0, 1.0, 1e-300]])
    for n in (1, 9, 400):
        mat = basis_matrix(n, xs)
        for i, x in enumerate(xs):
            assert mat[i].tobytes() == bernstein_basis(n, x).tobytes()
    with pytest.raises(InputError):
        basis_matrix(4, [0.5, -0.1])
    with pytest.raises(InputError):
        basis_matrix(4, [0.5, math.nan])
