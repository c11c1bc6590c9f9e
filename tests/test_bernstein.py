import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choqbern import (InputError, bernstein_basis, bernstein_multivariate,
                      bernstein_univariate, integral_batch, make_distorted,
                      make_distortion, moment_sum, sikkema_constant, subset_table,
                      tail_sum)
from choqbern import bernstein
from choqbern.bernstein import (basis_matrix, bernstein_nodes, degree_vector,
                                multivariate_grid)
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


def _multivariate_grid_direct(f, n_vec, grid):
    # the reference: the first axis by tensordot, then the second by an einsum
    # over (grid, node, atom); kept as the expression multivariate_grid replaced
    n_vec = degree_vector(n_vec, f.dim)
    mats = [basis_matrix(n, grid.coords) for n in n_vec]
    nodes = f.on_axes([bernstein_nodes(n) for n in n_vec])
    if f.dim == 1:
        return np.einsum("ik,km->im", mats[0], nodes)
    partial = np.tensordot(mats[0], nodes, axes=(1, 0))
    return np.einsum("jl,ilm->ijm", mats[1], partial)


_DEGREE_PAIRS = ((1, 1), (2, 2), (4, 4), (7, 3), (16, 64), (64, 16), (100, 37),
                 (256, 256))


@pytest.mark.parametrize("family", ["affine_noise", "step_noise", "deterministic:absdev"])
@pytest.mark.parametrize("g", [9, 33, 65, 257])
def test_multivariate_grid_keeps_the_bits_of_the_direct_contraction(family, g):
    # at M = 1 the bits hold only while multivariate_grid's reshape is a view
    grid = Grid(2, g)
    for m in (1, 2, 3, 16, 20):
        f = build_family(family, m, 2)
        for n_vec in _DEGREE_PAIRS if g < 257 else _DEGREE_PAIRS[2::2]:
            got = multivariate_grid(f, n_vec, grid)
            want = _multivariate_grid_direct(f, n_vec, grid)
            assert got.shape == want.shape == (g, g, m)
            assert got.tobytes() == want.tobytes(), (m, n_vec)
    # the 1-D path is the one contraction
    for m in (1, 5):
        f = build_family(family, m, 1)
        for n in (1, 6, 256):
            got = multivariate_grid(f, n, Grid(1, g))
            assert got.tobytes() == _multivariate_grid_direct(f, n, Grid(1, g)).tobytes()


def _pointwise_sides(f, n_vec, grid):
    # |B_n f - f|(x) through the library's grid operator, and its proof step's
    # bound sum_k p_k1(x1) p_k2(x2) |f(k/n) - f(x)|, per grid point and atom
    fx = f.grid_tensor(grid)
    lhs = np.abs(bernstein.multivariate_grid(f, n_vec, grid) - fx)
    p1, p2 = (basis_matrix(n, grid.coords) for n in n_vec)
    nodes = f.on_axes([bernstein_nodes(n) for n in n_vec])
    dev = np.abs(nodes[None, None] - fx[:, :, None, None])  # (g, g, n1+1, n2+1, M)
    rhs = np.einsum("ik,jl,ijklm->ijm", p1, p2, dev)
    return lhs, rhs


def test_operator_error_is_dominated_by_the_weighted_deviations(monkeypatch):
    # the proof step of the uniform and mean estimates: an equality where every
    # f(k/n) - f(x) has one sign, so a slightly wrong operator fails it
    grid = Grid(2, 17)
    for family, m in (("affine_noise", 3), ("step_noise", 4), ("deterministic:absdev", 2)):
        f = build_family(family, m, 2)
        for n_vec in ((4, 4), (8, 3), (16, 16)):
            lhs, rhs = _pointwise_sides(f, n_vec, grid)
            assert np.all(lhs <= rhs + 1e-12 * max(1.0, float(np.abs(rhs).max())))
    absdev = build_family("deterministic:absdev", 2, 2)
    centre = grid.coords.size // 2
    assert grid.coords[centre] == 0.5 and np.all(absdev.grid_tensor(grid)[centre, centre] == 0)

    def centre_gap():
        lhs, rhs = _pointwise_sides(absdev, (16, 16), grid)
        return np.abs(lhs - rhs)[centre, centre] / rhs[centre, centre]

    assert np.all(centre_gap() <= 1e-12)
    exact = bernstein.multivariate_grid
    monkeypatch.setattr(bernstein, "multivariate_grid", lambda *a: 1.02 * exact(*a))
    assert np.all(centre_gap() > 1e-3)


@pytest.mark.parametrize("m", [1, 3, 16])
def test_grid_paths_call_the_evaluator_once(m):
    base = build_family("affine_noise", m, 2)
    calls = []

    def counted(pts, atoms):
        calls.append(np.shape(atoms))
        return base.evaluator(pts, atoms)

    f = RandomFunction(m, 2, counted)
    grid = Grid(2, 9)
    f.grid_tensor(grid)
    assert calls == [(m,)]
    multivariate_grid(f, (4, 3), grid)
    assert calls == [(m,), (m,)]


def test_multivariate_grid_peak_holds_the_node_tensor_once():
    # capconv_wide's largest entry: the (257, 257, 16) node tensor is 8.1 MiB.
    # Evaluated in one call, its broadcast temporaries doubled it (19.0 MiB);
    # in slabs the peak is the tensor, the mesh and cache-sized temporaries
    f = build_family("affine_noise", 16, 2)
    grid = Grid(2, 65)
    multivariate_grid(f, (256, 256), grid)  # the memoized grid tensor is not counted
    tracemalloc.start()
    try:
        multivariate_grid(f, (256, 256), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2 ** 20


def test_multivariate_refusals():
    f = build_family("affine_noise", 3, 2)
    grid = Grid(2, 9)
    # the grid_tensor refusal: a 1-D grid does not silently give a 2-D tensor
    for call in (lambda: f.grid_tensor(Grid(1, 9)),
                 lambda: multivariate_grid(f, (4, 4), Grid(1, 9))):
        with pytest.raises(InputError, match="grid dimension mismatch"):
            call()
    # a non-sequence is a bare degree, so None is refused as one (was a TypeError)
    for bad in ((4.7, 4), (4, 2.5), (4, "4"), None, np.array(4.5), np.array(None)):
        with pytest.raises(InputError, match="degree must be an integer"):
            multivariate_grid(f, bad, grid)
        with pytest.raises(InputError, match="degree must be an integer"):
            bernstein_multivariate(f, bad, (0.5, 0.5), 0)
    with pytest.raises(InputError, match="degree must be an integer"):
        basis_matrix(4.5, grid.coords)
    # an integral float is an integer degree
    assert np.array_equal(multivariate_grid(f, (4.0, np.int64(3)), grid),
                          multivariate_grid(f, (4, 3), grid))
    assert np.array_equal(basis_matrix(4.0, grid.coords), basis_matrix(4, grid.coords))
    # a bare degree is the degree of every axis; a sequence needs one per axis
    assert np.array_equal(multivariate_grid(f, 4, grid), multivariate_grid(f, (4, 4), grid))
    # so is a 0-d array (iterating one was a TypeError)
    assert degree_vector(np.array(4), 2) == degree_vector(np.array([4, 4]), 2) == (4, 4)
    assert np.array_equal(multivariate_grid(f, np.array(4), grid),
                          multivariate_grid(f, (4, 4), grid))
    assert bernstein_multivariate(f, np.array(4), (0.3, 0.6), 1) == \
        bernstein_multivariate(f, (4, 4), (0.3, 0.6), 1)
    assert bernstein_multivariate(f, 4, (0.3, 0.6), 1) == \
        bernstein_multivariate(f, (4, 4), (0.3, 0.6), 1)
    for bad in ((4,), (4, 4, 4)):
        with pytest.raises(InputError, match="expected 2 degrees"):
            multivariate_grid(f, bad, grid)
    for atom in (3, 5, -1, 1.5):
        with pytest.raises(InputError,
                           match=rf"atom index must be an integer in \[0, 3\), got {atom}"):
            bernstein_multivariate(f, (4, 4), (0.5, 0.5), atom)


def test_moment_sum_values():
    assert moment_sum(17, 0.42, 0) == pytest.approx(1.0, abs=1e-12)
    assert moment_sum(4, 0.5, 2) == pytest.approx(0.25, abs=1e-12)
    for order in (17, -1, 2.5, True):
        with pytest.raises(InputError, match="moment order"):
            moment_sum(4, 0.3, order)


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


def test_tail_sum_refuses_a_nan_delta():
    # the check reads "delta > 0", which NaN is not; it returned 0.0
    with pytest.raises(InputError, match="positive"):
        tail_sum(10, 0.3, math.nan)


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
