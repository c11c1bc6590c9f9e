import math
import random
import warnings

import numpy as np
import pytest

from choqbern import (InputError, check_properties, choquet_modulus,
                      integral_batch, make_distorted, make_distortion,
                      make_possibility, make_table, randomfn, semi_metric,
                      stochastic_modulus, subset_table)
from choqbern.capacity import TOL
from choqbern.choquet import powered_integrals, sorted_levels, telescoped_sum
from choqbern.randomfn import (ChoquetModulusTable, FAMILIES, Grid, RandomFunction,
                               _box_windows, _lower_bounds, _offsets,
                               _translate_pair, _window, build_family, list_families,
                               sample_modulus_profile)
from conftest import (brute_gamma, brute_sample_modulus, random_capacity,
                      random_monotone_table)


def identity_fn(dim=1):
    return RandomFunction(1, dim, lambda pts, w: np.mean(pts, axis=-1),
                          name="identity")


def constant_fn(c, m=1, dim=1):
    return RandomFunction(m, dim,
                          lambda pts, w, c=c: np.full(np.shape(pts)[:-1], c),
                          name="const")


@pytest.fixture(scope="module")
def cap1():
    return make_distorted(make_distortion("power", alpha=0.5), [1.0])


def test_eval_random_function():
    f = RandomFunction(3, 1, lambda pts, w: pts[..., 0], name="coord")
    assert f.eval(0.25, 2) == 0.25
    g = constant_fn(7.0, 2)
    assert g.eval(0.9, 1) == 7.0
    with pytest.raises(InputError):
        f.eval(1.5, 0)
    with pytest.raises(InputError):
        f.eval(0.5, 3)
    with pytest.raises(InputError):
        f.eval((0.5, 0.5), 0)


def test_eval_refuses_a_nan_coordinate():
    # the unit-cube check reads "inside", which NaN is not
    for dim, x in ((1, [math.nan]), (2, (0.5, math.nan))):
        f = RandomFunction(3, dim, lambda pts, w: pts[..., 0])
        with pytest.raises(InputError, match="unit cube"):
            f.eval(x, 0)


def test_affine_noise_matches_hand_formula():
    f = build_family("affine_noise", 3, 1,
                     {"z": [-1.0, 0.0, 1.0], "scale": 2.0, "amp": 0.5})
    x = 0.4
    for w, z in enumerate([-1.0, 0.0, 1.0]):
        expected = 2.0 * x ** 2 + 0.5 * 0.5 * (1.0 + x ** 2) * z
        assert f.eval(x, w) == pytest.approx(expected, abs=1e-15)
    assert f.m_sup == pytest.approx(2.5)


def test_step_noise_family():
    f = build_family("step_noise", 2, 1,
                     {"z": [1.0, -2.0], "thresholds": [0.5, 0.25]})
    assert f.eval(0.4, 0) == 0.0
    assert f.eval(0.6, 0) == 1.0
    assert f.eval(0.3, 1) == -2.0
    assert not f.continuous
    assert f.m_sup == 2.0


def test_absdev_family():
    f = build_family("deterministic:absdev", 2, 2)
    assert f.eval((0.25, 0.25), 0) == 0.25
    assert f.eval((1.0, 0.0), 1) == 0.0


def test_families_in_1d_equal_the_mean_form(rng):
    # in 1-D the families take the one coordinate, not a mean over a length-1
    # axis, and affine_noise squares once; the bits are those of the mean form
    m = 4
    z = rng.uniform(-1, 1, m)
    thresholds = (np.arange(m) + 1.0) / (m + 1.0)
    scale, amp = 1.3, 0.4
    mean_form = {
        "deterministic:absdev": lambda x, w: np.abs(x - 0.5),
        "affine_noise": lambda x, w: scale * x ** 2 + amp * 0.5 * (1.0 + x ** 2) * z[w],
        "step_noise": lambda x, w: np.where(x >= thresholds[w], z[w], 0.0),
    }
    params = {"deterministic:absdev": {}, "affine_noise": {"z": list(z), "scale": scale,
                                                           "amp": amp},
              "step_noise": {"z": list(z), "thresholds": list(thresholds)}}
    for name, want in mean_form.items():
        for dim in (1, 2):
            f = build_family(name, m, dim, params[name])
            for shape in ((dim,), (37, dim), (9, 9, dim)):
                pts = rng.random(shape)
                pts[..., 0].flat[0] = thresholds[1]  # a step_noise tie in 1-D
                for w in range(m):
                    got = f.evaluator(pts, w)
                    assert got.shape == shape[:-1]
                    assert np.array_equal(got, want(np.mean(pts, axis=-1), w))


def test_coord_mean_has_the_bits_of_np_mean(rng):
    # in 2-D the two coordinates are added and halved, numpy's mean of two
    for dim in (1, 2, 3):
        for shape in ((dim,), (37, dim), (9, 5, 1, dim)):
            pts = rng.random(shape)
            pts.flat[0] = 0.0
            for view in (pts, pts[..., ::-1], np.asfortranarray(pts)):
                got = np.asarray(randomfn._coord_mean(view))
                assert got.tobytes() == np.asarray(np.mean(view, axis=-1)).tobytes()


def test_affine_noise_in_place_has_the_bits_of_the_two_temporary_form(rng):
    m = 5
    z = rng.uniform(-1, 1, m)
    scale, amp = 1.3, 0.4

    def two_temporaries(pts, atom):  # the form before the noise term took the sum
        sq = np.mean(pts, axis=-1) ** 2
        return scale * sq + amp * 0.5 * (1.0 + sq) * z[atom]

    for dim in (1, 2):
        f = build_family("affine_noise", m, dim, {"z": list(z), "scale": scale, "amp": amp})
        nodes = rng.random((12, 7, dim))
        calls = [(nodes[3, 2], 4),  # one point: a 0-d result
                 (nodes[:, 0], 2),  # a scalar atom
                 (nodes[:, :, None, :], np.arange(m)),  # the atom vector of on_axes
                 (nodes[1::m, :, :], 1)]  # strided node rows, as the stochastic pass
        for pts, atom in calls:
            got = f.evaluator(pts, atom)
            assert np.shape(got) == np.broadcast_shapes(pts.shape[:-1], np.shape(atom))
            assert np.asarray(got).tobytes() == np.asarray(two_temporaries(pts, atom)).tobytes()
        assert f.eval(nodes[3, 2], 4) == float(two_temporaries(nodes[3, 2], 4))


def test_family_registry():
    assert list_families() == sorted(FAMILIES)
    with pytest.raises(InputError):
        build_family("nope", 1, 1)


def test_grid_tensor_matches_evaluator_bit_exact():
    f = build_family("affine_noise", 3, 2, {"scale": 1.3})
    grid = Grid(2, 9)
    tensor = f.grid_tensor(grid)
    c = grid.coords
    for i in (0, 4, 8):
        for j in (1, 5):
            for w in range(3):
                assert tensor[i, j, w] == f.evaluator(np.array([c[i], c[j]]), w)
    assert f.grid_tensor(grid) is tensor  # memoized


@pytest.mark.parametrize("dim", [1, 2])
def test_on_axes_matches_per_atom_per_point_calls(dim):
    # one call against the atom vector gives every entry the bits of its
    # own one-point, one-atom call; a result that ignores the atom is broadcast
    m = 4
    fns = [build_family(name, m, dim)
           for name in ("affine_noise", "step_noise", "deterministic:absdev")]
    fns.append(RandomFunction(m, dim, lambda pts, w: np.mean(pts, axis=-1) ** 2,
                              name="atom-free"))
    # 0.2 ... 0.8 are step_noise's default thresholds: ties in every dim
    axes = [np.arange(6) / 5, np.array([0.0, 0.3, 0.4, 1.0])][:dim]
    for f in fns:
        got = f.on_axes(axes)
        assert got.shape == tuple(len(a) for a in axes) + (m,)
        assert got.flags.c_contiguous and got.flags.writeable
        for idx in np.ndindex(*got.shape[:-1]):
            pt = np.array([a[i] for a, i in zip(axes, idx)])
            for w in range(m):
                assert got[idx + (w,)] == f.evaluator(pt, w), (f.name, idx, w)
    with pytest.raises(InputError, match=f"expected {dim} coordinate axes"):
        fns[0].on_axes(axes * 2)


def _on_axes_one_call(f, axes):
    """The values of ``on_axes`` in one evaluator call on the whole point
    tensor, as it was computed before the slabs: the test reference."""
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    out = np.asarray(f.evaluator(pts[..., None, :], np.arange(f.atom_count)), dtype=float)
    return np.broadcast_to(out, pts.shape[:-1] + (f.atom_count,))


def _counting(f):
    """``f`` with an evaluator that appends the first-axis length of each call."""
    calls = []

    def ev(pts, w):
        calls.append(len(pts))
        return f.evaluator(pts, w)
    return RandomFunction(f.atom_count, f.dim, ev, name=f.name), calls


def _slab_functions(m, dim):
    yield from (build_family(name, m, dim)
                for name in ("affine_noise", "step_noise", "deterministic:absdev"))
    yield RandomFunction(m, dim, lambda pts, w: np.mean(pts, axis=-1) ** 2,
                         name="atom-free")
    yield RandomFunction(m, dim, lambda pts, w: np.floor(7 * pts[..., 0]).astype(int) + w,
                         name="integer-valued")


@pytest.mark.parametrize("m, lengths, chunk, slabs", [
    (16, (257, 257), None, 18),  # 15 rows of 257 * 16 cells per slab, the last 2 rows
    (1, (257, 257), None, 2),  # 255 rows, then 2
    (5, (50, 51), 7 * 51 * 5 + 3, 8),  # 7 rows per slab, which do not divide 50
    (3, (21, 21), 10, 21),  # a slab narrower than one row still takes one row
    (16, (257,), None, 1),
    (16, (257,), 16 * 40, 7),  # 40 points per slab, the last 17
    (300, (257,), None, 2),  # 218 points, then 39
])
def test_on_axes_slabs_keep_the_bits_of_one_call(monkeypatch, m, lengths, chunk, slabs):
    if chunk is not None:
        monkeypatch.setattr(randomfn, "_CHUNK_CELLS", chunk)
    axes = [np.arange(k) / (k - 1) for k in lengths]
    for f in _slab_functions(m, len(lengths)):
        counted, calls = _counting(f)
        got = counted.on_axes(axes)
        assert len(calls) == slabs and sum(calls) == lengths[0], f.name
        assert got.dtype == float and got.flags.c_contiguous and got.flags.writeable
        assert got.tobytes() == np.ascontiguousarray(_on_axes_one_call(f, axes)).tobytes()


def test_grid_tensor_refuses_a_value_in_a_late_slab():
    # only x1 = 1, the last of 18 slabs on (257, 257) at M = 16, is infinite
    f = RandomFunction(16, 2, lambda pts, w: np.where(pts[..., 0] == 1.0, np.inf, w),
                       name="inf-at-edge")
    with pytest.raises(InputError, match="'inf-at-edge' is not finite on the 257-point"):
        f.grid_tensor(Grid(2, 257))
    overflow = build_family("affine_noise", 16, 2, {"scale": 1e308, "amp": 1e308})
    with pytest.raises(InputError, match="not finite"):
        overflow.grid_tensor(Grid(2, 257))


def test_grid_validation():
    with pytest.raises(InputError):
        Grid(0, 5)
    with pytest.raises(InputError):
        Grid(1, 1)
    g = Grid(1, 5)
    assert g.coords.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_choquet_modulus_constant(cap1):
    f = constant_fn(3.0)
    for d in (0.0, 0.3, 1.0):
        assert choquet_modulus(f, cap1, d, 2.0, Grid(1, 33)) == 0.0


def test_choquet_modulus_identity(cap1):
    got = choquet_modulus(identity_fn(), cap1, 0.25, 1.0, Grid(1, 101))
    assert got == pytest.approx(0.25, abs=1e-12)
    assert choquet_modulus(identity_fn(), cap1, 0.0, 1.0, Grid(1, 101)) == 0.0


def test_choquet_modulus_agrees_with_brute_force(rng):
    cap = random_capacity(rng, 3, kind="distorted")
    for dim, g in ((1, 17), (2, 7)):
        f = build_family("affine_noise", 3, dim,
                         {"z": list(rng.uniform(-1, 1, 3))})
        grid = Grid(dim, g)
        for p in (1.0, 2.0):
            deltas = (0.3,) * dim
            got = choquet_modulus(f, cap, deltas, p, grid)
            want = brute_gamma(f, cap, deltas, p, grid)
            assert got == pytest.approx(want, abs=1e-13)


POWERS = (1.0, 1.5, 2.0, 3.0)


def _modulus_instances(rng, m):
    """A function and capacity on m atoms for every family, capacity kind and
    dimension; step_noise gives ties and exact zeros in the differences."""
    for name in ("affine_noise", "step_noise"):
        for kind in ("distorted", "possibility"):
            for dim in (1, 2):
                f = build_family(name, m, dim, {"z": list(rng.uniform(-1, 1, m))})
                yield f, random_capacity(rng, m, kind=kind)


@pytest.mark.parametrize("m", [1, 2, 5, 9])
def test_modulus_table_agrees_with_brute_force_over_powers(rng, m):
    for f, cap in _modulus_instances(rng, m):
        grid = Grid(f.dim, 17 if f.dim == 1 else 6)
        deltas = (0.3,) if f.dim == 1 else (0.2, 0.4)
        table = ChoquetModulusTable(f, cap, grid, deltas, powers=POWERS)
        for p in POWERS:
            want = brute_gamma(f, cap, deltas, p, grid)
            assert table.gamma(*deltas, p=p) == pytest.approx(want, abs=1e-13)


def _powers_of_sorted(v_sorted, mu, p):
    """Telescoped integrals from presorted nonnegative rows; mu holds the
    upper-set capacities aligned with the sort order."""
    if p == 1.0:
        vp = v_sorted
    elif p == 2.0:
        vp = np.square(v_sorted)
    else:
        vp = np.power(v_sorted, p)
    out = vp[:, 0] * mu[:, 0]
    if vp.shape[1] > 1:
        out = out + ((vp[:, 1:] - vp[:, :-1]) * mu[:, 1:]).sum(axis=1)
    return out


def _off_shape(windows):
    """The layout of a per-offset table of per-axis ``windows``: the first
    step in [0, w_1], each later step o_a in [-w_a, w_a] at o_a + w_a."""
    return (windows[0] + 1, *[2 * w + 1 for w in windows[1:]])


def _off_index(offset, windows):
    """The entry of ``offset`` in an ``_off_shape(windows)`` table."""
    return (offset[0], *[o + w for o, w in zip(offset[1:], windows[1:])])


def _row_wise_off(f, cap, grid, max_deltas, powers):
    """The per-offset table of the row-wise (K, M) kernel, as a reference."""
    g = grid.points_per_axis
    tensor = f.grid_tensor(grid)
    mu_table = subset_table(cap)
    m = f.atom_count
    windows = tuple(_window(d, grid) for d in max_deltas)
    off = {p: np.zeros(_off_shape(windows)) for p in powers}
    if f.dim == 1:
        keys = [(d,) for d in range(1, windows[0] + 1)]
    else:
        w1, w2 = windows
        keys = [(dx, dy) for dx in range(w1 + 1)
                for dy in range((0 if dx == 0 else -w2), w2 + 1)
                if (dx, dy) != (0, 0)]

    atom_bits = np.int64(1) << np.arange(m, dtype=np.int64)
    for key in keys:
        if f.dim == 1:
            d = key[0]
            diff = np.abs(tensor[d:] - tensor[:g - d])
        else:
            dx, dy = key
            if dy >= 0:
                a = tensor[dx:, dy:]
                b = tensor[:g - dx, :g - dy]
            else:
                a = tensor[dx:, :g + dy]
                b = tensor[:g - dx, -dy:]
            diff = np.abs(a - b).reshape(-1, m)
        order = np.argsort(diff, axis=1, kind="stable")
        v_sorted = np.take_along_axis(diff, order, axis=1)
        upper = np.cumsum(atom_bits[order][:, ::-1], axis=1)[:, ::-1]
        mu = mu_table[upper]
        for p in powers:
            off[p][_off_index(key, windows)] = float(_powers_of_sorted(v_sorted, mu, p).max())
    return off


def _offset_values(table, offset):
    """One offset's exact value per p, from the table's |D| pass and kernel."""
    d = randomfn._offset_diffs(table._atoms, offset)
    return randomfn._offset_maxima(d, d.max(axis=0), table._mu_table, table.powers,
                                   table._factor, table._forms)


def _table_off(table):
    """Every offset's value from the table's per-offset pass, laid out as
    the references lay out theirs (``_off_shape``)."""
    windows = table._windows
    off = {p: np.zeros(_off_shape(windows)) for p in table.powers}
    for offset in table._offsets:
        values = _offset_values(table, tuple(offset))
        for p, value in zip(table.powers, values):
            off[p][_off_index(offset, windows)] = value
    return off


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 9, 12])
def test_modulus_table_matches_row_wise_kernel(rng, m):
    # up to 8 atoms the rank-by-rank sum adds in numpy's row-sum order, so
    # the tables agree bit for bit; beyond that numpy's row sum is pairwise
    for f, cap in _modulus_instances(rng, m):
        grid = Grid(f.dim, 33 if f.dim == 1 else 13)
        deltas = (0.5,) * f.dim
        got = _table_off(ChoquetModulusTable(f, cap, grid, deltas, powers=POWERS))
        want = _row_wise_off(f, cap, grid, deltas, POWERS)
        for p in POWERS:
            if m <= 8:
                assert np.array_equal(got[p], want[p])
            else:
                np.testing.assert_allclose(got[p], want[p], rtol=1e-12, atol=0)


def _unpruned_off(f, cap, grid, max_deltas, powers):
    """The per-offset table with every cell of every offset through
    ``sorted_levels``/``telescoped_sum``, as a reference for the pruning."""
    tensor = f.grid_tensor(grid)
    mu_table = subset_table(cap)
    windows = _box_windows(max_deltas, grid)
    off = {p: np.zeros(_off_shape(windows)) for p in powers}
    for offset in _offsets(windows):
        a, b = _translate_pair(tensor, offset)
        v, mu = sorted_levels(np.abs(a - b).reshape(-1, f.atom_count), mu_table)
        for p in powers:
            vals = telescoped_sum(v if p == 1.0 else v ** p, mu)
            off[p][_off_index(offset, windows)] = vals.max()
    return off


def _eager_gamma(off, grid, deltas, p):
    """A box's modulus from an ``_unpruned_off`` table: the largest entry in
    the box, the zero offset included, to the power 1 / p."""
    first, *rest = _box_windows(deltas, grid)
    box = (slice(first + 1), *[slice(n // 2 - w, n // 2 + w + 1)
                               for n, w in zip(off.shape[1:], rest)])
    return float(off[box].max()) ** (1.0 / p)


def _random_deltas(rng, grid):
    """Random per-axis deltas whose windows differ from axis to axis."""
    while True:
        deltas = tuple(rng.uniform(0.05, 1.0, grid.dim))
        if len(set(_box_windows(deltas, grid))) == grid.dim:
            return deltas


@pytest.mark.filterwarnings("ignore:capacity is not certified submodular")
@pytest.mark.parametrize("kind", ["possibility", "distorted", "table", "table above 1"])
def test_pruned_modulus_table_equals_unpruned_kernel(rng, kind):
    for m in (4, 1, 9):
        if kind == "table above 1":
            # the bound uses max(mu_table), here the full-set value 1 + TOL/2
            cap = make_table(m, random_monotone_table(rng, m) * (1.0 + TOL / 2))
        else:
            cap = random_capacity(rng, m, kind=kind)
        if kind.startswith("table") and m > 1:
            assert not check_properties(cap, mode="exhaustive").submodular
        powers = (1.0, 1.5, 3.0)
        for name in ("affine_noise", "step_noise"):
            for dim in (1, 2):
                f = build_family(name, m, dim, {"z": list(rng.uniform(-1, 1, m))})
                grid = Grid(dim, 33 if dim == 1 else 13)
                for deltas in ((0.5,) * dim, _random_deltas(rng, grid)):
                    table = ChoquetModulusTable(f, cap, grid, deltas, powers=powers)
                    got = _table_off(table)
                    want = _unpruned_off(f, cap, grid, deltas, powers)
                    for p in powers:
                        assert np.array_equal(got[p], want[p])
                        want_gamma = float(want[p].max()) ** (1.0 / p)
                        assert table.gamma(*deltas, p=p) == want_gamma


@pytest.mark.parametrize("dim", [1, 2])
def test_pruned_modulus_table_keeps_every_cell_of_a_constant(monkeypatch, dim):
    # every |D| is 0, so UB^p * factor equals every LB: the keep test must pass
    # every cell, or an offset with no kept cell would have no maximum; every
    # bound is 0 and below the skip floor, so the query reaches every offset,
    # and each one's largest |D|, 0, gives its exact values with no kernel call
    calls = []
    monkeypatch.setattr(randomfn, "sorted_levels",
                        lambda v, mu: calls.append(len(v)) or sorted_levels(v, mu))
    cap = make_possibility((0.4, 1.0, 0.7))
    grid = Grid(dim, 33 if dim == 1 else 13)
    table = ChoquetModulusTable(constant_fn(2.0, 3, dim), cap, grid, 0.5,
                                powers=(1.0, 2.0))
    g = grid.points_per_axis
    cells = sum(math.prod(g - abs(d) for d in o)
                for o in _offsets(_box_windows((0.5,) * dim, grid)))
    assert calls == [len(table._offsets)]  # construction's bound call
    calls.clear()
    for p in (1.0, 2.0):
        assert table.gamma(0.5, p=p) == 0.0
    assert calls == [] and len(table._maxima) == len(table._offsets)
    for offset in table._offsets:
        assert _offset_values(table, tuple(offset)) == (0.0, 0.0)
    assert sum(calls) == cells


def _c08_table(z):
    """The C08 table: M = 5, g = 65, window 0.5, p in {1, 2}."""
    cap = make_distorted(make_distortion("power", alpha=0.5), [1.0 / 5] * 5)
    f = build_family("affine_noise", 5, 2, {"z": list(z)})
    return f, cap, ChoquetModulusTable(f, cap, Grid(2, 65), (0.5, 0.5), (1.0, 2.0))


# the boxes the C08 mean run asks for: 1/sqrt(n) per axis of its schedule
_C08_BOXES = [(1 / math.sqrt(n1), 1 / math.sqrt(n2))
              for n1, n2 in ((4, 4), (16, 16), (64, 64), (16, 4), (64, 16))]


def test_pruned_modulus_table_c08_shape(monkeypatch):
    calls, passes, kernel = [], [], []
    monkeypatch.setattr(randomfn, "sorted_levels",
                        lambda v, mu: calls.append(len(v)) or sorted_levels(v, mu))
    real_diffs, real_maxima = randomfn._offset_diffs, randomfn._offset_maxima
    monkeypatch.setattr(randomfn, "_offset_diffs", lambda atoms, offset: (
        passes.append(offset) or real_diffs(atoms, offset)))
    monkeypatch.setattr(randomfn, "_offset_maxima", lambda d, ub, *rest: (
        kernel.append((d, ub)) or real_maxima(d, ub, *rest)))
    # z as numpy draws it at seed 3, and as the ``mean2d`` benchmark workload
    # draws it at seeds 3 and 0, with the offsets each one sends to the kernel
    zs = [np.random.default_rng(3).uniform(-1, 1, 5)]
    for seed in (3, 0):
        bench = random.Random(seed)
        zs.append([bench.uniform(-1.0, 1.0) for _ in range(5)])
    for z, through_kernel in zip(zs, (43, 11, 25)):
        calls.clear()
        passes.clear()
        kernel.clear()
        f, cap, table = _c08_table(z)
        # construction sorts the per-atom triangle bounds of every offset once,
        # from one |D| pass per axis offset
        assert calls == [len(table._offsets)]
        assert len(passes) == sum(table._windows)
        calls.clear()
        passes.clear()
        want = _unpruned_off(f, cap, table.grid, (0.5, 0.5), table.powers)
        for deltas in _C08_BOXES:
            for p in table.powers:
                assert table.gamma(*deltas, p=p) == _eager_gamma(want[p], table.grid,
                                                                 deltas, p)
        # an eager table makes a |D| pass over all 2112 offsets; these queries
        # make 186, one per offset, so a looser triangle bound fails here; and
        # the top-cell test, with the exact 0 of an offset whose |D| is 0,
        # keeps all but a few of them from the kernel, so a looser top bound
        # fails too
        assert len(set(passes)) == len(passes) == 186
        assert len(kernel) == through_kernel
        # per offset through the kernel, one call on exactly the cells that
        # the bound test against the offset's closed-form LBs keeps
        assert len(calls) == len(kernel)
        exact = 0
        for d, ub in kernel:
            lbs = randomfn._lower_bounds(d, ub, table._forms, table.powers)
            exact += int(_bound_test(ub, lbs, table.powers, table._factor).sum())
        assert sum(calls) == exact


def test_an_offset_skipped_by_one_box_is_exact_in_a_later_box():
    # the first box rules out offsets by their top cells against its own
    # maximum; a later box that holds one of them as its maximum needs the
    # offset's exact value, which the table still finds because it cached
    # the offset's bound, not a value
    f, cap, table = _c08_table(np.random.default_rng(3).uniform(-1, 1, 5))
    want = _unpruned_off(f, cap, table.grid, (0.5, 0.5), table.powers)
    table.gamma(0.5, 0.5, p=1.0)
    steps = table.grid.points_per_axis - 1
    later = []
    for i in list(table._tops):
        offset = table._offsets[i]
        deltas = tuple(np.abs(offset) / steps)
        if (want[1.0][_off_index(offset, table._windows)]
                == _eager_gamma(want[1.0], table.grid, deltas, 1.0)):
            later.append((i, deltas))
    assert later and not any(i in table._maxima for i, _ in later)
    for i, deltas in later:
        for p in table.powers:
            assert table.gamma(*deltas, p=p) == _eager_gamma(want[p], table.grid, deltas, p)
        assert i in table._maxima


def test_top_cell_test_keeps_an_offset_that_rounds_above_its_top():
    # every nonempty set has mu = 1 + 2^-40, so max(mu_table) is that value;
    # offset 1 is walked first (its per-atom bounds are the larger) and its
    # cell (a, 0) has the computed integral fl(T mu) + 1 ulp, and offset 2's
    # one cell (T, x) has top T and the computed integral fl(T mu) + 2 ulps:
    # only the slack of F keeps fl(T^p F) above offset 1's value, so that
    # offset 2 reaches the kernel
    mu_all = 1.0 + 2.0 ** -40
    cap = make_table(2, [0.0, mu_all, mu_all, mu_all])
    top, x = 0.4322181208697466, 0.06426379320306327
    a = np.nextafter(top, 1.0)
    values = np.array([[0.0, a, top], [0.0, 0.0, x]])
    f = RandomFunction(2, 1, lambda pts, w: values[w, np.rint(pts[..., 0] * 2).astype(int)],
                       name="lookup")
    grid = Grid(1, 3)
    want = _unpruned_off(f, cap, grid, (1.0,), (1.0,))[1.0]
    ulp = np.spacing(top * mu_all)
    assert want.tolist() == [0.0, top * mu_all + ulp, top * mu_all + 2 * ulp]
    table = ChoquetModulusTable(f, cap, grid, 1.0, (1.0,))
    assert table._walks[1.0][0].tolist() == [0, 1]
    assert table.gamma(1.0, p=1.0) == want[2]


def _linear_fn(m, dim, rng):
    """F(x, atom) = c_atom (x1 + x2), or c_atom x in 1-D: for an offset with
    no negative step the triangle bound, its axis moduli summed, is its
    largest UB."""
    c = rng.uniform(0.5, 2.0, m)
    return RandomFunction(m, dim, lambda pts, w, c=c: c[w] * pts.sum(axis=-1),
                          name="linear")


def _sub_box_instances(rng):
    """A function and capacity per family and per linear function, capacity
    kind and dimension."""
    for name in (*FAMILIES, "linear"):
        for kind in ("distorted", "possibility", "table"):
            for dim in (1, 2):
                m = int(rng.integers(1, 6))
                if name == "linear":
                    f = _linear_fn(m, dim, rng)
                elif name.startswith("deterministic"):
                    f = build_family(name, m, dim)
                else:
                    f = build_family(name, m, dim, {"z": list(rng.uniform(-1, 1, m))})
                yield f, random_capacity(rng, m, kind=kind)


def _tolerance_instances():
    """Tables that ``make_table`` accepts within ``capacity.TOL`` of monotone
    and nonnegative, on which the Choquet integral is not monotone, each with
    a function that a per-atom bound or a closed-form LB would misjudge.

    - mu({0}) = 1 + TOL, above mu(X) = 1, and mu({1}) = 0: atom 0 is linear
      and atom 1 jumps by 2, so a cell d = (D, 0) off the jump has the
      integral D (1 + TOL), above the integral D of the per-atom bound.
    - mu({0}) = -TOL / 2: the one-step offset's cell (1, 1) has the offset's
      maximum 1, and its cell (101 + 2^-40, 1 + 2^-40) the integral
      1 + 2^-40 - 50 TOL, below its min(h) mu(X), an LB that would drop
      the cell (1, 1).
    - the same table with ``affine_noise`` in 2-D, where the test of an
      offset's top cell rules out offsets.
    """
    for dim in (1, 2):
        jump = RandomFunction(2, dim, lambda pts, w: np.where(
            w == 0, pts.sum(axis=-1), 2.0 * (pts[..., 0] >= 0.9)), name="jump")
        yield jump, make_table(2, [0.0, 1.0 + TOL, 0.0, 1.0])
    top = [102.0 + 2.0 ** -40, 2.0 + 2.0 ** -40]
    steps = np.array([[0.0, 1.0] + [v] * 31 for v in top])  # on the 33-point grid
    lookup = RandomFunction(
        2, 1, lambda pts, w: steps[w, np.rint(pts[..., 0] * 32).astype(int)], name="lookup")
    yield lookup, make_table(2, [0.0, -TOL / 2, 0.5, 1.0])
    yield (build_family("affine_noise", 2, 2, {"z": [0.7, -0.4]}),
           make_table(2, [0.0, -TOL / 2, 0.5, 1.0]))


def _abel_bounds(table, powers):
    """Per p, each offset's fl(fl(max_w b_w^p) * max(mu_table) (1 + (M + 4)
    eps)), b the per-atom triangle bounds: the skip bound of a table that is
    not monotone, before the envelope."""
    m = len(table._atoms)

    def axis_moduli(unit, w):
        return np.array([np.zeros(m)] + [
            randomfn._offset_diffs(table._atoms, tuple(s * unit)).max(axis=1)
            for s in range(1, w + 1)])
    units = np.eye(table.grid.dim, dtype=np.int64)
    b = sum(axis_moduli(unit, w)[np.abs(o)]
            for unit, w, o in zip(units, table._windows, table._offsets.T))
    top = (b * randomfn._TRIANGLE_SLACK).max(axis=1)
    factor = table._mu_table.max() * (1.0 + (m + 4) * np.finfo(float).eps)
    return {p: top ** p * factor for p in powers}


@pytest.mark.filterwarnings("ignore:capacity is not certified submodular")
def test_every_offset_value_is_within_its_skip_bound(rng):
    # the skip rests on value <= bound for every offset, and so does the
    # top-cell test on value <= its bound; on one atom the linear function
    # meets its bound to rounding at dy >= 0
    powers = (1.0, 2.0, 2.5)
    one_atom = [(_linear_fn(1, dim, rng), make_table(1, [0, 1])) for dim in (1, 2)]
    for f, cap in [*_sub_box_instances(rng), *one_atom, *_tolerance_instances()]:
        grid = Grid(f.dim, 33 if f.dim == 1 else 17)
        table = ChoquetModulusTable(f, cap, grid, (0.5,) * f.dim, powers)
        if f.name == "jump":
            # the envelope's kernel is below the largest per-atom bound's
            # Abel bound somewhere, and the minorant gives nonzero LB weights
            abel = _abel_bounds(table, powers)
            assert any(np.any(table._bounds[p] < abel[p]) for p in powers)
            assert np.any(table._forms[1]) and np.any(table._forms[2])
        for i, offset in enumerate(table._offsets):
            offset = tuple(offset)
            values = _offset_values(table, offset)
            top = float(randomfn._offset_diffs(table._atoms, offset).max())
            for p, value in zip(powers, values):
                bound = table._bounds[p][i]
                assert value <= bound, (f.name, offset, p)
                assert value <= randomfn._top_bound(top, p, table._factor), (f.name, offset, p)
                if f.name == "linear" and f.atom_count == 1 and min(offset) >= 0 and value:
                    assert bound <= value * (1 + 1e-14)


@pytest.mark.filterwarnings("ignore:capacity is not certified submodular")
def test_lazy_box_queries_equal_the_eager_table(rng):
    # random sub-boxes in random order on one table, so each query finds the
    # per-offset cache that the ones before it left, then the one-step box;
    # the top-cell test must rule out some offsets, or the equality says
    # nothing about it
    powers = (1.0, 2.0, 2.5)
    skipped = {"sub-box": 0, "tolerance": 0}
    instances = [*[("sub-box", i) for i in _sub_box_instances(rng)],
                 *[("tolerance", i) for i in _tolerance_instances()]]
    for kind, (f, cap) in instances:
        grid = Grid(f.dim, 33 if f.dim == 1 else 17)
        max_deltas = tuple(rng.uniform(0.3, 0.6, f.dim))
        table = ChoquetModulusTable(f, cap, grid, max_deltas, powers)
        want = _unpruned_off(f, cap, grid, max_deltas, powers)
        boxes = [tuple(rng.uniform(0.0, 1.0) * d for d in max_deltas) for _ in range(12)]
        for deltas in [*boxes, (grid.spacing,) * f.dim]:
            for p in powers:
                got = table.gamma(*deltas, p=p)
                assert got == _eager_gamma(want[p], grid, deltas, p), (f.name, deltas, p)
        skipped[kind] += len(table._tops)
    assert skipped["sub-box"] and skipped["tolerance"], skipped


def _bound_test(ub, lbs, powers, factor):
    """The per-p bound test, fl(fl(UB^p) F) >= LB_p for some p, as a
    reference for the cells that reach the kernel."""
    return np.any([(ub if p == 1.0 else ub ** p) * factor >= lb
                   for p, lb in zip(powers, lbs)], axis=0)


_ALL_POWERS = (1.0, 1.5, 2.0, 3.0, 16.0)
# tiny, unit and large |D|; at 1e-194, |D|^1.5 is just above ``_BOUND_FLOOR``
# (2^-970, about 1e-292), and at 1e+19, UB^16 overflows near 2e19
_SCALES = (1e-200, 1e-194, 1e-100, 1.0, 1e+10, 1e+19)


@pytest.mark.filterwarnings("ignore:capacity is not certified submodular")
@pytest.mark.parametrize("m", [1, 4, 9])
def test_offset_maxima_keep_exactly_the_cells_the_bound_test_keeps(monkeypatch, rng, m):
    # the kernel sees the cells that pass the bound test against the offset's
    # closed-form LBs, or every cell where an LB is below the floor or not
    # finite; constant cells a few ulps either side of fl(UB^p) F = LB_p probe
    # the edge, and the maxima equal those over every cell bit for bit
    seen = []

    def counting(rows, mu_table):
        seen.append(len(rows))
        return sorted_levels(rows, mu_table)
    monkeypatch.setattr(randomfn, "sorted_levels", counting)
    straddled = kept_all = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            table = ChoquetModulusTable(constant_fn(0.0, m),
                                        make_table(m, random_monotone_table(rng, m)),
                                        Grid(1, 3), 0.5, (1.0,))
            mu_table, factor, forms = table._mu_table, table._factor, table._forms
            for scale in _SCALES:
                d = rng.random((m, 96)) * scale * 10.0 ** rng.uniform(-3.0, 0.0, 96)
                for powers in [(p,) for p in _ALL_POWERS] + [_ALL_POWERS]:
                    lb = _lower_bounds(d, d.max(axis=0), forms, powers)[0]
                    edge = (lb / factor) ** (1.0 / powers[0])
                    near = [edge]
                    for step in (0.0, math.inf):
                        x = edge
                        for _ in range(4):
                            x = np.nextafter(x, step)
                            near.append(x)
                    cells = np.hstack([d, np.broadcast_to(np.array(near), (m, len(near)))])
                    cells = cells[:, np.isfinite(cells).all(axis=0)]
                    ub = cells.max(axis=0)
                    lbs = _lower_bounds(cells, ub, forms, powers)
                    if all(randomfn._BOUND_FLOOR <= x < math.inf for x in lbs):
                        keep = _bound_test(ub, lbs, powers, factor)
                        straddled += keep[96:].any() and not keep[96:].all()
                    else:
                        keep = np.ones(len(ub), dtype=bool)
                    seen.clear()
                    got = randomfn._offset_maxima(cells, ub, mu_table, powers, factor, forms)
                    assert seen == [int(keep.sum())], (scale, powers)
                    kept_all += keep.all()
                    v, mu = sorted_levels(cells.T, mu_table)
                    full = [float(x.max()) for x in powered_integrals(v, mu, powers)]
                    assert list(got) == full, (scale, powers)
    assert straddled and kept_all, (straddled, kept_all)


@pytest.mark.filterwarnings("ignore:capacity is not certified submodular")
@pytest.mark.parametrize("m", [1, 4, 9])
def test_closed_form_lower_bounds_are_below_each_cells_integral(rng, m):
    # each LB that the threshold reads (at least the floor, finite) of a
    # one-cell offset is at most the cell's computed integral; a cell that is
    # constant over the atoms meets min(h) mu(X), one with a single nonzero
    # atom meets h_i mu({i}), and one that falls along the chain meets the
    # chain bound, to rounding, so only the slack of the weights keeps the
    # LBs below them
    grid = Grid(1, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(4):
            tbl = random_monotone_table(rng, m)
            if i == 3 and m > 1:
                # nonnegative, not monotone: X less one atom TOL / 2 above X
                tbl[-1 - (1 << int(rng.integers(m)))] = 1.0 + TOL / 2
            cap = make_table(m, tbl)
            forms = ChoquetModulusTable(constant_fn(0.0, m), cap, grid, 0.5, (1.0,))._forms
            for scale in _SCALES:
                rows = rng.random((64, m)) * scale
                rows[0] = rows[0, 0]
                rows[1] = 0.0
                rows[1, int(rng.integers(m))] = scale
                rows[2, forms[0]] = np.sort(rows[2])[::-1]
                v, mu = sorted_levels(rows, subset_table(cap))
                for powers in [(p,) for p in _ALL_POWERS] + [_ALL_POWERS]:
                    integrals = np.transpose(
                        [telescoped_sum(v if p == 1.0 else v ** p, mu) for p in powers])
                    for row, integral in zip(rows, integrals):
                        cell = row[:, None]
                        lbs = np.array(_lower_bounds(cell, cell.max(axis=0), forms, powers))
                        used = (lbs >= randomfn._BOUND_FLOOR) & (lbs < np.inf)
                        assert np.all(lbs[used] <= integral[used])


def test_modulus_table_multi_power_and_query_errors(cap1):
    f = identity_fn()
    grid = Grid(1, 65)
    table = ChoquetModulusTable(f, cap1, grid, 0.5, powers=(1.0, 2.0))
    assert table.gamma(0.25, p=1.0) == pytest.approx(0.25, abs=1e-12)
    assert table.gamma(0.25, p=2.0) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(InputError):
        table.gamma(0.9, p=1.0)  # beyond window
    with pytest.raises(InputError):
        ChoquetModulusTable(f, cap1, grid, 0.5, powers=(0.5,))


def test_modulus_monotone_in_delta(rng):
    f = build_family("step_noise", 4, 1)
    cap = random_capacity(rng, 4, kind="possibility")
    grid = Grid(1, 129)
    table = ChoquetModulusTable(f, cap, grid, 1.0, powers=(1.0,))
    values = [table.gamma(d, p=1.0) for d in np.linspace(0, 1, 21)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_stochastic_modulus_examples():
    f = identity_fn()
    g101 = Grid(1, 101)
    assert stochastic_modulus(constant_fn(2.0), 0.5, 0, g101) == 0.0
    assert stochastic_modulus(f, 0.1, 0, g101) == pytest.approx(0.1, abs=1e-12)
    assert stochastic_modulus(f, 0.0, 0, g101) == 0.0


def test_stochastic_modulus_agrees_with_brute_force(rng):
    for dim, g in ((1, 21), (2, 9)):
        f = build_family("affine_noise", 3, dim,
                         {"z": list(rng.uniform(-1, 1, 3)), "amp": 0.4})
        grid = Grid(dim, g)
        for delta in (0.15, 0.4, 0.9):
            for w in range(3):
                got = stochastic_modulus(f, delta, w, grid)
                want = brute_sample_modulus(f, delta, w, grid)
                assert got == pytest.approx(want, abs=1e-14)


def test_stochastic_modulus_monotone_exact():
    f = build_family("step_noise", 3, 1)
    grid = Grid(1, 65)
    values = [stochastic_modulus(f, d, 1, grid) for d in np.linspace(0, 1, 33)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_modulus_rejects_high_dimension(cap1):
    f = RandomFunction(1, 3, lambda pts, w: np.mean(pts, axis=-1))
    with pytest.raises(InputError, match="dim <= 2"):
        choquet_modulus(f, cap1, (0.1, 0.1, 0.1), 1.0, Grid(3, 5))
    with pytest.raises(InputError, match="dim <= 2"):
        sample_modulus_profile(f, Grid(3, 5))


def test_modulus_scalar_box_is_every_axis():
    f = build_family("affine_noise", 3, 2)
    cap = make_distorted(make_distortion("power", alpha=0.5),
                         [1.0 / 3] * 3)
    grid = Grid(2, 17)
    powers = (1.0, 2.0)
    scalar = _table_off(ChoquetModulusTable(f, cap, grid, 0.3, powers))
    boxed = _table_off(ChoquetModulusTable(f, cap, grid, (0.3, 0.3), powers))
    for p in powers:
        assert np.array_equal(scalar[p], boxed[p])
    assert (choquet_modulus(f, cap, 0.3, 2.0, grid)
            == choquet_modulus(f, cap, (0.3, 0.3), 2.0, grid))


@pytest.mark.parametrize("cap_atoms", [3, 8])
def test_capacity_atom_mismatch_is_input_error(cap_atoms):
    f = build_family("affine_noise", 5, 1)
    cap = make_distorted(make_distortion("power", alpha=0.5),
                         [1.0 / cap_atoms] * cap_atoms)
    grid = Grid(1, 33)
    with pytest.raises(InputError, match="capacity table"):
        choquet_modulus(f, cap, 0.1, 1.0, grid)
    with pytest.raises(InputError, match="capacity table"):
        semi_metric(f, f, cap, grid)
    with pytest.raises(InputError, match="capacity table"):
        integral_batch(f.grid_tensor(grid), subset_table(cap))


def test_modulus_warns_for_uncertified_capacity():
    # not submodular: mu({0, 1}) + mu({}) > mu({0}) + mu({1})
    small = make_table(2, [0.0, 0.1, 0.1, 1.0])
    assert not check_properties(small).submodular
    with pytest.warns(UserWarning, match="submodular"):
        choquet_modulus(build_family("affine_noise", 2, 1), small, 0.1, 1.0, Grid(1, 17))
    # submodular on 13 atoms, which the local check certifies
    big = make_table(13, subset_table(make_possibility(
        tuple(np.linspace(0.5, 1.0, 13)))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        choquet_modulus(build_family("affine_noise", 13, 1), big, 0.1, 1.0, Grid(1, 17))


def _scaling_instances(rng, count):
    out = []
    for i in range(count):
        m = int(rng.integers(3, 6))
        name = "affine_noise" if i % 2 == 0 else "step_noise"
        params = {"z": list(rng.uniform(-1, 1, m))}
        if name == "affine_noise":
            params.update(scale=float(rng.uniform(0.5, 1.5)),
                          amp=float(rng.uniform(0.1, 0.5)))
        f = build_family(name, m, 2, params)
        kind = "distorted" if i % 3 else "possibility"
        cap = random_capacity(rng, m, kind=kind)
        out.append((f, cap))
    return out


def test_modulus_scaling_inequality_small(rng):
    grid = Grid(2, 65)
    alphas = (0.5, 1.0, 2.0, 3.7)
    gammas = (0.05, 0.1)
    for f, cap in _scaling_instances(rng, 5):
        table = ChoquetModulusTable(f, cap, grid, (0.37, 0.37), powers=(1.0, 2.0))
        for p in (1.0, 2.0):
            for g1 in gammas:
                for g2 in gammas:
                    base = table.gamma(g1, g2, p=p)
                    for a1 in alphas:
                        for a2 in alphas:
                            lhs = table.gamma(a1 * g1, a2 * g2, p=p)
                            assert lhs <= (1.0 + a1 + a2) * base + 1e-9


def test_modulus_subadditivity_step_small(rng):
    grid = Grid(2, 65)
    gammas = (0.05, 0.1)
    for f, cap in _scaling_instances(rng, 3):
        table = ChoquetModulusTable(f, cap, grid, (0.2, 0.2), powers=(1.0,))
        for d1 in gammas:
            for e1 in gammas:
                for d2 in gammas:
                    for e2 in gammas:
                        lhs = table.gamma(d1 + d2, e1 + e2, p=1.0)
                        rhs = table.gamma(d1, e1, p=1.0) + table.gamma(d2, e2, p=1.0)
                        assert lhs <= rhs + 1e-9


def test_sample_modulus_profile_max_dist_consistent(rng):
    f = build_family("affine_noise", 3, 2, {"z": list(rng.uniform(-1, 1, 3))})
    grid = Grid(2, 17)
    full_d, full_p = sample_modulus_profile(f, grid)
    part_d, part_p = sample_modulus_profile(f, grid, max_dist=0.5)
    for delta in (0.1, 0.3, 0.5):
        j_full = int(np.searchsorted(full_d, delta + 1e-12, "right")) - 1
        j_part = int(np.searchsorted(part_d, delta + 1e-12, "right")) - 1
        assert np.allclose(full_p[j_full], part_p[j_part], atol=0)


def _profile_reference(f, grid, max_dist=None):
    """The sample modulus profile with a 1-D walk and a 2-D walk, as a reference."""
    g = grid.points_per_axis
    tensor = f.grid_tensor(grid)
    m = f.atom_count
    limit = math.sqrt(f.dim) + 1.0 if max_dist is None else max_dist + 1e-12
    w = min(g - 1, int(math.floor(limit / grid.spacing + 1e-9)))
    if f.dim == 1:
        dists = np.arange(w + 1) * grid.spacing
        prof = np.zeros((w + 1, m))
        for d in range(1, w + 1):
            prof[d] = np.abs(tensor[d:] - tensor[:g - d]).max(axis=0)
        return dists, np.maximum.accumulate(prof, axis=0)
    entries = []
    for dx in range(w + 1):
        for dy in (range(0, w + 1) if dx == 0 else range(-w, w + 1)):
            if dx == 0 and dy == 0:
                continue
            dist = math.hypot(dx, dy) * grid.spacing
            if dist > limit:
                continue
            if dy >= 0:
                a, b = tensor[dx:, dy:], tensor[:g - dx, :g - dy]
            else:
                a, b = tensor[dx:, :g + dy], tensor[:g - dx, -dy:]
            entries.append((dist, np.abs(a - b).reshape(-1, m).max(axis=0)))
    entries.sort(key=lambda e: e[0])
    dists = np.concatenate([[0.0], [e[0] for e in entries]])
    prof = np.vstack([np.zeros(m)] + [e[1] for e in entries])
    return dists, np.maximum.accumulate(prof, axis=0)


@pytest.mark.parametrize("dim, points", [(1, g) for g in (2, 3, 16, 17, 65, 257)]
                         + [(2, g) for g in (2, 3, 9, 16, 33, 65)])
# 0.25 - 3e-11 sits inside the window's 1e-9 slack below a grid distance: the
# 1-D walk keeps that offset, the 2-D disc drops it
@pytest.mark.parametrize("max_dist", [None, 0.0, 0.1, 0.25, 0.5, 3 ** -0.5, 1.0,
                                      0.25 - 3e-11])
def test_sample_modulus_profile_matches_per_dimension_walks(dim, points, max_dist):
    rng = np.random.default_rng(points)
    f = build_family("step_noise" if points % 2 else "affine_noise",
                     3, dim, {"z": list(rng.uniform(-1, 1, 3))})
    grid = Grid(dim, points)
    got = sample_modulus_profile(f, grid, max_dist=max_dist)
    want = _profile_reference(f, grid, max_dist=max_dist)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
