import math
import sys
import threading

import numpy as np
import pytest

from choqbern import (ConfigError, ExperimentConfig, InputError,
                      SeededStream, bernstein_univariate, k_inverse, k_modulus,
                      lemma51_bound, max_deviation_rows, sample_rows, sikkema_constant,
                      stochastic_bernstein, theorem6_bound)
from choqbern.randomfn import PAIR_TOL, Grid, RandomFunction, build_family
from choqbern.stochastic import KTable, default_delta_grid

IDENTITY = RandomFunction(1, 1, lambda pts, w: np.mean(pts, axis=-1),
                          name="identity")


def test_stream_determinism():
    row1 = sample_rows(50, 42, 1, start_index=7)
    row2 = sample_rows(50, 42, 1, start_index=7)
    assert np.array_equal(row1, row2)
    other = sample_rows(50, 42, 1, start_index=8)
    assert not np.array_equal(row1, other)


def test_rows_sorted_and_in_unit_interval():
    rows = sample_rows(10, 123, 10 ** 4)
    assert np.all(np.diff(rows, axis=1) >= 0.0)
    assert rows.min() >= 0.0 and rows.max() <= 1.0


def _fresh_row(n, seed, index):
    """Row ``index`` of ``sample_rows`` drawn from its own fresh generator."""
    return np.sort(SeededStream(seed, index).generator().random(n + 1))


def test_sample_rows_bit_identical_to_scalar_path():
    rows = sample_rows(20, 99, 50, start_index=17)
    for i in (0, 13, 49):
        assert np.array_equal(rows[i], _fresh_row(20, 99, 17 + i))
    top = 2 ** 64 - 1
    for n, seed, start, count in ((1, 0, 0, 3), (20, 99, 17, 50), (33, top, 5, 6),
                                  (9, 7, top - 3, 4)):  # ends at stream 2^64 - 1
        rows = sample_rows(n, seed, count, start_index=start)
        assert rows.shape == (count, n + 1)
        for i in range(count):  # every row, so a stale generator state would show
            assert np.array_equal(rows[i], _fresh_row(n, seed, start + i))


@pytest.mark.parametrize("seed, start, count", [
    (0, 2 ** 64 - 1, 2), (0, 2 ** 64 - 3, 4), (0, -1, 3), (-1, 0, 1), (2 ** 64, 0, 1)])
def test_sample_rows_outside_64_bits_is_input_error(seed, start, count):
    with pytest.raises(InputError, match="2\\*\\*64"):
        sample_rows(3, seed, count, start_index=start)


def test_sample_rows_concurrent_calls_give_serial_result():
    # more threads than cores, switching often: a generator shared between
    # calls would hand rows of one call the state of another
    jobs = [(40, 5, 2000, 0), (40, 6, 2000, 2 ** 63), (7, 5, 3000, 10),
            (7, 5, 3000, 11)]
    serial = [sample_rows(n, seed, count, start_index=start)
              for n, seed, count, start in jobs]
    barrier = threading.Barrier(len(jobs))
    got = [None] * len(jobs)

    def work(k):
        n, seed, count, start = jobs[k]
        barrier.wait(timeout=60)
        got[k] = sample_rows(n, seed, count, start_index=start)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for a, b in zip(got, serial):
        assert np.array_equal(a, b)


def test_order_statistic_means():
    n = 4
    rows = sample_rows(n, 2024, 10 ** 5)
    means = rows.mean(axis=0)
    se = rows.std(axis=0, ddof=1) / math.sqrt(rows.shape[0])
    expected = (np.arange(n + 1) + 1.0) / (n + 2.0)
    assert np.all(np.abs(means - expected) <= 3.0 * se)


def test_row_validation():
    for nodes in ([0.5, 0.4, 0.9],       # unsorted
                  [0.1, 0.4, math.nan],  # not in [0, 1]
                  [-0.1, 0.5],
                  [0.2, 1.5],
                  [0.3],                 # degree 0
                  [[0.1, 0.4]]):         # not one row
        with pytest.raises(InputError):
            stochastic_bernstein(IDENTITY, nodes, 0.5, 0)
    with pytest.raises(InputError, match="degree"):
        sample_rows(0, 1, 1, start_index=1)


def test_max_deviation():
    n = 6
    exact = np.arange(n + 1) / n
    assert max_deviation_rows(exact[None, :])[0] == 0.0
    row = np.array([[0.1, 0.4, 0.9]])
    assert max_deviation_rows(row)[0] == pytest.approx(0.1, abs=1e-15)
    rows = sample_rows(9, 5, 200)
    devs = max_deviation_rows(rows)
    assert np.all((devs >= 0.0) & (devs <= 1.0))
    assert devs[3] == np.abs(rows[3] - np.arange(10) / 9).max()
    assert devs[3] == max_deviation_rows(sample_rows(9, 5, 1, start_index=3))[0]


def test_stochastic_bernstein_reduction_bit_exact():
    f = build_family("affine_noise", 3, 1)
    n = 12
    row = np.arange(n + 1) / n
    for w in range(3):
        samples = f.evaluator((np.arange(n + 1) / n)[:, None], w)
        for x in (0.0, 0.31, 0.77, 1.0):
            assert stochastic_bernstein(f, row, x, w) == \
                bernstein_univariate(samples, x)


def test_stochastic_bernstein_values():
    const = RandomFunction(1, 1,
                           lambda pts, w: np.full(np.shape(pts)[:-1], 2.5))
    row = sample_rows(8, 3, 1, start_index=1)[0]
    assert stochastic_bernstein(const, row, 0.4, 0) == pytest.approx(2.5, abs=1e-12)
    r = np.array([0.1, 0.5, 0.8])
    got = stochastic_bernstein(IDENTITY, r, 0.5, 0)
    assert got == pytest.approx(0.25 * 0.1 + 0.5 * 0.5 + 0.25 * 0.8, abs=1e-15)
    two_d = RandomFunction(1, 2, lambda pts, w: np.mean(pts, axis=-1))
    with pytest.raises(InputError):
        stochastic_bernstein(two_d, r, 0.5, 0)


def test_k_modulus_examples():
    g257 = Grid(1, 257)
    const = RandomFunction(1, 1,
                           lambda pts, w: np.full(np.shape(pts)[:-1], 1.0))
    assert k_modulus(const, 0.7, g257) == 0.0
    assert k_modulus(IDENTITY, 0.2, g257) == pytest.approx(51.0 / 256.0, abs=1e-15)
    table = KTable(IDENTITY, g257)
    deltas = np.linspace(0, 1, 41)
    vals = table(deltas)
    assert np.all(np.diff(vals) >= 0.0)


def test_k_modulus_is_sup_over_atoms(rng):
    f = build_family("affine_noise", 4, 1,
                     {"z": [-1.0, -0.2, 0.4, 1.0]})
    g = Grid(1, 129)
    from choqbern import stochastic_modulus
    for delta in (0.1, 0.33):
        per_atom = [stochastic_modulus(f, delta, w, g) for w in range(4)]
        assert k_modulus(f, delta, g) == max(per_atom)
    # at an exact grid distance and PAIR_TOL / 2 either side of it, the
    # lookup's slack gives every query that distance's row
    table = KTable(f, g)
    for d in np.array([0, 1, 13, 64, 128]) * g.spacing:
        for delta in (d - PAIR_TOL / 2, d, d + PAIR_TOL / 2):
            if delta < 0:
                continue
            per_atom = [stochastic_modulus(f, delta, w, g) for w in range(4)]
            assert k_modulus(f, delta, g) == max(per_atom) == table(d)
        if d > 0:  # the row changes at d, so the slack is what the checks see
            assert table(d - 2 * PAIR_TOL) < table(d)


def test_k_inverse_examples():
    g257 = Grid(1, 257)
    got = k_inverse(IDENTITY, 0.3, g257)
    assert got == pytest.approx(307.0 / 1024.0, abs=1e-15)
    assert k_inverse(IDENTITY, 2.0, g257) == 1.0
    # below one grid step every qualifying delta sees only coincident pairs
    tiny = RandomFunction(1, 1, lambda pts, w: 5.0 * np.mean(pts, axis=-1))
    assert k_inverse(tiny, 0.001, g257) == pytest.approx(3.0 / 1024.0, abs=1e-15)
    assert k_inverse(tiny, 0.001, g257, np.array([0.5, 0.75, 1.0])) == 0.0


def test_k_inverse_right_continuity_property():
    g257 = Grid(1, 257)
    dgrid = default_delta_grid()
    f = build_family("affine_noise", 3, 1)
    for delta in dgrid[::64]:
        eps = k_modulus(f, float(delta), g257)
        assert float(delta) <= k_inverse(f, eps, g257, dgrid)


def test_lemma51_bound_values():
    got = lemma51_bound(200, 0.3, 0.9, 2.0)
    want = 2.0 * 201.0 / math.sqrt(0.1) * math.exp(-1.35 * 200 * 0.09)
    assert got == pytest.approx(want, rel=1e-15)
    assert got == pytest.approx(3.5552e-08, rel=1e-3)
    assert lemma51_bound(50, 0.0, 0.5, 1.5) == pytest.approx(
        1.5 * 51.0 / math.sqrt(0.5), rel=1e-15)


def test_lemma51_bound_monotone_tail():
    values = [lemma51_bound(n, 0.25, 0.6, 2.0) for n in range(10, 10 ** 4, 97)]
    peak = int(np.argmax(values))
    tail = values[peak:]
    assert all(a >= b for a, b in zip(tail, tail[1:]))


def test_bound_argument_validation():
    with pytest.raises(InputError):
        lemma51_bound(200, 0.3, 1.0, 2.0)
    with pytest.raises(InputError):
        lemma51_bound(200, 0.3, 0.0, 2.0)
    with pytest.raises(InputError):
        lemma51_bound(200, 0.3, 0.9, math.inf)  # power distortion slope
    with pytest.raises(InputError):
        theorem6_bound(100, 0.99, 0.9, 2.0)


def test_theorem6_bound_values():
    assert theorem6_bound(200, 200 * 0.09, 0.9, 2.0) == \
        lemma51_bound(200, 0.3, 0.9, 2.0)
    tau = 4.0 * math.log(101.0)
    got = theorem6_bound(100, tau, 0.9, 2.0)
    want = 2.0 * 101.0 / math.sqrt(0.1) * math.exp(-1.35 * tau)
    assert got == pytest.approx(want, rel=1e-15)
    assert theorem6_bound(10, 1.0, 0.5, 1.0) == pytest.approx(
        11.0 / math.sqrt(0.5) * math.exp(-0.75), rel=1e-15)


def test_process_spec_requires_continuity():
    with pytest.raises(ConfigError, match="key 'family'.*continuous"):
        ExperimentConfig.from_mapping({"experiment": "stochastic", "atoms": 3,
                                       "family": "step_noise"})
    cfg = ExperimentConfig.from_mapping({"experiment": "stochastic", "atoms": 3,
                                         "family": "affine_noise"})
    assert cfg.family.continuous and cfg.family.dim == 1


def test_deviation_capacity_trend():
    # u(empirical P)(M_n > 0.1) strictly decreasing over n in {50, 200, 800}
    from choqbern import make_distortion
    u = make_distortion("rational_2t")
    samples = 20000
    levels = []
    for idx, n in enumerate((50, 200, 800)):
        rows = sample_rows(n, 314, samples, start_index=idx * samples)
        p_hat = np.count_nonzero(max_deviation_rows(rows) > 0.1) / samples
        levels.append(u(p_hat))
    assert levels[0] > levels[1] > levels[2]
