import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choqbern import (CapacityTooLargeError, ConstructionError, InputError,
                      capacity_from_spec, check_properties, eval_capacity, eval_sets,
                      make_distorted, make_distortion, make_possibility, make_table,
                      subset_table)
from conftest import random_capacity, random_probability


def test_possibility_eval_is_sup():
    cap = make_possibility((0.5, 1.0, 0.3))
    assert eval_capacity(cap, [0, 2]) == 0.5
    assert eval_capacity(cap, [1]) == 1.0
    assert eval_capacity(cap, []) == 0.0


def test_distorted_eval_sqrt_uniform():
    cap = make_distorted(make_distortion("power", alpha=0.5), [0.25] * 4)
    assert eval_capacity(cap, [2]) == pytest.approx(0.5, abs=1e-15)
    assert eval_capacity(cap, None) == pytest.approx(1.0, abs=1e-12)
    assert eval_capacity(cap, 0) == 0.0


def test_identity_distortion_reproduces_probability(rng):
    p = random_probability(rng, 5)
    cap = make_distorted(make_distortion("power", alpha=1.0), p)
    for mask in range(1 << 5):
        expected = sum(p[i] for i in range(5) if mask >> i & 1)
        assert eval_capacity(cap, mask) == pytest.approx(expected, abs=1e-14)


def test_rational_distortion_singleton():
    cap = make_distorted(make_distortion("rational_2t"), [0.5, 0.5])
    assert eval_capacity(cap, [0]) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_convex_distortion_rejected():
    with pytest.raises(ConstructionError):
        make_distortion("power", alpha=2.0)
    with pytest.raises(ConstructionError):
        make_distortion("custom_table", xs=[0.0, 0.5, 1.0], ys=[0.0, 0.1, 1.0])


def test_distortion_catalog_slopes():
    assert make_distortion("rational_2t").derivative_at_zero == 2.0
    assert make_distortion("exp_decay").derivative_at_zero == pytest.approx(
        1.0 / (1.0 - math.exp(-1.0)), abs=1e-15)
    assert make_distortion("log2").derivative_at_zero == pytest.approx(
        1.0 / math.log(2.0), abs=1e-15)
    assert make_distortion("sine").derivative_at_zero == pytest.approx(
        math.pi / 2.0, abs=1e-15)
    assert make_distortion("arctan").derivative_at_zero == pytest.approx(
        4.0 / math.pi, abs=1e-15)
    assert make_distortion("power", alpha=0.5).derivative_at_zero == math.inf
    assert make_distortion("power", alpha=1.0).derivative_at_zero == 1.0


def test_custom_table_distortion_slope_estimated():
    u = make_distortion("custom_table", xs=[0.0, 0.25, 1.0], ys=[0.0, 0.5, 1.0])
    assert u.derivative_estimated
    assert u.derivative_at_zero == pytest.approx(2.0, rel=1e-9)
    assert u(0.125) == pytest.approx(0.25, abs=1e-14)


def test_possibility_construction():
    cap = make_possibility((1.0,))
    assert eval_capacity(cap, None) == 1.0
    assert eval_capacity(cap, 0) == 0.0
    cap2 = make_possibility((0.2, 1.0))
    assert eval_capacity(cap2, [0]) == 0.2
    with pytest.raises(ConstructionError):
        make_possibility((0.5, 0.5))


_SQRT_REPR = {"type": "distorted", "distortion": {"kind": "power", "alpha": 0.5}}


def test_ground_space_invariants():
    for atoms in ([], ["a", "a"]):
        with pytest.raises(ConstructionError, match="atom"):
            capacity_from_spec({"atoms": atoms, "repr": _SQRT_REPR})
    cap = capacity_from_spec({"atoms": ["a", "b", "c"], "repr": _SQRT_REPR})
    assert cap.atom_count == 3


@pytest.mark.parametrize("rep", [
    {**_SQRT_REPR, "weights": [0.5, 0.5]},
    {"type": "possibility", "lambda": [0.5, 1.0]}])
def test_atom_labels_must_match_the_form_length(rep):
    with pytest.raises(ConstructionError, match="2 entries for 3 atoms"):
        capacity_from_spec({"atoms": ["a", "b", "c"], "repr": rep})


def test_subset_index_out_of_range():
    cap = make_possibility((1.0, 0.5))
    with pytest.raises(InputError):
        eval_capacity(cap, [2])
    with pytest.raises(InputError):
        eval_capacity(cap, 1 << 2)


def test_table_must_be_total_and_monotone():
    with pytest.raises(ConstructionError, match="not total"):
        make_table(2, {0: 0.0, 3: 1.0, 1: 0.5})
    with pytest.raises(ConstructionError, match="monotone"):
        make_table(3, [0.0, 0.8, 0.2, 0.5, 0.1, 0.9, 0.6, 1.0])
    with pytest.raises(ConstructionError):
        make_table(2, [0.1, 0.5, 0.5, 1.0])  # empty set not 0
    for m in (0, -1):
        with pytest.raises(ConstructionError, match="at least one atom"):
            make_table(m, [0.0])


def test_counterexample_table_not_submodular():
    cap = make_table(2, {0: 0.0, 1: 0.1, 2: 0.1, 3: 1.0})
    report = check_properties(cap, mode="exhaustive")
    assert report.monotone
    assert not report.submodular
    assert not report.subadditive  # 1 > 0.1 + 0.1


def test_analytic_properties():
    pos = make_possibility((0.5, 1.0, 0.3))
    rep = check_properties(pos)
    assert (rep.monotone, rep.subadditive, rep.submodular) == (True, True, True)
    assert rep.mode == "analytic"
    dist = make_distorted(make_distortion("power", alpha=0.5),
                          [1.0 / 3] * 3)
    rep2 = check_properties(dist)
    assert (rep2.monotone, rep2.subadditive, rep2.submodular) == (True, True, True)


def test_analytic_and_exhaustive_agree(rng):
    for _ in range(20):
        m = int(rng.integers(2, 8))
        cap = random_capacity(rng, m, kind=("distorted", "possibility")[int(rng.integers(2))])
        a = check_properties(cap, mode="analytic")
        b = check_properties(cap, mode="exhaustive")
        assert (a.monotone, a.subadditive, a.submodular) == \
            (b.monotone, b.subadditive, b.submodular)


def test_exhaustive_gate_above_twenty_atoms():
    cap = make_distorted(make_distortion("power", alpha=0.5),
                         [1.0 / 21] * 21)
    with pytest.raises(CapacityTooLargeError):
        check_properties(cap, mode="exhaustive")
    with pytest.raises(InputError):
        check_properties(cap, mode="bogus")


def test_monotone_eval_exhaustive(rng):
    # every nested pair A subset of B, for moderate atom counts
    sizes = [int(rng.integers(2, 9)) for _ in range(8)] + [12]
    for m in sizes:
        cap = random_capacity(rng, m)
        tbl = subset_table(cap)
        masks = np.arange(1 << m, dtype=np.int64)
        chunk = max(1, (1 << 22) // (1 << m))
        for start in range(0, 1 << m, chunk):
            a = masks[start:start + chunk, None]
            nested = (a & masks[None, :]) == a
            assert np.all(~nested | (tbl[a] <= tbl[masks][None, :] + 1e-12))


def test_possibility_max_union_exact(rng):
    for _ in range(20):
        m = int(rng.integers(2, 9))
        cap = random_capacity(rng, m, kind="possibility")
        a = int(rng.integers(1 << m))
        b = int(rng.integers(1 << m))
        assert eval_capacity(cap, a | b) == max(eval_capacity(cap, a),
                                                eval_capacity(cap, b))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
       st.integers(0, 1 << 6), st.integers(0, 1 << 6))
def test_possibility_union_property(levels, a, b):
    levels = list(levels)
    levels[0] = 1.0
    cap = make_possibility(tuple(levels))
    m = len(levels)
    a &= (1 << m) - 1
    b &= (1 << m) - 1
    assert eval_capacity(cap, a | b) == max(eval_capacity(cap, a),
                                            eval_capacity(cap, b))


def test_subset_table_matches_pointwise(rng):
    for _ in range(6):
        m = int(rng.integers(1, 7))
        cap = random_capacity(rng, m)
        tbl = subset_table(cap)
        for mask in range(1 << m):
            assert tbl[mask] == eval_capacity(cap, mask)


def test_eval_sets_rows_equal_the_table(rng):
    for m in range(1, 17):
        for kind in ("distorted", "possibility", "table"):
            cap = random_capacity(rng, m, kind=kind)
            member = rng.random((40, m)) < rng.random((40, 1))
            member[0], member[1] = False, True  # the empty and the full set
            masks = member @ (1 << np.arange(m))
            assert np.array_equal(eval_sets(cap, member), subset_table(cap)[masks])


def test_eval_sets_needs_no_bitmask(rng):
    m = 70
    w = rng.dirichlet(np.ones(m))
    lam = rng.random(m)
    lam[3] = 1.0
    u = make_distortion("power", alpha=0.5)
    dist = make_distorted(u, tuple(w))
    pos = make_possibility(tuple(lam))
    member = rng.random((5, m)) < 0.5
    member[0] = False
    assert np.allclose(eval_sets(dist, member),
                       np.sqrt(np.clip(member @ w, 0.0, 1.0)), rtol=0, atol=1e-15)
    assert np.array_equal(eval_sets(pos, member),
                          np.where(member, lam, 0.0).max(axis=1))
    assert eval_capacity(dist, range(m)) == pytest.approx(1.0, abs=1e-12)
    assert eval_capacity(pos, [3]) == 1.0
    for bad in (member[:, :-1], member[0]):
        with pytest.raises(InputError, match="membership rows"):
            eval_sets(pos, bad)


def test_possibility_negative_level_reads_as_zero():
    # levels may sit up to TOL below 0; every set's max starts from 0
    cap = make_possibility((1.0, -5e-13, 0.4))
    assert eval_capacity(cap, [1]) == subset_table(cap)[2] == 0.0
    assert eval_capacity(cap, []) == 0.0


def test_capacity_json_round_trip():
    cap = capacity_from_spec({
        "atoms": ["a", "b"],
        "repr": {"type": "distorted", "distortion": {"kind": "power", "alpha": 0.5},
                 "weights": [0.5, 0.5]},
    })
    assert eval_capacity(cap, [0]) == pytest.approx(math.sqrt(0.5), abs=1e-15)
    pos = capacity_from_spec({"repr": {"type": "possibility", "lambda": [0.2, 1.0]}})
    assert eval_capacity(pos, [0]) == 0.2
    tab = capacity_from_spec({
        "atoms": 2,
        "repr": {"type": "table", "values": {"": 0.0, "0": 0.1, "1": 0.1, "0,1": 1.0}},
    })
    assert eval_capacity(tab, [0, 1]) == 1.0
    with pytest.raises(ConstructionError, match="kind"):
        capacity_from_spec({"atoms": 2, "repr": {"type": "distorted",
                                                 "distortion": {"kind": "nope"}}})
    with pytest.raises(ConstructionError, match="type"):
        capacity_from_spec({"atoms": 2, "repr": {}})


def test_probability_invariants():
    u = make_distortion("sine")
    with pytest.raises(ConstructionError):
        make_distorted(u, (0.5, 0.6))
    with pytest.raises(ConstructionError):
        make_distorted(u, (1.5, -0.5))
    make_distorted(u, (0.25, 0.75))


def test_distortion_probe_grid_edges():
    # concave tables may go flat at the top
    u = make_distortion("custom_table", xs=[0.0, 0.5, 0.6, 1.0],
                        ys=[0.0, 0.9, 1.0, 1.0])
    assert u(0.8) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ConstructionError, match="nondecreasing|concave"):
        make_distortion("custom_table", xs=[0.0, 0.5, 1.0], ys=[0.0, 1.2, 1.0])
