import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choqbern import (CapacityTooLargeError, ConstructionError, InputError, capacity,
                      capacity_from_spec, check_properties, choquet_integral,
                      eval_capacity, eval_sets, make_distorted, make_distortion,
                      make_possibility, make_table, subset_table)
from choqbern.capacity import (_PROBE, TOL, _validate_distortion, as_mask,
                               certified_submodular, subset_max)
from conftest import random_capacity, random_monotone_table, random_probability


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
    # a power above one is still probed: just above, it is concave within TOL
    # on the probe grid, a little further it is not
    make_distortion("power", alpha=1.0 + 1e-13)
    with pytest.raises(ConstructionError, match="not concave"):
        make_distortion("power", alpha=1.0 + 1e-10)
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


@pytest.mark.parametrize("kind, params", [
    *[(kind, {}) for kind in ("rational_2t", "exp_decay", "log2", "sine", "arctan")],
    *[("power", {"alpha": alpha}) for alpha in
      (5e-324, 1e-300, 1e-12, *np.linspace(0.05, 1.0, 20).tolist(), 1.0 - 1e-16)]])
def test_distortions_built_without_the_probe_pass_it(monkeypatch, kind, params):
    # make_distortion skips the probe where its properties are theorems; the
    # probe stays the reference, and it accepts each of them as computed
    probed = []
    monkeypatch.setattr(capacity, "_validate_distortion", lambda *args: probed.append(args))
    u = make_distortion(kind, **params)
    assert probed == []
    _validate_distortion(kind, u.fn)


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
        with pytest.raises(ConstructionError, match="atom count must be an integer >= 1"):
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
    # every nested pair A subset of B, for moderate atom counts; up to 6 atoms
    # the same pairs give the subset-max and the superset-min, of the table
    # and of a table that is not monotone
    sizes = [1, 2, 3, 4, 5, 6] + [int(rng.integers(2, 9)) for _ in range(8)] + [12]
    for m in sizes:
        cap = random_capacity(rng, m)
        tbl = subset_table(cap)
        masks = np.arange(1 << m, dtype=np.int64)
        chunk = max(1, (1 << 22) // (1 << m))
        for start in range(0, 1 << m, chunk):
            a = masks[start:start + chunk, None]
            nested = (a & masks[None, :]) == a
            assert np.all(~nested | (tbl[a] <= tbl[masks][None, :] + 1e-12))
        if m <= 6:
            nested = (masks[:, None] & masks[None, :]) == masks[:, None]  # [A, B]
            for t in (tbl, rng.uniform(-1.0, 1.0, 1 << m)):
                pairs = np.broadcast_to(t[:, None], nested.shape)
                assert np.array_equal(subset_max(t),
                                      np.where(nested, pairs, -np.inf).max(axis=0))
                assert np.array_equal(-subset_max(-t[::-1])[::-1],
                                      np.where(nested, pairs.T, np.inf).min(axis=1))


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


@pytest.mark.parametrize("build", [
    lambda: make_distorted(make_distortion("rational_2t"), (math.nan, math.nan)),
    lambda: make_possibility((math.nan, 1.0)),
    lambda: make_table(1, [0.0, math.nan]),
    lambda: make_table(2, [0.0, math.nan, 0.5, 1.0]),
    lambda: make_table(2, {0: 0.0, 1: math.nan, 2: 0.5, 3: 1.0}),
    lambda: make_distortion("custom_table", xs=[0.0, 0.5, 1.0], ys=[0.0, math.nan, 1.0]),
    lambda: make_distortion("custom_table", xs=[0.0, math.nan, 1.0], ys=[0.0, 0.7, 1.0]),
    lambda: make_distortion("power", alpha=math.nan),
])
def test_constructors_refuse_non_finite_values(build):
    # every range check reads "inside", which NaN is not, so no NaN capacity
    # is integrated or certified submodular
    with pytest.raises(ConstructionError) as err:
        build()
    assert "missing" not in str(err.value)  # a NaN table entry is given, not missing


@pytest.mark.parametrize("index", [True, np.True_, 0.7, 2.9, 2.0])
def test_as_mask_refuses_an_index_that_is_not_an_integer(index):
    # int() would read True as atom 1 and truncate 0.7 to atom 0
    with pytest.raises(InputError, match="atom index must be an integer"):
        as_mask([0, index], 3)


@pytest.mark.parametrize("call", [
    lambda cap: eval_capacity(cap, 2.5),
    lambda cap: choquet_integral([0.1, 0.2, 0.3], cap, subset=2.5)])
def test_a_subset_that_is_not_a_set_is_input_error(call):
    # 2.5 is not None, an integer or an iterable; it used to reach ``for i in subset``
    with pytest.raises(InputError, match=r"bitmask must be an integer in \[0, 8\), got 2.5"):
        call(make_possibility((1.0, 0.5, 0.2)))


def test_table_refuses_a_bool_key():
    # True == 1 as a dict key, so it would pass for the mask of atom 0
    with pytest.raises(ConstructionError, match="table key must be an integer"):
        make_table(1, {True: 1.0, 0: 0.0})
    assert make_table(1, {1: 1.0, 0: 0.0}).form.values.tolist() == [0.0, 1.0]


def _concave_all_pairs(vals) -> bool:
    """Midpoint concavity over every same-parity pair: the reference form."""
    for parity in (0, 1):
        v = vals[parity::2]
        idx = np.arange(parity, vals.size, 2)
        mids = (idx[:, None] + idx[None, :]) // 2
        if np.any(vals[mids] < (v[:, None] + v[None, :]) / 2.0 - TOL):
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(alpha=st.one_of(st.just(1.0), st.floats(0.2, 3.0)),
       noise=st.sampled_from([0.0, 1e-13, 4e-13, 1e-12, 3e-12, 1e-9]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(alpha=1.0, noise=0.0, seed=0)  # linear: concave with no slack
@example(alpha=1.0, noise=3e-12, seed=0)  # linear plus noise beyond TOL
@example(alpha=2.0, noise=0.0, seed=0)  # convex
def test_concavity_check_matches_all_pairs(alpha, noise, seed):
    # a nondecreasing probe table from 0 to 1, near the TOL slack when noisy
    vals = _PROBE ** alpha + noise * np.random.default_rng(seed).standard_normal(_PROBE.size)
    vals = np.clip(np.maximum.accumulate(vals), 0.0, 1.0)
    vals[0], vals[-1] = 0.0, 1.0
    try:
        _validate_distortion("probe", lambda t: vals)
        concave = True
    except ConstructionError as err:
        assert "not concave" in str(err)
        concave = False
    assert concave == _concave_all_pairs(vals)


def _worst_violations(tbl):
    """Largest mu(A) - mu(B) over A within B, and largest
    mu(A | B) + mu(A & B) - mu(A) - mu(B) over all pairs, as computed."""
    a = np.arange(tbl.size)[:, None]
    b = a.T
    nested = (a & b) == a
    return (float(np.where(nested, tbl[a] - tbl[b], -np.inf).max()),
            float((tbl[a | b] + tbl[a & b] - (tbl[a] + tbl[b])).max()))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(m=st.integers(2, 8), kind=st.sampled_from(["distorted", "possibility", "monotone"]),
       alpha=st.sampled_from([1.0, 0.7, 0.3]), seed=st.integers(0, 2 ** 32 - 1),
       entry=st.integers(0, 255),
       shift=st.sampled_from([0.0, 0.01, 0.5, 0.99, 1.01, 2.0, 4.0, 1e3]),
       sign=st.sampled_from([1.0, -1.0]))
@example(m=2, kind="distorted", alpha=1.0, seed=0, entry=3, shift=0.5, sign=1.0)
@example(m=8, kind="distorted", alpha=1.0, seed=0, entry=255, shift=0.5, sign=1.0)
@example(m=8, kind="possibility", alpha=1.0, seed=0, entry=254, shift=0.5, sign=-1.0)
def test_local_check_accepts_only_what_the_exhaustive_check_accepts(
        m, kind, alpha, seed, entry, shift, sign):
    # one entry moved by a multiple of TOL, on both sides of the local and
    # the exhaustive tolerances
    rng = np.random.default_rng(seed)
    if kind == "distorted":
        base = subset_table(make_distorted(make_distortion("power", alpha=alpha),
                                           random_probability(rng, m)))
    elif kind == "possibility":
        levels = rng.random(m)
        levels[int(rng.integers(m))] = 1.0
        base = subset_table(make_possibility(tuple(levels)))
    else:
        base = random_monotone_table(rng, m)
    tbl = base.copy()
    tbl[entry % tbl.size] += sign * shift * TOL
    try:
        cap = make_table(m, tbl)
    except ConstructionError:
        return
    local, exhaustive = check_properties(cap), check_properties(cap, mode="exhaustive")
    assert local.mode == "local"
    for verdict in ("monotone", "subadditive", "submodular"):
        assert getattr(exhaustive, verdict) or not getattr(local, verdict), verdict
    # away from the tolerance the two agree
    for verdict, worst in zip(("monotone", "submodular"), _worst_violations(tbl)):
        if worst <= 0.0 or worst > 1.5 * TOL:
            assert getattr(local, verdict) == getattr(exhaustive, verdict), verdict
    assert local.subadditive == exhaustive.subadditive


@settings(derandomize=True, max_examples=400, deadline=None)
@given(m=st.integers(2, 8),
       kind=st.sampled_from(["chain", "possibility", "monotone", "distorted"]),
       seed=st.integers(0, 2 ** 32 - 1),
       moves=st.lists(st.tuples(st.integers(0, 255),
                                st.sampled_from([0.3, 0.5, 0.9, 1.0, 1.5, 3.0, 1e3]),
                                st.sampled_from([1.0, -1.0])), max_size=3))
def test_auto_and_exhaustive_monotone_verdicts_agree(m, kind, seed, moves):
    # entries moved by multiples of TOL, so that make_table's covering pairs
    # pass while longer chains may not
    rng = np.random.default_rng(seed)
    if kind == "chain":
        # a flat table falling by a step below TOL along a chain of nested
        # sets, which may fall by more than TOL in all
        base = np.ones(1 << m)
        base[0] = 0.0
        chain = np.cumsum(1 << rng.permutation(m))[:-1]
        base[chain] += TOL * (rng.choice([0.0, 0.5, 0.9])
                              - rng.choice([0.3, 0.6, 0.95]) * np.arange(m - 1))
    elif kind == "possibility":
        # ties between nested sets leave room for chains of small drops
        levels = rng.choice([0.5, 1.0], m)
        levels[int(rng.integers(m))] = 1.0
        base = subset_table(make_possibility(tuple(levels)))
    elif kind == "distorted":
        base = subset_table(make_distorted(make_distortion("power", alpha=0.5),
                                           random_probability(rng, m)))
    else:
        base = random_monotone_table(rng, m)
    tbl = base.copy()
    for entry, shift, sign in moves:
        tbl[entry % tbl.size] += sign * shift * TOL
    try:
        cap = make_table(m, tbl)
    except ConstructionError:
        return
    assert (check_properties(cap).monotone
            == check_properties(cap, mode="exhaustive").monotone)


@pytest.mark.parametrize("moves, monotone", [
    # {0, 1} 0.5 TOL below {0}: within make_table's TOL, and monotone
    ({3: 1.0 - 0.5 * TOL}, True),
    # {0} 0.9 TOL above 1 and the full set 0.9 TOL below: each covering pair
    # is within TOL, but {0} within {0, 1, 2} is 1.8 TOL apart
    ({1: 1.0 + 0.9 * TOL, 7: 1.0 - 0.9 * TOL}, False),
    # one atom: the running max of a (2,) view is over 0-d values
    ({}, True)])
def test_auto_monotone_is_the_exhaustive_verdict(moves, monotone):
    m = 3 if moves else 1
    tbl = np.ones(1 << m)
    tbl[0] = 0.0
    for entry, value in moves.items():
        tbl[entry] = value
    cap = make_table(m, tbl)
    for mode in ("auto", "exhaustive"):
        assert check_properties(cap, mode=mode).monotone == monotone, mode



def test_local_check_of_a_table_with_a_negative_entry():
    # submodular, yet mu({0, 1}) > mu({0}) + mu({1}) + TOL: mu(empty) < 0 breaks
    # the step from submodular to subadditive, so auto checks the pairs
    half = 0.5 - 0.6 * TOL
    cap = make_table(2, [-TOL, half, half, 1.0])
    for mode in ("auto", "exhaustive"):
        report = check_properties(cap, mode=mode)
        assert (report.monotone, report.subadditive, report.submodular) == \
            (True, False, True), mode


def test_auto_subadditive_pass_is_the_exhaustive_verdict():
    # two tables that are not submodular, over the four chunks of pairs of 12
    # atoms: (|A|/M)^2 is not subadditive from the first chunk on, and
    # ceil(|A|/2) / 6 is subadditive over every chunk
    m = 12
    sizes = np.array([bin(mask).count("1") for mask in range(1 << m)])
    for tbl, subadditive in (((sizes / m) ** 2, False), (np.ceil(sizes / 2) / 6, True)):
        cap = make_table(m, tbl)
        auto, exhaustive = check_properties(cap), check_properties(cap, mode="exhaustive")
        assert not auto.submodular
        assert auto.subadditive == exhaustive.subadditive == subadditive


@pytest.mark.parametrize("m", [13, 16, 20])
def test_local_check_certifies_wide_tables(m):
    # beyond the atoms an O(4**M) pairwise check can take
    possibility = make_table(m, subset_table(make_possibility(tuple(np.linspace(0.5, 1, m)))))
    report = check_properties(possibility)
    assert (report.monotone, report.subadditive, report.submodular, report.mode) == \
        (True, True, True, "local")
    tbl = np.array([bin(mask).count("1") / m for mask in range(1 << m)]) ** 2
    assert not certified_submodular(make_table(m, tbl))  # supermodular
