"""Finite capacity spaces: nonadditive set functions on a finite ground set.

A capacity assigns a value in [0, 1] to every subset of a finite set of
atoms, is zero on the empty set, one on the full set, and monotone under
inclusion.  Three representations are supported: an explicit table over
all subsets, a distorted probability u(P) for a nondecreasing concave
distortion u, and a possibility measure induced by a pointwise
distribution.  Subsets are bitmasks over atom indices, or rows of a
boolean membership array for ``eval_sets``, the one place that holds each
representation's set rule.

All objects are immutable after construction (the only internal mutation
is memoization of the full subset table and of the submodularity
verdict), so they are safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

TOL = 1e-12

# dyadic probe grid on which distortion invariants are verified
PROBE_POINTS = 1025
_PROBE = np.arange(PROBE_POINTS) / (PROBE_POINTS - 1)


class ConstructionError(ValueError):
    """A capacity component violates one of its construction invariants."""


class InputError(ValueError):
    """An argument to a capacity operation is out of range."""


def check_integer(value, what: str, lo: int, hi: int | None = None,
                  error: type[ValueError] = InputError) -> int:
    """``value`` as an int, refused with ``error`` unless it is an integer in
    [lo, hi) (no upper bound when ``hi`` is None).

    Any ``numbers.Integral`` is an integer, numpy's too; a bool is not, nor a
    float, 2.0 included: int() would read True as 1 and truncate 2.5 to 2.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) \
            and lo <= value and (hi is None or value < hi):
        return int(value)
    span = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
    if hi is not None and hi >= 1 << 32 and hi & (hi - 1) == 0:
        span = f"in [{lo}, 2**{hi.bit_length() - 1})"  # a seed's bound, not 20 digits
    raise error(f"{what} must be an integer {span}, got {value!r}")


TABLE_ATOM_LIMIT = 20  # most atoms whose 2**M subset table is built


class CapacityTooLargeError(ValueError):
    """Exhaustive subset enumeration was requested for more than 20 atoms."""


def as_mask(subset: Union[int, Iterable[int], None], m: int, error=InputError) -> int:
    """Normalize a subset (bitmask int, index iterable, or None for all); a bad
    one is refused with ``error``."""
    if subset is None:
        return (1 << m) - 1
    if isinstance(subset, np.ndarray):  # a 0-d array is a scalar, not an index iterable
        subset = subset.tolist()
    if not isinstance(subset, Iterable):
        return check_integer(subset, "bitmask", 0, 1 << m, error)
    # distinct powers of two: their sum is their union
    return sum({1 << check_integer(i, "atom index", 0, m, error) for i in subset})


def as_members(subset: Union[int, Iterable[int], None], m: int) -> np.ndarray:
    """Boolean (m,) membership of a subset given as for ``as_mask``."""
    mask = as_mask(subset, m)
    packed = np.frombuffer(mask.to_bytes(-(-m // 8), "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=m, bitorder="little").astype(bool)


@dataclass(frozen=True)
class Distortion:
    """Nondecreasing concave distortion u with u(0)=0, u(1)=1.

    ``derivative_at_zero`` is ``math.inf`` for power distortions with
    exponent below one; bounds that require a finite slope reject those.
    For custom tables the slope is a forward-difference estimate and
    ``derivative_estimated`` is set.
    """

    kind: str
    fn: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    derivative_at_zero: float
    params: tuple[float, ...] = ()
    derivative_estimated: bool = False

    def __call__(self, t):
        out = self.fn(np.asarray(t, dtype=float))
        if np.ndim(t) == 0:
            return float(out)
        return out


def _validate_distortion(kind: str, fn) -> None:
    vals = fn(_PROBE)
    if not np.isfinite(vals).all():
        raise ConstructionError(f"distortion '{kind}': not finite on probe grid")
    if abs(float(vals[0])) > TOL or abs(float(vals[-1]) - 1.0) > TOL:
        raise ConstructionError(f"distortion '{kind}': needs u(0)=0 and u(1)=1")
    if np.any(np.diff(vals) < -TOL):
        raise ConstructionError(f"distortion '{kind}': not nondecreasing on probe grid")
    # midpoint concavity over all same-parity probe pairs (their midpoint is
    # again a probe point), taken by half-gap h: the pair (c - h, c + h)
    for h in range(1, PROBE_POINTS // 2 + 1):
        if np.any(vals[h:-h] < (vals[:-2 * h] + vals[2 * h:]) / 2.0 - TOL):
            raise ConstructionError(f"distortion '{kind}': not concave on probe grid")


def make_distortion(kind: str, **params) -> Distortion:
    """Build one of the named distortions; a custom table, or a power above
    one, has its invariants validated on a probe grid."""
    if kind == "power":
        alpha = float(params.pop("alpha", 0.5))
        if alpha <= 0:
            raise ConstructionError("power distortion needs alpha > 0")
        fn = lambda t, a=alpha: np.power(t, a)
        dz = 1.0 if alpha == 1.0 else (math.inf if alpha < 1.0 else 0.0)
        dist = Distortion("power", fn, dz, (alpha,))
    elif kind == "rational_2t":
        dist = Distortion("rational_2t", lambda t: 2.0 * t / (t + 1.0), 2.0)
    elif kind == "exp_decay":
        c = 1.0 - math.exp(-1.0)
        dist = Distortion("exp_decay", lambda t, c=c: -np.expm1(-t) / c, 1.0 / c)
    elif kind == "log2":
        dist = Distortion("log2", lambda t: np.log1p(t) / math.log(2.0), 1.0 / math.log(2.0))
    elif kind == "sine":
        dist = Distortion("sine", lambda t: np.sin(0.5 * math.pi * t), 0.5 * math.pi)
    elif kind == "arctan":
        dist = Distortion("arctan", lambda t: (4.0 / math.pi) * np.arctan(t), 4.0 / math.pi)
    elif kind == "custom_table":
        xs = np.asarray(params.pop("xs"), dtype=float)
        ys = np.asarray(params.pop("ys"), dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
            raise ConstructionError("custom_table needs matching xs/ys vectors")
        if not np.all(np.diff(xs) > 0):
            raise ConstructionError("custom_table xs must be strictly increasing")
        fn = lambda t, xs=xs, ys=ys: np.interp(t, xs, ys)
        h = 2.0 ** -20
        dist = Distortion("custom_table", fn, float(fn(np.array(h)) / h),
                          derivative_estimated=True)
    else:
        raise ConstructionError(f"unknown distortion kind '{kind}'")
    if params:
        raise ConstructionError(f"unexpected distortion parameters {sorted(params)}")
    # the other kinds, and t^alpha for alpha <= 1, are nondecreasing and
    # concave with u(0) = 0 and u(1) = 1 by their formulas
    if kind == "custom_table" or (kind == "power" and not alpha <= 1.0):
        _validate_distortion(dist.kind, dist.fn)
    return dist


def _unit_vector(values, name: str) -> np.ndarray:
    """``values`` as a nonempty vector in [0, 1] (within ``TOL``), which NaN is not."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ConstructionError(f"{name} must be a nonempty vector")
    if not np.all((v >= -TOL) & (v <= 1 + TOL)):
        raise ConstructionError(f"{name} must lie in [0, 1]")
    return v


@dataclass(frozen=True, eq=False)
class TableRepr:
    values: np.ndarray  # length 2**M, indexed by bitmask


@dataclass(frozen=True)
class DistortedRepr:
    """u(P) for probability weights P over the atoms."""

    distortion: Distortion
    weights: tuple[float, ...]

    def __post_init__(self):
        w = _unit_vector(self.weights, "weights")
        if abs(float(w.sum()) - 1.0) > TOL:
            raise ConstructionError(f"weights sum to {w.sum()}, expected 1")


@dataclass(frozen=True)
class PossibilityRepr:
    """Per-atom possibility levels; the largest level must be one."""

    levels: tuple[float, ...]

    def __post_init__(self):
        lam = _unit_vector(self.levels, "levels")
        if abs(float(lam.max()) - 1.0) > TOL:
            raise ConstructionError(f"max level is {lam.max()}, expected 1")


@dataclass(eq=False)
class Capacity:
    """A normalized monotone set function over a finite set of atoms.

    The atom count is read from the form.  Treat instances as immutable;
    the mutable fields memoize the full subset table for vectorized
    consumers and ``certified_submodular``'s verdict.
    """

    form: Union[TableRepr, DistortedRepr, PossibilityRepr]
    _table: np.ndarray | None = field(default=None, repr=False)
    _certified: bool | None = field(default=None, repr=False)

    @property
    def atom_count(self) -> int:
        form = self.form
        if isinstance(form, TableRepr):
            return form.values.size.bit_length() - 1
        return len(form.weights if isinstance(form, DistortedRepr) else form.levels)


def make_table(m: int,
               values: Union[Mapping[int, float], Sequence[float], np.ndarray]) -> Capacity:
    """Explicit-table capacity on ``m`` atoms; the table must be total and monotone."""
    m = check_integer(m, "atom count", 1, error=ConstructionError)
    n = 1 << m
    if isinstance(values, Mapping):
        tbl, given = np.zeros(n), np.zeros(n, dtype=bool)
        for key, v in values.items():
            mask = (as_mask(key, m, ConstructionError) if isinstance(key, Iterable)
                    else check_integer(key, "table key", 0, n, error=ConstructionError))
            tbl[mask], given[mask] = float(v), True
        if not given.all():
            missing = int(np.flatnonzero(~given)[0])
            raise ConstructionError(f"table is not total: subset mask {missing} missing")
    else:
        tbl = np.asarray(values, dtype=float).copy()
        if tbl.shape != (n,):
            raise ConstructionError(f"table needs {n} entries, got {tbl.shape}")
    if abs(tbl[0]) > TOL:
        raise ConstructionError("table value on the empty set must be 0")
    if abs(tbl[n - 1] - 1.0) > TOL:
        raise ConstructionError("table value on the full set must be 1")
    if not np.all((tbl >= -TOL) & (tbl <= 1 + TOL)):  # NaN does not
        raise ConstructionError("table values must lie in [0, 1]")
    if not _monotone(tbl.reshape((2,) * m), TOL):
        raise ConstructionError("table is not monotone under inclusion")
    tbl.setflags(write=False)
    return Capacity(TableRepr(tbl))


def make_distorted(u: Distortion, weights: Sequence[float]) -> Capacity:
    """Distorted probability u(P); concavity of u makes it submodular."""
    return Capacity(DistortedRepr(u, tuple(float(w) for w in weights)))


def make_possibility(levels: Sequence[float]) -> Capacity:
    """Possibility measure A -> max of the levels over A."""
    return Capacity(PossibilityRepr(tuple(float(v) for v in levels)))


def _fold(cap: Capacity, acc: np.ndarray, grow: Callable, empty) -> np.ndarray:
    """The set rule of the distorted and possibility forms, folded over the atoms.

    A set's accumulator starts from 0 and takes its atoms in ascending order:
    a mass adds each weight, a possibility level keeps the largest.
    ``grow(acc, grown, i)`` puts atom i into the sets, given every accumulator
    grown by it, so ``subset_table``'s doubling and ``eval_sets``' masked rows
    give each set the same bits.  A distorted value is u(clip(mass, 0, 1)),
    and 0 on the ``empty`` sets.
    """
    form = cap.form
    distorted = isinstance(form, DistortedRepr)
    for i in range(cap.atom_count):
        acc = grow(acc, acc + form.weights[i] if distorted
                   else np.maximum(acc, form.levels[i]), i)
    if not distorted:
        return acc
    # weights carry a 1e-12 construction tolerance; keep the mass inside
    # the distortion's domain
    out = np.asarray(form.distortion(np.clip(acc, 0.0, 1.0)), dtype=float)
    out[empty] = 0.0
    return out


def eval_sets(cap: Capacity, member: np.ndarray) -> np.ndarray:
    """Capacity of each set in a (K, M) boolean membership array.

    A table is looked up by bitmask; the other forms need none, so any M
    works, and they agree bit for bit with ``subset_table``.
    """
    member = np.asarray(member, dtype=bool)
    if member.ndim != 2 or member.shape[1] != cap.atom_count:
        raise InputError(f"expected (K, {cap.atom_count}) membership rows, got {member.shape}")
    if isinstance(cap.form, TableRepr):
        return cap.form.values[member @ (np.int64(1) << np.arange(cap.atom_count))]
    return _fold(cap, np.zeros(len(member)),
                 lambda acc, grown, i: np.where(member[:, i], grown, acc),
                 ~member.any(axis=1))


def eval_capacity(cap: Capacity, subset: Union[int, Iterable[int], None]) -> float:
    """Value of the capacity on a subset (bitmask, index iterable, or None=all)."""
    return float(eval_sets(cap, as_members(subset, cap.atom_count)[None, :])[0])


def subset_table(cap: Capacity) -> np.ndarray:
    """Capacity values over all 2**M subsets, indexed by bitmask (memoized)."""
    if cap._table is not None:
        return cap._table
    m = cap.atom_count
    if m > TABLE_ATOM_LIMIT:
        raise CapacityTooLargeError(f"subset table for {m} atoms (limit {TABLE_ATOM_LIMIT})")
    if isinstance(cap.form, TableRepr):
        tbl = cap.form.values
    else:
        tbl = _fold(cap, np.zeros(1), lambda acc, grown, i: np.concatenate([acc, grown]), 0)
    tbl = np.ascontiguousarray(tbl, dtype=float)
    tbl.setflags(write=False)
    cap._table = tbl
    return tbl


@dataclass(frozen=True)
class PropertyReport:
    monotone: bool
    subadditive: bool
    submodular: bool
    mode: str


def _monotone(cube: np.ndarray, tol: float) -> bool:
    """No covering pair of the table as a (2,)*M ``cube`` has mu(A) > mu(A | {i}) + tol."""
    return not any(np.any(v[0] > v[1] + tol)
                   for v in (np.moveaxis(cube, i, 0) for i in range(cube.ndim)))


def subset_max(tbl: np.ndarray) -> np.ndarray:
    """out[B] = the largest tbl[A] over the subsets A of B, one running max per
    axis of the (2,)*M view, O(2**M M).  The superset-min is
    ``-subset_max(-tbl[::-1])[::-1]``: reversing a table complements every mask.
    """
    out = np.array(tbl, dtype=float)
    cube = out.reshape((2,) * (out.size.bit_length() - 1))
    for i in range(cube.ndim):
        v = np.moveaxis(cube, i, 0)
        np.maximum(v[1, ...], v[0, ...], out=v[1, ...])  # [1, ...]: 0-d views at M = 1
    return out


def _subset_max_monotone(tbl: np.ndarray) -> bool:
    """Whether mu(A) <= mu(B) + TOL for every A within B, in O(2**M M): each
    ``subset_max`` entry is one of the table's, so its comparisons are those
    of exhaustive mode."""
    return bool(np.all(subset_max(tbl) <= tbl + TOL))


def _local_walk(tbl: np.ndarray) -> bool:
    """Whether a 2**M table passes mu(A | {i}) + mu(A | {j}) >= mu(A | {i, j})
    + mu(A) for all A and i != j outside A, which is submodularity
    (Fujishige 2005; Schrijver 2003), O(2**M M**2).

    An exhaustive-mode inequality sums k <= floor(M**2 / 4) local ones
    (|A - B| |B - A| squares), so a local one allows TOL / max(1, M,
    floor(M**2 / 4)) - 12 eps, at most TOL / k - 12 eps.  Entries lie in
    [-TOL, 1 + TOL], so a comparison's three roundings add at most 6 eps, and
    k passing local ones leave slack <= TOL - 6 eps to the exhaustive one;
    near-ties may be refused here only.
    """
    m = tbl.size.bit_length() - 1
    cube, tol = tbl.reshape((2,) * m), TOL / max(1, m, m * m // 4) - 12 * np.finfo(float).eps
    return not any(
        np.any(v[1, 1] + v[0, 0] > v[1, 0] + v[0, 1] + tol)
        for v in (np.moveaxis(cube, (i, j), (0, 1)) for i in range(m) for j in range(i)))


def _pair_chunks(tbl: np.ndarray):
    """Every pair of subset masks of a 2**M table, chunk by chunk: a column
    ``a`` of about 2**22 / 2**M masks, their values ``ta`` and all the masks."""
    masks, chunk = np.arange(tbl.size, dtype=np.int64), max(1, (1 << 22) // tbl.size)
    for start in range(0, tbl.size, chunk):
        yield masks[start:start + chunk, None], tbl[start:start + chunk, None], masks


def check_properties(cap: Capacity, mode: str = "auto") -> PropertyReport:
    """Verify monotonicity, subadditivity and submodularity.

    ``analytic`` verdicts hold for distorted and possibility capacities, and
    ``auto`` takes them.  On a table, ``auto`` reads monotone from
    ``_subset_max_monotone``, which agrees with ``exhaustive``, and
    submodular from ``_local_walk``; ``exhaustive`` compares every pair of
    subsets, O(4**M).  Walk-submodular with entries >= 0 is subadditive, as
    mu(A | B) <= mu(A) + mu(B) - mu(A & B) + TOL - 6 eps; else (an entry in
    [-TOL, 0) breaks that step, as in (-TOL, 1/2 - 3 TOL / 5, 1/2 - 3 TOL / 5,
    1)) ``auto`` compares the pairs for subadditivity alone, with the bits of
    ``exhaustive``, and stops at the first chunk of pairs that violates it.
    """
    if mode not in ("auto", "analytic", "exhaustive"):
        raise InputError(f"unknown mode '{mode}'")
    if mode in ("auto", "analytic") and isinstance(cap.form, (DistortedRepr, PossibilityRepr)):
        return PropertyReport(True, True, True, "analytic")
    if mode == "analytic":
        raise InputError("analytic verdicts exist only for distorted/possibility forms")
    tbl = subset_table(cap)
    if mode == "auto":
        monotone, submodular = _subset_max_monotone(tbl), _local_walk(tbl)
        subadditive = (bool(submodular and tbl.min() >= 0)
                       or all(np.all(tbl[a | masks] <= ta + tbl + TOL)
                              for a, ta, masks in _pair_chunks(tbl)))
        return PropertyReport(monotone, subadditive, submodular, "local")
    monotone = subadditive = submodular = True
    for a, ta, masks in _pair_chunks(tbl):
        tu, ti = tbl[a | masks], tbl[a & masks]
        monotone = monotone and bool(np.all(((a & masks) != a) | (ta <= tbl + TOL)))
        subadditive = subadditive and bool(np.all(tu <= ta + tbl + TOL))
        submodular = submodular and bool(np.all(tu + ti <= ta + tbl + TOL))
    return PropertyReport(monotone, subadditive, submodular, "exhaustive")


def certified_submodular(cap: Capacity) -> bool:
    """Whether ``check_properties`` certifies ``cap`` submodular; memoized."""
    if cap._certified is None:
        cap._certified = (isinstance(cap.form, (DistortedRepr, PossibilityRepr))
                          or _local_walk(subset_table(cap)))
    return cap._certified


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def distortion_from_spec(obj: Mapping) -> Distortion:
    if "kind" not in obj:
        raise ConstructionError("distortion object missing key 'kind'")
    params = {k: v for k, v in obj.items() if k != "kind"}
    return make_distortion(str(obj["kind"]), **params)


# per repr type, its keys besides "type": the required one first
_REPR_KEYS = {"distorted": ("distortion", "weights"), "possibility": ("lambda",),
              "table": ("values",)}


def refuse_unknown_keys(obj: Mapping, where: str, known: Sequence[str]) -> None:
    """Refuse a key of the JSON object ``obj`` (named ``where``) not in ``known``."""
    if not isinstance(obj, Mapping):
        raise ConstructionError(f"{where} must be a JSON object, got {obj!r}")
    unknown = sorted(obj.keys() - set(known))
    if unknown:
        raise ConstructionError(f"unknown key {unknown[0]!r} in {where}; "
                                f"known: {', '.join(known)}")


def capacity_from_spec(obj: Mapping) -> Capacity:
    """Parse ``{"atoms": ..., "repr": {"type": ..., ...}}``; other keys are refused.

    ``atoms`` is an atom count (an integer >= 1) or a nonempty list of
    unique labels, which gives only its length; a "weights" or "lambda" list
    of another length is refused.
    Representation types are "table" (key "values": subset -> value, subsets
    as comma-joined atom indices, "" for the empty set), "distorted" (keys
    "distortion" and "weights") and "possibility" (key "lambda").
    """
    refuse_unknown_keys(obj, "capacity", ("atoms", "repr"))
    if "repr" not in obj:
        raise ConstructionError("capacity object missing key 'repr'")
    rep = obj["repr"]
    if "type" not in rep:
        raise ConstructionError("capacity repr missing key 'type'")
    kind = rep["type"]
    if kind not in _REPR_KEYS:
        raise ConstructionError(f"unknown capacity repr type '{kind}'")
    keys = _REPR_KEYS[kind]
    refuse_unknown_keys(rep, "capacity.repr", ("type", *keys))
    if keys[0] not in rep:
        raise ConstructionError(f"{kind} capacity missing key '{keys[0]}'")
    m = obj.get("atoms")
    if isinstance(m, list):
        if len({str(a) for a in m}) != len(m):
            raise ConstructionError("atom labels must be unique")
        m = len(m)
    if m is not None:
        m = check_integer(m, "capacity 'atoms' (a count, or the length of a label list)",
                          1, error=ConstructionError)
    if kind == "table":
        if m is None:
            raise ConstructionError("table capacity missing key 'atoms'")
        return make_table(m, {tuple(int(s) for s in str(key).split(",") if s.strip()): v
                              for key, v in rep["values"].items()})
    if kind == "possibility":
        cap = make_possibility(rep["lambda"])
    else:
        u = distortion_from_spec(rep["distortion"])
        if "weights" not in rep and m is None:
            raise ConstructionError("distorted capacity missing key 'weights'")
        cap = make_distorted(u, rep["weights"] if "weights" in rep else [1.0 / m] * m)
    if m is not None and cap.atom_count != m:
        raise ConstructionError(f"'{keys[-1]}' has {cap.atom_count} entries for {m} atoms")
    return cap
