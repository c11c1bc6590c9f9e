"""Every entry point that takes an atom count, an index, a subset, a size or a
seed reads it by one rule (``capacity.check_integer``): an integer, numpy's
too, inside the entry point's range.  A bool, a float (2.0 included), a
string and None are refused with the entry point's own error class, never a
bare ``TypeError``, and a numpy integer gives the Python int's result.
"""

import numpy as np
import pytest

from choqbern import (ConstructionError, Grid, InputError, RandomFunction, SeededStream,
                      build_family, capacity_from_spec, make_table, sample_rows,
                      subset_table)
from choqbern.capacity import as_mask

_GRID = Grid(1, 5)
_F = build_family("affine_noise", 3, 1)
_POSSIBILITY = {"type": "possibility", "lambda": [1.0, 0.5]}


def _coord(pts, atom):
    return pts[..., 0] + np.asarray(atom)


# entry point and argument -> (a call with the argument set to v, the error
# class, a legal value)
_ENTRY_POINTS = {
    "Grid dim": (lambda v: Grid(v, 5).coords, InputError, 1),
    "Grid points_per_axis": (lambda v: Grid(1, v).coords, InputError, 5),
    "RandomFunction atom_count":
        (lambda v: RandomFunction(v, 1, _coord).grid_tensor(_GRID), InputError, 3),
    "RandomFunction dim":
        (lambda v: RandomFunction(3, v, _coord).grid_tensor(_GRID), InputError, 1),
    "build_family m":
        (lambda v: build_family("affine_noise", v, 1).grid_tensor(_GRID), InputError, 3),
    "build_family dim":
        (lambda v: build_family("step_noise", 3, v).grid_tensor(_GRID), InputError, 1),
    "as_mask bitmask": (lambda v: as_mask(v, 3), InputError, 5),
    "as_mask index": (lambda v: as_mask([0, v], 3), InputError, 2),
    "make_table m": (lambda v: make_table(v, [0.0, 1.0]).form.values, ConstructionError, 1),
    # a string key is an index iterable, whose index '1' is refused as a bad table too
    "make_table key": (lambda v: make_table(1, {v: 1.0, 0: 0.0}).form.values,
                       ConstructionError, 1),
    "RandomFunction.eval atom": (lambda v: _F.eval(0.5, v), InputError, 2),
    "SeededStream master_seed":
        (lambda v: SeededStream(v, 7).generator().random(3), InputError, 3),
    "SeededStream stream_index":
        (lambda v: SeededStream(7, v).generator().random(3), InputError, 3),
    "sample_rows count": (lambda v: sample_rows(5, 1, v), InputError, 2),
    "sample_rows master_seed": (lambda v: sample_rows(5, v, 2), InputError, 3),
    "sample_rows start_index": (lambda v: sample_rows(5, 1, 2, start_index=v), InputError, 3),
    "capacity_from_spec atoms":
        (lambda v: subset_table(capacity_from_spec({"atoms": v, "repr": _POSSIBILITY})),
         ConstructionError, 2),
}

_NOT_INTEGERS = [True, np.True_, 1.5, 2.0, "1", None]


# None is a subset, every atom, and an "atoms" of null is a count not given
_NONE_IS_LEGAL = ("as_mask bitmask", "capacity_from_spec atoms")


@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry in _ENTRY_POINTS for value in _NOT_INTEGERS
    if not (entry in _NONE_IS_LEGAL and value is None)])
def test_an_integer_input_refuses_what_is_not_an_integer(entry, value):
    call, error, _ = _ENTRY_POINTS[entry]
    with pytest.raises(error, match="must be an integer"):
        call(value)


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_a_numpy_integer_input_is_its_python_int(entry):
    call, _, legal = _ENTRY_POINTS[entry]
    assert np.array_equal(call(np.int64(legal)), call(legal))


def test_a_zero_dimensional_array_is_a_scalar_subset():
    # numpy gives a 0-d array __iter__, but iterating one raises TypeError
    assert as_mask(np.array(3), 3) == as_mask(np.int64(3), 3) == 3
    for value in (np.array(2.5), np.array(True)):
        with pytest.raises(InputError, match="bitmask must be an integer"):
            as_mask(value, 3)
    assert as_mask(np.array([0, 2]), 3) == 5  # a 1-d array is an index iterable


def test_an_index_key_out_of_range_is_a_construction_error():
    # the table's other bad keys are rows of the table above
    with pytest.raises(ConstructionError, match=r"atom index must be an integer in \[0, 1\)"):
        make_table(1, {(5,): 1.0, 0: 0.0})
