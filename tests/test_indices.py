import enum

import numpy as np
import pytest

from ghzpolytope.errors import InvalidArgumentError, UnsupportedSizeError
from ghzpolytope.indices import (
    Bipartition,
    all_bipartitions,
    check_qubit_count,
    from_bits,
    is_integer,
    to_bits,
)
from oracles import flip_subset


def test_enumerate_two_qubits():
    assert [to_bits(i, 2) for i in range(4)] == ["00", "01", "10", "11"]


def test_enumerate_one_qubit():
    assert [to_bits(i, 1) for i in range(2)] == ["0", "1"]


def test_enumerate_three_qubits_endpoints():
    assert to_bits(0, 3) == "000"
    assert to_bits(7, 3) == "111"


def test_flip_subset_single_bit():
    i, n = from_bits("000")
    assert to_bits(flip_subset(i, n, {1}), n) == "100"


def test_flip_subset_example():
    i, n = from_bits("000")
    assert to_bits(flip_subset(i, n, {2, 3}), n) == "011"


def test_flip_subset_composition_is_flip_all():
    i, n = from_bits("0101")
    s, t = {1, 3}, {2, 4}
    assert to_bits(flip_subset(flip_subset(i, n, s), n, t), n) == "1010"
    # flipping both sides of any bipartition flips every bit, on every index of small n
    for n in (2, 3, 4):
        d = 2**n
        for i in range(d):
            for bp in all_bipartitions(n):
                j = flip_subset(flip_subset(i, n, bp.subset), n, bp.complement)
                assert j == d - 1 - i


def test_flip_subset_bad_position():
    with pytest.raises(InvalidArgumentError):
        flip_subset(0, 3, {4})


def test_bipartition_canonicalization():
    bp = Bipartition(3, frozenset({2, 3}))
    assert bp.subset == frozenset({1})
    assert bp.complement == frozenset({2, 3})
    assert str(bp) == "1|23"


BAD_BIPARTITIONS = {
    "float-position": ((3, {1.0, 2}), InvalidArgumentError),
    "bool-position": ((3, {True}), InvalidArgumentError),
    "str-position": ((3, {"1"}), InvalidArgumentError),
    "float-n": ((2.5, {1}), InvalidArgumentError),
    "bool-n": ((True, {1}), InvalidArgumentError),
    "n-past-the-cap": ((17, {1}), UnsupportedSizeError),
    "one-qubit": ((1, {1}), InvalidArgumentError),
    "position-past-n": ((3, {4}), InvalidArgumentError),
    "int-subset": ((3, 1), InvalidArgumentError),
    "none-subset": ((3, None), InvalidArgumentError),
    "unhashable-position": ((3, [[1]]), InvalidArgumentError),
}


@pytest.mark.parametrize("args, error", BAD_BIPARTITIONS.values(), ids=BAD_BIPARTITIONS.keys())
def test_bipartition_refuses_non_integer_or_out_of_range_input(args, error):
    with pytest.raises(error):
        Bipartition(*args)


def test_bipartition_takes_numpy_integers():
    bp = Bipartition(np.int64(3), {np.int64(2), np.uint8(3)})
    assert type(bp.n) is int and all(type(k) is int for k in bp.subset)
    assert (str(bp), bp) == ("1|23", Bipartition(3, {1}))


def test_bipartition_rejects_trivial_sides():
    with pytest.raises(InvalidArgumentError):
        Bipartition(3, frozenset())
    with pytest.raises(InvalidArgumentError):
        Bipartition(3, frozenset({1, 2, 3}))


def test_all_bipartitions_count():
    for n in (2, 3, 4, 5):
        bps = list(all_bipartitions(n))
        assert len(bps) == 2 ** (n - 1) - 1
        assert len(set(bps)) == len(bps)
        assert all(1 in bp.subset for bp in bps)


def test_qubit_count_takes_numpy_integers_and_refuses_bools():
    for n in (3, np.int64(3), np.uint8(3)):
        assert type(check_qubit_count(n)) is int and check_qubit_count(n) == 3
    for bad in (True, np.True_, 3.0, "3", None):
        with pytest.raises(InvalidArgumentError, match="positive int"):
            check_qubit_count(bad)
    with pytest.raises(UnsupportedSizeError):
        check_qubit_count(np.int64(17))


class _Qubits(enum.IntEnum):
    THREE = 3


@pytest.mark.parametrize("value, expected", [
    (3, True), (-(10**30), True), (np.int64(3), True), (np.uint8(3), True), (_Qubits.THREE, True),
    (True, False), (np.bool_(True), False), (3.0, False), ("3", False), (None, False),
])
def test_is_integer_takes_ints_and_numpy_integers_not_bools(value, expected):
    assert is_integer(value) is expected
