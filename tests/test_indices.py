import numpy as np
import pytest

from ghzpolytope.errors import InvalidArgumentError, UnsupportedSizeError
from ghzpolytope.indices import (
    Bipartition,
    all_bipartitions,
    check_qubit_count,
    enumerate_indices,
    flip_all,
    flip_subset,
    from_bits,
    to_bits,
)


def test_enumerate_two_qubits():
    assert [to_bits(i, 2) for i in enumerate_indices(2)] == ["00", "01", "10", "11"]


def test_enumerate_one_qubit():
    assert [to_bits(i, 1) for i in enumerate_indices(1)] == ["0", "1"]


def test_enumerate_three_qubits_endpoints():
    idx = enumerate_indices(3)
    assert len(idx) == 8
    assert to_bits(idx[0], 3) == "000"
    assert to_bits(idx[-1], 3) == "111"


def test_enumerate_distinct():
    for n in (1, 4, 6):
        idx = enumerate_indices(n)
        assert len(set(idx)) == 2**n


def test_enumerate_out_of_range():
    with pytest.raises(InvalidArgumentError):
        enumerate_indices(0)
    with pytest.raises(UnsupportedSizeError):
        enumerate_indices(17)


def test_flip_all_example():
    i, n = from_bits("010")
    assert to_bits(flip_all(i, n), n) == "101"


def test_flip_all_zeros_to_ones():
    for n in (1, 3, 8):
        assert flip_all(0, n) == 2**n - 1


def test_flip_all_involution_and_no_fixed_point():
    for n in (1, 2, 4):
        for i in enumerate_indices(n):
            assert flip_all(flip_all(i, n), n) == i
            assert flip_all(i, n) != i


def test_flip_subset_single_bit():
    i, n = from_bits("000")
    assert to_bits(flip_subset(i, n, {1}), n) == "100"


def test_flip_subset_example():
    i, n = from_bits("000")
    assert to_bits(flip_subset(i, n, {2, 3}), n) == "011"


def test_flip_subset_composition_is_flip_all():
    i, n = from_bits("0101")
    s, t = {1, 3}, {2, 4}
    assert flip_subset(flip_subset(i, n, s), n, t) == flip_all(i, n)
    assert to_bits(flip_all(i, n), n) == "1010"
    # and on every index of small n
    for n in (2, 3, 4):
        for i in enumerate_indices(n):
            for bp in all_bipartitions(n):
                j = flip_subset(flip_subset(i, n, bp.subset), n, bp.complement)
                assert j == flip_all(i, n)


def test_flip_subset_bad_position():
    with pytest.raises(InvalidArgumentError):
        flip_subset(0, 3, {4})


def test_bipartition_canonicalization():
    bp = Bipartition(3, frozenset({2, 3}))
    assert bp.subset == frozenset({1})
    assert bp.complement == frozenset({2, 3})
    assert str(bp) == "1|23"


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
