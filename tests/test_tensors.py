from fractions import Fraction
from itertools import product

import pytest

from qhayd.errors import ShapeError
from qhayd.fields import QQ
from qhayd.tensors import (
    Tensor,
    flat_index,
    unflat_index,
)


def test_flat_unflat_round_trip_small():
    for n in range(1, 5):
        for k in range(1, 5):
            dims = (n,) * k
            for idx in product(range(n), repeat=k):
                assert unflat_index(flat_index(idx, dims), dims) == idx


def test_leftmost_slot_most_significant():
    assert flat_index((1, 0), (2, 3)) == 3
    assert flat_index((0, 1), (2, 3)) == 1


def test_tensor_shape_guard():
    with pytest.raises(ShapeError):
        Tensor(QQ, 2, 3, (QQ.zero(),) * 7)


def test_tensor_nonzeros():
    t = Tensor(QQ, 2, 2, (Fraction(0), Fraction(1), Fraction(0), Fraction(4)))
    assert t.nonzeros() == [((0, 1), Fraction(1)), ((1, 1), Fraction(4))]
