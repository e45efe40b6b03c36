from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qhayd.errors import FieldMismatchError, ShapeError
from qhayd.fields import QQ, PrimeField
from qhayd.linalg import (
    Matrix,
    inverse,
    kernel_basis,
    kron,
    rank,
    solve,
    solve_unique,
)

F5 = PrimeField(5)


def qmat(rows):
    return Matrix.from_rows(QQ, [[Fraction(x) for x in r] for r in rows])


def fmat(field, rows):
    return Matrix.from_rows(field, [[field.from_int(x) for x in r] for r in rows])


def test_identity_multiplication():
    m = qmat([[1, 2], [3, 4]])
    assert Matrix.identity(QQ, 2) @ m == m
    assert m @ Matrix.identity(QQ, 2) == m


def test_f5_identity_case():
    m = fmat(F5, [[2, 3], [1, 4]])
    assert m @ Matrix.identity(F5, 2) == m


def test_rational_product_half_times_two_thirds():
    # hand multiplication: 1/2 * 2/3 = 1/3
    a = qmat([["1/2"]])
    b = qmat([["2/3"]])
    assert a @ b == qmat([["1/3"]])


def test_shape_and_field_mismatch_errors():
    with pytest.raises(ShapeError):
        qmat([[1, 2]]) @ qmat([[1, 2]])
    with pytest.raises(FieldMismatchError):
        qmat([[1]]) @ fmat(F5, [[1]])


def test_kernel_of_zero_matrix_spans_everything():
    k = kernel_basis(Matrix.zeros(QQ, 2, 2))
    assert k.cols == 2
    assert rank(k) == 2


def test_kernel_of_invertible_matrix_is_trivial():
    k = kernel_basis(qmat([[1, 1], [0, 1]]))
    assert k.cols == 0


def test_kernel_of_row_vector():
    # solve by hand: x + y = 0 has kernel spanned by (1, -1)
    k = kernel_basis(qmat([[1, 1]]))
    assert k.cols == 1
    v = k.col(0)
    assert v[0] == -v[1] and v[0] != 0


def test_solve_identity_and_scalar():
    b = qmat([[3], [4]])
    sol = solve(Matrix.identity(QQ, 2), b)
    assert sol.particular == b and sol.kernel.cols == 0
    # 2x = 1 => x = 1/2
    assert solve_unique(qmat([[2]]), qmat([[1]])) == qmat([["1/2"]])


def test_solve_inconsistent_signals_none():
    a = qmat([[1], [1]])
    b = qmat([[0], [1]])
    assert solve(a, b) is None


def test_kron_identity():
    assert kron(Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 6)


def test_kron_hand_expansion():
    # manual Kronecker expansion of [[1,2],[3,4]] (x) [[0,1/2],[1,0]]
    a = qmat([[1, 2], [3, 4]])
    b = qmat([[0, "1/2"], [1, 0]])
    expected = qmat(
        [
            [0, "1/2", 0, 1],
            [1, 0, 2, 0],
            [0, "3/2", 0, 2],
            [3, 0, 4, 0],
        ]
    )
    assert kron(a, b) == expected


small_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def random_qq_matrix(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    data = draw(
        st.lists(
            st.lists(small_entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return qmat(data)


@st.composite
def random_f5_matrix(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    data = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=4), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return fmat(F5, data)


@settings(max_examples=60, deadline=None)
@given(random_qq_matrix())
def test_rank_nullity_over_qq(a):
    k = kernel_basis(a)
    assert rank(a) + k.cols == a.cols
    if k.cols:
        assert (a @ k).is_zero()
        assert rank(k) == k.cols


@settings(max_examples=60, deadline=None)
@given(random_f5_matrix())
def test_rank_nullity_over_f5(a):
    k = kernel_basis(a)
    assert rank(a) + k.cols == a.cols
    if k.cols:
        assert (a @ k).is_zero()


@settings(max_examples=40, deadline=None)
@given(random_qq_matrix(), small_entries)
def test_solve_recovers_constructed_solution(a, seed):
    x = Matrix.from_rows(
        QQ, [[Fraction(seed + j - i)] for i, j in zip(range(a.cols), range(a.cols))]
    )
    b = a @ x
    sol = solve(a, b)
    assert sol is not None
    assert a @ sol.particular == b


def test_inverse():
    a = qmat([[2, 1], [1, 1]])
    ainv = inverse(a)
    assert a @ ainv == Matrix.identity(QQ, 2)
    assert inverse(qmat([[1, 1], [1, 1]])) is None
