from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qhayd import linalg
from qhayd.ayd import compat_i_forms, compat_ii_forms
from qhayd.ayd_solve import _linear_system
from qhayd.errors import FieldMismatchError, ShapeError
from qhayd.fields import QQ, PrimeField, RationalField
from qhayd.linalg import (
    Matrix,
    Solution,
    hstack,
    inverse,
    kernel_basis,
    kron,
    rank,
    rref,
    solve,
    solve_unique,
)
from qhayd.zoo import build_entry

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


# -- the dense elimination routines that preceded the sparse rref: oracle ----


def _clear_denominators(row):
    """Scale a row of Fractions to integers (returned as Fractions with denominator 1)."""
    lcm = 1
    for x in row:
        d = x.denominator
        lcm = lcm * d // gcd(lcm, d)
    if lcm == 1:
        return row
    c = Fraction(lcm)
    return [x * c for x in row]


def _rref_bareiss(field, rows):
    """Fraction-free forward elimination, then exact back substitution to RREF."""
    rows = [_clear_denominators(list(r)) for r in rows]
    n = len(rows)
    m = len(rows[0]) if n else 0
    pivots = []
    prev = Fraction(1)
    r = 0
    for c in range(m):
        pr = None
        for i in range(r, n):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, n):
            fi = rows[i][c]
            for j in range(m):
                rows[i][j] = (piv * rows[i][j] - fi * rows[r][j]) / prev
        prev = piv
        pivots.append(c)
        r += 1
        if r == n:
            break
    # normalize pivot rows and eliminate above pivots
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        piv = rows[k][c]
        rows[k] = [x / piv for x in rows[k]]
        for i in range(k):
            f = rows[i][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    return rows, pivots


def _rref_modp(field, rows):
    rows = [list(r) for r in rows]
    n = len(rows)
    m = len(rows[0]) if n else 0
    pivots = []
    r = 0
    for c in range(m):
        pr = None
        for i in range(r, n):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.one() / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows, pivots


def dense_rref(a):
    if a.rows == 0:
        return a, ()
    rows_list = [list(a.row(i)) for i in range(a.rows)]
    if isinstance(a.field, RationalField):
        rows, pivots = _rref_bareiss(a.field, rows_list)
    else:
        rows, pivots = _rref_modp(a.field, rows_list)
    return Matrix.from_rows(a.field, rows), tuple(pivots)


def dense_kernel_basis(a):
    red, pivots = dense_rref(a)
    piv_set = set(pivots)
    free = [c for c in range(a.cols) if c not in piv_set]
    z, o = a.field.zero(), a.field.one()
    cols = []
    for f in free:
        v = [z] * a.cols
        v[f] = o
        for r, c in enumerate(pivots):
            v[c] = -red.at(r, f)
        cols.append(v)
    if not cols:
        return Matrix.zeros(a.field, a.cols, 0)
    return Matrix.from_rows(a.field, [[col[i] for col in cols] for i in range(a.cols)])


def dense_solve(a, b):
    """(particular, kernel) of a @ X = b, or None when inconsistent."""
    red, pivots = dense_rref(hstack([a, b]))
    if any(c >= a.cols for c in pivots):
        return None
    z = a.field.zero()
    part = [[z] * b.cols for _ in range(a.cols)]
    for r, c in enumerate(pivots):
        for j in range(b.cols):
            part[c][j] = red.at(r, a.cols + j)
    particular = Matrix.from_rows(a.field, part) if a.cols else Matrix.zeros(a.field, 0, b.cols)
    return particular, dense_kernel_basis(a)


fields = st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)])


def scalars(field):
    if field == QQ:
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return st.integers(0, field.p - 1).map(field.from_int)


@st.composite
def matrices(draw, field, rows=None, cols=None):
    """Dense draws, sparse draws (a few nonzeros), zero rows and columns."""
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(0, 6)) if cols is None else cols
    z = field.zero()
    if draw(st.booleans()):
        entries = draw(st.lists(scalars(field), min_size=rows * cols, max_size=rows * cols))
    else:
        entries = [z] * (rows * cols)
        if rows * cols:
            spots = st.tuples(st.integers(0, rows * cols - 1), scalars(field))
            for k, x in draw(st.lists(spots, max_size=rows + cols)):
                entries[k] = x
    return Matrix(field, rows, cols, tuple(entries))


@st.composite
def systems(draw):
    """a, b with b either arbitrary (often inconsistent) or a @ x (consistent)."""
    field = draw(fields)
    a = draw(matrices(field))
    bcols = draw(st.integers(1, 3))
    if draw(st.booleans()):
        b = draw(matrices(field, a.rows, bcols))
    else:
        b = a @ draw(matrices(field, a.cols, bcols))
    return a, b


@settings(max_examples=150, deadline=None)
@given(fields.flatmap(matrices))
def test_rref_and_kernel_match_dense_elimination(a):
    assert rref(a) == dense_rref(a)
    assert kernel_basis(a) == dense_kernel_basis(a)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_matches_dense_elimination(system):
    a, b = system
    sol = solve(a, b)
    expected = dense_solve(a, b)
    if expected is None:
        assert sol is None
    else:
        assert (sol.particular, sol.kernel) == expected


@st.composite
def rebased_solutions(draw):
    """solve's pair for a consistent system, and the same affine space given
    by the kernel basis K . G (G = L . U, L unit lower triangular, U upper
    triangular with a nonzero diagonal) and the particular solution p + K . c."""
    field = draw(fields)
    a = draw(matrices(field))
    bcols = draw(st.integers(1, 2))
    sol = solve(a, a @ draw(matrices(field, a.cols, bcols)))
    e, zero, one = sol.kernel.cols, field.zero(), field.one()
    nonzero = scalars(field).filter(bool)
    lower = [[one if i == j else draw(scalars(field)) if i > j else zero for j in range(e)]
             for i in range(e)]
    upper = [[draw(nonzero) if i == j else draw(scalars(field)) if i < j else zero
              for j in range(e)] for i in range(e)]
    g = Matrix.from_rows(field, lower) @ Matrix.from_rows(field, upper)
    c = draw(matrices(field, e, bcols))
    return sol, Solution(sol.particular + sol.kernel @ c, sol.kernel @ g)


@settings(max_examples=150, deadline=None)
@given(rebased_solutions())
def test_as_solved_gives_solves_pair_back(case):
    sol, rebased = case
    assert linalg._as_solved(rebased) == sol


def test_as_solved_on_the_empty_space_a_point_and_dependent_columns():
    assert linalg._as_solved(solve(qmat([[1, 1], [1, 1]]), qmat([[1], [2]]))) is None
    point = solve(qmat([[1, 0], [1, 1]]), qmat([[1], [2]]))
    assert point.kernel.cols == 0
    assert linalg._as_solved(Solution(point.particular, point.kernel)) == point
    k = qmat([[1, 2], [0, 0], [1, 2]])
    with pytest.raises(ShapeError):
        linalg._as_solved(Solution(qmat([[0], [0], [0]]), k))


@settings(max_examples=80, deadline=None)
@given(fields.flatmap(lambda f: st.integers(0, 5).flatmap(lambda n: matrices(f, n, n))))
def test_inverse_matches_dense_elimination(a):
    expected = dense_solve(a, Matrix.identity(a.field, a.rows))
    if expected is None or expected[1].cols:
        assert inverse(a) is None
    else:
        assert inverse(a) == expected[0]


def test_solve_and_inverse_eliminate_once(monkeypatch):
    calls = []
    real = linalg.rref

    def counting(a):
        calls.append(a.cols)
        return real(a)

    monkeypatch.setattr(linalg, "rref", counting)
    a = qmat([[1, 2, 0], [2, 4, 0], [0, 1, 1]])
    assert solve(a, qmat([[1], [2], [3]])).kernel.cols == 1
    assert calls == [4]
    assert inverse(qmat([[2, 1], [1, 1]])) is not None
    assert calls == [4, 4]



def _zoo_systems(entry, max_unknowns):
    for m in entry.modules.values():
        if m.dim * m.h.dim * m.dim > max_unknowns:
            continue
        for forms, with_alpha in ((compat_i_forms, False), (compat_ii_forms, True)):
            yield _linear_system(m, forms, with_alpha)


def test_solve_matches_dense_elimination_on_zoo_systems(zoo_entry):
    # larger systems take the dense oracle seconds over Q; h4's run over F_5 below
    for a, b in _zoo_systems(zoo_entry, max_unknowns=27):
        sol = solve(a, b)
        assert (sol.particular, sol.kernel) == dense_solve(a, b)


def test_solve_matches_dense_elimination_on_h4_systems_over_f5():
    for a, b in _zoo_systems(build_entry("h4", F5), max_unknowns=64):
        sol = solve(a, b)
        assert (sol.particular, sol.kernel) == dense_solve(a, b)
