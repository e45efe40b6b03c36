"""Dense exact linear algebra over the rationals and prime fields.

Matrices are immutable and row-major.  Elimination over the rationals is
fraction-free (Bareiss) after clearing row denominators, which keeps
intermediate entries integral; over F_p plain Gauss-Jordan is used.
Target dimensions are small (<= a few hundred rows), so everything is dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .errors import FieldMismatchError, InconsistentSystemError, ShapeError
from .fields import Field, RationalField

__all__ = [
    "Matrix",
    "Solution",
    "kron",
    "hstack",
    "vstack",
    "rref",
    "rank",
    "kernel_basis",
    "solve",
    "solve_unique",
    "inverse",
]


@dataclass(frozen=True)
class Matrix:
    field: Field
    rows: int
    cols: int
    entries: tuple  # row-major, length rows*cols

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        flat = []
        for r in rows:
            if len(r) != m:
                raise ShapeError("ragged rows")
            for x in r:
                if not field.contains(x):
                    raise FieldMismatchError(f"entry {x!r} not in {field!r}")
            flat.extend(r)
        return cls(field, n, m, tuple(flat))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return cls(field, n, n, tuple(o if i == j else z for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return cls(field, rows, cols, (z,) * (rows * cols))

    @classmethod
    def column(cls, field: Field, vec) -> "Matrix":
        vec = tuple(vec)
        return cls(field, len(vec), 1, vec)

    @classmethod
    def row_matrix(cls, field: Field, vec) -> "Matrix":
        vec = tuple(vec)
        return cls(field, 1, len(vec), vec)

    # -- access ------------------------------------------------------------

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def rows_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    # -- arithmetic ---------------------------------------------------------

    def _check_same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field!r} vs {other.field!r}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix addition shape mismatch")
        return Matrix(
            self.field, self.rows, self.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix subtraction shape mismatch")
        return Matrix(
            self.field, self.rows, self.cols,
            tuple(a - b for a, b in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols, tuple(c * a for a in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        z = self.field.zero()
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = []
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            for j in range(m):
                acc = z
                for t in range(k):
                    x = arow[t]
                    if x:
                        acc = acc + x * b[t * m + j]
                out.append(acc)
        return Matrix(self.field, n, m, tuple(out))

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field, self.cols, self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def apply(self, vec) -> tuple:
        """Apply to a coordinate vector (length = cols)."""
        if len(vec) != self.cols:
            raise ShapeError(f"vector length {len(vec)} != cols {self.cols}")
        z = self.field.zero()
        out = []
        for i in range(self.rows):
            acc = z
            row = self.row(i)
            for t, x in enumerate(vec):
                if x:
                    acc = acc + row[t] * x
            out.append(acc)
        return tuple(out)

    def is_zero(self) -> bool:
        return all(not x for x in self.entries)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; the left factor indexes the most significant slot."""
    a._check_same_field(b)
    rows, cols = a.rows * b.rows, a.cols * b.cols
    out = [None] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            x = a.at(i, j)
            base_r, base_c = i * b.rows, j * b.cols
            for p in range(b.rows):
                dst = (base_r + p) * cols + base_c
                brow = b.entries[p * b.cols : (p + 1) * b.cols]
                for q in range(b.cols):
                    out[dst + q] = x * brow[q]
    return Matrix(a.field, rows, cols, tuple(out))


def hstack(mats) -> Matrix:
    mats = list(mats)
    field, rows = mats[0].field, mats[0].rows
    for m in mats[1:]:
        if m.rows != rows:
            raise ShapeError("hstack row mismatch")
        mats[0]._check_same_field(m)
    out = []
    for i in range(rows):
        for m in mats:
            out.extend(m.row(i))
    return Matrix(field, rows, sum(m.cols for m in mats), tuple(out))


def vstack(mats) -> Matrix:
    mats = list(mats)
    field, cols = mats[0].field, mats[0].cols
    flat = []
    for m in mats:
        if m.cols != cols:
            raise ShapeError("vstack column mismatch")
        mats[0]._check_same_field(m)
        flat.extend(m.entries)
    return Matrix(field, sum(m.rows for m in mats), cols, tuple(flat))


# -- elimination ------------------------------------------------------------


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


def rref(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices."""
    if a.rows == 0:
        return a, ()
    if isinstance(a.field, RationalField):
        rows, pivots = _rref_bareiss(a.field, a.rows_list())
    else:
        rows, pivots = _rref_modp(a.field, a.rows_list())
    return Matrix.from_rows(a.field, rows), tuple(pivots)


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def kernel_basis(a: Matrix) -> Matrix:
    """Columns span the null space of a; column count = cols - rank."""
    red, pivots = rref(a)
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


@dataclass(frozen=True)
class Solution:
    """A particular solution plus a basis of the homogeneous kernel."""

    particular: Matrix  # cols x b_cols
    kernel: Matrix      # cols x (cols - rank)


def solve(a: Matrix, b: Matrix) -> Optional[Solution]:
    """Solve a @ X = b; None if inconsistent."""
    a._check_same_field(b)
    if a.rows != b.rows:
        raise ShapeError(f"solve: {a.rows} equations vs {b.rows} right-hand rows")
    aug = hstack([a, b])
    red, pivots = rref(aug)
    for c in pivots:
        if c >= a.cols:
            return None
    z = a.field.zero()
    part = [[z] * b.cols for _ in range(a.cols)]
    for r, c in enumerate(pivots):
        for j in range(b.cols):
            part[c][j] = red.at(r, a.cols + j)
    return Solution(
        particular=Matrix.from_rows(a.field, part) if a.cols else Matrix.zeros(a.field, 0, b.cols),
        kernel=kernel_basis(a),
    )


def solve_unique(a: Matrix, b: Matrix) -> Matrix:
    """Solve a @ X = b, requiring a unique solution."""
    sol = solve(a, b)
    if sol is None:
        raise InconsistentSystemError("linear system has no solution")
    if sol.kernel.cols != 0:
        raise InconsistentSystemError("linear system is underdetermined")
    return sol.particular


def inverse(a: Matrix) -> Optional[Matrix]:
    """Exact inverse, or None when singular."""
    if a.rows != a.cols:
        raise ShapeError("only square matrices can be inverted")
    sol = solve(a, Matrix.identity(a.field, a.rows))
    if sol is None or sol.kernel.cols != 0:
        return None
    return sol.particular
