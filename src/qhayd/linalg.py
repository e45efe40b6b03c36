"""Exact linear algebra over the rationals and prime fields.

Matrices are immutable, dense and row-major.  Elimination (``rref``, and
through it ``solve``, ``kernel_basis`` and ``inverse``) is one sparse
Gauss-Jordan shared by both fields: the systems it meets are mostly zeros,
so it works on the nonzero entries of each row only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import FieldMismatchError, InconsistentSystemError, ShapeError
from .fields import Field

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


def rref(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices.

    Sparse Gauss-Jordan over rows held as ``{col: value}``: pivots are taken
    lowest column first, among the candidate rows the one with the fewest
    nonzeros, and each new pivot row is cleared from every other row.  The
    same code serves every field; the RREF is unique, so the row choice
    changes only the work done, never the result.
    """
    field = a.field
    pending = []
    for i in range(a.rows):
        row = {j: x for j, x in enumerate(a.row(i)) if x}
        if row:
            pending.append(row)
    done = []  # reduced pivot rows, in pivot order
    pivots = []
    one = field.one()
    for c in range(a.cols):
        if not pending:
            break
        cands = [k for k, row in enumerate(pending) if c in row]
        if not cands:
            continue
        prow = pending.pop(min(cands, key=lambda k: len(pending[k])))
        inv = one / prow[c]
        prow = {j: x * inv for j, x in prow.items()}
        for row in done + pending:
            f = row.get(c)
            if f:
                for j, x in prow.items():
                    y = row.get(j)
                    y = -(f * x) if y is None else y - f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
        pending = [row for row in pending if row]
        done.append(prow)
        pivots.append(c)
    z = field.zero()
    flat = [z] * (a.rows * a.cols)
    for r, row in enumerate(done):
        for j, x in row.items():
            flat[r * a.cols + j] = x
    return Matrix(field, a.rows, a.cols, tuple(flat)), tuple(pivots)


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def kernel_basis(a: Matrix) -> Matrix:
    """Columns span the null space of a; column count = cols - rank."""
    return solve(a, Matrix.zeros(a.field, a.rows, 0)).kernel


@dataclass(frozen=True)
class Solution:
    """A particular solution plus a basis of the homogeneous kernel."""

    particular: Matrix  # cols x b_cols
    kernel: Matrix      # cols x (cols - rank)


def solve(a: Matrix, b: Matrix) -> Optional[Solution]:
    """Solve a @ X = b; None if inconsistent.

    One elimination: on a consistent system the left block of the RREF of
    ``[a | b]`` is the RREF of ``a``, so it also gives the kernel.
    """
    a._check_same_field(b)
    if a.rows != b.rows:
        raise ShapeError(f"solve: {a.rows} equations vs {b.rows} right-hand rows")
    red, pivots = rref(hstack([a, b]))
    n, m = a.cols, b.cols
    if pivots and pivots[-1] >= n:
        return None
    z, o = a.field.zero(), a.field.one()
    part = [z] * (n * m)
    for r, c in enumerate(pivots):
        part[c * m : (c + 1) * m] = red.row(r)[n:]
    free = sorted(set(range(n)) - set(pivots))
    k = len(free)
    kern = [z] * (n * k)
    for t, f in enumerate(free):
        kern[f * k + t] = o
        for r, c in enumerate(pivots):
            kern[c * k + t] = -red.at(r, f)
    return Solution(Matrix(a.field, n, m, tuple(part)), Matrix(a.field, n, k, tuple(kern)))


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
