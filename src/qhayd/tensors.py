"""Flat tensors over one base dimension and multi-index bookkeeping.

The index convention is fixed package-wide: for slots of sizes
(d_1, ..., d_k) the flat index of (i_1, ..., i_k) is
((i_1*d_2 + i_2)*d_3 + i_3)... -- the leftmost slot is most significant.
Hypercubic tensors (all slots of size n) store elements of k^(n^k), e.g.
the associator and its inverse as elements of H^(3).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FieldMismatchError, ShapeError
from .fields import Field

__all__ = [
    "Tensor",
    "flat_index",
    "unflat_index",
    "vec_zero",
    "basis_vec",
]


def flat_index(idx, dims) -> int:
    if len(idx) != len(dims):
        raise ShapeError(f"multi-index arity {len(idx)} != {len(dims)} slots")
    f = 0
    for i, d in zip(idx, dims):
        if not 0 <= i < d:
            raise ShapeError(f"index {i} out of range for slot size {d}")
        f = f * d + i
    return f


def unflat_index(flat: int, dims) -> tuple:
    idx = []
    for d in reversed(dims):
        idx.append(flat % d)
        flat //= d
    if flat:
        raise ShapeError("flat index out of range")
    return tuple(reversed(idx))


@dataclass(frozen=True)
class Tensor:
    """An element of V^(x)k with dim(V) = base_dim, stored as flat coefficients."""

    field: Field
    base_dim: int
    order: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.base_dim ** self.order:
            raise ShapeError(
                f"tensor of order {self.order} over dim {self.base_dim} "
                f"needs {self.base_dim ** self.order} coefficients"
            )
        for c in self.coeffs:
            if not self.field.contains(c):
                raise FieldMismatchError(f"coefficient {c!r} not in {self.field!r}")

    @property
    def dims(self):
        return (self.base_dim,) * self.order

    def at(self, idx) -> object:
        return self.coeffs[flat_index(idx, self.dims)]

    def nonzeros(self):
        """(multi-index, coefficient) pairs of the nonzero entries."""
        dims = self.dims
        return [
            (unflat_index(f, dims), c) for f, c in enumerate(self.coeffs) if c
        ]


# -- plain coefficient-vector helpers ----------------------------------------


def vec_zero(field: Field, n: int) -> tuple:
    return (field.zero(),) * n


def basis_vec(field: Field, n: int, i: int) -> tuple:
    z = field.zero()
    return tuple(field.one() if j == i else z for j in range(n))
