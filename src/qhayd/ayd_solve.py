"""Solving for coaction structures: exact linear spaces and finite-field search.

The per-element compatibility and the counit condition are linear in the
coaction map, so their joint solution set is an affine subspace computed
exactly.  Both conditions are defined once, as the block generators in
``ayd`` that the checkers also use; this module only assembles those blocks
into one linear system.  The remaining coassociativity-type condition is
quadratic; over a prime field the affine space is enumerated and filtered
through the full check, over the rationals only membership checking is
offered.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Optional

from .ayd import (
    AydTypeI,
    AydTypeII,
    check_type_i,
    check_type_ii,
    compat_i_blocks,
    compat_ii_blocks,
    counit_blocks,
)
from .errors import BudgetExceededError, ShapeError
from .fields import PrimeField
from .linalg import Matrix, hstack, solve
from .repcat import Module

__all__ = [
    "LinearSolutionSpace",
    "linear_space_type_i",
    "linear_space_type_ii",
    "enumerate_ayd_i",
    "enumerate_ayd_ii",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class LinearSolutionSpace:
    """Affine solution set {particular + basis . c} of the linear conditions.

    ``particular`` is None when the conditions are inconsistent (empty set).
    The compatibility condition is homogeneous but the counit condition is
    not, hence the affine form.
    """

    ambient_dim: int
    particular: Optional[Matrix]  # N x 1
    basis: Matrix                 # N x e

    @property
    def is_empty(self) -> bool:
        return self.particular is None

    @property
    def affine_dim(self) -> int:
        return 0 if self.is_empty else self.basis.cols

    def point(self, coeffs) -> Matrix:
        if self.is_empty:
            raise ShapeError("empty solution space has no points")
        vec = self.particular.col(0)
        for c, j in zip(coeffs, range(self.basis.cols)):
            if c:
                col = self.basis.col(j)
                vec = tuple(x + c * y for x, y in zip(vec, col))
        return Matrix.column(self.basis.field, vec)


def _linear_system(m: Module, compat_blocks, with_alpha: bool):
    """(A, b) with A . vec(x) - b the stacked lhs - rhs of the compatibility
    blocks, then of the counit blocks, at the coaction x.

    The conditions are affine in x, so with r(x) that stack, column j of A is
    r(e_j) - r(0) and b = -r(0).
    """
    d, f = m.dim, m.field
    ncoef = d * m.h.dim * d
    zero, one = f.zero(), f.one()

    def residual(pos) -> list:
        # only nonzero subtrahends are subtracted, so zero entries stay shared
        x = Matrix(f, d * m.h.dim, d, tuple(one if i == pos else zero for i in range(ncoef)))
        out = []
        for _, lhs, rhs in chain(compat_blocks(m, x), counit_blocks(m, x, with_alpha)):
            out.extend(l - r if r else l for l, r in zip(lhs, rhs))
        return out

    base = residual(None)
    cols = [
        Matrix.column(f, (y - b if b else y for y, b in zip(residual(pos), base)))
        for pos in range(ncoef)
    ]
    return hstack(cols), Matrix.column(f, (-b if b else b for b in base))


def _linear_space(m: Module, compat_blocks, with_alpha: bool) -> LinearSolutionSpace:
    ncoef = m.dim * m.h.dim * m.dim
    sol = solve(*_linear_system(m, compat_blocks, with_alpha))
    if sol is None:
        return LinearSolutionSpace(ncoef, None, Matrix.zeros(m.field, ncoef, 0))
    return LinearSolutionSpace(ncoef, sol.particular, sol.kernel)


def linear_space_type_i(m: Module) -> LinearSolutionSpace:
    """All rho satisfying the compatibility and counit conditions (type I)."""
    return _linear_space(m, compat_i_blocks, with_alpha=False)


def linear_space_type_ii(m: Module) -> LinearSolutionSpace:
    """All lambda satisfying the compatibility and counit conditions (type II)."""
    return _linear_space(m, compat_ii_blocks, with_alpha=True)


def _enumerate(m: Module, linear_space, build, full_check, budget: int):
    f = m.field
    if not isinstance(f, PrimeField):
        raise ShapeError("exhaustive enumeration needs a prime field")
    space = linear_space(m)
    if space.is_empty:
        return []
    e = space.affine_dim
    count = f.p ** e
    if count > budget:
        raise BudgetExceededError(e, count, budget)
    seen = {}
    for coeffs in product(f.elements(), repeat=e):
        vec = space.point(coeffs).col(0)
        mat = Matrix(f, m.dim * m.h.dim, m.dim, tuple(vec))
        key = tuple(x.residue for x in vec)
        if key in seen:
            continue
        cand = build(m, mat)
        if full_check(cand).passed:
            seen[key] = cand
    return [seen[k] for k in sorted(seen)]


def enumerate_ayd_i(m: Module, budget: int = DEFAULT_BUDGET):
    """All type-I structures on a module over F_p, in lexicographic coordinate order."""
    return _enumerate(m, linear_space_type_i, AydTypeI, check_type_i, budget)


def enumerate_ayd_ii(m: Module, budget: int = DEFAULT_BUDGET):
    return _enumerate(m, linear_space_type_ii, AydTypeII, check_type_ii, budget)
