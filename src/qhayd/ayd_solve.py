"""Solving for coaction structures: exact linear spaces and finite-field search.

The per-element compatibility and the counit condition are linear in the
coaction map, so their joint solution set is an affine subspace computed
exactly.  Both conditions are defined once, in ``ayd``, as sparse linear
forms in the coaction's entries.  For type I this module takes them over
every entry and writes lhs - rhs of each output row straight into a row of
the system.  A type-II coaction is compatible exactly when it is H-linear
into M (x)^r H, so its unknowns are only its values on generators of M.
The remaining coassociativity-type condition is quadratic in the
coordinates of the affine space.  Over a prime field its residual is
interpolated exactly from O(e^2) evaluations of the hexagon, the p^e points
are swept against that polynomial, and only the points where it vanishes
go through the full check; the budget still counts the p^e points swept.
Over the rationals only membership checking is offered.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Optional

from .ayd import (
    AydTypeI,
    AydTypeII,
    _r_tensor_action,
    check_type_i,
    check_type_ii,
    coaction_support,
    compat_i_forms,
    counit_forms,
    quasi_comodule_condition_matrices,
)
from .errors import BudgetExceededError, ShapeError
from .fields import PrimeField
from .linalg import Matrix, Solution, _as_solved, solve
from .repcat import Module, _accumulate, _dense, _spin_up

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


def _linear_system(m: Module, compat_forms, with_alpha: bool):
    """(A, b) with A . vec(x) - b the stacked lhs - rhs of the compatibility
    blocks, then of the counit blocks, at the coaction x.

    One pass over the blocks' linear forms, taken over every entry of x:
    row r of A is the form lhs - rhs of output row r, b_r its negated constant.
    """
    ncoef, f = m.dim * m.h.dim * m.dim, m.field
    zero = f.zero()
    support = coaction_support(m)
    entries, consts = [], []
    for _, lhs, rhs in chain(compat_forms(m, support), counit_forms(m, support, with_alpha)):
        for l, r in zip(lhs, rhs):
            row = [zero] * (ncoef + 1)  # the constant last
            for pos, c in l.items():
                row[ncoef if pos is None else pos] += c
            for pos, c in r.items():
                row[ncoef if pos is None else pos] -= c
            consts.append(-row.pop())
            entries.extend(row)
    return Matrix(f, len(consts), ncoef, tuple(entries)), Matrix.column(f, consts)


def _linear_space(m: Module, compat_forms, with_alpha: bool) -> LinearSolutionSpace:
    ncoef = m.dim * m.h.dim * m.dim
    sol = solve(*_linear_system(m, compat_forms, with_alpha))
    if sol is None:
        return LinearSolutionSpace(ncoef, None, Matrix.zeros(m.field, ncoef, 0))
    return LinearSolutionSpace(ncoef, sol.particular, sol.kernel)


def linear_space_type_i(m: Module) -> LinearSolutionSpace:
    """All rho satisfying the compatibility and counit conditions (type I)."""
    return _linear_space(m, compat_i_forms, with_alpha=False)


def linear_space_type_ii(m: Module) -> LinearSolutionSpace:
    """All lambda satisfying the compatibility and counit conditions (type II).

    The compatibility says that lambda: M -> X = M (x)^r H is H-linear
    (``compat_ii_forms``), so lambda is fixed by its values x_i in X on the
    generators g_i of a spin-up of M (``repcat._spin_up``): column mu of
    lambda is T_mu(x) = sum s_mu(i, a) act'(e_a) x_i, s_mu a preimage of
    e_mu, and the x_i come from an H-linear lambda exactly when every
    relation r gives sum r(i, a) act'(e_a) x_i = 0.  One solve for the x_i,
    under those rows and the counit rows composed with T; the solution is
    mapped through T and brought to the form ``solve`` gives on the full
    system in lambda.  This needs m to be a module (X is one whenever H is
    a quasi-Hopf algebra); on action matrices that do not form a module
    the result can differ from the full system's.
    """
    d, n, f = m.dim, m.h.dim, m.field
    dx = d * n  # dim X; x_i's coordinate (nu, b) is unknown i * dx + nu * n + b
    ncoef = dx * d
    gens, preimages, relations = _spin_up(m)
    nx = len(gens) * dx
    act = _r_tensor_action(m)

    def image(elem: dict) -> dict:
        """sum elem(i, a) act'(e_a) x_i, per row of X a form in the unknowns."""
        rows = {}
        for (i, a), c in elem.items():
            for nu, b in product(range(d), range(n)):
                for r, y in act(a, nu, b):
                    _accumulate(rows.setdefault(r, {}), i * dx + nu * n + b, c * y)
        return rows

    t_rows = [image(s) for s in preimages]  # row r of T_mu: lambda[r, mu]

    def in_x(form: dict) -> tuple:
        """A form in lambda's entries as (a form in the unknowns, its constant)."""
        out, const = {}, f.zero()
        for pos, c in form.items():
            if pos is None:
                const = c
                continue
            for col, y in t_rows[pos % d].get(pos // d, {}).items():
                _accumulate(out, col, c * y)
        return out, const

    rows = [(row, f.zero()) for rel in relations for row in image(rel).values()]
    for _, lhs, rhs in counit_forms(m, coaction_support(m), with_alpha=True):
        for l, r in zip(lhs, rhs):
            (lx, lc), (rx, rc) = in_x(l), in_x(r)
            for col, y in rx.items():
                _accumulate(lx, col, -y)
            rows.append((lx, rc - lc))
    a = {k * nx + col: c for k, (row, _) in enumerate(rows) for col, c in row.items()}
    b = {k: c for k, (_, c) in enumerate(rows) if c}
    sol = solve(_dense(f, len(rows), nx, a), _dense(f, len(rows), 1, b))
    if sol is None:
        return LinearSolutionSpace(ncoef, None, Matrix.zeros(f, ncoef, 0))

    def through_t(mat: Matrix) -> Matrix:
        """T . mat, one row per entry of lambda."""
        out = {}
        cols = mat.cols
        for mu, t_mu in enumerate(t_rows):
            for r, form in t_mu.items():
                for col, c in form.items():
                    for j, x in enumerate(mat.row(col)):
                        if x:
                            _accumulate(out, (r * d + mu) * cols + j, c * x)
        return _dense(f, ncoef, cols, out)

    sol = _as_solved(Solution(through_t(sol.particular), through_t(sol.kernel)))
    return LinearSolutionSpace(ncoef, sol.particular, sol.kernel)


def _coaction(m: Module, space: LinearSolutionSpace, coeffs) -> Matrix:
    return Matrix(m.field, m.dim * m.h.dim, m.dim, space.point(coeffs).entries)


def _quadratic_residual(m: Module, space: LinearSolutionSpace, build) -> list:
    """The rows of q(c) = lhs - rhs of the quasi-comodule condition at the
    point with coordinates c, as polynomials in c over F_p.

    Each tau is linear in the coaction, the top composite has two tau
    factors and the bottom one has one, so q has degree at most 2 and is
    recovered exactly from its values at 0, +-e_i and e_i + e_j (only e_i
    over F_2, where c_i^2 = c_i).  A row is a tuple of ``(k, i, j)`` terms,
    each k . cc[i] . cc[j] with cc = (1,) + c, and its value is their sum
    mod p.
    """
    p, e = m.field.p, space.affine_dim

    def q(*steps) -> list:
        """The residual at c = sum of x . e_i over the (i, x) in ``steps``."""
        c = [0] * e
        for i, x in steps:
            c[i] = x
        lhs, rhs = quasi_comodule_condition_matrices(build(m, _coaction(m, space, c)))
        return [(l - r).residue for l, r in zip(lhs.entries, rhs.entries)]

    q0 = q()
    plus = [q((i, 1)) for i in range(e)]
    coef = {(0, 0): q0}
    if p == 2:
        for i in range(e):
            coef[0, i + 1] = [a - z for a, z in zip(plus[i], q0)]
    else:
        half = (p + 1) // 2
        for i in range(e):
            minus = q((i, p - 1))
            coef[0, i + 1] = [(a - b) * half for a, b in zip(plus[i], minus)]
            coef[i + 1, i + 1] = [(a + b - 2 * z) * half for a, b, z in zip(plus[i], minus, q0)]
    for i in range(e):
        for j in range(i + 1, e):
            both = q((i, 1), (j, 1))
            coef[i + 1, j + 1] = [s - a - b + z for s, a, b, z in zip(both, plus[i], plus[j], q0)]
    return [
        tuple((vec[r] % p, i, j) for (i, j), vec in coef.items() if vec[r] % p)
        for r in range(len(q0))
    ]


def _enumerate(m: Module, linear_space, build, full_check, budget: int):
    """The points of the linear space that pass ``full_check``, sorted by
    coaction entries.

    Every refusal comes before q is interpolated.  The kernel basis is
    independent, so distinct coordinates give distinct points.
    """
    f = m.field
    if not isinstance(f, PrimeField):
        raise ShapeError("exhaustive enumeration needs a prime field")
    space = linear_space(m)
    if space.is_empty:
        return []
    e = space.affine_dim
    p = f.p
    count = p ** e
    if count > budget:
        raise BudgetExceededError(e, count, budget)
    rows = [row for row in dict.fromkeys(_quadratic_residual(m, space, build)) if row]
    found = []
    for c in product(range(p), repeat=e):
        cc = (1,) + c
        if any(sum(k * cc[i] * cc[j] for k, i, j in row) % p for row in rows):
            continue
        mat = _coaction(m, space, c)
        cand = build(m, mat)
        if full_check(cand).passed:
            found.append((tuple(x.residue for x in mat.entries), cand))
    return [cand for _, cand in sorted(found, key=lambda kc: kc[0])]


def enumerate_ayd_i(m: Module, budget: int = DEFAULT_BUDGET):
    """All type-I structures on a module over F_p, in lexicographic coordinate order."""
    return _enumerate(m, linear_space_type_i, AydTypeI, check_type_i, budget)


def enumerate_ayd_ii(m: Module, budget: int = DEFAULT_BUDGET):
    return _enumerate(m, linear_space_type_ii, AydTypeII, check_type_ii, budget)
