"""Quasi-Hopf algebra structure constants, axiom checks, and element primitives.

An algebra H is given by its multiplication structure tensor, a coproduct
Delta that is coassociative only up to conjugation by an invertible
associator Phi in H^(x)3, a counit, an anti-automorphism S with inverse,
and the distinguished elements alpha and beta appearing in the twisted
antipode identities.

Elements of H are coefficient tuples over the basis; elements of tensor
powers H^(x)k are handled sparsely as dicts from multi-indices to scalars.
Their products are a slot-wise join over the nonzeros: a pair of terms is
multiplied only when every slot product is nonzero, which keeps the
degree-4 pentagon cheap even when Phi has many terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product

from .errors import InconsistentSystemError, ShapeError
from .fields import Field
from .linalg import Matrix, inverse, solve_unique
from .reports import CheckReport
from .tensors import Tensor, basis_vec, vec_zero

__all__ = [
    "Algebra",
    "QuasiBialgebra",
    "QuasiHopfAlgebra",
    "make_quasi_hopf",
    "validate",
    "check_quasi_coassoc",
    "check_pentagon",
    "check_counit",
    "check_phi_counit",
    "check_antipode",
    "mul",
    "coproduct",
    "antipode",
    "counit_of",
    "tree_leaves",
    "delta_tree_tensor",
]


# -- sparse tensor-power elements --------------------------------------------


def sparse_from_vec(vec, dims) -> dict:
    out = {}
    idx = [0] * len(dims)
    for f, c in enumerate(vec):
        if c:
            rem = f
            for s in range(len(dims) - 1, -1, -1):
                idx[s] = rem % dims[s]
                rem //= dims[s]
            out[tuple(idx)] = c
    return out


def vec_from_sparse(field: Field, sp: dict, dims) -> tuple:
    total = 1
    for d in dims:
        total *= d
    out = [field.zero()] * total
    for idx, c in sp.items():
        f = 0
        for i, d in zip(idx, dims):
            f = f * d + i
        out[f] = out[f] + c
    return tuple(out)


def sparse_kron(u: dict, v: dict) -> dict:
    out = {}
    for iu, cu in u.items():
        for iv, cv in v.items():
            out[iu + iv] = cu * cv
    return out


@dataclass(frozen=True)
class Algebra:
    """Associative unital algebra via structure constants mult[i][j] = e_i * e_j."""

    field: Field
    dim: int
    basis: tuple
    mult: tuple   # mult[i][j] = coefficient tuple of e_i e_j
    unit: tuple

    def __post_init__(self):
        n = self.dim
        if len(self.basis) != n or len(self.unit) != n or len(self.mult) != n:
            raise ShapeError("algebra structure constant shapes do not match dim")
        for row in self.mult:
            if len(row) != n or any(len(v) != n for v in row):
                raise ShapeError("multiplication tensor must be n x n x n")
        nz = tuple(
            tuple(
                tuple((l, c) for l, c in enumerate(self.mult[i][j]) if c)
                for j in range(n)
            )
            for i in range(n)
        )
        object.__setattr__(self, "_mult_nz", nz)
        # partners[a]: the (b, nonzeros of e_a e_b) with e_a e_b != 0
        partners = tuple(
            tuple((j, prod) for j, prod in enumerate(row) if prod) for row in nz
        )
        object.__setattr__(self, "_partners", partners)

    def mul_vec(self, a, b) -> tuple:
        """Product of two elements given as coefficient tuples."""
        out = [self.field.zero()] * self.dim
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if not cb:
                    continue
                c = ca * cb
                for l, m in self._mult_nz[i][j]:
                    out[l] = out[l] + c * m
        return tuple(out)

    def left_mult_matrix(self, vec) -> Matrix:
        cols = [self.mul_vec(vec, basis_vec(self.field, self.dim, j)) for j in range(self.dim)]
        return Matrix.from_rows(self.field, [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)])

    def right_mult_matrix(self, vec) -> Matrix:
        cols = [self.mul_vec(basis_vec(self.field, self.dim, j), vec) for j in range(self.dim)]
        return Matrix.from_rows(self.field, [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)])

    def power_mul(self, u: dict, v: dict, order: int) -> dict:
        """Product in H^(x)order of two sparse elements, as a join over the slots.

        ``v`` is indexed once as a trie on its slots. Each nonzero of ``u``
        walks the trie slot by slot, following only the partners b of its
        slot index a (e_a e_b != 0) that the trie holds, so coefficients
        are multiplied only along pairs whose every slot product is nonzero.
        """
        trie = {}
        for iv, cv in v.items():
            node = trie
            for s in range(order - 1):
                node = node.setdefault(iv[s], {})
            node[iv[order - 1]] = cv
        partners = self._partners
        out = {}
        for iu, cu in u.items():
            # each match is (trie node below the slots seen, their slot products)
            matches = [(trie, ())]
            for s in range(order):
                matches = [
                    (node[b], prods + (nz,))
                    for node, prods in matches
                    for b, nz in partners[iu[s]]
                    if b in node
                ]
                if not matches:
                    break
            for cv, prods in matches:
                # expand the product of basis tensors slot by slot
                terms = [((), cu * cv)]
                for nz in prods:
                    terms = [
                        (idx + (l,), c * m) for idx, c in terms for l, m in nz
                    ]
                for idx, c in terms:
                    if idx in out:
                        out[idx] = out[idx] + c
                    else:
                        out[idx] = c
        return {k: v for k, v in out.items() if v}


@dataclass(frozen=True)
class QuasiBialgebra:
    algebra: Algebra
    delta: Matrix    # n^2 x n, columns are Delta(e_j)
    counit: Matrix   # 1 x n
    phi: Tensor      # order 3
    phi_inv: Tensor  # order 3

    def __post_init__(self):
        n = self.algebra.dim
        if self.delta.rows != n * n or self.delta.cols != n:
            raise ShapeError("delta must be n^2 x n")
        if self.counit.rows != 1 or self.counit.cols != n:
            raise ShapeError("counit must be 1 x n")
        for t in (self.phi, self.phi_inv):
            if t.base_dim != n or t.order != 3:
                raise ShapeError("associator must be an order-3 tensor over dim n")
        nz = tuple(
            tuple(
                ((f // n, f % n), c)
                for f, c in enumerate(self.delta.col(j))
                if c
            )
            for j in range(n)
        )
        object.__setattr__(self, "_delta_nz", nz)

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self):
        return self.algebra.dim

    def delta_of_basis(self, j: int):
        """Nonzero ((a, b), coeff) pairs of Delta(e_j)."""
        return self._delta_nz[j]

    def counit_of_basis(self, j: int):
        return self.counit.at(0, j)

    def slot_delta(self, sp: dict, slot: int) -> dict:
        """Apply Delta to one slot of a sparse tensor-power element."""
        out = {}
        for idx, c in sp.items():
            for (a, b), m in self._delta_nz[idx[slot]]:
                key = idx[:slot] + (a, b) + idx[slot + 1 :]
                if key in out:
                    out[key] = out[key] + c * m
                else:
                    out[key] = c * m
        return {k: v for k, v in out.items() if v}

    def phi_sparse(self) -> dict:
        return {idx: c for idx, c in self.phi.nonzeros()}

    def phi_inv_sparse(self) -> dict:
        return {idx: c for idx, c in self.phi_inv.nonzeros()}


@dataclass(frozen=True)
class QuasiHopfAlgebra:
    qb: QuasiBialgebra
    s: Matrix       # n x n, column j = S(e_j)
    s_inv: Matrix
    alpha: tuple
    beta: tuple

    def __post_init__(self):
        n = self.qb.dim
        for m in (self.s, self.s_inv):
            if m.rows != n or m.cols != n:
                raise ShapeError("antipode matrices must be n x n")
        if len(self.alpha) != n or len(self.beta) != n:
            raise ShapeError("alpha and beta must be elements of H")

    # delegation, so the full structure reads like one object
    @property
    def algebra(self):
        return self.qb.algebra

    @property
    def field(self):
        return self.qb.field

    @property
    def dim(self):
        return self.qb.dim

    @property
    def basis(self):
        return self.qb.algebra.basis

    @property
    def unit(self):
        return self.qb.algebra.unit

    @property
    def delta(self):
        return self.qb.delta

    @property
    def counit(self):
        return self.qb.counit

    @property
    def phi(self):
        return self.qb.phi

    @property
    def phi_inv(self):
        return self.qb.phi_inv

    def s_squared(self) -> Matrix:
        """S^2, multiplied out on the first call and kept with the algebra."""
        s2 = self.__dict__.get("_s_squared")
        if s2 is None:
            s2 = self.s @ self.s
            object.__setattr__(self, "_s_squared", s2)
        return s2

    def phi_is_trivial(self) -> bool:
        n = self.dim
        unit_sp = sparse_from_vec(self.unit, (n,))
        triple = sparse_kron(sparse_kron(unit_sp, unit_sp), unit_sp)
        return self.qb.phi_sparse() == triple


def make_quasi_hopf(
    field: Field,
    basis,
    mult,
    unit,
    delta_rows,
    counit_row,
    phi: Tensor,
    s_cols,
    alpha,
    beta,
    phi_inv: Tensor | None = None,
    s_inv_cols=None,
) -> QuasiHopfAlgebra:
    """Assemble a quasi-Hopf algebra, computing Phi^-1 and S^-1 when omitted.

    ``delta_rows[j]`` is the n^2-coefficient tuple of Delta(e_j) and
    ``s_cols[j]`` the image S(e_j).
    """
    basis = tuple(basis)
    n = len(basis)
    alg = Algebra(field, n, basis, tuple(tuple(tuple(v) for v in row) for row in mult), tuple(unit))
    delta = Matrix.from_rows(field, [[delta_rows[j][f] for j in range(n)] for f in range(n * n)])
    counit = Matrix.row_matrix(field, counit_row)
    qb_phi_inv = phi_inv if phi_inv is not None else _invert_associator(alg, phi)
    qb = QuasiBialgebra(alg, delta, counit, phi, qb_phi_inv)
    s = Matrix.from_rows(field, [[s_cols[j][i] for j in range(n)] for i in range(n)])
    if s_inv_cols is not None:
        s_inv = Matrix.from_rows(field, [[s_inv_cols[j][i] for j in range(n)] for i in range(n)])
    else:
        s_inv = inverse(s)
        if s_inv is None:
            raise InconsistentSystemError("antipode matrix is singular")
    return QuasiHopfAlgebra(qb, s, s_inv, tuple(alpha), tuple(beta))


def _left_mult_matrix_3(alg: Algebra, u: Tensor) -> Matrix:
    """Left multiplication by u on H^(x)3; column ``idx`` is u * e_idx."""
    n, dims = alg.dim, (alg.dim,) * 3
    u_sp, one = dict(u.nonzeros()), alg.field.one()
    cols = [
        vec_from_sparse(alg.field, alg.power_mul(u_sp, {idx: one}, 3), dims)
        for idx in product(range(n), repeat=3)
    ]
    return Matrix.from_rows(alg.field, cols).transpose()


def _invert_associator(alg: Algebra, phi: Tensor) -> Tensor:
    """Invert Phi inside the n^3-dimensional algebra H^(x)3."""
    n = alg.dim
    left = _left_mult_matrix_3(alg, phi)
    unit_sp = sparse_from_vec(alg.unit, (n,))
    target = vec_from_sparse(alg.field, sparse_kron(sparse_kron(unit_sp, unit_sp), unit_sp), (n, n, n))
    try:
        col = solve_unique(left, Matrix.column(alg.field, target))
    except InconsistentSystemError as exc:
        raise InconsistentSystemError("associator is not invertible") from exc
    return Tensor(alg.field, n, 3, col.col(0))


# -- element-level primitives -------------------------------------------------


def mul(h: QuasiHopfAlgebra, a, b) -> tuple:
    return h.algebra.mul_vec(a, b)


def mul_many(h: QuasiHopfAlgebra, *elements) -> tuple:
    return reduce(h.algebra.mul_vec, elements)


def coproduct(h: QuasiHopfAlgebra, a) -> Tensor:
    n = h.dim
    return Tensor(h.field, n, 2, h.delta.apply(a))


def antipode(h: QuasiHopfAlgebra, a) -> tuple:
    return h.s.apply(a)


def counit_of(h: QuasiHopfAlgebra, a):
    return h.counit.apply(a)[0]


def tree_leaves(tree) -> int:
    if tree is None:
        return 1
    if not (isinstance(tree, tuple) and len(tree) == 2):
        raise ShapeError(f"malformed bracketing tree: {tree!r}")
    return tree_leaves(tree[0]) + tree_leaves(tree[1])


def delta_tree_tensor(qb: QuasiBialgebra, tree) -> dict:
    """{(j, i_1, ..., i_k): c} of the iterated coproduct with the given bracketing.

    Each Delta(e_j) is expanded leaf by leaf from its sparse coproduct, so
    the work follows the nonzeros rather than an n^k x n matrix.
    """

    def expand(sp, subtree, slot):
        if subtree is None:
            return sp
        left, right = subtree
        sp = expand(qb.slot_delta(sp, slot), left, slot)
        return expand(sp, right, slot + tree_leaves(left))

    one = qb.field.one()
    return {
        (j, *idx): c
        for j in range(qb.dim)
        for idx, c in expand({(j,): one}, tree, 0).items()
    }


# -- axiom checks --------------------------------------------------------------


def check_associativity(alg: Algebra) -> CheckReport:
    rep = CheckReport()
    n = alg.dim
    f = alg.field
    for i in range(n):
        for j in range(n):
            ij = alg.mult[i][j]
            for l in range(n):
                lhs = alg.mul_vec(ij, basis_vec(f, n, l))
                rhs = alg.mul_vec(basis_vec(f, n, i), alg.mult[j][l])
                if lhs != rhs:
                    rep.add_fail("associativity", (i, j, l), lhs, rhs)
                    return rep
    rep.add_ok("associativity")
    return rep


def check_unit(alg: Algebra) -> CheckReport:
    rep = CheckReport()
    n, f = alg.dim, alg.field
    for i in range(n):
        e = basis_vec(f, n, i)
        left = alg.mul_vec(alg.unit, e)
        right = alg.mul_vec(e, alg.unit)
        if left != e or right != e:
            rep.add_fail("unit", (i,), left, right)
            return rep
    rep.add_ok("unit")
    return rep


def check_delta_homomorphism(qb: QuasiBialgebra) -> CheckReport:
    rep = CheckReport()
    alg, n = qb.algebra, qb.dim
    for i in range(n):
        for j in range(n):
            prod = alg.mul_vec(basis_vec(qb.field, n, i), basis_vec(qb.field, n, j))
            lhs = sparse_from_vec(qb.delta.apply(prod), (n, n))
            di = sparse_from_vec(qb.delta.col(i), (n, n))
            dj = sparse_from_vec(qb.delta.col(j), (n, n))
            rhs = alg.power_mul(di, dj, 2)
            if lhs != rhs:
                rep.add_fail(
                    "delta-homomorphism", (i, j),
                    vec_from_sparse(qb.field, lhs, (n, n)),
                    vec_from_sparse(qb.field, rhs, (n, n)),
                )
                return rep
    unit_delta = qb.delta.apply(alg.unit)
    unit_tensor = vec_from_sparse(
        qb.field,
        sparse_kron(sparse_from_vec(alg.unit, (n,)), sparse_from_vec(alg.unit, (n,))),
        (n, n),
    )
    if tuple(unit_delta) != unit_tensor:
        rep.add_fail("delta-homomorphism", ("unit",), unit_delta, unit_tensor)
        return rep
    rep.add_ok("delta-homomorphism")
    return rep


def check_counit_homomorphism(qb: QuasiBialgebra) -> CheckReport:
    rep = CheckReport()
    alg, n = qb.algebra, qb.dim
    for i in range(n):
        for j in range(n):
            prod = alg.mul_vec(basis_vec(qb.field, n, i), basis_vec(qb.field, n, j))
            lhs = qb.counit.apply(prod)[0]
            rhs = qb.counit_of_basis(i) * qb.counit_of_basis(j)
            if lhs != rhs:
                rep.add_fail("counit-homomorphism", (i, j), (lhs,), (rhs,))
                return rep
    if qb.counit.apply(alg.unit)[0] != qb.field.one():
        rep.add_fail("counit-homomorphism", ("unit",), (qb.counit.apply(alg.unit)[0],), (qb.field.one(),))
        return rep
    rep.add_ok("counit-homomorphism")
    return rep


def check_quasi_coassoc(qb: QuasiBialgebra) -> CheckReport:
    """(Id x Delta)Delta(a) = Phi ((Delta x Id)Delta(a)) Phi^-1 on every basis element."""
    rep = CheckReport()
    alg, n = qb.algebra, qb.dim
    phi_sp, phi_inv_sp = qb.phi_sparse(), qb.phi_inv_sparse()
    for i in range(n):
        d = sparse_from_vec(qb.delta.col(i), (n, n))
        lhs = qb.slot_delta(d, 1)
        rhs0 = qb.slot_delta(d, 0)
        rhs = alg.power_mul(phi_sp, alg.power_mul(rhs0, phi_inv_sp, 3), 3)
        if lhs != rhs:
            rep.add_fail(
                "quasi-coassociativity", (i,),
                vec_from_sparse(qb.field, lhs, (n, n, n)),
                vec_from_sparse(qb.field, rhs, (n, n, n)),
            )
            return rep
    rep.add_ok("quasi-coassociativity")
    return rep


def check_pentagon(qb: QuasiBialgebra) -> CheckReport:
    """(Id x Id x Delta)(Phi) . (Delta x Id x Id)(Phi) = (1 x Phi) . (Id x Delta x Id)(Phi) . (Phi x 1)."""
    rep = CheckReport()
    alg, n = qb.algebra, qb.dim
    phi = qb.phi_sparse()
    unit_sp = sparse_from_vec(alg.unit, (n,))
    lhs = alg.power_mul(qb.slot_delta(phi, 2), qb.slot_delta(phi, 0), 4)
    rhs = alg.power_mul(
        sparse_kron(unit_sp, phi),
        alg.power_mul(qb.slot_delta(phi, 1), sparse_kron(phi, unit_sp), 4),
        4,
    )
    if lhs != rhs:
        rep.add_fail(
            "pentagon", (),
            vec_from_sparse(qb.field, lhs, (n,) * 4),
            vec_from_sparse(qb.field, rhs, (n,) * 4),
        )
    else:
        rep.add_ok("pentagon")
    return rep


def check_counit(qb: QuasiBialgebra) -> CheckReport:
    """(eps x Id)Delta(a) = a = (Id x eps)Delta(a)."""
    rep = CheckReport()
    n, f = qb.dim, qb.field
    for i in range(n):
        left = vec_zero(f, n)
        right = vec_zero(f, n)
        for (a, b), c in qb.delta_of_basis(i):
            left = tuple(
                x + (c * qb.counit_of_basis(a)) * y
                for x, y in zip(left, basis_vec(f, n, b))
            )
            right = tuple(
                x + (c * qb.counit_of_basis(b)) * y
                for x, y in zip(right, basis_vec(f, n, a))
            )
        e = basis_vec(f, n, i)
        if left != e or right != e:
            rep.add_fail("counit-axiom", (i,), left, right)
            return rep
    rep.add_ok("counit-axiom")
    return rep


def check_phi_counit(qb: QuasiBialgebra) -> CheckReport:
    """(Id x eps x Id)(Phi) = 1 x 1."""
    rep = CheckReport()
    n, f = qb.dim, qb.field
    acc = {}
    for (i, j, k), c in qb.phi.nonzeros():
        e = qb.counit_of_basis(j)
        if e:
            key = (i, k)
            acc[key] = acc.get(key, f.zero()) + c * e
    lhs = vec_from_sparse(f, acc, (n, n))
    unit_sp = sparse_from_vec(qb.algebra.unit, (n,))
    rhs = vec_from_sparse(f, sparse_kron(unit_sp, unit_sp), (n, n))
    if lhs != rhs:
        rep.add_fail("associator-counit", (), lhs, rhs)
    else:
        rep.add_ok("associator-counit")
    return rep


def check_phi_invertible(qb: QuasiBialgebra) -> CheckReport:
    rep = CheckReport()
    alg, n, f = qb.algebra, qb.dim, qb.field
    unit_sp = sparse_from_vec(alg.unit, (n,))
    triple = sparse_kron(sparse_kron(unit_sp, unit_sp), unit_sp)
    phi_sp, phi_inv_sp = qb.phi_sparse(), qb.phi_inv_sparse()
    ab = alg.power_mul(phi_sp, phi_inv_sp, 3)
    ba = alg.power_mul(phi_inv_sp, phi_sp, 3)
    if ab != triple or ba != triple:
        rep.add_fail(
            "associator-invertible", (),
            vec_from_sparse(f, ab, (n,) * 3),
            vec_from_sparse(f, triple, (n,) * 3),
        )
    else:
        rep.add_ok("associator-invertible")
    return rep


def check_s_antiautomorphism(h: QuasiHopfAlgebra) -> CheckReport:
    rep = CheckReport()
    alg, n, f = h.algebra, h.dim, h.field
    for i in range(n):
        for j in range(n):
            lhs = h.s.apply(alg.mult[i][j])
            rhs = alg.mul_vec(h.s.col(j), h.s.col(i))
            if lhs != rhs:
                rep.add_fail("antipode-antiautomorphism", (i, j), lhs, rhs)
                return rep
    if h.s.apply(alg.unit) != alg.unit:
        rep.add_fail("antipode-antiautomorphism", ("unit",), h.s.apply(alg.unit), alg.unit)
        return rep
    rep.add_ok("antipode-antiautomorphism")
    return rep


def check_s_inverse(h: QuasiHopfAlgebra) -> CheckReport:
    rep = CheckReport()
    n = h.dim
    ident = Matrix.identity(h.field, n)
    if h.s @ h.s_inv != ident or h.s_inv @ h.s != ident:
        rep.add_fail("antipode-inverse", (), (h.s @ h.s_inv).entries, ident.entries)
    else:
        rep.add_ok("antipode-inverse")
    return rep


def check_antipode(h: QuasiHopfAlgebra) -> CheckReport:
    """The four antipode identities of a quasi-Hopf algebra."""
    rep = CheckReport()
    alg, n, f = h.algebra, h.dim, h.field
    s_col = h.s.col

    ok = True
    for i in range(n):
        acc = vec_zero(f, n)
        for (a, b), c in h.qb.delta_of_basis(i):
            term = mul_many(h, s_col(a), h.alpha, basis_vec(f, n, b))
            acc = tuple(x + c * y for x, y in zip(acc, term))
        expected = tuple(h.qb.counit_of_basis(i) * x for x in h.alpha)
        if acc != expected:
            rep.add_fail("antipode-left", (i,), acc, expected)
            ok = False
            break
    if ok:
        rep.add_ok("antipode-left")

    ok = True
    for i in range(n):
        acc = vec_zero(f, n)
        for (a, b), c in h.qb.delta_of_basis(i):
            term = mul_many(h, basis_vec(f, n, a), h.beta, s_col(b))
            acc = tuple(x + c * y for x, y in zip(acc, term))
        expected = tuple(h.qb.counit_of_basis(i) * x for x in h.beta)
        if acc != expected:
            rep.add_fail("antipode-right", (i,), acc, expected)
            ok = False
            break
    if ok:
        rep.add_ok("antipode-right")

    acc = vec_zero(f, n)
    for (i, j, k), c in h.phi.nonzeros():
        term = mul_many(h, basis_vec(f, n, i), h.beta, s_col(j), h.alpha, basis_vec(f, n, k))
        acc = tuple(x + c * y for x, y in zip(acc, term))
    if acc != alg.unit:
        rep.add_fail("antipode-associator", (), acc, alg.unit)
    else:
        rep.add_ok("antipode-associator")

    # Drinfeld's form: S(p^1) alpha p^2 beta S(p^3) = 1 over Phi^-1 = p^1 (x) p^2 (x) p^3
    acc = vec_zero(f, n)
    for (i, j, k), c in h.phi_inv.nonzeros():
        term = mul_many(h, s_col(i), h.alpha, basis_vec(f, n, j), h.beta, s_col(k))
        acc = tuple(x + c * y for x, y in zip(acc, term))
    if acc != alg.unit:
        rep.add_fail("antipode-associator-inverse", (), acc, alg.unit)
    else:
        rep.add_ok("antipode-associator-inverse")
    return rep


def validate(h: QuasiHopfAlgebra) -> CheckReport:
    """Run every defining identity; failures are report items, never exceptions."""
    rep = CheckReport()
    rep.extend(check_associativity(h.algebra))
    rep.extend(check_unit(h.algebra))
    rep.extend(check_delta_homomorphism(h.qb))
    rep.extend(check_counit_homomorphism(h.qb))
    rep.extend(check_quasi_coassoc(h.qb))
    rep.extend(check_pentagon(h.qb))
    rep.extend(check_counit(h.qb))
    rep.extend(check_phi_counit(h.qb))
    rep.extend(check_phi_invertible(h.qb))
    rep.extend(check_s_antiautomorphism(h))
    rep.extend(check_s_inverse(h))
    rep.extend(check_antipode(h))
    return rep
