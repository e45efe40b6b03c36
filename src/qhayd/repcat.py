"""The monoidal category of finite-dimensional left modules.

Modules are given by per-basis-element action matrices.  The tensor product
acts through the coproduct, the associator is the slot-wise action of the
invertible element Phi, internal Homs twist by the antipode, and the sharp
functor precomposes an action with S^2.  Linear maps between modules are
plain matrices, and H-linearity is a checkable property.  Every
construction follows the nonzeros of the action matrices: the Kronecker sums
of tensor products and internal Homs, and the equations whose exact kernel
is an intertwiner space, are written entry by entry from those nonzeros;
the results are dense ``Matrix`` values.

Hom-space vectorization is row-major: a map f: M -> N with matrix F
(d_N x d_M) has coordinates vec(F), and vec(A F B) = (A kron B^T) vec(F).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import product, repeat

from .errors import InconsistentSystemError, ShapeError
from .linalg import Matrix, hstack, kernel_basis, solve
from .qha import QuasiHopfAlgebra, vec_from_sparse
from .reports import CheckReport
from .tensors import basis_vec

__all__ = [
    "Module",
    "ModuleMap",
    "check_module",
    "trivial_module",
    "regular_module",
    "character_module",
    "tensor",
    "associator",
    "sharp",
    "hom_l",
    "hom_r",
    "is_module_morphism",
    "hom_space",
    "iota_matrix",
]


@dataclass(frozen=True)
class Module:
    """Finite-dimensional left module: action[i] is the matrix of e_i."""

    h: QuasiHopfAlgebra
    dim: int
    action: tuple
    name: str = dc_field(default="", compare=False)

    def __post_init__(self):
        if len(self.action) != self.h.dim:
            raise ShapeError("need one action matrix per basis element")
        for m in self.action:
            if m.rows != self.dim or m.cols != self.dim:
                raise ShapeError("action matrices must be dim x dim")

    @property
    def field(self):
        return self.h.field

    @property
    def algebra(self):
        return self.h

    @cached_property
    def _action_nonzeros(self) -> tuple:
        """Per basis element, the ``_nonzero_entries`` of its action matrix."""
        return tuple(_nonzero_entries(a) for a in self.action)

    def action_of(self, vec) -> Matrix:
        """Action matrix of an arbitrary algebra element."""
        out = {}
        for i, c in enumerate(vec):
            if c:
                for r, s, x in self._action_nonzeros[i]:
                    _accumulate(out, r * self.dim + s, c * x)
        return _dense(self.field, self.dim, self.dim, out)


@dataclass(frozen=True)
class ModuleMap:
    source: Module
    target: Module
    matrix: Matrix

    def __post_init__(self):
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise ShapeError("module map matrix shape does not match source/target")

    def is_morphism(self) -> bool:
        return is_module_morphism(self.matrix, self.source, self.target)

    @classmethod
    def identity(cls, m: Module) -> "ModuleMap":
        return cls(m, m, Matrix.identity(m.field, m.dim))


def _same_algebra(*modules):
    h0 = modules[0].h
    for m in modules[1:]:
        if m.h is not h0 and m.h != h0:
            raise ShapeError("modules live over different algebras")


def check_module(m: Module) -> CheckReport:
    """act(unit) = Id and act(e_i e_j) = act(e_i) act(e_j)."""
    rep = CheckReport()
    n = m.h.dim
    ident = Matrix.identity(m.field, m.dim)
    if m.action_of(m.h.unit) != ident:
        rep.add_fail("module-unit", (), m.action_of(m.h.unit).entries, ident.entries)
        return rep
    rep.add_ok("module-unit")
    for i in range(n):
        for j in range(n):
            lhs = m.action_of(m.h.algebra.mult[i][j])
            rhs = m.action[i] @ m.action[j]
            if lhs != rhs:
                rep.add_fail("module-action", (i, j), lhs.entries, rhs.entries)
                return rep
    rep.add_ok("module-action")
    return rep


def trivial_module(h: QuasiHopfAlgebra) -> Module:
    acts = tuple(
        Matrix.from_rows(h.field, [[h.qb.counit_of_basis(i)]]) for i in range(h.dim)
    )
    return Module(h, 1, acts, name="trivial")


def regular_module(h: QuasiHopfAlgebra) -> Module:
    acts = tuple(
        h.algebra.left_mult_matrix(basis_vec(h.field, h.dim, i)) for i in range(h.dim)
    )
    return Module(h, h.dim, acts, name="regular")


def character_module(h: QuasiHopfAlgebra, values, name="character") -> Module:
    """One-dimensional module from an algebra homomorphism given on the basis."""
    acts = tuple(Matrix.from_rows(h.field, [[v]]) for v in values)
    m = Module(h, 1, acts, name=name)
    rep = check_module(m)
    if not rep.passed:
        raise ShapeError(f"values do not define a character: {rep.failures()[0].name}")
    return m


def _nonzero_entries(mat: Matrix) -> tuple:
    """The nonzero entries (i, j, a_ij) of ``mat``."""
    c = mat.cols
    return tuple((k // c, k % c, x) for k, x in enumerate(mat.entries) if x)


def _transposed(mat: Matrix) -> tuple:
    """The ``_nonzero_entries`` of the transpose of ``mat``."""
    return tuple((j, i, x) for i, j, x in _nonzero_entries(mat))


def _dense(field, rows: int, cols: int, out: dict) -> Matrix:
    """The matrix with the row-major entries ``out`` and zeros elsewhere,
    built straight into its tuple, with no list of the same size beside it."""
    entries = map(out.get, range(rows * cols), repeat(field.zero()))
    return Matrix(field, rows, cols, tuple(entries))


def _kron_sum(field, terms, da: int, db: int) -> Matrix:
    """sum c . (A kron B) over ``terms`` (c, A, B), A being da x da and B
    db x db, each given by its ``_nonzero_entries``: only products of
    nonzeros are formed."""
    n = da * db
    out = {}
    for c, a_nz, b_nz in terms:
        for i, j, x in a_nz:
            cx = c * x
            base = i * db * n + j * db
            for p, q, y in b_nz:
                _accumulate(out, base + p * n + q, cx * y)
    return _dense(field, n, n, out)


def tensor(m: Module, n: Module) -> Module:
    """Tensor product module; the action goes through the coproduct."""
    _same_algebra(m, n)
    h = m.h
    mnz, nnz = m._action_nonzeros, n._action_nonzeros
    acts = tuple(
        _kron_sum(h.field, [(c, mnz[a], nnz[b]) for (a, b), c in h.qb.delta_of_basis(i)],
                  m.dim, n.dim)
        for i in range(h.dim)
    )
    return Module(h, m.dim * n.dim, acts, name=f"({m.name})(x)({n.name})")


def _columns(mat: Matrix) -> tuple:
    """Per column j of ``mat``, the (i, a_ij) pairs with a_ij nonzero."""
    r, c, e = mat.rows, mat.cols, mat.entries
    return tuple(
        tuple((i, e[i * c + j]) for i in range(r) if e[i * c + j]) for j in range(c)
    )


def _accumulate(out: dict, key, x):
    prev = out.get(key)
    out[key] = x if prev is None else prev + x


def _pruned(out: dict) -> dict:
    return {k: x for k, x in out.items() if x}


def _apply_on_slot(vec: dict, slot: int, cols) -> dict:
    """Apply a matrix, given by its ``_columns``, to one slot of a sparse tensor."""
    out = {}
    for idx, x in vec.items():
        for i, a in cols[idx[slot]]:
            _accumulate(out, idx[:slot] + (i,) + idx[slot + 1 :], a * x)
    return out


def _slotwise_apply(tensor_nonzeros, modules):
    """The map vec -> (sum c . act_1(e_i1) kron ... kron act_k(e_ik)) vec.

    Vectors are sparse tensors {(j_1, ..., j_k): coefficient}; each term acts
    slot by slot, so no Kronecker product is formed.
    """
    cols = [[_columns(a) for a in m.action] for m in modules]

    def apply(vec: dict) -> dict:
        out = {}
        for idx, c in tensor_nonzeros:
            part = vec
            for s in reversed(range(len(modules))):
                part = _apply_on_slot(part, s, cols[s][idx[s]])
            for key, x in part.items():
                _accumulate(out, key, c * x)
        return _pruned(out)

    return apply


def _slotwise_action(tensor_nonzeros, modules) -> Matrix:
    """Matrix of sum c . act_1(e_i1) kron ... kron act_k(e_ik); column ``idx``
    is the image of the basis tensor e_idx under ``_slotwise_apply``."""
    field = modules[0].field
    dims = tuple(m.dim for m in modules)
    apply = _slotwise_apply(tensor_nonzeros, modules)
    cols = [
        vec_from_sparse(field, apply({idx: field.one()}), dims)
        for idx in product(*(range(d) for d in dims))
    ]
    return Matrix.from_rows(field, cols).transpose()


def associator(m: Module, n: Module, l: Module) -> ModuleMap:
    """(m (x) n) (x) l -> m (x) (n (x) l), the slot-wise action of Phi."""
    _same_algebra(m, n, l)
    h = m.h
    mat = _slotwise_action(h.phi.nonzeros(), (m, n, l))
    return ModuleMap(tensor(tensor(m, n), l), tensor(m, tensor(n, l)), mat)


def sharp(m: Module) -> Module:
    """Same space, action precomposed with S^2."""
    s = m.h.s
    acts = tuple(m.action_of(s.apply(s.col(i))) for i in range(m.h.dim))
    return Module(m.h, m.dim, acts, name=f"({m.name})#")


def hom_l(m: Module, n: Module) -> Module:
    """Left internal Hom on Hom_k(m, n): h . f = h^1 f(S(h^2) -)."""
    _same_algebra(m, n)
    h = m.h
    nnz = n._action_nonzeros
    st = [_transposed(m.action_of(h.s.col(b))) for b in range(h.dim)]
    acts = tuple(
        _kron_sum(h.field, [(c, nnz[a], st[b]) for (a, b), c in h.qb.delta_of_basis(i)],
                  n.dim, m.dim)
        for i in range(h.dim)
    )
    return Module(h, n.dim * m.dim, acts, name=f"Hom_l({m.name},{n.name})")


def hom_r(m: Module, n: Module) -> Module:
    """Right internal Hom on Hom_k(m, n): h . f = h^2 f(S^-1(h^1) -)."""
    _same_algebra(m, n)
    h = m.h
    nnz = n._action_nonzeros
    st = [_transposed(m.action_of(h.s_inv.col(a))) for a in range(h.dim)]
    acts = tuple(
        _kron_sum(h.field, [(c, nnz[b], st[a]) for (a, b), c in h.qb.delta_of_basis(i)],
                  n.dim, m.dim)
        for i in range(h.dim)
    )
    return Module(h, n.dim * m.dim, acts, name=f"Hom_r({m.name},{n.name})")


def is_module_morphism(f: Matrix, src: Module, tgt: Module) -> bool:
    _same_algebra(src, tgt)
    if f.rows != tgt.dim or f.cols != src.dim:
        raise ShapeError("candidate morphism has wrong shape")
    for i in range(src.h.dim):
        if f @ src.action[i] != tgt.action[i] @ f:
            return False
    return True


def hom_space(src: Module, tgt: Module) -> list:
    """Basis of the space of H-linear maps src -> tgt, as matrices.

    The system stacks, per basis element e_i, the rows of
    vec(T_i F - F S_i) = (T_i kron I - I kron S_i^T) vec(F), with S_i and T_i
    the actions on src and tgt; each row is written from their nonzeros.
    """
    _same_algebra(src, tgt)
    s, t = src.dim, tgt.dim
    cols = t * s
    out = {}
    for i in range(src.h.dim):
        for r, k, x in tgt._action_nonzeros[i]:
            for c in range(s):
                _accumulate(out, ((i * t + r) * s + c) * cols + k * s + c, x)
        for k, c, y in src._action_nonzeros[i]:
            for r in range(t):
                _accumulate(out, ((i * t + r) * s + c) * cols + r * s + k, -y)
    ker = kernel_basis(_dense(src.field, src.h.dim * cols, cols, out))
    basis = []
    for c in range(ker.cols):
        col = ker.col(c)
        rows = [[col[r * s + j] for j in range(s)] for r in range(t)]
        basis.append(Matrix.from_rows(src.field, rows))
    return basis


def _spin_up(m: Module) -> tuple:
    """Generators of ``m`` by spin-up, with the relations among them.

    The basis of m is walked in order; each e_mu outside the span so far
    becomes a generator g_i = e_mu, and its orbit act(e_a) g_i, a < dim H,
    joins the span.  An element (h_i) of H^k is a dict {(i, a): c} standing
    for h_i = sum_a c e_a, and pi((h_i)) = sum_i h_i . g_i maps H^k onto m.

    Returns the generators' basis indices mu_i, per basis vector e_mu an
    element s_mu of H^k with pi(s_mu) = e_mu, and a basis of ker pi.
    """
    one = m.field.one()
    cols = [_columns(a) for a in m.action]
    echelon = []  # (pivot, vector with 1 there, its preimage under pi)

    def reduce(vec: dict, elem: dict) -> dict:
        """Clear vec at every pivot, keeping pi(elem) - vec fixed."""
        for piv, row, pre in echelon:
            c = vec.get(piv)
            if c:
                for j, x in row.items():
                    _accumulate(vec, j, -c * x)
                for key, x in pre.items():
                    _accumulate(elem, key, -c * x)
        return _pruned(vec)

    gens, relations = [], []
    for mu in range(m.dim):
        if not reduce({mu: one}, {}):
            continue
        i = len(gens)
        gens.append(mu)
        for a in range(m.h.dim):
            elem = {(i, a): one}
            vec = reduce(dict(cols[a][mu]), elem)
            if vec:
                piv = min(vec)
                inv = one / vec[piv]
                echelon.append((piv, {j: x * inv for j, x in vec.items()},
                                {key: x * inv for key, x in elem.items() if x}))
            else:
                relations.append(_pruned(elem))
    preimages = []
    for mu in range(m.dim):
        elem = {}
        if reduce({mu: one}, elem):
            raise ShapeError("the action does not span the module (not a unital module)")
        preimages.append({key: -x for key, x in elem.items() if x})
    return gens, preimages, relations


# -- currying and the duality identification iota --------------------------------


def _uncurry_l_row(alpha_w: Matrix, g: Matrix) -> tuple:
    """Entries of ev_l o (g (x) id) for g: V -> hom_l(W, unit), where
    ``alpha_w`` is the action of alpha on W: v (x) w -> g(v)(alpha . w)."""
    return (g.transpose() @ alpha_w).entries


def _uncurry_r_row(beta_x: Matrix, g: Matrix) -> tuple:
    """Entries of ev_r o (id (x) g) for g: V -> hom_r(X, unit), where
    ``beta_x`` is the action of S^-1(alpha) on X: x (x) v -> g(v)(beta_x . x)."""
    return (beta_x.transpose() @ g).entries


def _curry(v: Module, w: Module, target: Module, rows) -> tuple:
    """Curry H-linear maps V (x) W -> unit, given as nonempty entry ``rows``.

    Returns the basis of Hom_H(V, target), target = hom_l(W, unit), and the
    coordinates on it of every curried map, one column per row; one
    elimination serves every row.
    """
    h = v.h
    basis = hom_space(v, target)
    if not basis:
        raise InconsistentSystemError("no H-linear preimage exists (invalid algebra data)")
    alpha_w = w.action_of(h.alpha)
    sys = hstack([Matrix.column(h.field, _uncurry_l_row(alpha_w, b)) for b in basis])
    sol = solve(sys, hstack([Matrix.column(h.field, r) for r in rows]))
    if sol is None:
        raise InconsistentSystemError("currying failed: input not in the image (invalid algebra data)")
    return basis, sol.particular


def iota_matrix(v: Module, w: Module):
    """Matrix of iota between intertwiner-space bases.

    Returns (matrix, domain_basis, codomain_basis) where the bases are
    lists of 1-row matrices spanning Hom_H(V (x) W, unit) and
    Hom_H(W# (x) V, unit).
    """
    return _iota_matrix(v, w, hom_space(tensor(v, w), trivial_module(v.h)))


def _iota_matrix(v: Module, w: Module, dom: list):
    """``iota_matrix`` with its domain basis ``dom`` already computed.

    iota is linear, so it is applied to the whole domain basis at once:
    every basis map is curried by one solve, and the images are the
    uncurried-on-the-right images of the currying basis, combined by those
    coordinates.
    """
    h = v.h
    ws = sharp(w)
    cod = hom_space(tensor(ws, v), trivial_module(h))
    if len(dom) != len(cod):
        raise InconsistentSystemError(
            "intertwiner spaces have different dimensions (invalid algebra data)"
        )
    if not dom:
        return Matrix.zeros(h.field, 0, 0), dom, cod
    basis, coords = _curry(v, w, hom_l(w, trivial_module(h)), [b.entries for b in dom])
    beta_ws = ws.action_of(h.s_inv.apply(h.alpha))
    uncurried = hstack([Matrix.column(h.field, _uncurry_r_row(beta_ws, b)) for b in basis])
    cod_cols = hstack([Matrix.column(h.field, b.entries) for b in cod])
    sol = solve(cod_cols, uncurried @ coords)
    if sol is None:
        raise InconsistentSystemError("iota image leaves the intertwiner space")
    return sol.particular, dom, cod
