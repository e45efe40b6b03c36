"""The monoidal category of finite-dimensional left modules.

Modules are given by per-basis-element action matrices.  The tensor product
acts through the coproduct, the associator is the slot-wise action of the
invertible element Phi, internal Homs twist by the antipode, and the sharp
functor precomposes an action with S^2.  Linear maps between modules are
plain matrices; H-linearity is a checkable property, and intertwiner spaces
are computed exactly as matrix kernels.

Hom-space vectorization is row-major: a map f: M -> N with matrix F
(d_N x d_M) has coordinates vec(F), and vec(A F B) = (A kron B^T) vec(F).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product

from .errors import InconsistentSystemError, ShapeError
from .linalg import Matrix, hstack, kernel_basis, kron, solve, solve_unique, vstack
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
    "associator_inv",
    "sharp",
    "hom_l",
    "hom_r",
    "is_module_morphism",
    "hom_space",
    "left_unitor",
    "right_unitor",
    "ev_l",
    "ev_r",
    "uncurry_l",
    "uncurry_r",
    "curry_l",
    "iota_apply",
    "iota_matrix",
    "iota_inverse_apply",
    "iota_closed_form",
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

    def action_of(self, vec) -> Matrix:
        """Action matrix of an arbitrary algebra element."""
        out = Matrix.zeros(self.field, self.dim, self.dim)
        for i, c in enumerate(vec):
            if c:
                out = out + self.action[i].scale(c)
        return out


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


def tensor(m: Module, n: Module) -> Module:
    """Tensor product module; the action goes through the coproduct."""
    _same_algebra(m, n)
    h = m.h
    acts = []
    for i in range(h.dim):
        acc = Matrix.zeros(h.field, m.dim * n.dim, m.dim * n.dim)
        for (a, b), c in h.qb.delta_of_basis(i):
            acc = acc + kron(m.action[a], n.action[b]).scale(c)
        acts.append(acc)
    return Module(h, m.dim * n.dim, tuple(acts), name=f"({m.name})(x)({n.name})")


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


def associator_inv(m: Module, n: Module, l: Module) -> ModuleMap:
    h = m.h
    mat = _slotwise_action(h.phi_inv.nonzeros(), (m, n, l))
    return ModuleMap(tensor(m, tensor(n, l)), tensor(tensor(m, n), l), mat)


def sharp(m: Module) -> Module:
    """Same space, action precomposed with S^2."""
    s = m.h.s
    acts = tuple(m.action_of(s.apply(s.col(i))) for i in range(m.h.dim))
    return Module(m.h, m.dim, acts, name=f"({m.name})#")


def hom_l(m: Module, n: Module) -> Module:
    """Left internal Hom on Hom_k(m, n): h . f = h^1 f(S(h^2) -)."""
    _same_algebra(m, n)
    h = m.h
    acts = []
    for i in range(h.dim):
        acc = Matrix.zeros(h.field, n.dim * m.dim, n.dim * m.dim)
        for (a, b), c in h.qb.delta_of_basis(i):
            acc = acc + kron(n.action[a], m.action_of(h.s.col(b)).transpose()).scale(c)
        acts.append(acc)
    return Module(h, n.dim * m.dim, tuple(acts), name=f"Hom_l({m.name},{n.name})")


def hom_r(m: Module, n: Module) -> Module:
    """Right internal Hom on Hom_k(m, n): h . f = h^2 f(S^-1(h^1) -)."""
    _same_algebra(m, n)
    h = m.h
    acts = []
    for i in range(h.dim):
        acc = Matrix.zeros(h.field, n.dim * m.dim, n.dim * m.dim)
        for (a, b), c in h.qb.delta_of_basis(i):
            acc = acc + kron(n.action[b], m.action_of(h.s_inv.col(a)).transpose()).scale(c)
        acts.append(acc)
    return Module(h, n.dim * m.dim, tuple(acts), name=f"Hom_r({m.name},{n.name})")


def is_module_morphism(f: Matrix, src: Module, tgt: Module) -> bool:
    _same_algebra(src, tgt)
    if f.rows != tgt.dim or f.cols != src.dim:
        raise ShapeError("candidate morphism has wrong shape")
    for i in range(src.h.dim):
        if f @ src.action[i] != tgt.action[i] @ f:
            return False
    return True


def hom_space(src: Module, tgt: Module) -> list:
    """Basis of the space of H-linear maps src -> tgt, as matrices."""
    _same_algebra(src, tgt)
    field = src.field
    blocks = []
    idm = Matrix.identity(field, src.dim)
    idn = Matrix.identity(field, tgt.dim)
    for i in range(src.h.dim):
        blocks.append(kron(tgt.action[i], idm) - kron(idn, src.action[i].transpose()))
    ker = kernel_basis(vstack(blocks))
    out = []
    for c in range(ker.cols):
        col = ker.col(c)
        rows = [
            [col[r * src.dim + s] for s in range(src.dim)] for r in range(tgt.dim)
        ]
        out.append(Matrix.from_rows(field, rows))
    return out


def left_unitor(m: Module) -> ModuleMap:
    """unit (x) m -> m, the canonical vector-space identification."""
    return ModuleMap(tensor(trivial_module(m.h), m), m, Matrix.identity(m.field, m.dim))


def right_unitor(m: Module) -> ModuleMap:
    return ModuleMap(tensor(m, trivial_module(m.h)), m, Matrix.identity(m.field, m.dim))


# -- unit-target evaluations and currying --------------------------------------


def ev_l(w: Module) -> ModuleMap:
    """hom_l(w, unit) (x) w -> unit, phi (x) x -> phi(alpha . x)."""
    h = w.h
    unit = trivial_module(h)
    a = w.action_of(h.alpha)
    entries = []
    for i in range(w.dim):
        for j in range(w.dim):
            entries.append(a.at(i, j))
    mat = Matrix(h.field, 1, w.dim * w.dim, tuple(entries))
    return ModuleMap(tensor(hom_l(w, unit), w), unit, mat)


def ev_r(v: Module) -> ModuleMap:
    """v (x) hom_r(v, unit) -> unit, x (x) phi -> phi(S^-1(alpha) . x)."""
    h = v.h
    unit = trivial_module(h)
    a = v.action_of(h.s_inv.apply(h.alpha))
    entries = [None] * (v.dim * v.dim)
    for j in range(v.dim):
        for i in range(v.dim):
            entries[j * v.dim + i] = a.at(i, j)
    mat = Matrix(h.field, 1, v.dim * v.dim, tuple(entries))
    return ModuleMap(tensor(v, hom_r(v, unit)), unit, mat)


def _uncurry_l_row(alpha_w: Matrix, g: Matrix) -> tuple:
    """Entries of ev_l o (g (x) id) for g: V -> hom_l(W, unit), where
    ``alpha_w`` is the action of alpha on W: v (x) w -> g(v)(alpha . w)."""
    return (g.transpose() @ alpha_w).entries


def _uncurry_r_row(beta_x: Matrix, g: Matrix) -> tuple:
    """Entries of ev_r o (id (x) g) for g: V -> hom_r(X, unit), where
    ``beta_x`` is the action of S^-1(alpha) on X: x (x) v -> g(v)(beta_x . x)."""
    return (beta_x.transpose() @ g).entries


def uncurry_l(g: ModuleMap, w: Module) -> ModuleMap:
    """From g: V -> hom_l(W, unit) build ev_l o (g (x) id): V (x) W -> unit."""
    h = w.h
    v = g.source
    entries = _uncurry_l_row(w.action_of(h.alpha), g.matrix)
    mat = Matrix(h.field, 1, v.dim * w.dim, entries)
    return ModuleMap(tensor(v, w), trivial_module(h), mat)


def uncurry_r(g: ModuleMap, x: Module) -> ModuleMap:
    """From g: V -> hom_r(X, unit) build ev_r o (id (x) g): X (x) V -> unit."""
    h = x.h
    v = g.source
    entries = _uncurry_r_row(x.action_of(h.s_inv.apply(h.alpha)), g.matrix)
    mat = Matrix(h.field, 1, x.dim * v.dim, entries)
    return ModuleMap(tensor(x, v), trivial_module(h), mat)


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


def curry_l(f: ModuleMap, v: Module, w: Module) -> ModuleMap:
    """Inverse of uncurry_l on intertwiner spaces.

    The input must be H-linear; the result is the unique H-linear
    g: V -> hom_l(W, unit) with uncurry_l(g, w) = f.
    """
    h = v.h
    unit = trivial_module(h)
    if not is_module_morphism(f.matrix, tensor(v, w), unit):
        raise InconsistentSystemError("curry_l needs an H-linear input")
    target = hom_l(w, unit)
    acc = Matrix.zeros(h.field, target.dim, v.dim)
    if f.matrix.is_zero():
        return ModuleMap(v, target, acc)
    basis, coords = _curry(v, w, target, [f.matrix.entries])
    for c, b in zip(coords.col(0), basis):
        if c:
            acc = acc + b.scale(c)
    return ModuleMap(v, target, acc)


# -- the duality identification iota ------------------------------------------


def iota_apply(f: ModuleMap, v: Module, w: Module) -> ModuleMap:
    """Hom(V (x) W, unit) -> Hom(W# (x) V, unit) as the three-step composite:
    curry at the left internal Hom, identify hom_l(W, unit) with
    hom_r(W#, unit) (the identity on underlying functionals), uncurry on
    the right.
    """
    h = v.h
    g = curry_l(f, v, w)
    ws = sharp(w)
    gr = ModuleMap(v, hom_r(ws, trivial_module(h)), g.matrix)
    return uncurry_r(gr, ws)


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
    uncurry_r images of the currying basis, combined by those coordinates.
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


def iota_inverse_apply(g: ModuleMap, v: Module, w: Module) -> ModuleMap:
    """Inverse of iota: from Hom(W# (x) V, unit) back to Hom(V (x) W, unit)."""
    h = v.h
    unit = trivial_module(h)
    mat, dom, cod = iota_matrix(v, w)
    if not cod:
        if g.matrix.is_zero():
            return ModuleMap(tensor(v, w), unit, Matrix.zeros(h.field, 1, v.dim * w.dim))
        raise InconsistentSystemError("nonzero map in a zero intertwiner space")
    cod_cols = hstack([Matrix.column(h.field, b.entries) for b in cod])
    gcoords = solve(cod_cols, Matrix.column(h.field, g.matrix.entries))
    if gcoords is None:
        raise InconsistentSystemError("iota inverse needs an H-linear input")
    dcoords = solve_unique(mat, gcoords.particular)
    acc = Matrix.zeros(h.field, 1, v.dim * w.dim)
    for c, b in zip(dcoords.col(0), dom):
        if c:
            acc = acc + b.scale(c)
    return ModuleMap(tensor(v, w), unit, acc)


def iota_closed_form(f: ModuleMap, v: Module, w: Module) -> ModuleMap:
    """Candidate closed form of iota, checked against the composite in tests:
    iota(f)(x (x) y) = sum f(P y (x) Q beta R S(alpha) x) over Phi^-1 = P(x)Q(x)R.
    """
    h = v.h
    alg = h.algebra
    s_alpha = h.s.apply(h.alpha)
    entries = [h.field.zero()] * (w.dim * v.dim)
    for (i, j, k), c in h.phi_inv.nonzeros():
        wel = alg.mul_vec(
            basis_vec(h.field, h.dim, j),
            alg.mul_vec(h.beta, alg.mul_vec(basis_vec(h.field, h.dim, k), s_alpha)),
        )
        av = v.action[i]
        aw = w.action_of(wel)
        for iw in range(w.dim):
            for iv in range(v.dim):
                acc = h.field.zero()
                for jv in range(v.dim):
                    x = av.at(jv, iv)
                    if not x:
                        continue
                    for jw in range(w.dim):
                        y = aw.at(jw, iw)
                        if y:
                            acc = acc + c * x * y * f.matrix.at(0, jv * w.dim + jw)
                entries[iw * v.dim + iv] = entries[iw * v.dim + iv] + acc
    mat = Matrix(h.field, 1, w.dim * v.dim, tuple(entries))
    return ModuleMap(tensor(sharp(w), v), trivial_module(h), mat)
