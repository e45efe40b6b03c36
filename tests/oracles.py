"""Reference implementations that fast paths are tested against.

Each oracle is an earlier, slower form of a library function, kept as it
was so a differential test can hold the fast path to it.

The duality identification iota, one domain vector at a time: every
vector is curried by its own one-column solve against a freshly built
currying basis, and each evaluation builds its matrix entry by entry.
``iota_matrix_per_vector`` and ``stability_check_per_vector`` are the
former ``repcat.iota_matrix`` and ``ayd.stability_check``, running on
these per-vector evaluations.

The Sweedler evaluator's node sweep: ``exec_term_sweep`` is the former
``dsl.evaluator._exec_term``, which applies a term's plan nodes one at a
time to a single sparse state over every open wire, and
``eval_equation_sweep`` is the former ``eval_equation`` running on it,
with coproduct-tree tensors read off the dense ``delta_tree_matrix``.

Products in H^(x)k over every pair of nonzeros: ``power_mul_pairs`` is the
former ``Algebra.power_mul``, which tries each pair (u-term, v-term) and
drops it at the first slot whose product is zero.

Element primitives with no caller in the library: ``antipode_inv``, the
comb bracketings ``left_comb``/``right_comb`` and ``iterated_coproduct``.

Iterated coproducts as dense matrices: ``delta_tree_matrix`` is the former
``qha.delta_tree_matrix``, which multiplies out kron(left, right) @ Delta
for each bracketing (cached per coalgebra and tree, as the former
``QuasiBialgebra._tree_cache`` did), and ``r_tensor_module`` is the former
``ayd.r_tensor_module`` built on it.

Module constructions and intertwiner systems from dense Kronecker products:
``action_of_dense``, ``tensor_dense``, ``hom_l_dense``, ``hom_r_dense`` and
``hom_space_dense`` are the former ``Module.action_of``, ``repcat.tensor``,
``hom_l``, ``hom_r`` and ``hom_space``, which add up scaled copies of whole
matrices and stack kron(T_i, I) - kron(I, S_i^T) as the system.

The type-II half-braiding coefficient by coefficient:
``tau_elements_ii_direct`` is the former type-II branch of
``ayd._tau_elements``, which accumulates the elements of H straight from
lambda's nonzeros, and ``lambda_from_tau_by_columns`` is the former
``ayd.lambda_from_tau``, which builds tau_H at each of the d.n.d unit
coactions and stacks those columns as the system.

Categorical structure with no caller in the library: the unitors,
``associator_inv``, the evaluations ``ev_l``/``ev_r``, currying
(``curry_l``, ``uncurry_l``, ``uncurry_r``), ``iota_apply`` (iota as the
three-step composite), ``iota_inverse_apply`` and ``iota_closed_form`` are
the former ``repcat`` functions of those names.

The type-II linear space over every entry of lambda:
``linear_space_type_ii_full`` is the former ``ayd_solve.linear_space_type_ii``,
which solves the full system of the compatibility and counit forms.

Library code with no caller in the library: ``classical_comodule_matrices``
(the Hopf-case coassociativity matrices) and ``d_apply`` with its
``DualCentralData`` are the former ``ayd`` functions of those names.

The AYD linear conditions evaluated directly at a coaction:
``compat_i_blocks_direct``, ``compat_ii_blocks_direct`` (reading
(id (x) Delta) Delta off ``delta_tree_matrix``) and ``counit_blocks_direct``
are the former ``ayd`` block generators, which accumulate both sides of each
block from the coaction's nonzeros with no linear forms in between.  The
AYD solver's system by residuals: ``linear_system_by_residuals`` is the
former ``ayd_solve._linear_system``, which evaluates every condition block
at ncoef + 1 coactions and stacks the residual differences as columns.
"""

from dataclasses import dataclass
from functools import cache
from itertools import chain, product

from qhayd import ayd
from qhayd.ayd import (
    AydTypeI,
    AydTypeII,
    _coaction_nonzeros,
    _tau_elements,
    _tau_matrix,
    counit_blocks,
    tau_from_rho,
)
from qhayd.ayd_solve import _linear_space
from qhayd.dsl.compiler import compile_expression
from qhayd.dsl.evaluator import (
    Counterexample,
    _action_tensor,
    _assignment_ranges,
    _NodeTensors,
    _scalar_coeff,
    _wire_sorts,
)
from qhayd.errors import InconsistentSystemError, ShapeError
from qhayd.linalg import Matrix, hstack, inverse, kernel_basis, kron, solve, solve_unique, vstack
from qhayd.qha import Algebra, QuasiBialgebra, QuasiHopfAlgebra, tree_leaves
from qhayd.repcat import (
    Module,
    ModuleMap,
    _curry,
    _same_algebra,
    _slotwise_action,
    _uncurry_l_row,
    _uncurry_r_row,
    hom_l,
    hom_r,
    hom_space,
    iota_matrix,
    is_module_morphism,
    regular_module,
    sharp,
    tensor,
    trivial_module,
)
from qhayd.tensors import Tensor, basis_vec


def action_of_dense(m: Module, vec) -> Matrix:
    """Action matrix of an arbitrary algebra element."""
    out = Matrix.zeros(m.field, m.dim, m.dim)
    for i, c in enumerate(vec):
        if c:
            out = out + m.action[i].scale(c)
    return out


def tensor_dense(m: Module, n: Module) -> Module:
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


def hom_l_dense(m: Module, n: Module) -> Module:
    """Left internal Hom on Hom_k(m, n): h . f = h^1 f(S(h^2) -)."""
    _same_algebra(m, n)
    h = m.h
    acts = []
    for i in range(h.dim):
        acc = Matrix.zeros(h.field, n.dim * m.dim, n.dim * m.dim)
        for (a, b), c in h.qb.delta_of_basis(i):
            acc = acc + kron(n.action[a], action_of_dense(m, h.s.col(b)).transpose()).scale(c)
        acts.append(acc)
    return Module(h, n.dim * m.dim, tuple(acts), name=f"Hom_l({m.name},{n.name})")


def hom_r_dense(m: Module, n: Module) -> Module:
    """Right internal Hom on Hom_k(m, n): h . f = h^2 f(S^-1(h^1) -)."""
    _same_algebra(m, n)
    h = m.h
    acts = []
    for i in range(h.dim):
        acc = Matrix.zeros(h.field, n.dim * m.dim, n.dim * m.dim)
        for (a, b), c in h.qb.delta_of_basis(i):
            acc = acc + kron(
                n.action[b], action_of_dense(m, h.s_inv.col(a)).transpose()
            ).scale(c)
        acts.append(acc)
    return Module(h, n.dim * m.dim, tuple(acts), name=f"Hom_r({m.name},{n.name})")


def hom_space_system_dense(src: Module, tgt: Module) -> Matrix:
    """The stacked kron(T_i, I) - kron(I, S_i^T) whose kernel is vec(Hom_H(src, tgt))."""
    field = src.field
    blocks = []
    idm = Matrix.identity(field, src.dim)
    idn = Matrix.identity(field, tgt.dim)
    for i in range(src.h.dim):
        blocks.append(kron(tgt.action[i], idm) - kron(idn, src.action[i].transpose()))
    return vstack(blocks)


def hom_space_dense(src: Module, tgt: Module) -> list:
    """Basis of the space of H-linear maps src -> tgt, as matrices."""
    _same_algebra(src, tgt)
    field = src.field
    ker = kernel_basis(hom_space_system_dense(src, tgt))
    out = []
    for c in range(ker.cols):
        col = ker.col(c)
        rows = [
            [col[r * src.dim + s] for s in range(src.dim)] for r in range(tgt.dim)
        ]
        out.append(Matrix.from_rows(field, rows))
    return out


def tau_elements_ii_direct(t: AydTypeII) -> list:
    """The half-braiding of a type-II structure as elements of H:
    tau_V(v (x) m_mu) = sum over nu of m_nu (x) grid[mu][nu] v, for every V.

    grid[mu][nu] is the sum of R^1 m[0] (x) R^2 m[1] S(Q) S(alpha) S^2(P)
    over Phi^-1 = P (x) Q (x) R, with R^1 m[0] expanded in the basis of M.
    """
    m, h = t.module, t.module.h
    d, n, f = m.dim, h.dim, m.field
    grid = [{} for _ in range(d)]

    def add(mu, nu, elem, scale):
        acc = grid[mu].setdefault(nu, [f.zero()] * n)
        for l, y in enumerate(elem):
            if y:
                acc[l] = acc[l] + scale * y

    alg = h.algebra
    nz = _coaction_nonzeros(m, t.lam)
    s_alpha = h.s.apply(h.alpha)
    s2 = h.s_squared()
    for (i, j, k), c in h.phi_inv.nonzeros():
        kappa = alg.mul_vec(h.s.col(j), alg.mul_vec(s_alpha, s2.col(i)))
        for (k1, k2), c2 in h.qb.delta_of_basis(k):
            am = m.action[k1]
            for mu in range(d):
                for (nu, b), r in nz[mu]:
                    wel = alg.mul_vec(
                        basis_vec(f, n, k2), alg.mul_vec(basis_vec(f, n, b), kappa)
                    )
                    for nu2 in range(d):
                        x = am.at(nu2, nu)
                        if x:
                            add(mu, nu2, wel, c * c2 * r * x)
    return [{nu: tuple(e) for nu, e in row.items() if any(e)} for row in grid]


def lambda_from_tau_by_columns(b) -> AydTypeII:
    """Unique lambda with tau_from_lambda(lambda, H) = tau_H, by exact linear solve."""
    m, h = b.module, b.module.h
    d, n, f = m.dim, h.dim, m.field
    reg = regular_module(h)
    cols = []
    for nu in range(d):
        for bb in range(n):
            for mu in range(d):
                elem = Matrix(
                    f, d * n, d,
                    tuple(
                        f.one() if (r == nu * n + bb and c == mu) else f.zero()
                        for r in range(d * n)
                        for c in range(d)
                    ),
                )
                tau = _tau_matrix(tau_elements_ii_direct(AydTypeII(m, elem)), reg)
                cols.append(Matrix.column(f, tau.entries))
    sys = hstack(cols)
    target = Matrix.column(f, b.tau_h.entries)
    sol = solve(sys, target)
    if sol is None:
        raise InconsistentSystemError(
            "tau_H is not the reconstruction of any type-II coaction"
        )
    x = sol.particular.col(0)
    lam = Matrix(f, d * n, d, tuple(x))
    return AydTypeII(m, lam)


def associator_inv(m: Module, n: Module, l: Module) -> ModuleMap:
    h = m.h
    mat = _slotwise_action(h.phi_inv.nonzeros(), (m, n, l))
    return ModuleMap(tensor(m, tensor(n, l)), tensor(tensor(m, n), l), mat)


def left_unitor(m: Module) -> ModuleMap:
    """unit (x) m -> m, the canonical vector-space identification."""
    return ModuleMap(tensor(trivial_module(m.h), m), m, Matrix.identity(m.field, m.dim))


def right_unitor(m: Module) -> ModuleMap:
    return ModuleMap(tensor(m, trivial_module(m.h)), m, Matrix.identity(m.field, m.dim))


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


def power_mul_pairs(alg: Algebra, u: dict, v: dict, order: int) -> dict:
    """Product in H^(x)order of two sparse elements."""
    out = {}
    for iu, cu in u.items():
        for iv, cv in v.items():
            coeff = cu * cv
            # expand the product of basis tensors slot by slot
            terms = [((), coeff)]
            for s in range(order):
                nz = alg._mult_nz[iu[s]][iv[s]]
                if not nz:
                    terms = []
                    break
                terms = [
                    (idx + (l,), c * m) for idx, c in terms for l, m in nz
                ]
            for idx, c in terms:
                if idx in out:
                    out[idx] = out[idx] + c
                else:
                    out[idx] = c
    return {k: v for k, v in out.items() if v}


def antipode_inv(h: QuasiHopfAlgebra, a) -> tuple:
    return h.s_inv.apply(a)


def left_comb(k: int):
    """The bracketing (((. .) .) ...) with k leaves."""
    if k < 1:
        raise ShapeError("bracketing needs at least one leaf")
    tree = None
    for _ in range(k - 1):
        tree = (tree, None)
    return tree


def right_comb(k: int):
    if k < 1:
        raise ShapeError("bracketing needs at least one leaf")
    tree = None
    for _ in range(k - 1):
        tree = (None, tree)
    return tree


@cache
def delta_tree_matrix(qb: QuasiBialgebra, tree) -> Matrix:
    """Matrix n^k x n of the iterated coproduct with the given bracketing."""
    if tree is None:
        return Matrix.identity(qb.field, qb.dim)
    left, right = tree
    return kron(delta_tree_matrix(qb, left), delta_tree_matrix(qb, right)) @ qb.delta


def r_tensor_module(m: Module) -> Module:
    """The module M (x)^r H with x . (m (x) h) = x^21 m (x) x^22 h S(x^1)."""
    h = m.h
    n, f = h.dim, h.field
    d3 = delta_tree_matrix(h.qb, (None, (None, None)))
    acts = []
    for a in range(n):
        col = d3.col(a)
        acc = Matrix.zeros(f, m.dim * n, m.dim * n)
        for flat, c in enumerate(col):
            if not c:
                continue
            j, rem = flat // (n * n), flat % (n * n)
            k, l = rem // n, rem % n
            hop = h.algebra.left_mult_matrix(basis_vec(f, n, l)) @ h.algebra.right_mult_matrix(
                h.s.col(j)
            )
            acc = acc + kron(m.action[k], hop).scale(c)
        acts.append(acc)
    return Module(h, m.dim * n, tuple(acts), name=f"({m.name})(x)rH")


def linear_system_by_residuals(m: Module, compat_blocks, with_alpha: bool):
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


def linear_space_type_ii_full(m: Module):
    """The former ``ayd_solve.linear_space_type_ii``: every entry of lambda is
    an unknown, and one solve takes the full system of ``compat_ii_forms``
    and the counit rows.  The forms are read from ``qhayd.ayd`` at call time,
    so a test that wraps them there sees this route use them."""
    return _linear_space(m, ayd.compat_ii_forms, with_alpha=True)


def classical_comodule_matrices(t: AydTypeI):
    """((rho (x) id) rho, (id (x) Delta) rho) as matrices M -> M (x) H (x) H."""
    m, h = t.module, t.module.h
    d, n, f = m.dim, h.dim, m.field
    nz = _coaction_nonzeros(m, t.rho)
    rows = d * n * n
    first = [[f.zero()] * d for _ in range(rows)]
    second = [[f.zero()] * d for _ in range(rows)]
    for mu in range(d):
        for (nu, b), r in nz[mu]:
            for (nu2, b2), r2 in nz[nu]:
                first[(nu2 * n + b2) * n + b][mu] = (
                    first[(nu2 * n + b2) * n + b][mu] + r * r2
                )
            for (x, y), c in h.qb.delta_of_basis(b):
                second[(nu * n + x) * n + y][mu] = (
                    second[(nu * n + x) * n + y][mu] + r * c
                )
    return Matrix.from_rows(f, first), Matrix.from_rows(f, second)


@dataclass(frozen=True)
class DualCentralData:
    """The dual-side picture of a central structure: the module 1 <| M
    with the transpose of tau_H."""

    module: Module
    dual_tau: Matrix
    tau_invertible: bool
    dual_tau_invertible: bool


def d_apply(t: AydTypeI) -> DualCentralData:
    m, h = t.module, t.module.h
    reg = regular_module(h)
    tau_h = _tau_matrix(_tau_elements(t), reg)
    dual = hom_r(m, trivial_module(h))
    inv = inverse(tau_h) is not None
    dual_inv = inverse(tau_h.transpose()) is not None
    return DualCentralData(dual, tau_h.transpose(), inv, dual_inv)


def compat_i_blocks_direct(m: Module, rho: Matrix):
    """h^1 m<0> (x) h^2 m<1> = (h^2 m)<0> (x) (h^2 m)<1> S^2(h^1), per (e_a, m_mu)."""
    h = m.h
    alg = h.algebra
    d, n, f = m.dim, h.dim, m.field
    nz = _coaction_nonzeros(m, rho)
    s2 = h.s_squared()
    for a in range(n):
        for mu in range(d):
            lhs = [f.zero()] * (d * n)
            rhs = [f.zero()] * (d * n)
            for (j, k), c in h.qb.delta_of_basis(a):
                aj = m.action[j]
                for (nu, b), r in nz[mu]:
                    hb = alg.mult[k][b]
                    coeff = c * r
                    for nu2 in range(d):
                        x = aj.at(nu2, nu)
                        if not x:
                            continue
                        for l, y in enumerate(hb):
                            if y:
                                lhs[nu2 * n + l] = lhs[nu2 * n + l] + coeff * x * y
                ak = m.action[k]
                s2j = s2.col(j)
                for mu2 in range(d):
                    z = ak.at(mu2, mu)
                    if not z:
                        continue
                    for (nu, b), r in nz[mu2]:
                        hb = alg.mul_vec(basis_vec(f, n, b), s2j)
                        coeff = c * z * r
                        for l, y in enumerate(hb):
                            if y:
                                rhs[nu * n + l] = rhs[nu * n + l] + coeff * y
            yield (a, mu), lhs, rhs


def compat_ii_blocks_direct(m: Module, lam: Matrix):
    """(hm)[0] (x) (hm)[1] = h^21 m[0] (x) h^22 m[1] S(h^1), per (e_a, m_mu).

    Block (a, mu) compares column mu of lambda o act(e_a) with that of
    act'(e_a) o lambda, act' the action on M (x)^r H, so all blocks agree
    exactly when lambda is H-linear into r_tensor_module(M).
    """
    h = m.h
    alg = h.algebra
    d, n, f = m.dim, h.dim, m.field
    nz = _coaction_nonzeros(m, lam)
    d3 = delta_tree_matrix(h.qb, (None, (None, None)))
    for a in range(n):
        col3 = d3.col(a)
        aa = m.action[a]
        for mu in range(d):
            lhs = [f.zero()] * (d * n)
            rhs = [f.zero()] * (d * n)
            for mu2 in range(d):
                z = aa.at(mu2, mu)
                if not z:
                    continue
                for (nu, b), r in nz[mu2]:
                    lhs[nu * n + b] = lhs[nu * n + b] + z * r
            for flat, c in enumerate(col3):
                if not c:
                    continue
                j, rem = flat // (n * n), flat % (n * n)
                k, l = rem // n, rem % n
                ak = m.action[k]
                sj = h.s.col(j)
                for (nu, b), r in nz[mu]:
                    hb = alg.mul_vec(basis_vec(f, n, l), alg.mul_vec(basis_vec(f, n, b), sj))
                    coeff = c * r
                    for nu2 in range(d):
                        x = ak.at(nu2, nu)
                        if not x:
                            continue
                        for l2, y in enumerate(hb):
                            if y:
                                rhs[nu2 * n + l2] = rhs[nu2 * n + l2] + coeff * x * y
            yield (a, mu), lhs, rhs


def counit_blocks_direct(m: Module, coaction: Matrix, with_alpha: bool):
    """eps(m<1>) m<0> = m (type I) or eps(m[1]) m[0] eps(alpha) = m (type II), per m_mu."""
    h = m.h
    d, f = m.dim, m.field
    nz = _coaction_nonzeros(m, coaction)
    scale = h.qb.counit.apply(h.alpha)[0] if with_alpha else f.one()
    for mu in range(d):
        acc = [f.zero()] * d
        for (nu, b), r in nz[mu]:
            e = h.qb.counit_of_basis(b)
            if e:
                acc[nu] = acc[nu] + r * e * scale
        yield (mu,), acc, list(basis_vec(f, d, mu))


def iterated_coproduct(h: QuasiHopfAlgebra, a, tree) -> Tensor:
    k = tree_leaves(tree)
    mat = delta_tree_matrix(h.qb, tree)
    return Tensor(h.field, h.dim, k, mat.apply(a))


def uncurry_l_entrywise(g: ModuleMap, w: Module) -> ModuleMap:
    """From g: V -> hom_l(W, unit) build ev_l o (g (x) id): V (x) W -> unit."""
    h = w.h
    v = g.source
    a = w.action_of(h.alpha)
    entries = []
    for iv in range(v.dim):
        for iw in range(w.dim):
            acc = h.field.zero()
            for i in range(w.dim):
                acc = acc + a.at(i, iw) * g.matrix.at(i, iv)
            entries.append(acc)
    mat = Matrix(h.field, 1, v.dim * w.dim, tuple(entries))
    return ModuleMap(tensor(v, w), trivial_module(h), mat)


def uncurry_r_entrywise(g: ModuleMap, x: Module) -> ModuleMap:
    """From g: V -> hom_r(X, unit) build ev_r o (id (x) g): X (x) V -> unit."""
    h = x.h
    v = g.source
    b = x.action_of(h.s_inv.apply(h.alpha))
    entries = []
    for ix in range(x.dim):
        for iv in range(v.dim):
            acc = h.field.zero()
            for i in range(x.dim):
                acc = acc + b.at(i, ix) * g.matrix.at(i, iv)
            entries.append(acc)
    mat = Matrix(h.field, 1, x.dim * v.dim, tuple(entries))
    return ModuleMap(tensor(x, v), trivial_module(h), mat)


def curry_l_per_vector(f: ModuleMap, v: Module, w: Module) -> ModuleMap:
    """Inverse of uncurry_l on intertwiner spaces.

    The input must be H-linear; the result is the unique H-linear
    g: V -> hom_l(W, unit) with uncurry_l(g, w) = f.
    """
    h = v.h
    unit = trivial_module(h)
    if not is_module_morphism(f.matrix, tensor(v, w), unit):
        raise InconsistentSystemError("curry_l needs an H-linear input")
    target = hom_l(w, unit)
    basis = hom_space(v, target)
    if not basis:
        if f.matrix.is_zero():
            return ModuleMap(v, target, Matrix.zeros(h.field, target.dim, v.dim))
        raise InconsistentSystemError("no H-linear preimage exists (invalid algebra data)")
    images = [
        Matrix.column(h.field, uncurry_l_entrywise(ModuleMap(v, target, b), w).matrix.entries)
        for b in basis
    ]
    sys = hstack(images)
    sol = solve(sys, Matrix.column(h.field, f.matrix.entries))
    if sol is None:
        raise InconsistentSystemError("currying failed: input not in the image (invalid algebra data)")
    coeffs = sol.particular.col(0)
    acc = Matrix.zeros(h.field, target.dim, v.dim)
    for c, b in zip(coeffs, basis):
        if c:
            acc = acc + b.scale(c)
    return ModuleMap(v, target, acc)


def iota_apply_per_vector(f: ModuleMap, v: Module, w: Module) -> ModuleMap:
    """Hom(V (x) W, unit) -> Hom(W# (x) V, unit) as the three-step composite:
    curry at the left internal Hom, identify hom_l(W, unit) with
    hom_r(W#, unit) (the identity on underlying functionals), uncurry on
    the right.
    """
    h = v.h
    g = curry_l_per_vector(f, v, w)
    ws = sharp(w)
    gr = ModuleMap(v, hom_r(ws, trivial_module(h)), g.matrix)
    return uncurry_r_entrywise(gr, ws)


def iota_matrix_per_vector(v: Module, w: Module):
    """Matrix of iota between intertwiner-space bases.

    Returns (matrix, domain_basis, codomain_basis) where the bases are
    lists of 1-row matrices spanning Hom_H(V (x) W, unit) and
    Hom_H(W# (x) V, unit).
    """
    h = v.h
    unit = trivial_module(h)
    dom = hom_space(tensor(v, w), unit)
    cod = hom_space(tensor(sharp(w), v), unit)
    if len(dom) != len(cod):
        raise InconsistentSystemError(
            "intertwiner spaces have different dimensions (invalid algebra data)"
        )
    if not dom:
        return Matrix.zeros(h.field, 0, 0), dom, cod
    images = [
        iota_apply_per_vector(ModuleMap(tensor(v, w), unit, b), v, w).matrix for b in dom
    ]
    cod_cols = hstack([Matrix.column(h.field, b.entries) for b in cod])
    img_cols = hstack([Matrix.column(h.field, m.entries) for m in images])
    sol = solve(cod_cols, img_cols)
    if sol is None:
        raise InconsistentSystemError("iota image leaves the intertwiner space")
    return sol.particular, dom, cod


def stability_check_per_vector(t: AydTypeI) -> bool:
    """True iff f -> iota^-1(f o tau_H) is the identity on Hom_H(M (x) H, 1).

    The value at V = H suffices: tau_H determines the whole natural family.
    """
    m, h = t.module, t.module.h
    f = m.field
    reg = regular_module(h)
    unit = trivial_module(h)
    tau_h = tau_from_rho(t, reg).matrix
    dom = hom_space(tensor(m, reg), unit)
    if not dom:
        return True
    imat, dom2, cod = iota_matrix_per_vector(m, reg)
    if not cod:
        return False
    dom_cols = hstack([Matrix.column(f, b.entries) for b in dom2])
    cod_cols = hstack([Matrix.column(f, b.entries) for b in cod])
    composed = hstack(
        [Matrix.column(f, (Matrix(f, 1, b.cols, b.entries) @ tau_h).entries) for b in dom2]
    )
    ycoords = solve(cod_cols, composed)
    if ycoords is None:
        return False
    try:
        dcoords = solve_unique(imat, ycoords.particular)
    except InconsistentSystemError:
        return False
    return dcoords == Matrix.identity(f, len(dom2))


class NodeTensorsDense(_NodeTensors):
    """Node tensors with each coproduct tree read off ``delta_tree_matrix``."""

    def _build(self, node, context):
        if node.kind != "delta":
            return super()._build(node, context)
        h = self.b.algebra
        n = h.dim
        mat = delta_tree_matrix(h.qb, node.meta[0])
        k = len(node.out_wires)
        sp = {}
        for j in range(n):
            col = mat.col(j)
            for flat, c in enumerate(col):
                if c:
                    idx = []
                    rem = flat
                    for _ in range(k):
                        idx.append(0)
                    for s in range(k - 1, -1, -1):
                        idx[s] = rem % n
                        rem //= n
                    sp[(j, *idx)] = c
        return sp


def exec_term_sweep(term_plan, tensors, b, context, assignment, wire_sorts) -> dict:
    live = []          # wire ids in state-key order
    state = {(): _scalar_coeff(b.algebra.field, *term_plan.scalar)}
    for node in term_plan.nodes:
        if node.kind == "var":
            sp = {(assignment[node.meta[0]],): b.algebra.field.one()}
        elif node.kind == "action":
            sort = wire_sorts[node.in_wires[1]]
            sp = tensors.cache.get(("action", sort))
            if sp is None:
                sp = _action_tensor(b.module(sort[1]))
                tensors.cache[("action", sort)] = sp
        else:
            sp = tensors.get(node, context)
        in_pos = [live.index(w) for w in node.in_wires]
        n_in = len(node.in_wires)
        new_live = [w for w in live if w not in node.in_wires] + list(node.out_wires)
        keep_pos = [i for i, w in enumerate(live) if w not in node.in_wires]
        new_state = {}
        for key, val in state.items():
            in_vals = tuple(key[p] for p in in_pos)
            kept = tuple(key[p] for p in keep_pos)
            for nkey, nval in sp.items():
                if nkey[:n_in] != in_vals:
                    continue
                out_key = kept + nkey[n_in:]
                acc = val * nval
                if out_key in new_state:
                    new_state[out_key] = new_state[out_key] + acc
                else:
                    new_state[out_key] = acc
        state = {k: v for k, v in new_state.items() if v}
        live = new_live
    # reorder to the declared output wire order
    perm = [live.index(w) for w in term_plan.output_wires]
    return {tuple(k[p] for p in perm): v for k, v in state.items()}


def eval_equation_sweep(lhs, rhs, context, b):
    """Exact equality of both sides over all basis assignments.

    Returns (True, None) or (False, Counterexample).
    """
    lp = compile_expression(lhs, context)
    rp = compile_expression(rhs, context)
    names, ranges = _assignment_ranges(context, b)
    tensors = NodeTensorsDense(b)
    for combo in product(*ranges):
        assignment = dict(zip(names, combo))
        lout = {}
        for tp in lp.terms:
            sorts = _wire_sorts(tp, context)
            for k, v in exec_term_sweep(tp, tensors, b, context, assignment, sorts).items():
                lout[k] = lout.get(k, b.algebra.field.zero()) + v
        rout = {}
        for tp in rp.terms:
            sorts = _wire_sorts(tp, context)
            for k, v in exec_term_sweep(tp, tensors, b, context, assignment, sorts).items():
                rout[k] = rout.get(k, b.algebra.field.zero()) + v
        lout = {k: v for k, v in lout.items() if v}
        rout = {k: v for k, v in rout.items() if v}
        if lout != rout:
            coord = sorted(set(lout) | set(rout))[0]
            z = b.algebra.field.zero()
            return False, Counterexample(
                assignment, coord, lout.get(coord, z), rout.get(coord, z)
            )
    return True, None
