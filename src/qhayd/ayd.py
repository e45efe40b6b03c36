"""Anti-Yetter-Drinfeld structures of both presentations and half-braidings.

A type-I structure is a module M with a coaction-like map
rho: M -> M (x) H written m -> m<0> (x) m<1>; a type-II structure carries
lambda: M -> M (x) H written m -> m[0] (x) m[1].  Either datum reconstructs
the same natural family tau_V: V# (x) M -> M (x) V, the value tau_H
determines everything by naturality, and the two presentations convert
into each other through it.

The per-element compatibility and the counit condition are linear in the
coaction.  Each is defined once here, by a generator of (location, lhs, rhs)
blocks (``compat_i_blocks``, ``compat_ii_blocks``, ``counit_blocks``): the
checkers report the first block whose sides differ, and ``ayd_solve``
assembles the same blocks into its linear system.

The coassociativity-type compatibility (the "quasi-comodule" conditions)
is checked compositionally: both composites around the hexagon at
V = W = H are evaluated on the generating vectors 1 (x) 1 (x) m, which
reproduces the printed equations with an unambiguous pairing of the
associator instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InconsistentSystemError, ShapeError
from .linalg import Matrix, hstack, inverse, kron, solve, solve_unique
from .qha import delta_tree_matrix
from .reports import CheckReport
from .repcat import (
    Module,
    ModuleMap,
    _slotwise_action,
    hom_r,
    hom_space,
    iota_matrix,
    regular_module,
    sharp,
    tensor,
    trivial_module,
)
from .tensors import basis_vec, vec_kron, vec_zero

__all__ = [
    "AydTypeI",
    "AydTypeII",
    "HalfBraiding",
    "DualCentralData",
    "r_tensor_module",
    "check_type_i",
    "check_type_ii",
    "compat_i_blocks",
    "compat_ii_blocks",
    "counit_blocks",
    "tau_from_rho",
    "rho_from_tau",
    "tau_from_lambda",
    "lambda_from_tau",
    "convert_i_to_ii",
    "convert_ii_to_i",
    "hexagon_check",
    "naturality_check",
    "stability_check",
    "sigma_hopf",
    "d_apply",
    "quasi_comodule_condition_matrices",
    "classical_comodule_matrices",
]


def _coaction_shape_check(module: Module, mat: Matrix):
    d, n = module.dim, module.h.dim
    if mat.rows != d * n or mat.cols != d:
        raise ShapeError(f"coaction map must be {d * n} x {d}")


def _coaction_nonzeros(module: Module, mat: Matrix):
    """Per input basis index: nonzero ((m_out, h_out), coeff) pairs."""
    d, n = module.dim, module.h.dim
    out = []
    for mu in range(d):
        col = mat.col(mu)
        out.append(
            tuple(((f // n, f % n), c) for f, c in enumerate(col) if c)
        )
    return out


@dataclass(frozen=True)
class AydTypeI:
    """Module plus rho: M -> M (x) H, rows indexed by (m-slot, H-slot)."""

    module: Module
    rho: Matrix

    def __post_init__(self):
        _coaction_shape_check(self.module, self.rho)


@dataclass(frozen=True)
class AydTypeII:
    module: Module
    lam: Matrix

    def __post_init__(self):
        _coaction_shape_check(self.module, self.lam)


@dataclass(frozen=True)
class HalfBraiding:
    """The value tau_H: H# (x) M -> M (x) H of a natural family.

    Naturality determines tau_V for every V: extract rho = tau_H(1 (x) -)
    and reinstate tau_V(v (x) m) = m<0> (x) m<1> v.
    """

    module: Module
    tau_h: Matrix

    def __post_init__(self):
        d, n = self.module.dim, self.module.h.dim
        if self.tau_h.rows != d * n or self.tau_h.cols != n * d:
            raise ShapeError(f"tau_H must be {d * n} x {n * d}")

    def tau_for(self, v: Module) -> ModuleMap:
        return tau_from_rho(rho_from_tau(self), v)


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


# -- reconstruction of the half-braiding ---------------------------------------


def tau_from_rho(t: AydTypeI, v: Module) -> ModuleMap:
    """tau_V(v (x) m) = m<0> (x) m<1> v."""
    m = t.module
    return ModuleMap(tensor(sharp(v), m), tensor(m, v), _tau_rho_matrix(t, v))


def _tau_rho_matrix(t: AydTypeI, v: Module) -> Matrix:
    """The matrix of ``tau_from_rho``, without building its source and target."""
    m = t.module
    d, dv, f = m.dim, v.dim, m.field
    nz = _coaction_nonzeros(m, t.rho)
    entries = [f.zero()] * (d * dv * dv * d)
    cols = dv * d
    for mu in range(d):
        for (nu, b), c in nz[mu]:
            av = v.action[b]
            for jv in range(dv):
                row = (nu * dv + jv) * cols
                for iv in range(dv):
                    x = av.at(jv, iv)
                    if x:
                        entries[row + iv * d + mu] = entries[row + iv * d + mu] + c * x
    return Matrix(f, d * dv, dv * d, tuple(entries))


def rho_from_tau(b: HalfBraiding) -> AydTypeI:
    """rho(m) = tau_H(1 (x) m)."""
    m, h = b.module, b.module.h
    d, n, f = m.dim, h.dim, m.field
    cols = []
    for mu in range(d):
        vec = [f.zero()] * (n * d)
        for i, u in enumerate(h.unit):
            if u:
                vec[i * d + mu] = u
        cols.append(b.tau_h.apply(vec))
    rho = Matrix.from_rows(f, [[cols[mu][r] for mu in range(d)] for r in range(d * n)])
    return AydTypeI(m, rho)


def tau_from_lambda(t: AydTypeII, v: Module) -> ModuleMap:
    """tau_V(v (x) m) = R^1 m[0] (x) R^2 m[1] S(Q) S(alpha) S^2(P) v."""
    m = t.module
    return ModuleMap(tensor(sharp(v), m), tensor(m, v), _tau_lambda_matrix(t, v))


def _tau_lambda_matrix(t: AydTypeII, v: Module) -> Matrix:
    """The matrix of ``tau_from_lambda``, without building its source and target."""
    m, h = t.module, t.module.h
    alg = h.algebra
    d, dv, n, f = m.dim, v.dim, h.dim, m.field
    nz = _coaction_nonzeros(m, t.lam)
    s_alpha = h.s.apply(h.alpha)
    s2 = h.s_squared()
    cols = dv * d
    entries = [f.zero()] * (d * dv * cols)
    for (i, j, k), c in h.phi_inv.nonzeros():
        kappa = alg.mul_vec(h.s.col(j), alg.mul_vec(s_alpha, s2.col(i)))
        for (k1, k2), c2 in h.qb.delta_of_basis(k):
            am = m.action[k1]
            for mu in range(d):
                for (nu, b), r in nz[mu]:
                    wel = alg.mul_vec(
                        basis_vec(f, n, k2), alg.mul_vec(basis_vec(f, n, b), kappa)
                    )
                    av = v.action_of(wel)
                    coeff = c * c2 * r
                    for nu2 in range(d):
                        x = am.at(nu2, nu)
                        if not x:
                            continue
                        for jv in range(dv):
                            row = (nu2 * dv + jv) * cols
                            for iv in range(dv):
                                y = av.at(jv, iv)
                                if y:
                                    entries[row + iv * d + mu] = (
                                        entries[row + iv * d + mu] + coeff * x * y
                                    )
    return Matrix(f, d * dv, cols, tuple(entries))


def lambda_from_tau(b: HalfBraiding) -> AydTypeII:
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
                tau = _tau_lambda_matrix(AydTypeII(m, elem), reg)
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


def convert_i_to_ii(t: AydTypeI) -> AydTypeII:
    reg = regular_module(t.module.h)
    tau_h = tau_from_rho(t, reg).matrix
    return lambda_from_tau(HalfBraiding(t.module, tau_h))


def convert_ii_to_i(t: AydTypeII) -> AydTypeI:
    reg = regular_module(t.module.h)
    tau_h = tau_from_lambda(t, reg).matrix
    return rho_from_tau(HalfBraiding(t.module, tau_h))


# -- defining-equation checks ---------------------------------------------------


def compat_i_blocks(m: Module, rho: Matrix):
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


def compat_ii_blocks(m: Module, lam: Matrix):
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


def counit_blocks(m: Module, coaction: Matrix, with_alpha: bool):
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


def _first_failure(rep: CheckReport, name: str, blocks):
    for loc, lhs, rhs in blocks:
        if lhs != rhs:
            rep.add_fail(name, loc, lhs, rhs)
            return
    rep.add_ok(name)


def check_type_i(t: AydTypeI) -> CheckReport:
    rep = CheckReport()
    _first_failure(rep, "ayd-compatibility", compat_i_blocks(t.module, t.rho))
    rep.extend(_check_quasi_comodule(t, "quasi-comodule"))
    _first_failure(rep, "comodule-unit", counit_blocks(t.module, t.rho, with_alpha=False))
    return rep


def check_type_ii(t: AydTypeII) -> CheckReport:
    rep = CheckReport()
    _first_failure(rep, "ayd-compatibility-ii", compat_ii_blocks(t.module, t.lam))
    rep.extend(_check_quasi_comodule(t, "quasi-comodule-ii"))
    _first_failure(rep, "comodule-unit-ii", counit_blocks(t.module, t.lam, with_alpha=True))
    return rep


def _hexagon_composites(t, v: Module, w: Module):
    """The two composites V# (x) W# (x) M -> M (x) V (x) W around the hexagon."""
    m = t.module
    h = m.h
    phi_inv_nz = h.phi_inv.nonzeros()
    tau = _tau_rho_matrix if isinstance(t, AydTypeI) else _tau_lambda_matrix
    tau_v = tau(t, v)
    tau_w = tau(t, w)
    tau_vw = tau(t, tensor(v, w))
    idv = Matrix.identity(m.field, v.dim)
    idw = Matrix.identity(m.field, w.dim)
    arr1 = _slotwise_action(phi_inv_nz, (sharp(v), m, w))
    top = kron(tau_v, idw) @ arr1 @ kron(idv, tau_w)
    arr0 = _slotwise_action(phi_inv_nz, (sharp(v), sharp(w), m))
    arr2 = _slotwise_action(phi_inv_nz, (m, v, w))
    bot = arr2 @ tau_vw @ arr0
    return top, bot


def hexagon_check(t, v: Module, w: Module) -> bool:
    """Full hexagon commutativity at (V, W) for a type-I or type-II structure."""
    top, bot = _hexagon_composites(t, v, w)
    return top == bot


def _check_quasi_comodule(t, name: str) -> CheckReport:
    """Both hexagon composites at V = W = H evaluated on 1 (x) 1 (x) m."""
    rep = CheckReport()
    lhs, rhs = quasi_comodule_condition_matrices(t)
    if lhs == rhs:
        rep.add_ok(name)
        return rep
    for mu in range(t.module.dim):
        cl, cr = lhs.col(mu), rhs.col(mu)
        if cl != cr:
            rep.add_fail(name, (mu,), cl, cr)
            return rep
    raise AssertionError("unreachable")


def quasi_comodule_condition_matrices(t):
    """Matrices M -> M (x) H (x) H of the two sides of the coassociativity-type
    condition, computed by pushing 1 (x) 1 (x) m around the hexagon at V = W = H."""
    m = t.module
    h = m.h
    reg = regular_module(h)
    top, bot = _hexagon_composites(t, reg, reg)
    d, n, f = m.dim, h.dim, m.field
    unit_unit = vec_kron(h.unit, h.unit)
    lhs_cols, rhs_cols = [], []
    for mu in range(d):
        x = vec_kron(unit_unit, basis_vec(f, d, mu))
        lhs_cols.append(top.apply(x))
        rhs_cols.append(bot.apply(x))
    rows = d * n * n
    lhs = Matrix.from_rows(f, [[lhs_cols[mu][r] for mu in range(d)] for r in range(rows)])
    rhs = Matrix.from_rows(f, [[rhs_cols[mu][r] for mu in range(d)] for r in range(rows)])
    return lhs, rhs


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


# -- naturality, stability, duality ---------------------------------------------


def naturality_check(t, u: ModuleMap) -> bool:
    """(id_M (x) u) o tau_V = tau_W o (u# (x) id_M) for an H-linear u: V -> W."""
    builder = tau_from_rho if isinstance(t, AydTypeI) else tau_from_lambda
    m = t.module
    tau_v = builder(t, u.source).matrix
    tau_w = builder(t, u.target).matrix
    idm = Matrix.identity(m.field, m.dim)
    return kron(idm, u.matrix) @ tau_v == tau_w @ kron(u.matrix, idm)


def stability_check(t: AydTypeI) -> bool:
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
    imat, dom2, cod = iota_matrix(m, reg)
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


def sigma_hopf(t: AydTypeI) -> ModuleMap:
    """m -> m<1> . m<0>, defined only when the associator is trivial."""
    m, h = t.module, t.module.h
    if not h.phi_is_trivial():
        raise ShapeError("sigma is only defined for a trivial associator (Hopf case)")
    d, f = m.dim, m.field
    nz = _coaction_nonzeros(m, t.rho)
    cols = []
    for mu in range(d):
        acc = vec_zero(f, d)
        for (nu, b), r in nz[mu]:
            col = m.action[b].col(nu)
            acc = tuple(x + r * y for x, y in zip(acc, col))
        cols.append(acc)
    mat = Matrix.from_rows(f, [[cols[mu][i] for mu in range(d)] for i in range(d)])
    return ModuleMap(m, m, mat)


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
    tau_h = tau_from_rho(t, reg).matrix
    dual = hom_r(m, trivial_module(h))
    inv = inverse(tau_h) is not None
    dual_inv = inverse(tau_h.transpose()) is not None
    return DualCentralData(dual, tau_h.transpose(), inv, dual_inv)
