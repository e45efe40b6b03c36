"""Anti-Yetter-Drinfeld structures of both presentations and half-braidings.

A type-I structure is a module M with a coaction-like map
rho: M -> M (x) H written m -> m<0> (x) m<1>; a type-II structure carries
lambda: M -> M (x) H written m -> m[0] (x) m[1].  Either datum reconstructs
the same natural family tau_V: V# (x) M -> M (x) V, the value tau_H
determines everything by naturality, and the two presentations convert
into each other through it.

The per-element compatibility and the counit condition are linear in the
coaction x.  Each is defined once here, as (location, lhs, rhs) blocks
whose sides list sparse linear forms {(nu * n + b) * d + mu': coefficient}
in the entries x[(nu, b), mu'], the key None holding a constant.  The forms
range over ``coaction_support``: x's nonzeros for the checkers, which
evaluate them at x (``compat_i_blocks`` and its siblings), and every entry
for ``ayd_solve``, which writes them into its linear system.

The coassociativity-type compatibility (the "quasi-comodule" conditions)
is checked compositionally: both sides of the hexagon at V = W = H are
evaluated on the generating vectors 1 (x) 1 (x) m, which reproduces the
printed equations with an unambiguous pairing of the associator instances.
Each side is a chain of stages applied to a vector of V# (x) W# (x) M one
at a time, right to left; no composite matrix is formed:

    top:    tau_W on slots 2-3, Phi^-1 on (V#, M, W), tau_V on slots 1-2;
    bottom: Phi^-1 on (V#, W#, M), V# (x) W# = (V (x) W)#,
            tau_{V (x) W}, Phi^-1 on (M, V, W).

Phi^-1 acts slot by slot (``repcat._slotwise_apply``), tau_V and tau_W
act on their two slots only, and tau_{V (x) W} acts through the coproduct
of its H-elements (``_tau_elements``), so the module V (x) W is never built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

from .errors import InconsistentSystemError, ShapeError
from .linalg import Matrix, hstack, inverse, kron, solve, solve_unique
from .qha import delta_tree_tensor, vec_from_sparse
from .reports import CheckReport
from .repcat import (
    Module,
    ModuleMap,
    _accumulate,
    _columns,
    _iota_matrix,
    _pruned,
    _slotwise_apply,
    hom_r,
    hom_space,
    regular_module,
    sharp,
    tensor,
    trivial_module,
)
from .tensors import basis_vec, vec_zero

__all__ = [
    "AydTypeI",
    "AydTypeII",
    "HalfBraiding",
    "DualCentralData",
    "check_type_i",
    "check_type_ii",
    "coaction_support",
    "compat_i_forms",
    "compat_ii_forms",
    "counit_forms",
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


# -- reconstruction of the half-braiding ---------------------------------------


def tau_from_rho(t: AydTypeI, v: Module) -> ModuleMap:
    """tau_V(v (x) m) = m<0> (x) m<1> v."""
    m = t.module
    return ModuleMap(tensor(sharp(v), m), tensor(m, v), _tau_matrix(_tau_elements(t), v))


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
    return ModuleMap(tensor(sharp(v), m), tensor(m, v), _tau_matrix(_tau_elements(t), v))


def _tau_elements(t) -> list:
    """The half-braiding of a type-I or type-II structure as elements of H:
    tau_V(v (x) m_mu) = sum over nu of m_nu (x) grid[mu][nu] v, for every V.

    ``grid[mu]`` maps nu to a coefficient tuple; absent entries are zero.
    Type I: grid[mu][nu] = sum_b rho[(nu, b), mu] e_b, the m<1> of m<0> = m_nu.
    Type II: the sum of R^1 m[0] (x) R^2 m[1] S(Q) S(alpha) S^2(P) over
    Phi^-1 = P (x) Q (x) R, with R^1 m[0] expanded in the basis of M.
    """
    m, h = t.module, t.module.h
    d, n, f = m.dim, h.dim, m.field
    grid = [{} for _ in range(d)]

    def add(mu, nu, elem, scale):
        acc = grid[mu].setdefault(nu, [f.zero()] * n)
        for l, y in enumerate(elem):
            if y:
                acc[l] = acc[l] + scale * y

    if isinstance(t, AydTypeI):
        for mu, terms in enumerate(_coaction_nonzeros(m, t.rho)):
            for (nu, b), r in terms:
                add(mu, nu, basis_vec(f, n, b), r)
    else:
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


def _tau_matrix(grid, v: Module) -> Matrix:
    """The matrix V# (x) M -> M (x) V of tau_V, from ``_tau_elements``,
    without building its source and target."""
    d, dv, f = len(grid), v.dim, v.field
    cols = dv * d
    entries = [f.zero()] * (d * dv * cols)
    for mu, row in enumerate(grid):
        for nu, elem in row.items():
            for l, c in enumerate(elem):
                if not c:
                    continue
                act = v.action[l].entries
                for jv in range(dv):
                    base = (nu * dv + jv) * cols + mu
                    for iv in range(dv):
                        x = act[jv * dv + iv]
                        if x:
                            entries[base + iv * d] = entries[base + iv * d] + c * x
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
                tau = _tau_matrix(_tau_elements(AydTypeII(m, elem)), reg)
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
    tau_h = _tau_matrix(_tau_elements(t), reg)
    return lambda_from_tau(HalfBraiding(t.module, tau_h))


def convert_ii_to_i(t: AydTypeII) -> AydTypeI:
    reg = regular_module(t.module.h)
    tau_h = _tau_matrix(_tau_elements(t), reg)
    return rho_from_tau(HalfBraiding(t.module, tau_h))


# -- defining-equation checks ---------------------------------------------------


def coaction_support(m: Module, x: Matrix | None = None) -> list:
    """Per column mu of a coaction, the entries (nu, b) its linear forms range
    over: the nonzeros of x, or every entry when x is None."""
    if x is None:
        return [tuple(product(range(m.dim), range(m.h.dim)))] * m.dim
    return [tuple(nb for nb, _ in terms) for terms in _coaction_nonzeros(m, x)]


def _nonzeros(vec) -> tuple:
    return tuple((l, c) for l, c in enumerate(vec) if c)


def compat_i_forms(m: Module, support):
    """h^1 m<0> (x) h^2 m<1> = (h^2 m)<0> (x) (h^2 m)<1> S^2(h^1), per (e_a, m_mu)."""
    h = m.h
    alg = h.algebra
    d, n, f = m.dim, h.dim, m.field
    s2 = h.s_squared()
    # e_b S^2(e_j), per (b, j)
    b_s2j = cache(lambda b, j: _nonzeros(alg.mul_vec(basis_vec(f, n, b), s2.col(j))))
    for a in range(n):
        for mu in range(d):
            lhs = [{} for _ in range(d * n)]
            rhs = [{} for _ in range(d * n)]
            for (j, k), c in h.qb.delta_of_basis(a):
                aj = m.action[j]
                for nu, b in support[mu]:
                    pos = (nu * n + b) * d + mu
                    for nu2 in range(d):
                        x = aj.at(nu2, nu)
                        if x:
                            for l, y in alg._mult_nz[k][b]:
                                _accumulate(lhs[nu2 * n + l], pos, c * x * y)
                ak = m.action[k]
                for mu2 in range(d):
                    z = ak.at(mu2, mu)
                    if not z:
                        continue
                    for nu, b in support[mu2]:
                        pos = (nu * n + b) * d + mu2
                        for l, y in b_s2j(b, j):
                            _accumulate(rhs[nu * n + l], pos, c * z * y)
            yield (a, mu), lhs, rhs


def compat_ii_forms(m: Module, support):
    """(hm)[0] (x) (hm)[1] = h^21 m[0] (x) h^22 m[1] S(h^1), per (e_a, m_mu).

    Block (a, mu) compares column mu of lambda o act(e_a) with that of
    act'(e_a) o lambda, act' the action on M (x)^r H, so all blocks agree
    exactly when lambda is H-linear into M (x)^r H.
    """
    h = m.h
    alg = h.algebra
    d, n, f = m.dim, h.dim, m.field
    # e_l e_b S(e_j), per (l, b, j)
    l_b_sj = cache(lambda l, b, j: _nonzeros(
        alg.mul_vec(basis_vec(f, n, l), alg.mul_vec(basis_vec(f, n, b), h.s.col(j)))))
    tree = [[] for _ in range(n)]  # (id (x) Delta) Delta(e_a) = sum c e_j (x) e_k (x) e_l
    for (a, j, k, l), c in delta_tree_tensor(h.qb, (None, (None, None))).items():
        tree[a].append((j, k, l, c))
    for a in range(n):
        aa = m.action[a]
        for mu in range(d):
            lhs = [{} for _ in range(d * n)]
            rhs = [{} for _ in range(d * n)]
            for mu2 in range(d):
                z = aa.at(mu2, mu)
                if z:
                    for nu, b in support[mu2]:
                        _accumulate(lhs[nu * n + b], (nu * n + b) * d + mu2, z)
            for j, k, l, c in tree[a]:
                ak = m.action[k]
                for nu, b in support[mu]:
                    pos = (nu * n + b) * d + mu
                    for nu2 in range(d):
                        x = ak.at(nu2, nu)
                        if x:
                            for l2, y in l_b_sj(l, b, j):
                                _accumulate(rhs[nu2 * n + l2], pos, c * x * y)
            yield (a, mu), lhs, rhs


def counit_forms(m: Module, support, with_alpha: bool):
    """eps(m<1>) m<0> = m (type I) or eps(m[1]) m[0] eps(alpha) = m (type II), per m_mu."""
    h = m.h
    d, n, f = m.dim, h.dim, m.field
    scale = h.qb.counit.apply(h.alpha)[0] if with_alpha else f.one()
    for mu in range(d):
        lhs = [{} for _ in range(d)]
        for nu, b in support[mu]:
            e = h.qb.counit_of_basis(b)
            if e:
                lhs[nu][(nu * n + b) * d + mu] = e * scale
        yield (mu,), lhs, [{None: f.one()} if nu == mu else {} for nu in range(d)]


def _at(blocks, x: Matrix):
    """Blocks of linear forms evaluated at the coaction x."""
    xs, zero = x.entries, x.field.zero()

    def value(form):
        acc = zero
        for pos, c in form.items():
            acc = acc + (c if pos is None else c * xs[pos])
        return acc

    for loc, lhs, rhs in blocks:
        yield loc, [value(v) for v in lhs], [value(v) for v in rhs]


def compat_i_blocks(m: Module, rho: Matrix):
    return _at(compat_i_forms(m, coaction_support(m, rho)), rho)


def compat_ii_blocks(m: Module, lam: Matrix):
    return _at(compat_ii_forms(m, coaction_support(m, lam)), lam)


def counit_blocks(m: Module, coaction: Matrix, with_alpha: bool):
    return _at(counit_forms(m, coaction_support(m, coaction), with_alpha), coaction)


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


def _on_slot_pair(mat: Matrix, first: int, src_low: int, dst_low: int):
    """The stage applying ``mat`` to slots ``first`` and ``first + 1`` of a
    three-slot sparse tensor; ``src_low`` and ``dst_low`` are the sizes of the
    less significant slot of its source and of its target."""
    cols = [tuple((divmod(i, dst_low), a) for i, a in col) for col in _columns(mat)]

    def stage(vec: dict) -> dict:
        out = {}
        for idx, x in vec.items():
            for pair, a in cols[idx[first] * src_low + idx[first + 1]]:
                _accumulate(out, idx[:first] + pair + idx[first + 2 :], a * x)
        return _pruned(out)

    return stage


def _tau_of_tensor(grid, v: Module, w: Module):
    """The stage tau_{V (x) W}: (V (x) W)# (x) M -> M (x) V (x) W.

    m_mu goes to the sum over nu of m_nu (x) Delta(grid[mu][nu]), which acts
    slot-wise on V and W, so the module V (x) W is never built.
    """
    qb = v.h.qb
    terms = []
    for row in grid:
        per_nu = []
        for nu, elem in row.items():
            delta = {}
            for l, c in enumerate(elem):
                if c:
                    for ab, y in qb.delta_of_basis(l):
                        _accumulate(delta, ab, c * y)
            per_nu.append((nu, tuple((a, b, c) for (a, b), c in _pruned(delta).items())))
        terms.append(per_nu)
    vcols = [_columns(a) for a in v.action]
    wcols = [_columns(a) for a in w.action]

    def stage(vec: dict) -> dict:
        out = {}
        for (i1, i2, mu), x in vec.items():
            for nu, delta in terms[mu]:
                for a, b, c in delta:
                    for j1, y1 in vcols[a][i1]:
                        cxy = c * x * y1
                        for j2, y2 in wcols[b][i2]:
                            _accumulate(out, (nu, j1, j2), cxy * y2)
        return _pruned(out)

    return stage


def _sharp_of_tensor(vec: dict) -> dict:
    """V# (x) W# -> (V (x) W)#, the identity on vectors.

    This identification is H-linear when S^2 is a coalgebra map, as on
    every zoo algebra; in general the action of Drinfeld's element g
    belongs at this step.
    """
    return vec


def _hexagon_chains(t, v: Module, w: Module):
    """The two sides of the hexagon V# (x) W# (x) M -> M (x) V (x) W, as
    stages on sparse tensors {(i, j, k): coefficient}, in the order they act
    (right to left in the composite)."""
    m = t.module
    phi_inv = m.h.phi_inv.nonzeros()
    grid = _tau_elements(t)
    vs, ws = sharp(v), sharp(w)
    top = (
        _on_slot_pair(_tau_matrix(grid, w), 1, m.dim, w.dim),  # V# (x) tau_W
        _slotwise_apply(phi_inv, (vs, m, w)),                  # Phi^-1 on V# (x) M (x) W
        _on_slot_pair(_tau_matrix(grid, v), 0, m.dim, v.dim),  # tau_V (x) W
    )
    bottom = (
        _slotwise_apply(phi_inv, (vs, ws, m)),                 # Phi^-1 on V# (x) W# (x) M
        _sharp_of_tensor,
        _tau_of_tensor(grid, v, w),                            # tau_{V (x) W}
        _slotwise_apply(phi_inv, (m, v, w)),                   # Phi^-1 on M (x) V (x) W
    )
    return top, bottom


def _push(stages, vec: dict) -> dict:
    for stage in stages:
        vec = stage(vec)
    return vec


def hexagon_check(t, v: Module, w: Module) -> bool:
    """Full hexagon commutativity at (V, W) for a type-I or type-II structure:
    every basis vector of V# (x) W# (x) M is pushed through both sides."""
    top, bottom = _hexagon_chains(t, v, w)
    one = t.module.field.one()
    return all(
        _push(top, {idx: one}) == _push(bottom, {idx: one})
        for idx in product(range(v.dim), range(w.dim), range(t.module.dim))
    )


def _check_quasi_comodule(t, name: str) -> CheckReport:
    """Both sides of the hexagon at V = W = H evaluated on 1 (x) 1 (x) m."""
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
    condition: each generator 1 (x) 1 (x) m_mu of H# (x) H# (x) M is pushed
    through the stages of both sides of the hexagon at V = W = H."""
    m = t.module
    h = m.h
    reg = regular_module(h)
    top, bottom = _hexagon_chains(t, reg, reg)
    d, n, f = m.dim, h.dim, m.field
    unit = [(a, u) for a, u in enumerate(h.unit) if u]
    dims = (d, n, n)
    lhs_cols, rhs_cols = [], []
    for mu in range(d):
        x = {(a, b, mu): ua * ub for a, ua in unit for b, ub in unit}
        lhs_cols.append(vec_from_sparse(f, _push(top, x), dims))
        rhs_cols.append(vec_from_sparse(f, _push(bottom, x), dims))
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
    m = t.module
    grid = _tau_elements(t)
    tau_v = _tau_matrix(grid, u.source)
    tau_w = _tau_matrix(grid, u.target)
    idm = Matrix.identity(m.field, m.dim)
    return kron(idm, u.matrix) @ tau_v == tau_w @ kron(u.matrix, idm)


def stability_check(t: AydTypeI) -> bool:
    """True iff f -> iota^-1(f o tau_H) is the identity on Hom_H(M (x) H, 1).

    The value at V = H suffices: tau_H determines the whole natural family.
    """
    m, h = t.module, t.module.h
    f = m.field
    reg = regular_module(h)
    tau_h = _tau_matrix(_tau_elements(t), reg)
    dom = hom_space(tensor(m, reg), trivial_module(h))
    if not dom:
        return True
    imat, _, cod = _iota_matrix(m, reg, dom)
    cod_cols = hstack([Matrix.column(f, b.entries) for b in cod])
    composed = hstack(
        [Matrix.column(f, (Matrix(f, 1, b.cols, b.entries) @ tau_h).entries) for b in dom]
    )
    ycoords = solve(cod_cols, composed)
    if ycoords is None:
        return False
    try:
        dcoords = solve_unique(imat, ycoords.particular)
    except InconsistentSystemError:
        return False
    return dcoords == Matrix.identity(f, len(dom))


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
    tau_h = _tau_matrix(_tau_elements(t), reg)
    dual = hom_r(m, trivial_module(h))
    inv = inverse(tau_h) is not None
    dual_inv = inverse(tau_h.transpose()) is not None
    return DualCentralData(dual, tau_h.transpose(), inv, dual_inv)
