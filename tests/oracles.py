"""Reference implementations that fast paths are tested against.

Each oracle is an earlier, slower form of a library function, kept as it
was so a differential test can hold the fast path to it.

The duality identification iota, one domain vector at a time: every
vector is curried by its own one-column solve against a freshly built
currying basis, and each evaluation builds its matrix entry by entry.
``iota_matrix_per_vector`` and ``stability_check_per_vector`` are the
former ``repcat.iota_matrix`` and ``ayd.stability_check``, running on
these per-vector evaluations.
"""

from qhayd.ayd import AydTypeI, tau_from_rho
from qhayd.errors import InconsistentSystemError
from qhayd.linalg import Matrix, hstack, solve, solve_unique
from qhayd.repcat import (
    Module,
    ModuleMap,
    hom_l,
    hom_r,
    hom_space,
    is_module_morphism,
    regular_module,
    sharp,
    tensor,
    trivial_module,
)


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
