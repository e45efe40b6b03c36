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
"""

from itertools import product

from qhayd.ayd import AydTypeI, tau_from_rho
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
from qhayd.linalg import Matrix, hstack, solve, solve_unique
from qhayd.qha import Algebra, QuasiHopfAlgebra, delta_tree_matrix, tree_leaves
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
from qhayd.tensors import Tensor


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
