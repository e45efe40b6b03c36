import functools
import random
from fractions import Fraction

import pytest

import qhayd.ayd as ayd
import qhayd.linalg as linalg
import qhayd.repcat as repcat
from qhayd.ayd import (
    AydTypeI,
    AydTypeII,
    HalfBraiding,
    check_type_i,
    check_type_ii,
    classical_comodule_matrices,
    compat_ii_blocks,
    convert_i_to_ii,
    convert_ii_to_i,
    d_apply,
    hexagon_check,
    lambda_from_tau,
    naturality_check,
    quasi_comodule_condition_matrices,
    rho_from_tau,
    sigma_hopf,
    stability_check,
    tau_from_lambda,
    tau_from_rho,
)
from qhayd.ayd_solve import enumerate_ayd_i, linear_space_type_i, linear_space_type_ii
from qhayd.errors import InconsistentSystemError, ShapeError
from qhayd.fields import PrimeField
from qhayd.linalg import Matrix, kron
from qhayd.repcat import (
    check_module,
    hom_space,
    is_module_morphism,
    regular_module,
    sharp,
    tensor,
    trivial_module,
)
from qhayd.tensors import basis_vec
from qhayd.zoo import build_entry, zoo_names

from conftest import entry
from oracles import r_tensor_module, stability_check_per_vector


def valid_ayds(e):
    return [(k, b) for k, b in sorted(e.ayds.items()) if b.expected_valid]


def test_bundled_verdicts_reproduce(zoo_entry):
    for key, b in sorted(zoo_entry.ayds.items()):
        rep = check_type_i(b.ayd)
        assert rep.passed == b.expected_valid, (key, [i.name for i in rep.failures()])
        if b.expected_stable is not None:
            assert stability_check(b.ayd) == b.expected_stable, key
        if b.expected_sigma_identity is not None:
            s = sigma_hopf(b.ayd)
            ident = Matrix.identity(b.ayd.module.field, b.ayd.module.dim)
            assert (s.matrix == ident) == b.expected_sigma_identity, key


def test_invalid_rho_fails_with_witness_h_x(h4):
    # rho(x) = x (x) 1 on the trivial module fails the compatibility at h = x
    triv = h4.modules["trivial"]
    rho = Matrix.from_rows(h4.algebra.field, [[Fraction(1)], [Fraction(0)],
                                              [Fraction(0)], [Fraction(0)]])
    rep = check_type_i(AydTypeI(triv, rho))
    assert not rep.passed
    item = rep.item("ayd-compatibility")
    assert not item.passed
    assert item.witness.location[0] == 2  # basis index of x


def test_r_tensor_module_is_a_module(zoo_entry):
    for name, m in zoo_entry.modules.items():
        if m.dim <= 2:
            assert check_module(r_tensor_module(m)).passed, name


def test_tau_at_unit_is_identity(zoo_entry):
    unit = trivial_module(zoo_entry.algebra)
    for key, b in valid_ayds(zoo_entry):
        t = tau_from_rho(b.ayd, unit)
        assert t.matrix == Matrix.identity(b.ayd.module.field, b.ayd.module.dim)


def test_tau_h_at_unit_element_recovers_rho(zoo_entry):
    reg = regular_module(zoo_entry.algebra)
    for key, b in sorted(zoo_entry.ayds.items()):
        tau = tau_from_rho(b.ayd, reg)
        back = rho_from_tau(HalfBraiding(b.ayd.module, tau.matrix))
        assert back.rho == b.ayd.rho


def test_tau_is_h_linear_iff_compatibility_holds(zoo_entry):
    reg = regular_module(zoo_entry.algebra)
    for key, b in sorted(zoo_entry.ayds.items()):
        rep = check_type_i(b.ayd)
        tau = tau_from_rho(b.ayd, reg)
        assert tau.is_morphism() == rep.item("ayd-compatibility").passed


def _random_point(space, field, rng):
    coeffs = [field.from_int(rng.randrange(field.p)) for _ in range(space.affine_dim)]
    return space.point(coeffs)


def test_lemma_bijection_on_random_samples_over_f3():
    from qhayd.ayd_solve import linear_space_type_i, linear_space_type_ii
    from qhayd.zoo import build_entry

    rng = random.Random(20240817)
    f3 = PrimeField(3)
    total = 0
    for name in ("z2", "h4", "k2w"):
        e = build_entry(name, f3)
        reg = regular_module(e.algebra)
        for mod_name, m in sorted(e.modules.items()):
            if m.dim > 2:
                continue
            space_i = linear_space_type_i(m)
            if not space_i.is_empty:
                for _ in range(20):
                    rho = Matrix(f3, m.dim * e.algebra.dim, m.dim,
                                 tuple(_random_point(space_i, f3, rng).col(0)))
                    t = AydTypeI(m, rho)
                    tau = tau_from_rho(t, reg)
                    back = rho_from_tau(HalfBraiding(m, tau.matrix))
                    assert back.rho == rho
                    total += 1
            space_ii = linear_space_type_ii(m)
            if not space_ii.is_empty:
                for _ in range(20):
                    lam = Matrix(f3, m.dim * e.algebra.dim, m.dim,
                                 tuple(_random_point(space_ii, f3, rng).col(0)))
                    t = AydTypeII(m, lam)
                    tau = tau_from_lambda(t, reg)
                    back = lambda_from_tau(HalfBraiding(m, tau.matrix))
                    assert back.lam == lam
                    total += 1
    assert total >= 100


def test_tau_from_lambda_hopf_case_reduces_to_type_i_rule(z2):
    reg = z2.modules["regular"]
    for key, b in valid_ayds(z2):
        t2 = convert_i_to_ii(b.ayd)
        assert t2.lam == b.ayd.rho  # Hopf case: the two coactions coincide
        tau_i = tau_from_rho(b.ayd, reg)
        tau_ii = tau_from_lambda(t2, reg)
        assert tau_i.matrix == tau_ii.matrix


def test_conversion_round_trips_and_verdicts(zoo_entry):
    for key, b in valid_ayds(zoo_entry):
        t2 = convert_i_to_ii(b.ayd)
        assert check_type_ii(t2).passed
        back = convert_ii_to_i(t2)
        assert back.rho == b.ayd.rho
        again = convert_i_to_ii(back)
        assert again.lam == t2.lam


def test_conversion_preserves_failing_item_on_partial_mutants():
    # points satisfying the linear conditions but failing the quadratic one
    from qhayd.ayd_solve import linear_space_type_i
    from qhayd.zoo import build_entry

    f3 = PrimeField(3)
    e = build_entry("k2w", f3)
    m = e.modules["trivial"]
    space = linear_space_type_i(m)
    found = 0
    for c in range(3):
        rho = space.point([f3.from_int(c)])
        t = AydTypeI(m, Matrix(f3, 2, 1, tuple(rho.col(0))))
        rep = check_type_i(t)
        assert rep.item("ayd-compatibility").passed
        assert rep.item("comodule-unit").passed
        if not rep.item("quasi-comodule").passed:
            found += 1
            t2 = convert_i_to_ii(t)
            rep2 = check_type_ii(t2)
            assert rep2.item("ayd-compatibility-ii").passed
            assert rep2.item("comodule-unit-ii").passed
            assert not rep2.item("quasi-comodule-ii").passed
    assert found >= 1


def test_lambda_from_tau_rejects_corrupted_values(h4):
    b = h4.ayds["k_g"].ayd
    reg = regular_module(h4.algebra)
    tau = tau_from_rho(b, reg).matrix
    entries = list(tau.entries)
    entries[0] = entries[0] + Fraction(1)
    bad = Matrix(tau.field, tau.rows, tau.cols, tuple(entries))
    with pytest.raises(InconsistentSystemError):
        lambda_from_tau(HalfBraiding(b.module, bad))


def test_hexagon_on_all_small_pairs(zoo_entry):
    mods = [m for m in zoo_entry.modules.values() if m.dim <= zoo_entry.algebra.dim]
    mods.append(trivial_module(zoo_entry.algebra))
    for key, b in valid_ayds(zoo_entry):
        for v in mods:
            for w in mods:
                assert hexagon_check(b.ayd, v, w), (key, v.name, w.name)
                t2 = convert_i_to_ii(b.ayd)
                assert hexagon_check(t2, v, w), (key, v.name, w.name, "II")


def test_hexagon_fails_for_partial_mutants():
    from qhayd.ayd_solve import linear_space_type_i
    from qhayd.zoo import build_entry

    f3 = PrimeField(3)
    e = build_entry("k2w", f3)
    m = e.modules["trivial"]
    reg = regular_module(e.algebra)
    space = linear_space_type_i(m)
    for c in range(3):
        t = AydTypeI(m, Matrix(f3, 2, 1, tuple(space.point([f3.from_int(c)]).col(0))))
        rep = check_type_i(t)
        if not rep.item("quasi-comodule").passed:
            assert not hexagon_check(t, reg, reg)


def test_naturality_for_all_h_linear_maps(zoo_entry):
    mods = [m for m in zoo_entry.modules.values() if m.dim <= zoo_entry.algebra.dim]
    for key, b in valid_ayds(zoo_entry):
        for v in mods:
            for w in mods:
                for u in hom_space(v, w):
                    from qhayd.repcat import ModuleMap

                    umap = ModuleMap(v, w, u)
                    assert naturality_check(b.ayd, umap), (key, v.name, w.name)


def test_sigma_guard_on_quasi_data(k2w):
    b = k2w.ayds["point_plus"].ayd
    with pytest.raises(ShapeError):
        sigma_hopf(b)


def test_stability_cross_oracle_on_hopf_instances(zoo_entry):
    if not zoo_entry.algebra.phi_is_trivial():
        return
    for key, b in sorted(zoo_entry.ayds.items()):
        s = sigma_hopf(b.ayd)
        ident = Matrix.identity(b.ayd.module.field, b.ayd.module.dim)
        assert stability_check(b.ayd) == (s.matrix == ident), key


def test_stability_matches_per_vector_oracle(zoo_entry):
    for key, b in sorted(zoo_entry.ayds.items()):
        assert stability_check(b.ayd) is stability_check_per_vector(b.ayd), key


@pytest.mark.parametrize("name", ["z2", "h4"])
def test_stability_matches_per_vector_oracle_on_enumerated_points(name):
    triv = build_entry(name, PrimeField(3)).modules["trivial"]
    points = enumerate_ayd_i(triv)
    assert points
    for p in points:
        assert stability_check(p) is stability_check_per_vector(p), p.rho.entries


def test_stability_check_work_is_one_iota_matrix(count_calls):
    # dom, cod and the currying basis: nothing is rebuilt, nothing spent on tau_H
    s3 = build_entry("s3", PrimeField(5))
    reg = s3.modules["regular"]
    h, f = reg.h, reg.field
    rho = Matrix.from_rows(
        f, [[h.unit[b] if mu == nu else f.zero() for mu in range(reg.dim)]
            for nu in range(reg.dim) for b in range(h.dim)]
    )
    t = AydTypeI(reg, rho)
    counts = count_calls(repcat.hom_space, repcat.tensor, linalg.solve)
    stability_check(t)
    assert counts == {"hom_space": 3, "tensor": 2, "solve": 7}


def test_quasi_case_stability_verdicts_pinned(k2w):
    # regression pin: both solver points on the twisted dual of Z/2 are stable
    assert stability_check(k2w.ayds["point_plus"].ayd) is True
    assert stability_check(k2w.ayds["point_minus"].ayd) is True


def test_hopf_reduction_of_quasi_comodule_checker(z2, h4):
    # with trivial associator the hexagon-route condition matrices equal the
    # classical right-comodule coassociativity matrices, for arbitrary rho
    rng = random.Random(11)
    for e in (z2, h4):
        h = e.algebra
        for m in e.modules.values():
            if m.dim > 2:
                continue
            ncoef = m.dim * h.dim * m.dim
            for _ in range(8):
                entries = tuple(
                    Fraction(rng.randint(-2, 2)) for _ in range(ncoef)
                )
                t = AydTypeI(m, Matrix(h.field, m.dim * h.dim, m.dim, entries))
                lhs, rhs = quasi_comodule_condition_matrices(t)
                c1, c2 = classical_comodule_matrices(t)
                assert lhs == c1
                assert rhs == c2


def test_hopf_reduction_polarization_basis(z2):
    # elementary and sum-of-two-elementary coactions pin the quadratic map exactly
    h = z2.algebra
    m = z2.modules["trivial"]
    f = h.field
    ncoef = m.dim * h.dim * m.dim
    points = []
    for i in range(ncoef):
        e_i = [f.zero()] * ncoef
        e_i[i] = f.one()
        points.append(e_i)
        for j in range(i + 1, ncoef):
            e_ij = list(e_i)
            e_ij[j] = f.one()
            points.append(e_ij)
    for vec in points:
        t = AydTypeI(m, Matrix(f, m.dim * h.dim, m.dim, tuple(vec)))
        lhs, rhs = quasi_comodule_condition_matrices(t)
        c1, c2 = classical_comodule_matrices(t)
        assert lhs == c1 and rhs == c2


def test_d_apply(zoo_entry):
    for key, b in sorted(zoo_entry.ayds.items()):
        data = d_apply(b.ayd)
        assert check_module(data.module).passed
        assert data.tau_invertible == data.dual_tau_invertible
        reg = regular_module(zoo_entry.algebra)
        tau = tau_from_rho(b.ayd, reg).matrix
        assert data.dual_tau == tau.transpose()


def test_d_apply_rank_deficient_dual(h4):
    m = h4.modules["trivial"]
    zero_rho = Matrix.zeros(h4.algebra.field, 4, 1)
    data = d_apply(AydTypeI(m, zero_rho))
    assert not data.tau_invertible and not data.dual_tau_invertible


# -- the linear conditions, defined once as blocks ------------------------------

# (entry, field) pairs for the block tests: every zoo algebra over its own
# field and over the primes it admits
BLOCK_CASES = [(name, None) for name in ("h4", "k2w", "k3w", "s3", "z2", "z3")] + [
    (name, PrimeField(p)) for name in ("h4", "k2w", "s3", "z2", "z3") for p in (5, 7)
] + [("k3w", PrimeField(7))]


def _block_modules():
    """Zoo modules with at most 150 coaction coefficients over F_p and 27 over
    Q (the rational type-II space of h4's regular module alone takes seconds)."""
    for name, field in BLOCK_CASES:
        e = build_entry(name, field)
        limit = 150 if e.algebra.field.characteristic else 27
        for mname, m in sorted(e.modules.items()):
            if m.dim * m.h.dim * m.dim <= limit:
                yield f"{name}/{m.field!r}/{mname}", m


def test_elementwise_compat_ii_iff_lambda_is_module_morphism():
    rng = random.Random(11)
    seen = set()
    for label, m in _block_modules():
        f = m.field
        target = r_tensor_module(m)
        space = linear_space_type_ii(m)
        lams = []
        for _ in range(3):
            lams.append(tuple(f.from_int(rng.randrange(-2, 3)) if rng.random() < 0.4
                              else f.zero() for _ in range(space.ambient_dim)))
        if not space.is_empty:
            for _ in range(3):
                coeffs = [f.from_int(rng.randrange(-2, 3)) for _ in range(space.affine_dim)]
                lams.append(space.point(coeffs).entries)
        for entries in lams:
            lam = Matrix(f, m.dim * m.h.dim, m.dim, entries)
            elementwise = all(lhs == rhs for _, lhs, rhs in compat_ii_blocks(m, lam))
            assert elementwise == is_module_morphism(lam, m, target), label
            seen.add(elementwise)
    assert seen == {True, False}


def test_compat_and_counit_witnesses_keep_their_locations(h4):
    triv = h4.modules["trivial"]
    f = triv.field

    def coaction(*xs):
        return Matrix.from_rows(f, [[Fraction(x)] for x in xs])

    # lambda(m) = m (x) 1 fails the type-II compatibility at (h, m) = (x, m_0)
    rep = check_type_ii(AydTypeII(triv, coaction(1, 0, 0, 0)))
    assert rep.to_json(f.format) == [
        {"name": "ayd-compatibility-ii", "passed": False,
         "witness": {"location": [2, 0], "lhs": ["0", "0", "0", "0"],
                     "rhs": ["0", "0", "0", "-2"]}},
        {"name": "quasi-comodule-ii", "passed": True},
        {"name": "comodule-unit-ii", "passed": True},
    ]
    # m (x) 1 on the regular module with column 1 zeroed fails the counit
    # condition at m_1, in both types
    reg = h4.modules["regular"]
    rows = [[f.zero()] * 4 for _ in range(16)]
    for mu in (0, 2, 3):
        rows[mu * 4][mu] = f.one()
    x = Matrix.from_rows(f, rows)
    zero, one = f.zero(), f.one()
    for rep, name in ((check_type_i(AydTypeI(reg, x)), "comodule-unit"),
                      (check_type_ii(AydTypeII(reg, x)), "comodule-unit-ii")):
        w = rep.item(name).witness
        assert (w.location, w.lhs, w.rhs) == ((1,), (zero,) * 4, (zero, one, zero, zero))


# -- the hexagon, stage by stage, against its multiplied-out composites ----------


def kron_slotwise_action(tensor_nonzeros, modules):
    """Oracle: sum c . act_1(e_i1) kron ... kron act_k(e_ik) as a dense matrix."""
    field = modules[0].field
    total = 1
    for m in modules:
        total *= m.dim
    out = Matrix.zeros(field, total, total)
    for idx, c in tensor_nonzeros:
        term = modules[0].action[idx[0]]
        for s in range(1, len(modules)):
            term = kron(term, modules[s].action[idx[s]])
        out = out + term.scale(c)
    return out


def dense_tau_rho_matrix(t, v):
    """Oracle: the matrix of tau_V(v (x) m) = m<0> (x) m<1> v."""
    m = t.module
    d, dv, f = m.dim, v.dim, m.field
    n = m.h.dim
    entries = [f.zero()] * (d * dv * dv * d)
    cols = dv * d
    for mu in range(d):
        for flat, c in enumerate(t.rho.col(mu)):
            if not c:
                continue
            nu, b = flat // n, flat % n
            av = v.action[b]
            for jv in range(dv):
                row = (nu * dv + jv) * cols
                for iv in range(dv):
                    x = av.at(jv, iv)
                    if x:
                        entries[row + iv * d + mu] = entries[row + iv * d + mu] + c * x
    return Matrix(f, d * dv, dv * d, tuple(entries))


def dense_tau_lambda_matrix(t, v):
    """Oracle: the matrix of tau_V(v (x) m) = R^1 m[0] (x) R^2 m[1] S(Q) S(alpha) S^2(P) v."""
    m, h = t.module, t.module.h
    alg = h.algebra
    d, dv, n, f = m.dim, v.dim, h.dim, m.field
    s_alpha = h.s.apply(h.alpha)
    s2 = h.s_squared()
    cols = dv * d
    entries = [f.zero()] * (d * dv * cols)
    for (i, j, k), c in h.phi_inv.nonzeros():
        kappa = alg.mul_vec(h.s.col(j), alg.mul_vec(s_alpha, s2.col(i)))
        for (k1, k2), c2 in h.qb.delta_of_basis(k):
            am = m.action[k1]
            for mu in range(d):
                for flat, r in enumerate(t.lam.col(mu)):
                    if not r:
                        continue
                    nu, b = flat // n, flat % n
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


def composed_hexagon(t, v, w):
    """Oracle: the two composites V# (x) W# (x) M -> M (x) V (x) W around the
    hexagon, multiplied out as dense matrices."""
    m = t.module
    phi_inv_nz = m.h.phi_inv.nonzeros()
    tau = dense_tau_rho_matrix if isinstance(t, AydTypeI) else dense_tau_lambda_matrix
    tau_v = tau(t, v)
    tau_w = tau(t, w)
    tau_vw = tau(t, tensor(v, w))
    idv = Matrix.identity(m.field, v.dim)
    idw = Matrix.identity(m.field, w.dim)
    arr1 = kron_slotwise_action(phi_inv_nz, (sharp(v), m, w))
    top = kron(tau_v, idw) @ arr1 @ kron(idv, tau_w)
    arr0 = kron_slotwise_action(phi_inv_nz, (sharp(v), sharp(w), m))
    arr2 = kron_slotwise_action(phi_inv_nz, (m, v, w))
    bot = arr2 @ tau_vw @ arr0
    return top, bot


def composed_condition_matrices(t):
    """Oracle: both composites at V = W = H applied to 1 (x) 1 (x) m."""
    m, h = t.module, t.module.h
    reg = regular_module(h)
    top, bot = composed_hexagon(t, reg, reg)
    d, f = m.dim, m.field
    gens = [tuple(a * b * c for a in h.unit for b in h.unit for c in basis_vec(f, d, mu))
            for mu in range(d)]
    return tuple(
        Matrix.from_rows(f, [list(r) for r in zip(*(side.apply(x) for x in gens))])
        for side in (top, bot)
    )


# every zoo algebra over its own field and over F_5 and F_7 where the zoo builds it
HEXAGON_FIELDS = [(name, None) for name in zoo_names()] + [
    (name, PrimeField(p)) for name in ("h4", "k2w", "s3", "z2", "z3") for p in (5, 7)
]


@functools.cache
def _hexagon_cases():
    """(label, zoo modules, structure) triples, both types, on every zoo
    module whose hexagon at V = W = H has at most 36 dimensions (all but the
    regular modules of s3 and h4): a random coaction, a point of the linear
    space and that point perturbed in one coefficient; above 9 dimensions,
    where the composites cost the most, only the perturbed point (or the
    random coaction when the space is empty)."""
    rng = random.Random(22)
    cases = []
    for name, field in HEXAGON_FIELDS:
        e = build_entry(name, field)
        for mname, m in sorted(e.modules.items()):
            f, n = m.field, m.h.dim
            if n * n * m.dim > 36:
                continue
            rows, cols = m.dim * n, m.dim
            for build, linear_space in ((AydTypeI, linear_space_type_i),
                                        (AydTypeII, linear_space_type_ii)):
                label = f"{name}/{f!r}/{mname}/{build.__name__}"
                found = [("random", build(m, Matrix(f, rows, cols, tuple(
                    f.from_int(rng.randrange(-2, 3)) if rng.random() < 0.4 else f.zero()
                    for _ in range(rows * cols)))))]
                space = linear_space(m)
                if not space.is_empty:
                    coeffs = [f.from_int(rng.randrange(-2, 3)) for _ in range(space.affine_dim)]
                    point = list(space.point(coeffs).entries)
                    found.append(("point", build(m, Matrix(f, rows, cols, tuple(point)))))
                    point[rng.randrange(rows * cols)] += f.one()
                    found.append(("perturbed", build(m, Matrix(f, rows, cols, tuple(point)))))
                if n * n * m.dim > 9:
                    found = found[-1:]
                cases.extend((f"{label}/{kind}", e.modules, t) for kind, t in found)
    return tuple(cases)


def test_condition_matrices_match_composed_hexagon():
    """The condition matrices, and tau_V on every zoo module V."""
    verdicts = set()
    for label, modules, t in _hexagon_cases():
        lhs, rhs = quasi_comodule_condition_matrices(t)
        assert (lhs, rhs) == composed_condition_matrices(t), label
        verdicts.add(lhs == rhs)
        tau, dense_tau = ((tau_from_rho, dense_tau_rho_matrix) if isinstance(t, AydTypeI)
                          else (tau_from_lambda, dense_tau_lambda_matrix))
        for v in modules.values():
            assert tau(t, v).matrix == dense_tau(t, v), (label, v.name)
    assert verdicts == {True, False}


def test_hexagon_check_matches_composed_hexagon():
    """Verdicts on the points and perturbed points, at every pair (V, W) of
    zoo modules with dim V (x) W (x) M <= 9."""
    verdicts = set()
    for label, modules, t in _hexagon_cases():
        if label.endswith("random"):
            continue
        for v in modules.values():
            for w in modules.values():
                if v.dim * w.dim * t.module.dim > 9:
                    continue
                top, bot = composed_hexagon(t, v, w)
                got = hexagon_check(t, v, w)
                assert got == (top == bot), (label, v.name, w.name)
                verdicts.add(got)
    assert verdicts == {True, False}


def test_condition_matrices_form_no_composite(monkeypatch):
    reg = build_entry("s3").modules["regular"]
    h, f = reg.h, reg.field
    # rho(m) = m (x) 1
    rho = Matrix(f, reg.dim * h.dim, reg.dim, tuple(
        h.unit[r % h.dim] if r // h.dim == mu else f.zero()
        for r in range(reg.dim * h.dim) for mu in range(reg.dim)))

    def refuse(*args):
        raise AssertionError("a composite was formed")

    monkeypatch.setattr(ayd, "kron", refuse)
    monkeypatch.setattr(ayd, "tensor", refuse)
    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    lhs, rhs = quasi_comodule_condition_matrices(AydTypeI(reg, rho))
    assert lhs == rhs
