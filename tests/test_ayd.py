import random
from fractions import Fraction

import pytest

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
    r_tensor_module,
    rho_from_tau,
    sigma_hopf,
    stability_check,
    tau_from_lambda,
    tau_from_rho,
)
from qhayd.ayd_solve import linear_space_type_ii
from qhayd.errors import InconsistentSystemError, ShapeError
from qhayd.fields import PrimeField
from qhayd.linalg import Matrix
from qhayd.repcat import (
    check_module,
    hom_space,
    is_module_morphism,
    regular_module,
    tensor,
    trivial_module,
)
from qhayd.tensors import basis_vec
from qhayd.zoo import build_entry

from conftest import entry


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
