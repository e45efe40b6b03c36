import dataclasses
from fractions import Fraction

import pytest

import qhayd.linalg as linalg
import qhayd.repcat as repcat
from qhayd.errors import InconsistentSystemError, ShapeError
from qhayd.fields import QQ, PrimeField
from qhayd.linalg import Matrix, inverse, rank
from qhayd.repcat import (
    ModuleMap,
    _slotwise_action,
    associator,
    associator_inv,
    character_module,
    check_module,
    curry_l,
    ev_l,
    ev_r,
    hom_l,
    hom_r,
    hom_space,
    iota_apply,
    iota_closed_form,
    iota_inverse_apply,
    iota_matrix,
    is_module_morphism,
    left_unitor,
    regular_module,
    right_unitor,
    sharp,
    tensor,
    trivial_module,
    uncurry_l,
    uncurry_r,
)
from qhayd.tensors import basis_vec
from qhayd.zoo import build_entry

from oracles import (
    curry_l_per_vector,
    iota_matrix_per_vector,
    uncurry_l_entrywise,
    uncurry_r_entrywise,
)
from test_ayd import kron_slotwise_action


def small_modules(entry, max_dim=4):
    """The bundled modules kept small enough for triple tensor sweeps."""
    return [m for m in entry.modules.values() if m.dim <= max_dim]


def test_bundled_modules_pass_module_axioms(zoo_entry):
    for name, m in zoo_entry.modules.items():
        assert check_module(m).passed, name


def test_tensor_with_trivial_keeps_action(h4):
    h = h4.algebra
    m = h4.modules["regular"]
    t = tensor(trivial_module(h), m)
    for i in range(h.dim):
        assert t.action[i] == m.action[i]


def test_tensor_of_characters_multiplies(h4):
    h = h4.algebra
    triv = h4.modules["trivial"]
    chi = h4.modules["chi_minus"]
    t = tensor(chi, chi)
    # chi * chi composed with the coproduct is the trivial character
    for i in range(h.dim):
        assert t.action[i] == triv.action[i]


def test_regular_tensor_action_follows_coproduct(z2):
    h = z2.algebra
    reg = z2.modules["regular"]
    t = tensor(reg, reg)
    # for a group algebra, g acts diagonally on g (x) g lines
    g_action = t.action[1]
    assert g_action @ g_action == Matrix.identity(h.field, 4)
    assert check_module(t).passed


def test_associator_is_module_morphism_everywhere(zoo_entry):
    mods = small_modules(zoo_entry)
    for m in mods:
        for n in mods:
            for l in mods:
                a = associator(m, n, l)
                assert a.is_morphism()
                b = associator_inv(m, n, l)
                assert a.matrix @ b.matrix == Matrix.identity(m.field, a.matrix.rows)


def test_slotwise_action_matches_kronecker_sum(zoo_entry):
    h = zoo_entry.algebra
    mods = small_modules(zoo_entry, max_dim=3)
    for m in mods:
        for n in mods:
            for l in mods:
                if m.dim * n.dim * l.dim > 27:
                    continue
                for element in (h.phi, h.phi_inv):
                    nz = element.nonzeros()
                    expected = kron_slotwise_action(nz, (m, n, l))
                    assert _slotwise_action(nz, (m, n, l)) == expected, (m.name, n.name, l.name)


def test_associator_trivial_for_group_algebra(z2):
    reg = z2.modules["regular"]
    a = associator(reg, reg, reg)
    assert a.matrix == Matrix.identity(z2.algebra.field, 8)


def test_s3_regular_associator_is_morphism(s3):
    # the big noncommutative case, checked once rather than in the sweep
    reg = s3.modules["regular"]
    sign = s3.modules["sign"]
    a = associator(reg, sign, sign)
    assert a.is_morphism()


def test_cocycle_associator_has_signs_on_triple_ones(k2w):
    h = k2w.algebra
    reg = k2w.modules["regular"]
    a = associator(reg, reg, reg).matrix
    # diagonal with -1 exactly on the (e1, e1, e1) line
    for i in range(8):
        for j in range(8):
            expected = h.field.zero()
            if i == j:
                expected = -h.field.one() if i == 7 else h.field.one()
            assert a.at(i, j) == expected


def test_module_level_pentagon(zoo_entry):
    mods = small_modules(zoo_entry, max_dim=2)[:3]
    for m in mods:
        for n in mods:
            for l in mods:
                for k in mods:
                    lhs = associator(m, n, tensor(l, k)).matrix @ associator(
                        tensor(m, n), l, k
                    ).matrix
                    mid = associator(m, tensor(n, l), k).matrix
                    idm = Matrix.identity(m.field, m.dim)
                    idk = Matrix.identity(m.field, k.dim)
                    from qhayd.linalg import kron

                    rhs = (
                        kron(idm, associator(n, l, k).matrix)
                        @ mid
                        @ kron(associator(m, n, l).matrix, idk)
                    )
                    assert lhs == rhs


def test_unitors_are_isomorphisms(zoo_entry):
    for m in zoo_entry.modules.values():
        lu = left_unitor(m)
        ru = right_unitor(m)
        assert lu.is_morphism() and ru.is_morphism()
        assert inverse(lu.matrix) is not None


def test_hom_modules_satisfy_axioms(zoo_entry):
    mods = small_modules(zoo_entry)
    for m in mods:
        for n in mods:
            assert check_module(hom_l(m, n)).passed
            assert check_module(hom_r(m, n)).passed


def test_hom_l_of_trivial_modules_is_trivial(z2):
    h = z2.algebra
    triv = z2.modules["trivial"]
    hl = hom_l(triv, triv)
    for i in range(h.dim):
        assert hl.action[i] == triv.action[i]


def test_hom_r_dual_action_on_group_algebra(z2):
    # h . phi = phi(S(h) -) on grouplikes
    h = z2.algebra
    reg = z2.modules["regular"]
    hr = hom_r(reg, trivial_module(h))
    g_dual = hr.action[1]
    expected = reg.action_of(h.s.col(1)).transpose()
    assert g_dual == expected


def test_sharp_of_group_module_unchanged(z2):
    reg = z2.modules["regular"]
    sh = sharp(reg)
    assert sh.action == reg.action


def test_sharp_squared_is_s4_action(h4):
    reg = h4.modules["regular"]
    s4 = h4.algebra.s_squared() @ h4.algebra.s_squared()
    twice = sharp(sharp(reg))
    for i in range(4):
        assert twice.action[i] == reg.action_of(s4.col(i))


def test_hom_space_and_morphism_checks(h4):
    reg = h4.modules["regular"]
    assert is_module_morphism(Matrix.identity(QQ, 4), reg, reg)
    basis = hom_space(reg, reg)
    # the centralizer of the regular action: right multiplications
    assert len(basis) == 4
    for b in basis:
        assert is_module_morphism(b, reg, reg)
    triv = h4.modules["trivial"]
    assert len(hom_space(triv, triv)) == 1


def test_ev_maps_are_module_morphisms(zoo_entry):
    for m in small_modules(zoo_entry):
        assert ev_l(m).is_morphism()
        assert ev_r(m).is_morphism()


def test_ev_l_is_plain_evaluation_in_hopf_case(z2):
    reg = z2.modules["regular"]
    e = ev_l(reg)
    # alpha = 1: matrix entry at (phi_i, w_j) is delta_ij
    for i in range(2):
        for j in range(2):
            expected = QQ.one() if i == j else QQ.zero()
            assert e.matrix.at(0, i * 2 + j) == expected


def test_curry_uncurry_round_trip(h4):
    h = h4.algebra
    reg = h4.modules["regular"]
    unit = trivial_module(h)
    vw = tensor(reg, reg)
    for f in hom_space(vw, unit):
        fm = ModuleMap(vw, unit, f)
        g = curry_l(fm, reg, reg)
        assert g.is_morphism()
        back = uncurry_l(g, reg)
        assert back.matrix == fm.matrix


def test_naive_currying_in_hopf_case(z2):
    # alpha = 1: curry_l(f)(v)(w) = f(v (x) w)
    h = z2.algebra
    reg = z2.modules["regular"]
    unit = trivial_module(h)
    vw = tensor(reg, reg)
    for f in hom_space(vw, unit):
        g = curry_l(ModuleMap(vw, unit, f), reg, reg)
        for i in range(reg.dim):
            for v in range(reg.dim):
                assert g.matrix.at(i, v) == f.at(0, v * reg.dim + i)


def test_curry_dimension_preservation(zoo_entry):
    h = zoo_entry.algebra
    unit = trivial_module(h)
    mods = small_modules(zoo_entry)
    for v in mods:
        for w in mods:
            dim_f = len(hom_space(tensor(v, w), unit))
            dim_g = len(hom_space(v, hom_l(w, unit)))
            assert dim_f == dim_g


def test_curry_l_rejects_non_morphisms(h4):
    h = h4.algebra
    reg = h4.modules["regular"]
    unit = trivial_module(h)
    vw = tensor(reg, reg)
    bad = Matrix.from_rows(QQ, [[Fraction(i == 3) for i in range(16)]])
    if not is_module_morphism(bad, vw, unit):
        with pytest.raises(InconsistentSystemError):
            curry_l(ModuleMap(vw, unit, bad), reg, reg)


def test_iota_outputs_h_linear_and_bijective(zoo_entry):
    h = zoo_entry.algebra
    unit = trivial_module(h)
    mods = small_modules(zoo_entry)
    for v in mods:
        for w in mods:
            mat, dom, cod = iota_matrix(v, w)
            if not dom:
                continue
            assert rank(mat) == len(dom)  # bijection
            for f in dom:
                out = iota_apply(ModuleMap(tensor(v, w), unit, f), v, w)
                assert out.is_morphism()


def test_iota_round_trip(h4):
    h = h4.algebra
    unit = trivial_module(h)
    m = h4.modules["trivial"]
    reg = h4.modules["regular"]
    for f in hom_space(tensor(m, reg), unit):
        fm = ModuleMap(tensor(m, reg), unit, f)
        there = iota_apply(fm, m, reg)
        back = iota_inverse_apply(there, m, reg)
        assert back.matrix == fm.matrix


def test_iota_is_flip_in_hopf_case(z2):
    h = z2.algebra
    unit = trivial_module(h)
    reg = z2.modules["regular"]
    for f in hom_space(tensor(reg, reg), unit):
        fm = ModuleMap(tensor(reg, reg), unit, f)
        out = iota_apply(fm, reg, reg)
        # iota(f)(w (x) v) = f(v (x) w)
        for iw in range(2):
            for iv in range(2):
                assert out.matrix.at(0, iw * 2 + iv) == f.at(0, iv * 2 + iw)


def test_iota_closed_form_agrees_with_composite(zoo_entry):
    h = zoo_entry.algebra
    unit = trivial_module(h)
    mods = small_modules(zoo_entry)
    for v in mods:
        for w in mods:
            for f in hom_space(tensor(v, w), unit):
                fm = ModuleMap(tensor(v, w), unit, f)
                assert iota_apply(fm, v, w).matrix == iota_closed_form(fm, v, w).matrix


def test_iota_naturality_square(h4):
    # iota_{V,W}(f o (u (x) id)) = iota_{V',W}(f) o (id (x) u) for H-linear u: V -> V'
    h = h4.algebra
    unit = trivial_module(h)
    reg = h4.modules["regular"]
    triv = h4.modules["trivial"]
    from qhayd.linalg import kron

    for u in hom_space(reg, triv):  # rank-1 test maps
        for f in hom_space(tensor(triv, reg), unit):
            fm = ModuleMap(tensor(triv, reg), unit, f)
            pulled = ModuleMap(
                tensor(reg, reg), unit,
                fm.matrix @ kron(u, Matrix.identity(QQ, reg.dim)),
            )
            lhs = iota_apply(pulled, reg, reg)
            rhs_mat = iota_apply(fm, triv, reg).matrix @ kron(
                Matrix.identity(QQ, reg.dim), u
            )
            assert lhs.matrix == rhs_mat


def exact(m: Matrix):
    """A matrix down to the type of each entry."""
    return m.rows, m.cols, tuple((type(x), x) for x in m.entries)


def assert_same_iota(got, want):
    (mat, dom, cod), (mat0, dom0, cod0) = got, want
    assert exact(mat) == exact(mat0)
    assert [exact(b) for b in dom] == [exact(b) for b in dom0]
    assert [exact(b) for b in cod] == [exact(b) for b in cod0]


def test_iota_matrix_matches_per_vector_oracle(zoo_entry):
    mods = small_modules(zoo_entry)
    for v in mods:
        for w in mods:
            assert_same_iota(iota_matrix(v, w), iota_matrix_per_vector(v, w))


def test_iota_matrix_matches_per_vector_oracle_at_ayd_modules(zoo_entry):
    reg = regular_module(zoo_entry.algebra)
    for key, b in sorted(zoo_entry.ayds.items()):
        m = b.ayd.module
        assert_same_iota(iota_matrix(m, reg), iota_matrix_per_vector(m, reg))


def test_curry_and_uncurry_match_entrywise_oracles(zoo_entry):
    h = zoo_entry.algebra
    unit = trivial_module(h)
    mods = small_modules(zoo_entry, max_dim=2)
    for v in mods:
        for w in mods:
            vw = tensor(v, w)
            for f in hom_space(vw, unit):
                fm = ModuleMap(vw, unit, f)
                g = curry_l(fm, v, w)
                assert exact(g.matrix) == exact(curry_l_per_vector(fm, v, w).matrix)
                assert exact(uncurry_l(g, w).matrix) == exact(
                    uncurry_l_entrywise(g, w).matrix
                )
                ws = sharp(w)
                gr = ModuleMap(v, hom_r(ws, unit), g.matrix)
                assert exact(uncurry_r(gr, ws).matrix) == exact(
                    uncurry_r_entrywise(gr, ws).matrix
                )
            zero = ModuleMap(vw, unit, Matrix.zeros(h.field, 1, vw.dim))
            assert exact(curry_l(zero, v, w).matrix) == exact(
                curry_l_per_vector(zero, v, w).matrix
            )


@pytest.mark.parametrize("first", ["regular", "trivial"])
def test_iota_matrix_work_does_not_grow_with_the_domain(count_calls, first):
    # one currying basis and one elimination serve every domain vector
    s3 = build_entry("s3", PrimeField(5))
    v, reg = s3.modules[first], s3.modules["regular"]
    counts = count_calls(repcat.hom_space, repcat.tensor, linalg.solve)
    mat, dom, cod = iota_matrix(v, reg)
    assert len(dom) == v.dim
    assert counts == {"hom_space": 3, "tensor": 2, "solve": 5}


def test_iota_matrix_refuses_zero_alpha(z2):
    h = dataclasses.replace(z2.algebra, alpha=(QQ.zero(),) * z2.algebra.dim)
    reg = regular_module(h)
    msg = "currying failed: input not in the image (invalid algebra data)"
    for iota in (iota_matrix, iota_matrix_per_vector):
        with pytest.raises(InconsistentSystemError) as err:
            iota(reg, reg)
        assert str(err.value) == msg


def test_mismatched_algebras_rejected(z2, h4):
    with pytest.raises(ShapeError):
        tensor(z2.modules["trivial"], h4.modules["trivial"])
