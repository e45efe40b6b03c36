import dataclasses
import random
import sys
from fractions import Fraction
from functools import cache
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import qhayd.linalg as linalg
import qhayd.repcat as repcat
from qhayd.ayd import AydTypeI, stability_check
from qhayd.errors import InconsistentSystemError, ShapeError
from qhayd.fields import QQ, PrimeField, PrimeFieldElement
from qhayd.linalg import Matrix, inverse, rank
from qhayd.repcat import (
    ModuleMap,
    _slotwise_action,
    associator,
    character_module,
    check_module,
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
from qhayd.tensors import basis_vec
from qhayd.zoo import build_entry, zoo_names

from oracles import (
    action_of_dense,
    associator_inv,
    curry_l,
    curry_l_per_vector,
    ev_l,
    ev_r,
    hom_l_dense,
    hom_r_dense,
    hom_space_dense,
    hom_space_system_dense,
    iota_apply,
    iota_closed_form,
    iota_inverse_apply,
    iota_matrix_per_vector,
    left_unitor,
    right_unitor,
    tensor_dense,
    uncurry_l,
    uncurry_l_entrywise,
    uncurry_r,
    uncurry_r_entrywise,
)
from test_ayd import kron_slotwise_action
from test_solve import _direct_sum, _modules_over_fields


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


# -- constructions from the nonzeros, against the dense oracles -------------------


def _cancelling_delta(h, rng):
    """h with a non-coassociative coproduct: each column holds a pair
    c e_a (x) e_b - c e_a' (x) e_b, which cancels on any module where e_a and
    e_a' act alike (every character of a group algebra), plus one random term."""
    qb = h.qb
    n, f = qb.dim, qb.field
    entries = [f.zero()] * (n * n * n)
    for j in range(n):
        a, a2 = rng.sample(range(n), 2)
        b = rng.randrange(n)
        c = f.from_int(rng.randint(1, 4))
        entries[(a * n + b) * n + j] = c
        entries[(a2 * n + b) * n + j] = -c
        extra = rng.choice([k for k in range(n * n) if k not in (a * n + b, a2 * n + b)])
        entries[extra * n + j] = f.from_int(rng.randint(1, 4))
    qb = dataclasses.replace(qb, delta=Matrix(f, n * n, n, tuple(entries)))
    return dataclasses.replace(h, qb=qb)


def _with_zero_actions(m, zeros):
    z = Matrix.zeros(m.field, m.dim, m.dim)
    return dataclasses.replace(
        m, action=tuple(z if i in zeros else a for i, a in enumerate(m.action)))


def _assert_constructions_match(m, n, label):
    """tensor, hom_l, hom_r, action_of and hom_space (its system and its
    basis) equal the dense oracles, entry for entry."""
    h, f = m.h, m.field
    for new, old in ((tensor, tensor_dense), (hom_l, hom_l_dense), (hom_r, hom_r_dense)):
        got, want = new(m, n), old(m, n)
        assert (got.dim, got.action, got.name) == (want.dim, want.action, want.name), (
            label, new.__name__)
    vecs = [basis_vec(f, h.dim, i) for i in range(h.dim)]
    vecs += [h.unit, h.alpha, tuple(f.from_int(i + 1) for i in range(h.dim))]
    for vec in vecs:
        assert m.action_of(vec) == action_of_dense(m, vec), label
    systems = []

    def kernel_basis(a):
        systems.append(a)
        return linalg.kernel_basis(a)

    with mock.patch.object(repcat, "kernel_basis", kernel_basis):
        got = hom_space(m, n)
    assert systems == [hom_space_system_dense(m, n)], label
    assert got == hom_space_dense(m, n), label


@pytest.mark.parametrize("name", zoo_names())
def test_constructions_equal_the_dense_oracles(name):
    """Every module pair of the entry over its own field, F_5 and F_7, also
    over a coproduct with cancelling terms and with zeroed actions."""
    rng = random.Random(27)
    by_field = {}
    for label, m in _modules_over_fields(name):
        by_field.setdefault(repr(m.field), []).append((label, m))
    assert by_field
    for mods in by_field.values():
        h = mods[0][1].h
        scrambled = _cancelling_delta(h, rng)
        zeros = set(rng.sample(range(h.dim), (h.dim + 1) // 2))
        for (lm, m), (ln, n) in product(mods, repeat=2):
            _assert_constructions_match(m, n, (lm, ln))
            on_scrambled = [dataclasses.replace(x, h=scrambled) for x in (m, n)]
            _assert_constructions_match(*on_scrambled, (lm, ln, "cancelling delta"))
            _assert_constructions_match(_with_zero_actions(m, zeros), n, (lm, ln, "zeros"))


@cache
def _entry_or_none(name, field):
    try:
        return build_entry(name, field)
    except ShapeError:
        return None


@st.composite
def _summed_module_pairs(draw):
    """Two direct sums of named modules (at most 8-dimensional) of one zoo
    entry over one field, with some actions zeroed and the coproduct
    perhaps replaced by one with cancelling terms."""
    name = draw(st.sampled_from(zoo_names()))
    field = draw(st.sampled_from((None, PrimeField(5), PrimeField(7))))
    e = _entry_or_none(name, field) or build_entry(name)
    mods = [m for _, m in sorted(e.modules.items())]

    def summed():
        parts = []
        for m in draw(st.lists(st.sampled_from(mods), min_size=1, max_size=3)):
            if not parts or sum(p.dim for p in parts) + m.dim <= 8:
                parts.append(m)
        return _direct_sum(parts)

    m, n = summed(), summed()
    zeros = draw(st.sets(st.integers(0, e.algebra.dim - 1)))
    m = _with_zero_actions(m, zeros)
    seed = draw(st.none() | st.integers(0, 2**16))
    if seed is not None:
        h = _cancelling_delta(e.algebra, random.Random(seed))
        m, n = (dataclasses.replace(x, h=h) for x in (m, n))
    return m, n


@settings(max_examples=40, deadline=None)
@given(_summed_module_pairs())
def test_constructions_on_direct_sums_equal_the_dense_oracles(pair):
    _assert_constructions_match(*pair, (pair[0].name, pair[1].name))


def _unit_ayd(name, field):
    m = build_entry(name, field).modules["regular"]
    h, f = m.h, m.field
    rho = Matrix(f, m.dim * h.dim, m.dim, tuple(
        h.unit[r % h.dim] if r // h.dim == mu else f.zero()
        for r in range(m.dim * h.dim) for mu in range(m.dim)))
    return AydTypeI(m, rho)


@pytest.mark.parametrize("name,field", [("s3", PrimeField(5)), ("h4", None)])
def test_stability_and_iota_form_no_dense_sums(monkeypatch, name, field):
    """No Kronecker product, matrix sum or scaled matrix: modules and
    intertwiner systems come from the nonzeros of the actions."""
    t = _unit_ayd(name, field)
    reg = regular_module(t.module.h)
    verdict, iota = stability_check(t), iota_matrix(t.module, reg)

    def refuse(*args):
        raise AssertionError("a dense sum was formed")

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "qhayd" and getattr(mod, "kron", None) is linalg.kron:
            monkeypatch.setattr(mod, "kron", refuse)
    for attr in ("__add__", "__sub__", "scale"):
        monkeypatch.setattr(Matrix, attr, refuse)
    assert stability_check(t) == verdict
    assert iota_matrix(t.module, reg) == iota


def test_stability_check_work_bound(monkeypatch):
    """F_5 multiplications in stability_check on s3/F_5 regular: 5,688 with
    the sums taken over nonzeros, 83,760 with dense Kronecker sums."""
    t = _unit_ayd("s3", PrimeField(5))
    assert stability_check(t)
    calls = [0]
    real = PrimeFieldElement.__mul__

    def mul(a, b):
        calls[0] += 1
        return real(a, b)

    monkeypatch.setattr(PrimeFieldElement, "__mul__", mul)
    assert stability_check(t)
    assert 0 < calls[0] <= 12_000
