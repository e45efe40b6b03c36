import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qhayd.errors import ShapeError
from qhayd.fields import QQ, PrimeField, PrimeFieldElement
from qhayd.linalg import Matrix, kron
from qhayd.qha import (
    Algebra,
    _invert_associator,
    _left_mult_matrix_3,
    antipode,
    check_antipode,
    check_counit,
    check_pentagon,
    check_phi_counit,
    check_quasi_coassoc,
    coproduct,
    counit_of,
    make_quasi_hopf,
    mul,
    sparse_from_vec,
    sparse_kron,
    tree_leaves,
    validate,
)
from qhayd.tensors import Tensor, basis_vec
from qhayd.zoo import build_entry, sweedler_h4, zoo_names

from conftest import entry
from oracles import (
    antipode_inv,
    delta_tree_matrix,
    iterated_coproduct,
    left_comb,
    power_mul_pairs,
    right_comb,
)


def test_every_zoo_algebra_validates(zoo_entry):
    rep = validate(zoo_entry.algebra)
    assert rep.passed, [item.name for item in rep.failures()]


def test_grouplike_coproduct(z2):
    h = z2.algebra
    g = basis_vec(h.field, 2, 1)
    t = coproduct(h, g)
    assert t.at((1, 1)) == QQ.one()
    assert sum(1 for _, c in t.nonzeros()) == 1


def test_h4_element_primitives(h4):
    h = h4.algebra
    f = h.field
    one, g, x, gx = (basis_vec(f, 4, i) for i in range(4))
    # antipode(x) = -gx, hand-checked from S(x) = -gx
    assert antipode(h, x) == tuple(-c for c in gx)
    assert antipode(h, gx) == x
    # S^2(x) = -x = g x g^-1
    assert h.s_squared().apply(x) == tuple(-c for c in x)
    assert antipode_inv(h, antipode(h, x)) == x
    # xg = -gx
    assert mul(h, x, g) == tuple(-c for c in gx)
    assert mul(h, x, x) == (f.zero(),) * 4
    assert counit_of(h, g) == f.one()
    assert counit_of(h, x) == f.zero()


def test_counit_after_antipode_equals_counit(zoo_entry):
    h = zoo_entry.algebra
    for i in range(h.dim):
        e = basis_vec(h.field, h.dim, i)
        assert counit_of(h, h.s.apply(e)) == counit_of(h, e)


def test_iterated_coproduct_trivial_cases(h4):
    h = h4.algebra
    x = basis_vec(h.field, 4, 2)
    assert iterated_coproduct(h, x, None).coeffs == x
    assert iterated_coproduct(h, x, (None, None)).coeffs == coproduct(h, x).coeffs


def test_iterated_coproduct_grouplike_both_bracketings(h4):
    h = h4.algebra
    g = basis_vec(h.field, 4, 1)
    left = iterated_coproduct(h, g, left_comb(3))
    right = iterated_coproduct(h, g, right_comb(3))
    expected = [h.field.zero()] * 4 ** 3
    expected[(1 * 4 + 1) * 4 + 1] = h.field.one()
    assert left.coeffs == tuple(expected)
    assert right.coeffs == tuple(expected)


def test_bracketings_differ_by_associator_conjugation(zoo_entry):
    # (Id x Delta)Delta = Phi ((Delta x Id)Delta) Phi^-1 elementwise
    h = zoo_entry.algebra
    from qhayd.qha import sparse_from_vec, vec_from_sparse

    alg = h.algebra
    n = h.dim
    phi, phi_inv = h.qb.phi_sparse(), h.qb.phi_inv_sparse()
    for i in range(n):
        left = iterated_coproduct(h, basis_vec(h.field, n, i), right_comb(3)).coeffs
        right = iterated_coproduct(h, basis_vec(h.field, n, i), left_comb(3)).coeffs
        conj = alg.power_mul(phi, alg.power_mul(sparse_from_vec(right, (n, n, n)), phi_inv, 3), 3)
        assert left == vec_from_sparse(h.field, conj, (n, n, n))


def test_tree_validation():
    assert tree_leaves(None) == 1
    assert tree_leaves((None, (None, None))) == 3
    with pytest.raises(ShapeError):
        tree_leaves("junk")
    with pytest.raises(ShapeError):
        left_comb(0)


def test_delta_tree_matrix_cached(h4):
    h = h4.algebra
    m1 = delta_tree_matrix(h.qb, (None, None))
    m2 = delta_tree_matrix(h.qb, (None, None))
    assert m1 is m2


def test_char2_rejected_for_sweedler():
    with pytest.raises(ShapeError):
        sweedler_h4(PrimeField(2))


def _mutate_qha(h, which, flat_index):
    """Bump one structure-constant entry by one; returns a new algebra."""
    from qhayd.qha import QuasiBialgebra, QuasiHopfAlgebra

    f = h.field
    one = f.one()
    if which == "delta":
        entries = list(h.delta.entries)
        entries[flat_index % len(entries)] += one
        delta = Matrix(f, h.delta.rows, h.delta.cols, tuple(entries))
        qb = QuasiBialgebra(h.qb.algebra, delta, h.qb.counit, h.phi, h.phi_inv)
        return QuasiHopfAlgebra(qb, h.s, h.s_inv, h.alpha, h.beta)
    if which == "phi":
        coeffs = list(h.phi.coeffs)
        coeffs[flat_index % len(coeffs)] += one
        phi = Tensor(f, h.dim, 3, tuple(coeffs))
        qb = QuasiBialgebra(h.qb.algebra, h.delta, h.qb.counit, phi, h.phi_inv)
        return QuasiHopfAlgebra(qb, h.s, h.s_inv, h.alpha, h.beta)
    if which == "s":
        entries = list(h.s.entries)
        entries[flat_index % len(entries)] += one
        s = Matrix(f, h.dim, h.dim, tuple(entries))
        return QuasiHopfAlgebra(h.qb, s, h.s_inv, h.alpha, h.beta)
    if which == "counit":
        entries = list(h.qb.counit.entries)
        entries[flat_index % len(entries)] += one
        counit = Matrix(f, 1, h.dim, tuple(entries))
        qb = QuasiBialgebra(h.qb.algebra, h.delta, counit, h.phi, h.phi_inv)
        return QuasiHopfAlgebra(qb, h.s, h.s_inv, h.alpha, h.beta)
    raise AssertionError(which)


def mutations_of(h, count=12):
    out = []
    kinds = ("delta", "phi", "s", "counit")
    for t in range(count):
        out.append(_mutate_qha(h, kinds[t % 4], 2 * t + 1))
    return out


def test_single_entry_mutations_fail(zoo_entry):
    h = zoo_entry.algebra
    for k, mutant in enumerate(mutations_of(h, 12)):
        rep = validate(mutant)
        assert not rep.passed, f"mutation {k} slipped through"
        bad = rep.failures()[0]
        assert bad.witness is not None or bad.name in ("pentagon", "associator-counit",
                                                       "associator-invertible",
                                                       "antipode-associator",
                                                       "antipode-associator-inverse")


def test_corrupted_counit_names_the_generator(h4):
    h = h4.algebra
    mutant = _mutate_qha(h, "counit", 2)  # corrupt eps on basis element x
    rep = validate(mutant)
    names = {item.name for item in rep.failures()}
    assert "counit-axiom" in names or "counit-homomorphism" in names
    for item in rep.failures():
        if item.name == "counit-axiom":
            assert item.witness.location == (2,)


def test_perturbed_phi_breaks_pentagon_or_inverse(k2w):
    h = k2w.algebra
    mutant = _mutate_qha(h, "phi", 7)
    rep = validate(mutant)
    failing = {item.name for item in rep.failures()}
    assert failing & {"pentagon", "associator-invertible", "quasi-coassociativity",
                      "associator-counit", "antipode-associator",
                      "antipode-associator-inverse"}


def test_individual_checkers_match_validate(h4):
    h = h4.algebra
    assert check_quasi_coassoc(h.qb).passed
    assert check_pentagon(h.qb).passed
    assert check_counit(h.qb).passed
    assert check_phi_counit(h.qb).passed
    assert check_antipode(h).passed


def _functions_on_z3_plain_zeta(beta_exponent):
    """Functions on Z/3 over F_7 with Phi = sum omega(i,j,k)^-1 e_i (x) e_j (x) e_k
    for the plain cocycle omega(i,j,k) = zeta^(i floor((j+k)/3)), alpha = 1 and
    beta = sum omega(g,-g,g)^beta_exponent e_g."""
    f = PrimeField(7)
    zeta = f.from_int(2)

    def omega(i, j, k):
        return zeta ** ((i * ((j + k) // 3)) % 3)

    one, zero = f.one(), f.zero()
    e = [basis_vec(f, 3, i) for i in range(3)]
    mult = [[e[i] if i == j else (zero,) * 3 for j in range(3)] for i in range(3)]
    delta_rows = [
        tuple(one if (a + b) % 3 == i else zero for a in range(3) for b in range(3))
        for i in range(3)
    ]
    phi = Tensor(f, 3, 3, tuple(
        one / omega(i, j, k) for i in range(3) for j in range(3) for k in range(3)))
    beta = tuple(omega(g, -g % 3, g) ** beta_exponent for g in range(3))
    return make_quasi_hopf(f, ["e0", "e1", "e2"], mult, (one,) * 3, delta_rows, e[0], phi,
                           [e[-j % 3] for j in range(3)], (one,) * 3, beta)


def test_antipode_associator_inverse_is_drinfelds_form():
    # S(p^1) alpha p^2 beta S(p^3) = 1 over Phi^-1 = p^1 (x) p^2 (x) p^3 holds
    # here; read without the last S it fails here, and only that item does
    assert validate(_functions_on_z3_plain_zeta(1)).passed
    failing = {i.name for i in check_antipode(_functions_on_z3_plain_zeta(-1)).failures()}
    assert failing == {"antipode-associator", "antipode-associator-inverse"}


def _kron_left_matrix(alg, t):
    """Left multiplication by t on H^(x)3 as a sum of Kronecker products (oracle)."""
    n = alg.dim
    lmats = [alg.left_mult_matrix(basis_vec(alg.field, n, i)) for i in range(n)]
    left = Matrix.zeros(alg.field, n**3, n**3)
    for (i, j, k), c in t.nonzeros():
        left = left + kron(kron(lmats[i], lmats[j]), lmats[k]).scale(c)
    return left


@pytest.mark.parametrize("name", ["z2", "z3", "h4", "k2w", "k3w"])
def test_associator_left_matrix_matches_kronecker_sum(name):
    h = entry(name).algebra
    for t in (h.phi, h.phi_inv):
        assert _left_mult_matrix_3(h.algebra, t) == _kron_left_matrix(h.algebra, t)


def test_computed_associator_inverse_is_two_sided(zoo_entry):
    h = zoo_entry.algebra
    alg, n = h.algebra, h.dim
    phi_inv = _invert_associator(alg, h.phi)
    assert phi_inv == h.phi_inv
    unit_sp = sparse_from_vec(alg.unit, (n,))
    triple = sparse_kron(sparse_kron(unit_sp, unit_sp), unit_sp)
    phi_sp, inv_sp = h.qb.phi_sparse(), dict(phi_inv.nonzeros())
    assert alg.power_mul(phi_sp, inv_sp, 3) == triple
    assert alg.power_mul(inv_sp, phi_sp, 3) == triple


# -- products in H^(x)k: the slot-wise join against the pair loop --------------


def _scrambled_algebra():
    """A 3-dimensional 'algebra' over F_5 with random structure constants (not
    associative): slot products are zero, one term or several terms."""
    f, n = PrimeField(5), 3
    rng = random.Random(1)
    mult = tuple(
        tuple(
            (f.zero(),) * n if rng.random() < 1 / 3
            else tuple(f.one() * rng.randrange(5) for _ in range(n))
            for _ in range(n)
        )
        for _ in range(n)
    )
    return Algebra(f, n, ("a", "b", "c"), mult, (f.one(), f.zero(), f.zero()))


_POWER_MUL_ALGEBRAS = [entry(name).algebra.algebra for name in zoo_names()] + [_scrambled_algebra()]


@st.composite
def _power_mul_case(draw):
    alg = draw(st.sampled_from(_POWER_MUL_ALGEBRAS))
    order = draw(st.integers(1, 4))
    f = alg.field
    index = st.tuples(*[st.integers(0, alg.dim - 1)] * order)
    coeff = st.integers(-2, 2).map(lambda c: f.one() * c)

    def element():
        return draw(st.dictionaries(index, coeff, max_size=6))

    return alg, order, element(), element()


@settings(max_examples=150, deadline=None)
@given(_power_mul_case())
def test_power_mul_matches_pair_loop(case):
    alg, order, u, v = case
    fast = {k: c for k, c in alg.power_mul(u, v, order).items() if c}
    slow = {k: c for k, c in power_mul_pairs(alg, u, v, order).items() if c}
    assert fast == slow


def test_power_mul_drops_terms_that_cancel(h4):
    # (g + x)(x + g) = gx + 1 + 0 - gx in Sweedler's H4
    alg = h4.algebra.algebra
    one = alg.field.one()
    u = {(1,): one, (2,): one}
    v = {(2,): one, (1,): one}
    assert alg.power_mul(u, v, 1) == {(0,): one} == power_mul_pairs(alg, u, v, 1)
    assert alg.power_mul({}, v, 1) == {} == alg.power_mul(u, {}, 1)


def _functions_on_cyclic(n, p):
    """Functions on Z/n over F_p with Phi = sum e_i (x) e_j (x) e_k, Phi^-1 computed."""
    f = PrimeField(p)
    one, zero = f.one(), f.zero()

    def e(i):
        return [one if j == i else zero for j in range(n)]

    mult = [[e(i) if i == j else [zero] * n for j in range(n)] for i in range(n)]
    delta_rows = []
    for i in range(n):
        row = [zero] * (n * n)
        for j in range(n):
            row[j * n + (i - j) % n] = one
        delta_rows.append(row)
    phi = Tensor(f, n, 3, (one,) * n ** 3)
    s_cols = [e((-j) % n) for j in range(n)]
    return make_quasi_hopf(
        f, [f"e{i}" for i in range(n)], mult, [one] * n, delta_rows, e(0), phi,
        s_cols, [one] * n, [one] * n,
    )


def test_pentagon_work_follows_contributing_pairs(monkeypatch):
    # Phi = 1 (x) 1 (x) 1 written as 125 idempotent terms; the pair loop
    # makes 1,467,500 multiplications here
    h = _functions_on_cyclic(5, 7)
    calls = [0]
    mul_fp = PrimeFieldElement.__mul__

    def counting(self, other):
        calls[0] += 1
        return mul_fp(self, other)

    monkeypatch.setattr(PrimeFieldElement, "__mul__", counting)
    assert check_pentagon(h.qb).passed
    assert calls[0] <= 20_000


@pytest.mark.parametrize("name", ["z4_f7", "k2w"])
def test_validate_report_matches_pair_loop_on_perturbed_phi(name, monkeypatch):
    h = _functions_on_cyclic(4, 7) if name == "z4_f7" else entry(name).algebra
    mutant = _mutate_qha(h, "phi", 7)
    fast = json.dumps(validate(mutant).to_json(mutant.field.format))
    monkeypatch.setattr(Algebra, "power_mul", power_mul_pairs)
    slow_rep = validate(mutant)
    assert not slow_rep.passed
    assert fast == json.dumps(slow_rep.to_json(mutant.field.format))
