import hashlib
import random
import sys
from dataclasses import replace
from functools import cache
from itertools import chain, product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import qhayd.ayd as ayd
import qhayd.ayd_solve as ayd_solve
import qhayd.linalg as linalg
from qhayd.ayd import (
    AydTypeI,
    AydTypeII,
    check_type_i,
    check_type_ii,
    compat_i_blocks,
    compat_i_forms,
    compat_ii_blocks,
    compat_ii_forms,
    convert_i_to_ii,
    counit_blocks,
    counit_forms,
    quasi_comodule_condition_matrices,
)
from qhayd.ayd_solve import (
    _coaction,
    _linear_system,
    _quadratic_residual,
    enumerate_ayd_i,
    enumerate_ayd_ii,
    linear_space_type_i,
    linear_space_type_ii,
)
from qhayd.cli import main
from qhayd.errors import BudgetExceededError, ShapeError
from qhayd.fields import PrimeField, QQ
from qhayd.jsonio import dump_json
from qhayd.linalg import Matrix
from qhayd.repcat import Module, _spin_up, character_module, regular_module, trivial_module
from qhayd.zoo import build_entry, group_algebra, cyclic_table, zoo_names

import oracles
from oracles import (
    compat_i_blocks_direct,
    compat_ii_blocks_direct,
    counit_blocks_direct,
    lambda_from_tau_by_columns,
    linear_space_type_ii_full,
    linear_system_by_residuals,
    tau_elements_ii_direct,
)

F2 = PrimeField(2)
F3 = PrimeField(3)


def brute_force_type_i(m):
    """Independent oracle: try every coaction map over F_p directly."""
    f = m.field
    ncoef = m.dim * m.h.dim * m.dim
    out = []
    for combo in product(range(f.p), repeat=ncoef):
        mat = Matrix(f, m.dim * m.h.dim, m.dim, tuple(f.from_int(c) for c in combo))
        if check_type_i(AydTypeI(m, mat)).passed:
            out.append(tuple(x.residue for x in mat.entries))
    return sorted(out)


def test_enumeration_matches_raw_brute_force_z2_f3():
    h = build_entry("z2", F3)
    triv = h.modules["trivial"]
    points = enumerate_ayd_i(triv)
    got = sorted(tuple(x.residue for x in p.rho.entries) for p in points)
    assert got == brute_force_type_i(triv)
    assert len(got) == 2


def test_enumeration_matches_raw_brute_force_z2_f2_type_ii():
    h = build_entry("z2", F2)
    triv = h.modules["trivial"]
    points = enumerate_ayd_ii(triv)
    got = sorted(tuple(x.residue for x in p.lam.entries) for p in points)
    raw = []
    for combo in product(range(2), repeat=2):
        mat = Matrix(F2, 2, 1, tuple(F2.from_int(c) for c in combo))
        if check_type_ii(AydTypeII(triv, mat)).passed:
            raw.append(combo)
    assert got == sorted(raw)


def test_linear_space_contains_bundled_points(h4):
    triv = h4.modules["trivial"]
    space = linear_space_type_i(triv)
    assert not space.is_empty
    # the unique solution is rho(x) = x (x) g
    assert space.affine_dim == 0
    rho = space.point([])
    assert tuple(rho.col(0)) == h4.ayds["k_g"].ayd.rho.col(0)


def test_linear_space_excludes_bad_point(h4):
    triv = h4.modules["trivial"]
    bad = Matrix.from_rows(QQ, [[QQ.one()], [QQ.zero()], [QQ.zero()], [QQ.zero()]])
    rep = check_type_i(AydTypeI(triv, bad))
    assert not rep.passed


def test_empty_space_short_circuits():
    e = build_entry("k2w", F3)
    char1 = e.modules["char1"]
    space = linear_space_type_i(char1)
    # the linear space is nonempty but the quadratic filter kills everything
    assert enumerate_ayd_i(char1) == []


def test_space_dimension_matches_enumeration_count():
    e = build_entry("k2w", F3)
    triv = e.modules["trivial"]
    space = linear_space_type_i(triv)
    assert space.affine_dim == 1
    pts = enumerate_ayd_i(triv)
    assert len(pts) == 2  # quadratic filter keeps u with u_1^2 = 1


def test_rational_space_dimension_invariant_under_base_change():
    for p in (3, 5):
        fp = PrimeField(p)
        over_q = build_entry("z2")
        over_p = build_entry("z2", fp)
        dq = linear_space_type_i(over_q.modules["trivial"]).affine_dim
        dp = linear_space_type_i(over_p.modules["trivial"]).affine_dim
        assert dq == dp
        dq = linear_space_type_ii(over_q.modules["trivial"]).affine_dim
        dp = linear_space_type_ii(over_p.modules["trivial"]).affine_dim
        assert dq == dp


def test_every_enumerated_point_checks_and_nonpoints_fail():
    e = build_entry("z2", F3)
    sign = e.modules["sign"]
    pts = enumerate_ayd_i(sign)
    keys = {tuple(x.residue for x in p.rho.entries) for p in pts}
    assert keys
    for p in pts:
        assert check_type_i(p).passed
    for combo in product(range(3), repeat=2):
        if combo not in keys:
            mat = Matrix(F3, 2, 1, tuple(F3.from_int(c) for c in combo))
            assert not check_type_i(AydTypeI(sign, mat)).passed


def test_type_i_and_ii_in_bijection_under_convert():
    for name, field in (("z2", F2), ("z2", F3), ("k2w", F3), ("h4", F3)):
        if name == "k2w" and field.p == 2:
            continue
        e = build_entry(name, field)
        for mod_name, m in sorted(e.modules.items()):
            if m.dim > 1:
                continue
            pts_i = enumerate_ayd_i(m)
            pts_ii = enumerate_ayd_ii(m)
            assert len(pts_i) == len(pts_ii), (name, mod_name)
            converted = sorted(
                tuple(x.residue for x in convert_i_to_ii(p).lam.entries) for p in pts_i
            )
            direct = sorted(tuple(x.residue for x in p.lam.entries) for p in pts_ii)
            assert converted == direct, (name, mod_name)


def test_budget_guard_refuses_cleanly():
    f5 = PrimeField(5)
    e = build_entry("h4", f5)
    reg = e.modules["regular"]
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_ayd_i(reg, budget=100)
    assert exc.value.count == 5 ** exc.value.affine_dim
    assert exc.value.count > 100


def test_enumeration_needs_prime_field():
    e = build_entry("z2")
    with pytest.raises(ShapeError):
        enumerate_ayd_i(e.modules["trivial"])


def test_deterministic_order():
    e = build_entry("z2", F3)
    triv = e.modules["trivial"]
    a = [tuple(x.residue for x in p.rho.entries) for p in enumerate_ayd_i(triv)]
    b = [tuple(x.residue for x in p.rho.entries) for p in enumerate_ayd_i(triv)]
    assert a == b == sorted(a)


def test_solver_system_is_the_stacked_blocks():
    """A . vec(x) - b equals the stacked lhs - rhs of the checker's blocks."""
    rng = random.Random(5)
    for name, field in (("h4", None), ("k2w", F3), ("z3", PrimeField(7)), ("s3", PrimeField(5))):
        e = build_entry(name, field)
        for mname in ("trivial", "regular"):
            m = e.modules[mname]
            f = m.field
            for compat_forms, compat_blocks, with_alpha in (
                (compat_i_forms, compat_i_blocks, False),
                (compat_ii_forms, compat_ii_blocks, True),
            ):
                a, b = _linear_system(m, compat_forms, with_alpha)
                for _ in range(2):
                    x = Matrix(f, m.dim * m.h.dim, m.dim,
                               tuple(f.from_int(rng.randrange(-3, 4)) for _ in range(a.cols)))
                    blocks = chain(compat_blocks(m, x), counit_blocks(m, x, with_alpha))
                    stacked = tuple(l - r for _, lhs, rhs in blocks for l, r in zip(lhs, rhs))
                    assert (a @ Matrix.column(f, x.entries) - b).col(0) == stacked, (name, mname)


def _modules_over_fields(name):
    """Every named module of a zoo entry over its own field, F_5 and F_7,
    skipping a field the entry does not build over."""
    seen = set()
    for field in (None, PrimeField(5), PrimeField(7)):
        try:
            e = build_entry(name, field)
        except ShapeError:
            continue
        if repr(e.algebra.field) in seen:
            continue
        seen.add(repr(e.algebra.field))
        for mname, m in sorted(e.modules.items()):
            yield f"{name}/{m.field!r}/{mname}", m


@pytest.mark.parametrize("name", zoo_names())
def test_solver_system_equals_the_residual_oracle(name):
    """(A, b) from one pass over the forms equals, entry for entry, the
    system stacked from ncoef + 1 residual evaluations of the former blocks."""
    labels = []
    for label, m in _modules_over_fields(name):
        labels.append(label)
        for forms, direct, with_alpha in (
            (compat_i_forms, compat_i_blocks_direct, False),
            (compat_ii_forms, compat_ii_blocks_direct, True),
        ):
            got = _linear_system(m, forms, with_alpha)
            assert got == linear_system_by_residuals(m, direct, with_alpha), (label, with_alpha)
    assert any("regular" in label for label in labels)


def _scrambled(m, rng):
    """m over a copy of its algebra with a non-coassociative coproduct of
    three random terms per column, so every bracketing is told apart."""
    qb = m.h.qb
    n, f = qb.dim, qb.field
    entries = [f.zero()] * (n * n * n)
    for j in range(n):
        for flat in rng.sample(range(n * n), 3):
            entries[flat * n + j] = f.from_int(rng.randint(1, 4))
    qb = replace(qb, delta=Matrix(f, n * n, n, tuple(entries)))
    return replace(m, h=replace(m.h, qb=qb))


@pytest.mark.parametrize("name", zoo_names())
def test_checker_blocks_equal_the_direct_blocks(name):
    """The forms evaluated at x give every block of the former generators,
    so the checkers' witnesses (location, lhs, rhs) are unchanged."""
    rng = random.Random(11)
    for label, m in _modules_over_fields(name):
        f = m.field
        ncoef = m.dim * m.h.dim * m.dim
        for mod in (m, _scrambled(m, rng)):
            for density in (0.2, 1.0):
                x = Matrix(f, m.dim * m.h.dim, m.dim, tuple(
                    f.from_int(rng.randrange(-3, 4)) if rng.random() < density else f.zero()
                    for _ in range(ncoef)))
                for new, old in ((compat_i_blocks, compat_i_blocks_direct),
                                 (compat_ii_blocks, compat_ii_blocks_direct)):
                    assert list(new(mod, x)) == list(old(mod, x)), (label, new.__name__)
                for with_alpha in (False, True):
                    assert (list(counit_blocks(mod, x, with_alpha))
                            == list(counit_blocks_direct(mod, x, with_alpha))), label


@pytest.mark.parametrize("name", zoo_names())
def test_lambda_from_tau_equals_the_column_oracle(name):
    """The type-II tau elements equal the former direct accumulation at
    random lambda, also over a scrambled coproduct; lambda_from_tau hands
    solve the system the former column-by-column build stacked, entry for
    entry, and finds the same lambda."""
    rng = random.Random(13)
    for label, m in _modules_over_fields(name):
        f = m.field
        ncoef = m.dim * m.h.dim * m.dim
        for mod in (m, _scrambled(m, rng)):
            for density in (0.2, 1.0):
                lam = AydTypeII(mod, Matrix(f, m.dim * m.h.dim, m.dim, tuple(
                    f.from_int(rng.randrange(-3, 4)) if rng.random() < density else f.zero()
                    for _ in range(ncoef))))
                assert ayd._tau_elements(lam) == tau_elements_ii_direct(lam), label
        reg = regular_module(m.h)
        lam = convert_i_to_ii(AydTypeI(m, Matrix(f, m.dim * m.h.dim, m.dim, tuple(
            m.h.unit[r % m.h.dim] if r // m.h.dim == mu else f.zero()
            for r in range(m.dim * m.h.dim) for mu in range(m.dim)))))
        braiding = ayd.HalfBraiding(m, ayd._tau_matrix(ayd._tau_elements(lam), reg))
        got, want = [], []
        for out, mod, fn in ((got, ayd, ayd.lambda_from_tau),
                             (want, oracles, lambda_from_tau_by_columns)):
            def recording(a, b, out=out):
                out.append((a, b))
                return linalg.solve(a, b)

            with mock.patch.object(mod, "solve", recording):
                out.append(fn(braiding).lam)
        assert got == want, label
        assert got[-1] == lam.lam, label


@pytest.mark.parametrize("space,forms", ((linear_space_type_i, compat_i_forms),
                                         (linear_space_type_ii_full, compat_ii_forms)))
def test_linear_space_reads_each_condition_once(count_calls, monkeypatch, space, forms):
    """One pass over each generator; the only stacking is solve's [A | b]."""
    m = build_entry("s3", PrimeField(5)).modules["regular"]
    ncoef = m.dim * m.h.dim * m.dim
    counts = count_calls(forms, counit_forms)
    widths = []
    real_hstack = linalg.hstack

    def hstack(mats):
        widths.append([a.cols for a in mats])
        return real_hstack(mats)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "qhayd" and getattr(mod, "hstack", None) is real_hstack:
            monkeypatch.setattr(mod, "hstack", hstack)
    space(m)
    assert counts == {forms.__name__: 1, "counit_forms": 1}
    assert widths == [[ncoef, 1]]


def test_type_ii_forms_no_composite(monkeypatch):
    """No Kronecker product or matrix product: (id (x) Delta) Delta comes
    from the sparse iterated coproduct."""
    m = build_entry("s3", PrimeField(5)).modules["regular"]
    h, f = m.h, m.field
    rho = Matrix(f, m.dim * h.dim, m.dim, tuple(
        h.unit[r % h.dim] if r // h.dim == mu else f.zero()
        for r in range(m.dim * h.dim) for mu in range(m.dim)))
    lam = convert_i_to_ii(AydTypeI(m, rho))
    h.s_squared()  # built once per algebra, before the refusal

    def refuse(*args):
        raise AssertionError("a composite was formed")

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "qhayd" and getattr(mod, "kron", None) is linalg.kron:
            monkeypatch.setattr(mod, "kron", refuse)
    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    space = linear_space_type_ii(m)
    assert space.affine_dim == 30
    assert check_type_ii(lam).passed


def test_type_ii_space_is_solved_on_generators(monkeypatch):
    """Work bound on s3/F_5 regular, free on one generator: every rref that
    linear_space_type_ii starts has at most k . dim M . dim H + 1 = 37
    columns (the full system had 217), and the only wider elimination is
    the echelon form of the e = 30 kernel vectors."""
    m = build_entry("s3", PrimeField(5)).modules["regular"]
    gens, _, relations = _spin_up(m)
    bound = len(gens) * m.dim * m.h.dim + 1
    assert (len(gens), len(relations), bound) == (1, 0, 37)
    rrefs, eliminations = [], []
    real_rref, real_eliminate = linalg.rref, linalg._eliminate

    def rref(a):
        rrefs.append(a.cols)
        return real_rref(a)

    def eliminate(field, rows, ncols):
        rows = list(rows)
        eliminations.append((len(rows), ncols))
        return real_eliminate(field, rows, ncols)

    monkeypatch.setattr(linalg, "rref", rref)
    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    space = linear_space_type_ii(m)
    assert space.affine_dim == 30
    assert rrefs and max(rrefs) <= bound
    assert all(ncols <= bound or nrows <= 30 for nrows, ncols in eliminations)
    rrefs.clear()
    assert linear_space_type_ii_full(m) == space
    assert rrefs == [217]


@pytest.mark.parametrize("name", zoo_names())
def test_type_ii_space_equals_the_full_system_oracle(name):
    """Same ambient dimension, particular solution and basis, entry for entry,
    as the solve over every entry of lambda."""
    for label, m in _modules_over_fields(name):
        assert linear_space_type_ii(m) == linear_space_type_ii_full(m), label


def _direct_sum(parts) -> Module:
    h, f = parts[0].h, parts[0].field
    d = sum(p.dim for p in parts)
    acts = []
    for i in range(h.dim):
        entries = [f.zero()] * (d * d)
        off = 0
        for p in parts:
            for r, c in product(range(p.dim), repeat=2):
                entries[(off + r) * d + off + c] = p.action[i].at(r, c)
            off += p.dim
        acts.append(Matrix(f, d, d, tuple(entries)))
    return Module(h, d, tuple(acts), name="+".join(p.name for p in parts))


@cache
def _modules_by_field(name) -> tuple:
    by_field = {}
    for _, m in _modules_over_fields(name):
        by_field.setdefault(repr(m.field), []).append(m)
    return tuple(by_field.values())


@st.composite
def _direct_sums(draw):
    """A direct sum of two or three named modules of one zoo entry, over
    the entry's field, F_5 or F_7, with at most 150 coaction entries."""
    mods = draw(st.sampled_from(_modules_by_field(draw(st.sampled_from(zoo_names())))))
    parts = draw(st.lists(st.sampled_from(mods), min_size=2, max_size=3))
    assume(sum(p.dim for p in parts) ** 2 * parts[0].h.dim <= 150)
    return _direct_sum(parts)


@settings(max_examples=30, deadline=None)
@given(_direct_sums())
def test_type_ii_space_on_direct_sums_equals_the_oracle(m):
    """Several generators: the spin-up's preimages and relations hold, and
    the space equals the full-system oracle."""
    gens, preimages, relations = _spin_up(m)
    f, one = m.field, m.field.one()

    def pi(elem):
        out = [f.zero()] * m.dim
        for (i, a), c in elem.items():
            for r, x in enumerate(m.action[a].col(gens[i])):
                out[r] = out[r] + c * x
        return out

    assert len(relations) == len(gens) * m.h.dim - m.dim
    for mu, s in enumerate(preimages):
        assert pi(s) == [one if r == mu else f.zero() for r in range(m.dim)]
    assert all(not any(pi(r)) for r in relations)
    assert linear_space_type_ii(m) == linear_space_type_ii_full(m), m.name


def test_enumeration_refuses_rational_field_before_solving(monkeypatch):
    def no_solve(m):
        raise AssertionError("linear space computed for a non-prime field")

    monkeypatch.setattr(ayd_solve, "linear_space_type_i", no_solve)
    monkeypatch.setattr(ayd_solve, "linear_space_type_ii", no_solve)
    reg = build_entry("s3").modules["regular"]
    with pytest.raises(ShapeError):
        enumerate_ayd_i(reg)
    with pytest.raises(ShapeError):
        enumerate_ayd_ii(reg)


def per_candidate_enumeration(m, linear_space, build, full_check):
    """The enumeration before interpolation: one full check per point."""
    f = m.field
    space = linear_space(m)
    if space.is_empty:
        return []
    seen = {}
    for coeffs in product(f.elements(), repeat=space.affine_dim):
        vec = space.point(coeffs).col(0)
        key = tuple(x.residue for x in vec)
        cand = build(m, Matrix(f, m.dim * m.h.dim, m.dim, tuple(vec)))
        if full_check(cand).passed:
            seen[key] = cand
    return [seen[k] for k in sorted(seen)]


# Every zoo module with p^e <= 81 (both types have the same e), as
# (p, entry, modules).
SMALL_SPACES = (
    (2, "z2", ("regular", "sign", "trivial")),
    (2, "z3", ("trivial",)),
    (2, "z3", ("regular",)),
    (2, "s3", ("sign", "trivial")),
    (3, "z2", ("regular", "sign", "trivial")),
    (3, "z3", ("trivial",)),
    (3, "s3", ("sign", "trivial")),
    (3, "h4", ("chi_minus", "trivial")),
    (3, "k2w", ("char1", "regular", "trivial")),
    (5, "z2", ("regular", "sign", "trivial")),
    (5, "z3", ("trivial",)),
    (5, "s3", ("sign", "trivial")),
    (5, "h4", ("chi_minus", "trivial")),
    (5, "k2w", ("char1", "regular", "trivial")),
    (7, "z2", ("regular", "sign", "trivial")),
    (7, "z3", ("trivial",)),
    (7, "s3", ("sign", "trivial")),
    (7, "h4", ("chi_minus", "trivial")),
    (7, "k2w", ("char1", "regular", "trivial")),
    (7, "k3w", ("char1", "trivial")),
)


@pytest.mark.parametrize("p,name,modules", SMALL_SPACES, ids=str)
def test_interpolated_enumeration_matches_per_candidate_loop(p, name, modules):
    e = build_entry(name, PrimeField(p))
    for mname in modules:
        m = e.modules[mname]
        for linear_space, build, full_check, enumerate_, attr in (
            (linear_space_type_i, AydTypeI, check_type_i, enumerate_ayd_i, "rho"),
            (linear_space_type_ii, AydTypeII, check_type_ii, enumerate_ayd_ii, "lam"),
        ):
            assert p ** linear_space(m).affine_dim <= 81, (name, mname)
            got = [getattr(t, attr) for t in enumerate_(m)]
            oracle = per_candidate_enumeration(m, linear_space, build, full_check)
            assert got == [getattr(t, attr) for t in oracle], (p, name, mname, attr)


@pytest.mark.parametrize("name,p,mname",
                         (("z3", 3, "regular"), ("k3w", 7, "trivial"), ("z2", 2, "regular")))
def test_interpolated_residual_equals_direct_residual(name, p, mname):
    m = build_entry(name, PrimeField(p)).modules[mname]
    rng = random.Random(21)
    for linear_space, build in ((linear_space_type_i, AydTypeI), (linear_space_type_ii, AydTypeII)):
        space = linear_space(m)
        rows = _quadratic_residual(m, space, build)
        for _ in range(5):
            c = tuple(rng.randrange(p) for _ in range(space.affine_dim))
            cc = (1,) + c
            interpolated = [sum(k * cc[i] * cc[j] for k, i, j in row) % p for row in rows]
            lhs, rhs = quasi_comodule_condition_matrices(build(m, _coaction(m, space, c)))
            direct = [(l - r).residue for l, r in zip(lhs.entries, rhs.entries)]
            assert interpolated == direct, (name, build.__name__, c)


def _no_residual(t):
    raise AssertionError("quasi-comodule residual evaluated before the budget check")


def test_budget_refuses_before_any_residual(monkeypatch):
    monkeypatch.setattr(ayd, "quasi_comodule_condition_matrices", _no_residual)
    monkeypatch.setattr(ayd_solve, "quasi_comodule_condition_matrices", _no_residual)
    reg = build_entry("h4", PrimeField(5)).modules["regular"]
    with pytest.raises(BudgetExceededError):
        enumerate_ayd_i(reg, budget=100)


def test_cli_budget_refusal_before_any_residual(monkeypatch, tmp_path, capsys):
    out = tmp_path / "h4_f5"
    assert main(["zoo", "emit", "h4", "--field", "fp:5", "--out", str(out)]) == 0
    monkeypatch.setattr(ayd, "quasi_comodule_condition_matrices", _no_residual)
    monkeypatch.setattr(ayd_solve, "quasi_comodule_condition_matrices", _no_residual)
    path = str(out / "module_regular.json")
    argv = ["ayd", "solve", "--type", "I", "--module", path, "--json"]
    capsys.readouterr()
    assert main(argv) == 2
    error = "enumeration needs 244140625 candidates (affine dimension 12) but budget is 1000000"
    report = {"checks": [], "command": argv, "exit_code": 2,
              "inputs": {path: hashlib.sha256(Path(path).read_bytes()).hexdigest()},
              "result": {"error": error}}
    assert capsys.readouterr().out == dump_json(report)
