import random
from dataclasses import replace
from itertools import product

import pytest

from qhayd.ayd import check_type_i, check_type_ii, convert_i_to_ii
from qhayd.dsl import (
    Bindings,
    Context,
    ContextVar,
    CoactionDecl,
    compile_expression,
    eval_equation,
    eval_expression,
    load_swd,
    parse_equation,
    parse_expression,
)
from qhayd.dsl import evaluator
from qhayd.dsl.corpus import corpus_names, load_corpus
from qhayd.dsl.evaluator import (
    _assignment_ranges,
    _exec_term,
    _NodeTensors,
    _wire_sorts,
)
from qhayd.errors import DslParseError
from qhayd.fields import QQ
from qhayd.linalg import Matrix
from qhayd.qha import delta_tree_tensor, validate
from qhayd.repcat import regular_module

from conftest import entry
from oracles import NodeTensorsDense, delta_tree_matrix, eval_equation_sweep, exec_term_sweep
from printer import print_equation, print_expression

ALG_CTX = Context((ContextVar("h", "algebra"),), ())


def coaction_ctx(kind="rho"):
    return Context(
        (ContextVar("h", "algebra"), ContextVar("m", "module", "M")),
        (CoactionDecl(kind, "M"),),
    )


# -- parsing ---------------------------------------------------------------------


def test_parse_simple_split():
    e = parse_expression("h^{1} (x) h^{2}", ALG_CTX)
    assert len(e.terms) == 1
    assert len(e.terms[0].factors) == 2


def test_parse_rejects_non_binary_path():
    with pytest.raises(DslParseError) as err:
        parse_expression("h^{1} (x) h^{3}", ALG_CTX)
    assert "binary" in str(err.value)


def test_parse_rejects_unbound_variable():
    with pytest.raises(DslParseError) as err:
        parse_expression("z^{1} (x) z^{2}", ALG_CTX)
    assert "unbound" in str(err.value)


def test_parse_rejects_incomplete_bracketing():
    with pytest.raises(DslParseError):
        parse_expression("h^{1} (x) h^{21}", ALG_CTX)


def test_parse_rejects_duplicate_address():
    with pytest.raises(DslParseError):
        parse_expression("h^{1} h^{1} (x) h^{2}", ALG_CTX)


def test_parse_rejects_unpaired_coaction_leg():
    ctx = coaction_ctx()
    with pytest.raises(DslParseError) as err:
        parse_expression("m<0;a>", ctx)
    assert "unpaired" in str(err.value)


def test_parse_rejects_incomplete_associator_triple():
    with pytest.raises(DslParseError) as err:
        parse_expression("X beta S(Y)", ALG_CTX)
    assert "incomplete associator" in str(err.value)


def test_parse_rejects_mismatched_coaction_args():
    ctx = coaction_ctx()
    with pytest.raises(DslParseError) as err:
        parse_expression("rho0(m; a) (x) rho1(h m; a)", ctx)
    assert "two different arguments" in str(err.value)


def test_parse_rejects_algebra_after_module_atom():
    ctx = coaction_ctx()
    with pytest.raises(DslParseError):
        parse_expression("m<0;a> h (x) m<1;a>", ctx)


def test_parse_antipode_axiom_shapes():
    lhs, rhs = parse_equation("S(h^{1}) alpha h^{2} = eps(h) alpha", ALG_CTX)
    assert len(lhs.terms[0].factors) == 1
    assert len(rhs.terms[0].factors) == 1


def test_signs_and_scalars():
    e = parse_expression("2 h^{1} (x) h^{2} - 1/2 h^{1} (x) h^{2}", ALG_CTX)
    assert e.terms[0].sign == 1 and e.terms[1].sign == -1
    text = print_expression(e)
    assert parse_expression(text, ALG_CTX) == e


# -- printing --------------------------------------------------------------------


def test_print_parse_round_trip_on_corpus():
    for name in corpus_names():
        doc = load_corpus(name)
        if doc.rhs is None:
            text = print_expression(doc.lhs)
            assert parse_expression(text, doc.context) == doc.lhs, name
        else:
            text = print_equation(doc.lhs, doc.rhs)
            assert parse_equation(text, doc.context) == (doc.lhs, doc.rhs), name


def test_corpus_covers_the_displayed_equations():
    names = set(corpus_names())
    assert {
        "coassoc", "counit_left", "counit_right", "unass",
        "antipode_left", "antipode_right", "antipode_assoc", "antipode_assoc_inv",
        "ayd_module", "comodule_unit", "quasi_comodule",
        "ayd_module_ii", "comodule_unit_ii", "quasi_comodule_ii",
        "lambda_reconstruction",
    } <= names


# -- compilation -----------------------------------------------------------------


def test_compile_single_split_plan_shape():
    e = parse_expression("h^{1} (x) h^{2}", ALG_CTX)
    plan = compile_expression(e, ALG_CTX)
    assert plan.count_nodes("delta") == 1
    assert plan.count_nodes("var") == 1
    plan.validate_wires()


def test_compile_ayd_module_lhs_shape():
    doc = load_corpus("ayd_module")
    plan = compile_expression(doc.lhs, doc.context)
    assert plan.count_nodes("delta") == 1
    assert plan.count_nodes("coaction") == 1
    assert plan.count_nodes("action") == 1
    assert plan.count_nodes("mu") == 1
    plan.validate_wires()


def test_compile_quasi_comodule_rhs_has_two_inverse_associators():
    doc = load_corpus("quasi_comodule")
    plan = compile_expression(doc.rhs, doc.context)
    assert plan.count_nodes("phi_inv") == 2
    assert plan.count_nodes("coaction") == 1  # one application, shared across factors
    plan.validate_wires()


def test_compile_is_deterministic():
    doc = load_corpus("quasi_comodule_ii")
    p1 = compile_expression(doc.lhs, doc.context)
    p2 = compile_expression(doc.lhs, doc.context)
    assert p1 == p2


# -- evaluation ------------------------------------------------------------------


def _bind_i(e, b):
    return Bindings(e.algebra, {"M": b.ayd.module}, {"rho": ("M", b.ayd.rho)})


def _matches_sweep(doc, bind):
    """Hold the pairwise contraction to the former node sweep, exactly.

    Both sides of the document agree term by term at every assignment, and
    for an equation ``eval_equation`` gives the sweep's (ok, Counterexample),
    which it returns.
    """
    ctx = doc.context
    names, ranges = _assignment_ranges(ctx, bind)
    tensors, dense = _NodeTensors(bind), NodeTensorsDense(bind)
    for side in (doc.lhs, doc.rhs):
        if side is None:
            continue
        for tp in compile_expression(side, ctx).terms:
            sorts = _wire_sorts(tp, ctx)
            for combo in product(*ranges):
                a = dict(zip(names, combo))
                assert _exec_term(tp, tensors, bind, ctx, a, sorts) == exec_term_sweep(
                    tp, dense, bind, ctx, a, sorts
                ), (a, tp)
    if doc.rhs is None:
        return None
    got = eval_equation(doc.lhs, doc.rhs, ctx, bind)
    assert got == eval_equation_sweep(doc.lhs, doc.rhs, ctx, bind)
    return got


def _trees(leaves):
    """Every bracketing of the given number of coproduct leaves."""
    if leaves == 1:
        yield None
        return
    for k in range(1, leaves):
        for left in _trees(k):
            for right in _trees(leaves - k):
                yield (left, right)


def test_delta_tree_tensor_matches_delta_tree_matrix(zoo_entry):
    # every zoo coproduct is coassociative, so all bracketings give one
    # tensor there; a scrambled coproduct, three terms per column, tells
    # the bracketings apart
    qb = zoo_entry.algebra.qb
    n, f = qb.dim, qb.field
    rng = random.Random(n)
    entries = [f.zero()] * (n * n * n)
    for j in range(n):
        for flat in rng.sample(range(n * n), 3):
            entries[flat * n + j] = f.from_int(rng.randint(1, 4))
    scrambled = replace(qb, delta=Matrix(f, n * n, n, tuple(entries)))
    for q in (qb, scrambled):
        for leaves in range(1, 5):
            for tree in _trees(leaves):
                mat = delta_tree_matrix(q, tree)
                dense = {
                    (j, *(flat // n ** (leaves - 1 - s) % n for s in range(leaves))): c
                    for j in range(n)
                    for flat, c in enumerate(mat.col(j))
                    if c
                }
                assert delta_tree_tensor(q, tree) == dense, tree


def test_contraction_matches_sweep_on_every_zoo_ayd(zoo_entry):
    h = zoo_entry.algebra
    docs = [load_corpus(name) for name in corpus_names()]
    type_i = [d for d in docs if [c.kind for c in d.context.coactions] == ["rho"]]
    type_ii = [d for d in docs if [c.kind for c in d.context.coactions] == ["lam"]]
    reg = regular_module(h)
    for _, b in sorted(zoo_entry.ayds.items()):
        t2 = convert_i_to_ii(b.ayd)
        bind_ii = Bindings(h, {"M": t2.module, "V": reg}, {"lam": ("M", t2.lam)})
        for doc in type_i:
            _matches_sweep(doc, _bind_i(zoo_entry, b))
        for doc in type_ii:
            _matches_sweep(doc, bind_ii)
    # rho = m (x) 1 on the regular module covers entries with no bundled AYD
    d, n = reg.dim, h.dim
    unit = Matrix.from_rows(
        h.field, [[h.unit[r % n] if r // n == mu else h.field.zero() for mu in range(d)]
                  for r in range(d * n)]
    )
    for doc in type_i:
        _matches_sweep(doc, Bindings(h, {"M": reg}, {"rho": ("M", unit)}))


def test_quasi_comodule_ii_intermediates_stay_small(monkeypatch):
    # the former sweep carried one state over every open wire, 16,384
    # entries here on a 2-dimensional algebra
    sizes = []
    contract = evaluator._contract

    def recording(a, b):
        out = contract(a, b)
        sizes.append(len(out[1]))
        return out

    monkeypatch.setattr(evaluator, "_contract", recording)
    k2w = entry("k2w")
    t2 = convert_i_to_ii(k2w.ayds["point_plus"].ayd)
    doc = load_corpus("quasi_comodule_ii")
    bind = Bindings(k2w.algebra, {"M": t2.module}, {"lam": ("M", t2.lam)})
    ok, _ = eval_equation(doc.lhs, doc.rhs, doc.context, bind)
    assert ok
    assert sizes and max(sizes) <= 64


def test_counit_axiom_as_equation_on_z2():
    z2 = entry("z2")
    doc = load_corpus("counit_left")
    ok, _ = eval_equation(doc.lhs, doc.rhs, doc.context, Bindings(z2.algebra))
    assert ok


def test_phi_times_phi_inv_by_instance_labels():
    # componentwise product of the two associator triples is 1 (x) 1 (x) 1
    ctx = Context((), ())
    lhs = parse_expression("X P (x) Y Q (x) Z R", ctx)
    rhs = parse_expression("one (x) one (x) one", ctx)
    for name in ("z2", "h4", "k2w", "k3w"):
        e = entry(name)
        ok, _ = eval_equation(lhs, rhs, ctx, Bindings(e.algebra))
        assert ok, name


def test_algebra_equations_hold_on_every_zoo_algebra(zoo_entry):
    for name in ("coassoc", "counit_left", "counit_right", "unass",
                 "antipode_left", "antipode_right",
                 "antipode_assoc", "antipode_assoc_inv"):
        doc = load_corpus(name)
        ok, ce = _matches_sweep(doc, Bindings(zoo_entry.algebra))
        assert ok, (name, ce)


def test_dsl_agrees_with_hand_coded_type_i_checkers():
    pairs = [("ayd_module", "ayd-compatibility"),
             ("comodule_unit", "comodule-unit"),
             ("quasi_comodule", "quasi-comodule")]
    for ename in ("z2", "h4", "k2w"):
        e = entry(ename)
        for key, b in sorted(e.ayds.items()):
            rep = check_type_i(b.ayd)
            hand = {i.name: i.passed for i in rep.items}
            bind = _bind_i(e, b)
            for eq, item in pairs:
                doc = load_corpus(eq)
                ok, _ = eval_equation(doc.lhs, doc.rhs, doc.context, bind)
                assert ok == hand[item], (ename, key, eq)


def test_dsl_agrees_with_hand_coded_type_ii_checkers():
    pairs = [("ayd_module_ii", "ayd-compatibility-ii"),
             ("comodule_unit_ii", "comodule-unit-ii"),
             ("quasi_comodule_ii", "quasi-comodule-ii")]
    for ename in ("z2", "h4", "k2w"):
        e = entry(ename)
        for key, b in sorted(e.ayds.items()):
            if not b.expected_valid:
                continue
            t2 = convert_i_to_ii(b.ayd)
            rep = check_type_ii(t2)
            hand = {i.name: i.passed for i in rep.items}
            bind = Bindings(e.algebra, {"M": t2.module}, {"lam": ("M", t2.lam)})
            for eq, item in pairs:
                doc = load_corpus(eq)
                ok, _ = eval_equation(doc.lhs, doc.rhs, doc.context, bind)
                assert ok == hand[item], (ename, key, eq)


def test_dsl_partial_mutants_agree_with_checker_verdicts():
    from qhayd.ayd import AydTypeI
    from qhayd.ayd_solve import linear_space_type_i
    from qhayd.fields import PrimeField
    from qhayd.linalg import Matrix
    from qhayd.zoo import build_entry

    f3 = PrimeField(3)
    e = build_entry("k2w", f3)
    m = e.modules["trivial"]
    space = linear_space_type_i(m)
    doc = load_corpus("quasi_comodule")
    failed = 0
    for c in range(3):
        t = AydTypeI(m, Matrix(f3, 2, 1, tuple(space.point([f3.from_int(c)]).col(0))))
        hand = check_type_i(t).item("quasi-comodule").passed
        bind = Bindings(e.algebra, {"M": m}, {"rho": ("M", t.rho)})
        ok, _ = _matches_sweep(doc, bind)
        assert ok == hand
        failed += not ok
    assert failed


def test_random_non_ayd_map_fails_with_witness():
    from qhayd.linalg import Matrix

    h4 = entry("h4")
    triv = h4.modules["trivial"]
    rho = Matrix.from_rows(QQ, [[QQ.one()], [QQ.zero()], [QQ.zero()], [QQ.zero()]])
    doc = load_corpus("ayd_module")
    bind = Bindings(h4.algebra, {"M": triv}, {"rho": ("M", rho)})
    ok, ce = _matches_sweep(doc, bind)
    assert not ok
    assert ce.assignment["h"] == 2  # the witness is the basis element x
    assert ce.lhs != ce.rhs


def test_expression_evaluation_of_lambda_reconstruction():
    h4 = entry("h4")
    b = h4.ayds["k_g"]
    t2 = convert_i_to_ii(b.ayd)
    from qhayd.ayd import tau_from_lambda
    from qhayd.repcat import regular_module

    reg = regular_module(h4.algebra)
    doc = load_corpus("lambda_reconstruction")
    plan = compile_expression(doc.lhs, doc.context)
    bind = Bindings(
        h4.algebra,
        {"M": t2.module, "V": reg},
        {"lam": ("M", t2.lam)},
    )
    tau = tau_from_lambda(t2, reg).matrix
    d, n = t2.module.dim, h4.algebra.dim
    for iv in range(reg.dim):
        for mu in range(d):
            out = eval_expression(plan, doc.context, bind, {"v": iv, "m": mu})
            col = tau.col(iv * d + mu)
            for (nu, jv), c in out.items():
                assert col[nu * reg.dim + jv] == c
            nnz = sum(1 for x in col if x)
            assert len(out) == nnz


def test_load_swd_round_trip():
    text = """
# a comment
var h : algebra
eps(h^{1}) h^{2} = h
"""
    doc = load_swd(text)
    assert doc.rhs is not None
    assert doc.context.variables[0].name == "h"
