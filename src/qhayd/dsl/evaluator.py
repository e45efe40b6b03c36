"""Exact evaluation of contraction plans against bound structures.

Free variables range over the basis of their sort; both sides of an
equation are evaluated for every assignment and compared coefficientwise.
Each term is a tensor network: every plan node is a sparse tensor
labelled by its wires, and two tensors that share a wire are contracted
by a hash join on their shared wires until one tensor is left (parts
with no wire between them are joined by an outer product).  The pair
with the smallest product of nonzero counts goes first; that order is
chosen on a term's first assignment and replayed for the others.
Arithmetic is exact, so the order changes no value.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product

from ..errors import ShapeError
from ..qha import QuasiHopfAlgebra, delta_tree_tensor
from ..repcat import Module
from .ast_nodes import Context, ExprSum
from .compiler import ContractionPlan, compile_expression

__all__ = ["Bindings", "Counterexample", "eval_expression", "eval_equation"]


@dataclass
class Bindings:
    """Bound algebra, named modules, and coaction maps (kind -> (module name, matrix))."""

    algebra: QuasiHopfAlgebra
    modules: dict = dc_field(default_factory=dict)
    coactions: dict = dc_field(default_factory=dict)

    def module(self, name: str) -> Module:
        if name not in self.modules:
            raise ShapeError(f"no module named {name!r} bound")
        return self.modules[name]

    def coaction(self, kind: str):
        if kind not in self.coactions:
            raise ShapeError(f"no coaction {kind!r} bound")
        return self.coactions[kind]


@dataclass(frozen=True)
class Counterexample:
    assignment: dict
    coordinate: tuple
    lhs: object
    rhs: object


class _NodeTensors:
    """Sparse node tensors for one bound structure, built lazily and cached,
    and the contraction order of each term evaluated against it."""

    def __init__(self, b: Bindings):
        self.b = b
        self.cache = {}
        self.orders = {}

    def get(self, node, context: Context):
        key = (node.kind, node.meta)
        if key in self.cache:
            return self.cache[key]
        sp = self._build(node, context)
        self.cache[key] = sp
        return sp

    def _build(self, node, context: Context):
        h = self.b.algebra
        n = h.dim
        f = h.field
        kind = node.kind
        if kind == "delta":
            return delta_tree_tensor(h.qb, node.meta[0])
        if kind == "mu":
            sp = {}
            for i in range(n):
                for j in range(n):
                    for l, c in h.algebra._mult_nz[i][j]:
                        sp[(i, j, l)] = c
            return sp
        if kind in ("S", "S2", "Sinv"):
            mat = {"S": h.s, "S2": h.s_squared(), "Sinv": h.s_inv}[kind]
            return {(j, i): mat.at(i, j) for i in range(n) for j in range(n) if mat.at(i, j)}
        if kind == "eps":
            return {(j,): h.qb.counit_of_basis(j) for j in range(n) if h.qb.counit_of_basis(j)}
        if kind == "phi":
            return {idx: c for idx, c in h.phi.nonzeros()}
        if kind == "phi_inv":
            return {idx: c for idx, c in h.phi_inv.nonzeros()}
        if kind == "alpha":
            return {(i,): c for i, c in enumerate(h.alpha) if c}
        if kind == "beta":
            return {(i,): c for i, c in enumerate(h.beta) if c}
        if kind == "one":
            return {(i,): c for i, c in enumerate(h.unit) if c}
        if kind == "coaction":
            cokind = node.meta[0]
            mod_name, mat = self.b.coaction(cokind)
            m = self.b.module(mod_name)
            d = m.dim
            sp = {}
            for mu in range(d):
                col = mat.col(mu)
                for flat, c in enumerate(col):
                    if c:
                        sp[(mu, flat // n, flat % n)] = c
            return sp
        if kind == "action":
            # resolved per module at evaluation time via wire sorts; built separately
            raise AssertionError("action tensors are built by the executor")
        raise ShapeError(f"unknown node kind {kind!r}")


def _action_tensor(m: Module):
    sp = {}
    for a in range(m.h.dim):
        mat = m.action[a]
        for i in range(m.dim):
            for j in range(m.dim):
                c = mat.at(i, j)
                if c:
                    sp[(a, j, i)] = c  # legs: (h_in, m_in, m_out)
    return sp


def _wire_sorts(term_plan, context: Context):
    """Sort ('algebra' or ('module', name)) of every wire in a term."""
    sorts = {}
    for node in term_plan.nodes:
        if node.kind == "var":
            decl = context.var(node.meta[0])
            sorts[node.out_wires[0]] = (
                ("module", decl.module) if decl.sort == "module" else "algebra"
            )
        elif node.kind in ("delta", "S", "S2", "Sinv", "mu", "phi", "phi_inv",
                           "alpha", "beta", "one"):
            for w in node.out_wires:
                sorts[w] = "algebra"
        elif node.kind == "coaction":
            decl = context.coaction(node.meta[0])
            sorts[node.out_wires[0]] = ("module", decl.module)
            sorts[node.out_wires[1]] = "algebra"
        elif node.kind == "action":
            sorts[node.out_wires[0]] = sorts[node.in_wires[1]]
    return sorts


def _scalar_coeff(field, num: int, den: int):
    c = field.from_int(num)
    if den != 1:
        c = c / field.from_int(den)
    return c


def _contract(a, b):
    """Sum two labelled sparse tensors over the wires they share.

    Each tensor is (wire labels, {index tuple: value}); with no shared
    wire this is the outer product.  ``b`` is indexed by its values on the
    shared wires, and each entry of ``a`` meets only its matches.
    """
    (la, ta), (lb, tb) = a, b
    pa = [i for i, w in enumerate(la) if w in lb]
    pb = [lb.index(la[i]) for i in pa]
    ra = [i for i, w in enumerate(la) if w not in lb]
    rb = [i for i, w in enumerate(lb) if w not in la]
    index = {}
    for key, v in tb.items():
        index.setdefault(tuple(key[p] for p in pb), []).append((tuple(key[p] for p in rb), v))
    out = {}
    for key, u in ta.items():
        matches = index.get(tuple(key[p] for p in pa))
        if not matches:
            continue
        kept = tuple(key[p] for p in ra)
        for rest, v in matches:
            k = kept + rest
            out[k] = out[k] + u * v if k in out else u * v
    labels = tuple(la[i] for i in ra) + tuple(lb[i] for i in rb)
    return labels, {k: v for k, v in out.items() if v}


def _cheapest_pair(net):
    """The pair (i, j), i < j, of tensors to contract next, or None if one is left.

    Candidates are the two ends of a wire (each internal wire has exactly
    two); once no wire joins two tensors, every pair is a candidate.  The
    smallest product of nonzero counts wins, then the lower indices.
    """
    if len(net) < 2:
        return None
    ends = {}
    for i, (labels, _) in enumerate(net):
        for w in labels:
            ends.setdefault(w, []).append(i)
    pairs = {tuple(e) for e in ends.values() if len(e) == 2} or {
        (i, j) for i in range(len(net)) for j in range(i + 1, len(net))
    }
    return min(pairs, key=lambda p: (len(net[p[0]][1]) * len(net[p[1]][1]), p))


def _merge(net, pair):
    i, j = pair
    net[i] = _contract(net[i], net.pop(j))


def _exec_term(term_plan, tensors: _NodeTensors, b: Bindings, context: Context,
               assignment: dict, wire_sorts) -> dict:
    """Sparse output tensor of one term for one basis assignment."""
    net = []
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
        net.append((node.in_wires + node.out_wires, sp))
    # node tensors do not depend on the assignment (a var tensor has one
    # entry), so the order chosen on the first assignment is replayed for
    # the rest; exact arithmetic gives the same values in any order
    order = tensors.orders.get(term_plan)
    if order is None:
        order = []
        while (pair := _cheapest_pair(net)) is not None:
            order.append(pair)
            _merge(net, pair)
        tensors.orders[term_plan] = order
    else:
        for pair in order:
            _merge(net, pair)
    labels, sp = net[0]
    c = _scalar_coeff(b.algebra.field, *term_plan.scalar)
    perm = [labels.index(w) for w in term_plan.output_wires]
    out = {}
    for k, v in sp.items():
        v = v * c
        if v:
            out[tuple(k[p] for p in perm)] = v
    return out


def _side(plan: ContractionPlan, context: Context, b: Bindings, tensors: _NodeTensors):
    """One side of an equation as a function: assignment -> its sparse output."""
    terms = [(tp, _wire_sorts(tp, context)) for tp in plan.terms]

    def value(assignment):
        total = {}
        for tp, sorts in terms:
            for k, v in _exec_term(tp, tensors, b, context, assignment, sorts).items():
                total[k] = total[k] + v if k in total else v
        return {k: v for k, v in total.items() if v}

    return value


def eval_expression(plan: ContractionPlan, context: Context, b: Bindings,
                    assignment: dict) -> dict:
    """Sparse output tensor of the expression for one basis assignment."""
    return _side(plan, context, b, _NodeTensors(b))(assignment)


def _assignment_ranges(context: Context, b: Bindings):
    names, ranges = [], []
    for v in context.variables:
        names.append(v.name)
        if v.sort == "algebra":
            ranges.append(range(b.algebra.dim))
        else:
            ranges.append(range(b.module(v.module).dim))
    return names, ranges


def eval_equation(lhs: ExprSum, rhs: ExprSum, context: Context, b: Bindings):
    """Exact equality of both sides over all basis assignments.

    Returns (True, None) or (False, Counterexample).
    """
    lp = compile_expression(lhs, context)
    rp = compile_expression(rhs, context)
    names, ranges = _assignment_ranges(context, b)
    tensors = _NodeTensors(b)
    lhs_at, rhs_at = _side(lp, context, b, tensors), _side(rp, context, b, tensors)
    for combo in product(*ranges):
        assignment = dict(zip(names, combo))
        lout, rout = lhs_at(assignment), rhs_at(assignment)
        if lout != rout:
            coord = sorted(set(lout) | set(rout))[0]
            z = b.algebra.field.zero()
            return False, Counterexample(
                assignment, coord, lout.get(coord, z), rout.get(coord, z)
            )
    return True, None
