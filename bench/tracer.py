"""Spans and counters recorded around the public functions of each qhayd module.

The tracer patches functions from outside the package: every module
namespace under ``qhayd`` that bound a traced function by name gets the
wrapper, so calls through ``from .linalg import solve`` are seen as well
as calls through ``linalg.solve``.  Spans (name, start, end, parent) and
counts are kept in memory and written out when the run ends.  Self time
of a span is its duration minus the time covered by its child spans.

Hot scalar methods (``PrimeFieldElement`` arithmetic, ``Algebra.mul_vec``,
the DSL's per-term evaluation) are only counted, never spanned: a span per
call would cost more than the call.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter


def _nnz(entries) -> int:
    return sum(1 for x in entries if x)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # (name id, start, end, parent index or -1)
        self._stack = []
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._cells = {}  # counter name -> one-element list bumped by hot wrappers
        self._undo = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, n: int = 1):
        self.counts[name] += n

    def record_max(self, name: str, value: int):
        if value > self.maxima[name]:
            self.maxima[name] = value

    def spanned(self, fn, name: str, before=None, after=None):
        """Wrap ``fn`` in a span; ``before(args)`` and ``after(result)`` add counts."""
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            start = perf_counter()
            spans.append((nid, start, start, parent))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, start, perf_counter(), parent)
                stack.pop()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, name: str):
        """Wrap ``fn`` so each call bumps the counter ``name``."""
        cell = self._cells.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted_outermost(self, fns: dict, name: str):
        """Wrap several functions; count only calls not nested inside another of them."""
        depth = [0]
        wrapped = {}
        for key, fn in fns.items():
            def wrapper(*args, _fn=fn, **kwargs):
                if depth[0] == 0:
                    self.counts[name] += 1
                depth[0] += 1
                try:
                    return _fn(*args, **kwargs)
                finally:
                    depth[0] -= 1

            wrapper.__wrapped__ = fn
            wrapped[key] = wrapper
        return wrapped

    # -- patching -----------------------------------------------------------

    def patch_everywhere(self, fn, wrapper) -> int:
        """Rebind every module-level name under ``qhayd`` that refers to ``fn``."""
        patched = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qhayd" or mod_name.startswith("qhayd.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.set_attr(mod, attr, wrapper)
                    patched += 1
        if not patched:
            raise RuntimeError(f"no qhayd namespace binds {fn!r}")
        return patched

    def set_attr(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def all_counts(self) -> dict:
        out = dict(self.counts)
        out.update(self.maxima)
        for name, cell in self._cells.items():
            out[name] = out.get(name, 0) + cell[0]
        return out

    def self_times(self) -> dict:
        """Seconds per span name, each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (nid, start, end, parent) in enumerate(self.spans):
            out[self.names[nid]] += (end - start) - child[i]
        return dict(out)

    def write_spans(self, path):
        """One JSON line per span: name, start, end (seconds), parent index."""
        with open(path, "w") as fh:
            for nid, start, end, parent in self.spans:
                fh.write(json.dumps([self.names[nid], start, end, parent]) + "\n")


def install(tracer: Tracer, modules) -> None:
    """Patch the public functions of every qhayd module the benchmark measures.

    ``modules`` maps short names (``linalg``, ``ayd``, ...) to the imported
    qhayd modules.
    """
    fields, linalg, repcat, qha = (modules[k] for k in ("fields", "linalg", "repcat", "qha"))
    ayd, ayd_solve, dsl_parser, dsl_eval = (
        modules[k] for k in ("ayd", "ayd_solve", "dsl.parser", "dsl.evaluator")
    )
    jsonio, cli, zoo = (modules[k] for k in ("jsonio", "cli", "zoo"))
    t = tracer

    def span_all(fn, name, before=None, after=None):
        t.patch_everywhere(fn, t.spanned(fn, name, before, after))

    # L0: scalar arithmetic over F_p (counts only)
    fe = fields.PrimeFieldElement
    for attr, counter in (("__mul__", "fields.fp_mul_calls"), ("__rmul__", "fields.fp_mul_calls"),
                          ("__add__", "fields.fp_add_calls"), ("__radd__", "fields.fp_add_calls"),
                          ("__sub__", "fields.fp_add_calls"), ("__rsub__", "fields.fp_add_calls")):
        t.set_attr(fe, attr, t.counted(getattr(fe, attr), counter))

    # L1: elimination and dense products
    def rref_sizes(args):
        a = args[0]
        cells = a.rows * a.cols
        t.count("linalg.rref_calls")
        t.count("linalg.rref_cells", cells)
        t.count("linalg.rref_nnz", _nnz(a.entries))
        t.record_max("linalg.rref_max_cells", cells)

    span_all(linalg.rref, "linalg.rref", before=rref_sizes)
    entries = t.counted_outermost(
        {"solve": linalg.solve, "kernel_basis": linalg.kernel_basis, "inverse": linalg.inverse},
        "linalg.solve_entries",
    )
    for key, wrapper in entries.items():
        t.patch_everywhere(getattr(linalg, key), wrapper)

    mat = linalg.Matrix

    def matmul_sizes(args):
        a, b = args
        t.count("linalg.matmul_calls")
        t.count("linalg.matmul_mults", a.rows * a.cols * b.cols)

    def kron_sizes(args):
        a, b = args
        t.count("linalg.kron_calls")
        t.count("linalg.kron_cells", a.rows * b.rows * a.cols * b.cols)

    def add_count(args):
        t.count("linalg.add_calls")

    t.set_attr(mat, "__matmul__", t.spanned(mat.__matmul__, "linalg.matmul", before=matmul_sizes))
    span_all(linalg.kron, "linalg.kron", before=kron_sizes)
    t.set_attr(mat, "__add__", t.spanned(mat.__add__, "linalg.add", before=add_count))
    t.set_attr(mat, "scale", t.spanned(mat.scale, "linalg.add", before=add_count))

    # L2: module constructions and the algebra
    span_all(repcat.tensor, "repcat.tensor", before=lambda a: t.count("repcat.tensor_calls"))
    span_all(repcat.hom_space, "repcat.hom_space", before=lambda a: t.count("repcat.hom_space_calls"))
    mm = repcat.ModuleMap
    t.set_attr(mm, "__post_init__", t.counted(mm.__post_init__, "repcat.module_maps"))
    span_all(qha.make_quasi_hopf, "qha.make_quasi_hopf")
    t.set_attr(qha.Algebra, "mul_vec", t.counted(qha.Algebra.mul_vec, "qha.mul_vec_calls"))

    # L3: checks, solvers and the DSL
    span_all(qha.validate, "qha.validate")
    check_i = t.spanned(ayd.check_type_i, "ayd.check_type_i")
    check_ii = t.spanned(ayd.check_type_ii, "ayd.check_type_ii")
    t.patch_everywhere(ayd.check_type_i, check_i)
    t.patch_everywhere(ayd.check_type_ii, check_ii)
    span_all(ayd.quasi_comodule_condition_matrices, "ayd.quasi_comodule_condition_matrices")
    span_all(ayd.stability_check, "ayd.stability_check")
    span_all(ayd.lambda_from_tau, "ayd.lambda_from_tau")
    for fn in (ayd.tau_from_rho, ayd.tau_from_lambda):
        t.patch_everywhere(fn, t.counted(fn, "ayd.tau_builds"))

    # The enumeration's full check is the binding inside ayd_solve.
    def candidate(check):
        def wrapper(cand):
            report = check(cand)
            t.count("ayd_solve.candidates_tried")
            if report.passed:
                t.count("ayd_solve.candidates_passed")
            return report

        return wrapper

    t.set_attr(ayd_solve, "check_type_i", candidate(check_i))
    t.set_attr(ayd_solve, "check_type_ii", candidate(check_ii))
    span_all(ayd_solve.linear_space_type_i, "ayd_solve.linear_space")
    span_all(ayd_solve.linear_space_type_ii, "ayd_solve.linear_space")
    span_all(ayd_solve.enumerate_ayd_i, "ayd_solve.enumerate")
    span_all(ayd_solve.enumerate_ayd_ii, "ayd_solve.enumerate")

    span_all(dsl_parser.load_swd, "dsl.parse")
    span_all(dsl_eval.eval_equation, "dsl.eval")
    t.patch_everywhere(dsl_eval._exec_term, t.counted(dsl_eval._exec_term, "dsl.eval_calls"))

    # L4: documents and the command line
    for fn in (jsonio.load_json_file, jsonio.algebra_from_json, jsonio.module_from_json,
               jsonio.ayd_from_json, jsonio.module_map_from_json):
        span_all(fn, "jsonio.load")

    def dump_bytes(text):
        t.count("jsonio.dump_bytes", len(text.encode()))

    span_all(jsonio.dump_json, "jsonio.dump", after=dump_bytes)
    for fn in (jsonio.algebra_to_json, jsonio.module_to_json, jsonio.ayd_to_json,
               jsonio.module_map_to_json, jsonio.matrix_to_json):
        span_all(fn, "jsonio.dump")

    def exit_code(code):
        t.count(f"cli.exit_{code}")

    span_all(cli.main, "cli.main", before=lambda a: t.count("cli.main_calls"), after=exit_code)

    # set-up only
    span_all(zoo.build_entry, "zoo.build_entry")
