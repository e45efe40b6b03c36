"""JSON document formats for algebras, modules, and coaction structures.

Scalars serialize as strings ("a/b" over the rationals, decimal residues
over a prime field) with the field declared once per document.  Malformed
documents raise ShapeError, which the CLI maps to exit code 2.  Missing
phi_inv / S_inv entries are computed on load.
"""

from __future__ import annotations

import json
from pathlib import Path

from .ayd import AydTypeI, AydTypeII
from .errors import ShapeError
from .fields import Field, PrimeField, QQ
from .linalg import Matrix
from .qha import QuasiHopfAlgebra, make_quasi_hopf
from .repcat import Module, ModuleMap
from .tensors import Tensor

__all__ = [
    "field_to_json",
    "field_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "algebra_to_json",
    "algebra_from_json",
    "module_to_json",
    "module_from_json",
    "module_map_to_json",
    "module_map_from_json",
    "ayd_to_json",
    "ayd_from_json",
    "load_json_file",
    "dump_json",
]


def field_to_json(field: Field) -> dict:
    if isinstance(field, PrimeField):
        return {"type": "Fp", "p": field.p}
    return {"type": "Q"}


def field_from_json(doc) -> Field:
    if not isinstance(doc, dict) or "type" not in doc:
        raise ShapeError("field must be {'type': 'Q'} or {'type': 'Fp', 'p': <prime>}")
    if doc["type"] == "Q":
        return QQ
    if doc["type"] == "Fp":
        p = doc.get("p")
        if not isinstance(p, int):
            raise ShapeError("prime field needs an integer modulus")
        return PrimeField(p)
    raise ShapeError(f"unknown field type {doc['type']!r}")


def _scalar_from(field: Field, x):
    if isinstance(x, str):
        return field.parse(x)
    if isinstance(x, int):
        return field.from_int(x)
    raise ShapeError(f"scalar must be a string or integer, got {x!r}")


def _vec_from(field: Field, doc, length: int, what: str):
    if not isinstance(doc, list) or len(doc) != length:
        raise ShapeError(f"{what} must be a list of {length} scalars")
    return tuple(_scalar_from(field, x) for x in doc)


def matrix_to_json(m: Matrix) -> list:
    return [[m.field.format(m.at(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def matrix_from_json(field: Field, doc, rows: int, cols: int, what: str) -> Matrix:
    if not isinstance(doc, list) or len(doc) != rows:
        raise ShapeError(f"{what} must be a {rows}x{cols} matrix")
    data = []
    for r in doc:
        data.append(_vec_from(field, r, cols, what))
    return Matrix.from_rows(field, data)


def algebra_to_json(h: QuasiHopfAlgebra) -> dict:
    field = h.field
    n = h.dim
    fmt = field.format
    phi_sparse = [
        {"i": idx[0], "j": idx[1], "k": idx[2], "c": fmt(c)}
        for idx, c in h.phi.nonzeros()
    ]
    phi_inv_sparse = [
        {"i": idx[0], "j": idx[1], "k": idx[2], "c": fmt(c)}
        for idx, c in h.phi_inv.nonzeros()
    ]
    return {
        "field": field_to_json(field),
        "dim": n,
        "basis": list(h.basis),
        "unit": [fmt(x) for x in h.unit],
        "mult": [[[fmt(x) for x in h.algebra.mult[i][j]] for j in range(n)] for i in range(n)],
        "delta": [[fmt(x) for x in h.delta.col(j)] for j in range(n)],
        "counit": [fmt(h.qb.counit_of_basis(j)) for j in range(n)],
        "phi": phi_sparse,
        "phi_inv": phi_inv_sparse,
        "S": matrix_to_json(h.s),
        "S_inv": matrix_to_json(h.s_inv),
        "alpha": [fmt(x) for x in h.alpha],
        "beta": [fmt(x) for x in h.beta],
    }


def _sparse_tensor_from(field: Field, doc, n: int, what: str) -> Tensor:
    if not isinstance(doc, list):
        raise ShapeError(f"{what} must be a sparse list of entries")
    coeffs = [field.zero()] * n**3
    for entry in doc:
        if not isinstance(entry, dict) or not {"i", "j", "k", "c"} <= set(entry):
            raise ShapeError(f"{what} entries need keys i, j, k, c")
        i, j, k = entry["i"], entry["j"], entry["k"]
        for idx in (i, j, k):
            if not isinstance(idx, int) or not 0 <= idx < n:
                raise ShapeError(f"{what} index {idx!r} out of range")
        flat = (i * n + j) * n + k
        coeffs[flat] = coeffs[flat] + _scalar_from(field, entry["c"])
    return Tensor(field, n, 3, tuple(coeffs))


def algebra_from_json(doc) -> QuasiHopfAlgebra:
    if not isinstance(doc, dict):
        raise ShapeError("algebra document must be an object")
    for key in ("field", "dim", "basis", "unit", "mult", "delta", "counit", "phi", "S",
                "alpha", "beta"):
        if key not in doc:
            raise ShapeError(f"algebra document lacks {key!r}")
    field = field_from_json(doc["field"])
    n = doc["dim"]
    if not isinstance(n, int) or n < 1:
        raise ShapeError("dim must be a positive integer")
    basis = doc["basis"]
    if not isinstance(basis, list) or len(basis) != n:
        raise ShapeError("basis must list one name per dimension")
    unit = _vec_from(field, doc["unit"], n, "unit")
    mult_doc = doc["mult"]
    if not isinstance(mult_doc, list) or len(mult_doc) != n:
        raise ShapeError("mult must be an n x n array of n-vectors")
    mult = []
    for row in mult_doc:
        if not isinstance(row, list) or len(row) != n:
            raise ShapeError("mult must be an n x n array of n-vectors")
        mult.append([_vec_from(field, v, n, "mult entry") for v in row])
    delta_doc = doc["delta"]
    if not isinstance(delta_doc, list) or len(delta_doc) != n:
        raise ShapeError("delta must give one n^2-vector per basis element")
    delta_rows = [_vec_from(field, v, n * n, "delta entry") for v in delta_doc]
    counit = _vec_from(field, doc["counit"], n, "counit")
    phi = _sparse_tensor_from(field, doc["phi"], n, "phi")
    phi_inv = (
        _sparse_tensor_from(field, doc["phi_inv"], n, "phi_inv")
        if "phi_inv" in doc and doc["phi_inv"] is not None
        else None
    )
    s_mat = matrix_from_json(field, doc["S"], n, n, "S")
    s_cols = [s_mat.col(j) for j in range(n)]
    s_inv_cols = None
    if "S_inv" in doc and doc["S_inv"] is not None:
        s_inv = matrix_from_json(field, doc["S_inv"], n, n, "S_inv")
        s_inv_cols = [s_inv.col(j) for j in range(n)]
    alpha = _vec_from(field, doc["alpha"], n, "alpha")
    beta = _vec_from(field, doc["beta"], n, "beta")
    return make_quasi_hopf(
        field, basis, mult, unit, delta_rows, counit, phi, s_cols, alpha, beta,
        phi_inv=phi_inv, s_inv_cols=s_inv_cols,
    )


def _resolve(doc_or_path, base_dir, loader):
    if isinstance(doc_or_path, str):
        path = Path(base_dir) / doc_or_path if base_dir is not None else Path(doc_or_path)
        return loader(load_json_file(path), path.parent)
    return loader(doc_or_path, base_dir)


def module_to_json(m: Module, algebra_ref=None) -> dict:
    return {
        "algebra": algebra_ref if algebra_ref is not None else algebra_to_json(m.h),
        "dim": m.dim,
        "action": [matrix_to_json(a) for a in m.action],
    }


def module_from_json(doc, base_dir=None) -> Module:
    if not isinstance(doc, dict):
        raise ShapeError("module document must be an object")
    for key in ("algebra", "dim", "action"):
        if key not in doc:
            raise ShapeError(f"module document lacks {key!r}")
    h = _resolve(doc["algebra"], base_dir, lambda d, _: algebra_from_json(d))
    d = doc["dim"]
    if not isinstance(d, int) or d < 1:
        raise ShapeError("module dim must be a positive integer")
    acts = doc["action"]
    if not isinstance(acts, list) or len(acts) != h.dim:
        raise ShapeError("action must list one matrix per algebra basis element")
    action = tuple(matrix_from_json(h.field, a, d, d, "action matrix") for a in acts)
    return Module(h, d, action)


def module_map_to_json(f: ModuleMap, source_ref=None, target_ref=None) -> dict:
    return {
        "source": source_ref if source_ref is not None else module_to_json(f.source),
        "target": target_ref if target_ref is not None else module_to_json(f.target),
        "matrix": matrix_to_json(f.matrix),
    }


def module_map_from_json(doc, base_dir=None) -> ModuleMap:
    if not isinstance(doc, dict):
        raise ShapeError("module map document must be an object")
    for key in ("source", "target", "matrix"):
        if key not in doc:
            raise ShapeError(f"module map document lacks {key!r}")
    src = _resolve(doc["source"], base_dir, lambda d, b: module_from_json(d, b))
    tgt = _resolve(doc["target"], base_dir, lambda d, b: module_from_json(d, b))
    mat = matrix_from_json(src.field, doc["matrix"], tgt.dim, src.dim, "matrix")
    return ModuleMap(src, tgt, mat)


def ayd_to_json(t, module_ref=None) -> dict:
    if isinstance(t, AydTypeI):
        kind, mat = "I", t.rho
    elif isinstance(t, AydTypeII):
        kind, mat = "II", t.lam
    else:
        raise ShapeError("not a coaction structure")
    return {
        "module": module_ref if module_ref is not None else module_to_json(t.module),
        "type": kind,
        "map": matrix_to_json(mat),
    }


def ayd_from_json(doc, base_dir=None):
    if not isinstance(doc, dict):
        raise ShapeError("coaction document must be an object")
    for key in ("module", "type", "map"):
        if key not in doc:
            raise ShapeError(f"coaction document lacks {key!r}")
    m = _resolve(doc["module"], base_dir, lambda d, b: module_from_json(d, b))
    kind = doc["type"]
    if kind not in ("I", "II"):
        raise ShapeError("type must be 'I' or 'II'")
    mat = matrix_from_json(m.field, doc["map"], m.dim * m.h.dim, m.dim, "coaction map")
    return AydTypeI(m, mat) if kind == "I" else AydTypeII(m, mat)


def load_json_file(path):
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ShapeError(f"cannot read {path}: {exc}") from exc
    return _parse_json(text, str(path))


def _parse_json(text: str, what: str):
    """The document in ``text``; ``what`` names its source in the error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ShapeError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ShapeError(f"{what} is nested too deeply to read") from exc


def dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
