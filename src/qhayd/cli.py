"""Command-line front end.

Exit codes are a stable contract: 0 when every check passes, 1 when a
logical check fails, 2 when an input is malformed (or a request is refused,
e.g. by the enumeration budget guard).  With --json the report is printed
as JSON with sorted keys and no timing information, so identical inputs
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from .ayd import (
    AydTypeI,
    AydTypeII,
    check_type_i,
    check_type_ii,
    convert_i_to_ii,
    convert_ii_to_i,
    sigma_hopf,
    stability_check,
    tau_from_lambda,
    tau_from_rho,
)
from .ayd_solve import DEFAULT_BUDGET, enumerate_ayd_i, enumerate_ayd_ii
from .dsl import Bindings, eval_equation
from .dsl.parser import load_swd
from .errors import BudgetExceededError, DslParseError, QhaydError, ShapeError
from .fields import PrimeField, QQ
from .jsonio import (
    algebra_from_json,
    algebra_to_json,
    ayd_from_json,
    ayd_to_json,
    dump_json,
    field_to_json,
    load_json_file,
    matrix_from_json,
    matrix_to_json,
    module_from_json,
    module_map_to_json,
    module_to_json,
)
from .linalg import Matrix
from .qha import validate
from .repcat import check_module
from .reports import CheckReport
from .zoo import build_entry, zoo_names

__all__ = ["main"]


def _say(args, text):
    """Human-facing output; suppressed in --json mode to keep stdout parseable."""
    if not getattr(args, "json", False):
        print(text)


def _digest(path) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ShapeError(f"cannot read {path}: {exc}") from exc
    return hashlib.sha256(data).hexdigest()


def _read_doc(path, inputs):
    if path == "-":
        text = sys.stdin.read()
        inputs["<stdin>"] = hashlib.sha256(text.encode()).hexdigest()
        try:
            return json.loads(text), None
        except json.JSONDecodeError as exc:
            raise ShapeError(f"standard input is not valid JSON: {exc}") from exc
    inputs[str(path)] = _digest(path)
    return load_json_file(path), Path(path).parent


def _parse_field(spec: str):
    if spec == "q":
        return QQ
    if spec.startswith("fp:"):
        try:
            return PrimeField(int(spec[3:]))
        except ValueError as exc:
            raise ShapeError(f"bad field spec {spec!r}") from exc
    raise ShapeError(f"bad field spec {spec!r}; use q or fp:<prime>")


def _report_checks(rep: CheckReport, field) -> list:
    return rep.to_json(field.format)


# -- command handlers -----------------------------------------------------------


def _cmd_validate(args, inputs):
    doc, _ = _read_doc(args.path, inputs)
    h = algebra_from_json(doc)
    rep = validate(h)
    _say(args, rep.format_text(h.field.format))
    return (0 if rep.passed else 1), _report_checks(rep, h.field), {}


def _cmd_module_check(args, inputs):
    doc, base = _read_doc(args.path, inputs)
    m = module_from_json(doc, base)
    rep = check_module(m)
    _say(args, rep.format_text(m.field.format))
    return (0 if rep.passed else 1), _report_checks(rep, m.field), {}


def _load_ayd(args, inputs):
    doc, base = _read_doc(args.path, inputs)
    t = ayd_from_json(doc, base)
    want = getattr(args, "type", None)
    if want and ((want == "I") != isinstance(t, AydTypeI)):
        raise ShapeError(f"document holds a type {'I' if isinstance(t, AydTypeI) else 'II'} "
                         f"structure but --type {want} was requested")
    return t


def _cmd_ayd_check(args, inputs):
    t = _load_ayd(args, inputs)
    rep = check_type_i(t) if isinstance(t, AydTypeI) else check_type_ii(t)
    _say(args, rep.format_text(t.module.field.format))
    return (0 if rep.passed else 1), _report_checks(rep, t.module.field), {}


def _cmd_ayd_convert(args, inputs):
    t = _load_ayd(args, inputs)
    if args.to == "II":
        if not isinstance(t, AydTypeI):
            raise ShapeError("--to II expects a type-I input")
        out = convert_i_to_ii(t)
    else:
        if not isinstance(t, AydTypeII):
            raise ShapeError("--to I expects a type-II input")
        out = convert_ii_to_i(t)
    doc = ayd_to_json(out)
    if args.out:
        Path(args.out).write_text(dump_json(doc))
        _say(args, f"wrote {args.out}")
    else:
        _say(args, dump_json(doc).rstrip("\n"))
    return 0, [], {"converted_to": args.to}


def _cmd_ayd_tau(args, inputs):
    t = _load_ayd(args, inputs)
    vdoc, vbase = _read_doc(args.v, inputs)
    v = module_from_json(vdoc, vbase)
    if v.h != t.module.h:
        raise ShapeError("the test module lives over a different algebra")
    tau = tau_from_rho(t, v) if isinstance(t, AydTypeI) else tau_from_lambda(t, v)
    result = module_map_to_json(tau)
    result["h_linear"] = tau.is_morphism()
    result["source_dim"] = tau.source.dim
    result["target_dim"] = tau.target.dim
    if args.out:
        Path(args.out).write_text(dump_json(result))
        _say(args, f"wrote {args.out}")
    else:
        _say(args, dump_json(result).rstrip("\n"))
    return (0 if result["h_linear"] else 1), [], result


def _cmd_ayd_stability(args, inputs):
    t = _load_ayd(args, inputs)
    if not isinstance(t, AydTypeI):
        raise ShapeError("stability runs on type-I structures; convert first")
    rep = check_type_i(t)
    stable = stability_check(t)
    rep.add("stability", stable)
    sigma_identity = None
    if t.module.h.phi_is_trivial():
        s = sigma_hopf(t)
        sigma_identity = s.matrix == Matrix.identity(t.module.field, t.module.dim)
        rep.add("sigma-identity", sigma_identity)
    _say(args, rep.format_text(t.module.field.format))
    result = {"stable": stable, "sigma_identity": sigma_identity}
    return (0 if rep.passed else 1), _report_checks(rep, t.module.field), result


def _cmd_ayd_solve(args, inputs):
    doc, base = _read_doc(args.module, inputs)
    m = module_from_json(doc, base)
    if args.over:
        want = _parse_field(args.over)
        if want != m.field:
            raise ShapeError(f"module is over {m.field!r}, not {args.over}")
    budget = args.budget
    if budget is None:
        raw = os.environ.get("QHAYD_BUDGET", DEFAULT_BUDGET)
        try:
            budget = int(raw)
        except ValueError as exc:
            raise ShapeError(f"QHAYD_BUDGET must be an integer, not {raw!r}") from exc
    if args.type == "I":
        points = enumerate_ayd_i(m, budget)
        mats = [p.rho for p in points]
    else:
        points = enumerate_ayd_ii(m, budget)
        mats = [p.lam for p in points]
    result = {"count": len(points), "points": [matrix_to_json(mat) for mat in mats]}
    if args.out:
        Path(args.out).write_text(dump_json(result))
        _say(args, f"found {len(points)} structures; wrote {args.out}")
    else:
        _say(args, dump_json(result).rstrip("\n"))
    return 0, [], result


def _cmd_dsl_check(args, inputs):
    try:
        text = Path(args.eq).read_text()
    except OSError as exc:
        raise ShapeError(f"cannot read {args.eq}: {exc}") from exc
    inputs[str(args.eq)] = hashlib.sha256(text.encode()).hexdigest()
    doc = load_swd(text)
    if doc.rhs is None:
        raise ShapeError(f"{args.eq} holds an expression, not an equation")
    ctx_doc, base = _read_doc(args.ctx, inputs)
    if not isinstance(ctx_doc, dict) or "algebra" not in ctx_doc:
        raise ShapeError("bindings document needs an 'algebra' entry")
    if isinstance(ctx_doc["algebra"], str):
        apath = (base or Path(".")) / ctx_doc["algebra"]
        h = algebra_from_json(load_json_file(apath))
    else:
        h = algebra_from_json(ctx_doc["algebra"])
    modules = {}
    for name, mdoc in ctx_doc.get("modules", {}).items():
        if isinstance(mdoc, str):
            mpath = (base or Path(".")) / mdoc
            modules[name] = module_from_json(load_json_file(mpath), mpath.parent)
        else:
            modules[name] = module_from_json(mdoc, base)
    coactions = {}
    for kind, cdoc in ctx_doc.get("coactions", {}).items():
        if kind not in ("rho", "lam"):
            raise ShapeError("coaction kinds are 'rho' and 'lam'")
        mname = cdoc.get("module")
        if mname not in modules:
            raise ShapeError(f"coaction {kind!r} refers to unknown module {mname!r}")
        m = modules[mname]
        mat = matrix_from_json(h.field, cdoc.get("map"), m.dim * h.dim, m.dim, "coaction map")
        coactions[kind] = (mname, mat)
    bindings = Bindings(h, modules, coactions)
    ok, ce = eval_equation(doc.lhs, doc.rhs, doc.context, bindings)
    checks = [{"name": "equation", "passed": ok}]
    if ok:
        _say(args, "PASS  equation holds on the bound structure")
        return 0, checks, {}
    witness = {
        "assignment": {k: int(v) for k, v in ce.assignment.items()},
        "coordinate": list(ce.coordinate),
        "lhs": h.field.format(ce.lhs),
        "rhs": h.field.format(ce.rhs),
    }
    checks[0]["witness"] = witness
    _say(args, "FAIL  equation fails")
    _say(args, f"      at basis assignment {witness['assignment']}, "
               f"coordinate {witness['coordinate']}: "
               f"lhs={witness['lhs']} rhs={witness['rhs']}")
    return 1, checks, {}


def _cmd_zoo_list(args, inputs):
    rows = []
    for name in zoo_names():
        e = build_entry(name)
        rows.append({"name": name, "description": e.description,
                     "field": field_to_json(e.algebra.field),
                     "modules": sorted(e.modules), "ayd": sorted(e.ayds)})
        _say(args, f"{name:6s} {e.description}")
    return 0, [], {"entries": rows}


def _cmd_zoo_emit(args, inputs):
    field = _parse_field(args.field) if args.field else None
    entry = build_entry(args.name, field)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name, doc):
        path = out / name
        path.write_text(dump_json(doc))
        written.append(str(path))

    emit("algebra.json", algebra_to_json(entry.algebra))
    for mname, m in sorted(entry.modules.items()):
        emit(f"module_{mname}.json", module_to_json(m, algebra_ref="algebra.json"))
    for aname, b in sorted(entry.ayds.items()):
        emit(
            f"ayd_{aname}.json",
            ayd_to_json(b.ayd, module_ref=f"module_{b.module_name}.json"),
        )
    emit("manifest.json", entry.manifest())
    for p in written:
        _say(args, f"wrote {p}")
    return 0, [], {"written": written}


# -- argument parsing -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qhayd",
        description="exact checks, reconstructions, and searches for quasi-Hopf "
        "algebra coaction structures",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="print a JSON run report")

    p = sub.add_parser("validate", help="run every defining identity of an algebra document")
    p.add_argument("path", help="algebra JSON file, or - for stdin")
    add_json(p)
    p.set_defaults(handler=_cmd_validate)

    mod = sub.add_parser("module", help="module operations")
    msub = mod.add_subparsers(dest="subcommand", required=True)
    p = msub.add_parser("check", help="check the module axioms")
    p.add_argument("path")
    add_json(p)
    p.set_defaults(handler=_cmd_module_check)

    ayd = sub.add_parser("ayd", help="coaction-structure operations")
    asub = ayd.add_subparsers(dest="subcommand", required=True)

    p = asub.add_parser("check", help="run the three defining conditions")
    p.add_argument("path")
    p.add_argument("--type", choices=["I", "II"], help="require this structure type")
    add_json(p)
    p.set_defaults(handler=_cmd_ayd_check)

    p = asub.add_parser("convert", help="convert between the two presentations")
    p.add_argument("path")
    p.add_argument("--to", choices=["I", "II"], required=True)
    p.add_argument("--out")
    add_json(p)
    p.set_defaults(handler=_cmd_ayd_convert)

    p = asub.add_parser("tau", help="reconstruct the half-braiding at a module")
    p.add_argument("path")
    p.add_argument("--v", required=True, help="module JSON file")
    p.add_argument("--out")
    add_json(p)
    p.set_defaults(handler=_cmd_ayd_tau)

    p = asub.add_parser("stability", help="check the stability composite")
    p.add_argument("path")
    add_json(p)
    p.set_defaults(handler=_cmd_ayd_stability)

    p = asub.add_parser("solve", help="enumerate structures over a prime field")
    p.add_argument("--type", choices=["I", "II"], required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--over", help="assert the base field, e.g. fp:3")
    p.add_argument("--budget", type=int, help=f"candidate budget (default {DEFAULT_BUDGET})")
    p.add_argument("--out")
    add_json(p)
    p.set_defaults(handler=_cmd_ayd_solve)

    dsl = sub.add_parser("dsl", help="Sweedler-notation equation checking")
    dsub = dsl.add_subparsers(dest="subcommand", required=True)
    p = dsub.add_parser("check", help="evaluate an equation file against bindings")
    p.add_argument("--eq", required=True, help=".swd equation file")
    p.add_argument("--ctx", required=True, help="bindings JSON file")
    add_json(p)
    p.set_defaults(handler=_cmd_dsl_check)

    zoo = sub.add_parser("zoo", help="built-in example structures")
    zsub = zoo.add_subparsers(dest="subcommand", required=True)
    p = zsub.add_parser("list", help="list the built-in entries")
    add_json(p)
    p.set_defaults(handler=_cmd_zoo_list)
    p = zsub.add_parser("emit", help="write an entry's JSON documents")
    p.add_argument("name")
    p.add_argument("--field", help="q or fp:<prime>")
    p.add_argument("--out", required=True)
    add_json(p)
    p.set_defaults(handler=_cmd_zoo_emit)

    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    inputs = {}
    started = time.monotonic()
    try:
        code, checks, result = args.handler(args, inputs)
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        code, checks, result = 2, [], {"error": str(exc)}
    except (QhaydError, DslParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code, checks, result = 2, [], {"error": str(exc)}
    if getattr(args, "json", False):
        report = {
            "command": argv,
            "inputs": inputs,
            "checks": checks,
            "result": result,
            "exit_code": code,
        }
        print(dump_json(report), end="")
    else:
        print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
