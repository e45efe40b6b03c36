"""Workload inputs, operations and the canonical form of their outputs.

Each workload has a set-up that builds its inputs (timed as set-up) and a
list of operations that a pass runs back to back (timed as the run).  The
seed fixes the order of the operations and, for ``check``, which recorded
points of the F_5 solution space of S3's regular module are checked.

Operations reach the library through module attributes at call time
(``Q.ayd.check_type_i``), so a traced run sees them through the patched
names.  Every operation's output is reduced to a canonical JSON value and
compared with the value recorded in ``expected.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_DEADLINE_S = 60.0
# The S3 regular module's type-I linear space over Q takes minutes with dense
# Fraction elimination; it runs under this cap and is charged the cap when
# it does not finish.
S3Q_DEADLINE_S = 10.0
POOL_SIZE = 8  # recorded points of the s3/F_5 type-I solution space
MIN_CLI_SAMPLES = 600  # small CLI invocations per pass, at least 200

WORKLOADS = ("check", "solve", "zoo-cli", "solve-s3q")


@dataclass
class Op:
    id: str  # key into expected.json; repeated invocations share it
    group: str  # metric group the time is added to
    call: Callable[[], object]
    canon: Callable[[object], object]
    deadline: float = DEFAULT_DEADLINE_S


# -- canonical outputs --------------------------------------------------------


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canon_entries(field, entries) -> str:
    return _sha(",".join(field.format(x) for x in entries))


def canon_matrix(m) -> dict:
    return {"shape": [m.rows, m.cols], "sha256": canon_entries(m.field, m.entries)}


def canon_report(field):
    return lambda rep: rep.to_json(field.format)


def canon_iota(result) -> dict:
    imat, dom, cod = result
    return {"matrix": canon_matrix(imat), "dom": [canon_matrix(b) for b in dom],
            "cod": [canon_matrix(b) for b in cod]}


def canon_space(space) -> dict:
    return {"ambient": space.ambient_dim, "affine_dim": space.affine_dim,
            "particular": None if space.is_empty else canon_matrix(space.particular),
            "basis": canon_matrix(space.basis)}


def canon_loaded(result) -> dict:
    h, rep = result
    return {"report": rep.to_json(h.field.format),
            "phi_inv": canon_entries(h.field, h.phi_inv.coeffs)}


def canon_cli(result) -> dict:
    code, out = result
    return {"exit": code, "stdout_bytes": len(out.encode()), "stdout_sha256": _sha(out)}


def reduce_output(value) -> str:
    """The string stored in expected.json: short canonical JSON, else its digest."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return text if len(text) <= 600 else "sha256:" + _sha(text)


# -- shared inputs ------------------------------------------------------------


def unit_coaction(Q, m):
    """rho = m (x) 1 on a module, as the (dim*n) x dim coaction matrix."""
    h = m.h
    d, n, f = m.dim, h.dim, m.field
    rows = [[f.zero()] * d for _ in range(d * n)]
    for mu in range(d):
        for b in range(n):
            rows[mu * n + b][mu] = h.unit[b]
    return Q.linalg.Matrix.from_rows(f, rows)


def field_of(Q, tag: str):
    return Q.fields.QQ if tag == "q" else Q.fields.PrimeField(int(tag[1:]))


def regular_unit_ayd(Q, name: str, tag: str):
    m = Q.zoo.build_entry(name, field_of(Q, tag)).modules["regular"]
    return Q.ayd.AydTypeI(m, unit_coaction(Q, m))


def pool_point(Q, m, residues):
    f = m.field
    mat = Q.linalg.Matrix(f, m.dim * m.h.dim, m.dim, tuple(f.from_int(r) for r in residues))
    return Q.ayd.AydTypeI(m, mat)


def make_pool(Q, rng_factory) -> list:
    """Points of the s3/F_5 type-I linear solution space, as residue lists."""
    m = Q.zoo.build_entry("s3", field_of(Q, "f5")).modules["regular"]
    space = Q.ayd_solve.linear_space_type_i(m)
    pool = []
    for k in range(POOL_SIZE):
        rng = rng_factory(1000 + k)
        coeffs = [m.field.from_int(rng.randrange(5)) for _ in range(space.affine_dim)]
        pool.append([x.residue for x in space.point(coeffs).entries])
    return pool


# -- check -----------------------------------------------------------------------


def setup_check(Q, record, workdir) -> dict:
    ayds = {(name, tag): regular_unit_ayd(Q, name, tag)
            for name in ("s3", "h4") for tag in ("q", "f5")}
    s3f5 = ayds[("s3", "f5")]
    return {
        "ayds": ayds,
        "regular": {key: Q.repcat.regular_module(t.module.h) for key, t in ayds.items()},
        "lam": Q.ayd.convert_i_to_ii(s3f5),
        "pool": [pool_point(Q, s3f5.module, r) for r in record["pool"]],
    }


def ops_check(Q, inputs, rng) -> list:
    ops = []
    for (name, tag), t in inputs["ayds"].items():
        label = f"{name}/{tag} regular, rho = m (x) 1"
        field = t.module.field
        reg = inputs["regular"][(name, tag)]
        ops.append(Op(f"check_type_i {label}", "check_type",
                      lambda t=t: Q.ayd.check_type_i(t), canon_report(field)))
        ops.append(Op(f"stability_check {label}", "stability",
                      lambda t=t: Q.ayd.stability_check(t), bool))
        ops.append(Op(f"iota_matrix {label}", "stability",
                      lambda t=t, reg=reg: Q.repcat.iota_matrix(t.module, reg), canon_iota))
    lam = inputs["lam"]
    ops.append(Op("check_type_ii s3/f5 regular, lambda = convert_i_to_ii(m (x) 1)", "check_type",
                  lambda: Q.ayd.check_type_ii(lam), canon_report(lam.module.field)))
    for k in sorted(rng.sample(range(POOL_SIZE), 2)):
        t = inputs["pool"][k]
        ops.append(Op(f"check_type_i s3/f5 regular, pool point {k}", "check_type",
                      lambda t=t: Q.ayd.check_type_i(t), canon_report(t.module.field)))
    return ops


# -- solve -------------------------------------------------------------------------


def function_algebra_doc(n: int, p: int) -> str:
    """Functions on Z/n with the trivial 3-cocycle, without phi_inv.

    Written from the definition, so that loading the document has to
    invert the associator.
    """
    one = "1"
    zero = "0"
    basis = [f"e{i}" for i in range(n)]

    def e(i):
        return [one if j == i else zero for j in range(n)]

    delta = []
    for i in range(n):
        row = [zero] * (n * n)
        for j in range(n):
            row[j * n + (i - j) % n] = one
        delta.append(row)
    s = [[one if i == (-j) % n else zero for j in range(n)] for i in range(n)]
    doc = {
        "field": {"type": "Q"} if p == 0 else {"type": "Fp", "p": p},
        "dim": n,
        "basis": basis,
        "unit": [one] * n,
        "mult": [[e(i) if i == j else [zero] * n for j in range(n)] for i in range(n)],
        "delta": delta,
        "counit": e(0),
        "phi": [{"i": i, "j": j, "k": k, "c": one}
                for i in range(n) for j in range(n) for k in range(n)],
        "S": s,
        "S_inv": s,
        "alpha": [one] * n,
        "beta": [one] * n,
    }
    return json.dumps(doc, sort_keys=True)


def setup_solve(Q, record, workdir) -> dict:
    mods = {(name, tag): Q.zoo.build_entry(name, field_of(Q, tag)).modules["regular"]
            for name, tag in (("h4", "q"), ("s3", "f5"))}
    h4 = mods[("h4", "q")]
    return {
        "modules": mods,
        "convert": Q.ayd.AydTypeI(h4, unit_coaction(Q, h4)),
        "docs": {"Z/4 over Q": function_algebra_doc(4, 0),
                 "Z/5 over F_7": function_algebra_doc(5, 7)},
    }


def _load_validate(Q, text):
    h = Q.jsonio.algebra_from_json(json.loads(text))
    return h, Q.qha.validate(h)


def ops_solve(Q, inputs, rng) -> list:
    ops = []
    for (name, tag), m in inputs["modules"].items():
        ops.append(Op(f"linear_space_type_i {name}/{tag} regular", "linear_space",
                      lambda m=m: Q.ayd_solve.linear_space_type_i(m), canon_space))
        ops.append(Op(f"linear_space_type_ii {name}/{tag} regular", "linear_space",
                      lambda m=m: Q.ayd_solve.linear_space_type_ii(m), canon_space))
    t = inputs["convert"]
    ops.append(Op("convert_i_to_ii h4/q regular, rho = m (x) 1", "convert",
                  lambda: Q.ayd.convert_i_to_ii(t), lambda lam: canon_matrix(lam.lam)))
    for label, text in inputs["docs"].items():
        ops.append(Op(f"algebra_from_json + validate, functions on {label} without phi_inv",
                      "load_validate", lambda text=text: _load_validate(Q, text), canon_loaded))
    return ops


def setup_solve_s3q(Q, record, workdir) -> dict:
    return {"module": Q.zoo.build_entry("s3", Q.fields.QQ).modules["regular"]}


def ops_solve_s3q(Q, inputs, rng) -> list:
    m = inputs["module"]
    return [Op("linear_space_type_i s3/q regular", "linear_space",
               lambda: Q.ayd_solve.linear_space_type_i(m), canon_space, S3Q_DEADLINE_S)]


# -- zoo-cli -----------------------------------------------------------------------

# (entry, field tag or None for the entry's own field)
CLI_ENTRIES = (("h4", None), ("k2w", None), ("k3w", None), ("s3", None), ("z2", None),
               ("z3", None), ("z2", "f3"), ("h4", "f5"), ("z3", "f3"))
ALGEBRA_EQUATIONS = ("counit_left", "counit_right", "antipode_left", "antipode_right",
                     "antipode_assoc", "antipode_assoc_inv", "coassoc", "unass")
TYPE_I_EQUATIONS = ("ayd_module", "comodule_unit", "quasi_comodule")
TYPE_II_EQUATIONS = ("ayd_module_ii", "comodule_unit_ii", "quasi_comodule_ii")
# regular modules bound with rho = m (x) 1 for the type-I equations
UNIT_BINDINGS = ("s3_q", "k3w_f7")
# modules enumerated by `ayd solve`; h4_f5 regular exceeds the default budget
SOLVE_MODULES = (("z2_f3", "trivial"), ("z2_f3", "regular"), ("z2_f3", "sign"),
                 ("z3_f3", "trivial"), ("z3_f3", "regular"),
                 ("h4_f5", "trivial"), ("h4_f5", "chi_minus"), ("h4_f5", "regular"),
                 ("k3w_f7", "trivial"), ("k3w_f7", "char1"))


def _tag(field) -> str:
    return "q" if field.characteristic == 0 else f"f{field.characteristic}"


def _put(path: Path, text: str):
    """Write ``text`` unless the file already holds it.

    Freeing disk blocks (unlink, truncate) takes tens of milliseconds per file
    on some disks, so documents left by an earlier run are reused, not
    rewritten.
    """
    try:
        if path.read_text() == text:
            return
    except FileNotFoundError:
        pass
    path.write_text(text)


def setup_zoo_cli(Q, record, workdir: Path) -> dict:
    """Emit every document the commands read into ``workdir``."""
    jsonio = Q.jsonio

    def write(path: Path, doc):
        _put(path, jsonio.dump_json(doc))

    eq_dir = workdir / "eq"
    eq_dir.mkdir(parents=True, exist_ok=True)
    for name in Q.corpus.corpus_names():
        _put(eq_dir / f"{name}.swd", Q.corpus.corpus_text(name))
    dirs = {}
    for name, tag in CLI_ENTRIES:
        entry = Q.zoo.build_entry(name, field_of(Q, tag) if tag else None)
        key = f"{name}_{_tag(entry.algebra.field)}"
        out = workdir / key
        out.mkdir(parents=True, exist_ok=True)
        write(out / "algebra.json", jsonio.algebra_to_json(entry.algebra))
        for mname, m in sorted(entry.modules.items()):
            write(out / f"module_{mname}.json", jsonio.module_to_json(m, algebra_ref="algebra.json"))
        write(out / "ctx_algebra.json", {"algebra": "algebra.json"})
        bindings = {}
        for aname, b in sorted(entry.ayds.items()):
            mref = f"module_{b.module_name}.json"
            write(out / f"ayd_{aname}.json", jsonio.ayd_to_json(b.ayd, module_ref=mref))
            bindings[aname] = (mref, "rho", b.ayd.rho)
            lam = Q.ayd.convert_i_to_ii(b.ayd).lam
            bindings[f"{aname}_ii"] = (mref, "lam", lam)
        if key in UNIT_BINDINGS:
            reg = entry.modules["regular"]
            bindings["regular_unit"] = ("module_regular.json", "rho", unit_coaction(Q, reg))
        for bname, (mref, kind, mat) in bindings.items():
            write(out / f"ctx_{bname}.json", {
                "algebra": "algebra.json", "modules": {"M": mref},
                "coactions": {kind: {"module": "M", "map": jsonio.matrix_to_json(mat)}},
            })
        write(out / "manifest.json", entry.manifest())
        dirs[key] = {"modules": sorted(entry.modules), "ayds": sorted(entry.ayds),
                     "bindings": {b: kind for b, (_, kind, _) in bindings.items()}}
    return {"dirs": dirs}


def cli_commands(dirs: dict):
    """(small commands, enumeration commands) as argv lists with relative paths."""
    small = []
    for key, info in dirs.items():
        small.append(["validate", f"{key}/algebra.json", "--json"])
        for mname in info["modules"]:
            small.append(["module", "check", f"{key}/module_{mname}.json", "--json"])
        for aname in info["ayds"]:
            doc = f"{key}/ayd_{aname}.json"
            small.append(["ayd", "check", doc, "--json"])
            small.append(["ayd", "stability", doc, "--json"])
            small.append(["ayd", "tau", doc, "--v", f"{key}/module_regular.json", "--json"])
        for eq in ALGEBRA_EQUATIONS:
            small.append(["dsl", "check", "--eq", f"eq/{eq}.swd",
                          "--ctx", f"{key}/ctx_algebra.json", "--json"])
        for bname, kind in info["bindings"].items():
            for eq in TYPE_I_EQUATIONS if kind == "rho" else TYPE_II_EQUATIONS:
                small.append(["dsl", "check", "--eq", f"eq/{eq}.swd",
                              "--ctx", f"{key}/ctx_{bname}.json", "--json"])
    enum = [["ayd", "solve", "--type", typ, "--module", f"{key}/module_{mname}.json", "--json"]
            for key, mname in SOLVE_MODULES for typ in ("I", "II")]
    return small, enum


def run_cli(Q, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = Q.cli.main(list(argv))
    return code, out.getvalue()


def ops_zoo_cli(Q, inputs, rng) -> list:
    small, enum = cli_commands(inputs["dirs"])
    rounds = math.ceil(MIN_CLI_SAMPLES / len(small))
    ops = []
    for argv in small * rounds:
        ops.append(Op("qhayd " + " ".join(argv), "cli",
                      lambda argv=argv: run_cli(Q, argv), canon_cli))
    for argv in enum:
        ops.append(Op("qhayd " + " ".join(argv), "enumerate",
                      lambda argv=argv: run_cli(Q, argv), canon_cli))
    return ops


SETUP = {"check": setup_check, "solve": setup_solve, "zoo-cli": setup_zoo_cli,
         "solve-s3q": setup_solve_s3q}
OPS = {"check": ops_check, "solve": ops_solve, "zoo-cli": ops_zoo_cli,
       "solve-s3q": ops_solve_s3q}
