"""Canonical text form of Sweedler expressions for the parser's round-trip
tests; parse(print(e)) reproduces e exactly."""

from __future__ import annotations

from qhayd.dsl.ast_nodes import (
    ALPHA,
    BETA,
    ONE,
    PHI,
    PHI_INV,
    VAR,
    CoactionAtom,
    EpsAtom,
    ExprSum,
    ScalarAtom,
    SymbolAtom,
    WrapperAtom,
)

__all__ = ["print_expression", "print_equation", "print_atom"]

_CONST_NAMES = {ALPHA: "alpha", BETA: "beta", ONE: "one"}


def _suffix(label: str, path: str) -> str:
    out = ""
    if label:
        out += f"_{label}"
    if path:
        out += f"^{{{path}}}"
    return out


def print_atom(atom) -> str:
    if isinstance(atom, ScalarAtom):
        return str(atom.num) if atom.den == 1 else f"{atom.num}/{atom.den}"
    if isinstance(atom, SymbolAtom):
        if atom.kind == VAR:
            return atom.name + _suffix(atom.label, atom.path)
        if atom.kind in (PHI, PHI_INV):
            return atom.name + _suffix(atom.label, atom.path)
        return _CONST_NAMES[atom.kind] + _suffix(atom.label, atom.path)
    if isinstance(atom, WrapperAtom):
        return f"{atom.op}({_print_product(atom.arg)})"
    if isinstance(atom, EpsAtom):
        return f"eps({_print_product(atom.arg)})"
    if isinstance(atom, CoactionAtom):
        arg = atom.arg
        tail = f"^{{{atom.path}}}" if atom.path else ""
        if (
            len(arg) == 1
            and isinstance(arg[0], SymbolAtom)
            and arg[0].kind == VAR
            and not arg[0].label
            and not arg[0].path
        ):
            brackets = "<>" if atom.kind == "rho" else "[]"
            return f"{arg[0].name}{brackets[0]}{atom.leg};{atom.label}{brackets[1]}{tail}"
        return f"{atom.kind}{atom.leg}({_print_product(arg)}; {atom.label}){tail}"
    raise TypeError(f"not an atom: {atom!r}")


def _print_product(atoms) -> str:
    return " ".join(print_atom(a) for a in atoms)


def print_expression(expr: ExprSum) -> str:
    parts = []
    for i, term in enumerate(expr.terms):
        body = " (x) ".join(_print_product(f) for f in term.factors)
        if i == 0:
            parts.append(body if term.sign > 0 else f"- {body}")
        else:
            parts.append(("+ " if term.sign > 0 else "- ") + body)
    return " ".join(parts)


def print_equation(lhs: ExprSum, rhs: ExprSum) -> str:
    return f"{print_expression(lhs)} = {print_expression(rhs)}"
