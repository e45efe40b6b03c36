"""Tokenizer, recursive-descent parser, and well-formedness validation."""

from __future__ import annotations

import re

from ..errors import DslParseError
from .ast_nodes import (
    ALPHA,
    BETA,
    ONE,
    PHI,
    PHI_INV,
    PHI_INV_SLOTS,
    PHI_SLOTS,
    VAR,
    CoactionAtom,
    CoactionDecl,
    Context,
    ContextVar,
    EpsAtom,
    ExprSum,
    ScalarAtom,
    SwdDocument,
    SymbolAtom,
    Term,
    WrapperAtom,
)

__all__ = ["parse_expression", "parse_equation", "parse_context", "load_swd", "tree_from_paths"]

_TOKEN_RE = re.compile(
    r"""
    (?P<TENSOR>\(x\))
  | (?P<IDENT>[A-Za-z][A-Za-z0-9]*(?:_[0-9]+)?)
  | (?P<NUMBER>[0-9]+)
  | (?P<PATH>\^\{[0-9]+\})
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<LANGLE><)
  | (?P<RANGLE>>)
  | (?P<LBRACK>\[)
  | (?P<RBRACK>\])
  | (?P<SEMI>;)
  | (?P<EQ>=)
  | (?P<PLUS>\+)
  | (?P<MINUS>-)
  | (?P<SLASH>/)
  | (?P<WS>\s+)
""",
    re.VERBOSE,
)

_WRAPPERS = {"S", "S2", "Sinv"}
_COACTION_HEADS = {"rho0": ("rho", 0), "rho1": ("rho", 1), "lam0": ("lam", 0), "lam1": ("lam", 1)}
_CONSTANTS = {"alpha": ALPHA, "beta": BETA, "one": ONE}


class _Token:
    __slots__ = ("kind", "text", "start", "end")

    def __init__(self, kind, text, start, end):
        self.kind = kind
        self.text = text
        self.start = start
        self.end = end

    def __repr__(self):
        return f"{self.kind}({self.text!r})"


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslParseError(f"unexpected character {text[pos]!r}", (pos, pos + 1))
        kind = m.lastgroup
        if kind != "WS":
            tokens.append(_Token(kind, m.group(), m.start(), m.end()))
        pos = m.end()
    tokens.append(_Token("EOF", "", len(text), len(text)))
    return tokens


def _split_label(ident: str):
    if "_" in ident:
        base, label = ident.split("_", 1)
        return base, label
    return ident, ""


def _check_path(text: str, span) -> str:
    path = text[2:-1]
    if any(ch not in "12" for ch in path):
        raise DslParseError(
            f"invalid coproduct path {path!r}: superscripts are binary addresses over 1 and 2",
            span,
        )
    return path


class _Parser:
    def __init__(self, text: str, context: Context):
        self.text = text
        self.context = context
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token helpers ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise DslParseError(
                f"expected {kind} but found {tok.text!r}", (tok.start, tok.end)
            )
        return tok

    def error(self, msg: str, tok: _Token):
        raise DslParseError(msg, (tok.start, tok.end))

    # -- grammar ----------------------------------------------------------

    def parse_sum(self) -> ExprSum:
        terms = []
        sign = 1
        if self.peek().kind == "MINUS":
            self.next()
            sign = -1
        elif self.peek().kind == "PLUS":
            self.next()
        terms.append(self.parse_term(sign))
        while self.peek().kind in ("PLUS", "MINUS"):
            sign = 1 if self.next().kind == "PLUS" else -1
            terms.append(self.parse_term(sign))
        return ExprSum(tuple(terms))

    def parse_term(self, sign: int) -> Term:
        factors = [self.parse_factor()]
        while self.peek().kind == "TENSOR":
            self.next()
            factors.append(self.parse_factor())
        return Term(sign, tuple(factors))

    def parse_factor(self) -> tuple:
        atoms = []
        while True:
            tok = self.peek()
            if tok.kind in ("IDENT", "NUMBER"):
                atoms.append(self.parse_atom())
            else:
                break
        if not atoms:
            self.error("empty factor", self.peek())
        return tuple(atoms)

    def parse_atom_sequence_until(self, stop_kinds) -> tuple:
        atoms = []
        while self.peek().kind not in stop_kinds:
            tok = self.peek()
            if tok.kind not in ("IDENT", "NUMBER"):
                self.error(f"unexpected {tok.text!r} inside argument", tok)
            atoms.append(self.parse_atom())
        if not atoms:
            self.error("empty argument", self.peek())
        return tuple(atoms)

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "NUMBER":
            num = int(tok.text)
            den = 1
            if self.peek().kind == "SLASH":
                self.next()
                den = int(self.expect("NUMBER").text)
            return ScalarAtom(num, den)
        ident = tok.text
        base, label = _split_label(ident)

        if base in _WRAPPERS and self.peek().kind == "LPAREN":
            self.next()
            arg = self.parse_atom_sequence_until(("RPAREN",))
            self.expect("RPAREN")
            return WrapperAtom(base, arg)
        if base == "eps" and self.peek().kind == "LPAREN":
            self.next()
            arg = self.parse_atom_sequence_until(("RPAREN",))
            self.expect("RPAREN")
            return EpsAtom(arg)
        if base in _COACTION_HEADS and self.peek().kind == "LPAREN":
            kind, leg = _COACTION_HEADS[base]
            self.next()
            arg = self.parse_atom_sequence_until(("SEMI",))
            self.expect("SEMI")
            lab = self.expect("IDENT").text
            self.expect("RPAREN")
            path = self.maybe_path(leg, tok)
            return CoactionAtom(kind, leg, arg, lab, path)

        if base in _CONSTANTS:
            path = self.maybe_path(None, tok)
            return SymbolAtom(_CONSTANTS[base], "", label, path)
        if base in PHI_SLOTS:
            path = self.maybe_path(None, tok)
            return SymbolAtom(PHI, base, label, path)
        if base in PHI_INV_SLOTS:
            path = self.maybe_path(None, tok)
            return SymbolAtom(PHI_INV, base, label, path)

        decl = self.context.var(base)
        if decl is None:
            self.error(f"unbound variable {base!r}", tok)
        # coaction sugar: m<0;a>, m<1;a>, m[0;a], m[1;a]
        if self.peek().kind in ("LANGLE", "LBRACK") and decl.sort == "module":
            open_kind = self.next().kind
            kind = "rho" if open_kind == "LANGLE" else "lam"
            leg_tok = self.expect("NUMBER")
            if leg_tok.text not in ("0", "1"):
                self.error("coaction leg must be 0 or 1", leg_tok)
            leg = int(leg_tok.text)
            self.expect("SEMI")
            lab = self.expect("IDENT").text
            self.expect("RANGLE" if open_kind == "LANGLE" else "RBRACK")
            path = self.maybe_path(leg, tok)
            return CoactionAtom(kind, leg, (SymbolAtom(VAR, base, label, ""),), lab, path)
        path = self.maybe_path(None, tok)
        return SymbolAtom(VAR, base, label, path)

    def maybe_path(self, leg, head_tok) -> str:
        if self.peek().kind == "PATH":
            tok = self.next()
            path = _check_path(tok.text, (tok.start, tok.end))
            if leg == 0:
                self.error("a module-valued coaction leg cannot carry a coproduct path", tok)
            return path
        return ""


# -- well-formedness ------------------------------------------------------------


def tree_from_paths(paths, where: str):
    """Binary bracketing tree whose leaves are exactly the given addresses."""
    occurrences = list(paths)
    paths = set(occurrences)
    if len(occurrences) != len(paths):
        raise DslParseError(f"{where}: the same address appears twice in one term")
    if paths == {""}:
        return None
    if "" in paths:
        raise DslParseError(f"{where}: address set mixes the whole element with parts")
    left = {p[1:] for p in paths if p.startswith("1")}
    right = {p[1:] for p in paths if p.startswith("2")}
    if not left or not right or len(left) + len(right) != len(paths):
        raise DslParseError(f"{where}: addresses {sorted(paths)} do not form a bracketing")
    return (tree_from_paths(left, where), tree_from_paths(right, where))


def _product_sort(atoms, context: Context, occ, where: str):
    """Sort of a juxtaposition product; records symbol occurrences into occ.

    Algebra atoms may precede one module-valued atom (they act on it);
    nothing may follow the module atom except scalars.
    """
    module_seen = None
    for atom in atoms:
        sort = _atom_sort(atom, context, occ)
        if sort == "scalar":
            continue
        if module_seen is not None:
            raise DslParseError(
                f"{where}: nothing may follow the module-valued atom"
                if sort == "algebra"
                else f"{where}: at most one module-valued atom is allowed"
            )
        if sort != "algebra":
            module_seen = sort
    return module_seen if module_seen is not None else "algebra"


def _atom_sort(atom, context: Context, occ):
    if isinstance(atom, ScalarAtom):
        return "scalar"
    if isinstance(atom, SymbolAtom):
        if atom.kind == VAR:
            decl = context.var(atom.name)
            occ["vars"].setdefault((atom.name, atom.label), []).append(atom.path)
            if decl.sort == "module":
                if atom.path:
                    raise DslParseError(
                        f"module variable {atom.name!r} cannot carry a coproduct path"
                    )
                return ("module", decl.module)
            return "algebra"
        if atom.kind in (PHI, PHI_INV):
            slot = PHI_SLOTS[atom.name] if atom.kind == PHI else PHI_INV_SLOTS[atom.name]
            occ["assoc"].setdefault((atom.kind, atom.label), {0: [], 1: [], 2: []})[
                slot
            ].append(atom.path)
            return "algebra"
        # constants
        occ["consts"].append((atom.kind, atom.label, atom.path))
        return "algebra"
    if isinstance(atom, WrapperAtom):
        for sub in atom.arg:
            if _atom_sort(sub, context, occ) != "algebra":
                raise DslParseError(f"{atom.op}(...) needs an algebra-valued argument")
        return "algebra"
    if isinstance(atom, EpsAtom):
        for sub in atom.arg:
            if _atom_sort(sub, context, occ) != "algebra":
                raise DslParseError("eps(...) needs an algebra-valued argument")
        return "scalar"
    if isinstance(atom, CoactionAtom):
        decl = context.coaction(atom.kind)
        if decl is None:
            raise DslParseError(f"no coaction {atom.kind!r} declared in the context")
        key = (atom.kind, atom.label)
        app = occ["coactions"].setdefault(key, {"arg": None, 0: [], 1: []})
        if app["arg"] is None:
            app["arg"] = atom.arg
        elif app["arg"] != atom.arg:
            raise DslParseError(
                f"coaction label {atom.label!r} used with two different arguments"
            )
        app[atom.leg].append(atom.path)
        if atom.leg == 0:
            return ("module", decl.module)
        return "algebra"
    raise DslParseError(f"unknown atom {atom!r}")


def _validate_term(term: Term, context: Context):
    occ = {"vars": {}, "assoc": {}, "consts": [], "coactions": {}}
    for i, f in enumerate(term.factors):
        if all(isinstance(a, (ScalarAtom, EpsAtom)) for a in f):
            raise DslParseError(f"factor {i + 1} has no tensor value")
    sorts = tuple(
        _product_sort(f, context, occ, f"factor {i + 1}")
        for i, f in enumerate(term.factors)
    )

    # walk each coaction application's shared argument exactly once; nested
    # applications inside arguments are discovered along the way
    walked = set()
    while True:
        pending = [k for k in occ["coactions"] if k not in walked]
        if not pending:
            break
        for key in pending:
            walked.add(key)
            app = occ["coactions"][key]
            decl = context.coaction(key[0])
            arg_sort = _product_sort(app["arg"], context, occ, f"coaction {key[1]!r} argument")
            if arg_sort != ("module", decl.module):
                raise DslParseError(
                    f"coaction {key[0]!r} argument must be valued in module {decl.module!r}"
                )

    for (kind, label), app in occ["coactions"].items():
        if not app[0]:
            raise DslParseError(f"unpaired coaction leg: label {label!r} lacks its module leg")
        if app[0] != [""]:
            raise DslParseError(
                f"the module leg of coaction label {label!r} must appear exactly once"
            )
        if not app[1]:
            raise DslParseError(f"unpaired coaction leg: label {label!r} lacks its algebra leg")
        tree_from_paths(app[1], f"coaction {label!r} algebra leg")

    for (name, label), paths in occ["vars"].items():
        decl = context.var(name)
        if decl.sort == "module":
            continue
        tree_from_paths(paths, f"variable {name!r}")

    for (kind, label), slots in occ["assoc"].items():
        for s in range(3):
            if not slots[s]:
                letters = "XYZ" if kind == PHI else "PQR"
                raise DslParseError(
                    f"incomplete associator instance {label!r}: component {letters[s]} missing"
                )
            tree_from_paths(slots[s], f"associator component {s}")

    seen_const = {}
    for kind, label, path in occ["consts"]:
        if not label:
            if path:
                raise DslParseError(
                    f"a coproducted {kind} needs an instance label (write {kind}_1^{{...}})"
                )
        else:
            seen_const.setdefault((kind, label), set()).add(path)
    for (kind, label), paths in seen_const.items():
        tree_from_paths(paths, f"{kind}_{label}")

    return sorts


def _validate_sum(expr: ExprSum, context: Context):
    shapes = [_validate_term(t, context) for t in expr.terms]
    for s in shapes[1:]:
        if s != shapes[0]:
            raise DslParseError(f"terms have different output shapes: {shapes[0]} vs {s}")
    return shapes[0]


# -- public API -----------------------------------------------------------------


def parse_expression(text: str, context: Context) -> ExprSum:
    p = _Parser(text, context)
    expr = p.parse_sum()
    tok = p.peek()
    if tok.kind != "EOF":
        p.error(f"unexpected trailing input {tok.text!r}", tok)
    _validate_sum(expr, context)
    return expr


def parse_equation(text: str, context: Context):
    p = _Parser(text, context)
    lhs = p.parse_sum()
    p.expect("EQ")
    rhs = p.parse_sum()
    tok = p.peek()
    if tok.kind != "EOF":
        p.error(f"unexpected trailing input {tok.text!r}", tok)
    ls = _validate_sum(lhs, context)
    rs = _validate_sum(rhs, context)
    if ls != rs:
        raise DslParseError(f"the two sides have different output shapes: {ls} vs {rs}")
    return lhs, rhs


def parse_context(lines) -> Context:
    variables = []
    coactions = []
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "var":
            # var h : algebra    |    var m : module M
            if len(parts) >= 4 and parts[2] == ":" and parts[3] == "algebra":
                variables.append(ContextVar(parts[1], "algebra"))
            elif len(parts) >= 5 and parts[2] == ":" and parts[3] == "module":
                variables.append(ContextVar(parts[1], "module", parts[4]))
            else:
                raise DslParseError(f"malformed declaration: {line!r}")
        elif parts[0] == "coaction":
            # coaction rho on M
            if len(parts) >= 4 and parts[2] == "on" and parts[1] in ("rho", "lam"):
                coactions.append(CoactionDecl(parts[1], parts[3]))
            else:
                raise DslParseError(f"malformed coaction declaration: {line!r}")
        else:
            raise DslParseError(f"unknown declaration: {line!r}")
    return Context(tuple(variables), tuple(coactions))


def load_swd(text: str) -> SwdDocument:
    decl_lines = []
    body_lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        head = line.split()[0]
        if head in ("var", "coaction") and not body_lines:
            decl_lines.append(line)
        else:
            body_lines.append(line)
    if not body_lines:
        raise DslParseError("no equation or expression found")
    context = parse_context(decl_lines)
    body = " ".join(body_lines)
    try:
        if "=" in body:
            lhs, rhs = parse_equation(body, context)
            return SwdDocument(context, lhs, rhs)
        return SwdDocument(context, parse_expression(body, context), None)
    except RecursionError as exc:
        raise DslParseError("expression is nested too deeply to parse") from exc
