"""Sweedler-notation parser, compiler, and exact evaluator."""

from .ast_nodes import Context, ContextVar, CoactionDecl, ExprSum, SwdDocument
from .compiler import ContractionPlan, compile_expression
from .evaluator import Bindings, Counterexample, eval_equation, eval_expression
from .parser import load_swd, parse_context, parse_equation, parse_expression

__all__ = [
    "Context",
    "ContextVar",
    "CoactionDecl",
    "ExprSum",
    "SwdDocument",
    "ContractionPlan",
    "compile_expression",
    "Bindings",
    "Counterexample",
    "eval_equation",
    "eval_expression",
    "load_swd",
    "parse_context",
    "parse_equation",
    "parse_expression",
]
