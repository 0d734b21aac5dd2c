"""Exact symbolic toolkit: q-Weyl algebras, their Satake-diagram deformations,
coideal-subalgebra relation verification, oscillator actions and crystal
graphs, all over Q(q) with exact rational arithmetic."""

from .qscalar import (InexactDivisionError, LaurentPoly, QDivisionByZero,
                      ScalarQ, q_binomial, q_factorial, q_integer)
from .opcalc import (ActionTable, GeneratorSymbol, OperatorExpr, QPolynomial,
                     apply, apply_word, monomials_of_degree, monomials_up_to,
                     operator_equal_on_degrees, poly_from_text, poly_to_text,
                     verify_relations)
from .satake import SatakeDiagram, build_diagram, parse_spec
from . import crystal, iqg, modweyl, weyl

__version__ = "0.1.0"

__all__ = [
    "ActionTable", "GeneratorSymbol", "InexactDivisionError", "LaurentPoly",
    "OperatorExpr", "QDivisionByZero", "QPolynomial", "SatakeDiagram",
    "ScalarQ", "apply", "apply_word", "build_diagram", "crystal", "iqg",
    "modweyl", "monomials_of_degree", "monomials_up_to",
    "operator_equal_on_degrees",
    "parse_spec", "poly_from_text", "poly_to_text", "q_binomial",
    "q_factorial", "q_integer", "verify_relations", "weyl",
]
