"""Exact Jones polynomials of the W(n,k) knot family.

Closed-form and skein-recursion computation of V_{W(n,k)}, cyclotomic
polynomial machinery, symmetry classification, and root-of-unity
obstructions, all over exact integer Laurent polynomials.
"""

from .laurent import LaurentPoly, parse_poly, print_poly
from .cyclotomic import (
    CyclotomicFactorization,
    euler_totient,
    is_cyclotomic_product,
    mahler_measure,
    phi,
    phi_sym,
    phi_tilde,
    phitilde_root_exponents,
    residue,
)
from .wnk import (
    Family,
    FamilyParams,
    SymmetryClass,
    classify_symmetry,
    crossing_bound,
    d_polynomial,
    f,
    g,
    generate_table,
    is_trivial_unknot,
    jones_wnk,
    mersenne_knot,
    writhe_wnk,
)
from .bracket import (
    bracket_to_jones,
    bracket_wnk,
    jones_to_bracket,
    torus_jones,
    verify_range,
)
from .diagram import ArrowDiagramSummary, ArrowRecord, wnk_summary, writhe_from_summary
from .obstructions import (
    SpecialValueReport,
    excluded_phi_index,
    open_question_candidates,
    phitilde_admissible,
    realized_orders,
    special_value_check,
)

__all__ = [
    "ArrowDiagramSummary",
    "ArrowRecord",
    "CyclotomicFactorization",
    "Family",
    "FamilyParams",
    "LaurentPoly",
    "SpecialValueReport",
    "SymmetryClass",
    "bracket_to_jones",
    "bracket_wnk",
    "classify_symmetry",
    "crossing_bound",
    "d_polynomial",
    "euler_totient",
    "excluded_phi_index",
    "f",
    "g",
    "generate_table",
    "is_cyclotomic_product",
    "is_trivial_unknot",
    "jones_to_bracket",
    "jones_wnk",
    "mahler_measure",
    "mersenne_knot",
    "open_question_candidates",
    "parse_poly",
    "phi",
    "phi_sym",
    "phi_tilde",
    "phitilde_admissible",
    "phitilde_root_exponents",
    "print_poly",
    "realized_orders",
    "residue",
    "special_value_check",
    "torus_jones",
    "verify_range",
    "wnk_summary",
    "writhe_from_summary",
    "writhe_wnk",
]

__version__ = "0.1.0"
