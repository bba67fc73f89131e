"""Exact computer algebra for supercommutative Koszul-type complexes.

Subpackages:

* :mod:`skos.super_poly` -- the bigraded supercommutative algebra kernel
* :mod:`skos.multilinear` -- bases and super-rank formulas of graded pieces
* :mod:`skos.complexes` -- Koszul / De Rham / Berezinian complex assembly
* :mod:`skos.exact_linalg` -- Smith normal form, exact ranks, homology
* :mod:`skos.berezinian` -- supermatrices over Grassmann rings, Berezin determinant
* :mod:`skos.bott` -- cohomology tables for twisted forms on projective superspace
* :mod:`skos.cli` -- the ``skos`` command line tool
"""

from skos.super_poly import (
    GeneratorSet,
    SuperMonomial,
    SuperPolynomial,
    contract_euler,
    exterior_d,
    mul,
    normalize,
    parse_poly,
    weight_component,
)
from skos.multilinear import FreeBasis, SuperDim, basis_wedge_sym, sym_rank, wedge_rank
from skos.exact_linalg import ExactMatrix, HomologySummary, homology, kernel_rank, smith_normal_form
from skos.complexes import (
    GradedComplex,
    WindowError,
    build_berezinian,
    build_derham,
    build_koszul,
    specialize_koszul,
)
from skos.berezinian import (
    GrassmannElement,
    SuperMatrix,
    ber,
    det_even,
    invert_unit,
    is_invertible,
)
from skos.bott import (
    CohomologyTable,
    MethodDisagreementError,
    bott_table,
    forms_cohomology_direct,
    forms_cohomology_formula,
    line_bundle_cohomology,
    line_bundle_rank,
    twisted_form_rank,
)

__all__ = [
    "GeneratorSet",
    "SuperMonomial",
    "SuperPolynomial",
    "normalize",
    "mul",
    "contract_euler",
    "exterior_d",
    "weight_component",
    "parse_poly",
    "SuperDim",
    "FreeBasis",
    "basis_wedge_sym",
    "wedge_rank",
    "sym_rank",
    "ExactMatrix",
    "HomologySummary",
    "smith_normal_form",
    "kernel_rank",
    "homology",
    "GradedComplex",
    "WindowError",
    "build_koszul",
    "build_derham",
    "build_berezinian",
    "specialize_koszul",
    "GrassmannElement",
    "SuperMatrix",
    "is_invertible",
    "invert_unit",
    "det_even",
    "ber",
    "CohomologyTable",
    "MethodDisagreementError",
    "line_bundle_rank",
    "twisted_form_rank",
    "line_bundle_cohomology",
    "forms_cohomology_formula",
    "forms_cohomology_direct",
    "bott_table",
]
