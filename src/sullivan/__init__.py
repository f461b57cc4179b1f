"""Exact rational-homotopy computations for pure Sullivan minimal models.

The package computes, over the rationals and without floating point:

- validation of minimal Sullivan models with purely even-generated
  differential images (pure models),
- ellipticity tests through Groebner bases of the differential ideal,
- nilpotency exponents with explicit exactness certificates,
- F0-basis extensions (odd sub-bases whose differentials form a regular
  sequence), both staged construction and exhaustive search,
- upper bounds for rational Lusternik-Schnirelmann category and rational
  topological complexity.
"""

from .algebra import Element, Generator, Monomial, make_generators
from .bounds import BoundReport, cat_estimate, tc_upper_bound, tc_upper_bound_nonpure
from .ellipticity import (
    ExactnessCertificate,
    all_nilpotency_exponents,
    cohomology_dims,
    exactness_certificate,
    is_elliptic,
    is_elliptic_pure,
    nilpotency_exponent,
)
from .extension import (
    ExtensionResult,
    SearchOutcome,
    VerificationReport,
    exhaustive_homogeneous_search,
    f0_extend,
    find_homogeneous_regular_subset,
    first_stage,
    verify_f0_extension,
)
from .groebner import (
    GroebnerBasis,
    buchberger,
    is_regular_sequence,
    member,
    normal_form,
    quotient_dimension,
)
from .model import (
    DifferentialLength,
    ModelReport,
    SullivanModel,
    build_model,
)
from .parsing import load_model, parse_model, render_model

__all__ = [
    "BoundReport",
    "DifferentialLength",
    "Element",
    "ExactnessCertificate",
    "ExtensionResult",
    "Generator",
    "GroebnerBasis",
    "ModelReport",
    "Monomial",
    "SearchOutcome",
    "SullivanModel",
    "VerificationReport",
    "all_nilpotency_exponents",
    "buchberger",
    "build_model",
    "cat_estimate",
    "cohomology_dims",
    "exactness_certificate",
    "exhaustive_homogeneous_search",
    "f0_extend",
    "find_homogeneous_regular_subset",
    "first_stage",
    "is_elliptic",
    "is_elliptic_pure",
    "is_regular_sequence",
    "load_model",
    "make_generators",
    "member",
    "nilpotency_exponent",
    "normal_form",
    "parse_model",
    "quotient_dimension",
    "render_model",
    "tc_upper_bound",
    "tc_upper_bound_nonpure",
    "verify_f0_extension",
]

__version__ = "1.0.0"
