"""Exact-arithmetic Hochschild (co)homology of Hopf crossed products.

The package builds crossed products E = A #_f H from structure-constant data,
computes Hochschild homology and cohomology of E through small normalized
complexes, certifies the underlying resolution and comparison maps, and checks
every computation against a brute-force bar-complex oracle.

The package root exports the input layer (fields, algebras, Hopf algebras,
crossed products and problem files) and two general data types,
ExactMatrix and TensorSpace.  Reports and complexes are imported from
hopfcross.homology and hopfcross.complexes.
"""

from .fields import FieldSpec
from .linalg import ExactMatrix
from .tensors import TensorSpace
from .algebras import (
    AlgebraData,
    Report,
    group_algebra,
    truncated_polynomial_algebra,
    verify_algebra,
)
from .hopf import HopfData, group_hopf, sweedler_expand, sweedler_hopf, trivial_hopf, verify_hopf
from .crossed import (
    AxiomViolation,
    BimoduleData,
    CocycleData,
    CrossedProductData,
    NotInvertibleError,
    WeakActionData,
    build_crossed_product,
    convolution_inverse,
    regular_bimodule,
    tensor_bimodule,
    trivial_action,
    trivial_cocycle,
    verify_crossed_axioms,
)
from .problems import ProblemFile, builtin, emit_problem, parse_problem

__all__ = [
    "FieldSpec",
    "ExactMatrix",
    "TensorSpace",
    "AlgebraData",
    "Report",
    "group_algebra",
    "truncated_polynomial_algebra",
    "verify_algebra",
    "HopfData",
    "group_hopf",
    "sweedler_expand",
    "sweedler_hopf",
    "trivial_hopf",
    "verify_hopf",
    "AxiomViolation",
    "BimoduleData",
    "CocycleData",
    "CrossedProductData",
    "NotInvertibleError",
    "WeakActionData",
    "build_crossed_product",
    "convolution_inverse",
    "regular_bimodule",
    "tensor_bimodule",
    "trivial_action",
    "trivial_cocycle",
    "verify_crossed_axioms",
    "ProblemFile",
    "builtin",
    "emit_problem",
    "parse_problem",
]
