"""Pointwise curvature algebra for almost Hermitian inner-product spaces.

The package models a single tangent space with an indefinite or definite
inner product and a compatible almost complex structure, stores algebraic
curvature tensors over it, and provides: every sectional-curvature variant
(real, complexified, holomorphic, antiholomorphic, totally real
biholomorphic), polarization of curvature expressions along affine vector
families, pointwise-constancy classifiers, exact linear imposition of
quantified curvature hypotheses, and unboundedness probes along pinching
families, all generic over exact-rational and float backends.
"""

from .constancy import (ConstancyVerdict, EquivalenceReport, Witness,
                        constant_antiholomorphic, constant_biholomorphic,
                        constant_holomorphic, lemma3_check,
                        normalized_biholomorphic)
from .harness import (BoundWitness, ConstraintSystem, HypothesisError,
                      ProbeReport, THEOREM_IDS, TheoremReport, impose,
                      model_complex_space_form, model_constant_sectional,
                      probe_unboundedness, random_tensor, verify)
from .io_format import (ParseError, TensorDocument, build_tensor,
                        document_from_tensor, parse_document,
                        read_document, serialize_document)
from .polarization import (TPolynomial, VectorFamily, bound_forced_identities,
                           complexified_family_expansion, expand,
                           holomorphic_family_expansion)
from .scalars import ExactComplex
from .spaces import (ComplexVector, DegeneratePlaneError,
                     DependentVectorsError, DimensionMismatch, GeometryError,
                     InvariantViolation, PlaneClass, PseudoHermitianSpace,
                     UnrealizablePatternError, classify_plane,
                     gram_schmidt_tuple, make_space, random_isometry)
from .tensors import (CurvatureTensor, CurvatureValue, biholomorphic,
                      curvature_of_plane, from_components, from_dense,
                      holomorphic_sectional, pi1, pi1_c, pi1_components,
                      sectional, sectional_c)

__version__ = "0.1.0"

__all__ = [
    "ComplexVector", "ConstancyVerdict", "ConstraintSystem", "CurvatureTensor",
    "CurvatureValue", "BoundWitness", "DegeneratePlaneError",
    "DependentVectorsError", "DimensionMismatch", "EquivalenceReport",
    "ExactComplex", "GeometryError", "HypothesisError", "InvariantViolation",
    "ParseError", "PlaneClass", "ProbeReport", "PseudoHermitianSpace",
    "THEOREM_IDS", "TheoremReport", "TensorDocument", "TPolynomial",
    "UnrealizablePatternError", "VectorFamily", "Witness", "biholomorphic",
    "bound_forced_identities", "build_tensor", "classify_plane",
    "complexified_family_expansion", "constant_antiholomorphic",
    "curvature_of_plane",
    "constant_biholomorphic", "constant_holomorphic", "document_from_tensor",
    "expand", "from_components", "from_dense", "gram_schmidt_tuple",
    "holomorphic_family_expansion", "holomorphic_sectional", "impose",
    "lemma3_check", "make_space", "model_complex_space_form",
    "model_constant_sectional", "normalized_biholomorphic",
    "parse_document", "pi1", "pi1_c", "pi1_components", "probe_unboundedness",
    "random_isometry", "random_tensor", "read_document", "sectional", "sectional_c",
    "serialize_document", "verify",
]
