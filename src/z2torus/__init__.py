"""Mod-2 torus manifolds from combinatorial data.

Face posets with characteristic labelings, their canonical quotient
models, formality verdicts, equivariant cohomology dimensions,
corner-cut surgery, and the binary codes carried by fixed points.
"""

from .blowup import CountsCheck, CutResult, acyclicity_preservation, blowup_counts_check, cut_face
from .charfunc import (
    CharFunction,
    GkmGraph,
    LambdaReport,
    Subgroup,
    axial_function,
    coloring_classes,
    face_restriction,
    isotropy,
    m_involution_check,
    validate_lambda,
)
from .codes import BinaryCode, facet_code, is_self_dual, min_distance
from .complexes import (
    AcyclicityReport,
    CarrierComplex,
    FaceComplex,
    Gf2ChainComplex,
    QuotientComplex,
    betti_mod2,
    chain_complex,
    face_acyclicity,
    is_face_acyclic,
    reduced_betti,
    validate_carriers,
)
from .errors import InputError, PreconditionError
from .gf2 import Matrix, Vec, dual_code
from .gkm import (
    check_face_ring_relations,
    equivariant_hilbert,
    face_ring_hilbert,
    satisfies_gkm,
    thom_restriction,
)
from .instance import Instance, load_instance, parse_instance, save_instance, serialize_instance
from .model import (
    FormalityVerdict,
    build_quotient,
    facial_components,
    fixed_locus,
    fixed_points,
    formality_verdict,
)
from .poset import (
    FacePoset,
    FHVector,
    fh_vectors,
    gorenstein_quick_checks,
    one_skeleton,
    order_complex,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AcyclicityReport",
    "BinaryCode",
    "CarrierComplex",
    "CharFunction",
    "CountsCheck",
    "CutResult",
    "FHVector",
    "FaceComplex",
    "FacePoset",
    "FormalityVerdict",
    "Gf2ChainComplex",
    "GkmGraph",
    "InputError",
    "Instance",
    "LambdaReport",
    "Matrix",
    "PreconditionError",
    "QuotientComplex",
    "Subgroup",
    "Vec",
    "acyclicity_preservation",
    "axial_function",
    "betti_mod2",
    "blowup_counts_check",
    "build_quotient",
    "chain_complex",
    "check_face_ring_relations",
    "coloring_classes",
    "cut_face",
    "dual_code",
    "equivariant_hilbert",
    "face_acyclicity",
    "face_restriction",
    "face_ring_hilbert",
    "facet_code",
    "facial_components",
    "fh_vectors",
    "fixed_locus",
    "fixed_points",
    "formality_verdict",
    "gorenstein_quick_checks",
    "is_face_acyclic",
    "is_self_dual",
    "isotropy",
    "load_instance",
    "m_involution_check",
    "min_distance",
    "one_skeleton",
    "order_complex",
    "parse_instance",
    "reduced_betti",
    "satisfies_gkm",
    "save_instance",
    "serialize_instance",
    "thom_restriction",
    "validate",
    "validate_carriers",
    "validate_lambda",
]
