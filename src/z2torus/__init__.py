"""Mod-2 torus manifolds from combinatorial data.

Face posets with characteristic labelings, their canonical quotient
models, formality verdicts, equivariant cohomology dimensions,
corner-cut surgery, and the binary codes carried by fixed points.
"""

from .blowup import CutResult, cut_face
from .charfunc import (
    CharFunction,
    GkmGraph,
    axial_function,
    m_involution_check,
    validate_lambda,
)
from .codes import BinaryCode, facet_code, is_self_dual, min_distance
from .complexes import (
    AcyclicityReport,
    CarrierComplex,
    QuotientComplex,
    betti_mod2,
    face_acyclicity,
    is_face_acyclic,
    validate_carriers,
)
from .errors import InputError, PreconditionError
from .gf2 import Matrix, Vec
from .gkm import equivariant_hilbert, face_ring_hilbert
from .instance import Instance, load_instance, parse_instance, save_instance, serialize_instance
from .model import (
    FormalityVerdict,
    build_quotient,
    fixed_locus,
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
    "CutResult",
    "FHVector",
    "FacePoset",
    "FormalityVerdict",
    "GkmGraph",
    "InputError",
    "Instance",
    "Matrix",
    "PreconditionError",
    "QuotientComplex",
    "Vec",
    "axial_function",
    "betti_mod2",
    "build_quotient",
    "cut_face",
    "equivariant_hilbert",
    "face_acyclicity",
    "face_ring_hilbert",
    "facet_code",
    "fh_vectors",
    "fixed_locus",
    "formality_verdict",
    "gorenstein_quick_checks",
    "is_face_acyclic",
    "is_self_dual",
    "load_instance",
    "m_involution_check",
    "min_distance",
    "one_skeleton",
    "order_complex",
    "parse_instance",
    "save_instance",
    "serialize_instance",
    "validate",
    "validate_carriers",
    "validate_lambda",
]
