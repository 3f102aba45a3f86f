"""Exact-arithmetic invariants of isolated hypersurface singularities.

Sparse rational polynomials, Milnor algebras by jet reduction, Newton
polyhedra, singularity spectra, reduced b-function certificate checkers,
Brieskorn-lattice rewrites, and the deformation-family certificate
pipeline, all over exact rationals.  The ``sing`` console script exposes
the same functionality with JSON output.
"""

from .brieskorn import (
    EulerRelation,
    ExclusionReport,
    component_exclusion,
    euler_relation,
    monoid_membership,
    taylor_term_value,
)
from .certificates import (
    AnnotatedSpectrum,
    BPoly,
    FilteredNilpotentModule,
    FNMReport,
    Question1Result,
    btilde_wh,
    delta_matching,
    fnm_from_json,
    fnm_report,
    fnm_to_json,
    jordan_types,
    question1_verdict,
    strictness_check,
)
from .errors import (
    ArityMismatchError,
    ConsistencyCheckError,
    ConstraintViolationError,
    InvalidFNMError,
    NotARootError,
    NotConvenientError,
    NotWeightedHomogeneousError,
    PolyParseError,
    PreconditionError,
    SingError,
    SpectrumCountMismatchError,
    UnsupportedDimensionError,
)
from .family import (
    FamilyParams,
    enumerate_family,
    family_violations,
    make_family,
    negative_answer_pipeline,
    sweep_families,
    verify_paper,
)
from .milnor import (
    JetBasisResult,
    is_monomial_basis,
    milnor_basis,
    normal_form,
)
from .newton import (
    Facet,
    NewtonFlags,
    NewtonPolyhedron,
    compact_faces,
    newton_flags,
    newton_number,
    newton_polyhedron,
    phi_value,
)
from .poly import (
    ExpVec,
    SparsePoly,
    Weights,
    parse_poly,
    partials,
    serialize,
    weighted_degree,
    weighted_homogeneity,
)
from .spectrum import (
    Spectrum,
    congruent_values,
    count_le,
    eigenspace_dim,
    kth,
    multiplicity,
    spectrum_newton_2d,
    spectrum_wh,
    thom_sebastiani,
)

__version__ = "0.1.0"
