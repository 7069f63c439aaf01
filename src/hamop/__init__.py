"""Exact tools for first-order Hamiltonian operators of hydrodynamic type.

A first-order operator in d independent variables is defined by a d-tuple of
contravariant metrics that are at most linear in the dependent variables (the
first one presented in constant, flat-coordinate form).  This package
verifies the Hamiltonian property through two independent exact criteria,
classifies the operator by the Jordan/Segre structure of its affinor,
reproduces the known canonical families (with their solution-space
dimensions), normalizes single-Jordan-block families by terminating Lie
flows, and exposes everything through a CLI with deterministic JSON reports.

All arithmetic is exact: rationals, Gaussian rationals, sparse multivariate
polynomials, and normalized rational functions; the point scans that
``verify`` runs in both modes work modulo the prime 2^61 - 1.  No floating
point enters any verification path.  The Hamiltonian verdict is exact in
every mode: the linearity / Nijenhuis / Killing triple of the paper's main
theorem is always proven.  The one step that is not exact is the Mokhov
cross-check (flatness of the second metric and T1..T5) in sampled mode,
the default above n = 8, where a pass means every value at the seeded
points is 0 mod p.
"""

from .errors import (
    DegenerateEverywhere,
    DisagreementBug,
    FirstMetricNotConstant,
    HamopError,
    IdenticallySingular,
    NonSquareGamma,
    ScalingNotNormalized,
    SpecFileError,
    UnsupportedEigenvalueField,
)
from .scalars import GaussianRational, Rational
from .poly import MultiPoly, RationalFunction, divide_exact, poly_gcd
from .matrices import PolyMatrix, determinant, matrix_inverse
from .roots import rational_roots
from .metrics import LinearMetric, OperatorSpec
from .geometry import (
    Connection,
    ObstructionTensor,
    killing_residual,
    levi_civita,
    lie_derivative_bivector,
    nijenhuis_torsion,
    obstruction_tensor,
)
from .verify import (
    VerificationReport,
    exactness_check,
    mokhov_conditions,
    theorem2_conditions,
    verify_operator,
)
from .spectral import SegreReport, affinor, segre_of_pair, segre_of_spec, segre_type
from .families import (
    JordanFamilyCoeffs,
    KillingBasis,
    SolutionFamily,
    killing_bivector_space,
    killing_vector_basis,
    lie_flow_normalize,
    lie_flow_normalize_constant_eig,
    mu_bivector,
    scaling_action,
    solve_jordan_family,
    solve_linear_conditions,
)
from .catalog import (
    CatalogEntry,
    catalog,
    direct_sum,
    example2_operator,
    exampleN_operator,
    get_entry,
    mokhov_operator,
    theorem3_operators,
    theorem4_metric,
    theorem5_3d_operators,
    theorem7_metric,
)
from .frobenius import (
    FrobeniusData,
    build_cp_frobenius,
    check_frobenius_axioms,
    cohomology_ring_correspondence,
    intersection_form,
)
from .specfile import dump_operator_spec, load_operator_spec

__version__ = "0.1.0"
