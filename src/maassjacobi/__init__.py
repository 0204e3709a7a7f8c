"""Exact and arbitrary-precision toolkit for the centrally extended Jacobi
group of arbitrary rank: its enveloping algebra and Casimir element, the
covariant differential-operator calculus on H x C^N, the special functions
behind Fourier-coefficient profiles, and the arithmetic series (theta,
Kloosterman, Poincare) with their weight duality."""

from .precision import PrecisionContext
from .gaussian import GaussianRational
from .errors import (
    MaassJacobiError,
    MalformedElementError,
    DomainError,
    PoleError,
    PrecisionError,
    NotSemiHolomorphicError,
    DegreeError,
    UsageError,
)
from .group import (
    GroupElement,
    AlgebraElement,
    Point,
    jacobi_mul,
    jacobi_inv,
    jacobi_exp,
    jacobi_identity_element,
    embed_group,
    embed_algebra,
    act,
    cocycle_beta,
    cocycle_a,
    cocycle_alpha,
    slash,
)
from .enveloping import (
    JacobiLieAlgebra,
    PBWElement,
    LocalizedPBW,
    pbw_normal_order,
    build_casimir,
    check_centrality,
    eta,
    nu,
    nu_casimir_identity,
    build_classical_invariants,
    symmetrize,
    tilde_basis,
    tau_automorphism,
    pbw_to_json,
    pbw_from_json,
)
from .lattice import GramLattice, discriminant, h_of_r
from .jets import Jet, JetSpace
from .opcalc import (
    DiffOp,
    OpRing,
    build_raising_lowering,
    build_casimir_op,
    build_casimir_RL,
    semiholomorphic_casimir,
    build_laplace,
    build_heat,
    build_D_minus,
    xi_apply,
    build_lie_slash,
    bridge_check,
    covariance_check,
    kernel_seed,
)
from .specfun import (
    whittaker_M_renorm,
    whittaker_W_renorm,
    whittaker_M_jet,
    whittaker_W_jet,
    bessel_J,
    bessel_I,
    bessel_J_jet,
    bessel_I_jet,
    upper_incomplete_gamma,
    upper_incomplete_gamma_jet,
    h_profile,
    h_profile_jet,
    e_profile,
    e_profile_jet,
)
from .series import (
    kloosterman,
    casimir_eigenvalue,
    poincare_coeff_b,
    full_coeff_c,
    skew_poincare_coeff,
    duality_report,
)
from .fourier import (
    FourierIndex,
    FourierExpansion,
    theta_lmu,
    theta_klr,
    theta_decompose_semi,
    theta_reassemble,
    residue_classes,
    maass_fourier_term,
    skew_fourier_term,
    mixed_mock_term,
    phi_seed,
    casimir_residual,
    heat_residual,
    specialize_torsion,
)

__version__ = "0.1.0"
