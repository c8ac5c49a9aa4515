"""Conformal moduli of rings and semirings in R^n, directional dilatations,
and the explicit modulus/boundary-regularity bounds, with a verification
harness driving everything against analytically known test mappings."""

__version__ = "0.1.0"

from .constants import ball_volume, sphere_area
from .geometry import (
    Annulus,
    ApollonianSemiring,
    HalfSemiring,
    Shape,
    exact_modulus,
    gamma_family_modulus,
    parse_shape,
)
from .maps import (
    Composition,
    Identity,
    Linear,
    MapDomainError,
    Mapping,
    RadialStretch,
    RotationTwist,
    parse_map,
    parse_vector,
)
from .special import (
    A2Result,
    SpecialConstants,
    compute_A2,
    constants_for,
    elliptic_K,
    grotzsch_mu,
    mo_grotzsch2,
    mo_teichmuller2,
    phi2,
    psi2,
)
from .dilatation import (
    DilatationSample,
    IrregularPointError,
    MatrixDilatations,
    directional_sample,
    matrix_dilatations,
    max_directional_stretch,
    min_directional_stretch,
)
from .discrete import (
    ConvergenceError,
    GridGraph,
    ModulusEstimate,
    build_grid,
    build_image_grid,
    image_modulus,
    mo_from_gamma,
    modulus_connect,
)
from .bounds import (
    BoundReport,
    DominatingFactor,
    LipschitzConstants,
    QuadratureSpec,
    boundary_estimate,
    continuity_bounds,
    dominated_modulus_bound,
    eq1est_bounds,
    eq2est_bounds,
    holder_identity_check,
    infinity_check,
    is_divergence_type,
    lipschitz_constants,
    modintbound,
    nu_measure,
    psi_D,
    quad_weighted,
    separation_bound,
)
