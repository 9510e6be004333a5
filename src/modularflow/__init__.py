"""Thermal modular flows on light rays, cones and wedges.

Numerical machinery for the one-parameter groups generated by time
translations and half-line modular actions in a thermal state: the affine
group algebra, the geometric flow maps, the 2D cone/wedge patterns, and the
explicit actions on the Weyl algebra of a generalized free field in a
quasi-free thermal state, with verification suites for the nontrivial
operator statements.
"""

from .axb_group import (
    DILATION_PARAMS,
    SHIFTED_DILATION_PARAMS,
    TRANSLATION_PARAMS,
    GroupElement,
    SubgroupParams,
    compose,
    compose_decomposition,
    conjugate_translation,
    decompose_translation,
    exchange_exponent,
    inverse,
    subgroup_element,
)
from .cone_wedge import (
    FigureSpec,
    FlowLine,
    Region,
    SpacetimePoint,
    emit_flow_figure,
    figure_lines,
    flow_line,
    gamma_flow_2d,
    gamma_line_constant,
    modular_flow_2d,
    remainder_terms,
    velocity_field,
)
from .errors import DomainViolation, QuadratureError, ResolutionError
from .flow_maps import (
    RayDirection,
    ThermalContext,
    check_translation_commutation,
    gamma_flow_ray,
    modular_flow_ray,
    xi_chart,
    xi_inverse,
)
from .verify import (
    BoundReport,
    CaseResult,
    RateReport,
    convergence_rate,
    gamma_conjugation_deviation,
    kms_boundary_check,
    translation_conjugation_deviation,
    run_suite,
    matrix_element_bound,
    vector_deviation,
)
from .weyl_field import (
    FieldSpec,
    FourierPairCalibration,
    StateNormalization,
    TestFunction,
    calibrate_fourier_pair,
    gamma_transform,
    higher_transform,
    localization_defect,
    modular_transform,
    momentum_grid,
    nth_derivative,
    omega2,
    omega2_position,
    symplectic_K,
    two_point_momentum,
    two_point_position,
    weyl_inner,
)

__version__ = "0.1.0"
