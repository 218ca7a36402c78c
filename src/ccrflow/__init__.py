"""Numerical laboratory for the heat flow on truncated oscillator space.

The package models a quantum dynamical semigroup whose action damps
displacement operators pointwise, through two independent numerical
paths: measure-weighted conjugation averages (quadrature) and
transform-side multiplication (spectral).  A third engine is exact: the
flow as pure loss followed by a quantum-limited amplifier, summed offset
by offset on any leading window; it evolves the purity instruments (decay
curves, the certificate's measured distance, the absorbing-state probe)
and is the reference both paths are measured against.  Experiments cover
the algebra of displacements, channel positivity and composition laws,
band-limited measure surgery, and the decay of state distinguishability,
each with a pass/fail report.
"""

from .phase_space import (
    GridSpec,
    GridMeasure,
    band_limited_approximant,
    cauchy_measure,
    conjugate_lattice,
    convolve,
    default_gaussian_grid,
    default_lemma_grid,
    gaussian_measure,
    omega,
    symplectic_ft_at,
)
from .fock import (
    DensityOperator,
    FockOperator,
    coherent_state,
    displacement_batch,
    number_state,
    trace_norm,
    weyl_operator,
)
from .weyl_transform import (
    CharFunction,
    char_function,
    char_values,
    inverse_transform,
    reliable_levels,
    riemann_lebesgue_profile,
    trust_radius,
)
from .channels import (
    HeatFlowParams,
    MeasureChannel,
    apply_quadrature,
    apply_spectral,
    cb_distance_bound,
    choi_matrix,
    evolve_state,
    exact_heat,
    generator_check,
    heat_channel,
    max_single_step,
    point_mass_channel,
    spectral_levels,
)
from .purity import (
    absorbing_state_probe,
    band_annihilated_distance,
    certified_bound,
    decay_curve,
)
from .reports import Condition, ExperimentReport, load_report

__version__ = "0.1.0"

__all__ = [
    "GridSpec", "GridMeasure",
    "band_limited_approximant", "cauchy_measure", "conjugate_lattice",
    "convolve", "default_gaussian_grid", "default_lemma_grid",
    "gaussian_measure", "omega", "symplectic_ft_at",
    "DensityOperator", "FockOperator", "coherent_state",
    "displacement_batch", "number_state", "trace_norm", "weyl_operator",
    "CharFunction", "char_function", "char_values", "inverse_transform",
    "reliable_levels", "riemann_lebesgue_profile", "trust_radius",
    "HeatFlowParams", "MeasureChannel", "apply_quadrature",
    "apply_spectral", "cb_distance_bound", "choi_matrix", "evolve_state",
    "exact_heat", "generator_check", "heat_channel", "max_single_step",
    "point_mass_channel", "spectral_levels",
    "absorbing_state_probe",
    "band_annihilated_distance", "certified_bound", "decay_curve",
    "Condition", "ExperimentReport", "load_report",
    "__version__",
]
