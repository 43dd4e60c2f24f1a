"""Numerical toolkit for the lattice Fermi ball, Fermi-surface patch
decompositions, Bogoliubov-kernel diagonalization, and RPA correlation
energies."""

from .bogokernel import (
    BogoliubovSolution,
    DiagonalizationError,
    EmptyModeSystemError,
    ModeSystem,
    build_mode_system,
    check_frakK_minus_D_bound,
    check_kernel_bound,
    check_L_blocks,
    diagonalize,
    sample_mode_system,
)
from .lattice import (
    KAPPA_IDEAL,
    FermiBall,
    InteractionPotential,
    Momentum,
    annulus_count_vs_area,
    build_fermi_ball,
    equator_reciprocal_sum,
    excitation_energy,
    hartree_fock_energy,
    kinetic_reciprocal_sum,
    pair_gap_histogram,
)
from .patches import (
    ModeIndexSet,
    PatchConstructionError,
    PatchDecomposition,
    build_patches,
    index_sets,
)
from .rpa import (
    RpaReport,
    ground_state_shift,
    rpa_energy_analytic,
    rpa_energy_trace,
    rpa_mode_integral,
    small_v_quadratic_coefficient,
)

__version__ = "0.1.0"

__all__ = [
    "KAPPA_IDEAL",
    "Momentum",
    "FermiBall",
    "InteractionPotential",
    "build_fermi_ball",
    "pair_gap_histogram",
    "kinetic_reciprocal_sum",
    "equator_reciprocal_sum",
    "annulus_count_vs_area",
    "hartree_fock_energy",
    "excitation_energy",
    "PatchDecomposition",
    "PatchConstructionError",
    "ModeIndexSet",
    "build_patches",
    "index_sets",
    "ModeSystem",
    "BogoliubovSolution",
    "DiagonalizationError",
    "EmptyModeSystemError",
    "build_mode_system",
    "sample_mode_system",
    "diagonalize",
    "ground_state_shift",
    "check_kernel_bound",
    "check_L_blocks",
    "check_frakK_minus_D_bound",
    "RpaReport",
    "rpa_mode_integral",
    "rpa_energy_analytic",
    "rpa_energy_trace",
    "small_v_quadratic_coefficient",
    "__version__",
]
