"""Quasiclassical quantum dynamics on a truncated Poisson manifold.

Expectation values and Weyl-ordered central moments evolve under an
effective Hamiltonian <H>; an exact symbolic operator algebra and a
wavefunction solver serve as independent oracles for every closed form.
"""

from .adiabatic import AdiabaticModel, adiabatic_energy, delta_s_correction, s0_of_q
from .casimir_darboux import (
    DarbouxState1D,
    PlaneState,
    TwoDofCanonical,
    free_particle_s,
    from_darboux,
    lift_to_plane,
    to_darboux,
    two_dof_position_moments,
    u1,
)
from .dynamics import (
    IntegratorConfig,
    MomentState,
    Trajectory,
    init_gaussian,
    integrate,
)
from .effective_hamiltonian import PolynomialPotential, equations_of_motion
from .exact import MomentPolynomial
from .moment_algebra import (
    BracketTable,
    build_bracket_table,
    closed_form_bracket,
    kcoeff,
)
from .schrodinger import Grid, WaveFunction, evolve, gaussian_wavepacket, moments_from_wavefunction
from .weyl_algebra import OperatorPoly, bracket_oracle, expectation, weyl_symmetrize

__version__ = "0.1.0"

__all__ = [
    "AdiabaticModel",
    "BracketTable",
    "DarbouxState1D",
    "Grid",
    "IntegratorConfig",
    "MomentPolynomial",
    "MomentState",
    "OperatorPoly",
    "PlaneState",
    "PolynomialPotential",
    "Trajectory",
    "TwoDofCanonical",
    "WaveFunction",
    "adiabatic_energy",
    "bracket_oracle",
    "build_bracket_table",
    "closed_form_bracket",
    "delta_s_correction",
    "equations_of_motion",
    "evolve",
    "expectation",
    "free_particle_s",
    "from_darboux",
    "gaussian_wavepacket",
    "init_gaussian",
    "integrate",
    "kcoeff",
    "lift_to_plane",
    "moments_from_wavefunction",
    "s0_of_q",
    "to_darboux",
    "two_dof_position_moments",
    "u1",
    "weyl_symmetrize",
]
