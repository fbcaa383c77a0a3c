"""Quasiclassical quantum dynamics on a truncated Poisson manifold.

Expectation values and Weyl-ordered central moments evolve under an
effective Hamiltonian <H>; an exact symbolic operator algebra and a
wavefunction solver serve as independent oracles for every closed form.

Each export is imported from its module at its first use (PEP 562), so
``import qmoments`` loads no submodule, and the exact algebra's exports load
no numpy.
"""

import importlib

__version__ = "0.1.0"

# Every export and the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "adiabatic": "AdiabaticModel delta_s_correction s0_of_q",
        "casimir_darboux": "DarbouxState1D PlaneState free_particle_s from_darboux lift_to_plane to_darboux u1",
        "dynamics": "IntegratorConfig MomentState Trajectory init_gaussian integrate",
        "effective_hamiltonian": "PolynomialPotential equations_of_motion",
        "exact": "MomentPolynomial",
        "moment_algebra": "BracketTable build_bracket_table closed_form_bracket kcoeff",
        "schrodinger": "Grid WaveFunction evolve gaussian_wavepacket moments_from_wavefunction",
        "weyl_algebra": "OperatorPoly bracket_oracle expectation weyl_symmetrize",
    }.items()
    for name in names.split()
}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
