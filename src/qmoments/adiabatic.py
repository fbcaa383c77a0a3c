"""Adiabatic elimination of the fluctuation degree of freedom.

Freezing the fluctuation dynamics turns the stationarity condition
dH_eff/ds = 0 into the algebraic equilibrium s0(q) = (C/(m V''(q)))^(1/4),
valid where V''(q) > 0.  Substituting s0 (and p_s = m qdot ds0/dq) into the
effective Hamiltonian yields a position-dependent mass correction and the
adiabatic potential V(q) + sqrt(C V''(q)/m).

The first-order correction linearizes the p_s equation of motion about the
equilibrium:  m * d^2 s0(q(t))/dt^2 = -(d^2 H_eff/ds^2)|_{s0} * delta_s,
so delta_s = -m * s0_ddot / (V''(q) + 3 C /(m s0^4)).  The source text
describes this construction verbally; the linearization above is this
module's documented reading of it, labeled as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import IntegratorConfig, integrate_one
from .indices import state_layout


class NoEquilibriumError(ValueError):
    """V''(q) <= 0: the fluctuation potential has no local minimum."""


@dataclass
class AdiabaticModel:
    potential: object  # needs .value(q, derivative) and .mass
    casimir: float

    def __post_init__(self):
        if self.casimir <= 0:
            raise ValueError("the Casimir must be positive")

    @property
    def mass(self) -> float:
        return float(self.potential.mass)


def _vpp(model: AdiabaticModel, q: float) -> float:
    vpp = model.potential.value(q, 2)
    if vpp <= 0:
        raise NoEquilibriumError(
            f"V''({q:g}) = {vpp:g} <= 0: no fluctuation equilibrium"
        )
    return vpp


def s0_of_q(model: AdiabaticModel, q: float) -> float:
    """Equilibrium fluctuation (C/(m V''(q)))^(1/4)."""
    return (model.casimir / (model.mass * _vpp(model, q))) ** 0.25


def ds0_dq(model: AdiabaticModel, q: float) -> float:
    vpp = _vpp(model, q)
    vppp = model.potential.value(q, 3)
    return -0.25 * s0_of_q(model, q) * vppp / vpp


def d2s0_dq2(model: AdiabaticModel, q: float) -> float:
    vpp = _vpp(model, q)
    vppp = model.potential.value(q, 3)
    v4 = model.potential.value(q, 4)
    r = vppp / vpp
    return s0_of_q(model, q) * (0.3125 * r * r - 0.25 * v4 / vpp)


def adiabatic_potential(model: AdiabaticModel, q: float) -> float:
    """V(q) plus the fluctuation zero-point term sqrt(C V''(q)/m)."""
    return model.potential.value(q) + math.sqrt(
        model.casimir * _vpp(model, q) / model.mass
    )


def delta_s_correction(model: AdiabaticModel, q: float, qdot: float, qddot: float) -> float:
    """First-order deviation of s from s0 along a trajectory.

    Solves the linearized p_s equation about the equilibrium; the curvature
    of the fluctuation potential at s0 is V'' + 3C/(m s0^4).
    """
    vpp = _vpp(model, q)
    s0 = s0_of_q(model, q)
    s0_ddot = d2s0_dq2(model, q) * qdot**2 + ds0_dq(model, q) * qddot
    curvature = vpp + 3.0 * model.casimir / (model.mass * s0**4)
    return -model.mass * s0_ddot / curvature


def adiabatic_acceleration(model: AdiabaticModel, q: float, qdot: float) -> float:
    """qddot of the order-0 corrected-mass dynamics,
    m (1 + s0'^2) qddot = -dV_ad/dq - m s0' s0'' qdot^2."""
    m = model.mass
    slope = ds0_dq(model, q)
    curve = d2s0_dq2(model, q)
    dvad = model.potential.value(q, 1) + 0.5 * model.potential.value(q, 3) * math.sqrt(
        model.casimir / (m * _vpp(model, q))
    )
    # products, not **: far out a float product overflows to inf, where
    # float ** raises OverflowError
    return (-dvad - m * slope * curve * (qdot * qdot)) / (m * (1.0 + slope * slope))


def integrate_adiabatic(model: AdiabaticModel, q0, qdot0, t_span, t_eval, cfg: IntegratorConfig):
    """Order-0 trajectory q(t) at ``t_eval``; returns (t, q, qdot) arrays.

    It integrates ``(q, p = m qdot)`` on the moment runs' DOP853 driver,
    sampled on its 7th-order interpolant, so a failure names ``q`` or ``p``
    as theirs do, and the order 2 of the truncation whose fluctuation the
    model slaves.
    """
    m = model.mass

    def rhs(t, y):
        q, p = y
        return [p / m, m * adiabatic_acceleration(model, q, p / m)]

    times, ys, _ = integrate_one(
        rhs, np.array([q0, m * qdot0], dtype=float), t_span, cfg, t_eval, state_layout(2)[:2], 2
    )
    return times, ys[:, 0], ys[:, 1] / m
