"""Canonical (Casimir-Darboux) coordinates for second-order moments, and
the one definition of the Casimir and of the chart on every run path.

One canonical pair: Delta(q^2) = s^2, Delta(qp) = s*p_s and
Delta(p^2) = p_s^2 + C/s^2 with the Casimir C = Delta(q^2)*Delta(p^2)
- Delta(qp)^2, conserved by any Hamiltonian of basic variables and second
moments.  The C/(2 m s^2) energy is a centrifugal barrier: lifting to an
auxiliary plane (X, Y) with angular momentum p_phi = sqrt(C) turns the
free-particle fluctuation dynamics into straight-line motion.

Two degrees of freedom: the printed canonical expression for Delta(p1^2)
through U1, including the limit in which the kinetic form in spherical
coordinates emerges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class CoordinateSingularityError(ValueError):
    pass


class DomainError(ValueError):
    pass


@dataclass(frozen=True)
class DarbouxState1D:
    s: float
    p_s: float
    casimir: float

    def __post_init__(self):
        if self.s <= 0:
            raise CoordinateSingularityError("s must be positive")
        if self.casimir < 0:
            raise DomainError("Casimir must be non-negative")


@dataclass
class PlaneState:
    x: float
    y: float
    p_x: float
    p_y: float

    @property
    def radius(self) -> float:
        return math.hypot(self.x, self.y)

    @property
    def p_phi(self) -> float:
        return self.x * self.p_y - self.y * self.p_x

    @property
    def p_s(self) -> float:
        return (self.x * self.p_x + self.y * self.p_y) / self.radius


def casimir_of(delta_q2, delta_qp, delta_p2):
    """The Casimir C = Delta(q^2)*Delta(p^2) - Delta(qp)^2 of the three
    second-order moments, on floats or elementwise on sample arrays."""
    return delta_q2 * delta_p2 - delta_qp**2


def to_darboux(delta_q2: float, delta_qp: float, delta_p2: float) -> DarbouxState1D:
    """(s, p_s, C) from the three second-order moments."""
    if delta_q2 <= 0:
        raise CoordinateSingularityError(
            "Delta(q^2) must be positive to invert the chart"
        )
    s = math.sqrt(delta_q2)
    p_s = delta_qp / s
    return DarbouxState1D(s, p_s, casimir_of(delta_q2, delta_qp, delta_p2))


def from_darboux(d: DarbouxState1D) -> tuple:
    """The inverse chart: (Delta(q^2), Delta(qp), Delta(p^2))."""
    return (d.s**2, d.s * d.p_s, d.p_s**2 + d.casimir / d.s**2)


def lift_to_plane(d: DarbouxState1D, phi: float = 0.0) -> PlaneState:
    """Embed (s, p_s; C) in the auxiliary plane at the spurious angle phi.

    The gauge fixes p_phi = +sqrt(C); the plane kinetic energy then equals
    p_s^2/2m + C/(2 m s^2) identically.
    """
    p_phi = math.sqrt(d.casimir)
    c, si = math.cos(phi), math.sin(phi)
    x = d.s * c
    y = d.s * si
    p_x = d.p_s * c - (p_phi / d.s) * si
    p_y = d.p_s * si + (p_phi / d.s) * c
    return PlaneState(x, y, p_x, p_y)


def free_particle_s(t, s0: float, casimir: float, mass: float):
    """Fluctuation growth s(t) = s0 sqrt(1 + C t^2 / (m^2 s0^4)).

    Valid for a trajectory prepared at the minimum of s, p_s(0) = 0; the
    large-time slope sqrt(C)/(m s0) is the plane momentum of the lifted
    straight-line motion (impact parameter s0).
    """
    if s0 <= 0:
        raise CoordinateSingularityError("s0 must be positive")
    if casimir < 0:
        raise DomainError("Casimir must be non-negative")
    t = np.asarray(t, dtype=float)
    value = s0 * np.sqrt(1.0 + casimir * t**2 / (mass**2 * s0**4))
    return value if value.ndim else float(value)


def lift_trajectory(times, s, p_s, casimir: float, mass: float):
    """Lift a sampled (s, p_s) trajectory to the plane.

    The spurious angle advances with phi_dot = sqrt(C)/(m s^2), integrated
    by scipy's cumulative Simpson rule on the sample grid (the trapezoid
    rule for two samples), so a smooth, densely sampled trajectory lifts to
    the plane with matching accuracy.  Returns a list of PlaneState samples.
    """
    # imported here: every command imports this module, only the plane lift integrates
    from scipy.integrate import cumulative_simpson

    times = np.asarray(times, dtype=float)
    s = np.asarray(s, dtype=float)
    p_s = np.asarray(p_s, dtype=float)
    rate = math.sqrt(casimir) / (mass * s**2)
    phi = cumulative_simpson(rate, x=times, initial=0.0)
    return [lift_to_plane(DarbouxState1D(si, psi, casimir), phii) for si, psi, phii in zip(s, p_s, phi)]


# ---------------------------------------------------------------------------
# Two classical degrees of freedom
# ---------------------------------------------------------------------------


def u1(alpha, p_alpha, beta, p_beta, c1, c2) -> float:
    """Momentum-sector invariant U1 entering Delta(p1^2).

    U1 = (p_alpha - p_beta)^2
         + [ (C1 - 4 p_alpha^2)
             - sqrt(C2 - C1^2 + (C1 - 4 p_alpha^2)^2) * sin(alpha + beta) ]
           / (2 sin^2 beta)

    For p_alpha -> 0 and C2 -> 0 the alpha dependence disappears and U1
    approaches p_beta^2 + C1/(2 sin^2 beta), the kinetic form in spherical
    coordinates with constant angular momentum sqrt(C1/2).
    """
    sb = math.sin(beta)
    if sb == 0.0:
        raise CoordinateSingularityError("sin(beta) = 0 is singular for U1")
    radicand = c2 - c1**2 + (c1 - 4 * p_alpha**2) ** 2
    if radicand < 0:
        raise DomainError(f"radicand C2 - C1^2 + (C1 - 4 p_alpha^2)^2 = {radicand:g} < 0")
    return (p_alpha - p_beta) ** 2 + (
        (c1 - 4 * p_alpha**2) - math.sqrt(radicand) * math.sin(alpha + beta)
    ) / (2 * sb**2)


def u1_spherical_limit(beta, p_beta, c1) -> float:
    """Limit value p_beta^2 + C1/(2 sin^2 beta) of U1."""
    sb = math.sin(beta)
    if sb == 0.0:
        raise CoordinateSingularityError("sin(beta) = 0 is singular")
    return p_beta**2 + c1 / (2 * sb**2)
