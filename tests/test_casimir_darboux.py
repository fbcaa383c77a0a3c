"""Canonical charts, the plane lift and the two-DOF expressions."""

import dataclasses
import math

import numpy as np
import pytest

from qmoments.casimir_darboux import (
    CoordinateSingularityError,
    DarbouxState1D,
    DomainError,
    TwoDofCanonical,
    free_particle_s,
    from_darboux,
    lift_to_plane,
    lift_trajectory,
    to_darboux,
    u1,
    u1_spherical_limit,
)


def two_dof_position_moments(c: TwoDofCanonical) -> tuple:
    """(Delta(x1^2), Delta(x2^2), Delta(x1 x2)); the position correlation
    is carried by the angle beta."""
    return (c.s1**2, c.s2**2, c.s1 * c.s2 * math.cos(c.beta))


def test_to_darboux_worked_example():
    d = to_darboux(4.0, 2.0, 2.0)
    assert (d.s, d.p_s, d.casimir) == (2.0, 1.0, 4.0)


def test_to_darboux_minimal_gaussian():
    d = to_darboux(1.0, 0.0, 0.25)
    assert (d.s, d.p_s, d.casimir) == (1.0, 0.0, 0.25)


def test_from_darboux_inverse_example():
    assert from_darboux(DarbouxState1D(2.0, 1.0, 4.0)) == (4.0, 2.0, 2.0)
    assert from_darboux(DarbouxState1D(1.0, 0.0, 0.25)) == (1.0, 0.0, 0.25)


def test_darboux_state_cannot_change_after_its_checks():
    """A chart state is checked when it is built (s > 0, C >= 0) and cannot
    be changed afterwards, so ``from_darboux`` needs no check of its own."""
    with pytest.raises(dataclasses.FrozenInstanceError):
        DarbouxState1D(1.0, 0.0, 0.25).s = -1.0


def test_round_trip_random_admissible():
    rng = np.random.default_rng(42)
    for _ in range(200):
        s = float(rng.uniform(0.1, 5.0))
        p_s = float(rng.uniform(-3.0, 3.0))
        c = float(rng.uniform(0.0, 4.0))
        moms = from_darboux(DarbouxState1D(s, p_s, c))
        d = to_darboux(*moms)
        assert d.s == pytest.approx(s, rel=1e-13)
        assert d.p_s == pytest.approx(p_s, rel=1e-12, abs=1e-13)
        assert d.casimir == pytest.approx(c, rel=1e-11, abs=1e-12)
        # outputs satisfy the Casimir identity by construction
        assert moms[0] * moms[2] - moms[1] ** 2 == pytest.approx(c, rel=1e-11, abs=1e-12)


def test_to_darboux_singularity():
    with pytest.raises(CoordinateSingularityError):
        to_darboux(0.0, 0.0, 1.0)


def test_chain_rule_reproduces_second_order_brackets():
    """Treating (s, p_s) as canonical with C constant gives the moment
    brackets: {s^2, p_s^2 + C/s^2} = 4 s p_s etc."""
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = float(rng.uniform(0.2, 3.0))
        p_s = float(rng.uniform(-2.0, 2.0))
        c = float(rng.uniform(0.0, 2.0))

        def bracket(dfds, dfdps, dgds, dgdps):
            return dfds * dgdps - dfdps * dgds

        dq2, dqp, dp2 = from_darboux(DarbouxState1D(s, p_s, c))
        # {Delta(q^2), Delta(p^2)} = 4 Delta(qp)
        got = bracket(2 * s, 0.0, -2 * c / s**3, 2 * p_s)
        assert got == pytest.approx(4 * dqp, rel=1e-12, abs=1e-12)
        # {Delta(q^2), Delta(qp)} = 2 Delta(q^2)
        got = bracket(2 * s, 0.0, p_s, s)
        assert got == pytest.approx(2 * dq2, rel=1e-12)
        # {Delta(qp), Delta(p^2)} = 2 Delta(p^2)
        got = bracket(p_s, s, -2 * c / s**3, 2 * p_s)
        assert got == pytest.approx(2 * dp2, rel=1e-12)


def test_lift_example():
    ps = lift_to_plane(DarbouxState1D(1.0, 0.0, 0.25), phi=0.0)
    assert (ps.x, ps.y, ps.p_x, ps.p_y) == (1.0, 0.0, 0.0, 0.5)


def test_lift_momentum_identity():
    """(X p_Y - Y p_X)^2 + (X p_X + Y p_Y)^2 = p_phi^2 + s^2 p_s^2."""
    rng = np.random.default_rng(9)
    for _ in range(200):
        d = DarbouxState1D(
            float(rng.uniform(0.1, 4.0)),
            float(rng.uniform(-3.0, 3.0)),
            float(rng.uniform(0.0, 3.0)),
        )
        phi = float(rng.uniform(-math.pi, math.pi))
        ps = lift_to_plane(d, phi)
        assert ps.p_phi == pytest.approx(math.sqrt(d.casimir), abs=1e-12)
        assert ps.p_s == pytest.approx(d.p_s, rel=1e-12, abs=1e-12)
        assert ps.radius == pytest.approx(d.s, rel=1e-13)
        lhs = ps.p_phi**2 + (ps.radius * ps.p_s) ** 2
        rhs = d.casimir + d.s**2 * d.p_s**2
        assert lhs == pytest.approx(rhs, rel=1e-12)
        # the angular momentum inherits the uncertainty floor
        if d.casimir >= 0.25:
            assert ps.p_phi >= 0.5


def test_plane_kinetic_energy_identity():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        d = DarbouxState1D(
            float(rng.uniform(0.05, 5.0)),
            float(rng.uniform(-4.0, 4.0)),
            float(rng.uniform(0.0, 5.0)),
        )
        phi = float(rng.uniform(0, 2 * math.pi))
        mass = float(rng.uniform(0.2, 5.0))
        ps = lift_to_plane(d, phi)
        expected = d.p_s**2 / (2 * mass) + d.casimir / (2 * mass * d.s**2)
        assert (ps.p_x**2 + ps.p_y**2) / (2 * mass) == pytest.approx(expected, rel=1e-12)


def test_free_particle_s_values():
    assert free_particle_s(0.0, 1.7, 0.25, 1.0) == 1.7
    assert free_particle_s(2.0, 1.0, 0.25, 1.0) == pytest.approx(math.sqrt(2.0))


@pytest.mark.parametrize(
    "s0, casimir, mass",
    [(1.0, 0.25, 1.0), (0.7, 0.0, 1.0), (1.3, 2.5, 0.4)],
    ids=["free-defaults", "classical", "non-minimal"],
)
def test_free_particle_s_is_the_free_growth_of_the_chart(s0, casimir, mass):
    """At p_s = 0 the growth law is the square root of the free particle's
    Delta(q^2)(t) = Delta(q^2) + 2 Delta(qp) t/m + Delta(p^2) t^2/m^2 on
    the chart's second moments, the closed form the ``free`` scenario
    checks its run against."""
    t = np.linspace(0.0, 10.0, 201)
    dq2, dqp, dp2 = from_darboux(DarbouxState1D(s0, 0.0, casimir))
    s_ref = np.sqrt(dq2 + 2 * dqp * t / mass + dp2 * t**2 / mass**2)
    assert np.max(np.abs(free_particle_s(t, s0, casimir, mass) - s_ref)) < 1e-12 * float(np.max(s_ref))


def test_free_particle_s_asymptotic_slope():
    """Large-time growth rate equals the plane momentum sqrt(C)/(m s0)."""
    s0, c, m = 0.8, 0.6, 1.3
    t = 1e8
    slope = (free_particle_s(t + 1, s0, c, m) - free_particle_s(t, s0, c, m))
    assert slope == pytest.approx(math.sqrt(c) / (m * s0), rel=1e-6)


def test_free_particle_s_rejects_bad_inputs():
    with pytest.raises(CoordinateSingularityError):
        free_particle_s(1.0, 0.0, 0.25, 1.0)
    with pytest.raises(DomainError):
        free_particle_s(1.0, 1.0, -0.1, 1.0)


def test_lift_trajectory_free_particle_is_straight():
    """The lifted free trajectory is a straight line with conserved p_phi,
    and the spurious angle matches its closed form."""
    m, s0, c = 1.0, 1.0, 0.25
    times = np.linspace(0, 10, 2001)
    s = free_particle_s(times, s0, c, m)
    p_s = c * times / (m**2 * s0**2 * s)  # ds/dt * m
    states = lift_trajectory(times, s, p_s, c, m)
    xs = np.array([st.x for st in states])
    ys = np.array([st.y for st in states])
    phis = np.arctan2(ys, xs)
    assert np.max(np.abs(phis - np.arctan(math.sqrt(c) * times / (m * s0**2)))) < 1e-9
    # straight line: X stays at the impact parameter, Y moves uniformly
    assert np.max(np.abs(xs - s0)) < 1e-8
    coeffs = np.polyfit(times, ys, 1)
    assert np.max(np.abs(ys - np.polyval(coeffs, times))) < 1e-8
    p_phis = np.array([st.p_phi for st in states])
    assert np.max(np.abs(p_phis - math.sqrt(c))) < 1e-9


def test_two_dof_position_moments():
    c = TwoDofCanonical(1.0, 0.0, 1.0, 0.0, 0.0, 0.0, math.pi / 2, 0.0, 1.0, 0.0)
    assert two_dof_position_moments(c)[2] == pytest.approx(0.0, abs=1e-15)
    c = TwoDofCanonical(1.0, 0.0, 1.0, 0.0, 0.0, 0.0, math.pi / 3, 0.0, 1.0, 0.0)
    assert two_dof_position_moments(c)[2] == pytest.approx(0.5)


def test_two_dof_cauchy_schwarz():
    rng = np.random.default_rng(3)
    for _ in range(100):
        c = TwoDofCanonical(
            float(rng.uniform(0.1, 3.0)),
            0.0,
            float(rng.uniform(0.1, 3.0)),
            0.0,
            0.0,
            0.0,
            float(rng.uniform(1e-3, math.pi - 1e-3)),
            0.0,
            1.0,
            0.0,
        )
        dx1, dx2, dx12 = two_dof_position_moments(c)
        assert abs(dx12) <= math.sqrt(dx1 * dx2) + 1e-12


def test_two_dof_validation():
    with pytest.raises(DomainError):
        TwoDofCanonical(1, 0, 1, 0, 0, 0, math.pi, 0, 1, 0)
    with pytest.raises(CoordinateSingularityError):
        TwoDofCanonical(0, 0, 1, 0, 0, 0, 1.0, 0, 1, 0)


def test_u1_worked_example():
    assert u1(0.3, 0.0, math.pi / 2, 1.0, 2.0, 0.0) == pytest.approx(2.0)


def test_u1_alpha_independence_in_limit():
    """At p_alpha = C2 = 0 the alpha dependence drops out exactly."""
    values = {u1(alpha, 0.0, 1.1, 1.3, 2.0, 0.0) for alpha in np.linspace(0, 6, 13)}
    assert max(values) - min(values) < 1e-12
    assert values.pop() == pytest.approx(u1_spherical_limit(1.1, 1.3, 2.0))


def test_u1_spherical_kinetic_form():
    """Delta(p1^2) in the limit matches spherical kinetic energy with
    angular momentum sqrt(C1/2)."""
    s1, ps1, beta, p_beta, c1 = 1.4, 0.3, 0.9, 0.7, 1.8
    value = u1(0.0, 0.0, beta, p_beta, c1, 0.0)
    dp1sq = ps1**2 + value / s1**2
    p_phi = math.sqrt(c1 / 2)
    expected = ps1**2 + p_beta**2 / s1**2 + p_phi**2 / (s1**2 * math.sin(beta) ** 2)
    assert dp1sq == pytest.approx(expected, rel=1e-12)


def test_u1_domain_errors():
    with pytest.raises(CoordinateSingularityError):
        u1(0.0, 0.0, 0.0, 1.0, 2.0, 0.0)
    with pytest.raises(DomainError):
        # positive C1 with the eps-scaling path leaves the real domain
        u1(0.4, 0.07, 1.1, 1.3, 2.0, 2.5e-4)


def test_u1_linear_convergence_along_scaling_path():
    """p_alpha ~ eps, C2 ~ eps^4 converges linearly with a stable slope."""
    alpha, p_alpha, beta, p_beta, c1, c2 = 0.4, 0.7, 1.1, 1.3, 0.0, 2.5
    limit = u1_spherical_limit(beta, p_beta, c1)
    ks = []
    for eps in (1e-1, 1e-2, 1e-3):
        dev = abs(u1(alpha, eps * p_alpha, beta, p_beta, c1, eps**4 * c2) - limit)
        ks.append(dev / eps)
    assert max(ks) / min(ks) < 1.3
