"""Adiabatic elimination: equilibrium width, energies, delta-s correction."""

import math

import numpy as np
import pytest

from qmoments.adiabatic import (
    AdiabaticModel,
    NoEquilibriumError,
    adiabatic_potential,
    delta_s_correction,
    ds0_dq,
    s0_of_q,
)
from qmoments.dynamics import IntegrationError, IntegratorConfig
from qmoments.effective_hamiltonian import PolynomialPotential
from qmoments.scenarios import resolve_config, run_adiabatic_compare
from test_dynamics import _failure_parts


def adiabatic_energy(model: AdiabaticModel, q: float, qdot: float) -> float:
    """Energy with the fluctuation slaved to q.

    The kinetic term acquires a position-dependent mass through
    p_s = m qdot ds0/dq; the potential term is the adiabatic potential.
    For a harmonic well the fluctuation term is the constant shift
    omega sqrt(C)/... = hbar omega/2 at C = hbar^2/4.
    """
    slope = ds0_dq(model, q)
    m = model.mass
    return 0.5 * m * qdot**2 * (1.0 + slope**2) + adiabatic_potential(model, q)


def _harmonic(mass=1.0, omega=1.0):
    return PolynomialPotential([0, 0, 0.5 * mass * omega**2], mass=mass)


def test_s0_harmonic_is_ground_state_width():
    for mass, omega, hbar in [(1.0, 1.0, 1.0), (2.0, 0.5, 1.0), (1.5, 3.0, 0.7)]:
        model = AdiabaticModel(_harmonic(mass, omega), casimir=hbar**2 / 4)
        got = s0_of_q(model, 0.3)
        assert got == pytest.approx(math.sqrt(hbar / (2 * mass * omega)), rel=1e-12)


def test_s0_decreases_with_stiffness():
    values = [
        s0_of_q(AdiabaticModel(_harmonic(1.0, omega), 0.25), 0.0)
        for omega in (0.5, 1.0, 2.0, 8.0, 64.0)
    ]
    assert values == sorted(values, reverse=True)


def test_s0_errors_where_curvature_non_positive():
    pot = PolynomialPotential([0, 0, 0.5, -0.1])
    model = AdiabaticModel(pot, 0.25)
    with pytest.raises(NoEquilibriumError):
        s0_of_q(model, 2.0)  # V''(2) = 1 - 1.2 < 0


def test_breakdown_set_is_exactly_nonpositive_curvature():
    pot = PolynomialPotential([0, 0, 0.5, -0.1])
    model = AdiabaticModel(pot, 0.25)
    for q in np.linspace(-2, 4, 61):
        if pot.value(q, 2) > 0:
            s0_of_q(model, q)
        else:
            with pytest.raises(NoEquilibriumError):
                s0_of_q(model, q)


def test_stationarity_residual_vanishes():
    rng = np.random.default_rng(8)
    pot = PolynomialPotential([0, 0.1, 0.4, 0.02, 0.01], mass=1.3)
    for _ in range(50):
        c = float(rng.uniform(0.05, 2.0))
        q = float(rng.uniform(-1.0, 1.0))
        model = AdiabaticModel(pot, c)
        s0 = s0_of_q(model, q)
        # d/ds of the fluctuation energy V'' s^2/2 + C/(2 m s^2) at s0
        assert abs(pot.value(q, 2) * s0 - c / (model.mass * s0**3)) < 1e-13


def test_adiabatic_energy_harmonic_shift_is_ground_energy():
    """For a harmonic well the fluctuation term is the constant hbar*omega/2."""
    mass, omega, hbar = 1.0, 1.0, 1.0
    model = AdiabaticModel(_harmonic(mass, omega), casimir=hbar**2 / 4)
    shifts = [
        adiabatic_potential(model, q) - model.potential.value(q)
        for q in np.linspace(-2, 2, 9)
    ]
    assert np.allclose(shifts, hbar * omega / 2, rtol=1e-12)
    # with qdot = 0 at the minimum, total = V + shift
    assert adiabatic_energy(model, 0.0, 0.0) == pytest.approx(hbar * omega / 2)


def test_adiabatic_energy_kinetic_mass_correction():
    pot = PolynomialPotential([0, 0, 0.5, -0.1])
    model = AdiabaticModel(pot, 0.25)
    q, qdot = 0.4, 0.9
    slope = ds0_dq(model, q)
    expected = 0.5 * qdot**2 * (1 + slope**2) + adiabatic_potential(model, q)
    assert adiabatic_energy(model, q, qdot) == pytest.approx(expected, rel=1e-14)
    assert slope != 0.0


def test_quartic_shift_varies_with_position():
    model = AdiabaticModel(PolynomialPotential([0, 0, 0.5, 0, 0.05]), 0.25)
    shift0 = adiabatic_potential(model, 0.0) - model.potential.value(0.0)
    shift1 = adiabatic_potential(model, 1.0) - model.potential.value(1.0)
    assert shift1 > shift0


def test_delta_s_zero_at_static_equilibrium():
    model = AdiabaticModel(_harmonic(), 0.25)
    assert delta_s_correction(model, 0.7, 0.0, 0.0) == 0.0


def test_delta_s_linear_in_acceleration():
    pot = PolynomialPotential([0, 0, 0.5, -0.1])
    model = AdiabaticModel(pot, 0.25)
    q = 0.3
    base = delta_s_correction(model, q, 0.0, 1.0)
    for qddot in (-2.0, -0.5, 0.5, 3.0):
        assert delta_s_correction(model, q, 0.0, qddot) == pytest.approx(
            qddot * base, rel=1e-13
        )


def test_first_order_beats_order_zero_for_slow_driving(tmp_path):
    """Slaving with the delta-s correction tracks the full fluctuation
    more closely than the bare equilibrium on a gently driven well."""
    for amplitude in (0.4, 0.2):
        cfg = resolve_config(
            {
                "scenario": "adiabatic-compare",
                "potential": [0, 0, 0.5, -0.1],
                "amplitude": amplitude,
                "t_span": [0, 12],
                "samples": 401,
            }
        )
        errors = run_adiabatic_compare(cfg, str(tmp_path))["errors"]
        assert errors["max_s_error_order1"] < errors["max_s_error_order0"]


def test_adiabatic_q_error_decreases_with_driving_timescale(tmp_path):
    """Quartic well driven at three timescales spanning 10x."""
    errs = []
    for amplitude in (1.0, 10**-0.5, 0.1):
        cfg = resolve_config({"scenario": "adiabatic-compare", "amplitude": amplitude})
        errors = run_adiabatic_compare(cfg, str(tmp_path))["errors"]
        errs.append(errors["max_q_error"])
    assert errs[0] > errs[1] > errs[2]


def test_adiabatic_acceleration_matches_energy_conservation():
    """The corrected-mass dynamics conserves the adiabatic energy."""
    from qmoments.adiabatic import integrate_adiabatic

    pot = PolynomialPotential([0, 0, 0.5, 0, 0.05])
    model = AdiabaticModel(pot, 0.25)
    t, qs, qdots = integrate_adiabatic(
        model, 0.8, 0.0, (0, 10), np.linspace(0, 10, 101), IntegratorConfig(rtol=1e-10, atol=1e-12)
    )
    energies = [adiabatic_energy(model, q, qd) for q, qd in zip(qs, qdots)]
    assert np.max(np.abs(np.array(energies) - energies[0])) < 1e-9


@pytest.mark.parametrize("mass", [1.0, 2.0])
def test_adiabatic_run_agrees_with_solve_ivp(mass):
    """The driver's (q, p = m qdot) trajectory against scipy's DOP853 on
    (q, qdot) at the same tolerances, tight enough that the two step
    sequences agree far below the bound."""
    from scipy.integrate import solve_ivp

    from qmoments.adiabatic import adiabatic_acceleration, integrate_adiabatic

    model = AdiabaticModel(PolynomialPotential([0, 0, 0.5, 0, 0.05], mass=mass), 0.25)
    times = np.linspace(0, 12, 401)
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-14)
    _, qs, qdots = integrate_adiabatic(model, 1.0, 0.0, (0, 12), times, cfg)
    ref = solve_ivp(
        lambda t, y: [y[1], adiabatic_acceleration(model, y[0], y[1])],
        (0, 12),
        [1.0, 0.0],
        method="DOP853",
        rtol=cfg.rtol,
        atol=cfg.atol,
        t_eval=times,
    )
    assert np.max(np.abs(qs - ref.y[0])) < 1e-10
    assert np.max(np.abs(qdots - ref.y[1])) < 1e-10


def test_adiabatic_run_fails_like_a_moment_run():
    """The adiabatic q(t) runs on the moment runs' driver: its step budget
    and a blow-up fail with the cause, the last good time, the order and a
    named component, q or p = m qdot."""
    from qmoments.adiabatic import integrate_adiabatic

    model = AdiabaticModel(PolynomialPotential([0, 0, 0.5, 0, 0.05]), 0.25)
    times = np.linspace(0, 10, 11)
    with pytest.raises(IntegrationError) as err:
        integrate_adiabatic(model, 0.8, 0.0, (0, 10), times, IntegratorConfig(max_steps=20))
    head, last, order, component = _failure_parts(err.value)
    assert head == "step budget exhausted (20 evaluations)"
    # starting at rest, only p = m qdot moves at first
    assert 0 < last < 10 and order == 2 and component.endswith(" in p")
    # far out on the quartic the squares of the scaled error estimates
    # overflow; the norm rescales them, the run steps on, and p = m qdot
    # leaves the floats
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntegrationError) as err:
        integrate_adiabatic(model, 1e100, 0.0, (0, 10), times, IntegratorConfig())
    head, last, order, component = _failure_parts(err.value)
    assert head.startswith("non-finite state at t=")
    assert 1e-300 < last < float(head.split("=")[1]) < 1e-100
    assert order == 2 and component == "first non-finite component p"


def test_model_validation():
    with pytest.raises(ValueError):
        AdiabaticModel(_harmonic(), 0.0)
