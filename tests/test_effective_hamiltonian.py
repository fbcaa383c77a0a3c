"""Effective Hamiltonian construction and generated equations of motion."""

from fractions import Fraction

import numpy as np
import pytest

from qmoments.dynamics import MomentState, init_gaussian, integrate, IntegratorConfig
from qmoments.effective_hamiltonian import (
    PolynomialPotential,
    build_heff,
    equations_of_motion,
)
from qmoments.exact import MomentPolynomial
from qmoments.indices import single
from qmoments.moment_algebra import build_bracket_table, leibniz_bracket
from qmoments.schrodinger import Grid, energy_expectation, gaussian_wavepacket
from test_moment_algebra import lookup

D = MomentPolynomial.moment
CUBIC = [0, 0, Fraction(1, 2), Fraction(-1, 10)]
QUARTIC = [0, 0, Fraction(1, 2), 0, Fraction(1, 20)]


def _coordinate(var) -> MomentPolynomial:
    """The state coordinate ``var`` of a field layout as a polynomial."""
    if var[0] == "D":
        return D(var[1])
    return MomentPolynomial.q() if var[0] == "q" else MomentPolynomial.p()


def _couplings(h) -> set:
    """The moment indices that H_eff couples to."""
    return {var[1] for var in h.moment_polynomial().variables() if var[0] == "D"}


def _coupling(h, idx, q: float) -> float:
    """Coefficient of Delta(idx) in H_eff at position q; H_eff is linear in
    the moments, so it is the derivative by Delta(idx)."""
    return h.moment_polynomial().diff(("D", idx)).evaluate(1.0, {("q", 0): q, ("p", 0): 0.0})


def _energy(h, state) -> float:
    """The generated energy function of h's field on the state's vector."""
    field = equations_of_motion(h)
    return field.energy_function(state.hbar)(state.to_vector(field.layout))


def test_free_particle_couplings():
    h = build_heff(PolynomialPotential([], mass=2), 2)
    assert _couplings(h) == {single(0, 2)}
    assert _coupling(h, single(0, 2), 0.0) == 0.25
    poly = h.moment_polynomial()
    p = MomentPolynomial.p()
    assert poly == (p * p).scale(Fraction(1, 4)) + D(single(0, 2), Fraction(1, 4))


def test_harmonic_coupling_is_half_m_omega_sq():
    m, omega = 2.0, 3.0
    h = build_heff(PolynomialPotential([0, 0, 0.5 * m * omega**2], mass=m), 2)
    assert _coupling(h, single(2, 0), 1.7) == pytest.approx(0.5 * m * omega**2)


def test_cubic_coupling_linear_in_q():
    pot = PolynomialPotential([0, 0, 0.5, -0.1])
    h = build_heff(pot, 2)
    for q in (-1.0, 0.0, 2.5):
        assert _coupling(h, single(2, 0), q) == pytest.approx(0.5 * (1.0 - 0.6 * q))


def test_evaluate_free_particle_number():
    h = build_heff(PolynomialPotential([], mass=1), 2)
    state = MomentState(
        0.0, 2.0, {single(2, 0): 1.0, single(1, 1): 0.0, single(0, 2): 0.5},
        1.0, 2,
    )
    assert _energy(h, state) == pytest.approx(2.25)


def test_evaluate_zero_state():
    h = build_heff(PolynomialPotential([], mass=1), 2)
    state = MomentState(
        0.0, 0.0, {single(2, 0): 0.0, single(1, 1): 0.0, single(0, 2): 0.0},
        1.0, 2, classical_mode=True,
    )
    assert _energy(h, state) == 0.0


def test_evaluate_matches_wavefunction_energy():
    """Gaussian in a harmonic well: <H> from moments equals the grid integral."""
    pot = PolynomialPotential([0, 0, 0.5], mass=1)
    h = build_heff(pot, 2)
    state = init_gaussian(0.7, -0.4, 1.2, 0.0, 1.0, 2)
    grid = Grid(-14, 14, 2048)
    wf = gaussian_wavepacket(grid, 0.7, -0.4, 1.2)
    assert _energy(h, state) == pytest.approx(energy_expectation(wf, pot), rel=1e-5)


def test_linearity_of_build_heff():
    v1 = PolynomialPotential([0, 0, 0.3, 0.1], mass=1)
    v2 = PolynomialPotential([0.2, 0, 0.1, 0, 0.05], mass=1)
    # the exact sum of the coefficients: v2's list is the longer one
    v12 = PolynomialPotential([a + b for a, b in zip(v1.coefficients + [0], v2.coefficients)], mass=1)
    h12 = build_heff(v12, 4)
    h1 = build_heff(v1, 4)
    h2 = build_heff(v2, 4)
    assert _couplings(h12) == {single(0, 2), single(2, 0), single(3, 0), single(4, 0)}
    for idx in _couplings(h12) - {single(0, 2)}:
        # the kinetic coupling belongs to the shared mass term
        for q in (-0.8, 0.3, 1.9):
            assert _coupling(h12, idx, q) == pytest.approx(_coupling(h1, idx, q) + _coupling(h2, idx, q))


def test_potential_value_on_arrays_is_elementwise():
    x = np.linspace(-2.0, 3.0, 7)
    for pot in (PolynomialPotential(CUBIC), PolynomialPotential([])):
        elementwise = [pot.value(float(xi)) for xi in x]
        values = pot.value(x)
        assert np.shape(values) == x.shape
        assert np.array_equal(values, elementwise)
    assert np.array_equal(PolynomialPotential(CUBIC).value(x, 4), np.zeros_like(x))


def test_potential_value_builds_each_derivative_once(monkeypatch):
    """``value`` converts the exact coefficients of a derivative order to
    floats once per potential, with the bits of Horner on ``float(c)``."""
    pot = PolynomialPotential(QUARTIC)
    built = []
    exact = PolynomialPotential.derivative_coefficients
    monkeypatch.setattr(
        PolynomialPotential, "derivative_coefficients", lambda self, k: built.append(k) or exact(self, k)
    )
    for _ in range(3):
        for k in range(6):
            for q in (-1.3, 0.0, 0.8):
                acc = 0.0
                for c in reversed(exact(pot, k)):
                    acc = acc * q + float(c)
                assert pot.value(q, k) == acc
    assert built == list(range(6))
    assert pot.as_polynomial(2) == PolynomialPotential([1, 0, Fraction(3, 5)]).as_polynomial()


def test_equations_of_motion_free_particle():
    h = build_heff(PolynomialPotential([], mass=2), 2)
    field = equations_of_motion(h)
    assert field.expression(("D", single(2, 0))) == D(single(1, 1), 1)  # 2/m with m=2
    assert field.expression(("p", 0)).is_zero
    assert field.expression(("D", single(0, 2))).is_zero
    assert field.expression(("q", 0)) == MomentPolynomial.p().scale(Fraction(1, 2))


def test_equations_of_motion_cubic_back_reaction():
    """dp/dt = -V'(q) - V'''(q) Delta(q^2)/2 at second order."""
    pot = PolynomialPotential([0, 0, Fraction(1, 2), Fraction(-1, 10)])
    h = build_heff(pot, 2)
    field = equations_of_motion(h)
    q = MomentPolynomial.q()
    expected = (
        -pot.as_polynomial(1)
        + D(single(2, 0), Fraction(3, 10))
    )
    assert field.expression(("p", 0)) == expected
    # and the q-dependence of the Delta(qp) equation carries V''(q)
    dqp = field.expression(("D", single(1, 1)))
    assert dqp == D(single(0, 2)) - D(single(2, 0)) + D(single(2, 0), Fraction(3, 5)) * q


def test_energy_conserved_along_trajectory():
    pot = PolynomialPotential([0, 0, 0.5, -0.05])
    h = build_heff(pot, 2)
    field = equations_of_motion(h)
    state0 = init_gaussian(0.3, 0.8, 0.8, 0.1, 1.0, 2)
    traj = integrate(field, state0, (0, 6), IntegratorConfig(), t_eval=np.linspace(0, 6, 61))
    drift = np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])
    assert drift < 1e-9


def test_quadratic_exactness_no_truncation_remainder():
    """At order 2 a quadratic Hamiltonian closes with no dropped terms."""
    h = build_heff(PolynomialPotential([0, 0, 0.5], mass=1), 2)
    table = build_bracket_table(2, 1)
    field = equations_of_motion(h)
    heff = h.moment_polynomial()
    for var, expr in zip(field.layout, field.exprs):
        untruncated = leibniz_bracket(_coordinate(var), heff, lookup(table))
        assert untruncated == expr


@pytest.mark.parametrize("coefficients", [CUBIC, QUARTIC], ids=["cubic", "quartic"])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_equations_of_motion_match_oracle_validated_table(order, coefficients):
    """The closed-form EOM equals the Leibniz bracket over the
    oracle-validated table for every state coordinate."""
    h = build_heff(PolynomialPotential(coefficients), order)
    field = equations_of_motion(h)
    heff = h.moment_polynomial()
    table = build_bracket_table(order, 1)
    for var in field.layout:
        expected = leibniz_bracket(_coordinate(var), heff, lookup(table)).truncate(order)
        assert field.expression(var) == expected, var

