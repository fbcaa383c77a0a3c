"""Effective Hamiltonian construction and generated equations of motion."""

import hashlib
import re
from fractions import Fraction

import numpy as np
import pytest

from qmoments.dynamics import MomentState, init_gaussian, integrate, IntegratorConfig
from qmoments.effective_hamiltonian import PolynomialPotential, equations_of_motion
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


def _heff(coefficients, order, mass=1) -> MomentPolynomial:
    """H_eff of the potential with these coefficients at a truncation order."""
    return equations_of_motion(PolynomialPotential(coefficients, mass=mass), order).heff


def _couplings(heff) -> set:
    """The moment indices that H_eff couples to."""
    return {var[1] for var in heff.variables() if var[0] == "D"}


def _coupling(heff, idx, q: float) -> float:
    """Coefficient of Delta(idx) in H_eff at position q; H_eff is linear in
    the moments, so it is the derivative by Delta(idx)."""
    return heff.diff(("D", idx)).evaluate(1.0, {("q", 0): q, ("p", 0): 0.0})


def _energy(field, state) -> float:
    """The field's generated energy function on the state's vector."""
    return field.energy_function(state.hbar)(state.to_vector(field.layout))


def test_free_particle_couplings():
    heff = _heff([], 2, mass=2)
    assert _couplings(heff) == {single(0, 2)}
    assert _coupling(heff, single(0, 2), 0.0) == 0.25
    p = MomentPolynomial.p()
    assert heff == (p * p).scale(Fraction(1, 4)) + D(single(0, 2), Fraction(1, 4))


def test_harmonic_coupling_is_half_m_omega_sq():
    m, omega = 2.0, 3.0
    heff = _heff([0, 0, 0.5 * m * omega**2], 2, mass=m)
    assert _coupling(heff, single(2, 0), 1.7) == pytest.approx(0.5 * m * omega**2)


def test_cubic_coupling_linear_in_q():
    heff = _heff([0, 0, 0.5, -0.1], 2)
    for q in (-1.0, 0.0, 2.5):
        assert _coupling(heff, single(2, 0), q) == pytest.approx(0.5 * (1.0 - 0.6 * q))


def test_truncation_order_below_two_is_refused():
    with pytest.raises(ValueError, match="truncation order must be >= 2"):
        equations_of_motion(PolynomialPotential([0, 0, 0.5]), 1)


def test_evaluate_free_particle_number():
    field = equations_of_motion(PolynomialPotential([], mass=1), 2)
    state = MomentState(
        0.0, 2.0, {single(2, 0): 1.0, single(1, 1): 0.0, single(0, 2): 0.5},
        1.0, 2,
    )
    assert _energy(field, state) == pytest.approx(2.25)


def test_evaluate_zero_state():
    field = equations_of_motion(PolynomialPotential([], mass=1), 2)
    state = MomentState(
        0.0, 0.0, {single(2, 0): 0.0, single(1, 1): 0.0, single(0, 2): 0.0},
        1.0, 2, classical_mode=True,
    )
    assert _energy(field, state) == 0.0


def test_evaluate_matches_wavefunction_energy():
    """Gaussian in a harmonic well: <H> from moments equals the grid integral."""
    pot = PolynomialPotential([0, 0, 0.5], mass=1)
    field = equations_of_motion(pot, 2)
    state = init_gaussian(0.7, -0.4, 1.2, 0.0, 1.0, 2)
    grid = Grid(-14, 14, 2048)
    wf = gaussian_wavepacket(grid, 0.7, -0.4, 1.2)
    assert _energy(field, state) == pytest.approx(energy_expectation(wf, pot), rel=1e-5)


def test_linearity_of_heff():
    v1 = PolynomialPotential([0, 0, 0.3, 0.1], mass=1)
    v2 = PolynomialPotential([0.2, 0, 0.1, 0, 0.05], mass=1)
    # the exact sum of the coefficients: v2's list is the longer one
    v12 = PolynomialPotential([a + b for a, b in zip(v1.coefficients + [0], v2.coefficients)], mass=1)
    h12, h1, h2 = (equations_of_motion(v, 4).heff for v in (v12, v1, v2))
    assert _couplings(h12) == {single(0, 2), single(2, 0), single(3, 0), single(4, 0)}
    for idx in _couplings(h12) - {single(0, 2)}:
        # the kinetic coupling belongs to the shared mass term
        for q in (-0.8, 0.3, 1.9):
            assert _coupling(h12, idx, q) == pytest.approx(_coupling(h1, idx, q) + _coupling(h2, idx, q))


@pytest.mark.parametrize("mass", [0, -1])
def test_potential_refuses_a_mass_that_is_not_positive(mass):
    """The config gate refuses such a mass first; the API refuses it too."""
    with pytest.raises(ValueError, match="^mass must be positive$"):
        PolynomialPotential([0, 1], mass=mass)


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
    field = equations_of_motion(PolynomialPotential([], mass=2), 2)
    assert field.expression(("D", single(2, 0))) == D(single(1, 1), 1)  # 2/m with m=2
    assert field.expression(("p", 0)).is_zero
    assert field.expression(("D", single(0, 2))).is_zero
    assert field.expression(("q", 0)) == MomentPolynomial.p().scale(Fraction(1, 2))


def test_equations_of_motion_cubic_back_reaction():
    """dp/dt = -V'(q) - V'''(q) Delta(q^2)/2 at second order."""
    pot = PolynomialPotential([0, 0, Fraction(1, 2), Fraction(-1, 10)])
    field = equations_of_motion(pot, 2)
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
    field = equations_of_motion(PolynomialPotential([0, 0, 0.5, -0.05]), 2)
    state0 = init_gaussian(0.3, 0.8, 0.8, 0.1, 1.0, 2)
    traj = integrate(field, state0, (0, 6), IntegratorConfig(), t_eval=np.linspace(0, 6, 61))
    drift = np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])
    assert drift < 1e-9


def test_quadratic_exactness_no_truncation_remainder():
    """At order 2 a quadratic Hamiltonian closes with no dropped terms."""
    field = equations_of_motion(PolynomialPotential([0, 0, 0.5], mass=1), 2)
    table = build_bracket_table(2, 1)
    for var, expr in zip(field.layout, field.exprs):
        untruncated = leibniz_bracket(_coordinate(var), field.heff, lookup(table))
        assert untruncated == expr


@pytest.mark.parametrize("coefficients", [CUBIC, QUARTIC], ids=["cubic", "quartic"])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_equations_of_motion_match_oracle_validated_table(order, coefficients):
    """The closed-form EOM equals the Leibniz bracket over the
    oracle-validated table for every state coordinate."""
    field = equations_of_motion(PolynomialPotential(coefficients), order)
    table = build_bracket_table(order, 1)
    for var in field.layout:
        expected = leibniz_bracket(_coordinate(var), field.heff, lookup(table)).truncate(order)
        assert field.expression(var) == expected, var



# sha256 of the source of rhs and ham at hbar 1, the code that runs, at
# orders 2..7 in turn
_EQUATION_DIGESTS = {
    "free": ([], "6e7994009a8a63c834bb5e90f8fa4fc370554a500d6c6311933d5e5c8cd8a22d"),
    "harmonic": ([0, 0, 0.5], "c09c768d630412cb6c9bf519d795b6bd7764990fa9e24bdfda67391db4eb1fc4"),
    "cubic": ([0, 0, 0.5, -0.1], "c6dd4d15f6d61a40c1980b30baf19d3c9d816ccf279ec77796b48f7461839de0"),
    "quartic": ([0, 0, 0.5, 0, 0.05], "8be0dcb722f8f8254265db8ee342817d96c55e4d92945cd9f29efd5129f534f8"),
    "sextic": ([0, 0, 0.5, 0, -0.05, 0, 0.002], "4273bbc9610acf21b6d8ca040f9e4114170ec74cf38e73f451e46f7f200aab8c"),
}


@pytest.mark.parametrize("name", list(_EQUATION_DIGESTS))
def test_generated_equations_are_pinned(name):
    """The generated rhs and ham keep their code, term for term, at every
    order up to the ceiling; the oracle-table comparison above stops at
    order 5.  No coefficient is a factor 1.0 and none is added negated."""
    coefficients, digest = _EQUATION_DIGESTS[name]
    h = hashlib.sha256()
    for order in range(2, 8):
        source = equations_of_motion(PolynomialPotential(coefficients), order).source(1.0)
        assert not re.search(r"(?<![\d.])1\.0\*", source) and "+ -" not in source
        h.update(source.encode())
    assert h.hexdigest() == digest


# the largest deviation measured, relative to max(1, |value|), was 1.2e-15
_EVALUATE_TOL = 1e-14


@pytest.mark.parametrize("name", list(_EQUATION_DIGESTS))
def test_generated_code_evaluates_the_exact_polynomials(name):
    """rhs and ham agree with ``MomentPolynomial.evaluate`` of the field's
    exact expressions and H_eff on random states, at hbar 1 and at a
    non-unit hbar whose powers the code folds into its coefficients, at
    every order up to the ceiling."""
    coefficients = _EQUATION_DIGESTS[name][0]
    rng = np.random.default_rng(33)
    for order in range(2, 8):
        field = equations_of_motion(PolynomialPotential(coefficients), order)
        for hbar in (1.0, 0.37):
            rhs, ham = field.compiled(hbar), field.energy_function(hbar)
            for y in rng.uniform(-1.5, 1.5, size=(4, len(field.layout))).tolist():
                basic = {var: value for var, value in zip(field.layout, y) if var[0] != "D"}
                moments = {var[1]: value for var, value in zip(field.layout, y) if var[0] == "D"}
                pairs = list(zip(rhs(0.0, y), field.exprs)) + [(ham(y), field.heff)]
                for value, expr in pairs:
                    exact = expr.evaluate(hbar, basic, moments)
                    assert abs(value - exact) <= _EVALUATE_TOL * max(1.0, abs(exact)), (order, hbar, expr)


def test_reprs_name_what_each_object_holds():
    """The presentation-only reprs: a grid by its interval and point count,
    a potential by its exact coefficients (trailing zeros trimmed) and
    mass, a moment state by its centroid, order and Casimir."""
    assert repr(Grid(-10.5, 25.0, 1024)) == "Grid(-10.5, 25, 1024)"
    assert repr(PolynomialPotential([0, 0, Fraction(1, 2), -0.1, 0], mass=2)) == (
        "PolynomialPotential(['0', '0', '1/2', '-3602879701896397/36028797018963968'], mass=2)"
    )
    assert repr(init_gaussian(0.5, -0.25, 0.7, order=3)) == "MomentState(q=0.5, p=-0.25, order=3, C=0.25)"
