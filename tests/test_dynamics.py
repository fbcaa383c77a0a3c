"""Moment states, Gaussian initialization, integration and monitors."""

import math
import re

import numpy as np
import pytest

from qmoments.casimir_darboux import CoordinateSingularityError, DomainError, free_particle_s
from qmoments.dynamics import (
    AdmissibilityError,
    IntegrationError,
    IntegratorConfig,
    MomentState,
    Trajectory,
    init_gaussian,
    integrate,
    write_table,
)
from qmoments.effective_hamiltonian import MomentVectorField, PolynomialPotential, equations_of_motion
from qmoments.exact import MomentPolynomial, hbar_parts
from qmoments.indices import single


def _free_field(mass=1.0, order=2):
    return equations_of_motion(PolynomialPotential([], mass=mass), order)


def test_init_gaussian_minimal():
    s = init_gaussian(0.0, 0.0, 1.0, 0.0, 1.0, 2)
    assert s.moments[single(2, 0)] == 1.0
    assert s.moments[single(0, 2)] == 0.25
    assert s.moments[single(1, 1)] == 0.0
    assert s.casimir() == pytest.approx(0.25)
    assert s.margin() == pytest.approx(0.0)


def test_init_gaussian_saturates_casimir_for_any_width():
    rng = np.random.default_rng(5)
    for _ in range(50):
        sigma = float(rng.uniform(0.2, 4.0))
        ps0 = float(rng.uniform(-2.0, 2.0))
        hbar = float(rng.uniform(0.3, 2.0))
        s = init_gaussian(1.0, -1.0, sigma, ps0, hbar, 2)
        assert s.casimir() == pytest.approx(hbar**2 / 4, rel=1e-12)


def test_init_gaussian_fourth_moments_follow_wick():
    s = init_gaussian(0.0, 0.0, 1.0, 0.0, 1.0, 4)
    assert s.moments[single(4, 0)] == pytest.approx(3.0)
    assert s.moments[single(0, 4)] == pytest.approx(3 * 0.25**2)
    assert s.moments[single(2, 2)] == pytest.approx(0.25)
    assert s.moments[single(3, 1)] == pytest.approx(0.0)
    assert s.moments[single(3, 0)] == 0.0


def test_init_gaussian_correlated_wick():
    s = init_gaussian(0.0, 0.0, 1.5, 0.8, 1.0, 4)
    sxx, sxy = 1.5**2, 1.5 * 0.8
    syy = 0.8**2 + 0.25 / 1.5**2
    assert s.moments[single(2, 2)] == pytest.approx(sxx * syy + 2 * sxy**2)
    assert s.moments[single(3, 1)] == pytest.approx(3 * sxx * sxy)


def test_init_gaussian_rejects_bad_width():
    with pytest.raises(ValueError):
        init_gaussian(0, 0, 0.0, 0, 1.0, 2)


@pytest.mark.parametrize(
    "sigma, casimir, error, message",
    [
        (0.0, None, CoordinateSingularityError, "s must be positive"),
        (-1.0, 0.25, CoordinateSingularityError, "s must be positive"),
        (1.0, -0.1, DomainError, "Casimir must be non-negative"),
    ],
    ids=["zero-width", "negative-width", "negative-casimir"],
)
def test_init_gaussian_refuses_what_the_chart_refuses(sigma, casimir, error, message):
    """The second moments are the Casimir-Darboux chart's, and so are the
    checks on the width and the Casimir."""
    with pytest.raises(error) as err:
        init_gaussian(0.0, 0.0, sigma, 0.0, 1.0, 2, casimir=casimir, classical_mode=True)
    assert str(err.value) == message


def test_admissibility_floor_enforced():
    with pytest.raises(AdmissibilityError):
        MomentState(0, 0, {single(2, 0): 1.0, single(1, 1): 0.0, single(0, 2): 0.1}, 1.0, 2)
    # the same data is a valid classical state
    MomentState(
        0, 0, {single(2, 0): 1.0, single(1, 1): 0.0, single(0, 2): 0.1},
        1.0, 2, classical_mode=True,
    )
    # hbar and each variance are checked before the floor, by name
    moments = {single(2, 0): 1.0, single(1, 1): 0.0, single(0, 2): 1.0}
    for hbar, changed, message in (
        (0.0, {}, "hbar must be positive"),
        (1.0, {single(2, 0): -1.0}, "Delta(q^2) must be non-negative"),
        (1.0, {single(0, 2): -1.0}, "Delta(p^2) must be non-negative"),
    ):
        with pytest.raises(AdmissibilityError) as err:
            MomentState(0, 0, {**moments, **changed}, hbar, 2)
        assert str(err.value) == message


def test_monitors_arithmetic():
    field = _free_field()
    state = MomentState(
        0.0, 0.0, {single(2, 0): 4.0, single(1, 1): 2.0, single(0, 2): 2.0}, 1.0, 2
    )
    assert state.casimir() == pytest.approx(4.0)
    assert state.margin() == pytest.approx(3.75)
    assert field.energy_function(1.0)(state.to_vector(field.layout)) == pytest.approx(1.0)


def test_free_particle_matches_closed_form():
    field = _free_field()
    state0 = init_gaussian(0, 0, 1.0, 0.0, 1.0, 2)
    traj = integrate(field, state0, (0, 10), IntegratorConfig(), t_eval=np.linspace(0, 10, 201))
    s_num = np.sqrt(traj.column("Delta_q2"))
    s_ref = free_particle_s(traj.times, 1.0, 0.25, 1.0)
    assert np.max(np.abs(s_num - s_ref) / s_ref) < 1e-12


def test_harmonic_breathing_period_and_monitors():
    """sigma=1 packet in a unit well: Delta(q^2)(t) = 1 - 0.75 sin^2 t."""
    pot = PolynomialPotential([0, 0, 0.5], mass=1)
    field = equations_of_motion(pot, 2)
    state0 = init_gaussian(0, 0, 1.0, 0.0, 1.0, 2)
    times = np.linspace(0, 2 * math.pi, 101)
    traj = integrate(field, state0, (0, 2 * math.pi), IntegratorConfig(), t_eval=times)
    dq2 = traj.column("Delta_q2")
    assert np.max(np.abs(dq2 - (1 - 0.75 * np.sin(times) ** 2))) < 1e-9
    assert np.max(np.abs(traj.energy - traj.energy[0])) / traj.energy[0] < 1e-10
    assert np.max(np.abs(traj.casimir - traj.casimir[0])) / traj.casimir[0] < 1e-9


def test_zero_field_keeps_state():
    field = _free_field()
    zero_field = MomentVectorField(
        field.layout, [MomentPolynomial.zero(1)] * len(field.layout), field.potential, field.heff
    )
    state0 = init_gaussian(0.3, -0.2, 1.1, 0.1, 1.0, 2)
    traj = integrate(zero_field, state0, (0, 5), IntegratorConfig(), t_eval=np.linspace(0, 5, 11))
    assert np.allclose(traj.ys, traj.ys[0], rtol=0, atol=0)


def test_classical_mode_no_spreading():
    """A C=0 classical state keeps its width under free evolution."""
    field = _free_field()
    state0 = init_gaussian(0, 1.0, 1.3, 0.0, 1.0, 2, casimir=0.0, classical_mode=True)
    traj = integrate(field, state0, (0, 10), IntegratorConfig(), t_eval=np.linspace(0, 10, 51))
    s = np.sqrt(traj.column("Delta_q2"))
    assert np.max(np.abs(s - s[0])) <= 1e-10
    assert np.max(np.abs(traj.margin - traj.casimir)) == 0.0


def test_quantum_admissibility_preserved():
    pot = PolynomialPotential([0, 0, 0.5, -0.05])
    field = equations_of_motion(pot, 2)
    state0 = init_gaussian(0.2, 0.5, 0.9, -0.3, 1.0, 2)
    traj = integrate(field, state0, (0, 8), IntegratorConfig(), t_eval=np.linspace(0, 8, 81))
    assert np.min(traj.margin) > -1e-10


def test_free_order_4_preserves_gaussian_closure():
    """The order-4 free system keeps Delta(q^4) = 3 Delta(q^2)^2."""
    field = equations_of_motion(PolynomialPotential([], mass=1), 4)
    state0 = init_gaussian(0, 0, 1.0, 0.0, 1.0, 4)
    traj = integrate(field, state0, (0, 5), IntegratorConfig(), t_eval=np.linspace(0, 5, 51))
    dq2 = traj.column("Delta_q2")
    dq4 = traj.column("Delta_q4")
    assert np.max(np.abs(dq4 - 3 * dq2**2)) < 1e-10


def test_cubic_order_4_hbar_terms_and_energy():
    """At order 4 the cubic coupling brings explicit hbar^2 terms into the
    equations of motion; the flow still conserves the energy exactly."""
    from fractions import Fraction

    pot = PolynomialPotential([0, 0, Fraction(1, 2), Fraction(-1, 10)], mass=1)
    field = equations_of_motion(pot, 4)
    dp3 = field.expression(("D", single(0, 3)))
    # the constant term is (V'''/6) * (3 hbar^2/2) = -3 hbar^2/20, which is
    # 3/20 at lambda^2 (lambda = -i hbar)
    assert dp3.terms[(2, ())] == Fraction(3, 20)
    state0 = init_gaussian(0.2, 0.4, 0.8, 0.0, 1.0, 4)
    traj = integrate(field, state0, (0, 8), IntegratorConfig(), t_eval=np.linspace(0, 8, 81))
    drift = np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])
    assert drift < 1e-10


_FAILURE = re.compile(r"^(.*) \(last good time t=(\S+), order (\d+), (.*)\)$")
_NAMES = {"q", "p", "Delta_q2", "Delta_qp", "Delta_p2"}


def _failure_parts(err):
    """(what happened, last good time, order, component) of a failure."""
    match = _FAILURE.match(str(err))
    assert match, str(err)
    head, last, order, component = match.groups()
    assert last == f"{err.last_time:.6g}"
    return head, float(last), int(order), component


def test_step_budget_exhaustion():
    field = _free_field()
    state0 = init_gaussian(0, 0, 1.0, 0.0, 1.0, 2)
    with pytest.raises(IntegrationError) as err:
        integrate(field, state0, (0, 10), IntegratorConfig(max_steps=10))
    head, last, order, component = _failure_parts(err.value)
    assert head == "step budget exhausted (10 evaluations)"
    assert 0 <= last < 10 and order == 2
    # the free Gaussian at rest moves only through Delta(qp)' = Delta(p^2)
    assert component == "largest |dX/dt| 0.25 in Delta_qp"


def _blowup():
    # inverted quadratic: moments blow up in finite time at machine scale
    field = equations_of_motion(PolynomialPotential([0, 0, -8.0]), 2)
    return field, init_gaussian(0.0, 0.0, 1.0, 0.0, 1.0, 2)


def test_non_finite_blowup_reports_last_time():
    field, state0 = _blowup()
    with pytest.raises(IntegrationError) as excinfo:
        integrate(field, state0, (0, 200), IntegratorConfig(rtol=1e-6, atol=1e-9))
    err = excinfo.value
    assert 0 < err.last_time < 200
    message = str(err)
    assert message.startswith("non-finite state at t=")
    assert f"last good time t={err.last_time:.6g}" in message
    assert "order 2" in message
    names = {"q", "p", "Delta_q2", "Delta_qp", "Delta_p2"}
    assert message.rstrip(")").split("first non-finite component ")[1] in names


def test_tableau_is_scipy_dop853():
    """The written-out tableau is scipy's DOP853 entry for entry, zeros
    included: the nodes C, the stage rows A (the update B as row 12, the
    dense output's extra stages as rows 13-15), the error weights E5 and E3
    and the interpolant rows D.  Every row holds only its nonzero entries,
    in stage order, as the generated code and _combine take them."""
    from scipy.integrate import DOP853
    from scipy.integrate._ivp import dop853_coefficients as ref

    from qmoments import dynamics

    def full(row, width):
        out = np.zeros(width)
        out[list(row)] = list(row.values())
        return out

    a = np.array([full(row, 16) for row in dynamics._A])
    assert np.array_equal(a, ref.A) and np.array_equal(dynamics._C, ref.C)
    assert np.array_equal(a[:12, :12], DOP853.A) and np.array_equal(a[12, :12], DOP853.B)
    assert np.array_equal(a[13:], DOP853.A_EXTRA) and np.array_equal(dynamics._C[13:], DOP853.C_EXTRA)
    assert np.array_equal(full(dynamics._E5, 13), DOP853.E5)
    assert np.array_equal(full(dynamics._E3, 13), DOP853.E3)
    assert np.array_equal([full(row, 16) for row in dynamics._D], DOP853.D)
    for row in (*dynamics._A, dynamics._E5, dynamics._E3, *dynamics._D):
        assert all(row.values()) and list(row) == sorted(row)


def test_batch_failures_read_like_the_scalar_ones():
    """A one-state batch fails with the message, and at the last good time,
    of the single-state path."""
    field, state0 = _blowup()
    free_field = _free_field()
    free0 = init_gaussian(0, 0, 1.0, 0.0, 1.0, 2)
    for fld, state, span, cfg in (
        (field, state0, (0, 200), IntegratorConfig(rtol=1e-6, atol=1e-9)),
        (free_field, free0, (0, 10), IntegratorConfig(max_steps=10)),
    ):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntegrationError) as err:
            integrate(fld, state, span, cfg)
        (batch_err,) = integrate(fld, [state], span, cfg)
        assert isinstance(batch_err, IntegrationError)
        ours, theirs = _failure_parts(batch_err), _failure_parts(err.value)
        assert ours[0].split("=")[0] == theirs[0].split("=")[0]
        assert ours[1] == theirs[1] and batch_err.last_time == err.value.last_time
        assert ours[2:] == theirs[2:]


def test_batch_matches_scipy_harmonic():
    """Cells on row arrays take scipy DOP853's steps up to rounding in the
    error norm, land on its end state within the tolerance, and carry their
    own step counts, those of the single-state path, and monitors."""
    from scipy.integrate import solve_ivp

    from qmoments.dynamics import _integrate_batch

    field = equations_of_motion(PolynomialPotential([0, 0, 0.5]), 3)
    states = [init_gaussian(q0, 0.3, 0.8, 0.0, 1.0, 3) for q0 in (0.0, 0.5, 1.5)]
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-11)
    batch = _integrate_batch(field, states, (0, 5), cfg, None)
    for state, traj in zip(states, batch):
        single = integrate(field, state, (0, 5), cfg)
        ref = solve_ivp(
            field.compiled(1.0), (0, 5), state.to_vector(field.layout), method="DOP853", rtol=cfg.rtol, atol=cfg.atol
        )
        assert traj.info["status"] == 0 and traj.times[-1] == single.times[-1] == 5
        assert 0 < traj.info["nfev"] <= batch.info["nfev"]
        assert traj.info == single.info
        assert abs(traj.info["nfev"] - ref.nfev) <= 0.05 * ref.nfev
        assert np.allclose(traj.ys[-1], ref.y[:, -1], rtol=1e-6, atol=1e-8)
        assert np.allclose(traj.energy, traj.energy[0], rtol=1e-8)
        assert traj.casimir[0] == single.casimir[0]


@pytest.mark.parametrize(
    "batch, kwargs, match",
    [
        (False, {"event": lambda t, y: y[0] - 1.0}, "takes no event"),
        (True, {"t_eval": [0.0, 1.0]}, "t_eval"),
        (False, {"t_eval": [0.0, 2.0]}, "^t_eval must lie within t_span$"),
        (False, {"t_eval": [-1.0, 0.5]}, "^t_eval must lie within t_span$"),
    ],
    ids=["event-with-one-state", "t_eval-with-a-batch", "t_eval-past-t1", "t_eval-before-t0"],
)
def test_integrate_refuses_what_its_path_cannot_do(batch, kwargs, match):
    """One state is sampled and takes no event; a batch records its own
    steps and takes no t_eval."""
    field = _free_field()
    state = init_gaussian(0.0, 0.0, 1.0, 0.0, 1.0, 2)
    with pytest.raises(ValueError, match=match):
        integrate(field, [state] if batch else state, (0, 1), IntegratorConfig(), **kwargs)


@pytest.mark.parametrize(
    "settings, t_span, cells, message",
    [
        ({"rtol": 0.0}, (0, 1), None, "tolerances must be positive"),
        ({"atol": -1e-13}, (0, 1), None, "tolerances must be positive"),
        ({"max_steps": 0}, (0, 1), None, "max_steps must be positive"),
        ({}, (1, 1), None, "t_span must have t1 > t0"),
        ({}, (1, 0), None, "t_span must have t1 > t0"),
        # a batch on floats and one on row arrays
        ({}, (1, 0), 1, "t_span must have t1 > t0"),
        ({}, (1, 0), 33, "t_span must have t1 > t0"),
    ],
    ids=["rtol", "atol", "max_steps", "empty-t_span", "reversed-t_span", "reversed-t_span-1-cell",
         "reversed-t_span-33-cells"],
)
def test_integrator_refuses_invalid_settings(settings, t_span, cells, message):
    """The tolerances and the step budget must be positive, and the time
    span must run forward; each refusal says which, for one state or a
    batch of ``cells`` states of any size."""
    field = _free_field()
    state = init_gaussian(0.0, 0.0, 1.0, 0.0, 1.0, 2)
    with pytest.raises(ValueError) as err:
        integrate(field, state if cells is None else [state] * cells, t_span, IntegratorConfig(**settings))
    assert str(err.value) == message


def test_monitors_are_computed_once_at_first_use():
    """``Trajectory.monitors`` is computed from the sample arrays at its
    first use and kept: the drifts relative to the first sample and the
    smallest margin."""
    pot = PolynomialPotential([0, 0, 0.5], mass=1)
    state0 = init_gaussian(0.3, 0.0, 1.0, 0.0, 1.0, 2)
    traj = integrate(equations_of_motion(pot, 2), state0, (0, 3), IntegratorConfig(), t_eval=np.linspace(0, 3, 31))
    assert "monitors" not in vars(traj)
    monitors = traj.monitors
    assert traj.monitors is monitors
    assert monitors == {
        "energy_drift": float(np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])),
        "casimir_drift": float(np.max(np.abs(traj.casimir - traj.casimir[0])) / traj.casimir[0]),
        "margin_min": float(np.min(traj.casimir - 0.25)),
    }


def _term_by_term(expr, positions, hbar, y):
    """``expr`` at ``y`` with every coefficient multiplied in and every term
    added: each term is its coefficient times the left-associated product
    y[i]*y[i]*... of each variable's power, multiplied left to right, and
    the terms are added in sorted key order."""
    total = 0.0
    for n, key in enumerate(sorted(expr.terms)):
        h, vars_ = key
        term = float(hbar_parts(h, expr.terms[key])[0]) * (hbar**h if h else 1.0)
        for var, power in vars_:
            factor = y[positions[var]]
            for _ in range(power - 1):
                factor = factor * y[positions[var]]
            term = term * factor
        total = total + term if n else term
    return total


def test_rhs_on_floats_matches_the_ndarray_call():
    """The generated field and energy, which unpack y into locals, take each
    distinct power once, leave out coefficients of 1.0 and subtract negated
    terms, give the bits of a term-by-term evaluation with every
    coefficient multiplied in, on a list of Python floats and on the ndarray
    it came from, at every order up to the ceiling and at two hbar values."""
    rng = np.random.default_rng(8)
    for coeffs in ([0, 0, 0.5, 0, 0.05], [0, 0, 0.5, -0.1]):
        for order in range(2, 8):
            field = equations_of_motion(PolynomialPotential(coeffs), order)
            for hbar in (1.0, 0.37):
                rhs, energy = field.compiled(hbar), field.energy_function(hbar)
                for y in rng.uniform(-2.0, 2.0, size=(25, len(field.layout))):
                    reference = np.array([_term_by_term(e, field.positions, hbar, y) for e in field.exprs]).tobytes()
                    e_reference = np.float64(_term_by_term(field.heff, field.positions, hbar, y)).tobytes()
                    for arg in (y.tolist(), y):
                        assert np.array(rhs(0.0, arg)).tobytes() == reference, (coeffs, order)
                        assert np.float64(energy(arg)).tobytes() == e_reference, (coeffs, order)


def _dense_output(rhs, t_old, h, y_old, y_new, ks):
    """DOP853's 7th-order interpolant of one step on a one-cell array, with
    _combine's stage sums and the arithmetic of scipy's Dop853DenseOutput:
    the reference for the generated ``dense``."""
    from qmoments.dynamics import _A, _C, _D, _combine

    k = np.concatenate([ks, np.empty((3,) + ks.shape[1:])])
    for s in (13, 14, 15):
        y = y_old + h * _combine(_A[s], k)
        k[s] = np.array(rhs(float(t_old[0] + _C[s] * h[0]), y[:, 0].tolist()))[:, None]
    delta = y_new - y_old
    rows = [delta, h * k[0] - delta, 2 * delta - h * (k[12] + k[0])] + [h * _combine(row, k) for row in _D]

    def interp(t):
        x = (t - t_old) / h
        y = np.zeros_like(y_old)
        for i, row in enumerate(reversed(rows)):
            y += row
            y *= x if i % 2 == 0 else 1 - x
        return y_old + y

    return interp


@pytest.mark.parametrize("coeffs", [[0, 0, 0.5, 0, 0.05], [0.0, 0.0, 0.5, -0.1]], ids=["quartic", "cubic"])
def test_generated_step_has_the_batch_arithmetic_bits(coeffs):
    """One generated DOP853 step on Python floats has the bits of the batch
    step (_step_arrays) on a one-cell array: the new state, all 13 stages
    and the error norm; a sample of its interpolant has the bits of the
    reference _dense_output, and so have the interpolants of all the steps
    built together on row arrays by _dense_rows, sampled twice each.  Each
    is scipy DOP853's step from the same state up to rounding: the new
    state, the error norm of scipy's _estimate_error_norm on our stages and
    a sample of its dense output."""
    from scipy.integrate import DOP853

    from qmoments.dynamics import _HELD, _dense_rows, _dp_dense, _dp_step, _held_stages, _step_arrays

    rng = np.random.default_rng(17)
    cfg = IntegratorConfig()
    for order in range(2, 6):
        field = equations_of_motion(PolynomialPotential(coeffs), order)
        rhs = field.compiled(1.0)
        step, dense = _dp_step(len(field.layout)), _dp_dense(len(field.layout))
        held = []

        def column(t, y, out):
            out[:, 0] = rhs(float(t[0]), y[:, 0].tolist())
            return out

        for y in rng.uniform(-1.0, 1.0, size=(10, len(field.layout))):
            t = float(rng.uniform(0.0, 5.0))
            t_new = t + 0.05
            h = t_new - t
            f = rhs(t, y.tolist())
            y_new, error, ks, probe = step(rhs, t, t_new, y.tolist(), f, h, cfg.atol, cfg.rtol)

            T, H, Y = np.array([t]), np.array([h]), y[:, None]
            F = np.array(f)[:, None]
            Y_new, errors, K = _step_arrays(column, T, np.array([t_new]), Y, F, H, cfg.atol, cfg.rtol)
            assert np.array(y_new).tobytes() == Y_new[:, 0].tobytes()
            assert np.array(ks).tobytes() == K[..., 0].tobytes()
            assert np.array([error]).tobytes() == errors.tobytes()
            assert math.isfinite(probe)
            t_mid = t + 0.37 * h
            at = dense(rhs, t, h, y.tolist(), y_new, _held_stages(ks))
            interp = _dense_output(rhs, T, H, Y, Y_new, K)
            reference = interp(np.array([t_mid]))
            assert np.array(at(t_mid)).tobytes() == reference[:, 0].tobytes()
            t_late = t + 0.91 * h
            held.append((t, h, y, y_new, ks, [at(t_mid), at(t_late)], [reference, interp(np.array([t_late]))]))

            ref = DOP853(rhs, t, y, t + 1.0, rtol=cfg.rtol, atol=cfg.atol, first_step=h)
            ref.step()
            assert ref.t == t_new
            size = np.max(np.abs(ref.K), axis=0)
            assert np.all(np.abs(np.array(ks) - ref.K) <= 2e-13 * size)
            assert np.allclose(y_new, ref.y, rtol=1e-13, atol=1e-16)
            assert np.allclose(at(t_mid), ref.dense_output()(t_mid), rtol=1e-12, atol=1e-16)
            # the estimates cancel the stages down to about 1e-11 of their
            # size, so two summation orders agree to about 1e-5 of the norm
            scale = cfg.atol + np.maximum(np.abs(y), np.abs(y_new)) * cfg.rtol
            assert error == pytest.approx(DOP853._estimate_error_norm(DOP853, K[..., 0], h, scale), rel=1e-4)

        # one column per step, sampled twice each: at t_mid, then at t_late
        ks = np.empty((16, len(field.layout), len(held)))
        ks[_HELD] = np.array([np.array(c[4])[_HELD] for c in held]).transpose(1, 2, 0)
        t_old, h, y, y_new = (np.array([c[i] for c in held]).T for i in range(4))
        at = _dense_rows(rhs, t_old, h, y, y_new, ks)
        times = np.array([c[0] + r * c[1] for r in (0.37, 0.91) for c in held])
        rows = at(times, np.arange(len(times)) % len(held))
        floats = np.array([c[5][i] for i in (0, 1) for c in held]).T
        references = np.array([c[6][i][:, 0] for i in (0, 1) for c in held]).T
        assert rows.tobytes() == floats.tobytes() == references.tobytes()


def test_single_path_agrees_with_solve_ivp_and_a_one_cell_batch():
    """A whole run takes scipy DOP853's steps up to rounding in the step-size
    factors: the evaluation count within 5% and the samples within rel 1e-8
    of solve_ivp, and the bytes of a one-cell batch."""
    from scipy.integrate import solve_ivp

    field = equations_of_motion(PolynomialPotential([0, 0, 0.5, 0, 0.05]), 5)
    state0 = init_gaussian(0.17, 0.5, 0.7, order=5)
    t_eval = np.linspace(0.0, 2.0, 21)
    cfg = IntegratorConfig()
    traj = integrate(field, state0, (0.0, 2.0), cfg, t_eval=t_eval)
    ref = solve_ivp(
        field.compiled(1.0),
        (0.0, 2.0),
        state0.to_vector(field.layout),
        method="DOP853",
        rtol=cfg.rtol,
        atol=cfg.atol,
        t_eval=t_eval,
    )
    assert abs(traj.info["nfev"] - ref.nfev) <= 0.05 * ref.nfev
    assert np.array_equal(traj.times, ref.t)
    size = np.max(np.abs(ref.y), axis=1)
    assert np.all(np.abs(traj.ys - ref.y.T) <= 1e-8 * size)

    single = integrate(field, state0, (0.0, 2.0), cfg)
    (batch,) = integrate(field, [state0], (0.0, 2.0), cfg)
    assert single.times[-1] == batch.times[-1] == 2.0
    assert single.times.tobytes() == batch.times.tobytes() and single.ys.tobytes() == batch.ys.tobytes()


def test_anharmonic_order5_run_takes_dop853_steps():
    """The anharmonic order-5 run of the benchmark (quartic V, t in [0, 20],
    201 samples, the default tolerances) takes 244 DOP853 steps, 19 of them
    rejected: 2 rhs calls choose the first step, each step makes 12, and
    each of the 198 steps that hold samples makes 3 more for its
    interpolant.  The run keeps its energy to 1e-11."""
    field = equations_of_motion(PolynomialPotential([0, 0, 0.5, 0, 0.05]), 5)
    state0 = init_gaussian(0.17, 0.5, 0.7, order=5)
    traj = integrate(field, state0, (0.0, 20.0), IntegratorConfig(), t_eval=np.linspace(0.0, 20.0, 201))
    assert traj.info == {"status": 0, "nfev": 2 + 12 * 244 + 3 * 198, "naccept": 225, "nreject": 19}
    assert np.max(np.abs(traj.energy - traj.energy[0])) < 1e-11 * abs(traj.energy[0])


@pytest.mark.parametrize("order", [2, 3, 4])
def test_cells_on_floats_have_the_bytes_of_the_array_batch(order):
    """A batch run one cell at a time on Python floats and the same batch
    on row arrays give every cell the same bytes, on a grid below
    _MAX_FLOAT_CELLS cells and on one above: the times, states, energy and
    info of each Trajectory, and the message and last good time of each
    failure.  Cells cross the event, run out of max_steps (q0 = 1e50, and
    q0 = 1e153, whose squared error estimates overflow), go non-finite
    within a step (q0 = p0 = 1e100 at order 4) and at the first evaluation
    (q0 = 1e160)."""
    from qmoments.dynamics import _MAX_FLOAT_CELLS, _integrate_batch, _integrate_cells

    field = equations_of_motion(PolynomialPotential([0, 0, 0.5, -0.1]), order)
    small = [(q0, p0) for q0 in (0.1, 0.2, 0.3) for p0 in (0.3, 0.9, 1.6)]
    small += [(1e50, 0.0), (1e153, 0.0), (1e100, 1e100), (1e160, 0.0)]
    large = small + [(q0, p0) for q0 in np.linspace(-0.5, 0.5, 6) for p0 in np.linspace(0.2, 2.0, 5)]
    assert len(small) <= _MAX_FLOAT_CELLS < len(large)
    cfg = IntegratorConfig(rtol=1e-6, atol=1e-9, max_steps=2000)

    def crossed(t, y):
        return y[0] - 3.5

    for cells in (small, large):
        states = [init_gaussian(q0, p0, 0.7, order=order) for q0, p0 in cells]
        with np.errstate(all="ignore"):
            arrays = _integrate_batch(field, states, (0.0, 30.0), cfg, crossed)
            floats = _integrate_cells(field, states, (0.0, 30.0), cfg, crossed)
        outcomes = set()
        for ours, theirs in zip(floats, arrays):
            if isinstance(theirs, IntegrationError):
                assert isinstance(ours, IntegrationError)
                assert str(ours) == str(theirs) and ours.last_time == theirs.last_time
                outcomes.add(str(ours).split(" ")[0])
            else:
                for name in ("times", "ys", "energy"):
                    assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes(), name
                assert ours.info == theirs.info
                outcomes.add(ours.info["status"])
        assert len(floats) == len(arrays) == len(cells)
        assert outcomes >= {1, "step", "non-finite"}, outcomes
        finished = [traj for traj in floats if not isinstance(traj, IntegrationError)]
        assert floats.info["nfev"] == sum(traj.info["nfev"] for traj in finished)


def test_float_batch_counts_every_rhs_call():
    """A float batch whose cells all finish, at t1 or at the event's root,
    reports exactly the right-hand-side calls it made: those of the steps,
    of the interpolants and of the root bisections."""
    field = equations_of_motion(PolynomialPotential([0, 0, 0.5, -0.1]), 2)
    calls = []

    def count(rhs):
        def counted(t, y):
            calls.append(t)
            return rhs(t, y)

        return counted

    def crossed(t, y):
        return y[0] - 3.5

    states = [init_gaussian(q0, p0, 0.7, order=2) for q0 in (0.1, 0.3) for p0 in (0.3, 1.6)]
    cfg = IntegratorConfig(rtol=1e-6, atol=1e-9)
    batch = integrate(_Wrapped(field, count), states, (0.0, 30.0), cfg, event=crossed)
    assert {traj.info["status"] for traj in batch} == {0, 1}
    assert batch.info["nfev"] == len(calls) == sum(traj.info["nfev"] for traj in batch)


def test_overflowing_error_norm_steps_on_alike_on_both_paths():
    """Far out on the cubic the squares of the scaled error estimates
    overflow.  The norm is then taken on the estimates over their largest
    magnitude, so the runs step on until the budget is spent, where inf/inf
    used to reject every step down to the spacing of t.  A blow-up with
    budget to spare still ends below the smallest step.  Each failure reads
    the same on floats and on row arrays."""
    from qmoments.dynamics import _integrate_batch, _integrate_cells

    field = equations_of_motion(PolynomialPotential([0, 0, 0.5, -0.1]), 2)
    cfg = IntegratorConfig(rtol=1e-6, atol=1e-9, max_steps=2000)
    states = [init_gaussian(q0, 0.0, 1.0, order=2) for q0 in (1e100, 1e153)]
    with np.errstate(all="ignore"):
        floats = _integrate_cells(field, states, (0.0, 10.0), cfg, None)
        arrays = _integrate_batch(field, states, (0.0, 10.0), cfg, None)
    for ours, theirs in zip(floats, arrays):
        assert isinstance(ours, IntegrationError) and isinstance(theirs, IntegrationError)
        assert str(ours) == str(theirs) and ours.last_time == theirs.last_time
        head, last, order, _ = _failure_parts(ours)
        assert head == "step budget exhausted (2000 evaluations)" and last > 1e-300 and order == 2
    blowup = equations_of_motion(PolynomialPotential([0, 0, 0.5, -1.0]), 2)
    state = [init_gaussian(1.0, 0.0, 0.7, order=2)]
    cfg = IntegratorConfig(rtol=1e-6, atol=1e-9, max_steps=20000)
    with np.errstate(all="ignore"):
        ours = _integrate_cells(blowup, state, (0.0, 30.0), cfg, None)[0]
        theirs = _integrate_batch(blowup, state, (0.0, 30.0), cfg, None)[0]
    assert isinstance(ours, IntegrationError) and isinstance(theirs, IntegrationError)
    assert str(ours) == str(theirs) and ours.last_time == theirs.last_time
    assert _failure_parts(ours)[0] == "Required step size is less than spacing between numbers."


def test_overflowed_norm_keeps_the_norm_of_non_finite_estimates():
    """A step whose scaled error estimates are themselves infinite keeps
    the norm it was given, scipy's h e5^2 / sqrt((e5^2 + 0.01 e3^2) n): 0
    when only the 3rd-order estimate is infinite, nan when the 5th-order
    one is.  No moment field of a config was found to get there; both
    integrator paths call this one function."""
    from qmoments.dynamics import _overflowed_norm

    h = 0.1
    with np.errstate(invalid="ignore"):
        zero = float(h * 5.0 / np.sqrt((5.0 + 0.01 * np.inf) * 2))
        nan = float(h * np.inf / np.sqrt((np.inf + 0.01 * 1.0) * 2))
    assert zero == 0.0 and math.isnan(nan)
    assert _overflowed_norm(h, [1.0, 2.0], [math.inf, 0.0], zero) == 0.0
    assert math.isnan(_overflowed_norm(h, [math.inf, 1.0], [1.0, 0.0], nan))


def test_generated_code_takes_no_powers():
    """Every power in the generated field and energy is a product, never
    ``**``: the compiled functions hold no power operation, at every order
    up to the ceiling."""
    import dis

    for coeffs in ([0, 0, 0.5, 0, 0.05], [0, 0, 0.5, -0.1]):
        for order in range(2, 8):
            field = equations_of_motion(PolynomialPotential(coeffs), order)
            for fn in (field.compiled(1.0), field.energy_function(1.0)):
                ops = [ins for ins in dis.get_instructions(fn) if ins.opname.startswith("BINARY")]
                assert ops and not any("POWER" in ins.opname or ins.argrepr.startswith("**") for ins in ops)


class _Wrapped:
    """A field whose generated rhs is passed through ``wrap``."""

    def __init__(self, field, wrap):
        self.layout, self._field, self._wrap = field.layout, field, wrap

    def compiled(self, hbar):
        return self._wrap(self._field.compiled(hbar))

    def energy_function(self, hbar):
        return self._field.energy_function(hbar)


def test_mid_step_blowup_names_the_evaluation_a_per_call_check_names():
    """A step whose eighth evaluation is the first non-finite one fails at
    that evaluation's time, with the evaluation before it as the last good
    time, as a check of every call in order finds them."""
    field, state0 = _blowup()
    calls = []

    def record(rhs):
        def recorded(t, y):
            out = rhs(t, y)
            calls.append((t, all(map(math.isfinite, out))))
            return out

        return recorded

    with pytest.raises(IntegrationError) as err:
        integrate(_Wrapped(field, record), state0, (0, 200), IntegratorConfig(rtol=1e-6, atol=1e-9))
    first_bad = next(i for i, (_, finite) in enumerate(calls) if not finite)
    # two calls choose the first step, then twelve per step
    assert (first_bad - 2) % 12 == 7
    head, last, order, component = _failure_parts(err.value)
    assert head == f"non-finite state at t={calls[first_bad][0]:.6g}"
    assert err.value.last_time == calls[first_bad - 1][0]
    assert order == 2 and component.removeprefix("first non-finite component ") in _NAMES


def test_float_power_overflow_reads_like_float64():
    """A product past the float range is inf on Python floats as on
    float64: the energy reads inf.  (A blow-up through q*q*q is the subject
    of the next test.)"""
    sextic = equations_of_motion(PolynomialPotential([0] * 6 + [1e-300]), 2)
    with np.errstate(over="ignore"):
        traj = integrate(sextic, init_gaussian(1e52, 0.0, 1.0, order=2), (0, 1e-3), IntegratorConfig())
    assert np.isfinite(traj.ys).all() and np.isinf(traj.energy).all()


def test_float_power_overflow_reads_like_float64_in_adaptive_steps():
    """The adaptive path's twin: a step whose q*q*q overflows to inf on
    floats fails with the message of a run whose field sees only float64
    values."""
    field = equations_of_motion(PolynomialPotential([0, 0, 0, 0, -1.0]), 2)
    state0 = init_gaussian(1e3, 1.0, 0.5, order=2)
    cfg = IntegratorConfig(rtol=1e3, atol=1e3)
    calls, overflows = [], []

    def on_floats(rhs):
        def call(t, y):
            calls.append(t)
            try:
                return rhs(t, y)
            except OverflowError:
                overflows.append(len(calls) - 1)
                raise

        return call

    def on_float64(rhs):
        return lambda t, y: rhs(t, np.array(y))

    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError) as err:
            integrate(_Wrapped(field, on_floats), state0, (0, 100), cfg)
        with pytest.raises(IntegrationError) as ref:
            integrate(_Wrapped(field, on_float64), state0, (0, 100), cfg)
    assert str(err.value) == str(ref.value) and err.value.last_time == ref.value.last_time
    head, last, order, component = _failure_parts(err.value)
    assert head.startswith("non-finite state at t=") and 0 < last
    assert component == "first non-finite component p"


def test_trajectory_requires_increasing_times():
    with pytest.raises(ValueError):
        Trajectory(
            [0.0, 0.0, 1.0],
            np.zeros((3, 5)),
            (("q", 0), ("p", 0), ("D", single(2, 0)), ("D", single(1, 1)), ("D", single(0, 2))),
            0.25,
            np.zeros(3),
        )


def test_csv_export_schema(tmp_path):
    field = _free_field(order=3)
    state0 = init_gaussian(0, 0, 1.0, 0.0, 1.0, 3)
    traj = integrate(field, state0, (0, 1), IntegratorConfig(), t_eval=np.linspace(0, 1, 5))
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "t,q,p,Delta_q2,Delta_qp,Delta_p2,Delta_q3,Delta_q2p,Delta_qp2,Delta_p3,"
        "energy,casimir,margin"
    )
    assert len(lines) == 6
    assert all(len(line.split(",")) == 13 for line in lines[1:])
    # every state column by its CSV name, and nothing else
    header = lines[0].split(",")
    written = dict(zip(header, zip(*([float(x) for x in line.split(",")] for line in lines[1:]))))
    for name in header[1:-3]:
        assert traj.column(name).tolist() == list(written[name]), name
    for bad in (("D", single(2, 0)), ("q", 0), "Delta_q4", "t", "energy"):
        with pytest.raises(ValueError):
            traj.column(bad)


def test_write_table_bytes_match_per_value_formatting(tmp_path):
    """Rows like the sweep grid's (figures, a string cell, nan error cells)
    and every kind of figure a table holds are written as per-value
    f"{v:.17g}", with string cells as they are."""
    rows = [
        (0.05, 0.6, "trapped", 0.1 + 0.2, 40.0, 1e-300, -5e-324),
        (0.6, 1.8, "error", math.nan, math.nan, math.nan, math.nan),
        (-0.0, math.inf, "bypassed", -math.inf, 3, True, np.float64(1) / 3),
        [np.float32(0.1), np.int64(-7), "", 10**20, False, 2.0**-1074, 1.7976931348623157e308],
        ("a", "b", "c", "d", "e", "f", "g"),
    ]
    path = tmp_path / "table.csv"
    write_table(path, ("q0", "energy", "classification", "max_q", "t", "drift", "casimir"), iter(rows))
    expected = "q0,energy,classification,max_q,t,drift,casimir\n" + "".join(
        ",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) + "\n" for row in rows
    )
    assert path.read_bytes() == expected.encode()


def _windowed_rhs(t_star, width, kind, later=None):
    """The harmonic oscillator, on floats or row arrays, failing only within
    ``width`` of ``t_star``: a nan in q, or a ValueError; past ``later`` it
    raises a RuntimeError."""

    def rhs(t, y):
        q, p = y
        if later is not None and np.any(np.asarray(t) > later):
            raise RuntimeError("later failure")
        hit = np.abs(np.asarray(t) - t_star) < width
        if np.any(hit):
            if kind == "raise":
                raise ValueError(f"rhs undefined at t={t}")
            return [np.where(hit, math.nan, p)[()], -q]
        return [p, -q]

    return rhs


@pytest.mark.parametrize("later", [None, 0.5], ids=["alone", "then-later-failure"])
@pytest.mark.parametrize(
    "kind, error, message",
    [
        (
            "nan",
            IntegrationError,
            "non-finite state at t=9.99001e-05 (last good time t=0.000999001, order 2, first non-finite component q)",
        ),
        ("raise", ValueError, "rhs undefined at t=9.99000999000999e-05"),
    ],
)
def test_sampled_interpolant_failure_reads_as_when_it_is_met(kind, error, message, later):
    """The first step of a harmonic run (h = 0.000999...) holds the sample at
    t = 0; a rhs that fails only near its interpolant's first extra stage,
    t0 + 0.1h, fails the run there, with the message of that evaluation
    checked as it is met: a non-finite q, or the rhs's own ValueError.  A
    later failure of the run (past t = 0.5) does not hide it."""
    from qmoments.dynamics import integrate_one

    layout, cfg, y0 = [("q",), ("p",)], IntegratorConfig(), np.array([1.0, 0.0])
    times, _, _ = integrate_one(_windowed_rhs(-1.0, 0.0, kind), y0, (0.0, 2.0), cfg, None, layout, 2)
    h = times[1] - times[0]
    assert h == 0.000999000999000999
    rhs = _windowed_rhs(0.1 * h, 1e-3 * h, kind, later)
    with pytest.raises(error) as excinfo:
        integrate_one(rhs, y0, (0.0, 2.0), cfg, np.linspace(0.0, 2.0, 5), layout, 2)
    assert type(excinfo.value) is error and str(excinfo.value) == message
    if error is IntegrationError:
        assert excinfo.value.last_time == h


def test_rhs_on_floats_alone_samples_a_run_alike():
    """A rhs that refuses row arrays still samples a run, its interpolants
    built one step at a time on floats, with the same bytes and count."""
    from qmoments.dynamics import integrate_one

    field = equations_of_motion(PolynomialPotential([0, 0, 0.5, 0, 0.05]), 3)
    rhs = field.compiled(1.0)

    def floats_only(t, y):
        if isinstance(t, np.ndarray):
            raise TypeError("floats only")
        return rhs(t, y)

    y0 = init_gaussian(0.17, 0.5, 0.7, order=3).to_vector(field.layout)
    runs = [
        integrate_one(f, y0, (0.0, 20.0), IntegratorConfig(), np.linspace(0.0, 20.0, 401), field.layout, 3)
        for f in (rhs, floats_only)
    ]
    (times, ys, info), (times_f, ys_f, info_f) = runs
    assert times.tobytes() == times_f.tobytes() and ys.tobytes() == ys_f.tobytes() and info == info_f


def test_sampled_run_compiles_no_float_interpolant():
    """A sampled run whose interpolants all build on row arrays compiles
    only the generated step; the float interpolant waits for a run that
    needs it, here a failing one."""
    from qmoments.dynamics import _dp_dense

    field = _free_field()
    state0 = init_gaussian(0.0, 0.3, 1.0, 0.0, 1.0, 2)
    _dp_dense.cache_clear()
    integrate(field, state0, (0.0, 2.0), IntegratorConfig(), t_eval=np.linspace(0.0, 2.0, 11))
    assert _dp_dense.cache_info().currsize == 0
    with pytest.raises(IntegrationError, match="step budget exhausted"):
        integrate(field, state0, (0.0, 2.0), IntegratorConfig(max_steps=15), t_eval=np.linspace(0.0, 2.0, 11))
    assert _dp_dense.cache_info().currsize == 1
