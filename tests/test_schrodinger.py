"""Padé (2,2) propagation and moment extraction from wavefunctions."""

import itertools
import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from qmoments import schrodinger
from qmoments.casimir_darboux import free_particle_s
from qmoments.dynamics import init_gaussian
from qmoments.effective_hamiltonian import PolynomialPotential
from qmoments.indices import iter_indices, single
from qmoments.scenarios import MAX_ORDER, ORACLE_DEFAULTS, resolve_config, wavefunction_trajectory
from qmoments.schrodinger import (
    AccuracyWarning,
    BoundaryContactWarning,
    Grid,
    ResolutionError,
    energy_expectation,
    evolve,
    gaussian_wavepacket,
    moments_from_wavefunction,
)

FREE = PolynomialPotential([], mass=1)
HARMONIC = PolynomialPotential([0, 0, 0.5], mass=1)
QUARTIC = PolynomialPotential([0, 0, 0.5, 0, 0.05], mass=1)
CUBIC = PolynomialPotential([0, 0, 0.5, -0.1], mass=1)
# roots of the Padé (2,2) denominator 1 + z/2 + z^2/12, in the stage order
ROOTS = (complex(-3.0, math.sqrt(3.0)), complex(-3.0, -math.sqrt(3.0)))


def _pade_reference(potential, wf, dt, steps, stages):
    """``steps`` steps of ``stages``, each a per-step banded solve of
    (M + a K) psi' = (M + b K) psi for its pair (a, b), with
    M = tridiag(1, 10, 1)/12 and K = -kin delta^2 + M diag(V)."""
    grid = wf.grid
    n = grid.n_points
    v = potential.value(grid.x)
    kin = wf.hbar**2 / (2.0 * wf.mass * grid.dx**2)
    # rows of K and M in solve_banded's layout: upper, main, lower
    k = np.zeros((3, n))
    k[0, 1:] = -kin + v[1:] / 12.0
    k[1, :] = 2.0 * kin + v * (10.0 / 12.0)
    k[2, :-1] = -kin + v[:-1] / 12.0
    m = np.zeros((3, n))
    m[0, 1:] = m[2, :-1] = 1.0 / 12.0
    m[1, :] = 10.0 / 12.0
    psi = wf.values.copy()
    for _ in range(steps):
        for a, b in stages:
            rhs_bands = m + b * k
            rhs = rhs_bands[1] * psi
            rhs[:-1] += rhs_bands[0, 1:] * psi[1:]
            rhs[1:] += rhs_bands[2, :-1] * psi[:-1]
            psi = solve_banded((1, 1), m + a * k, rhs)
    return schrodinger.WaveFunction(grid, psi, wf.hbar, wf.mass)


def _energy_reference(wf, potential):
    """<H_N> of ``wf`` built from scratch: -kin M^-1 (delta^2 psi) + V psi
    with kin = hbar^2 / (2 m dx^2), delta^2 psi by neighbour sums, V on the
    grid and M^-1 one real ``solve_banded`` with M = tridiag(1, 10, 1)/12."""
    psi = wf.values
    kin = wf.hbar**2 / (2.0 * wf.mass * wf.grid.dx**2)
    lap = -2.0 * psi
    lap[:-1] += psi[1:]
    lap[1:] += psi[:-1]
    m = np.full((3, psi.size), 1.0 / 12.0)
    m[1] = 10.0 / 12.0
    re_im = solve_banded((1, 1), m, np.column_stack((lap.real, lap.imag)))
    hpsi = -kin * (re_im[:, 0] + 1j * re_im[:, 1]) + potential.value(wf.grid.x) * psi
    return float(np.trapezoid(np.conj(psi) * hpsi, dx=wf.grid.dx).real)


def _moments_reference(wf, order):
    """(q0, p0, Weyl moments up to ``order``) of ``wf`` built from scratch:
    Delta(q^a p^b) is the mean of <psi| w |psi> / <psi|psi> over every
    distinct word w of a factors (q - q0) and b factors (p - p0), applied
    right to left, with p = -i hbar d/dx by FFT and each integral an
    ``np.trapezoid`` of its own integrand."""
    psi, x, dx = wf.values, wf.grid.x, wf.grid.dx
    norm = np.trapezoid(np.abs(psi) ** 2, dx=dx)
    q0 = np.trapezoid(x * np.abs(psi) ** 2, dx=dx) / norm
    hk = wf.hbar * 2.0 * np.pi * np.fft.fftfreq(psi.size, dx)
    p0 = np.trapezoid(np.conj(psi) * np.fft.ifft(hk * np.fft.fft(psi)), dx=dx).real / norm
    factor = {"q": lambda f: (x - q0) * f, "p": lambda f: np.fft.ifft((hk - p0) * np.fft.fft(f))}
    moments = {}
    for idx in iter_indices(order, 1):
        a, b = idx[0]
        words = set(itertools.permutations("q" * a + "p" * b))
        total = 0j
        for word in words:
            f = psi
            for letter in reversed(word):
                f = factor[letter](f)
            total += np.trapezoid(np.conj(psi) * f, dx=dx) / norm
        moments[idx] = (total / len(words)).real
    return q0, p0, moments


def _norm_drift(propagate, steps=10_000):
    """|norm - 1| of the harmonic ground state after ``steps`` steps of
    dt = 1e-3 on 1024 points."""
    wf = gaussian_wavepacket(Grid(-16, 16, 1024), 0.0, 0.0, 1.0)
    return abs(propagate(HARMONIC, wf, 1e-3, steps).norm - 1.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(-5, 5, 32)
    with pytest.raises(ValueError):
        Grid(5, -5, 128)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda grid: schrodinger.WaveFunction(grid, np.ones(grid.n_points - 1)), "amplitude array does not match the grid"),
        (lambda grid: gaussian_wavepacket(grid, 0.0, 0.0, 0.0), "sigma must be positive"),
        (lambda grid: evolve(HARMONIC, gaussian_wavepacket(grid, 0.0, 0.0, 1.0), 0.0, 1), "dt must be positive and steps non-negative"),
        (lambda grid: evolve(HARMONIC, gaussian_wavepacket(grid, 0.0, 0.0, 1.0), 1e-3, -1), "dt must be positive and steps non-negative"),
    ],
    ids=["amplitudes-off-grid", "zero-width", "zero-dt", "negative-steps"],
)
def test_wavefunction_inputs_are_refused_by_name(make, message):
    with pytest.raises(ValueError) as err:
        make(Grid(-10, 10, 256))
    assert str(err.value) == message


def test_gaussian_packet_norm_and_width():
    grid = Grid(-20, 20, 2048)
    wf = gaussian_wavepacket(grid, 0.0, 0.0, 1.0)
    assert wf.norm == pytest.approx(1.0, abs=1e-12)
    state, _ = moments_from_wavefunction(wf, 2)
    assert state.moments[single(2, 0)] == pytest.approx(1.0, rel=1e-9)


def test_gaussian_packet_centers():
    grid = Grid(-20, 20, 2048)
    wf = gaussian_wavepacket(grid, 1.3, 0.0, 1.0)
    state, _ = moments_from_wavefunction(wf, 2)
    assert state.q == pytest.approx(1.3, abs=1e-10)


def test_gaussian_packet_resolution_guard():
    grid = Grid(-20, 20, 128)  # dx ~ 0.31
    with pytest.raises(ResolutionError):
        gaussian_wavepacket(grid, 0.0, 0.0, 1.0)


def test_translation_covariance_of_central_moments():
    """A momentum boost moves p but leaves the central moments alone: the
    spectral momentum shifts exactly, so only rounding is left."""
    grid = Grid(-20, 20, 4096)
    rest, _ = moments_from_wavefunction(gaussian_wavepacket(grid, 0, 0.0, 1.0), 2)
    boosted, _ = moments_from_wavefunction(gaussian_wavepacket(grid, 0, 1.7, 1.0), 2)
    assert boosted.p == pytest.approx(1.7, rel=1e-12)
    for idx in (single(2, 0), single(1, 1), single(0, 2)):
        assert boosted.moments[idx] == pytest.approx(rest.moments[idx], abs=1e-12)


def test_extraction_matches_init_gaussian():
    """Every Weyl moment of a Gaussian at orders 2..7, on the oracle-diff
    interval at 512 and 1024 points, equals the Wick moments of
    ``init_gaussian`` to 1e-10; the quality metric stays at rounding."""
    for n_points in (512, 1024):
        wf = gaussian_wavepacket(Grid(-12, 12, n_points), 0.5, 0.3, 0.7)
        for order in range(2, MAX_ORDER + 1):
            state, quality = moments_from_wavefunction(wf, order)
            ref = init_gaussian(0.5, 0.3, 0.7, 0.0, 1.0, order)
            assert state.q == pytest.approx(0.5, abs=1e-12)
            assert state.p == pytest.approx(0.3, abs=1e-12)
            assert state.moments.keys() == ref.moments.keys()
            for idx in ref.moments:
                assert state.moments[idx] == pytest.approx(ref.moments[idx], rel=1e-10, abs=1e-10)
            assert quality < 1e-12


@pytest.mark.parametrize("steps", [0, 50], ids=["gaussian", "evolved-quartic"])
def test_extraction_matches_reference(steps):
    """Extraction at orders 2-7 agrees with the symmetrized-word reference
    within 1e-13 x max(1, |value|) on every component, for a Gaussian
    (q0 0.5, p0 0.4) and for it after 50 steps under a quartic V."""
    cfg = resolve_config({}, "oracle-diff")
    wf = gaussian_wavepacket(Grid(cfg["x_min"], cfg["x_max"], cfg["grid_points"]), 0.5, 0.4, cfg["sigma"])
    wf = evolve(QUARTIC, wf, cfg["dt"], steps)
    q0, p0, reference = _moments_reference(wf, 7)
    for order in range(2, 8):
        state, _ = moments_from_wavefunction(wf, order)
        assert set(state.moments) == set(iter_indices(order, 1))
        got = {"q": state.q, "p": state.p, **state.moments}
        for key, want in {"q": q0, "p": p0, **reference}.items():
            if key in got:
                assert abs(got[key] - want) <= 1e-13 * max(1.0, abs(want)), (order, key)


def test_extraction_quality_on_reference_grid():
    """Imaginary residue of the covariance extraction after free evolution:
    with the spectral momentum it stays at rounding."""
    grid = Grid(-20, 20, 4096)
    wf = gaussian_wavepacket(grid, 0.0, 0.0, 1.0)
    wf = evolve(FREE, wf, 1e-3, 500)
    _, quality = moments_from_wavefunction(wf, 2)
    assert quality < 1e-12


def test_extraction_order_cap():
    grid = Grid(-20, 20, 2048)
    wf = gaussian_wavepacket(grid, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        moments_from_wavefunction(wf, MAX_ORDER + 1)


def test_extraction_warns_on_low_accuracy():
    """A packet the walls cut (2 sigma from the edge) and one centred on the
    grid's Nyquist momentum are not resolved; the default tolerance flags
    both."""
    grid = Grid(-10, 10, 256)
    cut = gaussian_wavepacket(grid, 8.0, 0.0, 1.0)
    aliased = gaussian_wavepacket(grid, 0.0, math.pi / grid.dx, 1.0)
    for wf in (cut, aliased):
        with pytest.warns(AccuracyWarning):
            moments_from_wavefunction(wf, 4)


def test_free_spreading_matches_closed_form():
    """The free packet's width follows free_particle_s to 1e-6 at every
    half time unit on the default 1024-point grid."""
    grid = Grid(-20, 20, resolve_config({}, "free", ORACLE_DEFAULTS)["grid_points"])
    assert grid.n_points == 1024
    wf = gaussian_wavepacket(grid, 0.0, 0.0, 1.0)
    for t in (0.5, 1.0, 1.5, 2.0):
        wf = evolve(FREE, wf, 1e-3, 500)
        state, _ = moments_from_wavefunction(wf, 2)
        expected = free_particle_s(t, 1.0, 0.25, 1.0)
        assert math.sqrt(state.moments[single(2, 0)]) == pytest.approx(expected, rel=1e-6)


def _harmonic_packet_errors(dt, t_values):
    """Largest error of q, p and the second moments of the squeezed packet
    q0 = 0.5, p0 = 0.3, sigma = 0.7 on the default oracle-diff grid
    ([-12, 12], 1024 points) against the exact harmonic solution
    q(t) = q0 cos t + p0 sin t, Delta(q^2)(t) = sigma^2 cos^2 t + sin^2 t / (4 sigma^2)
    and so on, at each of ``t_values`` (whole multiples of dt)."""
    cfg = resolve_config({}, "oracle-diff")
    grid = Grid(cfg["x_min"], cfg["x_max"], cfg["grid_points"])
    q0, p0, sigma = 0.5, 0.3, 0.7
    a, b = sigma**2, 1.0 / (4.0 * sigma**2)
    wf, t_now, errors = gaussian_wavepacket(grid, q0, p0, sigma), 0.0, []
    for t in t_values:
        wf = evolve(HARMONIC, wf, dt, int(round((t - t_now) / dt)))
        t_now = t
        state, _ = moments_from_wavefunction(wf, 2)
        c, s = math.cos(t), math.sin(t)
        exact = {
            "q": (state.q, q0 * c + p0 * s),
            "p": (state.p, p0 * c - q0 * s),
            "Delta_q2": (state.moments[single(2, 0)], a * c**2 + b * s**2),
            "Delta_qp": (state.moments[single(1, 1)], (b - a) * s * c),
            "Delta_p2": (state.moments[single(0, 2)], a * s**2 + b * c**2),
        }
        errors.append(max(abs(got - want) for got, want in exact.values()))
    return errors


def test_harmonic_packet_follows_the_exact_solution():
    """At the default dt a squeezed harmonic packet follows the exact
    solution to 1e-6 at every half time unit."""
    dt = resolve_config({}, "oracle-diff")["dt"]
    assert max(_harmonic_packet_errors(dt, (0.5, 1.0, 1.5, 2.0))) <= 1e-6


def test_harmonic_packet_error_is_fourth_order_in_dt():
    """Against the exact solution at t = 2, halving dt from 0.1 to 0.05
    divides the error by 16 (15.9 measured): the step is fourth order and
    the spatial error is far below the time error at these steps."""
    (coarse,), (fine,) = (_harmonic_packet_errors(dt, (2.0,)) for dt in (0.1, 0.05))
    assert coarse / fine == pytest.approx(16.0, rel=0.03)


def test_unitarity_norm_drift():
    assert _norm_drift(evolve) <= 1e-10


def test_swapped_stage_roots_break_unitarity(monkeypatch):
    """A stage is unitary because its right-hand side takes the conjugate
    of its own coefficient c.  With the two stages' roots swapped on the
    right, conj(c2) = -c1 makes a stage (M + c1 K) psi' = (M - c1 K) psi,
    whose norm the unitarity check catches.  The swapped stages multiply
    to the same Padé approximant, so a whole step keeps its norm either
    way: the check is made one stage at a time.  ``evolve`` run with the
    first root alone keeps its norm and differs from the two-stage step on
    the same potential, grid and dt."""
    c1, c2 = (-1j * 1e-3 / r for r in ROOTS)

    def swapped(*stages):
        return lambda potential, wf, dt, steps: _pade_reference(potential, wf, dt, steps, stages)

    wf = gaussian_wavepacket(Grid(-16, 16, 1024), 0.0, 0.0, 1.0)
    both = evolve(HARMONIC, wf, 1e-3, 500)
    monkeypatch.setattr(schrodinger, "PADE_ROOTS", ROOTS[:1])  # evolve's first stage alone
    first = evolve(HARMONIC, wf, 1e-3, 500)
    # the same potential, grid and dt: the stage factors follow the roots
    assert np.max(np.abs(first.values - both.values)) > 1e-3
    assert abs(first.norm - 1.0) <= 1e-10
    assert _norm_drift(swapped((c1, c2.conjugate())), 500) > 1e-10
    assert _norm_drift(swapped((c1, c2.conjugate()), (c2, c1.conjugate())), 500) <= 1e-10


def test_coherent_state_richardson():
    """<q>(t) follows the classical cosine; Richardson against a fine-dt
    run on the same grid isolates the fourth-order time error (the ratio
    measures 15.9)."""
    grid = Grid(-16, 16, 1024)
    sigma0 = math.sqrt(0.5)  # ground-state width: the packet is coherent
    t_end = 1.0

    def qval(dt):
        wf = gaussian_wavepacket(grid, 1.0, 0.0, sigma0)
        out = evolve(HARMONIC, wf, dt, int(round(t_end / dt)))
        state, _ = moments_from_wavefunction(out, 2, quality_tol=1e-2)
        return state.q

    q_ref = qval(1.0 / 160.0)
    assert q_ref == pytest.approx(math.cos(t_end), abs=5e-4)
    with pytest.warns(AccuracyWarning):  # dt = 0.1 is coarse on purpose
        q_coarse = qval(0.1)
    ratio = (q_coarse - q_ref) / (qval(0.05) - q_ref)
    assert ratio == pytest.approx(16.0, rel=0.03)


def test_coherent_state_width_constant():
    grid = Grid(-16, 16, 2048)
    sigma0 = math.sqrt(0.5)
    wf = gaussian_wavepacket(grid, 1.0, 0.0, sigma0)
    out = evolve(HARMONIC, wf, 1e-3, 2000)
    state, _ = moments_from_wavefunction(out, 2)
    assert state.moments[single(2, 0)] == pytest.approx(0.5, rel=2e-4)


def test_ground_state_width_is_stationary():
    """The harmonic ground width stays fixed under propagation, matching
    the adiabatic equilibrium prediction."""
    from qmoments.adiabatic import AdiabaticModel, s0_of_q

    grid = Grid(-16, 16, 2048)
    sigma0 = s0_of_q(AdiabaticModel(HARMONIC, 0.25), 0.0)
    assert sigma0 == pytest.approx(math.sqrt(0.5), rel=1e-12)
    wf = gaussian_wavepacket(grid, 0.0, 0.0, sigma0)
    out = evolve(HARMONIC, wf, 1e-3, 1500)
    state, _ = moments_from_wavefunction(out, 2)
    assert state.moments[single(2, 0)] == pytest.approx(sigma0**2, rel=1e-4)


def test_ehrenfest_rate():
    """d<q>/dt from the solver equals <p>/m to discretization tolerance."""
    grid = Grid(-16, 16, 2048)
    wf = gaussian_wavepacket(grid, 0.5, 0.8, 1.0)
    dt, steps = 1e-3, 200
    mid = evolve(HARMONIC, wf, dt, steps)
    fwd = evolve(HARMONIC, mid, dt, 1)
    back_state, _ = moments_from_wavefunction(mid, 2)
    fwd_state, _ = moments_from_wavefunction(fwd, 2)
    rate = (fwd_state.q - back_state.q) / dt
    assert rate == pytest.approx(back_state.p, rel=1e-3, abs=1e-4)


def test_ehrenfest_momentum_rate_matches_cubic_back_reaction():
    """d<p>/dt from the solver equals -V'(q) - V'''(q) Delta(q^2)/2, the
    second-order equation of motion (exact for a cubic potential)."""
    cubic = PolynomialPotential([0, 0, 0.5, -0.1], mass=1)
    grid = Grid(-16, 16, 2048)
    wf = gaussian_wavepacket(grid, 0.4, 0.3, 0.8)
    dt = 1e-3
    mid = evolve(cubic, wf, dt, 100)
    fwd = evolve(cubic, mid, dt, 2)
    st0, _ = moments_from_wavefunction(mid, 2)
    st1, _ = moments_from_wavefunction(fwd, 2)
    rate = (st1.p - st0.p) / (2 * dt)
    dq2 = 0.5 * (st0.moments[single(2, 0)] + st1.moments[single(2, 0)])
    q_mid = 0.5 * (st0.q + st1.q)
    expected = -cubic.value(q_mid, 1) - 0.5 * cubic.value(q_mid, 3) * dq2
    assert rate == pytest.approx(expected, rel=2e-4, abs=2e-5)


@pytest.mark.parametrize("potential", [HARMONIC, FREE], ids=["harmonic", "free"])
def test_evolve_matches_banded_reference_bitwise(potential):
    """The factor-once solver gives the same bits as a per-step banded
    solve of the two Padé stages (M + c K) psi' = (M + conj(c) K) psi,
    c = -i dt / (hbar r), one per root r = -3 +- i sqrt(3)."""
    wf = gaussian_wavepacket(Grid(-16, 16, 1024), 0.5, 0.8, 1.0)
    dt, steps = 2e-2, 50
    stages = [(c, c.conjugate()) for c in (-1j * dt / (wf.hbar * r) for r in ROOTS)]
    psi = _pade_reference(potential, wf, dt, steps, stages).values
    assert np.array_equal(evolve(potential, wf, dt, steps).values, psi)


@pytest.mark.parametrize("potential", [HARMONIC, QUARTIC, CUBIC], ids=["harmonic", "quartic", "cubic"])
def test_energy_expectation_matches_reference_bitwise(potential):
    """``energy_expectation`` gives the bits of a from-scratch
    -kin M^-1 (delta^2 psi) + V psi, for a fresh packet and after ``evolve``
    on the same operator."""
    cfg = resolve_config({}, "oracle-diff")
    wf = gaussian_wavepacket(Grid(cfg["x_min"], cfg["x_max"], cfg["grid_points"]), 0.5, 0.3, 0.7)
    for state in (wf, evolve(potential, wf, cfg["dt"], 20)):
        assert energy_expectation(state, potential) == _energy_reference(state, potential)


def test_oracle_run_builds_the_operator_once(monkeypatch):
    """One default oracle-diff wavefunction run factors each Padé stage once
    (2 ``zgttrf`` calls for its 20 ``evolve`` calls) and evaluates V on the
    grid once (for 20 ``evolve`` and 21 ``energy_expectation`` calls).  A
    different dt or grid gets fresh factors, equal bitwise to a per-step
    banded solve."""
    from scipy.linalg import lapack

    zgttrf, value = lapack.zgttrf, PolynomialPotential.value
    calls = {"zgttrf": 0, "V on the grid": 0}

    def counted_zgttrf(*args):
        calls["zgttrf"] += 1
        return zgttrf(*args)

    def counted_value(pot, q, derivative=0):
        calls["V on the grid"] += np.ndim(q) > 0
        return value(pot, q, derivative)

    monkeypatch.setattr(lapack, "zgttrf", counted_zgttrf)
    monkeypatch.setattr(PolynomialPotential, "value", counted_value)
    wavefunction_trajectory(resolve_config({}, "oracle-diff"))
    assert calls == {"zgttrf": 2, "V on the grid": 1}

    wf = gaussian_wavepacket(Grid(-16, 16, 512), 0.5, 0.8, 1.0)
    finer = gaussian_wavepacket(Grid(-16, 16, 1024), 0.5, 0.8, 1.0)
    # (state, dt, zgttrf calls so far): another state on the same grid and
    # dt reuses the factors, another dt or grid makes new ones
    runs = ((wf, 2e-2, 4), (wf, 2e-2, 4), (wf.normalized(), 2e-2, 4), (wf, 1e-2, 6), (finer, 1e-2, 8))
    for state, dt, factored in runs:
        stages = [(c, c.conjugate()) for c in (-1j * dt / (state.hbar * r) for r in ROOTS)]
        reference = _pade_reference(HARMONIC, state, dt, 5, stages).values
        assert np.array_equal(evolve(HARMONIC, state, dt, 5).values, reference)
        assert calls["zgttrf"] == factored


def test_evolve_warns_on_boundary_contact():
    grid = Grid(-6, 6, 512)
    wf = gaussian_wavepacket(grid, 0.0, 0.0, 1.0)
    with pytest.warns(BoundaryContactWarning):
        evolve(FREE, wf, 2e-3, 2500)


def test_evolve_checks_support_on_a_fixed_step_cadence(monkeypatch):
    """Support is checked every SUPPORT_CHECK_STEPS steps, at least every
    0.064 time units at the default dt, and the returned state is always
    checked, so a call shorter than the cadence is checked once."""
    dt = resolve_config({}, "oracle-diff")["dt"]
    assert schrodinger.SUPPORT_CHECK_STEPS * dt <= 0.064
    wf = gaussian_wavepacket(Grid(-16, 16, 512), 0.0, 0.0, 1.0)
    for steps in (schrodinger.SUPPORT_CHECK_STEPS - 1, 10):
        checked = []
        monkeypatch.setattr(schrodinger, "_check_support", lambda grid, rows, psi: checked.append(psi))
        out = evolve(FREE, wf, dt, steps)
        assert len(checked) == steps // schrodinger.SUPPORT_CHECK_STEPS + 1
        assert np.array_equal(checked[-1], out.values)


def test_evolve_warns_on_coarse_time_step():
    grid = Grid(-16, 16, 512)
    wf = gaussian_wavepacket(grid, 0.0, 4.0, 1.0)
    with pytest.warns(AccuracyWarning):
        evolve(HARMONIC, wf, 0.2, 1)


def test_energy_expectation_conserved():
    """Over the default oracle-diff run (its 20 sample intervals, one call
    each), at rest and from q0 = 1, the plain 2-norm drifts by at most
    1e-12 and <H_N> by at most 1e-10 relative: each stage of a step is a
    unitary function of the real symmetric H_N that
    ``energy_expectation`` applies."""
    cfg = resolve_config({}, "oracle-diff")
    grid = Grid(cfg["x_min"], cfg["x_max"], cfg["grid_points"])
    (t0, t1), intervals = cfg["t_span"], cfg["samples"] - 1
    steps = int(round((t1 - t0) / intervals / cfg["dt"]))
    assert steps * intervals * cfg["dt"] == pytest.approx(t1 - t0, rel=1e-12)
    for q0 in (cfg["q0"], 1.0):
        wf = gaussian_wavepacket(grid, q0, cfg["p0"], cfg["sigma"])
        norm0, e0 = np.linalg.norm(wf.values), energy_expectation(wf, HARMONIC)
        for _ in range(intervals):
            wf = evolve(HARMONIC, wf, cfg["dt"], steps)
        assert abs(np.linalg.norm(wf.values) / norm0 - 1.0) <= 1e-12
        assert energy_expectation(wf, HARMONIC) == pytest.approx(e0, rel=1e-10)


def test_dt_halving_fourth_order_on_observable():
    """The Padé (2,2) step is fourth order in time on a smooth observable
    (the ratio measures 16.04)."""
    grid = Grid(-20, 20, 4096)
    t_end = 1.0
    ref = free_particle_s(t_end, 1.0, 0.25, 1.0) ** 2

    def err(dt):
        wf = gaussian_wavepacket(grid, 0.0, 0.0, 1.0)
        out = evolve(FREE, wf, dt, int(round(t_end / dt)))
        state, _ = moments_from_wavefunction(out, 2)
        return state.moments[single(2, 0)] - ref

    e1, e2 = err(0.1), err(0.05)
    # subtract the dt-independent spatial bias before comparing
    e_space = err(0.0125)
    ratio = (e1 - e_space) / (e2 - e_space)
    assert ratio == pytest.approx(16.0, rel=0.03)
