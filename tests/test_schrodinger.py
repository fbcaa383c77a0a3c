"""Crank-Nicolson propagation and moment extraction from wavefunctions."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from qmoments import schrodinger
from qmoments.casimir_darboux import free_particle_s
from qmoments.dynamics import init_gaussian
from qmoments.effective_hamiltonian import PolynomialPotential
from qmoments.indices import single
from qmoments.scenarios import MAX_ORDER, ORACLE_DEFAULTS, resolve_config
from qmoments.schrodinger import (
    MAX_EXTRACTION_ORDER,
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


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(-5, 5, 32)
    with pytest.raises(ValueError):
        Grid(5, -5, 128)


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
    assert MAX_EXTRACTION_ORDER == MAX_ORDER
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
        moments_from_wavefunction(wf, MAX_EXTRACTION_ORDER + 1)


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


def test_harmonic_packet_follows_the_exact_solution():
    """On the default oracle-diff grid ([-12, 12], 1024 points, dt 1e-3) a
    squeezed harmonic packet follows q(t) = q0 cos t + p0 sin t and
    Delta(q^2)(t) = sigma^2 cos^2 t + sin^2 t / (4 sigma^2) to 1e-6."""
    cfg = resolve_config({}, "oracle-diff")
    grid = Grid(cfg["x_min"], cfg["x_max"], cfg["grid_points"])
    q0, p0, sigma = 0.5, 0.3, 0.7
    wf = gaussian_wavepacket(grid, q0, p0, sigma)
    for t in (0.5, 1.0, 1.5, 2.0):
        wf = evolve(HARMONIC, wf, cfg["dt"], 500)
        state, _ = moments_from_wavefunction(wf, 2)
        c, s = math.cos(t), math.sin(t)
        assert state.q == pytest.approx(q0 * c + p0 * s, abs=1e-6)
        assert state.p == pytest.approx(p0 * c - q0 * s, abs=1e-6)
        assert state.moments[single(2, 0)] == pytest.approx(sigma**2 * c**2 + s**2 / (4 * sigma**2), abs=1e-6)
        assert state.moments[single(0, 2)] == pytest.approx(sigma**2 * s**2 + c**2 / (4 * sigma**2), abs=1e-6)


def test_unitarity_norm_drift():
    grid = Grid(-16, 16, 1024)
    wf = gaussian_wavepacket(grid, 0.0, 0.0, 1.0)
    out = evolve(HARMONIC, wf, 1e-3, 10_000)
    assert abs(out.norm - 1.0) <= 1e-10


def test_coherent_state_richardson():
    """<q>(t) follows the classical cosine; Richardson against a fine-dt
    run on the same grid isolates the second-order time error."""
    grid = Grid(-16, 16, 1024)
    sigma0 = math.sqrt(0.5)  # ground-state width: the packet is coherent
    t_end = 1.0

    def qval(dt):
        wf = gaussian_wavepacket(grid, 1.0, 0.0, sigma0)
        out = evolve(HARMONIC, wf, dt, int(round(t_end / dt)))
        state, _ = moments_from_wavefunction(out, 2, quality_tol=1e-2)
        return state.q

    q_ref = qval(2.5e-4)
    assert q_ref == pytest.approx(math.cos(t_end), abs=5e-4)
    with pytest.warns(AccuracyWarning):  # dt = 8e-3 is coarse on purpose
        q_coarse = qval(8e-3)
    ratio = (q_coarse - q_ref) / (qval(4e-3) - q_ref)
    assert ratio == pytest.approx(4.0, rel=0.15)


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
    solve of the same Numerov Crank-Nicolson system
    (M + i theta K) psi' = (M - i theta K) psi, M = tridiag(1, 10, 1)/12,
    K = -kin delta^2 + M diag(V)."""
    grid = Grid(-16, 16, 1024)
    wf = gaussian_wavepacket(grid, 0.5, 0.8, 1.0)
    dt, steps = 1e-3, 200
    n = grid.n_points
    v = potential.value(grid.x)
    kin = wf.hbar**2 / (2.0 * wf.mass * grid.dx**2)
    theta = dt / (2.0 * wf.hbar)
    # rows of K and M in solve_banded's layout: upper, main, lower
    k = np.zeros((3, n))
    k[0, 1:] = -kin + v[1:] / 12.0
    k[1, :] = 2.0 * kin + v * (10.0 / 12.0)
    k[2, :-1] = -kin + v[:-1] / 12.0
    m = np.zeros((3, n))
    m[0, 1:] = m[2, :-1] = 1.0 / 12.0
    m[1, :] = 10.0 / 12.0
    ab = m + 1j * theta * k
    b = m - 1j * theta * k
    psi = wf.values.copy()
    for _ in range(steps):
        rhs = b[1] * psi
        rhs[:-1] += b[0, 1:] * psi[1:]
        rhs[1:] += b[2, :-1] * psi[:-1]
        psi = solve_banded((1, 1), ab, rhs)
    assert np.array_equal(evolve(potential, wf, dt, steps).values, psi)


def test_evolve_warns_on_boundary_contact():
    grid = Grid(-6, 6, 512)
    wf = gaussian_wavepacket(grid, 0.0, 0.0, 1.0)
    with pytest.warns(BoundaryContactWarning):
        evolve(FREE, wf, 2e-3, 2500)


def test_evolve_checks_support_on_a_fixed_step_cadence(monkeypatch):
    """A short call is not checked after every step, and the returned state
    is always checked."""
    checked = []
    monkeypatch.setattr(schrodinger, "_check_support", lambda grid, rows, psi: checked.append(psi))
    grid = Grid(-16, 16, 512)
    out = evolve(FREE, gaussian_wavepacket(grid, 0.0, 0.0, 1.0), 1e-3, 100)
    assert 1 <= len(checked) <= 2
    assert np.array_equal(checked[-1], out.values)


def test_evolve_warns_on_coarse_time_step():
    grid = Grid(-16, 16, 512)
    wf = gaussian_wavepacket(grid, 0.0, 4.0, 1.0)
    with pytest.warns(AccuracyWarning):
        evolve(HARMONIC, wf, 0.2, 1)


def test_energy_expectation_conserved():
    """Over the default oracle-diff run (2000 steps in 20 calls), at rest
    and from q0 = 1, the plain 2-norm drifts by at most 1e-12 and <H_N> by
    at most 1e-10 relative: each step is Crank-Nicolson for the real
    symmetric H_N that ``energy_expectation`` applies."""
    cfg = resolve_config({}, "oracle-diff")
    grid = Grid(cfg["x_min"], cfg["x_max"], cfg["grid_points"])
    for q0 in (cfg["q0"], 1.0):
        wf = gaussian_wavepacket(grid, q0, cfg["p0"], cfg["sigma"])
        norm0, e0 = np.linalg.norm(wf.values), energy_expectation(wf, HARMONIC)
        for _ in range(20):
            wf = evolve(HARMONIC, wf, cfg["dt"], 100)
        assert abs(np.linalg.norm(wf.values) / norm0 - 1.0) <= 1e-12
        assert energy_expectation(wf, HARMONIC) == pytest.approx(e0, rel=1e-10)


def test_dt_halving_second_order_on_observable():
    """Crank-Nicolson is second order in time on a smooth observable."""
    grid = Grid(-20, 20, 4096)
    t_end = 1.0
    ref = free_particle_s(t_end, 1.0, 0.25, 1.0) ** 2

    def err(dt):
        wf = gaussian_wavepacket(grid, 0.0, 0.0, 1.0)
        out = evolve(FREE, wf, dt, int(round(t_end / dt)))
        state, _ = moments_from_wavefunction(out, 2)
        return state.moments[single(2, 0)] - ref

    e1, e2 = err(8e-3), err(4e-3)
    # subtract the dt-independent spatial bias before comparing
    e_space = err(1e-3)
    ratio = (e1 - e_space) / (e2 - e_space)
    assert ratio == pytest.approx(4.0, rel=0.5)
