"""Desk-scale exact quantum evolution used to validate moment dynamics.

Padé (2,2) propagation on a uniform hard-wall grid with the Numerov
(compact fourth-order) Laplacian: unconditionally stable, norm-preserving
to rounding, fourth-order accurate in space and in time.  ``evolve`` and
``energy_expectation`` read one operator, built once per configuration.
Weyl-ordered central moments are extracted from wavefunctions with the
momentum operator applied spectrally (FFT), through the ordering change of
basis of the operator algebra.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from . import indices
from .exact import hbar_parts
from .moment_algebra import MAX_ORDER
from .weyl_algebra import _weyl_in_normal

# Steps between wavepacket support checks in ``evolve``: a fixed count, so a
# run split into short calls is not checked after every step.  At the
# oracle's default dt = 2e-2 a check falls every 0.06 time units.
SUPPORT_CHECK_STEPS = 3

# Roots of the Padé (2,2) denominator 1 + z/2 + z^2/12, one per stage of
# ``evolve``, and the bands (lower, main, upper) of M = tridiag(1, 10, 1)/12.
PADE_ROOTS = (complex(-3.0, math.sqrt(3.0)), complex(-3.0, -math.sqrt(3.0)))
M_BANDS = (1.0 / 12.0, 10.0 / 12.0, 1.0 / 12.0)


class ResolutionError(ValueError):
    pass


class BoundaryContactWarning(UserWarning):
    """Wavepacket support approached the hard-wall boundary."""


class AccuracyWarning(UserWarning):
    pass


class Grid:
    """Uniform spatial grid with hard-wall boundaries."""

    def __init__(self, x_min: float, x_max: float, n_points: int):
        if n_points < 64:
            raise ValueError("n_points must be at least 64")
        if x_max <= x_min:
            raise ValueError("empty grid interval")
        self.x_min = float(x_min)
        self.x_max = float(x_max)
        self.n_points = int(n_points)
        self.x = np.linspace(x_min, x_max, n_points)
        self.dx = self.x[1] - self.x[0]
        # trapezoid-rule weights dx (1/2, 1, ..., 1, 1/2): the integral of
        # samples f is (f * weights).sum()
        self.weights = np.full(n_points, self.dx)
        self.weights[0] = self.weights[-1] = 0.5 * self.dx

    def __repr__(self):
        return f"Grid({self.x_min:g}, {self.x_max:g}, {self.n_points})"


class WaveFunction:
    """Complex amplitudes on a grid; normalized on construction."""

    def __init__(self, grid: Grid, values, hbar: float = 1.0, mass: float = 1.0):
        self.grid = grid
        self.values = np.asarray(values, dtype=complex)
        if self.values.shape != grid.x.shape:
            raise ValueError("amplitude array does not match the grid")
        self.hbar = float(hbar)
        self.mass = float(mass)

    @property
    def norm(self) -> float:
        return math.sqrt(float(np.trapezoid(np.abs(self.values) ** 2, dx=self.grid.dx)))

    def normalized(self) -> "WaveFunction":
        return WaveFunction(self.grid, self.values / self.norm, self.hbar, self.mass)


def gaussian_wavepacket(grid: Grid, q0: float, p0: float, sigma: float, hbar: float = 1.0, mass: float = 1.0) -> WaveFunction:
    """Normalized Gaussian with position spread Delta(q^2) = sigma^2."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if grid.dx > sigma / 8:
        raise ResolutionError(
            f"grid spacing {grid.dx:g} too coarse: need >= 8 points per sigma={sigma:g}"
        )
    x = grid.x
    psi = np.exp(-((x - q0) ** 2) / (4.0 * sigma**2) + 1j * p0 * x / hbar)
    wf = WaveFunction(grid, psi, hbar, mass)
    return wf.normalized()


@functools.lru_cache(maxsize=1)
def _numerov(potential, grid: Grid, hbar: float, mass: float) -> tuple:
    """The Numerov Hamiltonian H_N = M^-1 K of p^2/2m + V on ``grid``.

    H_N = kin M^-1 (-delta^2) + V with kin = hbar^2 / (2 m dx^2), the
    second difference delta^2 and M = tridiag(1, 10, 1) / 12, both cut at
    the hard walls (psi = 0 beyond the edges), so K = -kin delta^2 +
    M diag(V).  M and delta^2 commute, so H_N is real symmetric.  Returns
    V on the grid, kin, K's bands, M's bands (lower, main, upper) as arrays
    for LAPACK ``dgtsv`` and the support rows: trapezoid weights times 1, x
    and x^2, whose product with a density gives its integrals of 1, x and
    x^2.
    """
    v = potential.value(grid.x)
    kin = hbar**2 / (2.0 * mass * grid.dx**2)
    # the lower and upper bands of K differ by the potential
    k_bands = (-kin + v[:-1] / 12.0, 2.0 * kin + v * (10.0 / 12.0), -kin + v[1:] / 12.0)
    n = grid.n_points
    m_bands = (np.full(n - 1, M_BANDS[0]), np.full(n, M_BANDS[1]), np.full(n - 1, M_BANDS[2]))
    w = grid.weights
    return v, kin, k_bands, m_bands, np.vstack([w, w * grid.x, w * grid.x**2])


@functools.lru_cache(maxsize=1)
def _momenta(grid: Grid, hbar: float) -> np.ndarray:
    """hbar k on ``grid`` in FFT order: the momentum ``moments_from_wavefunction``
    applies spectrally, built once per grid and hbar (read-only)."""
    hk = hbar * 2.0 * np.pi * np.fft.fftfreq(grid.n_points, grid.dx)
    hk.flags.writeable = False
    return hk


@functools.lru_cache(maxsize=1)
def _pade_stages(potential, grid: Grid, hbar: float, mass: float, dt: float, roots: tuple) -> list:
    """Per root r, the ``zgttrf`` factors of M + c K and the bands of
    M + conj(c) K, c = -i dt / (hbar r), on ``_numerov``'s operator."""
    from scipy.linalg.lapack import zgttrf

    k_bands = _numerov(potential, grid, hbar, mass)[2]
    stages = []
    for c in (-1j * dt / (hbar * r) for r in roots):
        lhs, rhs = ([m + a * k for m, k in zip(M_BANDS, k_bands)] for a in (c, c.conjugate()))
        *factors, info = zgttrf(*lhs)
        if info != 0:
            raise np.linalg.LinAlgError(f"Padé stage matrix is singular (zgttrf info={info})")
        stages.append((factors, rhs))
    return stages


def energy_expectation(wf: WaveFunction, potential) -> float:
    """<H_N> of ``wf``: -kin M^-1 (delta^2 psi) + V psi, integrated with
    ``np.trapezoid``.  M^-1 is one real LAPACK ``dgtsv`` solve on M's cached
    bands, with the real and imaginary parts as its two right-hand sides:
    the call ``solve_banded((1, 1), ...)`` makes after its argument checks,
    so the result has its bits."""
    from scipy.linalg.lapack import dgtsv

    v, kin, _, m_bands, _ = _numerov(potential, wf.grid, wf.hbar, wf.mass)
    lap = _tridiagonal(1.0, -2.0, 1.0, wf.values)
    re_im = np.empty((lap.size, 2), order="F")
    re_im[:, 0], re_im[:, 1] = lap.real, lap.imag
    *_, re_im, info = dgtsv(*m_bands, re_im, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"M solve failed (dgtsv info={info})")
    hpsi = -kin * (re_im[:, 0] + 1j * re_im[:, 1]) + v * wf.values
    return float(np.trapezoid(np.conj(wf.values) * hpsi, dx=wf.grid.dx).real)


def evolve(potential, psi0: WaveFunction, dt: float, steps: int) -> WaveFunction:
    """Padé (2,2) propagation over ``steps`` time steps.

    A step is the diagonal Padé (2,2) approximant of exp(-i H_N dt/hbar),
    fourth order in time (van Dijk & Toyama, Phys. Rev. E 75, 036707
    (2007)), as two stages, one per root r of its denominator
    1 + z/2 + z^2/12 (z = i dt H_N/hbar): (M + c K) psi' = (M + conj(c) K) psi
    with c = -i dt/(hbar r) and H_N = M^-1 K of ``_numerov``.  As H_N is
    real symmetric, each stage is unitary: the plain 2-norm is preserved
    to rounding and <H_N> is conserved.  Each stage's matrix is LU-factored
    (LAPACK ``zgttrf``) once per potential, grid and dt, and solved once
    per step (``zgttrs``, in place on the stage's right-hand side).  The
    documented step heuristic warns when (dt |E| / hbar)^5 / 720, the Padé
    local error, exceeds 1e-8, with E the initial Rayleigh quotient
    psi^H K psi / psi^H M psi.  A wavepacket whose 5-sigma interval
    touches the walls raises a BoundaryContactWarning; it is checked every
    ``SUPPORT_CHECK_STEPS`` steps and after the last one.
    """
    from scipy.linalg.lapack import zgttrs

    if dt <= 0 or steps < 0:
        raise ValueError("dt must be positive and steps non-negative")
    grid, hbar, mass = psi0.grid, psi0.hbar, psi0.mass
    _, _, k_bands, _, rows = _numerov(potential, grid, hbar, mass)
    psi = psi0.values.copy()
    e0 = abs(np.vdot(psi, _tridiagonal(*k_bands, psi)).real / np.vdot(psi, _tridiagonal(*M_BANDS, psi)).real)
    if (dt * e0 / hbar) ** 5 / 720.0 > 1e-8:
        warnings.warn(
            f"time step dt={dt:g} exceeds the local-error heuristic for |<H>|={e0:g}",
            AccuracyWarning,
            stacklevel=2,
        )
    stages = _pade_stages(potential, grid, hbar, mass, dt, PADE_ROOTS)
    for step in range(steps):
        for factors, rhs_bands in stages:
            psi, info = zgttrs(*factors, _tridiagonal(*rhs_bands, psi), overwrite_b=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"Padé stage solve failed (zgttrs info={info})")
        if step % SUPPORT_CHECK_STEPS == SUPPORT_CHECK_STEPS - 1:
            _check_support(grid, rows, psi)
    _check_support(grid, rows, psi)
    return WaveFunction(grid, psi, hbar, mass)


def _tridiagonal(lower, main, upper, psi: np.ndarray) -> np.ndarray:
    """The tridiagonal matrix with these bands times psi."""
    out = main * psi
    out[:-1] += upper * psi[1:]
    out[1:] += lower * psi[:-1]
    return out


def _check_support(grid: Grid, rows: np.ndarray, psi: np.ndarray):
    total, first, second = rows @ (np.abs(psi) ** 2)
    mean = first / total
    sigma = math.sqrt(max(second / total - mean**2, 0.0))
    if mean - 5 * sigma < grid.x_min or mean + 5 * sigma > grid.x_max:
        warnings.warn(
            "wavepacket support within 5 sigma of a hard wall", BoundaryContactWarning,
            stacklevel=3,
        )


def moments_from_wavefunction(wf: WaveFunction, order: int, quality_tol: float = 1e-4):
    """Weyl-ordered central moments up to ``order`` extracted from a state.

    Normal-ordered centered expectations <(q-q0)^j (p-p0)^k> are computed
    with (P - p0)^k applied spectrally, as ifft((hbar k - p0)^k fft(psi))
    with hbar k built once per grid and hbar (``_momenta``); the ordering
    change of basis then yields the Weyl moments.  Every
    integral (the norm, q0, p0 and each <(q-q0)^j (p-p0)^k>) is the
    trapezoid rule as one weighted sum (f * weights).sum() over the grid's
    trapezoid weights, with conj(psi) * weights formed once and (q-q0)^j
    accumulated once per j for every k.  The largest residual imaginary
    part is returned as a quality metric (and warned about above
    ``quality_tol``): it stays at rounding for a packet the grid resolves
    and grows for one that the walls cut or the grid aliases.
    Orders above ``MAX_ORDER``, the config ceiling, are rejected: up to it
    the spectral momentum keeps full accuracy.

    Returns (MomentState, quality).
    """
    from .dynamics import MomentState

    if order > MAX_ORDER:
        raise ValueError(f"moment extraction is limited to order <= {MAX_ORDER}")
    grid = wf.grid
    psi = wf.values
    w_dens = np.abs(psi) ** 2 * grid.weights
    norm = w_dens.sum()
    q0 = float((w_dens * grid.x).sum() / norm)
    w_psi = np.conj(psi) * grid.weights
    hk = _momenta(grid, wf.hbar)
    psi_k = np.fft.fft(psi)
    p0 = float((w_psi * np.fft.ifft(hk * psi_k)).sum().real / norm)

    # chi_k = (P - p0)^k psi
    chi = [psi] + [np.fft.ifft((hk - p0) ** k * psi_k) for k in range(1, order + 1)]
    xc = grid.x - q0
    raw = {}
    for j in range(order + 1):
        # w_psi is conj(psi) w (q - q0)^j
        if j:
            w_psi = w_psi * xc
        for k in range(order + 1 - j):
            raw[(j, k)] = complex((w_psi * chi[k]).sum() / norm)

    quality = 0.0
    moments = {}
    for idx, terms in _weyl_terms(order):
        total = 0j
        for h, normal, coeff in terms:
            total += coeff * wf.hbar**h * raw[normal]
        quality = max(quality, abs(total.imag))
        moments[idx] = total.real
    if quality > quality_tol:
        warnings.warn(
            f"moment extraction quality {quality:.3g} above {quality_tol:.3g}",
            AccuracyWarning,
            stacklevel=2,
        )
    state = MomentState(q0, p0, moments, wf.hbar, order, validate=False)
    return state, quality


@functools.lru_cache(maxsize=None)
def _weyl_terms(order: int) -> tuple:
    """Per moment index of orders 2..``order``, in sort order, its Weyl
    moment in the normal-ordered ones: (hbar power, (j, k), complex
    coefficient of hbar^h <(q-q0)^j (p-p0)^k>) per term."""
    return tuple(
        (idx, tuple((h, normal, complex(*hbar_parts(h, c))) for (h, normal), c in _weyl_in_normal(*idx[0])))
        for idx in indices.iter_indices(order, 1)
    )
