"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one `[PASS]`/`[FAIL]` line (visible with `pytest -s`, or in
the captured output on failure) together with the measured figure and its
bound.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from qmoments import indices
from qmoments.adiabatic import AdiabaticModel, adiabatic_potential, s0_of_q
from qmoments.casimir_darboux import (
    DarbouxState1D,
    free_particle_s,
    from_darboux,
    lift_to_plane,
    lift_trajectory,
    to_darboux,
    u1,
    u1_spherical_limit,
)
from qmoments.dynamics import IntegratorConfig, init_gaussian, integrate, integrate_one
from qmoments.effective_hamiltonian import PolynomialPotential, equations_of_motion
from qmoments.exact import MomentPolynomial
from qmoments.indices import single
from qmoments.moment_algebra import build_bracket_table, closed_form_bracket, leibniz_bracket
from qmoments.scenarios import (
    MAX_ORDER,
    oracle_deviations,
    resolve_config,
    run_cubic_tunneling,
    run_oracle,
    run_sweep,
    wavefunction_trajectory,
)
from qmoments.weyl_algebra import bracket_oracle
from test_moment_algebra import index_pairs, lookup, operator_bracket

D = MomentPolynomial.moment


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, detail


def test_criterion_01_bracket_oracle_equivalence():
    """Closed forms equal the oracle exactly: one pair to order 6, two
    pairs to order 4, including the second-order bracket block, and the
    column the equations of motion use at the highest order a config may
    ask for (7): every moment of order <= 7 against Delta(p^2) and
    Delta(q^a), a = 2..7."""
    t0 = time.monotonic()
    assert closed_form_bracket(single(2, 0), single(0, 2)) == D(single(1, 1), 4)
    assert closed_form_bracket(single(2, 0), single(1, 1)) == D(single(2, 0), 2)
    assert closed_form_bracket(single(1, 1), single(0, 2)) == D(single(0, 2), 2)
    checked = 0
    for m1, m2 in index_pairs(6, 1):
        assert closed_form_bracket(m1, m2) == bracket_oracle(m1, m2), (
            f"single-pair mismatch at {m1}, {m2}"
        )
        checked += 1
    for m1, m2 in index_pairs(4, 2):
        assert operator_bracket(m1, m2) == bracket_oracle(m1, m2), (
            f"two-pair mismatch at {m1}, {m2}"
        )
        checked += 1
    heff = equations_of_motion(PolynomialPotential([0] * MAX_ORDER + [1]), MAX_ORDER).heff
    column = sorted(var[1] for var in heff.variables() if var[0] == "D")
    for m1 in indices.iter_indices(MAX_ORDER, 1):
        for m2 in column:
            if m1 != m2:
                assert closed_form_bracket(m1, m2) == bracket_oracle(m1, m2), (
                    f"EOM-column mismatch at {m1}, {m2}"
                )
                checked += 1
    # every stored table entry is the truncated bracket checked above
    for (m1, m2), entry in build_bracket_table(6, 1).entries.items():
        assert entry == closed_form_bracket(m1, m2).truncate(6), f"table mismatch at {m1}, {m2}"
    for (m1, m2), entry in build_bracket_table(4, 2).entries.items():
        assert entry == operator_bracket(m1, m2).truncate(4), f"table mismatch at {m1}, {m2}"
    elapsed = time.monotonic() - t0
    report(
        1,
        elapsed < 60.0,
        f"{checked} bracket pairs equal the oracle exactly in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_jacobi_identity():
    """Cyclic bracket identity, exact and symbolic, all triples to order 4."""
    t0 = time.monotonic()
    idxs = indices.iter_indices(4, 1)
    n = 0
    for a, b, c in itertools.combinations_with_replacement(idxs, 3):
        total = (
            leibniz_bracket(D(a), bracket_oracle(b, c), bracket_oracle)
            + leibniz_bracket(D(b), bracket_oracle(c, a), bracket_oracle)
            + leibniz_bracket(D(c), bracket_oracle(a, b), bracket_oracle)
        )
        assert total.is_zero, f"Jacobi fails for {a}, {b}, {c}: {total}"
        n += 1
    elapsed = time.monotonic() - t0
    report(2, elapsed < 60.0, f"{n} triples satisfy Jacobi exactly in {elapsed:.1f}s (< 60s)")


def test_criterion_03_free_particle_vs_closed_form():
    """sqrt(Delta(q^2))(t) matches the fluctuation growth law to 1e-8."""
    field = equations_of_motion(PolynomialPotential([], mass=1), 2)
    state0 = init_gaussian(0.0, 0.0, 1.0, 0.0, 1.0, 2)
    times = np.linspace(0, 10, 201)
    traj = integrate(field, state0, (0, 10), IntegratorConfig(rtol=1e-10, atol=1e-13), t_eval=times)
    s_num = np.sqrt(traj.column("Delta_q2"))
    s_ref = free_particle_s(times, 1.0, 0.25, 1.0)
    dev = float(np.max(np.abs(s_num - s_ref) / s_ref))
    report(3, dev <= 1e-8, f"max relative deviation {dev:.3e} (<= 1e-8)")


def test_criterion_04_casimir_conservation():
    """C(t) drifts below 1e-9 relative for quadratic Hamiltonians at N=2."""
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-13)
    worst = 0.0
    for coeffs, span in (([], (0, 10)), ([0, 0, 0.5], (0, 10))):
        field = equations_of_motion(PolynomialPotential(coeffs, mass=1), 2)
        state0 = init_gaussian(1.0, 0.5, 1.0, 0.2, 1.0, 2)
        traj = integrate(field, state0, span, cfg, t_eval=np.linspace(*span, 201))
        drift = float(np.max(np.abs(traj.casimir - traj.casimir[0])) / traj.casimir[0])
        worst = max(worst, drift)
    report(4, worst <= 1e-9, f"worst relative Casimir drift {worst:.3e} (<= 1e-9)")


def test_criterion_05_wavefunction_oracle_cross_validation(tmp_path):
    """Harmonic second moments from the wavefunction solver (fourth order
    in space and in time, spectral extraction, on the default 1024-point
    grid with the Padé (2,2) step dt = 2e-2) match N=2 dynamics to 1e-4
    relative; free-particle oracle spreading matches the closed form to
    1e-6."""
    t0 = time.monotonic()
    span = (0.0, float(np.pi))
    samples = 22
    run_oracle(
        "harmonic",
        {"q0": 1.0, "t_span": list(span), "samples": samples},
        str(tmp_path),
    )
    data = np.genfromtxt(tmp_path / "oracle_trajectory.csv", delimiter=",", names=True)
    field = equations_of_motion(PolynomialPotential([0, 0, 0.5], mass=1), 2)
    state0 = init_gaussian(1.0, 0.0, 1.0, 0.0, 1.0, 2)
    traj = integrate(
        field, state0, (data["t"][0], data["t"][-1]),
        IntegratorConfig(rtol=1e-11, atol=1e-14),
        t_eval=data["t"],
    )
    worst = 0.0
    for col in ("Delta_q2", "Delta_qp", "Delta_p2"):
        ref = traj.column(col)
        scale = float(np.max(np.abs(ref)))
        worst = max(worst, float(np.max(np.abs(data[col] - ref)) / scale))
    t_harm = time.monotonic() - t0

    t0 = time.monotonic()
    run_oracle("free", {"t_span": [0.0, 2.0], "samples": 21}, str(tmp_path))
    free = np.genfromtxt(tmp_path / "oracle_trajectory.csv", delimiter=",", names=True)
    s_ref = free_particle_s(free["t"], 1.0, 0.25, 1.0)
    dev_free = float(np.max(np.abs(np.sqrt(free["Delta_q2"]) - s_ref) / s_ref))
    t_free = time.monotonic() - t0
    ok = worst <= 1e-4 and dev_free <= 1e-6 and t_harm < 120 and t_free < 120
    report(
        5,
        ok,
        f"harmonic moments dev {worst:.3e} in {t_harm:.0f}s, "
        f"free spreading dev {dev_free:.3e} in {t_free:.0f}s (<= 1e-4 and 1e-6, < 120s each)",
    )


def _chart_rhs(potential, casimir):
    """The canonical equations of the paper's centrifugal chart at order 2,
    H = p^2/2m + V + V'' s^2/2 + p_s^2/2m + C/(2m s^2), on ``(q, p, s,
    p_s)`` as a list of floats or of row arrays (held interpolants are
    built on rows).  It reads only V', V'', V''' and C: no bracket, H_eff
    or generated code."""
    m = float(potential.mass)

    def rhs(t, y):
        q, p, s, p_s = y
        v1, v2, v3 = (potential.value(q, k) for k in (1, 2, 3))
        return [p / m, -v1 - v3 * s * s / 2, p_s / m, -v2 * s + casimir / (m * s * s * s)]

    return rhs


def _chart_deviation(coefficients, q0, p0, sigma, p_s0=0.0, casimir=None, classical_mode=False):
    """Largest deviation over q, p and the second moments, relative to
    max(1, column scale), of the chart run mapped back by ``from_darboux``
    from the order-2 moment run, at 201 samples over t in [0, 20]."""
    potential = PolynomialPotential(coefficients)
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-14)
    times = np.linspace(0.0, 20.0, 201)
    state0 = init_gaussian(q0, p0, sigma, p_s0, order=2, casimir=casimir, classical_mode=classical_mode)
    traj = integrate(equations_of_motion(potential, 2), state0, (0.0, 20.0), cfg, t_eval=times)
    names = ("q", "p", "Delta_q2", "Delta_qp", "Delta_p2")
    d = to_darboux(*(traj.column(name)[0] for name in names[2:]))
    # the layout names only a failure's component, which no case meets
    _, ys, _ = integrate_one(
        _chart_rhs(potential, d.casimir), np.array([q0, p0, d.s, d.p_s]), (0.0, 20.0), cfg, times,
        indices.state_layout(2)[:4], 2,
    )
    back = np.array([(q, p, *from_darboux(DarbouxState1D(s, p_s, d.casimir))) for q, p, s, p_s in ys.tolist()])
    return max(
        float(np.max(np.abs(back[:, i] - traj.column(name)))) / max(1.0, float(np.max(np.abs(traj.column(name)))))
        for i, name in enumerate(names)
    )


def test_criterion_06_centrifugal_lift():
    """Plane kinetic energy reproduces the fluctuation energy to 1e-12 on
    1e4 random states; lifted free trajectories are straight lines with
    p_phi = sqrt(C).  The order-2 equations of motion are the canonical
    dynamics of the chart: on a cubic, a quartic and a sextic (at C =
    hbar^2/4), the quartic at C = 1 and, in classical mode at C = 0, a
    quartic whose width grows away from the chart's singular s = 0, the
    chart run agrees with the moment run to 1e-10.  Measured: 8.4e-12,
    2.9e-12, 4.8e-12, 4.9e-12 and 7.2e-12; the bound leaves a margin of
    about 12 over the largest."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        d = DarbouxState1D(
            float(rng.uniform(0.05, 5.0)),
            float(rng.uniform(-4.0, 4.0)),
            float(rng.uniform(0.0, 5.0)),
        )
        mass = float(rng.uniform(0.2, 5.0))
        phi = float(rng.uniform(0, 2 * math.pi))
        ps = lift_to_plane(d, phi)
        ke = (ps.p_x**2 + ps.p_y**2) / (2 * mass)
        ref = d.p_s**2 / (2 * mass) + d.casimir / (2 * mass * d.s**2)
        worst = max(worst, abs(ke - ref) / abs(ref))
    field = equations_of_motion(PolynomialPotential([], mass=1), 2)
    state0 = init_gaussian(0.0, 0.0, 1.0, 0.0, 1.0, 2)
    times = np.linspace(0, 10, 2001)
    traj = integrate(field, state0, (0, 10), IntegratorConfig(), t_eval=times)
    s = np.sqrt(traj.column("Delta_q2"))
    p_s = traj.column("Delta_qp") / s
    casimir = float(traj.casimir[0])
    states = lift_trajectory(times, s, p_s, casimir, 1.0)
    xs = np.array([st.x for st in states])
    ys = np.array([st.y for st in states])
    resid = 0.0
    for arr in (xs, ys):
        coeffs = np.polyfit(times, arr, 1)
        resid = max(resid, float(np.max(np.abs(arr - np.polyval(coeffs, times)))))
    p_phi_dev = float(np.max(np.abs(np.array([st.p_phi for st in states]) - math.sqrt(casimir))))
    chart_dev = max(
        _chart_deviation([0, 0, 0.5, -0.1], 0.17, 0.6, 0.6),
        _chart_deviation([0, 0, 0.5, 0, 0.05], 0.5, 0.3, 0.7),
        _chart_deviation([0, 0, 0.5, 0.02, -0.03, 0, 0.004], 0.3, 0.4, 0.8),
        _chart_deviation([0, 0, 0.5, 0, 0.05], 0.5, 0.3, 0.7, casimir=1.0),
        _chart_deviation([0, 0, 0.05, -0.02, 0.002], 0.3, 0.2, 0.8, 0.2, casimir=0.0, classical_mode=True),
    )
    ok = worst <= 1e-12 and resid <= 1e-8 and p_phi_dev <= 1e-9 and chart_dev <= 1e-10
    report(
        6,
        ok,
        f"energy identity dev {worst:.2e} (<= 1e-12), line residual {resid:.2e} (<= 1e-8), "
        f"p_phi dev {p_phi_dev:.2e} (<= 1e-9), chart dynamics dev {chart_dev:.2e} (<= 1e-10)",
    )


def test_criterion_07_tunneling_reproduction(tmp_path):
    """Below the classical barrier an N=2 trajectory bypasses it with
    energy conserved, and a 32x32 sweep keeps a trapped region."""
    t0 = time.monotonic()
    barrier_height = 1 / (54 * 0.1**2)
    bypass = None
    for energy in (1.2, 1.4, 1.6):
        assert energy < barrier_height
        cfg = resolve_config({"scenario": "cubic-tunneling", "energy": energy})
        run = run_cubic_tunneling(cfg, str(tmp_path / f"run-{energy}"))
        drift = run["monitors"]["energy_drift"]
        if run["checks"]["classification"] == "bypassed" and drift <= 1e-8:
            bypass = {"energy": energy, "energy_drift": drift}
            break
    sweep_cfg = resolve_config(
        {
            "scenario": "cubic-tunneling-sweep",
            "sweep": {
                "q0": {"min": 0.05, "max": 0.6, "count": 32},
                "energy": {"min": 0.6, "max": 1.8, "count": 32},
            },
            "t_span": [0.0, 40.0],
            "rtol": 1e-8,
            "atol": 1e-11,
        }
    )
    summary = run_sweep(sweep_cfg, str(tmp_path))
    counts = summary["classification_counts"]
    elapsed = time.monotonic() - t0
    ok = (
        bypass is not None
        and counts["trapped"] > 0
        and counts["bypassed"] > 0
        and elapsed < 300
    )
    report(
        7,
        ok,
        f"bypass below barrier at E={bypass['energy'] if bypass else None} "
        f"(drift {bypass['energy_drift'] if bypass else None:.2e}), sweep counts {counts}, "
        f"{elapsed:.0f}s (< 300s)",
    )


def test_criterion_08_two_dof_limit():
    """U1 approaches the spherical form linearly along the scaling path,
    with a fitted slope stable across the tested decade."""
    alpha, p_alpha, beta, p_beta, c1, c2 = 0.4, 0.7, 1.1, 1.3, 0.0, 2.5
    limit = u1_spherical_limit(beta, p_beta, c1)
    ks = []
    for eps in (1e-1, 1e-2, 1e-3):
        dev = abs(u1(alpha, eps * p_alpha, beta, p_beta, c1, eps**4 * c2) - limit)
        ks.append(dev / eps)
    fitted = max(ks)
    stable = max(ks) / min(ks)
    ok = all(dev_k <= fitted * 1.0000001 for dev_k in ks) and stable < 1.3
    report(
        8,
        ok,
        f"deviation <= K*eps with K={fitted:.4f}, decade stability ratio {stable:.3f} (< 1.3)",
    )


def test_criterion_09_adiabatic_ground_state():
    """Harmonic equilibrium width and zero-point shift at C = hbar^2/4."""
    mass, omega, hbar = 1.0, 1.0, 1.0
    pot = PolynomialPotential([0, 0, 0.5 * mass * omega**2], mass=mass)
    model = AdiabaticModel(pot, casimir=hbar**2 / 4)
    width_dev = abs(s0_of_q(model, 0.0) - math.sqrt(hbar / (2 * mass * omega)))
    shift_dev = abs(
        (adiabatic_potential(model, 0.7) - pot.value(0.7)) - hbar * omega / 2
    )
    ok = width_dev <= 1e-6 and shift_dev <= 1e-6
    report(
        9,
        ok,
        f"ground width dev {width_dev:.2e}, energy shift dev {shift_dev:.2e} (<= 1e-6)",
    )


def test_criterion_10_classical_mode_contrast():
    """With the admissibility floor at C = 0 a classical free state does
    not spread: s(t) = s(0) to 1e-10."""
    field = equations_of_motion(PolynomialPotential([], mass=1), 2)
    state0 = init_gaussian(0.0, 0.7, 1.3, 0.0, 1.0, 2, casimir=0.0, classical_mode=True)
    traj = integrate(field, state0, (0, 10), IntegratorConfig(), t_eval=np.linspace(0, 10, 101))
    s = np.sqrt(traj.column("Delta_q2"))
    dev = float(np.max(np.abs(s - s[0])))
    report(10, dev <= 1e-10, f"max |s(t) - s(0)| = {dev:.3e} (<= 1e-10)")


def test_criterion_11_truncated_jacobi_identity():
    """The bracket truncated at N is an exact Poisson algebra: with the
    brackets of build_bracket_table(N), extended to products by
    leibniz_bracket, and each bracket truncated at N, Jacobi holds on every
    triple of distinct moments at orders 3..7.  On the finite order-N
    coordinates, the table as their Poisson tensor and the outer bracket not
    truncated, the Jacobiator is zero at order 3 and, at orders 4..7, not
    zero from doubled hbar order exactly N + 1."""
    t0 = time.monotonic()
    counts = []
    for order in range(3, 8):
        bracket = lookup(build_bracket_table(order, 1))
        triples = nonzero = 0
        lowest = None
        for a, b, c in itertools.combinations(indices.iter_indices(order, 1), 3):
            jacobiator = (
                leibniz_bracket(D(a), bracket(b, c), bracket)
                + leibniz_bracket(D(b), bracket(c, a), bracket)
                + leibniz_bracket(D(c), bracket(a, b), bracket)
            )
            assert jacobiator.truncate(order).is_zero, f"truncated Jacobi fails at N={order} for {a}, {b}, {c}"
            triples += 1
            if not jacobiator.is_zero:
                nonzero += 1
                grade = min(jacobiator.hbar_order_doubled(key) for key in jacobiator.terms)
                lowest = grade if lowest is None else min(lowest, grade)
        assert lowest == (None if order == 3 else order + 1), (order, lowest)
        finite = f"{nonzero} nonzero from doubled order {lowest}" if nonzero else "0 nonzero"
        counts.append(f"N={order}: {triples} triples, finite Jacobiator {finite}")
    elapsed = time.monotonic() - t0
    report(
        11,
        elapsed < 60.0,
        f"truncated Jacobi exact ({'; '.join(counts)}) in {elapsed:.1f}s (< 60s)",
    )


def _census_monomials(order):
    """The real monomials of doubled hbar order <= ``order`` in the moments of
    orders 2..order and lambda^2 (doubled order 4), constants left out: each
    product of one or more moments, times every even power of lambda that
    fits."""
    moments = indices.iter_indices(order, 1)
    monomials = []
    for size in range(1, order // 2 + 1):
        for factors in itertools.combinations_with_replacement(moments, size):
            grade = sum(map(indices.order, factors))
            for h in range(0, (order - grade) // 2 + 1, 2):
                product = MomentPolynomial.constant(1, 1, h)
                for m in factors:
                    product = product * D(m)
                monomials.append(product)
    return monomials


def _kernel(columns):
    """A basis of {c : sum_j c_j columns[j] = 0} over the rationals, each
    column a dict of exact coefficients: Gauss-Jordan elimination on sparse
    rows, one free column per basis vector."""
    rows = {}
    for j, column in enumerate(columns):
        for key, c in column.items():
            rows.setdefault(key, {})[j] = Fraction(c)
    pivots = {}  # pivot column -> its row, zero in every other pivot column
    for row in rows.values():
        for col, pivot_row in pivots.items():
            f = row.get(col)
            if f:
                for j, a in pivot_row.items():
                    row[j] = row.get(j, 0) - f * a
        row = {j: a for j, a in row.items() if a}
        if not row:
            continue
        lead = min(row)
        row = {j: a / row[lead] for j, a in row.items()}
        for col, pivot_row in pivots.items():
            f = pivot_row.get(lead)
            if f:
                reduced = dict(pivot_row)
                for j, a in row.items():
                    reduced[j] = reduced.get(j, 0) - f * a
                pivots[col] = {j: a for j, a in reduced.items() if a}
        pivots[lead] = row
    basis = []
    for free in range(len(columns)):
        if free not in pivots:
            vector = {free: Fraction(1)}
            vector.update((col, -row[free]) for col, row in pivots.items() if free in row)
            basis.append(vector)
    return basis


def test_criterion_12_casimir_census():
    """The Casimirs of the truncated algebra at orders 3..7: the real
    polynomials in the moments and lambda^2 of doubled hbar order <= N,
    constants left out, whose bracket with every moment vanishes when
    truncated at N, the brackets from build_bracket_table(N) extended by
    leibniz_bracket.  There is none at orders 3, 5, 6 and 7, and at order 4
    only C2 = Delta(q^2) Delta(p^2) - Delta(qp)^2 itself."""
    t0 = time.monotonic()
    counts, dims = [], []
    for order in range(3, 8):
        bracket = lookup(build_bracket_table(order, 1))
        monomials = _census_monomials(order)
        columns = [
            {
                (m, key): c
                for m in indices.iter_indices(order, 1)
                for key, c in leibniz_bracket(poly, D(m), bracket).truncate(order).terms.items()
            }
            for poly in monomials
        ]
        kernel = _kernel(columns)
        counts.append(len(monomials))
        dims.append(len(kernel))
        if order == 4:
            (vector,) = kernel
            casimir = MomentPolynomial.zero()
            for j, c in vector.items():
                casimir = casimir + monomials[j] * c
            c2 = D(single(2, 0)) * D(single(0, 2)) - D(single(1, 1)) ** 2
            key = next(iter(c2.terms))
            assert casimir.scale(Fraction(c2.terms[key], casimir.terms[key])) == c2, casimir
    elapsed = time.monotonic() - t0
    assert counts == [7, 18, 36, 81, 155], counts
    census = ", ".join(f"N={n}: {dim} of {count}" for n, count, dim in zip(range(3, 8), counts, dims))
    report(
        12,
        dims == [0, 1, 0, 0, 0],
        f"Casimir kernel dimension per order ({census} monomials), C2 alone at N=4, in {elapsed:.1f}s",
    )


# Criterion 13's hbar values and bounds, set from the deviations of q from
# the oracle measured on its config:
#   hbar             1        0.5      0.25     0.125    fitted exponent
#   order 2          3.11e-2  9.04e-3  2.33e-3  5.83e-4  1.92
#   order 4          8.76e-3  1.20e-3  2.44e-4  4.54e-5  2.51
#   order 4 / 2      0.281    0.133    0.105    0.078
# Order 2's exponent may stray 0.25 from hbar counting's 2 (0.08 measured),
# order 4's must be 2.25 or more (0.26 below the measured one), and each
# ratio at most 1.25 times the measured one.  At 2048 points and dt 2.5e-4
# order 4 reads 3.92e-5 at hbar 0.125: the grid's own error is within the
# margins.
_HBARS = (1.0, 0.5, 0.25, 0.125)
_RATIO_BOUNDS = (0.35, 0.17, 0.13, 0.1)


def test_criterion_13_hbar_scaling_against_the_wavefunction_oracle():
    """The truncation in front of the wavefunction oracle on an anharmonic
    potential: a pure Gaussian packet of width sqrt(hbar/2) at q0 = 1, p0 =
    0 on the quartic V = q^2/2 + q^4/10, for t in [0, 2] (41 samples, x in
    [-8, 8], 1024 points, dt 1e-3), at orders 2, 3 and 4.  A moment of
    order k counts as hbar^(k/2) (Bojowald & Skirzewski 2006), so the
    deviation of q from the oracle falls as hbar^2 at order 2 and faster at
    order 4, whose deviation is a fraction of order 2's at every hbar.
    From a Gaussian start order 3 keeps its third moments at 0 and so runs
    order 2's equations: its q differs by the step control alone (1.2e-11
    measured, bound 1e-10).  Each hbar's oracle serves every order."""
    t0 = time.monotonic()
    potential = [0, 0, 0.5, 0, 0.1]
    columns = ("Delta_q2", "Delta_qp", "Delta_p2", "q", "p")
    deviations, q3_gap = {2: [], 4: []}, 0.0
    for hbar in _HBARS:
        sigma = math.sqrt(hbar / 2)
        raw = {
            "scenario": "oracle-diff", "potential": potential, "hbar": hbar, "q0": 1.0, "p0": 0.0,
            "sigma": sigma, "t_span": [0.0, 2.0], "samples": 41, "x_min": -8.0, "x_max": 8.0,
            "grid_points": 1024, "dt": 1e-3,
        }
        oracle, _ = wavefunction_trajectory(resolve_config(raw))
        runs = {}
        for order in (2, 3, 4):
            runs[order] = integrate(
                equations_of_motion(PolynomialPotential(potential), order),
                init_gaussian(1.0, 0.0, sigma, 0.0, hbar, order),
                (oracle.times[0], oracle.times[-1]),
                IntegratorConfig(),
                t_eval=oracle.times,
            )
        for order in deviations:
            moments = ({col: t.column(col) for col in columns} for t in (oracle, runs[order]))
            deviations[order].append(oracle_deviations(*moments)["q"])
        q3_gap = max(q3_gap, float(np.max(np.abs(runs[3].column("q") - runs[2].column("q")))))
    elapsed = time.monotonic() - t0
    log_hbar = np.log2(_HBARS)
    exponent = {order: float(np.polyfit(log_hbar, np.log2(devs), 1)[0]) for order, devs in deviations.items()}
    ratios = [four / two for four, two in zip(deviations[4], deviations[2])]
    ok = (
        abs(exponent[2] - 2) <= 0.25
        and exponent[4] >= 2.25
        and all(r <= bound for r, bound in zip(ratios, _RATIO_BOUNDS))
        and q3_gap <= 1e-10
    )
    report(
        13,
        ok,
        f"q's deviation from the oracle at hbar {', '.join(map(str, _HBARS))}: exponent {exponent[2]:.3f} at "
        f"order 2 (|x - 2| <= 0.25), {exponent[4]:.3f} at order 4 (>= 2.25), order 4 / order 2 "
        f"{', '.join(f'{r:.3f}' for r in ratios)} (<= {', '.join(map(str, _RATIO_BOUNDS))}), order 3 "
        f"against order 2 {q3_gap:.1e} (<= 1e-10), in {elapsed:.1f}s",
    )
