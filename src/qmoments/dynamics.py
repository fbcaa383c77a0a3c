"""State representation, initial states, ODE integration and monitors."""

from __future__ import annotations

import functools
import math

import numpy as np

from . import indices


class IntegrationError(RuntimeError):
    """Integration failed; carries the last good time in .last_time."""

    def __init__(self, message, last_time=None):
        super().__init__(message)
        self.last_time = last_time


class AdmissibilityError(ValueError):
    pass


def uncertainty_floor(hbar, classical_mode=False) -> float:
    """Lower bound of Delta(q^2)*Delta(p^2) - Delta(qp)^2: hbar^2/4, or the
    classical 0 in ``classical_mode``."""
    return 0.0 if classical_mode else 0.25 * hbar**2


class MomentState:
    """Basic expectation values plus central moments up to order N.

    Quantum-admissible states satisfy Delta(q^2)*Delta(p^2) - Delta(qp)^2
    >= hbar^2/4; with ``classical_mode`` the floor is relaxed to 0, the
    classical lower bound.
    """

    def __init__(self, q, p, moments, hbar, order, classical_mode=False, validate=True):
        self.q = float(q)
        self.p = float(p)
        self.moments = {idx: float(v) for idx, v in moments.items()}
        self.hbar = float(hbar)
        self.order = int(order)
        self.classical_mode = bool(classical_mode)
        if validate:
            self.validate()

    @property
    def margin_floor(self) -> float:
        return uncertainty_floor(self.hbar, self.classical_mode)

    def casimir(self) -> float:
        return (
            self.moments[indices.single(2, 0)] * self.moments[indices.single(0, 2)]
            - self.moments[indices.single(1, 1)] ** 2
        )

    def margin(self) -> float:
        return self.casimir() - self.margin_floor

    def validate(self, tol=1e-12):
        if self.hbar <= 0:
            raise AdmissibilityError("hbar must be positive")
        if self.moments[indices.single(2, 0)] < 0:
            raise AdmissibilityError("Delta(q^2) must be non-negative")
        if self.moments[indices.single(0, 2)] < 0:
            raise AdmissibilityError("Delta(p^2) must be non-negative")
        scale = max(1.0, abs(self.casimir()))
        if self.margin() < -tol * scale:
            raise AdmissibilityError(
                "state violates the uncertainty floor: C=%g < %g"
                % (self.casimir(), self.margin_floor)
            )

    def layout(self):
        return indices.state_layout(self.order)

    def to_vector(self, layout=None) -> np.ndarray:
        layout = layout or self.layout()
        out = np.empty(len(layout))
        for i, var in enumerate(layout):
            if var[0] == "q":
                out[i] = self.q
            elif var[0] == "p":
                out[i] = self.p
            else:
                out[i] = self.moments[var[1]]
        return out

    def __repr__(self):
        return (
            f"MomentState(q={self.q:g}, p={self.p:g}, order={self.order}, "
            f"C={self.casimir():g})"
        )


def _gaussian_raw_moment(a, b, sxx, sxy, syy, cache):
    """Centered Gaussian moment E[x^a y^b] by the Isserlis recursion."""
    if (a + b) % 2:
        return 0.0
    if a == 0 and b == 0:
        return 1.0
    key = (a, b)
    if key in cache:
        return cache[key]
    if a >= 1:
        value = 0.0
        if a >= 2:
            value += (a - 1) * sxx * _gaussian_raw_moment(a - 2, b, sxx, sxy, syy, cache)
        if b >= 1:
            value += b * sxy * _gaussian_raw_moment(a - 1, b - 1, sxx, sxy, syy, cache)
    else:
        value = (b - 1) * syy * _gaussian_raw_moment(0, b - 2, sxx, sxy, syy, cache)
    cache[key] = value
    return value


def init_gaussian(
    q0,
    p0,
    sigma,
    p_s0=0.0,
    hbar=1.0,
    order=2,
    casimir=None,
    classical_mode=False,
) -> MomentState:
    """Gaussian moment state of width sigma and fluctuation momentum p_s0.

    Second moments are Delta(q^2) = sigma^2, Delta(qp) = sigma*p_s0 and
    Delta(p^2) = p_s0^2 + C/sigma^2 with C = hbar^2/4 by default, which
    saturates the uncertainty bound.  Passing ``casimir`` overrides C (the
    classical bound C = 0 needs ``classical_mode``).  Higher Weyl-ordered
    moments follow the Gaussian Wick rule, i.e. the phase-space averages of
    the corresponding Gaussian distribution.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if casimir is None:
        casimir = uncertainty_floor(hbar)
    if casimir < 0:
        raise AdmissibilityError("casimir must be non-negative")
    sxx = sigma**2
    sxy = sigma * p_s0
    syy = p_s0**2 + casimir / sigma**2
    cache = {}
    moments = {}
    for idx in indices.iter_indices(order, 1):
        a, b = idx[0]
        moments[idx] = _gaussian_raw_moment(a, b, sxx, sxy, syy, cache)
    return MomentState(q0, p0, moments, hbar, order, classical_mode)


class IntegratorConfig:
    """Tolerances and evaluation budget of the Dormand-Prince 5(4) integrator."""

    def __init__(self, rtol=1e-10, atol=1e-13, max_steps=2_000_000):
        if rtol <= 0 or atol <= 0:
            raise ValueError("tolerances must be positive")
        if max_steps <= 0:
            raise ValueError("max_steps must be positive")
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.max_steps = int(max_steps)


class Trajectory:
    """Sampled solution with per-sample conservation monitors: the energy
    it is given, and the Casimir and uncertainty margin of its own
    second-moment columns."""

    def __init__(self, times, ys, layout, hbar, order, classical_mode, energy, info=None):
        self.times = np.asarray(times)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        self.ys = np.asarray(ys)
        self.layout = tuple(layout)
        self.hbar = hbar
        self.order = order
        self.classical_mode = classical_mode
        self.energy = np.asarray(energy)
        q2, qp, p2 = (self.column(("D", indices.single(a, b))) for a, b in ((2, 0), (1, 1), (0, 2)))
        self.casimir = q2 * p2 - qp**2
        self.margin = self.casimir - uncertainty_floor(hbar, classical_mode)
        self.info = info or {}

    def __len__(self):
        return len(self.times)

    def column(self, var) -> np.ndarray:
        return self.ys[:, self.layout.index(var)]

    def header(self) -> list:
        return ["t"] + [_csv_name(var) for var in self.layout] + ["energy", "casimir", "margin"]

    def rows(self):
        for i, t in enumerate(self.times):
            yield [t, *self.ys[i], self.energy[i], self.casimir[i], self.margin[i]]

    def write_csv(self, path):
        write_table(path, self.header(), self.rows())


def write_table(path, header, rows):
    """CSV with floats at 17 significant digits, which round-trip exactly;
    string cells are written as they are."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) + "\n")


def _csv_name(var) -> str:
    return var[0] if var[0] in ("q", "p") else indices.csv_name(var[1])


def _failure(message, last_time, order, component) -> IntegrationError:
    """Every integration failure names what happened, the last good time,
    the truncation order and the component at fault."""
    last_time = float(last_time)
    return IntegrationError(
        f"{message} (last good time t={last_time:.6g}, order {order}, {component})",
        last_time=last_time,
    )


def _largest_rate(layout, out) -> str:
    rates = np.abs(out)
    i = int(np.argmax(rates))
    return f"largest |dX/dt| {rates[i]:.3g} in {_csv_name(layout[i])}"


def _first_non_finite(layout, values) -> str:
    i = next(j for j, w in enumerate(values) if not math.isfinite(w))
    return f"first non-finite component {_csv_name(layout[i])}"


def integrate(field, state0, t_span, cfg: IntegratorConfig, t_eval=None, event=None):
    """Integrate a moment vector field and record conservation monitors.

    One ``MomentState`` is integrated by ``integrate_one`` into a
    Trajectory, sampled at ``t_eval`` if given: a generated Dormand-Prince
    5(4) step on Python floats with scipy RK45's step control, so no scipy
    is loaded.  A sequence of states, such as the cells of a sweep or the
    one cell of a tunneling run, is integrated into a TrajectoryBatch that
    stops each cell at an upward zero crossing of ``event``: up to
    ``_MAX_FLOAT_CELLS`` states one at a time by ``integrate_one``
    (``_integrate_cells``), more together on row arrays
    (``_integrate_batch``), with the same bytes either way.  One state
    takes no event, and a batch no ``t_eval``.  Both keep the local error
    below the configured tolerances; a step budget and finite-state checks
    guard runaway trajectories.  A failure names the last good time, the
    truncation order and the component at fault.

    Python floats do the same IEEE operations in the same order as
    ``np.float64`` scalars and as each cell of a row array, so the bytes
    are the same, and indexing a list and adding floats is several times
    faster than a numpy call on a few cells.
    """
    if not isinstance(state0, MomentState):
        if t_eval is not None:
            raise ValueError("a batch of states records its own steps; t_eval is not supported")
        states = list(state0)
        run = _integrate_cells if len(states) <= _MAX_FLOAT_CELLS else _integrate_batch
        return run(field, states, t_span, cfg, event)
    if event is not None:
        raise ValueError("a single state takes no event; an event stops the cells of a batch")
    layout = field.layout
    rhs = field.compiled(state0.hbar)
    times, ys, info = integrate_one(rhs, state0.to_vector(layout), t_span, cfg, t_eval, layout, state0.order)
    energy = field.energy_function(state0.hbar)(ys.T)
    return Trajectory(times, ys, layout, state0.hbar, state0.order, state0.classical_mode, energy, info)


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4): one state on Python floats, or a batch on row arrays
# ---------------------------------------------------------------------------

# The tableau, error weights and quartic dense-output matrix of
# scipy.integrate.RK45, written out so that neither path needs scipy
# (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6; Shampine's c6).
_DP_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1])
_DP_A = np.array(
    [
        [0, 0, 0, 0, 0],
        [1 / 5, 0, 0, 0, 0],
        [3 / 40, 9 / 40, 0, 0, 0],
        [44 / 45, -56 / 15, 32 / 9, 0, 0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    ]
)
_DP_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
_DP_P = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)
# scipy's step-size control: safety factor, factor bounds, error exponent
# -1/(4 + 1) and the message of a step below 10 spacings of t
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
# scipy locates events with brentq at xtol = rtol = 4 EPS
_EVENT_TOL = 4 * math.ulp(1.0)
# A batch of up to this many cells runs one cell at a time on Python floats.
# A step of one cell costs about 18 us there; a step on row arrays costs
# some 250 numpy calls of fixed overhead, about 395 us for 4x4 cells.  On a
# 2-core VM, integrating criterion 07's ranges at order 2 on floats against
# arrays takes 0.10 s against 0.20 s for 4x4 cells, 0.42 s against 0.41 s
# for 8x8 and 5.8 s against 0.82 s for 32x32.
_MAX_FLOAT_CELLS = 32


@functools.lru_cache(maxsize=8)  # orders 2..7 give six state sizes, (q, p) a seventh
def _dp_kernels(n):
    """Generated Dormand-Prince step and interpolant on lists of ``n``
    Python floats.

    ``step(rhs, t, t_new, y, f, h, atol, rtol)`` takes the step of size
    ``h = t_new - t`` from ``y`` with ``f = rhs(t, y)`` and returns
    ``(y_new, error norm, the seven stages)``, the last stage being
    ``rhs(t_new, y_new)``.  ``dense(t_old, h, y_old, ks)`` returns the
    step's quartic as a function of ``t``.  Every stage sum is written term
    by term in stage order, zero coefficients kept, as ``_combine`` reduces
    it, and the norm adds the squares as ``_rms`` does, so the step has the
    bits of the batch arithmetic on a one-cell array.  The quartic takes the
    powers of its variable by products, as scipy's RkDenseOutput does; the
    batch locates each cell's event crossing on it too.
    """
    comps = range(n)

    def listed(name):
        return ", ".join(f"{name}{i}" for i in comps)

    def stage_sum(coeffs, i):
        return " + ".join(f"{float(c)!r}*k{j}_{i}" for j, c in enumerate(coeffs))

    stages = [listed(f"k{j}_") + "," for j in range(7)]
    step = ["def step(rhs, t, t_new, y, f, h, atol, rtol):", f"    {listed('y')}, = y", f"    {stages[0]} = f"]
    for j in range(1, 6):
        args = ", ".join(f"y{i} + h*({stage_sum(_DP_A[j, :j], i)})" for i in comps)
        step += [f"    k{j} = rhs(t + {float(_DP_C[j])!r}*h, [{args}])", f"    {stages[j]} = k{j}"]
    step += [f"    n{i} = y{i} + h*({stage_sum(_DP_B, i)})" for i in comps]
    step += [f"    k6 = rhs(t_new, [{listed('n')}])", f"    {stages[6]} = k6"]
    for i in comps:
        # abs() by a comparison: a -0.0 left as it is scales to atol all the same
        step += [
            f"    a = y{i} if y{i} >= 0 else -y{i}; b = n{i} if n{i} >= 0 else -n{i}",
            f"    e{i} = h*({stage_sum(_DP_E, i)})/(atol + (a if a >= b else b)*rtol)",
        ]
    squares = " + ".join(f"e{i}*e{i}" for i in comps)
    step.append(f"    return [{listed('n')}], sqrt({squares})/{n ** 0.5!r}, (f, k1, k2, k3, k4, k5, k6)")

    dense = [
        "def dense(t_old, h, y, ks):",
        f"    {listed('y')}, = y",
        f"    {', '.join(f'({names})' for names in stages)} = ks",
    ]
    dense += [f"    q{p}_{i} = {stage_sum(column, i)}" for p, column in enumerate(_DP_P.T) for i in comps]
    quartic = ", ".join(f"y{i} + h*(q0_{i}*x1 + q1_{i}*x2 + q2_{i}*x3 + q3_{i}*x4)" for i in comps)
    dense += [
        "    def at(t):",
        "        x1 = (t - t_old)/h; x2 = x1*x1; x3 = x2*x1; x4 = x3*x1",
        f"        return [{quartic}]",
        "    return at",
    ]
    ns = {}
    exec("\n".join(step + dense) + "\n", {"__builtins__": {}, "sqrt": math.sqrt}, ns)
    return ns["step"], ns["dense"]


def integrate_one(rhs, y0, t_span, cfg: IntegratorConfig, t_eval, layout, order, event=None):
    """The state vector ``y0`` (an array) of ``rhs(t, y)`` by the generated
    Dormand-Prince step, with the step control of ``_integrate_batch``
    (scipy RK45's); returns the times, the states (at ``t_eval`` by the
    quartic interpolant, else at every step) and the info ``{"status",
    "nfev"}`` of a Trajectory.  A failure names ``order`` and a component of
    ``layout``, the slots of the state vector.

    ``event(t, y)``, with ``t_eval`` None, ends the run as it ends a cell of
    ``_integrate_batch``: at an accepted step with ``g <= 0 <= g_new`` the
    last state is the step's quartic at the root, and the status is 1.

    A step normally runs on the bare ``rhs`` and is checked once: its error
    norm is non-finite whenever a stage is, since ``0.0 * inf`` is nan.  A
    step with a non-finite norm, or one that could cross the step budget, is
    run again through ``guarded``, which checks every evaluation, so a
    failure names the evaluation and the last good time that a check per
    call names.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must have t1 > t0")
    samples = None if t_eval is None else np.asarray(t_eval, dtype=float).tolist()
    if samples and (samples[0] < t0 or samples[-1] > t1):
        raise ValueError("t_eval must lie within t_span")
    nfev, t_last, last_out = 0, t0, None

    def guarded(t, y):
        nonlocal nfev, t_last, last_out
        nfev += 1
        if nfev > cfg.max_steps:
            raise _failure(
                f"step budget exhausted ({cfg.max_steps} evaluations)",
                t_last,
                order,
                _largest_rate(layout, last_out),
            )
        out = rhs(t, y)
        if not all(map(math.isfinite, out)):
            raise _failure(f"non-finite state at t={t:.6g}", t_last, order, _first_non_finite(layout, out))
        t_last, last_out = t, out
        return out

    def evaluate(t, y, out):  # _initial_step on a one-cell array
        out[:, 0] = guarded(float(t[0]), y[:, 0].tolist())
        return out

    t, y = t0, y0.tolist()
    f = guarded(t, y)
    with np.errstate(all="ignore"):
        h_abs = float(_initial_step(evaluate, t0, t1, y0[:, None], np.array(f)[:, None], cfg.rtol, cfg.atol)[0])
    step_fn, dense = _dp_kernels(len(y))
    times, ys, next_sample = ([t0], [y], 0) if samples is None else ([], [], 0)
    g, status = event(t, y) if event else 0.0, 0
    while t < t1:
        # scipy's rule: a new step is at least 10 spacings of t long; a
        # retry below that fails
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise _failure(_TOO_SMALL_STEP, t_last, order, _largest_rate(layout, last_out))
            t_new = min(t + h_abs, t1)
            step = t_new - t
            args = (t, t_new, y, f, step, cfg.atol, cfg.rtol)
            checked = nfev + 6 > cfg.max_steps
            if not checked:
                y_new, error, ks = step_fn(rhs, *args)
                checked = not math.isfinite(error)
            if checked:
                y_new, error, ks = step_fn(guarded, *args)
            else:
                nfev += 6
                t_last, last_out = t_new, ks[6]
            growth = _SAFETY * error**_ERROR_EXPONENT if error else math.inf
            if error < 1:
                h_abs = step * min(1.0 if rejected else _MAX_FACTOR, growth)
                break
            h_abs = step * max(_MIN_FACTOR, growth)
            rejected = True

        if event:
            g_new = event(t_new, y_new)
            if g <= 0 <= g_new:
                at = dense(t, step, y, ks)
                root = _event_root(event, at, t, t_new, g, g_new)
                times.append(root)
                ys.append(at(root))
                status = 1
                break
            g = g_new
        if samples is None:
            times.append(t_new)
            ys.append(y_new)
        else:
            while next_sample < len(samples) and samples[next_sample] <= t_new:
                times.append(samples[next_sample])
                ys.append(dense(t, step, y, ks)(samples[next_sample]))
                next_sample += 1
        t, y, f = t_new, y_new, ks[6]
    return np.array(times), np.array(ys), {"status": status, "nfev": nfev}


class TrajectoryBatch(list):
    """Results of one batched integration, in input order: a Trajectory
    per state, or the IntegrationError that stopped it.  ``info["nfev"]``
    counts the right-hand-side calls, each on one cell or on a batch."""

    def __init__(self, results, info):
        super().__init__(results)
        self.info = info


def _combine(coeffs, ks):
    """sum_j coeffs[j] * ks[j] over stacked stages ``ks`` (stage, component,
    cell).  NumPy reduces an outer axis term by term in index order, so a
    cell's bytes do not depend on the other cells of its batch."""
    return np.add.reduce(coeffs[:, None, None] * ks[: len(coeffs)], axis=0)


def _rms(x):
    """RMS over the components (axis 0), summed in component order: a
    reduction over axis 0 of a one-cell array would be pairwise."""
    squares = x * x
    total = squares[0] + squares[1]
    for row in squares[2:]:
        total += row
    return np.sqrt(total) / len(x) ** 0.5


def _initial_step(evaluate, t0, t1, y0, f0, rtol, atol):
    """scipy's select_initial_step for RK45, cell by cell."""
    interval = t1 - t0
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), interval)
    f1 = evaluate(t0 + h0, y0 + h0 * f0, np.empty_like(y0))
    d2 = _rms((f1 - f0) / scale) / h0
    h1 = np.where(
        (d1 <= 1e-15) & (d2 <= 1e-15),
        np.maximum(1e-6, h0 * 1e-3),
        # libm's pow, as Python floats take it: numpy's array ** differs
        # from it in the last bit for some inputs
        [x ** (1 / 5) for x in (0.01 / np.fmax(d1, d2)).tolist()],
    )
    return np.minimum(np.minimum(100 * h0, h1), interval)


def _event_root(event, at, lo, hi, g_lo, g_hi):
    """Root of an upward crossing of ``event(t, at(t))`` on ``[lo, hi]``,
    where ``g_lo <= 0 <= g_hi``, on Python floats: bisected to the width
    4 EPS (1 + |t|) of scipy's brentq; an endpoint where the event is 0 is
    the root, the lower one first."""
    if g_lo != 0 and g_hi != 0:
        while hi - lo >= _EVENT_TOL * (1 + abs(hi)):
            mid = lo + 0.5 * (hi - lo)
            # the event stays below 0 at lo; a nan moves hi
            if event(mid, at(mid)) < 0:
                lo = mid
            else:
                hi = mid
    return lo if g_lo == 0 else hi


def _integrate_cells(field, states, t_span, cfg: IntegratorConfig, event) -> TrajectoryBatch:
    """``_integrate_batch`` one cell at a time by ``integrate_one``, with the
    same bytes in every result; ``info["nfev"]`` counts the right-hand-side
    calls of all cells."""
    if not states:
        return TrajectoryBatch([], {"nfev": 0})
    layout, first = field.layout, states[0]
    rhs, energy_fn = field.compiled(first.hbar), field.energy_function(first.hbar)
    calls = 0

    def counted(t, y):
        nonlocal calls
        calls += 1
        return rhs(t, y)

    results = []
    for state in states:
        try:
            times, ys, info = integrate_one(counted, state.to_vector(layout), t_span, cfg, None, layout, first.order, event)
        except IntegrationError as err:
            results.append(err)
            continue
        energy = energy_fn(ys.T)
        results.append(Trajectory(times, ys, layout, state.hbar, state.order, state.classical_mode, energy, info))
    return TrajectoryBatch(results, {"nfev": calls})


def _integrate_batch(field, states, t_span, cfg: IntegratorConfig, event) -> TrajectoryBatch:
    """Dormand-Prince 5(4) over many states at once, with scipy RK45's step
    control cell by cell.

    ``event(t, y)``, if given, maps the times and states of the active cells
    to one value per cell, and the time and list of floats of one cell to
    its value; an accepted step over which it crosses zero upward ends that
    cell at the root, with ``info["status"]`` 1, as a terminal upward event
    ends scipy's RK45.  Every cell has its own step
    size, rejection rule, step budget, finiteness check and event, and
    leaves the active set when it reaches t1, crosses the event or fails;
    the rest carry on.  All arithmetic is elementwise or summed in a fixed
    order, so a cell's trajectory has the same bytes in a batch of any
    size, a batch of one included, and in ``_integrate_cells``.
    """
    if not states:
        return TrajectoryBatch([], {"nfev": 0})
    layout, first = field.layout, states[0]
    order = first.order
    rhs = field.compiled(first.hbar)
    dense = _dp_kernels(len(layout))[1]
    t0, t1 = float(t_span[0]), float(t_span[1])
    n = len(states)
    results = [None] * n
    status = np.zeros(n, dtype=int)
    cell_nfev = np.zeros(n, dtype=int)

    # The active set: cell ids and their integrator state, one column per
    # cell.  Cells only leave it, so every active cell has taken part in
    # each of the ``nfev`` batched evaluations: that is its own count.
    ids = np.arange(n)
    t = np.full(n, t0)
    y = np.ascontiguousarray(np.array([s.to_vector(layout) for s in states]).T)
    dead = np.zeros(n, dtype=bool)
    t_last, f_last = t, None  # the last good evaluation of every live cell
    nfev = 0
    rows = [(ids, t, y)]

    def fail(j, message, component):
        results[ids[j]] = _failure(message, t_last[j], order, component)
        dead[j] = True

    def evaluate(ts, ys, out):
        """rhs for the active set into ``out``; fails every live cell when
        the budget is spent, before the call, and those with a non-finite
        derivative after it."""
        nonlocal nfev, t_last, f_last
        nfev += 1
        if nfev > cfg.max_steps:
            budget = f"step budget exhausted ({cfg.max_steps} evaluations)"
            for j in np.flatnonzero(~dead):
                fail(j, budget, _largest_rate(layout, f_last[:, j]))
        # the generated code indexes y[i] many times; a list of the rows
        # hands out the same views without building new ones
        for i, v in enumerate(rhs(ts, list(ys))):
            out[i] = v
        if not math.isfinite(out.sum()):
            for j in np.flatnonzero(~np.isfinite(out).all(axis=0) & ~dead):
                fail(j, f"non-finite state at t={ts[j]:.6g}", _first_non_finite(layout, out[:, j]))
        t_last, f_last = ts, out
        return out

    # every step of a cell is at least 10 spacings of t; no step above
    # this bound is below that
    min_step_bound = 10 * (np.finfo(float).eps * max(abs(t0), abs(t1)) + np.finfo(float).smallest_subnormal)
    with np.errstate(all="ignore"):
        f = evaluate(t, y, np.empty_like(y))
        h = _initial_step(evaluate, t0, t1, y, f, cfg.rtol, cfg.atol)
        g = event(t, y) if event else np.zeros(n)
        fresh = np.ones(n, dtype=bool)
        while len(ids):
            # a new step is at least 10 spacings of t long; a retry below
            # that fails the cell
            if h.min() <= min_step_bound:
                min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
                h = np.where(fresh, np.maximum(h, min_step), h)
                for j in np.flatnonzero((h < min_step) & ~dead):
                    fail(j, _TOO_SMALL_STEP, _largest_rate(layout, f_last[:, j]))
            t_new = np.minimum(t + h, t1)
            step = t_new - t
            ks = np.empty((7,) + y.shape)
            ks[0] = f
            for i in range(1, 6):
                evaluate(t + _DP_C[i] * step, y + step * _combine(_DP_A[i, :i], ks), ks[i])
            y_new = y + step * _combine(_DP_B, ks)
            evaluate(t_new, y_new, ks[6])
            scale = cfg.atol + np.maximum(np.abs(y), np.abs(y_new)) * cfg.rtol
            error = _rms(step * _combine(_DP_E, ks) / scale)
            # error 0 gives an infinite growth, capped like any other; no
            # growth in a step that had a rejection.  Each cell's power is
            # libm's, as in integrate_one (see _initial_step).
            growth = np.array([_SAFETY * e**_ERROR_EXPONENT if e else math.inf for e in error.tolist()])
            accepted = (error < 1) & ~dead
            cap = np.where(fresh, _MAX_FACTOR, 1.0)
            h = step * np.where(accepted, np.minimum(cap, growth), np.maximum(_MIN_FACTOR, growth))
            fresh = accepted

            # an upward crossing ends the cell's step at its root instead
            t_rec, y_rec = t_new, y_new
            stopped = np.zeros(len(ids), dtype=bool)
            if event:
                g_new = event(t_new, y_new)
                stopped = accepted & (g <= 0) & (g_new >= 0)
                if stopped.any():
                    t_rec, y_rec = t_new.copy(), y_new.copy()
                    for j in np.flatnonzero(stopped).tolist():
                        at = dense(*(a[..., j].tolist() for a in (t, step, y, ks)))
                        root = _event_root(event, at, *(a[j].item() for a in (t, t_new, g, g_new)))
                        t_rec[j], y_rec[:, j] = root, at(root)
                g = np.where(accepted, g_new, g)

            if accepted.all():
                rows.append((ids, t_rec, y_rec))
                t, y, f = t_new, y_new, ks[-1]
            else:
                rows.append((ids[accepted], t_rec[accepted], y_rec[:, accepted]))
                t = np.where(accepted, t_new, t)
                y = np.where(accepted, y_new, y)
                f = np.where(accepted, ks[-1], f)

            done = dead | stopped | (accepted & (t_new >= t1))
            if done.any():
                ended = done & ~dead
                status[ids[ended]] = stopped[ended]
                cell_nfev[ids[ended]] = nfev
                keep = ~done
                ids, t, y, f, h, fresh, dead, g, t_last, f_last = (
                    a[..., keep] for a in (ids, t, y, f, h, fresh, dead, g, t_last, f_last)
                )

    # each cell's rows in time order, with its monitors
    cells = np.concatenate([r[0] for r in rows])
    by_cell = np.argsort(cells, kind="stable")
    times = np.concatenate([r[1] for r in rows])[by_cell]
    ys = np.concatenate([r[2] for r in rows], axis=1)[:, by_cell]
    energy = field.energy_function(first.hbar)(ys)
    ys = ys.T
    counts = np.bincount(cells, minlength=n)
    ends = np.cumsum(counts)
    for i, (start, end) in enumerate(zip(ends - counts, ends)):
        if results[i] is None:
            info = {"status": int(status[i]), "nfev": int(cell_nfev[i])}
            state = states[i]
            results[i] = Trajectory(
                times[start:end],
                ys[start:end],
                layout,
                state.hbar,
                state.order,
                state.classical_mode,
                energy[start:end],
                info,
            )
    return TrajectoryBatch(results, {"nfev": nfev})
