"""State representation, initial states, ODE integration and monitors."""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np

from . import indices
from .casimir_darboux import DarbouxState1D, casimir_of, from_darboux
from .common import IntegrationError


class AdmissibilityError(ValueError):
    pass


# how far below the uncertainty floor, relative to max(1, |C|), a state may
# sit and still be admissible: rounding in the initial moments
_FLOOR_TOL = 1e-12


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
        return casimir_of(*(self.moments[indices.single(a, b)] for a, b in ((2, 0), (1, 1), (0, 2))))

    def margin(self) -> float:
        return self.casimir() - self.margin_floor

    def validate(self):
        if self.hbar <= 0:
            raise AdmissibilityError("hbar must be positive")
        if self.moments[indices.single(2, 0)] < 0:
            raise AdmissibilityError("Delta(q^2) must be non-negative")
        if self.moments[indices.single(0, 2)] < 0:
            raise AdmissibilityError("Delta(p^2) must be non-negative")
        scale = max(1.0, abs(self.casimir()))
        if self.margin() < -_FLOOR_TOL * scale:
            raise AdmissibilityError(
                "state violates the uncertainty floor: C=%g < %g"
                % (self.casimir(), self.margin_floor)
            )

    def to_vector(self, layout) -> np.ndarray:
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

    Second moments are the Casimir-Darboux chart at (s, p_s, C) = (sigma,
    p_s0, C), with C = hbar^2/4 by default, which saturates the uncertainty
    bound; the chart refuses sigma <= 0 and C < 0.  Passing ``casimir``
    overrides C (the classical bound C = 0 needs ``classical_mode``).
    Higher Weyl-ordered moments follow the Gaussian Wick rule, i.e. the
    phase-space averages of the corresponding Gaussian distribution.
    """
    if casimir is None:
        casimir = uncertainty_floor(hbar)
    sxx, sxy, syy = from_darboux(DarbouxState1D(sigma, p_s0, casimir))
    cache = {}
    moments = {}
    for idx in indices.iter_indices(order, 1):
        a, b = idx[0]
        moments[idx] = _gaussian_raw_moment(a, b, sxx, sxy, syy, cache)
    return MomentState(q0, p0, moments, hbar, order, classical_mode)


class IntegratorConfig:
    """Tolerances and evaluation budget of the DOP853 integrator."""

    def __init__(self, rtol=1e-10, atol=1e-13, max_steps=2_000_000):
        if rtol <= 0 or atol <= 0:
            raise ValueError("tolerances must be positive")
        if max_steps <= 0:
            raise ValueError("max_steps must be positive")
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.max_steps = int(max_steps)


class Trajectory:
    """Sampled solution, its columns named as in the CSV, with per-sample
    monitors: the energy it is given, and the Casimir and margin above
    ``floor`` of its own second moments; ``monitors`` sums them up."""

    def __init__(self, times, ys, layout, floor, energy, info=None):
        self.times = np.asarray(times)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        self.ys = np.asarray(ys)
        self.names = [_csv_name(var) for var in layout]
        self.energy = np.asarray(energy)
        self.casimir = casimir_of(*map(self.column, ("Delta_q2", "Delta_qp", "Delta_p2")))
        self.margin = self.casimir - floor
        self.info = info or {}

    @functools.cached_property
    def monitors(self) -> dict:
        """The run's energy and Casimir drifts, each the largest deviation
        from the first sample relative to it, and its smallest margin.
        Computed at first use: an overflowed run's energy may hold inf."""
        e0 = self.energy[0]
        c0 = self.casimir[0]
        escale = max(abs(e0), 1e-300)
        # C = Δq²Δp² − Δqp² is a difference of products; at C0 = 0 its drift is
        # relative to the run's largest product Δq²Δp² instead
        cscale = max(abs(c0) or float(np.max(np.abs(self.column("Delta_q2") * self.column("Delta_p2")))), 1e-300)
        return {
            "energy_drift": float(np.max(np.abs(self.energy - e0)) / escale),
            "casimir_drift": float(np.max(np.abs(self.casimir - c0)) / cscale),
            "margin_min": float(np.min(self.margin)),
        }

    def column(self, name) -> np.ndarray:
        """The samples of CSV column ``name``; ValueError if there is none."""
        return self.ys[:, self.names.index(name)]

    def write_csv(self, path):
        columns = (self.times, self.ys, self.energy, self.casimir, self.margin)
        rows = ([t, *y, e, c, m] for t, y, e, c, m in zip(*(a.tolist() for a in columns)))
        write_table(path, ["t", *self.names, "energy", "casimir", "margin"], rows)


def write_table(path, header, rows):
    """CSV with floats at 17 significant digits, which round-trip exactly;
    string cells are written as they are.  Each row is one %-format, made
    once per pattern of cell types: %.17g per figure, %s per string."""
    formats = {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row)
            kinds = tuple(map(type, row))
            fmt = formats.get(kinds)
            if fmt is None:
                fmt = formats[kinds] = ",".join("%s" if issubclass(k, str) else "%.17g" for k in kinds) + "\n"
            fh.write(fmt % row)


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

    One ``MomentState`` gives a Trajectory, sampled at ``t_eval`` if given,
    and raises the IntegrationError that stops it.  A sequence of states,
    such as the cells of a sweep or the one cell of a tunneling run, gives
    a TrajectoryBatch that stops each cell at an upward zero crossing of
    ``event``.  Up to ``_MAX_FLOAT_CELLS`` states, one state included, run
    one at a time by ``_integrate_cells``: a generated DOP853 step on
    Python floats (``integrate_one``) with scipy DOP853's step control and
    7th-order dense output, so no scipy is loaded.  More states run together
    on row arrays (``_integrate_batch``), with the same bytes.  Both build
    their interpolants together on row arrays.  One state takes no event,
    and a batch no ``t_eval``.  Both keep the local error below the
    configured tolerances; a step budget and finite-state checks guard
    runaway trajectories.  A failure names the last good time, the
    truncation order and the component at fault.  ``integrate_one`` and
    ``_integrate_batch`` each refuse a ``t_span`` without t1 > t0, and
    ``integrate`` a state of another order than the field's and a batch of
    states that do not share one hbar, as the rhs is made for one hbar.

    Python floats do the same IEEE operations in the same order as
    ``np.float64`` scalars and as each cell of a row array, so the bytes
    are the same, and indexing a list and adding floats is several times
    faster than a numpy call on a few cells.
    """
    single = isinstance(state0, MomentState)
    states = [state0] if single else list(state0)
    order = indices.order(field.layout[-1][1])
    for state in states:
        if state.order != order:
            raise ValueError(f"a state of order {state.order} on a field of order {order}")
        if state.hbar != states[0].hbar:
            raise ValueError(f"the states of a batch must share one hbar: {states[0].hbar!r} and {state.hbar!r}")
    if single:
        if event is not None:
            raise ValueError("a single state takes no event; an event stops the cells of a batch")
        (traj,) = _integrate_cells(field, states, t_span, cfg, None, t_eval)
        if isinstance(traj, IntegrationError):
            raise traj
        return traj
    if t_eval is not None:
        raise ValueError("a batch of states records its own steps; t_eval is not supported")
    run = _integrate_cells if len(states) <= _MAX_FLOAT_CELLS else _integrate_batch
    return run(field, states, t_span, cfg, event)


# ---------------------------------------------------------------------------
# DOP853: one state on Python floats, or a batch on row arrays
# ---------------------------------------------------------------------------

# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.10) with the
# values of scipy.integrate.DOP853, written out so that neither path needs
# scipy.  Each row holds its nonzero entries as {stage: coefficient} in stage
# order.  _C are the nodes.  Rows 1-11 of _A make the stages of a step, row
# 12 is the 8th-order update (stage 12 is the FSAL rhs(t_new, y_new)), and
# rows 13-15 make the three extra stages of the dense output.  _E5 and _E3
# weigh the 5th- and 3rd-order error estimates, and _D gives the rows 3-6 of
# the 7th-order interpolant.
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0, 1.0, 0.1, 0.2, 0.7777777777777778,
)
_A = (
    {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    {
        0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
        5: -0.015319437748624402, 6: 0.008273789163814023,
    },
    {
        0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
        5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996,
    },
    {
        0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
        5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
        8: -0.020331201708508627,
    },
    {
        0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
        5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
        8: 2.4936055526796523, 9: -3.0467644718982196,
    },
    {
        0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
        5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
        8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636,
    },
    {
        0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
        7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
        10: 0.20136540080403034, 11: 0.04471061572777259,
    },
    {
        0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
        8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
        11: 0.007567897660545699, 12: -0.008298,
    },
    {
        0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
        7: -0.05492374857139099, 10: -0.00010834732869724932, 11: 0.0003825710908356584,
        12: -0.00034046500868740456, 13: 0.1413124436746325,
    },
    {
        0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
        7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
        13: 2.9475147891527724, 14: -9.15095847217987,
    },
)
_E5 = {
    0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502, 7: 1.6643771824549864,
    8: -0.35032884874997366, 9: 0.3341791187130175, 10: 0.08192320648511571, 11: -0.022355307863886294,
}
_E3 = {
    0: -0.18980075407240762, 5: 4.450312892752409, 6: 1.8915178993145003, 7: -5.801203960010585,
    8: -0.4226823213237919, 9: -0.1521609496625161, 10: 0.20136540080403034, 11: 0.02265179219836082,
}
_D = (
    {
        0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917, 7: 2.38466765651207,
        8: 2.117034582445028, 9: -0.871391583777973, 10: 2.2404374302607883, 11: 0.6315787787694688,
        12: -0.08899033645133331, 13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894,
    },
    {
        0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028, 7: -374.5467547226902,
        8: -22.113666853125306, 9: 7.733432668472264, 10: -30.674084731089398, 11: -9.332130526430229,
        12: 15.697238121770845, 13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408,
    },
    {
        0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758, 7: 527.8081592054236,
        8: -11.57390253995963, 9: 6.8812326946963, 10: -1.0006050966910838, 11: 0.7777137798053443,
        12: -2.778205752353508, 13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279,
    },
    {
        0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455, 7: 357.6391179106141,
        8: 93.40532418362432, 9: -37.45832313645163, 10: 104.0996495089623, 11: 29.8402934266605,
        12: -43.53345659001114, 13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564,
    },
)
# scipy's step-size control: safety factor, factor bounds, error exponent
# -1/(7 + 1) and the message of a step below 10 spacings of t
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 8
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
# scipy locates events with brentq at xtol = rtol = 4 EPS
_EVENT_TOL = 4 * math.ulp(1.0)
# A batch of up to this many cells runs one cell at a time on Python floats.
# On a 2-core VM, one CPU, integrating criterion 07's ranges at order 2 on
# floats against row arrays takes 0.049 s against 0.105 s for 4x4 cells,
# 0.146 s against 0.126 s for 8x8 and 2.8 s against 0.48 s for 32x32.  The
# two meet near 50 cells at order 2 and above 64 at order 4; 32 keeps the
# float path clear of the crossover at every order.
_MAX_FLOAT_CELLS = 32


# The stages of a step that its interpolant reads, in stage order: a step
# whose interpolant waits to be built holds only these.
_HELD = sorted({j for row in (*_A[13:], *_D) for j in row if j < 13})
# Interpolants are built this many held steps at a time, and sampled this
# many samples at a time.  On a 2-core VM, the 198 held steps of the
# anharmonic order-5 run cost 2.3, 1.58, 1.22 and 1.04 times one build of
# all of them in chunks of 16, 32, 64 and 128 steps (7.2 ms for all,
# against 17 ms one step at a time on floats); a chunk of 128 steps at 35
# components, order 7, holds about 2 MiB, allocated at its first step.
_DENSE_CHUNK = 128


def _each(n, template, sep=", "):
    """``template`` for every component of ``n``, ``#`` standing for its index."""
    return sep.join(template.replace("#", str(i)) for i in range(n))


def _stage_sum(row):
    return " + ".join(f"{c!r}*k{j}_#" for j, c in row.items())


# orders 2..7 give six state sizes, (q, p) a seventh
@functools.lru_cache(maxsize=8)
def _dp_step(n):
    """Generated DOP853 step on lists of ``n`` Python floats.

    ``step(rhs, t, t_new, y, f, h, atol, rtol)`` takes the step of size
    ``h = t_new - t`` from ``y`` with ``f = rhs(t, y)`` and returns
    ``(y_new, error norm, the 13 stages, probe)``: the last stage is
    ``rhs(t_new, y_new)``, and ``probe``, the sum of the stages that the
    norm does not weigh, is non-finite when one of them is.  Every stage sum
    is written term by term in stage order, zero coefficients skipped, as
    ``_combine`` reduces it, and the norm adds the squares as
    ``_sum_squares`` does, so the step has the bits of ``_step_arrays`` on a
    one-cell array.  At ``n = 20`` it takes about 15 ms to compile and
    raises the peak RSS by about 1.4 MiB.
    """
    step = [
        "def step(rhs, t, t_new, y, f, h, atol, rtol):",
        f"    {_each(n, 'y#')}, = y",
        f"    {_each(n, 'k0_#')}, = f",
    ]
    for s in range(1, 12):
        stage = f"rhs(t + {_C[s]!r}*h, [{_each(n, f'y# + h*({_stage_sum(_A[s])})')}])"
        step += [f"    k{s} = {stage}", f"    {_each(n, f'k{s}_#')}, = k{s}"]
    step.append(_each(n, f"    n# = y# + h*({_stage_sum(_A[12])})", "\n"))
    step += [f"    k12 = rhs(t_new, [{_each(n, 'n#')}])", f"    {_each(n, 'k12_#')}, = k12"]
    unweighed = sorted(set(range(13)) - set(_E5) - set(_E3))  # the stages the norm does not weigh
    # abs() by a comparison: a -0.0 left as it is scales to atol all the same
    step += [
        _each(
            n,
            "    a = y# if y# >= 0 else -y#; b = n# if n# >= 0 else -n#; s = atol + (a if a >= b else b)*rtol\n"
            f"    u# = ({_stage_sum(_E5)})/s; v# = ({_stage_sum(_E3)})/s",
            "\n",
        ),
        f"    s5 = {_each(n, 'u#*u#', ' + ')}",
        f"    s3 = {_each(n, 'v#*v#', ' + ')}",
        f"    probe = {' + '.join(_each(n, f'k{s}_#', ' + ') for s in unweighed)}",
        f"    error = h*s5/sqrt((s5 + 0.01*s3)*{n}) if s5 or s3 else 0.0",
        f"    if s5 + s3 == inf: error = overflowed(h, [{_each(n, 'u#')}], [{_each(n, 'v#')}], error)",
        f"    return [{_each(n, 'n#')}], error, ({', '.join(['f'] + [f'k{s}' for s in range(1, 13)])}), probe",
    ]
    ns = {}
    code = compile("\n".join(step) + "\n", f"<DOP853 on {n} floats>", "exec")
    exec(code, {"__builtins__": {}, "sqrt": math.sqrt, "inf": math.inf, "overflowed": _overflowed_norm}, ns)
    return ns["step"]


class _Evaluations:
    """The ``rhs`` calls of one state, each counted against ``budget`` and
    checked for a finite result.  ``nfev`` counts the calls made, and ``t``
    and ``out`` are the time and result of the last good one, which a
    failure names."""

    def __init__(self, rhs, budget, layout, order, nfev, t, out):
        self.rhs, self.budget, self.layout, self.order = rhs, budget, layout, order
        self.nfev, self.t, self.out = nfev, t, out

    def __call__(self, t, y):
        if self.nfev >= self.budget:
            budget = f"step budget exhausted ({self.budget} evaluations)"
            raise _failure(budget, self.t, self.order, _largest_rate(self.layout, self.out))
        self.nfev += 1
        out = self.rhs(t, y)
        if not all(map(math.isfinite, out)):
            raise _failure(f"non-finite state at t={t:.6g}", self.t, self.order, _first_non_finite(self.layout, out))
        self.t, self.out = t, out
        return out


def integrate_one(rhs, y0, t_span, cfg: IntegratorConfig, t_eval, layout, order, event=None, crossings=None):
    """The state vector ``y0`` (an array) of ``rhs(t, y)`` by the generated
    DOP853 step, with the step control of ``_integrate_batch`` (scipy
    DOP853's); returns the times, the states (at ``t_eval`` by the 7th-order
    interpolant, else at every step) and the info ``{"status", "nfev",
    "naccept", "nreject"}`` of a Trajectory.  A failure names ``order`` and
    a component of ``layout``, the slots of the state vector.  ``rhs`` takes
    a list of Python floats, and a list of row arrays, one value per column,
    with the same bits in each column.

    ``event(t, y)``, with ``t_eval`` None, ends the run as it ends a cell of
    ``_integrate_batch``: at an accepted step with ``g <= 0 <= g_new`` the
    status is 1, and the states stop before that step, which ``crossings``
    (a ``_Held`` of ``_roots``) holds; the caller appends its root.  The
    steps that hold samples are held too, in a ``_Held`` of their own.  The
    three evaluations of each interpolant are counted as its step is taken.  A sampled step's
    interpolant that fails, or would cross the step budget, raises what
    checking its stages one at a time raises, before any later failure.

    A step normally runs on the bare ``rhs`` and is checked once: its error
    norm, or the probe of the stages the norm does not weigh, is non-finite
    whenever a stage is.  A step with a non-finite norm or probe, or one that
    could cross the step budget, is run again one checked evaluation at a
    time, so a failure names the evaluation and the last good time that a
    check per call names.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must have t1 > t0")
    samples = None if t_eval is None else np.asarray(t_eval, dtype=float).tolist()
    if samples and (samples[0] < t0 or samples[-1] > t1):
        raise ValueError("t_eval must lie within t_span")
    checked = _Evaluations(rhs, cfg.max_steps, layout, order, 0, t0, None)

    def evaluate(t, y, out):  # _initial_step on a one-cell array
        out[:, 0] = checked(float(t[0]), y[:, 0].tolist())
        return out

    t, y = t0, y0.tolist()
    f = checked(t, y)
    with np.errstate(all="ignore"):
        h_abs = float(_initial_step(evaluate, t0, t1, y0[:, None], np.array(f)[:, None], cfg.rtol, cfg.atol)[0])
    step_fn = _dp_step(len(y))
    held = _Held(rhs, cfg.max_steps, layout, order, _samples)
    # sampled, the states are those of the held steps, built in order
    times, ys, next_sample = ([t0], [y], 0) if samples is None else ([], held.out, 0)
    g, status, naccept, nreject = event(t, y) if event else 0.0, 0, 0, 0
    # held steps are built after a failure too: an interpolant that fails,
    # or crosses the budget and so fails the next step, was made before it
    with held:
        while t < t1:
            # scipy's rule: a new step is at least 10 spacings of t long; a
            # retry below that fails
            min_step = 10 * abs(math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise _failure(_TOO_SMALL_STEP, checked.t, order, _largest_rate(layout, checked.out))
                t_new = min(t + h_abs, t1)
                step = t_new - t
                args = (t, t_new, y, f, step, cfg.atol, cfg.rtol)
                replay = checked.nfev + 12 > cfg.max_steps
                if not replay:
                    y_new, error, ks, probe = step_fn(rhs, *args)
                    replay = not math.isfinite(error + probe)
                if replay:
                    y_new, error, ks, _ = step_fn(checked, *args)
                else:
                    checked.nfev += 12
                    checked.t, checked.out = t_new, ks[12]
                growth = _SAFETY * error**_ERROR_EXPONENT if error else math.inf
                if error < 1:
                    h_abs = step * min(1.0 if rejected else _MAX_FACTOR, growth)
                    break
                h_abs = step * max(_MIN_FACTOR, growth)
                rejected = True
                nreject += 1
            naccept += 1

            if event:
                g_new = event(t_new, y_new)
                if g <= 0 <= g_new:
                    crossings.add(y, y_new, ks, t, t_new, checked.nfev, (g, g_new))
                    checked.nfev += 3
                    status = 1
                    break
                g = g_new
            if samples is None:
                times.append(t_new)
                ys.append(y_new)
            else:
                first = next_sample
                while next_sample < len(samples) and samples[next_sample] <= t_new:
                    next_sample += 1
                sampled = samples[first:next_sample]
                if sampled:
                    times += sampled
                    held.add(y, y_new, ks, t, t_new, checked.nfev, sampled)
                    checked.nfev += 3
            t, y, f = t_new, y_new, ks[12]
    info = {"status": status, "nfev": checked.nfev, "naccept": naccept, "nreject": nreject}
    return np.array(times), np.array(ys), info


class _Held(contextlib.AbstractContextManager):
    """Up to ``_DENSE_CHUNK`` held steps of one ``rhs``: each step's ``y``,
    ``y_new`` and stages in ``_HELD`` go into a chunk array, allocated when
    the first step arrives, and its ``t``, ``t_new``, ``nfev`` and what it
    is held for into ``steps``; its size is ``t_new - t``, the subtraction
    that made it.  When the chunk is full, and on leaving a ``with`` block,
    failure or not, ``build`` extends ``out`` by ``use(steps, interpolants,
    errors)``.  ``nfev`` counts their evaluations as ``_Evaluations``
    counts them, a failing interpolant's up to its failure."""

    def __init__(self, rhs, budget, layout, order, use):
        self.rhs, self.budget, self.use = rhs, budget, use
        self.evaluations = functools.partial(_Evaluations, rhs, budget, layout, order)
        self.rows, self.steps, self.out, self.nfev = None, [], [], 0

    def __exit__(self, *exc):
        if self.steps:
            self.build()

    def add(self, y, y_new, ks, t, t_new, nfev, what):
        if self.rows is None:
            self.rows = np.empty((_DENSE_CHUNK, 2 + len(_HELD), len(y)))
        self.rows[len(self.steps)] = (y, y_new, *(ks[j] for j in _HELD))
        self.steps.append((t, t_new, nfev, what))
        if len(self.steps) == _DENSE_CHUNK:
            self.build()

    def build(self):
        """Empty the chunk, its interpolants built together by ``_dense_rows``.
        Where that raises, leaves an extra stage non-finite or a step would
        cross the budget, each step is built again alone, its rhs checked by
        ``_Evaluations`` as when the step was taken; ``errors`` holds what
        each raised."""
        steps, self.steps = self.steps, []
        t_old, t_new, nfev = (np.array([step[i] for step in steps]) for i in range(3))
        h = t_new - t_old
        rows = self.rows[: len(steps)].transpose(1, 2, 0)  # (row, component, step)
        ks = np.empty((16,) + rows.shape[1:])
        ks[_HELD] = rows[2:]
        errors = [None] * len(steps)
        self.nfev += 3 * len(steps)
        with np.errstate(all="ignore"):
            try:
                coefs = _dense_rows(self.rhs, t_old, h, rows[0], rows[1], ks) if nfev.max() + 3 <= self.budget else None
            except Exception:  # raised again below, by the step that meets it
                coefs = None
            if coefs is None or not np.isfinite(ks[13:]).all():
                coefs = np.empty((8,) + rows.shape[1:])
                for j, (_, end, count, _) in enumerate(steps):
                    checked = self.evaluations(count, end, ks[12, :, j].tolist())
                    col = slice(j, j + 1)
                    try:
                        coefs[..., col] = _dense_rows(
                            lambda t, y: checked(t.item(), [v.item() for v in y]),
                            t_old[col], h[col], rows[0, :, col], rows[1, :, col], ks[..., col],
                        )
                    except Exception as err:
                        errors[j] = err
                        self.nfev -= count + 3 - checked.nfev  # the evaluations it did not make
            self.out += self.use(steps, coefs, errors)


def _samples(steps, coefs, errors):
    """Yields the samples of held steps, each held for its sample times, in
    order, as lists of floats, evaluated ``_DENSE_CHUNK`` samples at a time;
    raises the first failure of their interpolants."""
    for err in filter(None, errors):
        raise err
    x = np.array([(s - t) / (t_new - t) for t, t_new, _, times in steps for s in times])
    cols = np.array([i for i, step in enumerate(steps) for _ in step[3]])
    for i in range(0, len(x), _DENSE_CHUNK):
        (rows,) = _horner(x[i : i + _DENSE_CHUNK], [coefs[..., cols[i : i + _DENSE_CHUNK]]])
        yield from rows.T.tolist()


def _dense_rows(rhs, t_old, h, y, y_new, ks):
    """DOP853's 7th-order interpolant of many steps, one per column, with
    ``_combine``'s stage sums, so every column has the bits of its step
    built alone.  ``ks`` stacks the stages (stage, component, column);
    given 0 and 5-12, it gets 13-15 from one row call of ``rhs`` each.
    Returns the rows ``(y, d, f1...f6)`` of ``_horner``, stacked alike."""
    for s in (13, 14, 15):
        for i, v in enumerate(rhs(t_old + _C[s] * h, list(y + h * _combine(_A[s], ks)))):
            ks[s, i] = v
    d = y_new - y
    f1, f2 = h * ks[0] - d, 2 * d - h * (ks[12] + ks[0])
    return np.array((y, d, f1, f2, *(h * _combine(row, ks) for row in _D)))


def _horner(x, columns):
    """The interpolant at the step fraction ``x = (t - t_old)/h`` of each
    ``(y, d, f1...f6)`` in ``columns``: the rows of one component as Python
    floats, or of every component as row arrays.  One call sums all the
    components of a float state: a call per component triples the cost."""
    u = 1 - x
    return [
        y + ((((((f6 * x + f5) * u + f4) * x + f3) * u + f2) * x + f1) * u + d) * x
        for y, d, f1, f2, f3, f4, f5, f6 in columns
    ]


class TrajectoryBatch(list):
    """Results of one batched integration, in input order: a Trajectory
    per state, or the IntegrationError that stopped it.  ``info["nfev"]``
    counts each batched rhs call once, or sums the finished cells' counts."""

    def __init__(self, results, info):
        super().__init__(results)
        self.info = info


def _combine(row, ks):
    """sum_j c * ks[j] over the {j: c} of a tableau row, on stacked stages
    ``ks`` (stage, component, cell).  NumPy reduces an outer axis term by
    term in index order, so a cell's bytes do not depend on the other cells
    of its batch."""
    return np.add.reduce(np.array(list(row.values()))[:, None, None] * ks[list(row)], axis=0)


def _sum_squares(x):
    """Sum of squares over the components (axis 0), in component order: a
    reduction over axis 0 of a one-cell array would be pairwise."""
    squares = x * x
    total = squares[0] + squares[1]
    for row in squares[2:]:
        total += row
    return total


def _rms(x):
    return np.sqrt(_sum_squares(x)) / len(x) ** 0.5


def _initial_step(evaluate, t0, t1, y0, f0, rtol, atol):
    """scipy's select_initial_step for DOP853, cell by cell."""
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
        [x ** -_ERROR_EXPONENT for x in (0.01 / np.fmax(d1, d2)).tolist()],
    )
    return np.minimum(np.minimum(100 * h0, h1), interval)


def _step_arrays(evaluate, t, t_new, y, f, step, atol, rtol):
    """One DOP853 step of every cell, a column of ``y``: returns ``(y_new,
    error norm, the 13 stages)``.  The norm is scipy's blend of the 5th- and
    3rd-order estimates, ``h e5^2 / sqrt((e5^2 + 0.01 e3^2) n)`` with the
    squared norms of the scaled estimates, or 0 where both are 0."""
    ks = np.empty((13,) + y.shape)
    ks[0] = f
    for s in range(1, 12):
        evaluate(t + _C[s] * step, y + step * _combine(_A[s], ks), ks[s])
    y_new = y + step * _combine(_A[12], ks)
    evaluate(t_new, y_new, ks[12])
    scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
    u, v = _combine(_E5, ks) / scale, _combine(_E3, ks) / scale
    s5, s3 = _sum_squares(u), _sum_squares(v)
    error = np.where((s5 == 0) & (s3 == 0), 0.0, step * s5 / np.sqrt((s5 + 0.01 * s3) * len(y)))
    for j in np.flatnonzero(s5 + s3 == np.inf).tolist():
        error[j] = _overflowed_norm(step[j].item(), u[:, j].tolist(), v[:, j].tolist(), error[j].item())
    return y_new, error, ks


def _overflowed_norm(h, u, v, error):
    """The error norm of a step whose squared estimates overflow: ``u`` and
    ``v`` are the scaled 5th- and 3rd-order estimates of one cell, which
    are divided by their largest magnitude ``m`` before they are squared,
    so the norm is ``h m s5 / sqrt((s5 + 0.01 s3) n)`` on the quotients.
    Non-finite estimates keep ``error``.  Both integrator paths call this
    on Python floats, so the cell keeps the same bits on either."""
    both = u + v
    if not all(map(math.isfinite, both)):
        return error
    m = max(map(abs, both))
    s5 = s3 = 0.0
    for a, b in zip(u, v):
        a, b = a / m, b / m
        s5 += a * a
        s3 += b * b
    return h * m * s5 / math.sqrt((s5 + 0.01 * s3) * len(u))


def _roots(event, steps, coefs, errors):
    """Yields the ends of held steps that ``event`` crosses, each held for
    ``(g, g_new)``: the root and its state by ``_event_root``, or the
    IntegrationError its interpolant raises; any other failure is raised."""
    for (t, t_new, _, (g, g_new)), column, err in zip(steps, coefs.T.tolist(), errors):
        if err is not None and not isinstance(err, IntegrationError):
            raise err
        yield err or _event_root(event, column, t, t_new, g, g_new)


def _event_root(event, column, lo, hi, g_lo, g_hi):
    """Root of an upward crossing of ``event(t, y)`` over the step from
    ``lo`` to ``hi``, where ``g_lo <= 0 <= g_hi``, and the state there, on
    the step's interpolant: ``column`` holds its rows ``(y, d, f1...f6)``
    per component as floats, in the step fraction ``(t - lo)/h`` with ``h =
    hi - lo``, the step's size as it was taken.  Bisected on floats to the
    width 4 EPS (1 + |t|) of scipy's brentq; an endpoint where the event is
    0 is the root, the lower one first."""
    t_old, h = lo, hi - lo
    if g_lo != 0 and g_hi != 0:
        while hi - lo >= _EVENT_TOL * (1 + abs(hi)):
            mid = lo + 0.5 * (hi - lo)
            # the event stays below 0 at lo; a nan moves hi
            if event(mid, _horner((mid - t_old) / h, column)) < 0:
                lo = mid
            else:
                hi = mid
    root = lo if g_lo == 0 else hi
    return root, _horner((root - t_old) / h, column)


def _integrate_cells(field, states, t_span, cfg: IntegratorConfig, event, t_eval=None) -> TrajectoryBatch:
    """``_integrate_batch`` one cell at a time by ``integrate_one``, with the
    same bytes in every result; it also runs ``integrate``'s one state, at
    ``t_eval``.  The crossings of all cells are held together, and a run
    ends at its root.  ``info["nfev"]`` sums the Trajectories' own counts."""
    if not states:
        return TrajectoryBatch([], {"nfev": 0})
    layout, order, hbar = field.layout, states[0].order, states[0].hbar
    rhs, energy_fn = field.compiled(hbar), field.energy_function(hbar)
    runs = []
    with _Held(rhs, cfg.max_steps, layout, order, functools.partial(_roots, event)) as crossings:
        for state in states:
            try:
                runs.append(integrate_one(rhs, state.to_vector(layout), t_span, cfg, t_eval, layout, order, event, crossings))
            except IntegrationError as err:
                runs.append(err)
    ends = iter(crossings.out)  # the end of each run that crossed, in order
    results = []
    for state, run in zip(states, runs):
        if not isinstance(run, IntegrationError) and run[2]["status"]:
            times, ys, info = run
            end = next(ends)
            run = end if isinstance(end, IntegrationError) else (np.append(times, end[0]), np.vstack((ys, end[1])), info)
        if not isinstance(run, IntegrationError):
            times, ys, info = run
            run = Trajectory(times, ys, layout, state.margin_floor, energy_fn(ys.T), info)
        results.append(run)
    return TrajectoryBatch(results, {"nfev": sum(r.info["nfev"] for r in results if isinstance(r, Trajectory))})


def _integrate_batch(field, states, t_span, cfg: IntegratorConfig, event) -> TrajectoryBatch:
    """DOP853 over many states at once, with scipy DOP853's step control
    cell by cell.

    ``event(t, y)``, if given, maps the times and states of the active cells
    to one value per cell, and the time and list of floats of one cell to
    its value; an accepted step over which it crosses zero upward ends that
    cell at the root, with ``info["status"]`` 1, as a terminal upward event
    ends scipy's DOP853.  The crossing steps are held, their 7th-order
    interpolants built together ``_DENSE_CHUNK`` at a time by ``_Held``,
    and each root is bisected on floats.  Every cell has its own step size,
    rejection rule, step budget, finiteness check and event, and leaves the
    active set when it reaches t1, crosses the event or fails; the rest
    carry on.  All arithmetic is elementwise or summed in a fixed order, so
    a cell's trajectory and info ``{"status", "nfev", "naccept",
    "nreject"}`` have the same bytes in a batch of any size, a batch of one
    included, and in ``_integrate_cells``.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must have t1 > t0")
    layout, order, hbar = field.layout, states[0].order, states[0].hbar
    rhs = field.compiled(hbar)
    n = len(states)
    results = [None] * n
    status, cell_nfev, naccept, nreject = (np.zeros(n, dtype=int) for _ in range(4))

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
    crossings = _Held(rhs, cfg.max_steps, layout, order, functools.partial(_roots, event))
    crossed = []  # the cells whose crossings are held, in order

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
        for i, v in enumerate(rhs(ts, ys)):
            out[i] = v
        if not math.isfinite(out.sum()):
            for j in np.flatnonzero(~np.isfinite(out).all(axis=0) & ~dead):
                fail(j, f"non-finite state at t={ts[j]:.6g}", _first_non_finite(layout, out[:, j]))
        t_last, f_last = ts, out
        return out

    with np.errstate(all="ignore"), crossings:
        f = evaluate(t, y, np.empty_like(y))
        h = _initial_step(evaluate, t0, t1, y, f, cfg.rtol, cfg.atol)
        g = event(t, y) if event else np.zeros(n)
        fresh = np.ones(n, dtype=bool)
        while len(ids):
            # a new step is at least 10 spacings of t long; a retry below
            # that fails the cell
            min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
            h = np.where(fresh, np.maximum(h, min_step), h)
            for j in np.flatnonzero((h < min_step) & ~dead):
                fail(j, _TOO_SMALL_STEP, _largest_rate(layout, f_last[:, j]))
            t_new = np.minimum(t + h, t1)
            step = t_new - t
            y_new, error, ks = _step_arrays(evaluate, t, t_new, y, f, step, cfg.atol, cfg.rtol)
            # error 0 gives an infinite growth, capped like any other; no
            # growth in a step that had a rejection; a nan norm (inf/inf from
            # huge finite stages) shrinks by _MIN_FACTOR, as Python's max
            # takes it in integrate_one and scipy.  Each cell's power is
            # libm's, as in integrate_one (see _initial_step).
            growth = np.array([_SAFETY * e**_ERROR_EXPONENT if e else math.inf for e in error.tolist()])
            accepted = (error < 1) & ~dead
            naccept[ids] += accepted
            nreject[ids] += ~accepted
            cap = np.where(fresh, _MAX_FACTOR, 1.0)
            h = step * np.where(accepted, np.minimum(cap, growth), np.fmax(_MIN_FACTOR, growth))
            fresh = accepted

            # a cell whose step the event crosses upward ends at its root
            # instead, recorded when its crossing is rooted
            stopped = np.zeros(len(ids), dtype=bool)
            if event:
                g_new = event(t_new, y_new)
                stopped = accepted & (g <= 0) & (g_new >= 0)
                for j in np.flatnonzero(stopped).tolist():
                    step_j = (a[j].item() for a in (t, t_new))
                    crossings.add(y[:, j], y_new[:, j], ks[..., j], *step_j, nfev, (g[j].item(), g_new[j].item()))
                    crossed.append(ids[j].item())
                g = np.where(accepted, g_new, g)

            recorded = accepted & ~stopped
            rows.append((ids[recorded], t_new[recorded], y_new[:, recorded]))
            t = np.where(accepted, t_new, t)
            y = np.where(accepted, y_new, y)
            f = np.where(accepted, ks[-1], f)

            done = dead | stopped | (accepted & (t_new >= t1))
            if done.any():
                ended = done & ~dead
                status[ids[ended]] = stopped[ended]
                cell_nfev[ids[ended]] = nfev + 3 * stopped[ended]
                keep = ~done
                ids, t, y, f, h, fresh, dead, g, t_last, f_last = (
                    a[..., keep] for a in (ids, t, y, f, h, fresh, dead, g, t_last, f_last)
                )
    for cell, end in zip(crossed, crossings.out):
        if isinstance(end, IntegrationError):
            results[cell] = end
        else:
            rows.append(([cell], [end[0]], np.array(end[1])[:, None]))

    # each cell's rows in time order, with its monitors
    cells = np.concatenate([r[0] for r in rows])
    by_cell = np.argsort(cells, kind="stable")
    times = np.concatenate([r[1] for r in rows])[by_cell]
    ys = np.concatenate([r[2] for r in rows], axis=1)[:, by_cell]
    energy = field.energy_function(hbar)(ys)
    ys = ys.T
    counts = np.bincount(cells, minlength=n)
    ends = np.cumsum(counts)
    stats = {"status": status, "nfev": cell_nfev, "naccept": naccept, "nreject": nreject}
    for i, (start, end) in enumerate(zip(ends - counts, ends)):
        if results[i] is None:
            info = {name: int(values[i]) for name, values in stats.items()}
            floor = states[i].margin_floor
            results[i] = Trajectory(times[start:end], ys[start:end], layout, floor, energy[start:end], info)
    return TrajectoryBatch(results, {"nfev": nfev + crossings.nfev})
