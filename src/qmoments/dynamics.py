"""State representation, initial states, ODE integration and monitors."""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from . import indices


class IntegrationError(RuntimeError):
    """Integration failed; carries the last good time in .last_time."""

    def __init__(self, message, last_time=None):
        super().__init__(message)
        self.last_time = last_time


class AdmissibilityError(ValueError):
    pass


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
        return 0.0 if self.classical_mode else 0.25 * self.hbar**2

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
        return (("q", 0), ("p", 0)) + tuple(
            ("D", idx) for idx in indices.iter_indices(self.order, 1)
        )

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
        casimir = 0.25 * hbar**2
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
    """method 'rk45' (embedded adaptive 4/5) or 'rk4' (fixed classical)."""

    def __init__(self, method="rk45", rtol=1e-10, atol=1e-13, step=1e-3, max_steps=2_000_000):
        if method not in ("rk45", "rk4"):
            raise ValueError("method must be 'rk45' or 'rk4'")
        if step <= 0 or rtol <= 0 or atol <= 0:
            raise ValueError("step and tolerances must be positive")
        if max_steps <= 0:
            raise ValueError("max_steps must be positive")
        self.method = method
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.step = float(step)
        self.max_steps = int(max_steps)


class Trajectory:
    """Sampled solution with per-sample conservation monitors."""

    def __init__(self, times, ys, layout, hbar, order, classical_mode, energy, casimir, info=None):
        self.times = np.asarray(times)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        self.ys = np.asarray(ys)
        self.layout = tuple(layout)
        self.hbar = hbar
        self.order = order
        self.classical_mode = classical_mode
        self.energy = np.asarray(energy)
        self.casimir = np.asarray(casimir)
        floor = 0.0 if classical_mode else 0.25 * hbar**2
        self.margin = self.casimir - floor
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


def monitors(state: MomentState, h) -> tuple:
    """(energy, casimir, uncertainty margin) for one state."""
    return (h.evaluate(state), state.casimir(), state.margin())


def _csv_name(var) -> str:
    return var[0] if var[0] in ("q", "p") else indices.csv_name(var[1])


def integrate(field, state0: MomentState, t_span, cfg: IntegratorConfig, t_eval=None, events=None) -> Trajectory:
    """Integrate a moment vector field and record conservation monitors.

    The adaptive method keeps the local error below the configured
    tolerances; a step budget and finite-state checks guard runaway
    trajectories.  A failure names the last good time, the truncation order
    and the component at fault.  The fixed-step method records every step
    and ignores ``t_eval``.
    """
    layout = field.layout
    y0 = state0.to_vector(layout)
    rhs = field.compiled(state0.hbar)
    t0, t1 = float(t_span[0]), float(t_span[1])

    if cfg.method == "rk4":
        if events:
            raise ValueError("events require the adaptive method")
        times, ys = _rk4_fixed(rhs, y0, t0, t1, cfg.step, cfg.max_steps)
        info = {"status": 0, "nfev": 4 * (len(times) - 1)}
    else:
        state = {"nfev": 0, "t_last": t0, "out": None}

        def failure(message, component):
            last = state["t_last"]
            return IntegrationError(
                f"{message} (last good time t={last:.6g}, order {state0.order}, {component})",
                last_time=last,
            )

        def guarded(t, y):
            state["nfev"] += 1
            if state["nfev"] > cfg.max_steps:
                raise IntegrationError(
                    f"step budget exhausted ({cfg.max_steps} evaluations)",
                    last_time=state["t_last"],
                )
            out = rhs(t, y)
            for v in out:
                if not math.isfinite(v):
                    i = next(j for j, w in enumerate(out) if not math.isfinite(w))
                    raise failure(
                        f"non-finite state at t={t:.6g}",
                        f"first non-finite component {_csv_name(layout[i])}",
                    )
            state["t_last"] = t
            state["out"] = out
            return out

        sol = solve_ivp(
            guarded,
            (t0, t1),
            y0,
            method="RK45",
            rtol=cfg.rtol,
            atol=cfg.atol,
            t_eval=t_eval,
            events=events,
            dense_output=False,
        )
        if sol.status < 0:
            rates = np.abs(state["out"])
            i = int(np.argmax(rates))
            raise failure(
                sol.message, f"largest |dX/dt| {rates[i]:.3g} in {_csv_name(layout[i])}"
            )
        times, ys = sol.t, sol.y.T
        info = {
            "status": sol.status,
            "nfev": sol.nfev,
            "t_events": [list(te) for te in (sol.t_events or [])],
        }

    energy_fn = field.energy_function(state0.hbar)
    i_q2 = layout.index(("D", indices.single(2, 0)))
    i_qp = layout.index(("D", indices.single(1, 1)))
    i_p2 = layout.index(("D", indices.single(0, 2)))
    energy = np.array([energy_fn(y) for y in ys])
    casimir = ys[:, i_q2] * ys[:, i_p2] - ys[:, i_qp] ** 2
    return Trajectory(
        times,
        ys,
        layout,
        state0.hbar,
        state0.order,
        state0.classical_mode,
        energy,
        casimir,
        info,
    )


def _rk4_fixed(rhs, y0, t0, t1, step, max_steps):
    n = max(1, int(round((t1 - t0) / step)))
    if 4 * n > max_steps:
        raise IntegrationError(
            f"fixed-step plan needs {4*n} evaluations, budget is {max_steps}",
            last_time=t0,
        )
    h = (t1 - t0) / n
    y = np.asarray(y0, dtype=float)
    times = [t0]
    ys = [y.copy()]
    t = t0
    for _ in range(n):
        k1 = np.asarray(rhs(t, y))
        k2 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k1))
        k3 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k2))
        k4 = np.asarray(rhs(t + h, y + h * k3))
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        if not np.all(np.isfinite(y)):
            raise IntegrationError(f"non-finite state at t={t:.6g}", last_time=t - h)
        times.append(t)
        ys.append(y.copy())
    return np.array(times), np.array(ys)
