"""Named experiments, sweeps and machine-readable outputs.

Every dynamical scenario writes a trajectory CSV and a JSON summary that
echoes the resolved inputs and always reports energy drift, Casimir drift
and the minimum uncertainty margin.  Floats are serialized with 17
significant digits and no timestamps, so identical configs produce
byte-identical artifacts.
"""

from __future__ import annotations

import math
import os
import sys
from functools import lru_cache

import numpy as np

from . import indices
from .adiabatic import (
    AdiabaticModel,
    adiabatic_acceleration,
    adiabatic_potential,
    delta_s_correction,
    integrate_adiabatic,
    s0_of_q,
)
from .casimir_darboux import (
    DarbouxState1D,
    from_darboux,
    lift_trajectory,
    to_darboux,
    u1,
    u1_spherical_limit,
)
from .common import ConfigError, IntegrationError, is_int, write_json
from .dynamics import (
    IntegratorConfig,
    Trajectory,
    init_gaussian,
    integrate,
    uncertainty_floor,
    write_table,
)
from .effective_hamiltonian import PolynomialPotential, equations_of_motion
from .moment_algebra import MAX_ORDER
from .schrodinger import (
    Grid,
    energy_expectation,
    evolve,
    gaussian_wavepacket,
    moments_from_wavefunction,
)


def _artifact(out_dir, name) -> str:
    """Path of the artifact ``name`` in ``out_dir``, which is created at the
    first write: every refusal comes before it, so a refused config leaves
    no directory."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

# A sweep grid has at most this many cells, 64 times the 32x32 grid of
# acceptance criterion 07.
MAX_SWEEP_CELLS = 65_536
# A run has at most this many samples, and a wavefunction grid this many
# points: 64 times the default grid, room for grids of 8192-16384 points.
MAX_SAMPLES = 65_536
MAX_GRID_POINTS = 65_536
# A wavefunction oracle run does at most this much work, counted in grid
# points times Padé steps, each sample's moment extraction and energy as 16
# steps.  On a 2-core VM a step costs 62-82 ns per grid point from 1024 to
# 65536 points, and a sample at order 7 costs 13-15 steps; a run at the
# ceiling took 71 s at 65536 points and order 7, and 66 s at 1024 points.
MAX_ORACLE_WORK = 1e9

# Keys that share their defaults, in groups.  Each scenario's entry spreads
# the groups its run reads and adds its own keys: every key a config may give
# changes the run, and any other key is refused.
_MODEL = {"mass": 1.0, "hbar": 1.0, "order": 2}
_PACKET = {"q0": 0.0, "p0": 0.0, "sigma": 1.0}
_CASIMIR = {"casimir": None, "classical_mode": False}
_SOLVER = {"rtol": 1e-10, "atol": 1e-13, "max_steps": 2_000_000}
_OUT = {"out_dir": "."}
# free and harmonic: a packet of any ps0 and Casimir, sampled at t_eval
_PACKET_RUN = {
    **_MODEL, **_PACKET, **_CASIMIR, **_SOLVER, **_OUT,
    "ps0": 0.0, "t_span": [0.0, 10.0], "samples": 201, "check_threshold": 1e-8,
}
# cubic default: V = q^2/2 - lambda q^3 with lambda = 0.1, giving a classical
# barrier of height 1/(54 lambda^2) ~ 1.85 at q = 10/3 in hbar = m = 1 units.
# Documented configuration, not a quoted value.  A run starts at the
# equilibrium width s0(q0) and records the integrator's steps to the crossing
# event.
_TUNNELING = {
    **_MODEL, **_CASIMIR, **_SOLVER, **_OUT,
    "potential": [0.0, 0.0, 0.5, -0.1], "t_span": [0.0, 60.0], "stop_margin": 0.5,
}
# the wavefunction oracle: a pure Gaussian packet (ps0 = 0, C = hbar^2/4)
# evolved by the Padé (2,2) scheme on a grid
_WAVEFUNCTION = {**_MODEL, **_PACKET, "samples": 21, "grid_points": 1024, "dt": 2e-2}

_SCENARIO_DEFAULTS = {
    "free": {**_PACKET_RUN, "potential": []},
    "harmonic": {**_PACKET_RUN, "potential": [0.0, 0.0, 0.5]},
    "cubic-tunneling": {**_TUNNELING, "q0": 0.17, "energy": 1.2, "check_threshold": 1e-8},
    # the `sweep` command's scenario, which `simulate` refuses
    "cubic-tunneling-sweep": {**_TUNNELING, "sweep": None},
    "two-dof-limit": {
        "alpha": 0.4,
        "p_alpha": 0.7,
        "beta": 1.1,
        "p_beta": 1.3,
        "c1": 0.0,
        "c2": 2.5,
        "epsilons": [1e-1, 1e-2, 1e-3],
        "stability_ratio": 1.3,
        **_OUT,
    },
    # starts at rest at the turning point `amplitude`, on the slaved width
    "adiabatic-compare": {
        **_MODEL, **_CASIMIR, **_SOLVER, **_OUT,
        "potential": [0.0, 0.0, 0.5, 0.0, 0.05], "amplitude": 1.0, "t_span": [0.0, 12.0], "samples": 401,
        "adiabatic_order": 1,
    },
    "oracle-diff": {
        **_WAVEFUNCTION, **_SOLVER, **_OUT,
        "potential": [0.0, 0.0, 0.5], "x_min": -12.0, "x_max": 12.0, "t_span": [0.0, 2.0], "check_threshold": 1e-4,
    },
}

# Scenarios whose runs start on, or compare with, the fluctuation equilibrium
# s0(q) = (C/(m V''(q)))^(1/4), which exists only for a Casimir C > 0.
_EQUILIBRIUM_SCENARIOS = ("cubic-tunneling", "cubic-tunneling-sweep", "adiabatic-compare")

# Defaults of the ``oracle`` command's scenarios, one per name of
# ``common.ORACLE_SCENARIOS``, the choices of its --scenario.
ORACLE_DEFAULTS = {
    "free": {**_WAVEFUNCTION, "potential": [], "x_min": -20.0, "x_max": 20.0, "t_span": [0.0, 2.0]},
    "harmonic": {
        **_WAVEFUNCTION, "potential": [0.0, 0.0, 0.5], "x_min": -8.0, "x_max": 8.0, "t_span": [0.0, float(np.pi)],
    },
}


# The scenario each run of a forced scenario is, which its config may name:
# every cell of a sweep is a cubic-tunneling run.
_RUNS_AS = {"cubic-tunneling-sweep": "cubic-tunneling"}


def resolve_config(raw: dict, scenario: str | None = None, defaults: dict = _SCENARIO_DEFAULTS) -> dict:
    """The scenario's entry of ``defaults``, then ``raw``; a key the entry
    lacks and an invalid value raise ConfigError naming the field.

    ``scenario``, when given, is the one the command forces; the config's
    own is then absent, the same, or that of its runs (``_RUNS_AS``).
    Every config of ``simulate``, ``sweep``, ``adiabatic-compare`` and (with
    ``ORACLE_DEFAULTS``) ``oracle`` passes through here.
    """
    _require(isinstance(raw, dict), "config", "must be a JSON object")
    given = raw.get("scenario")
    if scenario is None:
        scenario = given
    else:
        accepted = (None, scenario, _RUNS_AS.get(scenario))
        _require(given in accepted, "scenario", f"{given!r} is not this command's {scenario!r}")
    _require(scenario is not None, "scenario", "missing")
    _require(
        isinstance(scenario, str) and scenario in defaults,
        "scenario",
        f"unknown name {scenario!r} (choose from {', '.join(defaults)})",
    )
    merged = dict(defaults[scenario])
    for key in raw:
        _require(key in merged or key == "scenario", key, "unknown config key")
    merged.update(raw, scenario=scenario)
    _validate(merged)
    return merged


def _require(cond, field, message):
    if not cond:
        raise ConfigError(f"{field}: {message}")


def _is_number(x) -> bool:
    """An int or float with a finite float value.  JSON true/false load as
    bool, a subclass of int, NaN/Infinity as float, and an integer beyond
    the float range has no float: none of them is a number."""
    if isinstance(x, float):
        return math.isfinite(x)
    return is_int(x) and abs(x) <= sys.float_info.max


def _range_size(spec, field) -> int:
    """The number of values of a sweep range, which is checked, not built."""
    if isinstance(spec, list):
        _require(all(map(_is_number, spec)), f"sweep.{field}", "must list numbers")
        _require(spec, f"sweep.{field}", "empty range")
        return len(spec)
    _require(
        isinstance(spec, dict) and {"min", "max", "count"} <= set(spec),
        f"sweep.{field}",
        "must be a list or {min, max, count}",
    )
    for key in ("min", "max"):
        _require(_is_number(spec[key]), f"sweep.{field}.{key}", "must be a number")
    _require(
        is_int(spec["count"]) and 1 <= spec["count"] <= MAX_SWEEP_CELLS,
        f"sweep.{field}.count",
        f"must be an integer in 1..{MAX_SWEEP_CELLS}",
    )
    return spec["count"]


def _sweep_values(spec) -> list:
    """The floats of a sweep range that the config gate has checked."""
    values = spec if isinstance(spec, list) else np.linspace(spec["min"], spec["max"], spec["count"])
    return [float(v) for v in values]


def _is_sweep(spec) -> bool:
    """Exactly the ranges q0 and energy, of at most MAX_SWEEP_CELLS cells in
    all; missing or bad ranges raise ConfigError naming them."""
    _require(spec is not None, "sweep", "missing sweep ranges")
    if not isinstance(spec, dict) or set(spec) != {"q0", "energy"}:
        return False
    cells = _range_size(spec["q0"], "q0") * _range_size(spec["energy"], "energy")
    _require(cells <= MAX_SWEEP_CELLS, "sweep", f"grid of {cells} cells exceeds ceiling {MAX_SWEEP_CELLS}")
    return True


_NUMBER = (_is_number, "must be a number")
_POSITIVE = (lambda x: _is_number(x) and x > 0, "must be > 0")
_NON_NEGATIVE = (lambda x: _is_number(x) and x >= 0, "must be a number >= 0")

# Every config key: a test of its value and the message that refuses it.
# Which scenario takes a key, and its default, are in the tables above.
_KEYS = {
    "mass": _POSITIVE,
    "hbar": _POSITIVE,
    "order": (lambda n: is_int(n) and 2 <= n <= MAX_ORDER, f"must be an integer in 2..{MAX_ORDER}"),
    "q0": _NUMBER,
    "p0": _NUMBER,
    "sigma": _POSITIVE,
    "ps0": _NUMBER,
    "casimir": (lambda c: c is None or (_is_number(c) and c >= 0), "must be >= 0 or null"),
    "classical_mode": (lambda b: isinstance(b, bool), "must be true or false"),
    "t_span": (
        lambda s: isinstance(s, (list, tuple)) and len(s) == 2 and all(map(_is_number, s)) and s[1] > s[0],
        "must be [t0, t1] with t1 > t0",
    ),
    "samples": (lambda n: is_int(n) and 2 <= n <= MAX_SAMPLES, f"must be an integer in 2..{MAX_SAMPLES}"),
    "rtol": _POSITIVE,
    "atol": _POSITIVE,
    "max_steps": (lambda n: is_int(n) and n > 0, "must be a positive integer"),
    "out_dir": (lambda s: isinstance(s, str), "must be a path string"),
    "potential": (
        lambda c: isinstance(c, list) and all(map(_is_number, c)),
        "must be a list of numbers (coefficients of q^0..q^d)",
    ),
    "check_threshold": _NON_NEGATIVE,
    "energy": _NUMBER,
    "stop_margin": _NON_NEGATIVE,
    "sweep": (_is_sweep, "expected exactly the keys 'q0' and 'energy'"),
    "alpha": _NUMBER,
    "p_alpha": _NUMBER,
    "beta": (lambda b: _is_number(b) and 0 < b < math.pi, "must lie in the open interval (0, pi)"),
    "p_beta": _NUMBER,
    "c1": _NUMBER,
    "c2": _NUMBER,
    "epsilons": (
        lambda e: isinstance(e, list) and len(e) > 0 and all(_is_number(x) and x > 0 for x in e),
        "must be a non-empty list of positive numbers",
    ),
    "stability_ratio": _POSITIVE,
    "amplitude": _POSITIVE,
    "adiabatic_order": (lambda n: is_int(n) and n in (0, 1), "must be 0 or 1"),
    "grid_points": (lambda n: is_int(n) and 64 <= n <= MAX_GRID_POINTS, f"must be an integer in 64..{MAX_GRID_POINTS}"),
    "x_min": _NUMBER,
    "x_max": _NUMBER,
    "dt": _POSITIVE,
}


def _check(key, value, field=None):
    """Refuse a ``value`` of config key ``key`` that fails its ``_KEYS``
    test, naming ``field`` (the key itself unless given)."""
    test, message = _KEYS[key]
    _require(test(value), field or key, message)


def _validate(cfg):
    for key, value in cfg.items():
        if key != "scenario":
            _check(key, value)
    cas = cfg.get("casimir")
    _require(
        cas is None or cas >= uncertainty_floor(cfg["hbar"], cfg["classical_mode"]) - 1e-15,
        "casimir",
        "below hbar^2/4 requires classical_mode",
    )
    _require(
        cas != 0 or cfg["scenario"] not in _EQUILIBRIUM_SCENARIOS,
        "casimir",
        "must be > 0: at 0 there is no fluctuation equilibrium s0(q)",
    )
    if "grid_points" in cfg:
        _require(cfg["x_max"] > cfg["x_min"], "x_max", "must exceed x_min")
        # in floats: a dt near 0 gives inf, which is refused
        t0, t1 = cfg["t_span"]
        work = cfg["grid_points"] * ((float(t1) - float(t0)) / cfg["dt"] + 16 * cfg["samples"])
        _require(
            work <= MAX_ORACLE_WORK,
            "dt",
            f"grid_points * ((t1 - t0) / dt + 16 * samples) = {work:.3g} exceeds ceiling {MAX_ORACLE_WORK:.0e}",
        )


def integrator_config(cfg) -> IntegratorConfig:
    """The config's solver keys, which every integrating scenario takes."""
    return IntegratorConfig(rtol=cfg["rtol"], atol=cfg["atol"], max_steps=cfg["max_steps"])


def _echo_inputs(cfg) -> dict:
    return {key: cfg[key] for key in sorted(cfg) if key != "out_dir"}


# ---------------------------------------------------------------------------
# Moment dynamics: one field builder, one initial-state constructor and one
# integration path shared by every trajectory scenario
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _field(potential: tuple, mass, order: int):
    return equations_of_motion(PolynomialPotential(potential, mass), order)


def moment_field(cfg):
    """Equations of motion for the config's potential, mass and order.

    Memoized per process, so a sweep builds its field once rather than once
    per cell.
    """
    return _field(tuple(cfg["potential"]), cfg["mass"], cfg["order"])


def _casimir(cfg) -> float:
    return cfg["casimir"] if cfg["casimir"] is not None else uncertainty_floor(cfg["hbar"])


def _initial_state(cfg, q0, p0, sigma, ps0=0.0):
    """Gaussian (Wick) state at the config's hbar, order and Casimir."""
    return init_gaussian(
        q0, p0, sigma, ps0, cfg["hbar"], cfg["order"], casimir=cfg["casimir"], classical_mode=cfg["classical_mode"]
    )


def _packet_state(cfg):
    return _initial_state(cfg, cfg["q0"], cfg["p0"], cfg["sigma"], cfg["ps0"])


def _samples(cfg) -> np.ndarray:
    t0, t1 = cfg["t_span"]
    return np.linspace(t0, t1, cfg["samples"])


def _trajectory(cfg, state0, times=None, stop=None):
    """Integrate the config's moment field from ``state0``, one state or a
    list of them (see ``dynamics.integrate``).

    With ``times`` the run spans and samples exactly those times; without,
    it spans ``t_span`` and records the solver's own steps.
    """
    span = (times[0], times[-1]) if times is not None else tuple(cfg["t_span"])
    return integrate(
        moment_field(cfg), state0, span, integrator_config(cfg), t_eval=times, stop=stop
    )


def _checks(cfg, ok, **figures) -> dict:
    return {**figures, "threshold": cfg["check_threshold"], "passed": ok}


def _summary(cfg, traj, ok, artifacts=None, head=None, **body) -> dict:
    """Summary of a scenario: echoed inputs, ``head``, the monitors of its
    trajectory ``traj`` (none without one), the scenario's ``body``
    sections in order, artifacts and the ok flag."""
    return {
        "scenario": cfg["scenario"],
        "inputs": _echo_inputs(cfg),
        **(head or {}),
        **({} if traj is None else {"monitors": traj.monitors}),
        **body,
        "artifacts": artifacts or {"trajectory_csv": "trajectory.csv"},
        "ok": bool(ok),
    }


def run_free(cfg, out_dir) -> dict:
    traj = _trajectory(cfg, _packet_state(cfg), _samples(cfg))
    traj.write_csv(_artifact(out_dir, "trajectory.csv"))
    # exact free solution: Delta(q^2) is quadratic in t; for ps0 = 0 this is
    # the growth law s0 sqrt(1 + C t^2 / (m^2 s0^4)) of free_particle_s
    m = float(cfg["mass"])
    dq2, dqp, dp2 = map(traj.column, ("Delta_q2", "Delta_qp", "Delta_p2"))
    tau = traj.times - cfg["t_span"][0]
    s_ref = np.sqrt(dq2[0] + 2 * dqp[0] * tau / m + dp2[0] * tau**2 / m**2)
    deviation = float(np.max(np.abs(np.sqrt(dq2) - s_ref) / s_ref))
    ok = deviation <= cfg["check_threshold"]
    return _summary(
        cfg, traj, ok, checks=_checks(cfg, ok, max_rel_deviation_from_closed_form=deviation)
    )


def run_harmonic(cfg, out_dir) -> dict:
    traj = _trajectory(cfg, _packet_state(cfg), _samples(cfg))
    traj.write_csv(_artifact(out_dir, "trajectory.csv"))
    ok = (
        traj.monitors["energy_drift"] <= cfg["check_threshold"]
        and traj.monitors["casimir_drift"] <= 10 * cfg["check_threshold"]
    )
    return _summary(cfg, traj, ok, checks=_checks(cfg, ok))


def _tunneling_start(cfg, model, layout, energy_fn, q0: float, energy: float):
    """Initial state of a tunneling cell: the Gaussian state of equilibrium
    width s0(q0) of ``model`` at q0, with the momentum that gives it the
    requested energy.  Raises NoEquilibriumError or ValueError if there is
    none.

    The rest energy is ``energy_fn`` on the state's Python floats; far out
    on the potential their products overflow to inf, which raises nothing.
    """
    state0 = _initial_state(cfg, q0, 0.0, s0_of_q(model, q0))
    rest = energy_fn(state0.to_vector(layout).tolist())
    if energy < rest:
        raise ValueError(f"energy {energy:g} below the rest energy {rest:g} at q0")
    state0.p = math.sqrt(2.0 * float(cfg["mass"]) * (energy - rest))
    return state0


def _crossing_stop(barrier_q, cfg):
    """The stop ``(level, side)`` of ``dynamics.integrate``: q passes the
    barrier by ``stop_margin``, away from the origin on whichever side it
    lies."""
    side = 1.0 if barrier_q > 0 else -1.0
    return barrier_q + side * cfg["stop_margin"], side


def tunneling_runs(cfg, cells, barrier_q) -> list:
    """Outcome of each (q0, energy) cell, in order: its Trajectory up to the
    barrier crossing (``info["status"]`` 1) or the end of ``t_span``, or the
    error that stopped it.

    The field, its energy function and the equilibrium model are built once
    per run.  Every cell that has an initial state is integrated in one
    batch (one ``integrate`` call), and a cell's outcome does not depend on
    the other cells: a single run is a one-cell sweep.
    """
    field = moment_field(cfg)
    energy_fn = field.energy_function(cfg["hbar"])
    model = AdiabaticModel(field.potential, _casimir(cfg))
    starts = []
    for q0, energy in cells:
        try:
            starts.append(_tunneling_start(cfg, model, field.layout, energy_fn, q0, energy))
        except ValueError as exc:
            starts.append(exc)
    states = [s for s in starts if not isinstance(s, Exception)]
    runs = iter(_trajectory(cfg, states, stop=_crossing_stop(barrier_q, cfg)))
    return [s if isinstance(s, Exception) else next(runs) for s in starts]


def _cell_record(q0, energy, barrier_v, outcome) -> dict:
    """Sweep-grid record of one cell from its Trajectory, or from the error
    that stopped it."""
    record = {"q0": q0, "energy": energy}
    if isinstance(outcome, Exception):
        record.update({"classification": "error", "reason": str(outcome)})
        return record
    record.update(
        classification="bypassed" if outcome.info.get("status") == 1 else "trapped",
        max_q=float(np.max(outcome.ys[:, 0])),
        t_final=float(outcome.times[-1]),
        below_classical_barrier=bool(energy < barrier_v),
        **outcome.monitors,
    )
    return record


def cubic_barrier(pot: PolynomialPotential):
    """Position and height of the local maximum of a cubic-type potential."""
    coeffs = pot.derivative_coefficients(1)
    roots = np.roots([float(c) for c in reversed(coeffs)])
    candidates = [
        float(r.real)
        for r in roots
        if abs(r.imag) < 1e-12 and pot.value(float(r.real), 2) < 0
    ]
    if not candidates:
        raise ConfigError("potential: no barrier (local maximum) found")
    barrier_q = min(candidates, key=lambda q: abs(q))
    return barrier_q, pot.value(barrier_q)


def effective_saddle(pot: PolynomialPotential, casimir: float):
    """(q, s, W) at the saddle of W(q, s) = V(q) + V''(q) s^2/2 + C/(2 m s^2).

    A critical point has s = s0(q), where W is the adiabatic potential
    V + sqrt(C V''/m), and V' + V''' s^2/2 = 0.  Squared, that is a root of
    4 m V'^2 V'' - C V'''^2 with V'' > 0 and V' V''' <= 0.  The saddle is
    the critical point of highest W strictly between 0 and the classical
    barrier, on whichever side of 0 the barrier lies.
    """
    barrier_q, _ = cubic_barrier(pot)
    model = AdiabaticModel(pot, casimir)
    vp, vpp, vppp = (
        np.polynomial.Polynomial([float(c) for c in pot.derivative_coefficients(k)]) for k in (1, 2, 3)
    )
    roots = (4 * model.mass * vp**2 * vpp - casimir * vppp**2).roots()
    points = [
        (q, s0_of_q(model, q), adiabatic_potential(model, q))
        for q in roots[abs(roots.imag) < 1e-12].real.tolist()
        if min(0, barrier_q) < q < max(0, barrier_q) and vpp(q) > 0 and vp(q) * vppp(q) <= 0
    ]
    if not points:
        raise ConfigError("potential: no effective-potential critical points found")
    return max(points, key=lambda point: point[2])


def run_cubic_tunneling(cfg, out_dir) -> dict:
    barrier_q, barrier_v = cubic_barrier(moment_field(cfg).potential)
    (traj,) = tunneling_runs(cfg, [(cfg["q0"], cfg["energy"])], barrier_q)
    if isinstance(traj, Exception):
        raise IntegrationError(f"tunneling run failed: {traj}")
    record = _cell_record(cfg["q0"], cfg["energy"], barrier_v, traj)
    traj.write_csv(_artifact(out_dir, "trajectory.csv"))
    # The state must stay admissible: the Heisenberg margin may dip below
    # zero only by the 10x allowance run_harmonic gives the Casimir drift.
    ok = (
        record["classification"] == "bypassed"
        and record["energy_drift"] <= cfg["check_threshold"]
        and record["margin_min"] >= -10 * cfg["check_threshold"] * float(traj.casimir[0])
    )
    checks = _checks(
        cfg,
        ok,
        classification=record["classification"],
        below_classical_barrier=record["below_classical_barrier"],
    )
    head = {"barrier": {"position": barrier_q, "height": barrier_v}}
    return _summary(cfg, traj, ok, head=head, checks=checks)


_GRID_COLUMNS = ("q0", "energy", "classification", "max_q", "t_final", "energy_drift", "casimir_drift")


def run_sweep(cfg, out_dir) -> dict:
    """Grid of tunneling runs, q0-major, with per-cell classification (see
    ``tunneling_runs``).  Error cells carry nan in every figure column, and
    each names its cause in one stderr line."""
    sweep = cfg["sweep"]
    q0s, energies = _sweep_values(sweep["q0"]), _sweep_values(sweep["energy"])
    barrier_q, barrier_v = cubic_barrier(moment_field(cfg).potential)
    cells = [(q0, e) for q0 in q0s for e in energies]
    records = [
        _cell_record(q0, e, barrier_v, outcome)
        for (q0, e), outcome in zip(cells, tunneling_runs(cfg, cells, barrier_q))
    ]
    write_table(
        _artifact(out_dir, "sweep_grid.csv"),
        _GRID_COLUMNS,
        ([rec.get(k, math.nan) for k in _GRID_COLUMNS] for rec in records),
    )
    counts = {"bypassed": 0, "trapped": 0, "error": 0}
    for rec in records:
        counts[rec["classification"]] += 1
        if "reason" in rec:
            print(f"error cell q0={rec['q0']:g} energy={rec['energy']:g}: {rec['reason']}", file=sys.stderr)
    drifts = [r["energy_drift"] for r in records if r["classification"] != "error"]
    summary = _summary(
        cfg,
        None,
        counts["bypassed"] > 0 and counts["trapped"] > 0,
        {"grid_csv": "sweep_grid.csv"},
        barrier={"position": barrier_q, "height": barrier_v},
        grid={"q0_count": len(q0s), "energy_count": len(energies)},
        classification_counts=counts,
        max_energy_drift=float(max(drifts)) if drifts else None,
    )
    write_json(_artifact(out_dir, "summary.json"), summary)
    return summary


# ---------------------------------------------------------------------------
# Algebraic scenarios
# ---------------------------------------------------------------------------


def run_two_dof_limit(cfg, out_dir) -> dict:
    """Spherical-coordinate limit of U1 along the scaling path.

    p_alpha is scaled by eps and C2 by eps^4; the deviation from
    p_beta^2 + C1/(2 sin^2 beta) must shrink linearly with a stable fitted
    slope.  The path stays in the real domain of the radicand for C1 = 0
    (the classical floor); positive C1 leaves the domain along this path.
    """
    limit = u1_spherical_limit(cfg["beta"], cfg["p_beta"], cfg["c1"])
    rows = []
    ks = []
    for eps in cfg["epsilons"]:
        value = u1(
            cfg["alpha"],
            eps * cfg["p_alpha"],
            cfg["beta"],
            cfg["p_beta"],
            cfg["c1"],
            eps**4 * cfg["c2"],
        )
        dev = abs(value - limit)
        ks.append(dev / eps)
        rows.append({"epsilon": eps, "u1": value, "deviation": dev, "fitted_k": dev / eps})
    kmax, kmin = max(ks), min(ks)
    # equal slopes read 1, also when all are 0 on a path on the limit
    ratio = kmax / kmin if kmin > 0 else (math.inf if kmax > 0 else 1.0)
    ok = ratio <= cfg["stability_ratio"]
    return {
        "scenario": "two-dof-limit",
        "inputs": _echo_inputs(cfg),
        "limit_value": limit,
        "rows": rows,
        "k_ratio": ratio,
        "checks": {"stability_ratio": cfg["stability_ratio"], "passed": ok},
        "ok": bool(ok),
    }


# ---------------------------------------------------------------------------
# Wavefunction oracle scenarios
# ---------------------------------------------------------------------------


def wavefunction_trajectory(cfg) -> tuple:
    """(Trajectory, worst extraction quality) of the config's Gaussian
    packet under the Padé (2,2) scheme, one sample per ``_samples`` time.

    Each sample is taken at the step-resolved time the solver actually
    reaches, and that time is the one recorded; samples closer than dt/2
    would share a step and are refused.
    """
    pot = PolynomialPotential(cfg["potential"], cfg["mass"])
    grid = Grid(cfg["x_min"], cfg["x_max"], cfg["grid_points"])
    wf = gaussian_wavepacket(grid, cfg["q0"], cfg["p0"], cfg["sigma"], cfg["hbar"], cfg["mass"])
    dt, current_t = cfg["dt"], cfg["t_span"][0]
    layout = indices.state_layout(cfg["order"])
    times, ys, energy = [], [], []
    quality_max = 0.0
    for target in _samples(cfg):
        steps = int(round((target - current_t) / dt))
        if times and steps == 0:
            raise ValueError(f"oracle sample t={target:g} is closer than dt/2 to t={current_t:g} (dt={dt:g})")
        if steps > 0:
            wf = evolve(pot, wf, dt, steps)
            current_t += steps * dt
        state, quality = moments_from_wavefunction(wf, cfg["order"])
        quality_max = max(quality_max, quality)
        times.append(current_t)
        ys.append(state.to_vector(layout))
        energy.append(energy_expectation(wf, pot))
    traj = Trajectory(times, ys, layout, uncertainty_floor(cfg["hbar"]), energy)
    return traj, quality_max


def run_oracle(name: str, cfg_overrides: dict | None, out_dir: str) -> dict:
    """Evolve the named scenario with the wavefunction solver and export
    extracted moments in the trajectory CSV schema."""
    cfg = resolve_config({} if cfg_overrides is None else cfg_overrides, name, ORACLE_DEFAULTS)
    traj, quality = wavefunction_trajectory(cfg)
    traj.write_csv(_artifact(out_dir, "oracle_trajectory.csv"))
    summary = {
        "scenario": f"oracle-{name}",
        "inputs": _echo_inputs(cfg),
        "extraction_quality_max": quality,
        "artifacts": {"oracle_csv": "oracle_trajectory.csv"},
        "ok": True,
    }
    write_json(_artifact(out_dir, "oracle_summary.json"), summary)
    return summary


def oracle_deviations(oracle: dict, moments: dict) -> dict:
    """Largest |oracle - moments| per column of ``moments``, relative to
    the largest magnitude of the moment column.

    A centroid at rest has no magnitude of its own, so the q and p scales
    are floored at sqrt(eps) times the packet width sqrt(max Delta(q^2))
    or sqrt(max Delta(p^2)): rounding stays a negligible deviation, while
    a real centroid offset still reads as a large one.

    Nor has the covariance of an uncorrelated packet (the harmonic ground
    state keeps Delta(qp) = 0).  Cauchy-Schwarz bounds |Delta(qp)| by
    sqrt(Delta(q^2) Delta(p^2)), so the Delta_qp scale is floored at a
    tenth of sqrt(max Delta(q^2) max Delta(p^2)).  The oracle's
    discretisation error, fourth order in space and time with spectral
    extraction, is about 1e-7 of that bound on the default 1024-point grid with
    dt = 2e-2 (mostly the time step), and then reads as about 1e-6, while
    an offset of 1e-3 of the bound reads as 1e-2.  The default free and harmonic packets reach
    |Delta(qp)| of 0.71 and 0.37 of the bound, above the floor, so their
    deviations are unchanged.
    """
    max_q2, max_p2 = np.max(moments["Delta_q2"]), np.max(moments["Delta_p2"])
    rel = math.sqrt(np.finfo(float).eps)
    floors = {
        "q": rel * math.sqrt(max_q2),
        "p": rel * math.sqrt(max_p2),
        "Delta_qp": 0.1 * math.sqrt(max_q2 * max_p2),
    }
    out = {}
    for col, b in moments.items():
        scale = max(float(np.max(np.abs(b))), floors.get(col, 1e-12))
        out[col] = float(np.max(np.abs(oracle[col] - b)) / scale)
    return out


def run_oracle_diff(cfg, out_dir) -> dict:
    """Moment dynamics and wavefunction oracle on the same configuration.

    The oracle runs first; the moment dynamics is then sampled at the
    step-resolved times the oracle actually reached, so the diff never
    aliases time-grid rounding into a moment deviation.
    """
    oracle, quality = wavefunction_trajectory(cfg)
    oracle.write_csv(_artifact(out_dir, "oracle_trajectory.csv"))
    # the oracle's packet: ps0 = 0 and C = hbar^2/4
    state0 = init_gaussian(cfg["q0"], cfg["p0"], cfg["sigma"], 0.0, cfg["hbar"], cfg["order"])
    traj = _trajectory(cfg, state0, oracle.times)
    traj.write_csv(_artifact(out_dir, "trajectory.csv"))
    columns = ("Delta_q2", "Delta_qp", "Delta_p2", "q", "p")
    deviations = oracle_deviations(*({col: t.column(col) for col in columns} for t in (oracle, traj)))
    worst = max(deviations.values())
    ok = worst <= cfg["check_threshold"]
    return _summary(
        cfg,
        traj,
        ok,
        {"trajectory_csv": "trajectory.csv", "oracle_csv": "oracle_trajectory.csv"},
        oracle_quality=quality,
        deviations=deviations,
        checks=_checks(cfg, ok, max_rel_deviation=worst),
    )


# ---------------------------------------------------------------------------
# Adiabatic comparison
# ---------------------------------------------------------------------------


def run_adiabatic_compare(cfg, out_dir) -> dict:
    """Full moment dynamics against the adiabatic approximation.

    The full moment trajectory starts at a turning point on the
    first-order slaved manifold s = s0(q) + delta_s, in the Gaussian state
    of that width, so the comparison isolates the slaving error rather
    than an initial transient.  The slaved fluctuation is evaluated along
    the full trajectory's q(t); the independently integrated adiabatic
    q(t) quantifies the back-reaction error.
    """
    model = AdiabaticModel(moment_field(cfg).potential, _casimir(cfg))
    q0 = cfg["amplitude"]
    s_init = s0_of_q(model, q0)
    if cfg["adiabatic_order"] >= 1:
        s_init += delta_s_correction(model, q0, 0.0, adiabatic_acceleration(model, q0, 0.0))
    times = _samples(cfg)
    traj = _trajectory(cfg, _initial_state(cfg, q0, 0.0, s_init), times)
    _, q_ad, _ = integrate_adiabatic(model, q0, 0.0, cfg["t_span"], times, integrator_config(cfg))
    s_full = np.sqrt(traj.column("Delta_q2"))
    q_full = traj.column("q")
    qdot_full = traj.column("p") / float(cfg["mass"])
    s_ad0 = np.array([s0_of_q(model, q) for q in q_full])
    ds = np.array(
        [
            delta_s_correction(model, q, qd, adiabatic_acceleration(model, q, qd))
            for q, qd in zip(q_full, qdot_full)
        ]
    )
    s_ad1 = s_ad0 + ds
    errors = {
        "max_q_error": float(np.max(np.abs(q_full - q_ad))),
        "max_s_error_order0": float(np.max(np.abs(s_full - s_ad0))),
        "max_s_error_order1": float(np.max(np.abs(s_full - s_ad1))),
    }
    write_table(
        _artifact(out_dir, "adiabatic_compare.csv"),
        ("t", "q_full", "s_full", "q_adiabatic", "s_adiabatic0", "s_adiabatic1"),
        zip(times, q_full, s_full, q_ad, s_ad0, s_ad1),
    )
    return _summary(cfg, traj, True, {"compare_csv": "adiabatic_compare.csv"}, errors=errors)


# ---------------------------------------------------------------------------
# Trajectory transforms
# ---------------------------------------------------------------------------


def transform_trajectory(in_path, out_path, target: str, mass: float = 1.0):
    """Convert a trajectory CSV between moment, Darboux and plane charts."""
    _check("mass", mass, "--mass")
    rows = _read_csv(in_path)
    if not rows:
        raise ConfigError("input: empty trajectory")
    cols = set(rows[0])
    if target in ("darboux", "plane"):
        _need(cols, {"t", "Delta_q2", "Delta_qp", "Delta_p2"}, target)
        ts = [r["t"] for r in rows]
        darboux = [to_darboux(r["Delta_q2"], r["Delta_qp"], r["Delta_p2"]) for r in rows]
    if target == "darboux":
        header = ("t", "s", "p_s", "casimir")
        out = [(t, d.s, d.p_s, d.casimir) for t, d in zip(ts, darboux)]
    elif target == "plane":
        states = lift_trajectory(
            np.array(ts),
            np.array([d.s for d in darboux]),
            np.array([d.p_s for d in darboux]),
            darboux[0].casimir,
            mass,
        )
        header = ("t", "X", "Y", "p_X", "p_Y", "p_phi")
        out = [(t, ps.x, ps.y, ps.p_x, ps.p_y, ps.p_phi) for t, ps in zip(ts, states)]
    elif target == "moments":
        _need(cols, {"t", "s", "p_s", "casimir"}, "moments")
        header = ("t", "Delta_q2", "Delta_qp", "Delta_p2")
        out = [
            (r["t"], *from_darboux(DarbouxState1D(r["s"], r["p_s"], r["casimir"]))) for r in rows
        ]
    else:
        raise ConfigError("to: must be darboux, plane or moments")
    write_table(out_path, header, out)


def _read_csv(path):
    """The rows of a CSV of figures, as dicts by the header's names; a row
    of the wrong width or with a cell that is no number is refused by line."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = []
        for line_no, line in enumerate(fh, start=2):
            cells = line.strip().split(",")
            where = f"input: line {line_no}"
            _require(len(cells) == len(header), where, f"expected {len(header)} cells, found {len(cells)}")
            try:
                rows.append(dict(zip(header, map(float, cells))))
            except ValueError:
                raise ConfigError(f"{where}: a cell is not a number") from None
    return rows


def _need(cols, needed, target):
    missing = needed - cols
    if missing:
        raise ConfigError(
            f"input: columns {sorted(missing)} required for --to {target}"
        )


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


_RUNNERS = {
    "free": run_free,
    "harmonic": run_harmonic,
    "cubic-tunneling": run_cubic_tunneling,
    "two-dof-limit": run_two_dof_limit,
    "adiabatic-compare": run_adiabatic_compare,
    "oracle-diff": run_oracle_diff,
}


def run_scenario(cfg: dict, out_dir: str) -> dict:
    runner = _RUNNERS.get(cfg["scenario"])
    if runner is None:
        raise ConfigError(f"scenario: {cfg['scenario']} is not runnable via simulate")
    summary = runner(cfg, out_dir)
    write_json(_artifact(out_dir, "summary.json"), summary)
    return summary
