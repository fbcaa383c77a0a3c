"""End-to-end CLI behavior: artifacts, determinism, exit codes."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from qmoments import cli, scenarios
from qmoments.cli import main
from qmoments.common import dumps_json
from qmoments.moment_algebra import build_bracket_table
from qmoments.scenarios import (
    _KEYS,
    _SCENARIO_DEFAULTS,
    ORACLE_DEFAULTS,
    MAX_GRID_POINTS,
    MAX_SAMPLES,
    ConfigError,
    oracle_deviations,
    resolve_config,
    run_sweep,
)


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_simulate_free_artifacts_and_determinism(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "free.json", {"scenario": "free", "samples": 51})
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out-dir", str(out2)]) == 0
    csv1 = (out1 / "trajectory.csv").read_bytes()
    csv2 = (out2 / "trajectory.csv").read_bytes()
    assert csv1 == csv2
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["ok"] is True
    for key in ("energy_drift", "casimir_drift", "margin_min"):
        assert key in summary["monitors"]
    header = csv1.decode().splitlines()[0]
    assert header == "t,q,p,Delta_q2,Delta_qp,Delta_p2,energy,casimir,margin"
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_simulate_failed_check_exits_1(tmp_path):
    cfg = write_cfg(
        tmp_path, "free.json", {"scenario": "free", "check_threshold": 1e-30}
    )
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 1


def test_simulate_config_error_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bad.json", {"scenario": "free", "sigma": -2})
    assert main(["simulate", "--config", cfg]) == 2
    assert "sigma" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, "bad2.json", {"scenario": "free", "whoops": 1})
    assert main(["simulate", "--config", cfg]) == 2
    assert "whoops" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, "bad3.json", {"scenario": "not-a-scenario"})
    assert main(["simulate", "--config", cfg]) == 2
    cfg = write_cfg(tmp_path, "bad4.json", {"scenario": "free", "order": 8})
    assert main(["simulate", "--config", cfg]) == 2
    assert "order: must be an integer in 2..7" in capsys.readouterr().err
    # the bracket-table bound of `brackets --order`, and the same ceiling
    # whenever a config runs the oracle
    cfg = write_cfg(tmp_path, "bad5.json", {"scenario": "brackets-dump", "table_order": 8})
    assert main(["simulate", "--config", cfg]) == 2
    assert "table_order: truncation order must be in 2..7, got 8" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, "bad6.json", {"scenario": "oracle-diff", "order": 8})
    assert main(["simulate", "--config", cfg]) == 2
    assert "order: must be an integer in 2..7" in capsys.readouterr().err
    # the sweep command's scenario runs only through `sweep`
    cfg = write_cfg(tmp_path, "bad7.json", {"scenario": "cubic-tunneling-sweep", "sweep": _CELL})
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "bad7")]) == 2
    assert "scenario: cubic-tunneling-sweep is not runnable via simulate" in capsys.readouterr().err
    assert not (tmp_path / "bad7").exists()
    # fields compared or thresholded as numbers must be numbers, a bool is
    # never a number and classical_mode takes only a bool; all are refused
    # before any file is written
    for i, (payload, field) in enumerate(
        [
            ({"scenario": "oracle-diff", "x_min": "a"}, "x_min"),
            ({"scenario": "free", "t_span": ["a", 1]}, "t_span"),
            ({"scenario": "free", "check_threshold": "x"}, "check_threshold"),
            ({"scenario": "free", "q0": "a"}, "q0"),
            ({"scenario": "free", "p0": "a"}, "p0"),
            ({"scenario": "free", "ps0": "a"}, "ps0"),
            ({"scenario": "free", "mass": True}, "mass"),
            ({"scenario": "free", "max_steps": True}, "max_steps"),
            ({"scenario": "free", "classical_mode": "false", "casimir": 0}, "classical_mode"),
            ({"scenario": "two-dof-limit", "alpha": "x"}, "alpha"),
            ({"scenario": "two-dof-limit", "stability_ratio": True}, "stability_ratio"),
            ({"scenario": "free", "out_dir": True}, "out_dir"),
            # JSON NaN and Infinity load as floats, which are not numbers, and
            # an integer beyond the float range has no float
            ({"scenario": "oracle-diff", "x_max": math.inf}, "x_max"),
            ({"scenario": "two-dof-limit", "alpha": math.nan}, "alpha"),
            ({"scenario": "free", "q0": math.nan}, "q0"),
            ({"scenario": "cubic-tunneling", "energy": math.nan}, "energy"),
            ({"scenario": "free", "mass": math.inf}, "mass"),
            ({"scenario": "free", "potential": [0, 0, math.nan]}, "potential"),
            ({"scenario": "free", "mass": 10**400}, "mass"),
        ]
    ):
        out = tmp_path / f"typed{i}"
        cfg = write_cfg(tmp_path, f"typed{i}.json", payload)
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")
        assert not out.exists()


def test_simulate_missing_config_file(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


def test_harmonic_scenario(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "h.json",
        {"scenario": "harmonic", "q0": 1.0, "t_span": [0.0, 6.0], "samples": 61},
    )
    out = tmp_path / "h"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["monitors"]["energy_drift"] < 1e-8


def test_trailing_zero_coefficient_changes_no_trajectory_byte(tmp_path):
    """PolynomialPotential trims trailing zero coefficients, so the potential
    [0, 0, 0.5, 0] runs the harmonic oscillator of [0, 0, 0.5]: the same
    trajectory bytes, and a summary that differs only in the echoed
    potential."""
    summaries = {}
    for name, potential in (("trimmed", [0, 0, 0.5]), ("padded", [0, 0, 0.5, 0])):
        cfg = write_cfg(
            tmp_path,
            f"{name}.json",
            {"scenario": "harmonic", "potential": potential, "t_span": [0.0, 6.0], "samples": 61},
        )
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / name)]) == 0
        summaries[name] = json.loads((tmp_path / name / "summary.json").read_text())
    trajectory = [(tmp_path / name / "trajectory.csv").read_bytes() for name in summaries]
    assert trajectory[0] == trajectory[1]
    assert summaries["padded"]["inputs"].pop("potential") == [0, 0, 0.5, 0]
    assert summaries["trimmed"]["inputs"].pop("potential") == [0, 0, 0.5]
    assert summaries["padded"] == summaries["trimmed"]


def test_cubic_tunneling_scenario(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"scenario": "cubic-tunneling"})
    out = tmp_path / "c"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["classification"] == "bypassed"
    assert summary["checks"]["below_classical_barrier"] is True
    assert summary["barrier"]["height"] == pytest.approx(1 / (54 * 0.1**2))


def test_cubic_tunneling_inadmissible_state_fails(tmp_path):
    """At order 4 the default run bypasses with a small energy drift but
    leaves the admissible states; the check must fail on the margin."""
    cfg = write_cfg(tmp_path, "c4.json", {"scenario": "cubic-tunneling", "order": 4})
    out = tmp_path / "c4"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["classification"] == "bypassed"
    assert summary["monitors"]["energy_drift"] <= summary["checks"]["threshold"]
    assert summary["monitors"]["margin_min"] < -1.0
    assert summary["checks"]["passed"] is False


def test_integration_failure_names_time_order_and_component(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "blow.json",
        {"scenario": "harmonic", "potential": [0, 0, 0.5, -1.0], "q0": 1.0, "t_span": [0, 20]},
    )
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "b")]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("runtime error: Required step size")
    match = re.search(r"last good time t=(\S+), order 2, largest \|dX/dt\| \S+ in (\w+)\)$", err)
    assert match, err
    assert 1.0 < float(match.group(1)) < 20.0
    assert match.group(2) in ("q", "p", "Delta_q2", "Delta_qp", "Delta_p2")


def test_sweep_smoke_grid(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "s.json",
        {
            "scenario": "cubic-tunneling",
            "sweep": {"q0": [0.15, 0.2], "energy": [0.8, 1.4]},
            "t_span": [0.0, 40.0],
            "rtol": 1e-9,
            "atol": 1e-12,
        },
    )
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out-dir", str(out)]) == 0
    lines = (out / "sweep_grid.csv").read_text().splitlines()
    assert len(lines) == 5
    classes = [line.split(",")[2] for line in lines[1:]]
    assert classes == ["trapped", "bypassed", "trapped", "bypassed"]
    # byte-identical on rerun
    out2 = tmp_path / "s2"
    assert main(["sweep", "--config", cfg, "--out-dir", str(out2)]) == 0
    assert (out / "sweep_grid.csv").read_bytes() == (out2 / "sweep_grid.csv").read_bytes()


# The default cubic mirrored through the origin: its barrier is at q = -10/3.
_MIRRORED = {"scenario": "cubic-tunneling", "potential": [0, 0, 0.5, 0.1]}


def test_barrier_left_of_the_origin_is_crossed(tmp_path):
    """The mirror image of the default run bypasses its barrier at q = -10/3
    and stops at the margin past it, as the default does on the right; the
    mirror of the benchmark's 4x4 sweep classifies 8 bypassed and 8 trapped
    cells, as the sweep it mirrors does."""
    cfg = write_cfg(tmp_path, "m.json", dict(_MIRRORED, q0=-0.17))
    out = tmp_path / "m"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["classification"] == "bypassed"
    assert summary["barrier"]["position"] == pytest.approx(-10 / 3)
    assert summary["monitors"]["energy_drift"] < 1e-10
    t, q = map(float, (out / "trajectory.csv").read_text().splitlines()[-1].split(",")[:2])
    assert q == pytest.approx(-10 / 3 - 0.5) and t == pytest.approx(7.9465, abs=1e-4)
    ranges = {"q0": {"min": -0.6, "max": -0.05, "count": 4}, "energy": {"min": 0.6, "max": 1.8, "count": 4}}
    cfg = write_cfg(
        tmp_path, "ms.json", dict(_MIRRORED, sweep=ranges, t_span=[0.0, 40.0], rtol=1e-8, atol=1e-11)
    )
    assert main(["sweep", "--config", cfg, "--out-dir", str(out / "sweep")]) == 0
    counts = json.loads((out / "sweep" / "summary.json").read_text())["classification_counts"]
    assert counts == {"bypassed": 8, "trapped": 8, "error": 0}


def test_runners_write_the_summaries_main_writes(tmp_path):
    """``run_sweep`` and ``run_oracle`` called directly write the summary
    files of their commands, with the bytes ``main`` writes."""
    from qmoments.scenarios import run_oracle

    sweep = {"scenario": "cubic-tunneling", "sweep": {"q0": [0.17], "energy": [0.8, 1.4]}, "t_span": [0.0, 40.0]}
    oracle = {"grid_points": 512, "dt": 4e-3, "t_span": [0.0, 0.4], "samples": 5}
    run_sweep(resolve_config(sweep, scenario="cubic-tunneling-sweep"), str(tmp_path / "api-sweep"))
    run_oracle("free", oracle, str(tmp_path / "api-oracle"))
    cfg = write_cfg(tmp_path, "s.json", sweep)
    assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / "cli-sweep")]) == 0
    cfg = write_cfg(tmp_path, "o.json", oracle)
    assert main(["oracle", "--scenario", "free", "--config", cfg, "--out-dir", str(tmp_path / "cli-oracle")]) == 0
    for command, name in (("sweep", "summary.json"), ("oracle", "oracle_summary.json")):
        api, cli_run = (tmp_path / f"{via}-{command}" / name for via in ("api", "cli"))
        assert api.read_bytes() == cli_run.read_bytes(), command


def test_main_writes_no_artifact_of_a_config_command(tmp_path, monkeypatch, capsys):
    """``main`` prints the result of the runner it calls and writes nothing
    itself: a sweep runner that writes nothing leaves no summary."""
    monkeypatch.setattr(cli, "run_sweep", lambda cfg, out_dir: {"scenario": cfg["scenario"], "ok": True})
    out = tmp_path / "s"
    cfg = write_cfg(tmp_path, "s.json", {"sweep": _CELL})
    assert main(["sweep", "--config", cfg, "--out-dir", str(out)]) == 0
    assert json.loads(capsys.readouterr().out) == {"scenario": "cubic-tunneling-sweep", "ok": True}
    assert not out.exists()


def test_sweep_far_above_barrier_all_bypassed(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "s.json",
        {
            "scenario": "cubic-tunneling",
            "sweep": {"q0": [0.1, 0.3], "energy": [2.5, 3.0]},
            "t_span": [0.0, 40.0],
        },
    )
    out = tmp_path / "hb"
    # all cells bypass, so the sweep check (both classes present) fails -> 1
    assert main(["sweep", "--config", cfg, "--out-dir", str(out)]) == 1
    lines = (out / "sweep_grid.csv").read_text().splitlines()[1:]
    assert all(line.split(",")[2] == "bypassed" for line in lines)


def test_sweep_straddling_effective_saddle_has_both_classes(tmp_path):
    """Energies on either side of the lowered-barrier saddle of
    V + V'' s^2/2 + C/(2 m s^2) classify differently."""
    from qmoments.effective_hamiltonian import PolynomialPotential
    from qmoments.scenarios import effective_saddle

    pot = PolynomialPotential([0, 0, 0.5, -0.1], mass=1)
    q_s, s_s, w_s = effective_saddle(pot, 0.25)
    assert 0 < q_s < 10 / 3 and s_s > 0
    cfg = resolve_config(
        {
            "scenario": "cubic-tunneling-sweep",
            "sweep": {"q0": [0.17], "energy": [w_s - 0.4, w_s + 0.4]},
            "t_span": [0.0, 40.0],
        }
    )
    summary = run_sweep(cfg, str(tmp_path))
    counts = summary["classification_counts"]
    assert counts["trapped"] == 1 and counts["bypassed"] == 1


@pytest.mark.parametrize(
    "coeffs, casimir",
    [([0, 0, 0.5, -0.1], 0.25), ([0, 0, 0.5, -0.1], 0.05), ([0, 0, 1, -0.3], 0.25)],
    ids=["default", "small-casimir", "steeper-cubic"],
)
def test_effective_saddle_is_a_saddle_of_w(coeffs, casimir):
    """The gradient of W(q, s) = V + V'' s^2/2 + C/(2 m s^2) vanishes at the
    returned point, whose Hessian has one negative and one positive
    eigenvalue, and W there is the returned value."""
    from qmoments.effective_hamiltonian import PolynomialPotential
    from qmoments.scenarios import effective_saddle

    pot = PolynomialPotential(coeffs)

    def w(q, s):
        return pot.value(q) + 0.5 * pot.value(q, 2) * s**2 + casimir / (2 * s**2)

    q, s, w_s = effective_saddle(pot, casimir)
    assert w(q, s) == pytest.approx(w_s, rel=1e-12)
    h = 1e-5
    gradient = ((w(q + h, s) - w(q - h, s)) / (2 * h), (w(q, s + h) - w(q, s - h)) / (2 * h))
    assert max(map(abs, gradient)) < 1e-7
    h = 1e-4
    w_qq = (w(q + h, s) - 2 * w_s + w(q - h, s)) / h**2
    w_ss = (w(q, s + h) - 2 * w_s + w(q, s - h)) / h**2
    w_qs = (w(q + h, s + h) - w(q + h, s - h) - w(q - h, s + h) + w(q - h, s - h)) / (4 * h**2)
    low, high = np.linalg.eigvalsh([[w_qq, w_qs], [w_qs, w_ss]])
    assert low < 0 < high
    if (coeffs, casimir) == ([0, 0, 0.5, -0.1], 0.25):
        # the values of the earlier bisection on a 2001-point scan
        assert (q, s, w_s) == pytest.approx((1.6125526329594346, 1.665787936423109, 0.9709417221777791), rel=1e-9)


def test_effective_saddle_needs_a_critical_point():
    """At a Casimir this large the cubic's W(q, s) has no critical point
    between 0 and the barrier: 4 m V'^2 V'' stays below C times the square
    of the third derivative there."""
    from qmoments.effective_hamiltonian import PolynomialPotential
    from qmoments.scenarios import effective_saddle

    with pytest.raises(ConfigError) as err:
        effective_saddle(PolynomialPotential([0, 0, 0.5, -0.1]), 5.0)
    assert str(err.value) == "potential: no effective-potential critical points found"


@pytest.mark.parametrize(
    "coeffs, casimir",
    [([0, 0, 0.5, -0.1], 0.25), ([0, 0, 0.5, -0.1], 0.05), ([0, 0, 1, -0.3], 0.25)],
    ids=["default", "small-casimir", "steeper-cubic"],
)
def test_effective_saddle_of_the_mirrored_cubic_is_the_mirrored_saddle(coeffs, casimir):
    """V(-q) has its barrier left of the origin, and its W(q, s) is the
    mirror image of that of V: the saddle is (-q, s, W)."""
    from qmoments.effective_hamiltonian import PolynomialPotential
    from qmoments.scenarios import effective_saddle

    q, s, w_s = effective_saddle(PolynomialPotential(coeffs), casimir)
    mirrored = [c if k % 2 == 0 else -c for k, c in enumerate(coeffs)]
    assert effective_saddle(PolynomialPotential(mirrored), casimir) == pytest.approx((-q, s, w_s), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_tunneling_run_is_its_one_cell_sweep(tmp_path, order):
    """A cubic-tunneling run and the sweep of its one cell give the same
    bits: the row's t_final and max_q are the run's last time and largest
    q, and its drifts are the run's monitors."""
    run_cfg = write_cfg(tmp_path, "run.json", {"scenario": "cubic-tunneling", "order": order})
    sweep_cfg = write_cfg(
        tmp_path, "sweep.json", {"scenario": "cubic-tunneling", "order": order, "sweep": {"q0": [0.17], "energy": [1.2]}}
    )
    # order 4 leaves the admissible states, so its run's check fails
    assert main(["simulate", "--config", run_cfg, "--out-dir", str(tmp_path / "run")]) == (1 if order == 4 else 0)
    main(["sweep", "--config", sweep_cfg, "--out-dir", str(tmp_path / "sweep")])
    traj = np.genfromtxt(tmp_path / "run" / "trajectory.csv", delimiter=",", names=True)
    monitors = json.loads((tmp_path / "run" / "summary.json").read_text())["monitors"]
    row = np.genfromtxt(tmp_path / "sweep" / "sweep_grid.csv", delimiter=",", names=True, dtype=None, encoding="utf-8")
    assert row["classification"] == "bypassed"
    assert row["t_final"] == traj["t"][-1]
    assert row["max_q"] == traj["q"].max()
    assert row["energy_drift"] == monitors["energy_drift"]
    assert row["casimir_drift"] == monitors["casimir_drift"]


@pytest.mark.parametrize("order", [2, 3])
def test_sweep_rows_do_not_depend_on_the_batch(tmp_path, order):
    """Every row of a 2x4 grid has the same bytes when its cells run as
    one-cell sweeps, as a 1x4 row sweep and in the full grid; so does every
    row of a grid of more than _MAX_FLOAT_CELLS cells, which runs on row
    arrays, and its one-cell sweeps, which run on Python floats."""
    from qmoments.dynamics import _MAX_FLOAT_CELLS

    q0s, energies = [0.15, 0.25], [0.9, 1.2, 1.5, 1.8]
    base = {"scenario": "cubic-tunneling-sweep", "order": order, "t_span": [0.0, 30.0]}

    def grid_rows(name, q0s, energies):
        out = tmp_path / name
        out.mkdir()
        run_sweep(resolve_config(dict(base, sweep={"q0": q0s, "energy": energies})), str(out))
        return (out / "sweep_grid.csv").read_text().splitlines()[1:]

    full = grid_rows("full", q0s, energies)
    assert {line.split(",")[2] for line in full} == {"bypassed", "trapped"}
    for i, q0 in enumerate(q0s):
        row = full[4 * i : 4 * i + 4]
        assert grid_rows(f"row{i}", [q0], energies) == row
        for j, energy in enumerate(energies):
            assert grid_rows(f"cell{i}{j}", [q0], [energy]) == [row[j]]

    q0s, energies = [0.05, 0.2, 0.35, 0.5, 0.6], [0.6, 0.8, 0.95, 1.1, 1.25, 1.4, 1.6, 1.8]
    large = grid_rows("large", q0s, energies)
    assert len(large) > _MAX_FLOAT_CELLS
    cells = [(q0, energy) for q0 in q0s for energy in energies]
    assert [grid_rows(f"large{k}", [q0], [energy])[0] for k, (q0, energy) in enumerate(cells)] == large


def test_sweep_matches_the_scipy_path_cell_by_cell():
    """The batched tunneling runs classify as scipy's DOP853 with a terminal
    upward event does from the same start states, on a grid with cells
    below the rest energy and cells that exhaust max_steps: bypassed cells
    stop at the same time and place, an unreachable cell names the rest
    energy of the Hamiltonian polynomial, and scipy needs more than
    max_steps evaluations where the batch ran out of them."""
    from scipy.integrate import solve_ivp

    from qmoments.adiabatic import AdiabaticModel, s0_of_q
    from qmoments.dynamics import IntegrationError, init_gaussian
    from qmoments.scenarios import cubic_barrier, moment_field, tunneling_runs

    cfg = resolve_config({"scenario": "cubic-tunneling", "t_span": [0.0, 20.0], "max_steps": 1000})
    field = moment_field(cfg)
    pot = field.potential
    heff = field.heff
    barrier_q, _ = cubic_barrier(pot)
    cells = [(q0, e) for q0 in (0.2, 0.5) for e in (0.1, 1.0, 1.2, 1.8)]
    outcomes = tunneling_runs(cfg, cells, barrier_q)

    def crossed(t, y):
        return y[0] - barrier_q - cfg["stop_margin"]

    crossed.terminal, crossed.direction = True, 1
    classes = []
    for (q0, energy), outcome in zip(cells, outcomes):
        state = init_gaussian(q0, 0.0, s0_of_q(AdiabaticModel(pot, 0.25), q0))
        rest = heff.evaluate(1.0, {("q", 0): q0, ("p", 0): 0.0}, state.moments)
        if energy < rest:
            assert str(outcome) == f"energy {energy:g} below the rest energy {rest:g} at q0"
            classes.append("error")
            continue
        state.p = math.sqrt(2.0 * (energy - rest))
        ref = solve_ivp(
            field.compiled(1.0), cfg["t_span"], state.to_vector(field.layout),
            method="DOP853", rtol=cfg["rtol"], atol=cfg["atol"], events=crossed,
        )
        if isinstance(outcome, IntegrationError):
            assert str(outcome).startswith("step budget exhausted (1000 evaluations) (last good time t=")
            assert ref.nfev > cfg["max_steps"]
            classes.append("error")
            continue
        assert outcome.ys[0] == pytest.approx(ref.y[:, 0], rel=1e-12)
        assert outcome.info["status"] == ref.status
        assert outcome.times[-1] == pytest.approx(ref.t[-1], rel=1e-6)
        assert outcome.ys[:, 0].max() == pytest.approx(ref.y[0].max(), rel=1e-6)
        classes.append("bypassed" if ref.status == 1 else "trapped")
    assert classes == ["error", "error", "bypassed", "bypassed"] * 2


def test_sweep_jobs_option_is_gone(tmp_path):
    cfg = {"scenario": "cubic-tunneling", "sweep": {"q0": [0.2], "energy": [1.8]}}
    path = write_cfg(tmp_path, "s.json", cfg)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", path, "--jobs", "2"])
    assert exc.value.code == 2
    path = write_cfg(tmp_path, "jobs.json", dict(cfg, jobs=1))
    assert main(["sweep", "--config", path, "--out-dir", str(tmp_path / "o")]) == 2


def test_sweep_and_brackets_do_not_import_scipy(tmp_path):
    """Neither a sweep, a bracket table, a single moment run (harmonic or
    free) nor an adiabatic comparison loads scipy."""
    import qmoments

    cfg = write_cfg(
        tmp_path,
        "s.json",
        {"scenario": "cubic-tunneling", "sweep": {"q0": [0.2], "energy": [1.8]}, "t_span": [0, 10]},
    )
    short = {"t_span": [0, 0.1], "samples": 2}
    harmonic = write_cfg(
        tmp_path, "h.json", {"scenario": "harmonic", "potential": [0, 0, 0.5, 0, 0.05], "order": 5, **short}
    )
    free = write_cfg(tmp_path, "f.json", {"scenario": "free", **short})
    adiabatic = write_cfg(tmp_path, "a.json", {"scenario": "adiabatic-compare", "t_span": [0, 0.5], "samples": 3})
    script = (
        "import sys\n"
        "from qmoments.cli import main\n"
        "loaded = ['scipy' in sys.modules]\n"
        f"main(['sweep', '--config', {cfg!r}, '--out-dir', {str(tmp_path / 'out')!r}])\n"
        "loaded.append('scipy' in sys.modules)\n"
        "main(['brackets', '--order', '2'])\n"
        "loaded.append('scipy' in sys.modules)\n"
        f"assert main(['simulate', '--config', {harmonic!r}, '--out-dir', {str(tmp_path / 'h')!r}]) in (0, 1)\n"
        "loaded.append('scipy' in sys.modules)\n"
        f"assert main(['simulate', '--config', {free!r}, '--out-dir', {str(tmp_path / 'f')!r}]) in (0, 1)\n"
        "loaded.append('scipy' in sys.modules)\n"
        f"assert main(['simulate', '--config', {adiabatic!r}, '--out-dir', {str(tmp_path / 'a')!r}]) in (0, 1)\n"
        "loaded.append('scipy' in sys.modules)\n"
        "print(loaded)\n"
    )
    src = os.path.dirname(os.path.dirname(qmoments.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[False, False, False, False, False, False]"
    assert (tmp_path / "out" / "sweep_grid.csv").exists()
    assert (tmp_path / "h" / "trajectory.csv").exists() and (tmp_path / "f" / "trajectory.csv").exists()
    assert (tmp_path / "a" / "adiabatic_compare.csv").exists()


def test_brackets_import_no_numpy(tmp_path):
    """``import qmoments`` and the ``brackets`` command load no numpy or
    scipy: the command line and bracket tables load only the exact algebra
    and ``common``, and the ``oracle --scenario`` choices need no
    ``scenarios``.  A later ``simulate`` in the same interpreter runs, and
    an unknown package attribute raises AttributeError."""
    import qmoments
    from qmoments.common import ORACLE_SCENARIOS

    assert ORACLE_SCENARIOS == tuple(ORACLE_DEFAULTS)
    free = write_cfg(tmp_path, "f.json", {"scenario": "free", "t_span": [0, 0.1], "samples": 2})
    script = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy', 'qmoments'))\n"
        "import qmoments\n"
        "print(loaded())\n"
        "try:\n"
        "    qmoments.bogus\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "from qmoments.cli import main\n"
        f"assert main(['brackets', '--order', '5', '--out', {str(tmp_path / 'b5.json')!r}]) == 0\n"
        f"assert main(['brackets', '--order', '3', '--pairs', '2', '--out', {str(tmp_path / 'b32.json')!r}]) == 0\n"
        "try:\n"
        "    main(['oracle', '--scenario', 'bogus'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code)\n"
        "print(loaded())\n"
        f"assert main(['simulate', '--config', {free!r}, '--out-dir', {str(tmp_path / 'f')!r}]) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(qmoments.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    exact_algebra = ["qmoments.exact", "qmoments.indices", "qmoments.moment_algebra", "qmoments.weyl_algebra"]
    lines = done.stdout.splitlines()
    assert lines[:4] == [
        "['qmoments']",
        "module 'qmoments' has no attribute 'bogus'",
        "2",
        str(sorted(["qmoments", "qmoments.cli", "qmoments.common", *exact_algebra])),
    ]
    assert lines[-1] == "True"
    assert "invalid choice: 'bogus' (choose from 'free', 'harmonic')" in done.stderr
    assert json.loads((tmp_path / "b32.json").read_text())["pairs"] == 2
    assert (tmp_path / "f" / "trajectory.csv").exists()


def test_main_calls_the_scenario_names_bound_on_cli(tmp_path, monkeypatch):
    """A scenario function replaced on ``cli``, as the benchmark's tracer
    does, is the one ``main`` calls: binding ``scenarios`` keeps it."""
    calls = []
    run = scenarios.run_scenario

    def recording(cfg, out_dir):
        calls.append(cfg["scenario"])
        return run(cfg, out_dir)

    monkeypatch.setattr(cli, "run_scenario", recording)
    cfg = write_cfg(tmp_path, "f.json", {"scenario": "free", "t_span": [0, 0.1], "samples": 2})
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "f")]) == 0
    assert calls == ["free"]


def test_package_exports_resolve():
    """Every name of ``qmoments.__all__`` is its defining module's object."""
    import importlib

    import qmoments

    for name, module in qmoments._EXPORTS.items():
        assert getattr(qmoments, name) is getattr(importlib.import_module(f"qmoments.{module}"), name), name
    assert set(qmoments.__all__) <= set(dir(qmoments))


def test_sweep_records_unreachable_cells_as_errors(tmp_path):
    """Cells below the rest energy are error cells, also where the rest
    energy overflows to inf far out on the cubic."""
    from qmoments.scenarios import cubic_barrier, moment_field, tunneling_runs

    cfg = resolve_config(
        {
            "scenario": "cubic-tunneling-sweep",
            "sweep": {"q0": [0.2, -1e103, -1e200], "energy": [0.1, 1.0]},
            "t_span": [0.0, 20.0],
        }
    )
    summary = run_sweep(cfg, str(tmp_path))
    assert summary["classification_counts"]["error"] == 5
    lines = (tmp_path / "sweep_grid.csv").read_text().splitlines()[1:]
    assert [line.split(",")[2] for line in lines] == ["error", "trapped"] + ["error"] * 4
    far = [(-1e103, 1.2), (-1e200, 1.2)]
    for outcome in tunneling_runs(cfg, far, cubic_barrier(moment_field(cfg).potential)[0]):
        assert str(outcome).startswith("energy 1.2 below the rest energy")


def test_budget_spent_in_the_crossing_interpolant_fails_alike_on_both_paths(tmp_path, capsys):
    """The default tunneling run takes 401 evaluations, the last three for
    the interpolant that locates its crossing.  With 400 it fails in that
    interpolant, naming the budget and its last good evaluation: a single
    run on floats, and each cell of a sweep too large for floats on row
    arrays."""
    from qmoments.dynamics import _MAX_FLOAT_CELLS
    from qmoments.scenarios import cubic_barrier, moment_field, tunneling_runs

    cfg = write_cfg(tmp_path, "run.json", {"scenario": "cubic-tunneling", "max_steps": 400})
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err.strip()
    prefix = "runtime error: tunneling run failed: "
    assert err.startswith(prefix + "step budget exhausted (400 evaluations) (last good time t=5.08433, order 2, ")
    sweep = resolve_config(
        {"scenario": "cubic-tunneling-sweep", "max_steps": 400, "sweep": {"q0": [0.17], "energy": [1.2]}}
    )
    barrier_q, _ = cubic_barrier(moment_field(sweep).potential)
    cells = tunneling_runs(sweep, [(0.17, 1.2)] * (_MAX_FLOAT_CELLS + 1), barrier_q)
    assert [str(cell) for cell in cells] == [err.removeprefix(prefix)] * (_MAX_FLOAT_CELLS + 1)


@pytest.mark.parametrize("max_steps, last_good", [(14, "0.00188092"), (15, "0.000188092"), (16, "0.000376184")])
def test_budget_spent_in_a_sampled_interpolant_names_its_evaluation(tmp_path, capsys, max_steps, last_good):
    """The default harmonic run's first step holds the sample at t = 0 and
    ends at 14 evaluations, the two that choose it included; its
    interpolant makes three more.  With a budget of 14, 15 or 16 the run
    fails in that interpolant, exit 3, naming the step's end or the last
    good extra stage (t0 + 0.1h, t0 + 0.2h)."""
    cfg = write_cfg(tmp_path, "h.json", {"scenario": "harmonic", "max_steps": max_steps})
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "h")]) == 3
    assert capsys.readouterr().err == (
        f"runtime error: step budget exhausted ({max_steps} evaluations) "
        f"(last good time t={last_good}, order 2, largest |dX/dt| 0.75 in Delta_qp)\n"
    )


def test_samples_across_many_interpolant_chunks_keep_their_bytes(tmp_path):
    """The harmonic run at order 3 with 4001 samples builds its
    interpolants in many chunks of _DENSE_CHUNK samples or more, some steps
    holding dozens of samples; its artifacts keep the bytes of interpolants
    built one step at a time."""
    import hashlib

    from qmoments.dynamics import _DENSE_CHUNK

    assert 4001 > 10 * _DENSE_CHUNK
    cfg = write_cfg(tmp_path, "h.json", {"scenario": "harmonic", "order": 3, "samples": 4001})
    out = tmp_path / "h"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in os.listdir(out)}
    assert digests == {
        "trajectory.csv": "208e999925f44a19b7d4946f6d837ed930163100bde041c61ee12c0aa091b527",
        "summary.json": "6e7225ec9e0294f00cb09210e0e234d657fcca21dc6100a7d6a54beb58306458",
    }


def test_zero_casimir_is_refused_where_a_run_needs_an_equilibrium(tmp_path, capsys):
    """At C = 0 (classical_mode) no cell has a fluctuation equilibrium
    s0(q): a tunneling run and a sweep are refused as configs, with no out
    dir, while free and harmonic packets still run at C = 0."""
    base = {"scenario": "cubic-tunneling", "classical_mode": True, "casimir": 0}
    for command, payload in (("simulate", base), ("sweep", dict(base, sweep={"q0": [0.2], "energy": [1.0, 1.8]}))):
        cfg = write_cfg(tmp_path, f"{command}.json", payload)
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: casimir: must be > 0")
        assert not out.exists()
    for name in ("free", "harmonic"):
        cfg = write_cfg(tmp_path, f"{name}.json", dict(base, scenario=name, t_span=[0, 0.1], samples=2))
        # a run, passed or failed by its own checks, not a refusal
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / name)]) in (0, 1)
        assert (tmp_path / name / "trajectory.csv").exists()


def test_failed_tunneling_run_exits_3_without_artifacts(tmp_path, capsys):
    """A single tunneling run whose cell has no start state, here an energy
    below the rest energy at q0, is a runtime error that names the cell's
    reason, and it leaves no out dir."""
    cfg = write_cfg(tmp_path, "low.json", {"scenario": "cubic-tunneling", "energy": 0.0})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err.strip() == (
        "runtime error: tunneling run failed: energy 0 below the rest energy 0.487773 at q0"
    )
    assert not out.exists()


def test_tunneling_run_builds_its_model_once(monkeypatch):
    """A tunneling run builds its potential, equilibrium model and energy
    function once, not once per cell: one ``PolynomialPotential`` (the
    field's), one ``AdiabaticModel``, and two ``energy_function`` calls,
    the rest energies' and the integrator's monitor, for one cell or a
    grid."""
    from qmoments.effective_hamiltonian import MomentVectorField, PolynomialPotential

    counts = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(scenarios, "AdiabaticModel", counting("model", scenarios.AdiabaticModel))
    monkeypatch.setattr(scenarios, "PolynomialPotential", counting("potential", PolynomialPotential))
    monkeypatch.setattr(MomentVectorField, "energy_function", counting("energy", MomentVectorField.energy_function))
    base = {"scenario": "cubic-tunneling-sweep", "t_span": [0.0, 5.0]}
    for sweep in ({"q0": [0.2], "energy": [1.2]}, {"q0": [0.2, 0.4], "energy": [0.1, 1.2, 1.6]}):
        scenarios._field.cache_clear()
        counts.clear()
        cfg = resolve_config(dict(base, sweep=sweep))
        barrier_q = scenarios.cubic_barrier(scenarios.moment_field(cfg).potential)[0]
        scenarios.tunneling_runs(cfg, [(q, e) for q in sweep["q0"] for e in sweep["energy"]], barrier_q)
        assert counts == {"potential": 1, "model": 1, "energy": 2}, sweep


def test_zero_casimir_drift_is_relative_to_the_largest_product(tmp_path):
    """At C0 = 0 the Casimir drift is scaled by the run's largest
    Delta_q2 * Delta_p2: a harmonic packet's rounding-level drift passes its
    check, and a free packet, whose C stays exactly 0, reports 0."""
    base = {"classical_mode": True, "casimir": 0, "t_span": [0, 0.1], "samples": 2}
    for name in ("harmonic", "free"):
        cfg = write_cfg(tmp_path, f"{name}.json", dict(base, scenario=name))
        out = tmp_path / name
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        drift = json.loads((out / "summary.json").read_text())["monitors"]["casimir_drift"]
        cols = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
        c = cols["casimir"]
        assert c[0] == 0
        if name == "free":
            assert drift == 0
        else:
            scale = np.max(np.abs(cols["Delta_q2"] * cols["Delta_p2"]))
            assert 0 < drift == pytest.approx(np.max(np.abs(c)) / scale, rel=1e-12)
            assert drift < 1e-9


def test_brackets_dump(tmp_path, capsys):
    out = tmp_path / "br.json"
    assert main(["brackets", "--order", "2", "--pairs", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["truncation_order"] == 2
    assert len(payload["entries"]) == 3
    assert all(e["validated"] for e in payload["entries"])
    # stdout variant
    assert main(["brackets", "--order", "2", "--pairs", "1"]) == 0
    assert '"entries"' in capsys.readouterr().out


def test_dumps_json_pins_every_kind_it_writes():
    """The artifact writer's bytes: two-space indents, floats to 17
    significant digits and non-finite ones as null, subclasses by their
    base type, ASCII escapes and keys as their str.  Without floats it is
    ``json.dumps(obj, indent=2)``."""
    obj = {
        "empty": {"dict": {}, "list": [], "tuple": ()},
        "scalars": (True, False, None, -12),
        "floats": [-0.0, 1e-300, float("nan"), float("inf"), np.float64(0.1)],
        "text": {'café "ψ"': "Δ(q^2)\n", 7: [[1, 2], {"x": "y"}]},
    }
    assert dumps_json(obj) == r"""{
  "empty": {
    "dict": {},
    "list": [],
    "tuple": []
  },
  "scalars": [
    true,
    false,
    null,
    -12
  ],
  "floats": [
    -0,
    1e-300,
    null,
    null,
    0.10000000000000001
  ],
  "text": {
    "caf\u00e9 \"\u03c8\"": "\u0394(q^2)\n",
    "7": [
      [
        1,
        2
      ],
      {
        "x": "y"
      }
    ]
  }
}"""
    table = build_bracket_table(3, 2).to_jsonable()
    assert dumps_json(table) == json.dumps(table, indent=2)


def test_dumps_json_writes_a_recurring_tuple_as_each_of_its_places_needs():
    """The writer renders a tuple's text once per indent and keys it by the
    tuple's identity: the same tuple object at two indents takes each
    indent, and tuples that compare equal, ``(True,)`` and ``(1,)`` or
    ``(-0.0,)`` and ``(0.0,)``, keep their own texts."""
    index = ((2, 0), (0, 1))
    obj = {
        "index": index,
        "nested": {"index": index, "again": [index, index]},
        "alike": [(True,), (1,), (1.0,), (-0.0,), (0.0,)],
        "holds_list": (["q", [0.5]], None),
        "empty": (),
    }
    assert dumps_json(obj) == """{
  "index": [
    [
      2,
      0
    ],
    [
      0,
      1
    ]
  ],
  "nested": {
    "index": [
      [
        2,
        0
      ],
      [
        0,
        1
      ]
    ],
    "again": [
      [
        [
          2,
          0
        ],
        [
          0,
          1
        ]
      ],
      [
        [
          2,
          0
        ],
        [
          0,
          1
        ]
      ]
    ]
  },
  "alike": [
    [
      true
    ],
    [
      1
    ],
    [
      1
    ],
    [
      -0
    ],
    [
      0
    ]
  ],
  "holds_list": [
    [
      "q",
      [
        0.5
      ]
    ],
    null
  ],
  "empty": []
}"""


@pytest.mark.parametrize(
    "args, flag",
    [(["--order", "1"], "--order"), (["--order", "0"], "--order"), (["--order", "-2"], "--order"),
     (["--order", "2", "--pairs", "0"], "--pairs"), (["--order", "2", "--pairs", "-1"], "--pairs"),
     (["--order", "8"], "--order"),
     # tables above moment_algebra.MAX_TABLE_ENTRIES
     (["--order", "7", "--pairs", "2"], "--pairs"), (["--order", "2", "--pairs", "40"], "--pairs")],
)
def test_brackets_rejects_bad_arguments(capsys, args, flag):
    assert main(["brackets", *args]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {flag}: ")


def test_non_real_bracket_is_a_runtime_error(monkeypatch, capsys):
    """A bracket with an imaginary part exits 3 like any other runtime
    error.  Multiplying every Weyl monomial by 1 + lambda (lambda = -i hbar)
    makes each commutator (1 + 2 lambda + lambda^2) times a real one, and
    the odd power of lambda is imaginary."""
    from qmoments import moment_algebra, weyl_algebra
    from qmoments.weyl_algebra import OperatorPoly

    def one_plus_lambda(npairs):
        return OperatorPoly.identity(npairs) + OperatorPoly.monomial(((0, 0),) * npairs, 1, 1)

    weyl = weyl_algebra.weyl_monomial
    monkeypatch.setattr(weyl_algebra, "weyl_monomial", lambda idx: weyl(idx) * one_plus_lambda(len(idx)))
    for cached in (weyl_algebra.bracket_oracle, moment_algebra.build_bracket_table):
        cached.cache_clear()
    try:
        assert main(["brackets", "--order", "2"]) == 3
    finally:
        monkeypatch.undo()
        for cached in (weyl_algebra.bracket_oracle, moment_algebra.build_bracket_table):
            cached.cache_clear()
    assert capsys.readouterr().err.startswith("runtime error: expectation of a non-Hermitian operator")


def test_oracle_subcommand(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "o.json",
        {"grid_points": 512, "dt": 4e-3, "t_span": [0.0, 0.4], "samples": 5},
    )
    out = tmp_path / "o"
    assert main(["oracle", "--scenario", "free", "--config", cfg, "--out-dir", str(out)]) == 0
    lines = (out / "oracle_trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,q,p,Delta_q2,Delta_qp,Delta_p2,energy,casimir,margin"
    assert len(lines) == 6


def test_oracle_subcommand_pins_the_potential_term(tmp_path):
    """The harmonic oracle on the same short config: V psi is not zero, so
    its bytes, pinned as ``oracle-harmonic-short`` in the artifact manifest,
    also pin the potential term of <H_N> in the energy column."""
    cfg = write_cfg(
        tmp_path,
        "o.json",
        {"grid_points": 512, "dt": 4e-3, "t_span": [0.0, 0.4], "samples": 5},
    )
    out = tmp_path / "o"
    assert main(["oracle", "--scenario", "harmonic", "--config", cfg, "--out-dir", str(out)]) == 0


@pytest.mark.parametrize(
    "payload, field",
    [({"bogus": 1}, "bogus"), ({"grid_points": 10}, "grid_points"), ({"order": 8}, "order"), ([1], "config"),
     ({"dt": math.inf}, "dt")],
    ids=["unknown-key", "grid_points", "order", "not-an-object", "dt-infinity"],
)
def test_oracle_config_errors_exit_2(tmp_path, capsys, payload, field):
    """Oracle configs pass the same gate as simulate configs."""
    cfg = write_cfg(tmp_path, "o.json", payload)
    out = tmp_path / "o"
    assert main(["oracle", "--scenario", "free", "--config", cfg, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not (out / "oracle_trajectory.csv").exists()


@pytest.mark.parametrize(
    "payload, field",
    [({"ps0": 0.5}, "ps0"), ({"casimir": 0.3}, "casimir"), ({"classical_mode": True}, "classical_mode")],
    ids=["ps0", "casimir", "classical_mode"],
)
def test_oracle_refuses_states_it_cannot_represent(tmp_path, capsys, payload, field):
    """The oracle's packet is the pure Gaussian with ps0 = 0 and C = hbar^2/4,
    so a config that runs the oracle takes no key for another state."""
    base = {"scenario": "oracle-diff", "grid_points": 1024, "t_span": [0, 0.5], "samples": 6}
    cfg = write_cfg(tmp_path, "od.json", {**base, **payload})
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "od")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    cfg = write_cfg(tmp_path, "o.json", payload)
    assert main(["oracle", "--scenario", "free", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


_RANGE = {"min": 0, "max": 1, "count": 4}
_MOMENTS_HEADER, _MOMENTS_ROW = "t,q,p,Delta_q2,Delta_qp,Delta_p2", "0,0,0,1,0,0.25"
_CELL = {"q0": [0.2], "energy": [1.8]}


@pytest.mark.parametrize(
    "argv, payload, field",
    [
        (["oracle", "--scenario", "free"], {"bogus": 1}, "bogus"),
        (["sweep"], {"sweep": {"q0": [], "energy": [1.0]}}, "sweep.q0"),
        (["sweep"], {"potential": [0.0, 0.0, 0.5], "sweep": {"q0": [0.2], "energy": [1.0]}}, "potential"),
        (["simulate"], {"scenario": "cubic-tunneling", "potential": [0, 0, 0.5]}, "potential"),
        (["sweep"], {"sweep": {"q0": {**_RANGE, "count": "x"}, "energy": [1.0]}}, "sweep.q0.count"),
        (["sweep"], {"sweep": {"q0": [0.2], "energy": {**_RANGE, "min": "a"}}}, "sweep.energy.min"),
        (["sweep"], {"sweep": {"q0": [0.2, "x"], "energy": [1.0]}}, "sweep.q0"),
        (["sweep"], {"sweep": {"q0": [0.2, math.nan], "energy": [1.0]}}, "sweep.q0"),
        (["simulate"], {"scenario": "brackets-dump", "table_order": 7, "pairs": 2}, "pairs"),
        (["sweep"], {"sweep": {"q0": {"min": 0.1, "max": 0.2, "count": 10**15}, "energy": [1.0]}}, "sweep.q0.count"),
        (["sweep"], {"sweep": {"q0": {"min": 0.1, "max": 0.2, "count": 257}, "energy": {**_RANGE, "count": 256}}}, "sweep"),
        (["simulate"], {"scenario": "free", "samples": MAX_SAMPLES + 1}, "samples"),
        (["oracle", "--scenario", "free"], {"grid_points": MAX_GRID_POINTS + 1}, "grid_points"),
        # keys no run reads (the integrator has no method or fixed step)
        (["simulate"], {"scenario": "free", "method": "rk45"}, "method"),
        (["simulate"], {"scenario": "harmonic", "method": "rk4"}, "method"),
        (["simulate"], {"scenario": "free", "step": 1e-3}, "step"),
        (["simulate"], {"scenario": "harmonic", "step": 1e-3}, "step"),
        # keys a scenario's run does not read
        (["simulate"], {"scenario": "cubic-tunneling", "method": "rk4"}, "method"),
        (["simulate"], {"scenario": "adiabatic-compare", "method": "rk4"}, "method"),
        (["adiabatic-compare"], {"method": "rk4"}, "method"),
        (["simulate"], {"scenario": "oracle-diff", "method": "rk4"}, "method"),
        (["sweep"], {"method": "rk4", "sweep": _CELL}, "method"),
        (["simulate"], {"scenario": "cubic-tunneling", "sigma": 0.3}, "sigma"),
        (["simulate"], {"scenario": "cubic-tunneling", "samples": 7}, "samples"),
        (["simulate"], {"scenario": "cubic-tunneling", "sweep": _CELL}, "sweep"),
        (["sweep"], {"energy": 1.2, "sweep": _CELL}, "energy"),
        (["sweep"], {}, "sweep"),
        (["simulate"], {"scenario": "two-dof-limit", "hbar": 2}, "hbar"),
        (["simulate"], {"scenario": "brackets-dump", "order": 3}, "order"),
        (["oracle", "--scenario", "free"], {"out_dir": "elsewhere"}, "out_dir"),
        (["oracle", "--scenario", "free"], {"rtol": 0.5}, "rtol"),
        # no fluctuation equilibrium s0(q) at C = 0
        (["adiabatic-compare"], {"classical_mode": True, "casimir": 0}, "casimir"),
        (["simulate"], {"scenario": "adiabatic-compare", "classical_mode": True, "casimir": 0}, "casimir"),
        # a command that forces a scenario refuses a config naming another
        (["sweep"], {"scenario": "free", "sweep": _CELL}, "scenario"),
        (["adiabatic-compare"], {"scenario": "harmonic"}, "scenario"),
        (["oracle", "--scenario", "free"], {"scenario": "harmonic"}, "scenario"),
    ],
    ids=[
        "oracle-unknown-key",
        "sweep-empty-range",
        "sweep-no-barrier",
        "simulate-no-barrier",
        "sweep-count-not-integer",
        "sweep-min-not-number",
        "sweep-list-not-numbers",
        "sweep-list-nan",
        "table-over-entry-ceiling",
        "sweep-axis-over-cell-ceiling",
        "sweep-grid-over-cell-ceiling",
        "samples-over-ceiling",
        "grid_points-over-ceiling",
        "free-method",
        "harmonic-method",
        "free-step",
        "harmonic-step",
        "cubic-tunneling-method",
        "adiabatic-compare-method",
        "adiabatic-compare-command-method",
        "oracle-diff-method",
        "sweep-method",
        "cubic-tunneling-sigma",
        "cubic-tunneling-samples",
        "cubic-tunneling-sweep-key",
        "sweep-energy",
        "sweep-missing",
        "two-dof-limit-hbar",
        "brackets-dump-order",
        "oracle-out-dir",
        "oracle-rtol",
        "adiabatic-compare-command-zero-casimir",
        "adiabatic-compare-zero-casimir",
        "sweep-other-scenario",
        "adiabatic-compare-other-scenario",
        "oracle-other-scenario",
    ],
)
def test_refused_config_leaves_no_directory(tmp_path, capsys, argv, payload, field):
    cfg = write_cfg(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main([*argv, "--config", cfg, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["simulate", "--config", "{input}", "--out-dir", "{out}"], "{not json", "config error: config: invalid JSON ("),
        (
            ["sweep", "--config", "{input}", "--out-dir", "{out}"],
            json.dumps({"sweep": {"q0": 3, "energy": [1.2]}}),
            "config error: sweep.q0: must be a list or {min, max, count}\n",
        ),
        (
            ["sweep", "--config", "{input}", "--out-dir", "{out}"],
            json.dumps({"sweep": {"q0": [0.17], "energy": [1.2], "ps0": [0.0]}}),
            "config error: sweep: expected exactly the keys 'q0' and 'energy'\n",
        ),
        (
            ["transform", "--to", "darboux", "--input", "{input}", "--output", "{out}"],
            "t,q,p,Delta_q2,Delta_qp,Delta_p2,energy,casimir,margin\n",
            "config error: input: empty trajectory\n",
        ),
        (
            ["transform", "--to", "darboux", "--input", "{input}", "--output", "{out}"],
            f"{_MOMENTS_HEADER}\n{_MOMENTS_ROW}\n0,1,2\n",
            "config error: input: line 3: expected 6 cells, found 3\n",
        ),
        (
            ["transform", "--to", "darboux", "--input", "{input}", "--output", "{out}"],
            f"{_MOMENTS_HEADER}\n{_MOMENTS_ROW},7\n",
            "config error: input: line 2: expected 6 cells, found 7\n",
        ),
        (
            ["transform", "--to", "plane", "--input", "{input}", "--output", "{out}"],
            f"{_MOMENTS_HEADER}\n{_MOMENTS_ROW}\n\n{_MOMENTS_ROW}\n",
            "config error: input: line 3: expected 6 cells, found 1\n",
        ),
        (
            ["transform", "--to", "darboux", "--input", "{input}", "--output", "{out}"],
            f"{_MOMENTS_HEADER}\n0,0,x,1,0,0.25\n",
            "config error: input: line 2: a cell is not a number\n",
        ),
        (
            ["transform", "--to", "moments", "--input", "{input}", "--output", "{out}"],
            "t,s,p_s,casimir\n0,1,0,0.25\n0.1,1,,0.25\n",
            "config error: input: line 3: a cell is not a number\n",
        ),
    ],
    ids=[
        "invalid-json",
        "sweep-range-not-a-range",
        "sweep-extra-key",
        "transform-header-only",
        "transform-short-row",
        "transform-long-row",
        "transform-blank-line",
        "transform-not-a-number",
        "transform-empty-cell",
    ],
)
def test_refused_input_names_its_cause(tmp_path, capsys, argv, text, message):
    """Each refused input exits 2 with a message that names its cause, and
    writes nothing."""
    path, out = tmp_path / "input", tmp_path / "out"
    path.write_text(text)
    assert main([arg.format(input=path, out=out) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


class _ReadRecorder(dict):
    """A resolved config that records every key its run looks up."""

    def __init__(self, cfg, reads):
        super().__init__(cfg)
        self.reads = reads

    def __getitem__(self, key):
        self.reads.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.add(key)
        return super().get(key, default)


# two steps of the default dt
_SHORT_ORACLE = {"grid_points": 2048, "t_span": [0.0, 0.04], "samples": 2}


def test_oracle_samples_closer_than_half_a_step_exit_3(tmp_path, capsys):
    """At the default dt = 2e-2, an oracle sample 9e-3 after the last one
    would share its step: the run exits 3, names it and writes nothing."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "c.json", {"scenario": "oracle-diff", "t_span": [0.0, 0.009], "samples": 2})
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err.strip() == "runtime error: oracle sample t=0.009 is closer than dt/2 to t=0 (dt=0.02)"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, payload, entry",
    [
        *((["simulate"], {"scenario": name, "t_span": [0.0, 0.1], "samples": 3}, name) for name in ("free", "harmonic")),
        (["simulate"], {"scenario": "cubic-tunneling"}, "cubic-tunneling"),
        (["sweep"], {"sweep": _CELL, "t_span": [0.0, 10.0]}, "cubic-tunneling-sweep"),
        (["simulate"], {"scenario": "two-dof-limit"}, "two-dof-limit"),
        (["adiabatic-compare"], {"t_span": [0.0, 1.0], "samples": 11}, "adiabatic-compare"),
        (["simulate"], {"scenario": "brackets-dump"}, "brackets-dump"),
        (["simulate"], {"scenario": "oracle-diff", **_SHORT_ORACLE}, "oracle-diff"),
        *((["oracle", "--scenario", name], _SHORT_ORACLE, name) for name in ORACLE_DEFAULTS),
    ],
    ids=[
        "free", "harmonic", "cubic-tunneling", "sweep", "two-dof-limit", "adiabatic-compare", "brackets-dump",
        "oracle-diff", *(f"oracle-{name}" for name in ORACLE_DEFAULTS),
    ],
)
def test_every_accepted_key_is_read(tmp_path, monkeypatch, argv, payload, entry):
    """A run looks up every key its scenario accepts, and no other: no key
    a config may give is inert.  The echo of the inputs is not a read, and
    ``out_dir`` is read by the command line (here, for want of --out-dir)."""
    reads = set()
    resolve, echo = scenarios.resolve_config, scenarios._echo_inputs

    def recording(*args, **kwargs):
        return _ReadRecorder(resolve(*args, **kwargs), reads)

    monkeypatch.setattr(cli, "resolve_config", recording)
    monkeypatch.setattr(scenarios, "resolve_config", recording)
    monkeypatch.setattr(scenarios, "_echo_inputs", lambda cfg: echo({k: dict.__getitem__(cfg, k) for k in cfg}))
    out = str(tmp_path / "out")
    if argv[0] == "oracle":
        argv, defaults = [*argv, "--out-dir", out], ORACLE_DEFAULTS
    else:
        payload, defaults = dict(payload, out_dir=out), _SCENARIO_DEFAULTS
    assert main([*argv, "--config", write_cfg(tmp_path, "c.json", payload)]) in (0, 1)
    assert os.listdir(out)
    assert reads - {"scenario"} == set(defaults[entry])


def test_tracer_installs_on_the_program(tmp_path):
    """The benchmark's tracer rebinds names of cli, scenarios and the other
    layers; a renamed one fails here rather than in the benchmark.  A short
    oracle run under it counts every ``evolve``, ``energy_expectation`` and
    moment-extraction call, and the default tunneling run, which stops at
    its event and samples no interpolant on row arrays, one field build and
    one generated-rhs call per evaluation, so the rebound names are the ones
    both paths call."""
    import qmoments

    root = pathlib.Path(__file__).resolve().parents[1]
    src = os.path.dirname(os.path.dirname(qmoments.__file__))
    cfg = write_cfg(tmp_path, "o.json", {"grid_points": 512, "dt": 4e-3, "t_span": [0.0, 0.4], "samples": 5})
    moment_cfg = write_cfg(tmp_path, "m.json", {"scenario": "cubic-tunneling"})
    script = (
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "from qmoments.cli import main\n"
        f"assert main(['oracle', '--scenario', 'harmonic', '--config', {cfg!r}, '--out-dir', 'o']) == 0\n"
        "calls = [tracer.totals[f'schrodinger.{name}.calls']\n"
        "         for name in ('evolve', 'energy_expectation', 'moments_from_wavefunction')]\n"
        "assert calls == [4, 5, 5], calls\n"
        f"assert main(['simulate', '--config', {moment_cfg!r}, '--out-dir', 'm']) == 0\n"
        "assert tracer.totals['effective_hamiltonian.equations_of_motion.calls'] == 1, dict(tracer.totals)\n"
        "nfev, rhs = tracer.totals['dynamics.nfev'], tracer.totals['effective_hamiltonian.rhs.calls']\n"
        "assert nfev == rhs > 0, (nfev, rhs)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(root / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_oracle_diff_at_order_5(tmp_path):
    """The oracle extracts every order a config takes: a squeezed harmonic
    packet at order 5 on the default grid passes its check, and its
    fourth-order moments match the moment dynamics too."""
    cfg = write_cfg(tmp_path, "o5.json", {"scenario": "oracle-diff", "order": 5, "q0": 0.5, "p0": 0.3, "sigma": 0.7})
    out = tmp_path / "o5"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["passed"] and summary["checks"]["max_rel_deviation"] <= 1e-5
    assert summary["oracle_quality"] < 1e-12
    oracle = np.genfromtxt(out / "oracle_trajectory.csv", delimiter=",", names=True)
    moments = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
    assert "Delta_p5" in moments.dtype.names
    for col in ("Delta_q4", "Delta_q2p2", "Delta_p4"):
        assert np.max(np.abs(oracle[col] - moments[col])) <= 1e-5 * np.max(np.abs(moments[col])), col


def test_oracle_diff_scenario(tmp_path):
    """A moving centroid, one at rest (q0 = p0 = 0) and the uncorrelated
    harmonic ground state all match the oracle; a real centroid offset
    from the one at rest, or a Delta_qp offset from the ground state's
    zero covariance, does not."""
    cols = ("Delta_q2", "Delta_qp", "Delta_p2", "q", "p")
    runs = {}
    for name, extra in (("moving", {"q0": 1.0}), ("rest", {"q0": 0.0}), ("ground", {"sigma": 0.7071067811865476})):
        cfg = write_cfg(
            tmp_path,
            f"od-{name}.json",
            {
                "scenario": "oracle-diff",
                **extra,
                "grid_points": 2048,
                "t_span": [0.0, 1.0],
                "samples": 6,
                "check_threshold": 5e-4,
            },
        )
        out = tmp_path / f"od-{name}"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["checks"]["max_rel_deviation"] < 5e-4
        oracle = np.genfromtxt(out / "oracle_trajectory.csv", delimiter=",", names=True)
        moments = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
        runs[name] = ({c: oracle[c] for c in cols}, {c: moments[c] for c in cols})

    oracle_cols, moment_cols = runs["rest"]
    assert not moment_cols["q"].any() and not moment_cols["p"].any()
    oracle_cols["q"] = oracle_cols["q"] + 1e-6 * np.sqrt(moment_cols["Delta_q2"])
    assert oracle_deviations(oracle_cols, moment_cols)["q"] > 5e-4

    oracle_cols, moment_cols = runs["ground"]
    bound = np.sqrt(np.max(moment_cols["Delta_q2"]) * np.max(moment_cols["Delta_p2"]))
    assert np.max(np.abs(moment_cols["Delta_qp"])) < 1e-12 * bound
    oracle_cols["Delta_qp"] = oracle_cols["Delta_qp"] + 1e-3 * bound
    assert oracle_deviations(oracle_cols, moment_cols)["Delta_qp"] > 5e-4


@pytest.mark.parametrize(
    "command, cfg, artifact, column",
    [
        ("simulate", {"scenario": "cubic-tunneling", "t_span": [0.0, 10.0]}, "trajectory.csv", "Delta_q3"),
        ("adiabatic-compare", {"t_span": [0.0, 2.0], "samples": 21}, "adiabatic_compare.csv", "s_full"),
    ],
    ids=["cubic-tunneling", "adiabatic-compare"],
)
def test_equilibrium_initial_states_at_order_3(tmp_path, command, cfg, artifact, column):
    """Tunneling and adiabatic runs start in Gaussian states at every order."""
    path = write_cfg(tmp_path, "o3.json", dict(cfg, order=3))
    out = tmp_path / "o3"
    assert main([command, "--config", path, "--out-dir", str(out)]) == 0
    assert column in (out / artifact).read_text().splitlines()[0].split(",")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["inputs"]["order"] == 3
    assert summary["monitors"]["energy_drift"] < 1e-8


def test_two_dof_limit_scenario(tmp_path):
    cfg = write_cfg(tmp_path, "t.json", {"scenario": "two-dof-limit"})
    out = tmp_path / "t"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    summary = json.loads((out / "two_dof_limit.json").read_text())
    assert summary["k_ratio"] < 1.3


def test_two_dof_limit_at_the_pole_is_a_runtime_error(tmp_path, capsys):
    """beta = 0 puts the reduced state on the pole, where C1/(2 sin^2 beta)
    is singular: exit 3, the cause named, no artifacts."""
    cfg = write_cfg(tmp_path, "t.json", {"scenario": "two-dof-limit", "beta": 0})
    out = tmp_path / "t"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err == "runtime error: sin(beta) = 0 is singular\n"
    assert not out.exists()


def test_transform_round_trip(tmp_path):
    cfg = write_cfg(tmp_path, "free.json", {"scenario": "free", "samples": 41})
    out = tmp_path / "f"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    traj = str(out / "trajectory.csv")
    darboux = str(tmp_path / "darboux.csv")
    back = str(tmp_path / "back.csv")
    assert main(["transform", "--to", "darboux", "--input", traj, "--output", darboux]) == 0
    assert main(["transform", "--to", "moments", "--input", darboux, "--output", back]) == 0
    orig = np.genfromtxt(traj, delimiter=",", names=True)
    recon = np.genfromtxt(back, delimiter=",", names=True)
    for col in ("Delta_q2", "Delta_qp", "Delta_p2"):
        assert np.allclose(orig[col], recon[col], rtol=1e-12, atol=1e-14)


def test_transform_plane_conserves_p_phi(tmp_path):
    cfg = write_cfg(tmp_path, "free.json", {"scenario": "free", "samples": 201})
    out = tmp_path / "f"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    plane = str(tmp_path / "plane.csv")
    assert main([
        "transform", "--to", "plane",
        "--input", str(out / "trajectory.csv"), "--output", plane,
    ]) == 0
    data = np.genfromtxt(plane, delimiter=",", names=True)
    assert np.allclose(data["p_phi"], 0.5, atol=1e-9)


def test_transform_plane_two_samples_is_finite(tmp_path):
    """Two samples are one trapezoid panel of the angle integral."""
    cfg = write_cfg(tmp_path, "free.json", {"scenario": "free", "samples": 2, "t_span": [0.0, 0.1]})
    out = tmp_path / "f"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    plane = tmp_path / "plane.csv"
    assert main(["transform", "--to", "plane", "--input", str(out / "trajectory.csv"), "--output", str(plane)]) == 0
    data = np.genfromtxt(plane, delimiter=",", skip_header=1)
    assert data.shape == (2, 6) and np.isfinite(data).all()


@pytest.mark.parametrize("mass", ["0", "-1", "nan", "inf"])
def test_transform_refuses_bad_mass(tmp_path, capsys, mass):
    """--mass passes the check of the config key mass."""
    traj = tmp_path / "traj.csv"
    traj.write_text("t,Delta_q2,Delta_qp,Delta_p2\n0,1.0,0.0,0.25\n1,2.0,1.0,0.25\n")
    plane = tmp_path / "plane.csv"
    assert main(["transform", "--to", "plane", "--input", str(traj), "--output", str(plane), "--mass", mass]) == 2
    assert capsys.readouterr().err.startswith("config error: --mass: ")
    assert not plane.exists()


def test_transform_missing_columns(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,q\n0,1\n")
    assert main(["transform", "--to", "darboux", "--input", str(bad), "--output", str(tmp_path / "o.csv")]) == 2


def test_transform_singular_data_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "singular.csv"
    bad.write_text("t,Delta_q2,Delta_qp,Delta_p2\n0,0.0,0.0,1.0\n")
    code = main(["transform", "--to", "darboux", "--input", str(bad), "--output", str(tmp_path / "o.csv")])
    assert code == 3
    assert "runtime error" in capsys.readouterr().err


def test_adiabatic_compare_subcommand(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "a.json",
        {"scenario": "adiabatic-compare", "amplitude": 0.3, "t_span": [0.0, 6.0], "samples": 121},
    )
    out = tmp_path / "a"
    assert main(["adiabatic-compare", "--config", cfg, "--out-dir", str(out)]) == 0
    lines = (out / "adiabatic_compare.csv").read_text().splitlines()
    assert lines[0] == "t,q_full,s_full,q_adiabatic,s_adiabatic0,s_adiabatic1"
    errors = json.loads((out / "adiabatic_errors.json").read_text())
    assert errors["max_q_error"] < 0.05


def test_resolve_config_rejects_subquantum_casimir():
    with pytest.raises(ConfigError, match="casimir"):
        resolve_config({"scenario": "free", "casimir": 0.01})
    # but classical mode admits it
    cfg = resolve_config({"scenario": "free", "casimir": 0.01, "classical_mode": True})
    assert cfg["casimir"] == 0.01


def test_every_config_key_has_one_check():
    """Every key of a default table has its entry in the gate's table, so
    a new key cannot skip the gate."""
    keys = set().union(*_SCENARIO_DEFAULTS.values(), *ORACLE_DEFAULTS.values())
    assert set(_KEYS) == keys


def _takers(key) -> str:
    """The scenarios and commands that take ``key``, as README names them:
    ``sweep`` for the sweep command's scenario and ``oracle`` for the
    oracle command, whose scenarios take the same keys."""
    names = ["sweep" if name == "cubic-tunneling-sweep" else name for name, d in _SCENARIO_DEFAULTS.items() if key in d]
    oracle = {key in d for d in ORACLE_DEFAULTS.values()}
    assert len(oracle) == 1
    return ", ".join(names + ["oracle"] * oracle.pop())


def test_readme_config_format_names_every_key():
    """README's "Config format" table has one row per key, and its
    scenarios column names exactly the scenarios and commands that take it."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("### Config format")[1].split("\n### ")[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", section, re.M)
    assert sorted(key for key, _ in rows) == sorted(_KEYS)
    assert {key: takers for key, takers in rows} == {key: _takers(key) for key in _KEYS}


def test_package_exports_resolve_once():
    """Every name in ``qmoments.__all__`` is on the package, once."""
    import qmoments

    assert len(qmoments.__all__) == len(set(qmoments.__all__))
    for name in qmoments.__all__:
        assert hasattr(qmoments, name), name
