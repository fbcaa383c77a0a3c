"""Metric definitions and the layer-to-end-to-end arrows.

BENCHMARK.json lists the same names, units and directions; ``selftest.py``
checks that the two agree.  Each per-layer metric names the end-to-end
metric it should move, and on which workload, so that a later change can
cite the prediction before it measures.

``work_per_s`` is the one throughput every workload reports, in that
workload's own unit of work: cells for tunneling-sweep (``cells_per_s``),
simulated time for anharmonic-order5 and wavefunction-oracle
(``sim_time_per_s``), validated table entries for bracket-oracle
(``entries_per_s``).
"""

from __future__ import annotations

# Time of one worker.calibrate loop on an uncontended vCPU of
# the 2-vCPU VM the bounds were set on (Python 3.11).  Times are reported
# at this reference speed: wall seconds x REFERENCE / measured calibration.
REFERENCE_CALIBRATION_S = 0.0045


def at_reference_speed(wall_s: float, calib_s: float) -> float:
    """Wall seconds scaled to the reference CPU speed."""
    return wall_s * REFERENCE_CALIBRATION_S / calib_s


# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]

_SETUP_ELSEWHERE = "setup_s on anharmonic-order5, wavefunction-oracle, bracket-oracle"

# name, unit, better, what it should move
PER_LAYER = [
    ("moment_algebra.build_bracket_table.calls", "count", "lower",
     "setup_s on anharmonic-order5; work_per_s on bracket-oracle; about 0 s on tunneling-sweep"),
    ("moment_algebra.build_bracket_table.s", "s", "lower",
     "setup_s on anharmonic-order5; work_per_s on bracket-oracle; about 0 s on tunneling-sweep"),
    ("moment_algebra.build_bracket_table.self_s", "s", "lower",
     "work_per_s on bracket-oracle (closed form and exact arithmetic outside the oracle)"),
    ("moment_algebra.table_entries", "count", "lower",
     "setup_s on anharmonic-order5; work_per_s on bracket-oracle"),
    ("moment_algebra.oracle_validated_frac", "ratio", "higher",
     "setup_s on anharmonic-order5; stays 1 on bracket-oracle"),
    ("weyl_algebra.bracket_oracle.calls", "count", "lower",
     "work_per_s on bracket-oracle; setup_s on anharmonic-order5"),
    ("weyl_algebra.bracket_oracle.s", "s", "lower",
     "work_per_s on bracket-oracle; setup_s on anharmonic-order5"),
    ("effective_hamiltonian.equations_of_motion.calls", "count", "lower",
     "work_per_s on tunneling-sweep (one per cell); " + _SETUP_ELSEWHERE),
    ("effective_hamiltonian.equations_of_motion.s", "s", "lower",
     "work_per_s on tunneling-sweep; " + _SETUP_ELSEWHERE),
    ("effective_hamiltonian.codegen.calls", "count", "lower",
     "work_per_s on tunneling-sweep (two per cell); " + _SETUP_ELSEWHERE),
    ("effective_hamiltonian.codegen.s", "s", "lower",
     "work_per_s on tunneling-sweep; " + _SETUP_ELSEWHERE),
    ("effective_hamiltonian.rhs.calls", "count", "lower",
     "work_per_s on anharmonic-order5 and tunneling-sweep"),
    ("effective_hamiltonian.rhs.us_per_call", "us", "lower",
     "work_per_s on anharmonic-order5 and tunneling-sweep"),
    ("effective_hamiltonian.potential_value.calls", "count", "lower",
     "work_per_s on wavefunction-oracle"),
    ("dynamics.integrate.calls", "count", "lower",
     "work_per_s on tunneling-sweep"),
    ("dynamics.integrate.self_s", "s", "lower",
     "work_per_s on tunneling-sweep (stepping outside rhs and monitors)"),
    ("dynamics.nfev", "count", "lower",
     "work_per_s on tunneling-sweep"),
    ("dynamics.monitor.calls", "count", "lower",
     "work_per_s on anharmonic-order5"),
    ("dynamics.monitor.s", "s", "lower",
     "work_per_s on anharmonic-order5"),
    ("dynamics.write_csv.s", "s", "lower",
     "work_per_s on anharmonic-order5"),
    ("dynamics.write_csv.bytes", "B", "lower",
     "work_per_s on anharmonic-order5"),
    ("schrodinger.evolve.calls", "count", "lower",
     "work_per_s on wavefunction-oracle"),
    ("schrodinger.cn_steps", "count", "lower",
     "work_per_s on wavefunction-oracle"),
    ("schrodinger.cn_step_us", "us", "lower",
     "work_per_s on wavefunction-oracle (evolve self time / steps)"),
    ("schrodinger.cn_bytes_per_step", "B_computed", "lower",
     "work_per_s on wavefunction-oracle (computed from array sizes, not measured)"),
    ("schrodinger.energy_expectation.calls", "count", "lower",
     "work_per_s on wavefunction-oracle"),
    ("schrodinger.energy_expectation.s", "s", "lower",
     "work_per_s on wavefunction-oracle"),
    ("schrodinger.moments_from_wavefunction.calls", "count", "lower",
     "work_per_s on wavefunction-oracle"),
    ("schrodinger.moments_from_wavefunction.s", "s", "lower",
     "work_per_s on wavefunction-oracle"),
    ("adiabatic.s0_of_q.calls", "count", "lower",
     "work_per_s on tunneling-sweep (one equilibrium per cell)"),
    ("scenarios.self_s", "s", "lower", "work_per_s on every workload"),
    ("scenarios.artifact_bytes", "B", "lower", "work_per_s on every workload"),
    ("scenarios.write_s", "s", "lower", "work_per_s on every workload"),
    ("cli.import_s", "s", "lower", "setup_s on every workload (its import share)"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall of the same calls"),
    ("trace.overhead_frac", "ratio", "lower", "none: trace.overhead_s over the untraced wall"),
]


def cn_bytes_per_step(n: int) -> int:
    """Bytes one Crank-Nicolson step touches at ``n`` grid points, computed.

    Counts each complex128 operand read or written once per array
    operation in ``schrodinger.evolve``'s step loop: ``b_main * psi``
    (3n), the two shifted off-diagonal updates, each a product and an
    in-place add (2 x 6(n - 1)), and the tridiagonal solve reading three
    bands and the right-hand side and writing the solution (5n).  Copies
    made inside ``solve_banded`` and cache effects are not counted.
    """
    return 16 * (3 * n + 12 * (n - 1) + 5 * n) if n else 0


_INTEGER_UNITS = ("count", "B", "B_computed")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t: dict, import_s: float, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metric values from summed tracer totals.

    Most metrics are tracer totals under the same name; the rest are
    derived here.  A layer that did not run reads 0.
    """
    values = {name: t.get(name, 0.0) for name, _, _, _ in PER_LAYER}
    steps = values["schrodinger.cn_steps"]
    values.update({
        "moment_algebra.oracle_validated_frac": _ratio(
            t.get("moment_algebra.validated_entries", 0.0), values["moment_algebra.table_entries"]
        ),
        "effective_hamiltonian.rhs.us_per_call": 1e6 * _ratio(
            t.get("effective_hamiltonian.rhs.s", 0.0), values["effective_hamiltonian.rhs.calls"]
        ),
        "schrodinger.cn_step_us": 1e6 * _ratio(t.get("schrodinger.evolve.self_s", 0.0), steps),
        "schrodinger.cn_bytes_per_step": cn_bytes_per_step(int(t.get("schrodinger.grid_points", 0))),
        "cli.import_s": import_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_frac": _ratio(traced_s - untraced_s, untraced_s),
    })
    return {
        name: {"value": int(values[name]) if unit in _INTEGER_UNITS else values[name], "unit": unit}
        for name, unit, _, _ in PER_LAYER
    }
