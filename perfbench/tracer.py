"""Spans and counts at the program's layer boundaries, from outside the program.

``Tracer.install`` rebinds the layers' public functions at the name each
caller looks up (``scenarios.integrate``, ``moment_algebra.bracket_oracle``,
``MomentVectorField.compiled`` ...), so no file of the program changes.

* A *span* records (name, start, end, parent, run id) and adds to the
  totals ``<name>.calls``, ``<name>.s`` and ``<name>.self_s``; self time is
  the span minus the time of its child spans and timed leaves.
* A *leaf* wraps a hot function (the generated RHS, the energy monitor,
  file writes): it adds to ``<name>.calls`` and ``<name>.s`` and to its
  parent's child time, but records no span.  A *counter* only counts.

Spans and totals stay in memory; ``write_spans`` writes them at the end.
"""

from __future__ import annotations

import builtins
import functools
import json
import os
from collections import defaultdict
from time import perf_counter

_WRITE_MODES = set("wax")


class Tracer:
    def __init__(self):
        self.spans = []
        self.totals = defaultdict(float)
        self.run_id = 0
        # open spans as [span index, child seconds]
        self._stack = []

    # -- recording -----------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, args)`` adds counts."""
        totals, stack, spans = self.totals, self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                spans[frame[0]] = (name, start, end, parent, self.run_id)
                totals[name + ".calls"] += 1
                totals[name + ".s"] += duration
                totals[name + ".self_s"] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def leaf(self, name, fn):
        """Count and time calls of a hot function without recording spans."""
        totals, stack = self.totals, self._stack
        calls, seconds = name + ".calls", name + ".s"

        def wrapper(*args):
            start = perf_counter()
            out = fn(*args)
            duration = perf_counter() - start
            totals[calls] += 1
            totals[seconds] += duration
            if stack:
                stack[-1][1] += duration
            return out

        return wrapper

    def counter(self, name, fn):
        """Count calls only."""
        totals, calls = self.totals, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            totals[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def open(self, file, mode="r", *args, **kwargs):
        """``open`` that times write-mode files from open to close."""
        fh = builtins.open(file, mode, *args, **kwargs)
        if _WRITE_MODES.isdisjoint(mode):
            return fh
        return _TimedFile(self, fh, file)

    def _add_write(self, duration, path):
        self.totals["scenarios.write_s"] += duration
        self.totals["scenarios.artifact_bytes"] += os.path.getsize(path)
        if self._stack:
            self._stack[-1][1] += duration

    # -- output --------------------------------------------------------------

    def write_spans(self, path):
        with builtins.open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "run_id"],
                    "spans": self.spans,
                    "totals": self.totals,
                },
                fh,
            )

    # -- the program's layers ------------------------------------------------

    def install(self):
        from qmoments import cli, dynamics, moment_algebra, scenarios, schrodinger
        from qmoments.effective_hamiltonian import MomentVectorField, PolynomialPotential

        add = self.totals

        # moment_algebra: the cached table builder, called by scenarios and
        # by the brackets command (which imports it at call time)
        build = moment_algebra.build_bracket_table

        def build_counted(*args, **kwargs):
            misses = build.cache_info().misses
            table = build(*args, **kwargs)
            if build.cache_info().misses > misses:
                add["moment_algebra.table_entries"] += len(table.entries)
                add["moment_algebra.validated_entries"] += sum(table.validated.values())
            return table

        traced_build = self.span("moment_algebra.build_bracket_table", build_counted)
        moment_algebra.build_bracket_table = traced_build
        scenarios.build_bracket_table = traced_build

        # weyl_algebra: the oracle, as moment_algebra calls it
        moment_algebra.bracket_oracle = self.span(
            "weyl_algebra.bracket_oracle", moment_algebra.bracket_oracle
        )

        # effective_hamiltonian: EOM generation, codegen and the generated code
        scenarios.equations_of_motion = self.span(
            "effective_hamiltonian.equations_of_motion", scenarios.equations_of_motion
        )
        compiled, energy_function = MomentVectorField.compiled, MomentVectorField.energy_function

        def compiled_rhs(field, hbar):
            return self.leaf("effective_hamiltonian.rhs", compiled(field, hbar))

        def energy_monitor(field, hbar):
            return self.leaf("dynamics.monitor", energy_function(field, hbar))

        MomentVectorField.compiled = self.span("effective_hamiltonian.codegen", compiled_rhs)
        MomentVectorField.energy_function = self.span("effective_hamiltonian.codegen", energy_monitor)
        PolynomialPotential.value = self.counter(
            "effective_hamiltonian.potential_value", PolynomialPotential.value
        )

        # dynamics: integration and CSV writing
        def nfev(traj, args):
            add["dynamics.nfev"] += traj.info.get("nfev", 0)

        scenarios.integrate = self.span("dynamics.integrate", scenarios.integrate, after=nfev)

        def csv_bytes(_, args):
            add["dynamics.write_csv.bytes"] += os.path.getsize(args[1])

        dynamics.Trajectory.write_csv = self.span(
            "dynamics.write_csv", dynamics.Trajectory.write_csv, after=csv_bytes
        )

        # schrodinger: Crank-Nicolson steps and moment extraction
        evolve = scenarios.evolve

        def evolve_steps(potential, psi0, dt, steps, *args, **kwargs):
            add["schrodinger.cn_steps"] += steps
            add["schrodinger.grid_points"] = psi0.values.size
            return evolve(potential, psi0, dt, steps, *args, **kwargs)

        scenarios.evolve = self.span("schrodinger.evolve", evolve_steps)
        energy = self.span("schrodinger.energy_expectation", schrodinger.energy_expectation)
        scenarios.energy_expectation = schrodinger.energy_expectation = energy
        scenarios.moments_from_wavefunction = self.span(
            "schrodinger.moments_from_wavefunction", scenarios.moments_from_wavefunction
        )

        # adiabatic: the per-cell equilibrium of the sweep
        scenarios.s0_of_q = self.counter("adiabatic.s0_of_q", scenarios.s0_of_q)

        # scenarios: every name the CLI imports from it, and artifact writes
        for name in (
            "resolve_config",
            "run_scenario",
            "run_sweep",
            "run_oracle",
            "transform_trajectory",
            "dumps_json",
            "write_json",
        ):
            setattr(cli, name, self.span("scenarios", getattr(cli, name)))
        for module in (cli, scenarios, dynamics):
            module.open = self.open


class _TimedFile:
    """Write-mode file whose lifetime is counted as artifact writing."""

    def __init__(self, tracer, fh, path):
        self._tracer, self._fh, self._path = tracer, fh, path
        self._start = perf_counter()

    def write(self, data):
        return self._fh.write(data)

    def close(self):
        if not self._fh.closed:
            self._fh.close()
            self._tracer._add_write(perf_counter() - self._start, self._path)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)
