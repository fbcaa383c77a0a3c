"""Benchmark workloads: CLI configs from a seed, probe inputs and output gates.

Every workload drives the program only through ``qmoments.cli.main``.  A
workload *operation* is one full-size CLI call (for bracket-oracle, the two
``brackets`` calls, each in a fresh interpreter).  The *probe* is the same
config cut to the least work; ``setup_s`` times a fresh interpreter from
``import qmoments.cli`` through one probe call.

Seed 0 (the default) gives the unshifted configs.  Any other seed shifts
the sweep grid's ranges and the anharmonic ``(q0, p0)`` by at most
``SEED_SHIFT``, so a claim can be checked on a seed it was not tuned on.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from math import comb

SEED_SHIFT = 0.02

# Acceptance criterion 07's grid ranges, subsampled to 4 x 4 cells (8 bypassed,
# 8 trapped).  One sweep then takes under a second, short enough for the CPU
# speed calibration around it to track the machine, and a run holds many.
SWEEP_Q0 = (0.05, 0.6)
SWEEP_ENERGY = (0.6, 1.8)
SWEEP_COUNT = 4

# Energy drift of the anharmonic run; the Casimir check of the harmonic
# scenario does not apply to a quartic V, and the trajectory is known to
# leave the admissible state space (margin_min < 0), which is reported only.
ANHARMONIC_DRIFT_GATE = 1e-8

# The default oracle-diff config (q0 = p0 = 0) fails its own check at this
# commit: the q and p deviations are taken relative to a signal that is
# identically zero.  q0 = 0.5 keeps the same grid, step and span, so the
# Crank-Nicolson cost is unchanged, and the check is meaningful.
ORACLE_Q0 = 0.5


@dataclass
class Command:
    """One ``qmoments.cli.main`` call and the file or directory it writes."""

    argv: list
    artifact: str

    def to_json(self) -> dict:
        return {"argv": self.argv, "artifact": self.artifact}


@dataclass
class Workload:
    name: str
    work_metric: str            # issue name of this workload's throughput
    work_unit: str              # what one unit of work is
    work_per_op: float
    commands: list              # one full-size operation
    probe: list                 # least-work input for setup_s
    fresh_per_command: bool     # every command in its own interpreter
    config: dict = field(default_factory=dict)

    def gate(self, call: dict, probe: bool = False) -> tuple:
        """(passed, cells attempted, cells failed) for one recorded call."""
        return GATES[self.name](call, probe)

    def outputs(self, call: dict) -> dict:
        """Output figures reported with every result, gated or not."""
        summary = call.get("summary") or {}
        out = {}
        for path in REPORTED[self.name]:
            value = summary
            for key in path:
                value = (value or {}).get(key)
            out[".".join(path)] = value
        return out


def _shifts(seed: int, n: int) -> list:
    if seed == 0:
        return [0.0] * n
    rng = random.Random(seed)
    return [rng.uniform(-SEED_SHIFT, SEED_SHIFT) for _ in range(n)]


def _write_config(path: str, cfg: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
    return path


def config_command(verb: str, out: str, cfg: dict) -> Command:
    """``qmoments VERB --config OUT.json --out-dir OUT`` with ``cfg`` written."""
    return Command([verb, "--config", _write_config(out + ".json", cfg), "--out-dir", out], out)


def table_entries(order: int, pairs: int) -> int:
    """n(n-1)/2 for the n moment indices of orders 2..order on ``pairs`` pairs."""
    n = sum(comb(k + 2 * pairs - 1, 2 * pairs - 1) for k in range(2, order + 1))
    return n * (n - 1) // 2


def _sweep(seed, run_dir):
    dq, de = _shifts(seed, 2)
    q_lo, q_hi = SWEEP_Q0[0] + dq, SWEEP_Q0[1] + dq
    e_lo, e_hi = SWEEP_ENERGY[0] + de, SWEEP_ENERGY[1] + de
    base = {"scenario": "cubic-tunneling", "t_span": [0.0, 40.0], "rtol": 1e-8, "atol": 1e-11}
    full = dict(base, sweep={
        "q0": {"min": q_lo, "max": q_hi, "count": SWEEP_COUNT},
        "energy": {"min": e_lo, "max": e_hi, "count": SWEEP_COUNT},
    })
    probe = dict(base, sweep={"q0": [q_lo], "energy": [e_lo]})
    return Workload(
        name="tunneling-sweep",
        work_metric="cells_per_s",
        work_unit="cell",
        work_per_op=SWEEP_COUNT * SWEEP_COUNT,
        commands=[config_command("sweep", os.path.join(run_dir, "op"), full)],
        probe=[config_command("sweep", os.path.join(run_dir, "probe"), probe)],
        fresh_per_command=False,
        config=full,
    )


def _anharmonic(seed, run_dir):
    dq, dp = _shifts(seed, 2)
    full = {
        "scenario": "harmonic",
        "potential": [0, 0, 0.5, 0, 0.05],
        "q0": 0.17 + dq,
        "p0": 0.5 + dp,
        "sigma": 0.7,
        "order": 5,
        "t_span": [0.0, 20.0],
    }
    # one sample interval of the full run's default 201 samples
    probe = dict(full, t_span=[0.0, 0.1], samples=2)
    return Workload(
        name="anharmonic-order5",
        work_metric="sim_time_per_s",
        work_unit="simulated time unit",
        work_per_op=full["t_span"][1] - full["t_span"][0],
        commands=[config_command("simulate", os.path.join(run_dir, "op"), full)],
        probe=[config_command("simulate", os.path.join(run_dir, "probe"), probe)],
        fresh_per_command=False,
        config=full,
    )


def _oracle(seed, run_dir):
    full = {"scenario": "oracle-diff", "q0": ORACLE_Q0}
    # one oracle sample interval of the default 21 samples over [0, 2]
    probe = dict(full, t_span=[0.0, 0.1], samples=2)
    return Workload(
        name="wavefunction-oracle",
        work_metric="sim_time_per_s",
        work_unit="simulated time unit",
        work_per_op=2.0,
        commands=[config_command("simulate", os.path.join(run_dir, "op"), full)],
        probe=[config_command("simulate", os.path.join(run_dir, "probe"), probe)],
        fresh_per_command=False,
        config=full,
    )


def _brackets(seed, run_dir):
    tables = [(5, 1), (3, 2)]
    commands = []
    for order, pairs in tables:
        out = os.path.join(run_dir, f"brackets-{order}-{pairs}.json")
        commands.append(Command(["brackets", "--order", str(order), "--pairs", str(pairs), "--out", out], out))
    pout = os.path.join(run_dir, "probe-brackets-2-1.json")
    return Workload(
        name="bracket-oracle",
        work_metric="entries_per_s",
        work_unit="validated table entry",
        work_per_op=sum(table_entries(o, p) for o, p in tables),
        commands=commands,
        probe=[Command(["brackets", "--order", "2", "--out", pout], pout)],
        fresh_per_command=True,
        config={"tables": [{"order": o, "pairs": p} for o, p in tables]},
    )


BUILDERS = {
    "tunneling-sweep": _sweep,
    "anharmonic-order5": _anharmonic,
    "wavefunction-oracle": _oracle,
    "bracket-oracle": _brackets,
}
NAMES = tuple(BUILDERS)


def build(name: str, seed: int, run_dir: str) -> Workload:
    """Write the workload's configs under ``run_dir`` and describe its calls."""
    os.makedirs(run_dir, exist_ok=True)
    return BUILDERS[name](seed, run_dir)


# ---------------------------------------------------------------------------
# Gates.  A call record holds the exit code ``rc`` and ``summary``: the parsed
# summary.json of an output directory, or entry counts of a brackets file.
# ---------------------------------------------------------------------------


def _gate_sweep(call, probe):
    counts = (call.get("summary") or {}).get("classification_counts")
    if not counts:
        return False, 0, 0
    cells = sum(counts.values())
    if probe:
        # a one-cell sweep cannot have both classes, so the CLI exits 1
        ok = call["rc"] in (0, 1) and counts["error"] == 0 and cells == 1
    else:
        ok = (
            call["rc"] == 0
            and counts["bypassed"] > 0
            and counts["trapped"] > 0
            and counts["error"] == 0
        )
    return ok, cells, counts["error"]


def _gate_anharmonic(call, probe):
    monitors = (call.get("summary") or {}).get("monitors") or {}
    drift = monitors.get("energy_drift")
    ok = call["rc"] in (0, 1) and drift is not None and drift <= ANHARMONIC_DRIFT_GATE
    return ok, 0, 0


def _gate_oracle(call, probe):
    checks = (call.get("summary") or {}).get("checks") or {}
    return call["rc"] == 0 and checks.get("passed") is True, 0, 0


def _gate_brackets(call, probe):
    s = call.get("summary") or {}
    if call["rc"] != 0 or "entries" not in s:
        return False, 0, 0
    argv = call["argv"]
    order = int(argv[argv.index("--order") + 1])
    pairs = int(argv[argv.index("--pairs") + 1]) if "--pairs" in argv else 1
    expected = table_entries(order, pairs)
    ok = (
        (s["truncation_order"], s["pairs"]) == (order, pairs)
        and s["entries"] == expected
        and s["validated"] == expected
    )
    return ok, 0, 0


# margin_min < 0 on anharmonic-order5 is the known inadmissible trajectory
REPORTED = {
    "tunneling-sweep": [("classification_counts",), ("max_energy_drift",)],
    "anharmonic-order5": [("monitors", "energy_drift"), ("monitors", "margin_min")],
    "wavefunction-oracle": [("checks", "max_rel_deviation"), ("checks", "threshold")],
    "bracket-oracle": [("entries",), ("validated",)],
}

GATES = {
    "tunneling-sweep": _gate_sweep,
    "anharmonic-order5": _gate_anharmonic,
    "wavefunction-oracle": _gate_oracle,
    "bracket-oracle": _gate_brackets,
}
