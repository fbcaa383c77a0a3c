"""qmoments benchmark: end-to-end and traced per-layer runs through the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all

Workloads: tunneling-sweep, anharmonic-order5, wavefunction-oracle,
bracket-oracle (see workloads.py for what each stresses and why).

Every call of the program runs in a child interpreter (worker.py), one at
a time, from the ``src`` tree next to this directory.  With ``--trace 0``
a run measures, for the workload:

* ``setup_s``: median over several fresh interpreters of the wall time
  from before ``import qmoments.cli`` through one call on the probe input;
* ``work_per_s``: median over warm operations, repeated for ``--seconds``,
  of the workload's work units per second (cells, simulated time or table
  entries); bracket-oracle runs each table in a fresh interpreter, so it
  is cold by design and timed after import;
* ``peak_rss_mb``: the largest peak RSS (MiB) of the interpreters that ran
  the timed operations.

With ``--trace 1`` it runs a fixed set of calls once traced and once not,
and reports the per-layer metrics of metrics.py plus the tracing overhead.

Every call is gated (exit code, the workload's output checks, and artifacts
byte-identical to the first call of the same command in this invocation);
``attempted`` counts calls plus sweep cells and ``failed`` those that miss
a gate or classify as ``error``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record (seed, configs, environment, every call) is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# every child runs on this one CPU, so that its speed calibration and its
# calls see the same core
CPU = min(os.sched_getaffinity(0))
TIME_LIMIT_S = 170.0
SETUP_REPEATS = 3
MIN_OPS = 3
# a traced in-process run is one cold and one warm operation, so that
# counts repeat exactly and one-time setup layers show
TRACE_OPS = 2


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Children:
    """Runs worker.py in child interpreters, one at a time, under a deadline."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0

    def run(self, commands, *, warmup=0, min_ops=1, max_ops=1, seconds=0.0, trace=False) -> dict:
        k = self.count
        self.count += 1
        spec = {
            "src": str(SRC),
            "cpu": CPU,
            "commands": [c.to_json() for c in commands],
            "warmup": warmup,
            "min_ops": min_ops,
            "max_ops": max_ops,
            "seconds": seconds,
            "trace": trace,
            "trace_out": str(self.run_dir / f"trace-{k}.json"),
            "result": str(self.run_dir / f"child-{k}.result.json"),
        }
        spec_path = self.run_dir / f"child-{k}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise HarnessError("time limit reached before all calls ran")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise HarnessError("time limit reached inside a child interpreter")
        if proc.returncode != 0:
            raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        with open(spec["result"], encoding="utf-8") as fh:
            return json.load(fh)


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def tag_calls(child: dict, phase: str, op_base: int = 0) -> list:
    """A child's call records, marked with ``phase`` and a global op index."""
    for call in child["calls"]:
        call["phase"] = phase
        call["op"] += op_base
    return child["calls"]


def _measure(wl, children: Children, seconds: float, phase: str) -> tuple:
    """Calls of the full-size operation: (calls, child results).

    ``measure`` repeats operations for ``seconds`` (after one warm-up when
    they run in one interpreter); ``traced`` and ``untraced`` make a fixed
    set of calls.
    """
    trace = phase == "traced"
    if not wl.fresh_per_command:
        if phase == "measure":
            child = children.run(wl.commands, warmup=1, min_ops=MIN_OPS, max_ops=10**6, seconds=seconds)
        else:
            child = children.run(wl.commands, min_ops=TRACE_OPS, max_ops=TRACE_OPS, trace=trace)
        calls = tag_calls(child, phase)
        if phase == "measure":
            for call in calls:
                if call["op"] == 0:
                    call["phase"] = "warmup"
        return calls, [child]
    calls, results = [], []
    start = time.monotonic()
    op = 0
    while op < 1 or (phase == "measure" and (op < MIN_OPS or time.monotonic() - start < seconds)):
        for cmd in wl.commands:
            child = children.run([cmd], trace=trace)
            calls += tag_calls(child, phase, op)
            results.append(child)
        op += 1
    return calls, results


def gate_calls(wl, calls: list) -> tuple:
    """Mark each call ``passed``; return (attempted, failed)."""
    first_hashes = {}
    attempted = failed = 0
    for call in calls:
        probe = call["phase"] == "setup"
        ok, cells, bad_cells = wl.gate(call, probe=probe)
        reference = first_hashes.setdefault(tuple(call["argv"]), call["hashes"])
        if call["hashes"] != reference:
            ok = False
            call["nondeterministic"] = True
        call["passed"] = ok
        attempted += 1 + cells
        failed += (not ok) + bad_cells
    return attempted, failed


def _op_seconds(calls: list, phase: str, corrected: bool = True) -> list:
    """Wall seconds per operation, at reference CPU speed if ``corrected``."""
    per_op = {}
    for call in calls:
        if call["phase"] == phase:
            s = metrics.at_reference_speed(call["wall_s"], call["calib_s"]) if corrected else call["wall_s"]
            per_op[call["op"]] = per_op.get(call["op"], 0.0) + s
    return list(per_op.values())


def _setup_seconds(child: dict, corrected: bool = True) -> float:
    """Import plus first call of a fresh interpreter."""
    first = child["calls"][0]
    if not corrected:
        return child["import_s"] + first["wall_s"]
    return metrics.at_reference_speed(
        child["import_s"], child["import_calib_s"]
    ) + metrics.at_reference_speed(first["wall_s"], first["calib_s"])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = OUT / name / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    wl = workloads.build(name, seed, str(run_dir))
    children = Children(run_dir, time.monotonic() + TIME_LIMIT_S)

    setups = [children.run(wl.probe) for _ in range(SETUP_REPEATS)]
    calls = [call for s in setups for call in tag_calls(s, "setup")]
    result = {}
    if trace:
        traced_calls, traced = _measure(wl, children, seconds, "traced")
        untraced_calls, _ = _measure(wl, children, seconds, "untraced")
        calls += traced_calls + untraced_calls
        totals = {}
        for child in traced:
            for key, value in child["trace"].items():
                totals[key] = totals.get(key, 0.0) + value
        result["metrics"] = metrics.layer_metrics(
            totals,
            import_s=statistics.median(
                metrics.at_reference_speed(s["import_s"], s["import_calib_s"]) for s in setups
            ),
            traced_s=sum(_op_seconds(traced_calls, "traced")),
            untraced_s=sum(_op_seconds(untraced_calls, "untraced")),
        )
    else:
        timed_calls, timed = _measure(wl, children, seconds, "measure")
        calls += timed_calls
        rates = [wl.work_per_op / s for s in _op_seconds(calls, "measure")]
        values = {
            "setup_s": statistics.median(_setup_seconds(s) for s in setups),
            "work_per_s": statistics.median(rates),
            "peak_rss_mb": max(c["maxrss_kb"] for c in timed) / 1024.0,
        }
        result["metrics"] = {
            name: {"value": values[name], "unit": unit} for name, unit, _, _ in metrics.END_TO_END
        }
        result["work_rates"] = rates
        result["uncorrected"] = {
            "setup_s": statistics.median(_setup_seconds(s, corrected=False) for s in setups),
            "work_per_s": statistics.median(
                wl.work_per_op / s for s in _op_seconds(calls, "measure", corrected=False)
            ),
            "cpu_speed": statistics.median(
                metrics.REFERENCE_CALIBRATION_S / c["calib_s"] for c in timed_calls
            ),
        }
    attempted, failed = gate_calls(wl, calls)
    result.update({
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "config": wl.config,
        "work": {"metric": wl.work_metric, "unit": wl.work_unit, "per_op": wl.work_per_op},
        "env": {
            **setups[0]["versions"],
            "nproc": os.cpu_count(),
            "commit": _git_commit(),
        },
        "outputs": wl.outputs(calls[-1]),
        "attempted": attempted,
        "failed": failed,
        "calls": calls,
    })
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result: dict) -> None:
    """Print the metrics by name, then the one-line JSON result."""
    name, work = result["workload"], result["work"]
    print(f"== {name} seed {result['seed']} trace {int(result['trace'])}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("config " + json.dumps(result["config"], sort_keys=True))
    m = result["metrics"]
    if not result["trace"]:
        for metric in ("cells_per_s", "sim_time_per_s", "entries_per_s"):
            if metric == work["metric"]:
                print(f"{metric:<44} {m['work_per_s']['value']:.6g} {work['unit']}/s"
                      f" (= work_per_s, median of {len(result['work_rates'])} operations)")
            else:
                print(f"{metric:<44} n/a on {name}")
    for key, entry in m.items():
        print(f"{key:<44} {entry['value']:.6g} {entry['unit']}")
    if "uncorrected" in result:
        print("uncorrected " + json.dumps(result["uncorrected"], sort_keys=True))
    print("outputs " + json.dumps(result["outputs"], sort_keys=True))
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'failed_frac':<44} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for call in result["calls"]:
        if not call["passed"]:
            print(f"FAILED {call['phase']} call {call['argv']}: rc {call['rc']}"
                  + (" (artifacts differ from the first call)" if call.get("nondeterministic") else ""))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": m,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qmoments" / "cli.py").is_file():
        print(f"no qmoments source tree at {SRC}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            report(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            sys.stdout.flush()
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
