"""Fast self-test of the benchmark harness (about 15 s).

Usage (from the repository root): python3 perfbench/selftest.py

Checks that BENCHMARK.json agrees with metrics.py and workloads.py, that
every workload's probe input runs and passes its gate, that a forced gate
failure and a changed artifact are both counted in ``failed``, and that a
traced probe yields every per-layer metric.  Exits 1 if a check fails.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import metrics
import run
import workloads

failures = []


def check(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def check_benchmark_json() -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    check([w["name"] for w in doc["workloads"]] == list(workloads.NAMES), "BENCHMARK.json workloads")
    check(
        [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == metrics.END_TO_END,
        "BENCHMARK.json end_to_end matches metrics.END_TO_END",
    )
    check(
        [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
        == [row[:3] for row in metrics.PER_LAYER],
        "BENCHMARK.json per_layer matches metrics.PER_LAYER",
    )


def main() -> int:
    check_benchmark_json()
    base = run.OUT / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    children = run.Children(base, time.monotonic() + 150)

    for name in workloads.NAMES:
        wl = workloads.build(name, seed=1, run_dir=str(base / name))
        calls = run.tag_calls(children.run(wl.probe), "setup")
        calls += run.tag_calls(children.run(wl.probe), "setup")
        attempted, failed = run.gate_calls(wl, calls)
        check(failed == 0 and attempted >= 2, f"{name}: probe passes its gate twice, identical artifacts")

        # a changed artifact counts as a failed call
        calls[1]["hashes"] = {k: "0" * 64 for k in calls[1]["hashes"]}
        _, failed = run.gate_calls(wl, calls)
        check(failed == 1, f"{name}: changed artifact counted in failed")

    # forced gate failure through the program: a step budget the run exceeds
    wl = workloads.build("anharmonic-order5", seed=0, run_dir=str(base / "forced"))
    with open(wl.probe[0].argv[2], encoding="utf-8") as fh:
        cfg = json.load(fh)
    forced = workloads.config_command("simulate", str(base / "forced" / "starved"), dict(cfg, max_steps=10))
    calls = run.tag_calls(children.run(wl.probe), "setup") + run.tag_calls(children.run([forced]), "setup")
    attempted, failed = run.gate_calls(wl, calls)
    check(
        calls[1]["rc"] == 3 and failed == 1 and failed / attempted == 0.5,
        f"forced failure (rc {calls[1]['rc']}) gives failed_frac {failed / attempted:g}",
    )

    # traced probe: every per-layer metric, integer counts
    wl = workloads.build("tunneling-sweep", seed=0, run_dir=str(base / "traced"))
    traced = children.run(wl.probe, trace=True)
    layer = metrics.layer_metrics(traced["trace"], traced["import_s"], 1.0, 1.0)
    check(list(layer) == [row[0] for row in metrics.PER_LAYER], "traced probe reports every per-layer metric")
    check(
        layer["dynamics.integrate.calls"]["value"] == 1
        and layer["effective_hamiltonian.rhs.calls"]["value"] == layer["dynamics.nfev"]["value"] > 0,
        "traced probe counts one integration and one rhs call per evaluation",
    )

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
