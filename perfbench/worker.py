"""Run qmoments CLI calls in this (fresh) interpreter and report timings.

Usage: python3 worker.py SPEC.json

SPEC is a JSON object with the keys
  src        directory that holds the ``qmoments`` package
  commands   list of {"argv", "artifact"}: one operation
  warmup, min_ops, max_ops, seconds
             run ``warmup`` operations, then repeat the operation at
             least ``min_ops`` times, stopping once ``seconds`` have
             passed since the warm-up or ``max_ops`` operations ran
  cpu        the one CPU this interpreter runs on
  trace      wrap the program's layers (see tracer.py) and write spans
  trace_out  where the spans go
  result     where this worker writes its JSON result

The result holds the time of ``import qmoments.cli``, one record per call
(exit code, wall seconds, CPU speed, artifact hashes and the parsed summary
used by the gates), the peak RSS of this process, library versions and,
when traced, the layer totals.

CPU speed: co-tenants on a shared machine change how fast a CPU runs for
seconds at a time.  ``calibrate`` times a fixed pure-Python loop on the
same pinned CPU before the import, after it and after every call; the
import's and each call's ``calib_s`` is the mean of the two calibrations
around it.  Calibration runs outside the timed intervals.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback


CALIBRATION_LOOP = 60_000


def calibrate() -> float:
    """Mean of three timings of a fixed pure-Python loop, in seconds."""
    start = time.perf_counter()
    for _ in range(3):
        acc = 0
        for i in range(CALIBRATION_LOOP):
            acc += i * i
    return (time.perf_counter() - start) / 3


def digest(path: str) -> dict:
    """sha256 of every artifact file plus the data the gates read."""
    if os.path.isdir(path):
        files = {name: os.path.join(path, name) for name in sorted(os.listdir(path))}
    elif os.path.exists(path):
        files = {os.path.basename(path): path}
    else:
        files = {}
    hashes, summary = {}, None
    for name, full in files.items():
        with open(full, "rb") as fh:
            data = fh.read()
        hashes[name] = hashlib.sha256(data).hexdigest()
        if name == "summary.json":
            summary = json.loads(data)
        elif not os.path.isdir(path):
            table = json.loads(data)
            entries = table.get("entries", [])
            summary = {
                "truncation_order": table.get("truncation_order"),
                "pairs": table.get("pairs"),
                "entries": len(entries),
                "validated": sum(1 for e in entries if e.get("validated") is True),
            }
    return {"hashes": hashes, "summary": summary}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    os.sched_setaffinity(0, {spec["cpu"]})

    before = calibrate()
    start = time.perf_counter()
    import qmoments.cli as cli

    import_s = time.perf_counter() - start
    calib = calibrate()
    import_calib_s = (before + calib) / 2
    package = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.dirname(package) != os.path.abspath(spec["src"]):
        print(f"qmoments imported from {package}, not from {spec['src']}", file=sys.stderr)
        return 2

    tracer = None
    run = cli.main
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.span("cli.main", cli.main)

    calls = []
    op = 0
    loop_start = time.perf_counter()
    while True:
        for index, cmd in enumerate(spec["commands"]):
            if tracer:
                tracer.run_id = len(calls)
            error = None
            t = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    rc = run(list(cmd["argv"]))
                except Exception:  # an escaped exception is a failed call, not a harness crash
                    rc, error = -1, traceback.format_exc(limit=4)
            wall = time.perf_counter() - t
            before, calib = calib, calibrate()
            record = {
                "op": op,
                "command": index,
                "argv": cmd["argv"],
                "rc": rc,
                "wall_s": wall,
                "calib_s": (before + calib) / 2,
            }
            record.update(digest(cmd["artifact"]))
            if error:
                record["error"] = error
            calls.append(record)
        op += 1
        if op == spec["warmup"]:
            loop_start = time.perf_counter()
        measured = op - spec["warmup"]
        elapsed = time.perf_counter() - loop_start
        if op >= spec["max_ops"] or (measured >= spec["min_ops"] and elapsed >= spec["seconds"]):
            break

    import numpy
    import scipy

    result = {
        "import_s": import_s,
        "import_calib_s": import_calib_s,
        "calls": calls,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "trace": None,
    }
    if tracer:
        tracer.write_spans(spec["trace_out"])
        result["trace"] = tracer.totals
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
