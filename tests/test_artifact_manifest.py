"""Every default artifact's bytes and every command's exit code, checked
against the committed ``artifact_manifest.json``.

The runs: ``simulate`` on the defaults of every scenario, the benchmark's
anharmonic-order5 config and its 4x4 tunneling sweep, ``oracle`` on both
of its scenarios (at their defaults and on a short grid), ``brackets`` at
orders 2..7 on one pair and at orders 2..4 on two, and ``transform`` of the
free trajectory to the Darboux chart and to the plane.  The bytes depend on
Python, numpy, scipy and libm, so the manifest records the versions it was
made with, and on other versions the test fails naming both.

Run as a script, the module prints a fresh manifest:

    PYTHONPATH=src python tests/test_artifact_manifest.py > tests/artifact_manifest.json

A change that moves bytes on purpose commits the new manifest, and its
diff names every artifact that moved.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import platform
import sys
import tempfile

import numpy
import pytest
import scipy

from qmoments.cli import main

MANIFEST = pathlib.Path(__file__).with_name("artifact_manifest.json")

SCENARIOS = ("free", "harmonic", "cubic-tunneling", "two-dof-limit", "adiabatic-compare", "brackets-dump", "oracle-diff")
# the benchmark's anharmonic-order5 and tunneling-sweep configs at seed 0
ANHARMONIC = {
    "scenario": "harmonic", "potential": [0, 0, 0.5, 0, 0.05], "q0": 0.17, "p0": 0.5, "sigma": 0.7, "order": 5,
    "t_span": [0.0, 20.0],
}
SWEEP = {
    "scenario": "cubic-tunneling", "t_span": [0.0, 40.0], "rtol": 1e-8, "atol": 1e-11,
    "sweep": {"q0": {"min": 0.05, "max": 0.6, "count": 4}, "energy": {"min": 0.6, "max": 1.8, "count": 4}},
}
# an oracle run of a few milliseconds
SHORT_ORACLE = {"grid_points": 512, "dt": 4e-3, "t_span": [0.0, 0.4], "samples": 5}
TABLES = [(order, 1) for order in range(2, 8)] + [(order, 2) for order in range(2, 5)]


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}


def commands(root: pathlib.Path) -> list:
    """(name, argv) of every run, in order: configs go to ``root/config`` and
    artifacts to ``root/out``, a directory or ``.json``/``.csv`` per run."""
    config, out = root / "config", root / "out"
    config.mkdir()

    def configured(verb, name, payload):
        path = config / f"{name}.json"
        path.write_text(json.dumps(payload))
        return name, [verb, "--config", str(path), "--out-dir", str(out / name)]

    runs = [configured("simulate", name, {"scenario": name}) for name in SCENARIOS]
    runs += [configured("simulate", "anharmonic-order5", ANHARMONIC), configured("sweep", "sweep-4x4", SWEEP)]
    short = config / "oracle-short.json"
    short.write_text(json.dumps(SHORT_ORACLE))
    for name in ("free", "harmonic"):
        runs.append((f"oracle-{name}", ["oracle", "--scenario", name, "--out-dir", str(out / f"oracle-{name}")]))
        runs.append((
            f"oracle-{name}-short",
            ["oracle", "--scenario", name, "--config", str(short), "--out-dir", str(out / f"oracle-{name}-short")],
        ))
    for order, pairs in TABLES:
        name = f"brackets-{order}-{pairs}"
        runs.append((name, ["brackets", "--order", str(order), "--pairs", str(pairs), "--out", str(out / f"{name}.json")]))
    for chart in ("darboux", "plane"):
        name = f"transform-{chart}"
        trajectory = str(out / "free" / "trajectory.csv")
        runs.append((name, ["transform", "--to", chart, "--input", trajectory, "--output", str(out / f"{name}.csv")]))
    return runs


def make_manifest(root: pathlib.Path) -> dict:
    """Run every command under ``root``: the versions, each command's exit
    code and the sha256 of each artifact, by its path under ``root/out``."""
    out = root / "out"
    out.mkdir()
    exit_codes = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for name, argv in commands(root):
            exit_codes[name] = main(argv)
    artifacts = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
    return {"versions": versions(), "exit_codes": exit_codes, "artifacts": artifacts}


def test_artifacts_match_the_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text())
    if expected["versions"] != versions():
        pytest.fail(
            f"the manifest was made with {expected['versions']} and this run has {versions()}: "
            "its bytes are not comparable; regenerate it on the manifest's versions to check a change"
        )
    actual = make_manifest(tmp_path)
    assert actual["exit_codes"] == expected["exit_codes"]
    paths = expected["artifacts"].keys() | actual["artifacts"].keys()
    moved = sorted(p for p in paths if expected["artifacts"].get(p) != actual["artifacts"].get(p))
    assert not moved, f"artifacts whose bytes differ from the manifest: {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write(json.dumps(make_manifest(pathlib.Path(tmp)), indent=1) + "\n")
