"""Every default artifact's bytes and every command's exit code, checked
against the committed ``artifact_manifest.json``.

The runs: ``simulate`` on the defaults of every scenario and on variants
(``cubic-tunneling`` at order 4, ``harmonic`` in classical mode with
``casimir 0``, ``free`` with ``ps0 0.3`` at order 4, ``oracle-diff`` at
``q0 0.5``, ``brackets-dump`` on two pairs at order 3, a quartic at
``hbar 0.5``, the default cubic mirrored through the origin), the
benchmark's anharmonic-order5 config, sweeps over criterion 07's ranges
(the benchmark's 4x4 on floats and its mirror image, 8x8 at order 2 and
6x6 at order 4 on row arrays) and two sweeps of error cells, the
``adiabatic-compare`` command, ``oracle`` on both of its scenarios (at
their defaults and on a short grid), ``brackets`` at orders 2..7 on one
pair and at orders 2..4 on two, and ``transform`` of the free trajectory
to the Darboux chart and to the plane, and of that Darboux chart back to
the moments.  The bytes depend on Python, numpy, scipy and libm, so the
manifest records the versions it was made with, and on other versions the
test fails naming both.

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
import re
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


def grid(count: int, order: int) -> dict:
    """A sweep of count x count cells over criterion 07's ranges: more
    than 32 cells run on row arrays, not on floats."""
    ranges = {"q0": {"min": 0.05, "max": 0.6, "count": count}, "energy": {"min": 0.6, "max": 1.8, "count": count}}
    return {**SWEEP, "order": order, "sweep": ranges}


# scenario variants, each a config of ``simulate``
VARIANTS = {
    "cubic-tunneling-order4": {"scenario": "cubic-tunneling", "order": 4},
    "harmonic-classical": {"scenario": "harmonic", "classical_mode": True, "casimir": 0},
    "free-ps0-order4": {"scenario": "free", "ps0": 0.3, "order": 4},
    "oracle-diff-q0": {"scenario": "oracle-diff", "q0": 0.5},
    "brackets-dump-3-2": {"scenario": "brackets-dump", "table_order": 3, "pairs": 2},
    "quartic-hbar-0.5": {**ANHARMONIC, "hbar": 0.5, "order": 4, "t_span": [0.0, 5.0]},
    # the default cubic mirrored through the origin, its barrier at q = -10/3
    "cubic-tunneling-mirrored": {"scenario": "cubic-tunneling", "potential": [0, 0, 0.5, 0.1], "q0": -0.17},
}
SWEEPS = {
    "sweep-4x4": SWEEP,
    "sweep-4x4-mirrored": {
        **SWEEP, "potential": [0, 0, 0.5, 0.1],
        "sweep": {"q0": {"min": -0.6, "max": -0.05, "count": 4}, "energy": SWEEP["sweep"]["energy"]},
    },
    "sweep-8x8-order2": grid(8, 2),
    "sweep-6x6-order4": grid(6, 4),
    # cells below the rest energy, also where it overflows far out on the cubic
    "sweep-error-cells": {
        "scenario": "cubic-tunneling", "t_span": [0.0, 20.0],
        "sweep": {"q0": [0.2, -1e103, -1e200], "energy": [0.1, 1.0]},
    },
    # cells below the rest energy and past the well, where V'' < 0
    "sweep-no-equilibrium": {"scenario": "cubic-tunneling", "sweep": {"q0": [0.1, 5.0], "energy": [0.0, 1.2]}},
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
    runs += [configured("simulate", name, payload) for name, payload in VARIANTS.items()]
    runs.append(configured("simulate", "anharmonic-order5", ANHARMONIC))
    runs += [configured("sweep", name, payload) for name, payload in SWEEPS.items()]
    runs.append(("adiabatic-compare-command", ["adiabatic-compare", "--out-dir", str(out / "adiabatic-compare-command")]))
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
    darboux = str(out / "transform-darboux.csv")
    runs.append(("transform-moments", ["transform", "--to", "moments", "--input", darboux, "--output", str(out / "transform-moments.csv")]))
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


def test_the_ci_workflow_installs_the_manifests_versions():
    """CI checks the artifacts against the manifest, which fails on any
    other versions, so the workflow pins the manifest's: a regenerated
    manifest must take the workflow along."""
    workflow = (MANIFEST.parents[1] / ".github" / "workflows" / "tier1.yml").read_text()
    pinned = dict(re.findall(r"\b(numpy|scipy)==(\S+)", workflow))
    pinned["python"] = re.search(r'python-version: "([^"]+)"', workflow).group(1)
    assert pinned == json.loads(MANIFEST.read_text())["versions"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write(json.dumps(make_manifest(pathlib.Path(tmp)), indent=1) + "\n")
