"""What the command line shares with the layers it runs, without numpy.

The two error types the command line maps to exit codes, the names of the
``oracle`` command's scenarios, and the JSON writer of every artifact and
of stdout: floats with 17 significant digits and no timestamps, so
identical configs produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import math


# The ``oracle --scenario`` choices, the keys of ``scenarios.ORACLE_DEFAULTS``:
# the command line offers them without importing ``scenarios``.
ORACLE_SCENARIOS = ("free", "harmonic")


class ConfigError(ValueError):
    """A refused configuration or argument; the command exits 2."""


class IntegrationError(RuntimeError):
    """Integration failed; carries the last good time in .last_time."""

    def __init__(self, message, last_time=None):
        super().__init__(message)
        self.last_time = last_time


def is_int(x) -> bool:
    """An int that is not a bool (JSON true/false load as bool)."""
    return isinstance(x, int) and not isinstance(x, bool)


def format_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return f"{x:.17g}"


def dumps_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            items.append(f'{pad}  {json.dumps(str(k))}: {dumps_json(v, indent + 1)}')
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {dumps_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    return json.dumps(obj)


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(obj) + "\n")
