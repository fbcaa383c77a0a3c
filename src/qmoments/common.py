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


# Writes a str as ``json.dumps`` does, with ASCII escapes.
_encode_str = json.encoder.encode_basestring_ascii

# The classes ``_write_json`` dispatches on exactly.
_JSON_CLASSES = frozenset((str, float, int, dict, list, tuple, bool, type(None)))


def _json_class(obj):
    """The class whose JSON form ``obj`` takes, by isinstance: how a subclass
    (``np.float64``, an ``OrderedDict``) is written.  ``object`` means
    ``json.dumps``, which writes a str subclass as a str and refuses the
    types JSON has no form for."""
    for cls in (dict, list, tuple, int, float):
        if isinstance(obj, cls):
            return cls
    return object


def _write_json(obj, newline, out, memo):
    """Append the text of ``obj`` to ``out``; ``newline`` is a line break
    followed by the indent of the line ``obj`` starts on.  ``memo`` keeps a
    tuple's text per indent by the tuple's identity, as ``(True,) == (1,)``
    but their texts differ, and holds the tuple so that no id is reused."""
    cls = obj.__class__
    if cls is str:
        out.append(_encode_str(obj))
        return
    if cls not in _JSON_CLASSES:
        cls = _json_class(obj)
    if cls is float:
        out.append(format_float(obj))
    elif cls is int:
        out.append(str(obj))
    elif cls is dict:
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in obj.items():
            out.append(sep)
            out.append(_encode_str(str(k)))
            out.append(": ")
            _write_json(v, inner, out, memo)
            sep = "," + inner
        out.append(newline + "}")
    elif cls is tuple:
        key = (id(obj), newline)
        hit = memo.get(key)
        if hit is None:
            part = []
            _write_array(obj, newline, part, memo)
            hit = memo[key] = ("".join(part), obj)
        out.append(hit[0])
    elif cls is list:
        _write_array(obj, newline, out, memo)
    elif obj is None:
        out.append("null")
    elif cls is bool:
        out.append("true" if obj else "false")
    else:
        out.append(json.dumps(obj))


def _write_array(obj, newline, out, memo):
    if not obj:
        out.append("[]")
        return
    inner = newline + "  "
    sep = "[" + inner
    for v in obj:
        out.append(sep)
        _write_json(v, inner, out, memo)
        sep = "," + inner
    out.append(newline + "]")


def dumps_json(obj) -> str:
    """``obj`` as JSON with two-space indents, the layout of
    ``json.dumps(obj, indent=2)``, in one pass.  A float takes 17
    significant digits, and a non-finite one is written null; a dict key
    is written as its ``str``; a tuple is written as a list, its text
    rendered once per indent however often the tuple object recurs."""
    out = []
    _write_json(obj, "\n", out, {})
    return "".join(out)


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(obj) + "\n")
