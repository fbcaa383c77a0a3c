"""Command-line entry point.

Exit codes: 0 success, 1 scenario check failure, 2 configuration error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .common import ORACLE_SCENARIOS, ConfigError, IntegrationError, dumps_json, write_json
from .moment_algebra import table_bound

# The names ``main`` calls from ``scenarios``, which imports numpy and every
# numeric layer.  Each is bound into this module's globals at its first use,
# by the commands that run a scenario or by attribute access from outside
# (``cli.run_sweep``); a name already bound, by a caller that replaced it,
# keeps its binding.
_SCENARIO_NAMES = ("resolve_config", "run_scenario", "run_sweep", "run_oracle", "transform_trajectory")


def _bind_scenarios():
    from . import scenarios

    for name in _SCENARIO_NAMES:
        globals().setdefault(name, getattr(scenarios, name))


def __getattr__(name):
    if name in _SCENARIO_NAMES:
        _bind_scenarios()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The commands whose config ``main`` resolves, and the scenario each forces
# (None: the config's own); ``oracle`` resolves its own in ``run_oracle``.
_CONFIG_COMMANDS = {"simulate": None, "sweep": "cubic-tunneling-sweep", "adiabatic-compare": "adiabatic-compare"}


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, and every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="qmoments",
        description="Quasiclassical quantum dynamics via Weyl-ordered central moments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario from a JSON config")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out-dir", default=None)

    swp = sub.add_parser("sweep", help="run a classification sweep")
    swp.add_argument("--config", required=True)
    swp.add_argument("--out-dir", default=None)

    brk = sub.add_parser("brackets", help="dump a validated bracket table as JSON")
    brk.add_argument("--order", type=int, required=True)
    brk.add_argument("--pairs", type=int, default=1)
    brk.add_argument("--out", default=None, help="output path (default: stdout)")

    orc = sub.add_parser("oracle", help="run a wavefunction-oracle scenario")
    orc.add_argument("--scenario", required=True, choices=ORACLE_SCENARIOS)
    orc.add_argument("--config", default=None)
    orc.add_argument("--out-dir", default=".")

    trf = sub.add_parser("transform", help="convert trajectory CSV between charts")
    trf.add_argument("--to", required=True, choices=["darboux", "plane", "moments"])
    trf.add_argument("--input", required=True)
    trf.add_argument("--output", required=True)
    trf.add_argument("--mass", type=float, default=1.0)

    adb = sub.add_parser("adiabatic-compare", help="full vs adiabatic trajectories")
    adb.add_argument("--config", default=None)
    adb.add_argument("--out-dir", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "brackets":
            from .moment_algebra import build_bracket_table

            table_bound(args.order, args.pairs)
            table = build_bracket_table(args.order, args.pairs)
            if args.out:
                write_json(args.out, table.to_jsonable())
            else:
                print(dumps_json(table.to_jsonable()))
            return 0

        _bind_scenarios()
        if args.command == "transform":
            transform_trajectory(args.input, args.output, args.to, mass=args.mass)
            return 0

        raw = _load_config(args.config) if args.config else {}
        if args.command == "oracle":
            summary = run_oracle(args.scenario, raw, args.out_dir)
        else:
            cfg = resolve_config(raw, scenario=_CONFIG_COMMANDS[args.command])
            runner = run_sweep if args.command == "sweep" else run_scenario
            summary = runner(cfg, args.out_dir or cfg["out_dir"])
        print(dumps_json({"scenario": summary["scenario"], "ok": summary["ok"]}))
        return 0 if summary["ok"] else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, OSError, ValueError, ArithmeticError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
