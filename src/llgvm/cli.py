"""Command-line entry points: run, diag topology, diag energy, selftest.

Exit codes: 0 success, 2 configuration error, 3 runtime blow-up or other
solver failure, 4 selftest failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import parse_config
from .errors import ConfigError, LLGVMError
from .grid import l2_norm
from .magnetization import MagnetizationField, effective_field, energy
from .runner import run_simulation
from .selftest import run_selftest
from .snapshots import read_snapshot
from .topology import topology_report

log = logging.getLogger("llgvm")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_SELFTEST = 4


def _setup_logging():
    level_name = os.environ.get("LLGVM_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llgvm",
        description="Coupled magnetization / kinetic / Maxwell simulator on a periodic box",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="advance the coupled system and emit ledger + snapshots")
    p_run.add_argument("--config", required=True, help="path to a key = value config file")
    p_run.add_argument("--output", default=None, help="output directory (overrides run.output_dir)")
    p_run.add_argument("--seed", type=int, default=None, help="override run.seed and kinetic.seed")

    p_diag = sub.add_parser("diag", help="diagnostics on snapshot files")
    diag_sub = p_diag.add_subparsers(dest="diag_command", required=True)

    p_topo = diag_sub.add_parser("topology", help="topological report for a magnetization snapshot")
    p_topo.add_argument("snapshot", help="magnetization snapshot file")
    p_topo.add_argument("--csv", default=None, help="also write per-slice skyrmion numbers as CSV")

    p_energy = diag_sub.add_parser("energy", help="energy breakdown for a magnetization snapshot")
    p_energy.add_argument("snapshot", help="magnetization snapshot file")

    sub.add_parser("selftest", help="run the built-in invariant suite")
    return parser


def _cmd_run(args) -> int:
    run_simulation(parse_config(args.config, seed=args.seed), output_dir=args.output)
    return EXIT_OK


def _load_magnetization(path) -> MagnetizationField:
    snap = read_snapshot(path)
    if not isinstance(snap.payload, MagnetizationField):
        raise ConfigError(f"{path} is not a magnetization snapshot")
    return snap.payload


def _cmd_diag_topology(args) -> int:
    mf = _load_magnetization(args.snapshot)
    report = topology_report(mf)
    for line in report.lines():
        print(line)
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("z_index,skyrmion_number\n")
                for z, q in report.skyrmion_number_per_slice:
                    fh.write(f"{z},{q!r}\n")
        except OSError as err:
            raise ConfigError(f"cannot write {args.csv}: {err}") from err
    return EXIT_OK


def _cmd_diag_energy(args) -> int:
    mf = _load_magnetization(args.snapshot)
    total = energy(mf)
    heff = effective_field(mf)
    print(f"micromagnetic_energy = {total!r}")
    print(f"h_zeeman = {mf.h_zeeman!r}")
    print(f"alpha = {mf.alpha!r}")
    print(f"effective_field_l2 = {l2_norm(heff)!r}")
    return EXIT_OK


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "diag":
            if args.diag_command == "topology":
                return _cmd_diag_topology(args)
            return _cmd_diag_energy(args)
        return EXIT_OK if run_selftest() else EXIT_SELFTEST
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except LLGVMError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
