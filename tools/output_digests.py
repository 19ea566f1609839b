"""Print the sha256 of every output file of the bundled runs, or compare two checkouts' outputs.

Runs the three ``configs/*.cfg`` and the three ``perfbench/workloads/*.cfg``
of a checkout to their full ``run.n_steps`` with ``run.snapshot_every = 1``
and both seeds set to ``--seed`` by ``parse_config(path, seed=...)``, as
``llgvm run --seed`` sets them, using that checkout's llgvm source: by
default the checkout this script sits in, or the one named by ``--tree``.
Each output file gives one line ``<config>/<file> <sha256>``, in config
order and then file order:

    python3 tools/output_digests.py --seed 901

``--against DIR`` runs DIR (for example a ``git archive`` copy of the parent
commit) and this checkout, each in its own process, and lists every output
file that moved, then one summary line.  For a ``ledger.csv`` it gives, per
column, the first moved row (row 0 is the initial state), the number of moved
rows and the largest relative change; for a snapshot, the number of moved
payload values and their largest absolute and relative change.  A relative
change is taken against DIR's value, and reads inf where that value is 0 or
not finite:

    python3 tools/output_digests.py --seed 901 --against ../parent

Both trees' ``parse_config`` must take that ``seed`` argument.  To compare
against an older checkout, run that checkout's copy of this script with
``--tree`` set to this one.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# the fixed header of an llgvm snapshot (llgvm.snapshots._HEADER); its last 4 bytes are the payload CRC
SNAPSHOT_HEADER = struct.calcsize("<8sBB16sd3I3dQI")


def configs(tree: Path) -> list[Path]:
    return sorted((tree / "configs").glob("*.cfg")) + sorted((tree / "perfbench" / "workloads").glob("*.cfg"))


def run_tree(tree: Path, seed: int, out: Path) -> None:
    """Run every bundled config of tree with tree's own llgvm source, into out/<config>/."""
    sys.path.insert(0, str(tree / "src"))
    from llgvm.config import parse_config
    from llgvm.runner import run_simulation

    for path in configs(tree):
        cfg = parse_config(path, seed=seed)
        cfg.values["run.snapshot_every"] = 1
        run_simulation(cfg, output_dir=out / path.stem)


def _max_rel(old: np.ndarray, new: np.ndarray) -> float:
    """Largest |new - old| / |old|, inf where old is 0 or either value is not finite."""
    finite = np.isfinite(old) & np.isfinite(new) & (old != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.where(finite, np.abs(new - old) / np.abs(old), np.inf).max())


def _ledger_moves(before: Path, after: Path) -> list[str]:
    with open(before, newline="") as fb, open(after, newline="") as fa:
        old, new = list(csv.reader(fb)), list(csv.reader(fa))
    if old[0] != new[0] or len(old) != len(new):
        return [f"columns {old[0]} with {len(old) - 1} rows became {new[0]} with {len(new) - 1} rows"]
    lines = []
    for col, name in enumerate(old[0]):
        moved = [r for r in range(1, len(old)) if old[r][col] != new[r][col]]
        if moved:
            a = np.array([float(old[r][col]) for r in moved])
            b = np.array([float(new[r][col]) for r in moved])
            lines.append(
                f"{name}: first moved row {moved[0] - 1}, {len(moved)} rows moved,"
                f" max rel change {_max_rel(a, b):.3g}"
            )
    return lines


def _snapshot_moves(before: Path, after: Path) -> list[str]:
    old_raw, new_raw = before.read_bytes(), after.read_bytes()
    lines = []
    if old_raw[: SNAPSHOT_HEADER - 4] != new_raw[: SNAPSHOT_HEADER - 4]:
        lines.append("header moved")
    old = np.frombuffer(old_raw, "<f8", offset=SNAPSHOT_HEADER)
    new = np.frombuffer(new_raw, "<f8", offset=SNAPSHOT_HEADER)
    if old.size != new.size:
        return lines + [f"{old.size} values became {new.size}"]
    moved = old.view("<u8") != new.view("<u8")
    if moved.any():
        a, b = old[moved], new[moved]
        lines.append(
            f"{int(moved.sum())} values moved, max abs change {np.abs(b - a).max():.3g},"
            f" max rel change {_max_rel(a, b):.3g}"
        )
    return lines


def compare_outputs(before: Path, after: Path) -> list[str]:
    """One line per moved detail of each output file that differs between two output trees."""
    names = {p.relative_to(d) for d in (before, after) for p in d.rglob("*") if p.is_file()}
    lines = []
    for name in sorted(names):
        b, a = before / name, after / name
        if not (b.is_file() and a.is_file()):
            lines.append(f"{name} only in {'before' if b.is_file() else 'after'}")
        elif b.read_bytes() != a.read_bytes():
            if name.suffix == ".csv":
                details = _ledger_moves(b, a)
            elif name.suffix == ".snap":
                details = _snapshot_moves(b, a)
            else:
                details = []
            lines.extend(f"{name} {d}" for d in details or ["bytes moved"])
    return lines


def _compare_trees(before: Path, after: Path, seed: int) -> int:
    """Run both checkouts, each in its own process, and print what moved from before to after."""
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "before", Path(tmp) / "after"]
        procs = [
            subprocess.Popen(
                [sys.executable, __file__, "--seed", str(seed), "--tree", str(tree.resolve()), "--keep", str(out)],
                stdout=subprocess.DEVNULL,
            )
            for tree, out in zip((before, after), outs)
        ]
        if [p.wait() for p in procs] != [0, 0]:
            print("error: a run failed", file=sys.stderr)
            return 1
        lines = compare_outputs(*outs)
        n_files = sum(1 for p in outs[1].rglob("*") if p.is_file())
    for line in lines:
        print(line)
    print(f"{len({line.split(' ', 1)[0] for line in lines})} of {n_files} files moved")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True, help="run.seed and kinetic.seed of every run")
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout whose source and configs run")
    parser.add_argument("--keep", type=Path, help="write the outputs here instead of a temporary directory")
    parser.add_argument("--against", type=Path, help="compare the outputs of this DIR with those of --tree")
    args = parser.parse_args(argv)
    if args.against is not None:
        return _compare_trees(args.against, args.tree, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        out = args.keep or Path(tmp)
        run_tree(args.tree, args.seed, out)
        for path in configs(args.tree):
            for f in sorted((out / path.stem).iterdir()):
                print(f"{path.stem}/{f.name} {hashlib.sha256(f.read_bytes()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
