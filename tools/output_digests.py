"""Print the sha256 of every output file of the bundled runs.

Runs the three ``configs/*.cfg`` and the three ``perfbench/workloads/*.cfg``
to their full ``run.n_steps`` with ``run.snapshot_every = 1`` and both seeds
set to ``--seed`` (as ``llgvm run --seed`` sets them), using the llgvm source
of the checkout this script sits in.  Each output file gives one line
``<config>/<file> <sha256>``, sorted, so that two checkouts compare with one
diff:

    python3 tools/output_digests.py --seed 901 > after.txt
    python3 ../parent/tools/output_digests.py --seed 901 > before.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.cfg")) + sorted((ROOT / "perfbench" / "workloads").glob("*.cfg"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True, help="run.seed and kinetic.seed of every run")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from llgvm.config import parse_config
    from llgvm.runner import run_simulation

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for path in CONFIGS:
            cfg = parse_config(path)
            cfg.values["run.seed"] = cfg.values["kinetic.seed"] = args.seed
            cfg.values["run.snapshot_every"] = 1
            run_simulation(cfg, output_dir=out / path.stem)
            for f in sorted((out / path.stem).iterdir()):
                print(f"{path.stem}/{f.name} {hashlib.sha256(f.read_bytes()).hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
