"""tools/output_digests.py: the per-column comparison of two runs' outputs."""

import importlib.util
import shutil
from pathlib import Path

import numpy as np
import pytest

from llgvm.config import parse_config_text
from llgvm.runner import run_simulation
from llgvm.snapshots import _HEADER

from conftest import rewrite_snapshot_header, rewrite_snapshot_payload

ROOT = Path(__file__).resolve().parents[1]
TINY = "grid.n = 8\nkinetic.n_particles = 64\nrun.n_steps = 2\nrun.snapshot_every = 1\nrun.dt = 5e-4\n"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digests", ROOT / "tools" / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tool():
    return load_tool()


@pytest.fixture
def outputs(tmp_path):
    before = tmp_path / "before"
    run_simulation(parse_config_text(TINY), output_dir=before / "tiny")
    return before


def test_lists_exactly_the_edited_ledger_value_and_snapshot_value(tool, outputs, tmp_path):
    after = tmp_path / "after"
    shutil.copytree(outputs, after)
    ledger = after / "tiny" / "ledger.csv"
    rows = [line.split(",") for line in ledger.read_text().splitlines()]
    col = rows[0].index("micromagnetic")
    old = float(rows[2][col])
    rows[2][col] = format(old * 1.5, ".17g")
    ledger.write_text("\n".join(",".join(r) for r in rows) + "\n")
    snap = after / "tiny" / "m_000001.snap"
    value = np.frombuffer(snap.read_bytes()[_HEADER.size :], "<f8")[10]
    rewrite_snapshot_payload(snap, 10, value + 0.25)

    lines = tool.compare_outputs(outputs, after)
    assert len(lines) == 2
    assert lines[0].startswith("tiny/ledger.csv micromagnetic: first moved row 1, 1 rows moved, max rel change 0.5")
    assert lines[1].startswith("tiny/m_000001.snap 1 values moved, max abs change 0.25, max rel change ")
    assert tool.compare_outputs(outputs, outputs) == []
    assert tool.SNAPSHOT_HEADER == _HEADER.size


def test_a_missing_file_a_header_and_a_zero_are_listed(tool, outputs, tmp_path):
    after = tmp_path / "after"
    shutil.copytree(outputs, after)
    (after / "tiny" / "b_final.snap").unlink()
    snap = after / "tiny" / "e_final.snap"
    rewrite_snapshot_header(snap, snap, box=(9.0, 9.0, 9.0))
    ledger = after / "tiny" / "ledger.csv"
    ledger.write_text(ledger.read_text().replace("\n0,", "\n1e-300,", 1))  # row 0's t, which is 0
    assert tool.compare_outputs(outputs, after) == [
        "tiny/b_final.snap only in before",
        "tiny/e_final.snap header moved",
        "tiny/ledger.csv t: first moved row 0, 1 rows moved, max rel change inf",
    ]


def test_against_runs_both_trees_in_their_own_processes(tool, tmp_path, capsys):
    tree = tmp_path / "tree"
    (tree / "configs").mkdir(parents=True)
    (tree / "configs" / "tiny.cfg").write_text(TINY)
    (tree / "src").symlink_to(ROOT / "src")
    assert tool.main(["--seed", "3", "--tree", str(tree), "--against", str(tree)]) == 0
    assert capsys.readouterr().out == "0 of 25 files moved\n"
