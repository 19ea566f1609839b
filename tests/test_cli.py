"""Command-line entry points, exit codes, and run artifacts."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import llgvm
from llgvm import PeriodicGrid, cli, coupler, selftest
from llgvm.errors import BlowUpError
from llgvm.magnetization import MagnetizationField
from llgvm.maxwell import cfl_limit
from llgvm.snapshots import write_snapshot
from llgvm.textures import hopfion

from conftest import rewrite_snapshot_header, rewrite_snapshot_payload

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read_ledger(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRun:
    def test_bundled_skyrmion_config_produces_monotone_ledger(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(CONFIGS / "skyrmion.cfg"), "--output", str(out)])
        assert code == 0
        rows = read_ledger(out / "ledger.csv")
        assert len(rows) == 51
        totals = [float(r["total"]) for r in rows]
        e0 = totals[0]
        assert all(b <= a + 1e-6 * abs(e0) for a, b in zip(totals, totals[1:]))
        # the tube keeps its unit charge in the middle slice
        assert float(rows[-1]["Q_mid_slice"]) == pytest.approx(-1.0, abs=1e-6)
        # snapshots present
        assert (out / "m_final.snap").exists()
        assert (out / "particles_final.snap").exists()
        assert (out / "m_000025.snap").exists()

    def test_seed_override_changes_sampling(self, tmp_path, grid16):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            "grid.n = 8\ngrid.box = 8.0\nkinetic.n_particles = 50\n"
            "kinetic.f0.radius = 0.9\nrun.n_steps = 1\nrun.dt = 1e-4\n"
            "run.topology_diagnostics = false\n"
        )
        ledgers = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}"
            assert cli.main(["run", "--config", str(cfg), "--output", str(out), "--seed", seed]) == 0
            ledgers.append((out / "ledger.csv").read_bytes())
        assert ledgers[0] != ledgers[1]

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("grid.n = 33\n")
        assert cli.main(["run", "--config", str(bad)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("line", ["llg.stabilizer_c = inf", "em.init_modes = 1,0,0,nan"])
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(f"grid.n = 8\ngrid.box = 8.0\nkinetic.n_particles = 0\nrun.n_steps = 1\n{line}\n")
        code = cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, extra, named",
        [
            ("", ["--seed", "-3"], ["seed"]),
            ("run.seed = -1", [], ["seed"]),
            ("kinetic.seed = -1", [], ["seed"]),
            # a file error and --seed's error come in one report
            (
                "llg.alpha = -1",
                ["--seed", "-3"],
                ["llg.alpha must be positive", "run.seed = -3", "kinetic.seed = -3"],
            ),
        ],
        ids=["--seed", "run.seed", "kinetic.seed", "--seed-and-file-error"],
    )
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, line, extra, named):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(f"grid.n = 8\ngrid.box = 8.0\nkinetic.n_particles = 10\nrun.n_steps = 1\n{line}\n")
        code = cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "out"), *extra])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("configuration error") == 1
        assert all(name in err for name in named)

    def test_threads_is_not_an_option(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("grid.n = 8\ngrid.box = 8.0\nkinetic.n_particles = 0\nrun.n_steps = 1\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "--config", str(cfg), "--output", str(out), "--threads", "2"])
        assert exit_info.value.code == cli.EXIT_CONFIG
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not out.exists()

    def test_unstable_dt_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("grid.n = 16\nrun.dt = 1.0\nkinetic.n_particles = 0\n")
        assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG

    def test_dt_at_the_cfl_bound_is_a_config_error(self, tmp_path, capsys):
        # the Yee step needs dt strictly below the bound; stabilizer_c = 6 makes
        # the magnetization limit infinite, so only the CFL bound can refuse
        dt = cfl_limit(PeriodicGrid.cubic(8, 8.0), 1.0, 1.0)
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(
            "grid.n = 8\ngrid.box = 8.0\nkinetic.n_particles = 0\nllg.stabilizer_c = 6.0\n"
            f"run.n_steps = 1\nrun.dt = {dt!r}\n"
        )
        code = cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out" / "ledger.csv").exists()

    def test_config_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("# caf\u00e9\ngrid.n = 8\nkinetic.n_particles = 0\n".encode("latin-1"))
        code = cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert str(cfg) in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["--output", "run.output_dir"])
    def test_output_dir_under_a_regular_file_exits_2(self, tmp_path, capsys, how):
        blocker = tmp_path / "plain_file"
        blocker.write_text("")
        out = blocker / "out"
        cfg = tmp_path / "ok.cfg"
        text = "grid.n = 8\ngrid.box = 8.0\nkinetic.n_particles = 0\nrun.n_steps = 1\nrun.dt = 1e-4\n"
        args = ["run", "--config", str(cfg)]
        if how == "--output":
            args += ["--output", str(out)]
        else:
            text += f"run.output_dir = {out}\n"
        cfg.write_text(text)
        assert cli.main(args) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "cannot create output directory" in err and str(out) in err

    @pytest.mark.parametrize("blocked", ["ledger.csv", "m_000000.snap"])
    def test_output_file_that_cannot_be_opened_exits_2(self, tmp_path, capsys, blocked):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(
            "grid.n = 8\ngrid.box = 8.0\nkinetic.n_particles = 0\nrun.n_steps = 2\nrun.dt = 1e-4\n"
            "run.snapshot_every = 1\n"
        )
        full = tmp_path / "full"
        assert cli.main(["run", "--config", str(cfg), "--output", str(full)]) == cli.EXIT_OK
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert cli.main(["run", "--config", str(cfg), "--output", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "cannot write" in err and str(out / blocked) in err
        if blocked != "ledger.csv":  # the header and row 0 were streamed before the snapshot
            rows = (full / "ledger.csv").read_bytes().splitlines(keepends=True)
            assert (out / "ledger.csv").read_bytes() == b"".join(rows[:2])

    @pytest.mark.parametrize(
        "line",
        [
            "kinetic.n_particles = 0\nrun.dt = 1.0",
            "kinetic.n_particles = 0\nem.init_modes = 0,0,0,1",
            "kinetic.n_particles = 2\nkinetic.f0.kind = delta",
            "kinetic.n_particles = 0\nllg.initial = hopfion\nllg.init_radius = 5.0",
            "kinetic.f0.kind = kappa\nllg.initial = vortex\nllg.stabilizer_c = 0.01",
            "kinetic.n_particles = 0\nem.init_modes = 8,0,0,1",  # k = 0 on 8 nodes, yet sin(pi) != 0
            "kinetic.n_particles = 0\nllg.initial = skyrmion_tube\nllg.init_radius = 5.0",
        ],
        ids=["unstable-dt", "bad-mode", "delta-with-two", "radius-too-large", "kind-texture-stabilizer",
             "aliased-zero-mode", "skyrmion-radius-too-large"],
    )
    def test_config_error_leaves_no_output_dir(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"grid.n = 8\ngrid.box = 8.0\nrun.n_steps = 1\n{line}\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--output", str(out)]) == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _ledger_lines(tmp_path, n_steps):
        """The config of a small run without particles and the ledger lines of its finished run."""
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(
            f"grid.n = 8\ngrid.box = 8.0\nkinetic.n_particles = 0\nrun.n_steps = {n_steps}\nrun.dt = 1e-4\n"
        )
        out = tmp_path / "full"
        assert cli.main(["run", "--config", str(cfg), "--output", str(out)]) == cli.EXIT_OK
        return cfg, (out / "ledger.csv").read_bytes().splitlines(keepends=True)

    def test_runtime_blow_up_exit_code(self, tmp_path, monkeypatch):
        cfg, full = self._ledger_lines(tmp_path, 1)

        def explode(*args, **kwargs):
            raise BlowUpError("synthetic blow-up")

        monkeypatch.setattr("llgvm.runner.advance", explode)
        args = ["run", "--config", str(cfg), "--output", str(tmp_path / "out")]
        assert cli.main(args) == cli.EXIT_RUNTIME
        # the header and the row of the initial state, as a finished run writes them
        assert (tmp_path / "out" / "ledger.csv").read_bytes() == b"".join(full[:2])

    def test_blow_up_after_a_step_keeps_its_ledger_rows(self, tmp_path, monkeypatch, capsys):
        cfg, full = self._ledger_lines(tmp_path, 3)
        calls, real_step = [], coupler.step

        def step_once(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise BlowUpError("synthetic blow-up")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(coupler, "step", step_once)
        args = ["run", "--config", str(cfg), "--output", str(tmp_path / "out")]
        assert cli.main(args) == cli.EXIT_RUNTIME
        assert "step 2 [llg]" in capsys.readouterr().err
        assert (tmp_path / "out" / "ledger.csv").read_bytes() == b"".join(full[:3])

    def test_outputs_do_not_depend_on_the_thread_count(self, tmp_path):
        # numpy may hand work to a threaded BLAS or OpenMP pool; the outputs must not change
        cfg = tmp_path / "threads.cfg"
        cfg.write_text(
            "grid.n = 12\ngrid.box = 8.0\nkinetic.n_particles = 500\nkinetic.f0.radius = 0.9\n"
            "run.n_steps = 3\nrun.dt = 1e-4\nrun.snapshot_every = 1\n"
        )
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {
                **os.environ,
                "PYTHONPATH": str(Path(llgvm.__file__).parents[1]),
                "OMP_NUM_THREADS": threads,
                "OPENBLAS_NUM_THREADS": threads,
                "MKL_NUM_THREADS": threads,
            }
            subprocess.run(
                [sys.executable, "-m", "llgvm.cli", "run", "--config", str(cfg), "--output", str(out)],
                env=env, check=True, timeout=120,
            )
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert len(outputs[0]) == 1 + 6 * 5  # ledger.csv, six snapshots at steps 0-3 and final
        assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("hopfrun")
    code = cli.main(["run", "--config", str(CONFIGS / "hopfion.cfg"), "--output", str(out)])
    assert code == 0
    return out


class TestDiag:
    def test_topology_report_on_hopfion_snapshot(self, finished_run, tmp_path, capsys):
        csv_out = tmp_path / "slices.csv"
        code = cli.main(
            ["diag", "topology", str(finished_run / "m_final.snap"), "--csv", str(csv_out)]
        )
        assert code == 0
        captured = capsys.readouterr().out
        fields = dict(
            line.split(" = ") for line in captured.strip().splitlines() if " = " in line
        )
        assert abs(float(fields["hopf_invariant"]) - 1.0) < 1e-2
        rows = read_ledger(csv_out)
        assert len(rows) == 48
        # the report takes its Hopf value from the same helicity as the ledger
        assert float(fields["hopf_invariant"]) == float(read_ledger(finished_run / "ledger.csv")[-1]["hopf"])

    def test_topology_report_when_the_potential_is_refused(self, tmp_path, capsys, grid32):
        # a 32^3 hopfion's b is not solenoidal to the helicity's 1e-6 bound
        snap = tmp_path / "m.snap"
        write_snapshot(MagnetizationField(grid32, hopfion(grid32), 0.5, 0.1), snap, "m")
        csv_out = tmp_path / "slices.csv"
        assert cli.main(["diag", "topology", str(snap), "--csv", str(csv_out)]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == ["helicity = nan", "hopf_invariant = nan", "gauge_residual = nan"]
        assert len(lines) == 3 + 32 and len(read_ledger(csv_out)) == 32

    def test_energy_report(self, finished_run, capsys):
        code = cli.main(["diag", "energy", str(finished_run / "m_final.snap")])
        assert code == 0
        out = capsys.readouterr().out
        assert "micromagnetic_energy" in out
        value = float(out.splitlines()[0].split(" = ")[1])
        assert value > 0.0

    def test_diag_rejects_wrong_snapshot_kind(self, finished_run):
        code = cli.main(["diag", "topology", str(finished_run / "E_final.snap")])
        assert code == cli.EXIT_CONFIG

    def test_energy_on_inconsistent_header_is_a_runtime_error(self, finished_run, tmp_path, capsys):
        bad = tmp_path / "m_bad.snap"
        # the payload holds 48^3 nodes
        rewrite_snapshot_header(finished_run / "m_final.snap", bad, dims=(6, 48, 48))
        assert cli.main(["diag", "energy", str(bad)]) == cli.EXIT_RUNTIME
        assert "inconsistent header" in capsys.readouterr().err

    def test_topology_csv_that_cannot_be_written_exits_2(self, finished_run, tmp_path, capsys):
        blocker = tmp_path / "plain_file"
        blocker.write_text("")
        csv_out = blocker / "slices.csv"
        code = cli.main(["diag", "topology", str(finished_run / "m_final.snap"), "--csv", str(csv_out)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "cannot write" in err and str(csv_out) in err

    def test_energy_on_a_non_unit_payload_names_the_file(self, finished_run, tmp_path, capsys):
        bad = tmp_path / "m_bad.snap"
        bad.write_bytes((finished_run / "m_final.snap").read_bytes())
        rewrite_snapshot_payload(bad, 2, 1.5)  # m_x at node 0; the CRC is recomputed
        assert cli.main(["diag", "energy", str(bad)]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"invalid payload in {bad}" in err and "deviates from 1" in err


class TestSelftest:
    def test_failing_and_raising_checks_exit_4(self, monkeypatch, capsys):
        # the clean-tree pass is acceptance criterion 9; this covers the failure path
        def boom():
            raise ValueError("synthetic")

        monkeypatch.setattr(
            selftest,
            "CHECKS",
            (
                ("good", lambda: (True, "fine")),
                ("bad", lambda: (False, "defect=1.0e+00")),
                ("crash", boom),
                ("after", lambda: (True, "still ran")),
            ),
        )
        assert cli.main(["selftest"]) == cli.EXIT_SELFTEST == 4
        assert capsys.readouterr().out.splitlines() == [
            "[PASS] good: fine",
            "[FAIL] bad: defect=1.0e+00",
            "[FAIL] crash: raised ValueError: synthetic",
            "[PASS] after: still ran",
        ]
