"""Full coupled step, energy ledger, and the cross-term audit."""

from dataclasses import replace

import numpy as np
import pytest

from llgvm import Mollifier, ScalarField, coupler, l2_inner, l2_norm, mollify
from llgvm.config import parse_config_text
from llgvm.coupler import advance, energy_audit, make_initial_state, total_force_fields
from llgvm.errors import LLGVMError, TimeStepError
from llgvm.kinetic import ParticleEnsemble, deposit
from llgvm.magnetization import MagnetizationField
from llgvm.maxwell import init_compatible
from llgvm.runner import LEDGER_COLUMNS, build_state, ledger_row, run_simulation, validate_dt
from llgvm.textures import skyrmion_tube, uniform_texture

from conftest import band_limited_vector

H, ALPHA = 0.5, 0.1


def bare_state(grid, m_values):
    mf = MagnetizationField(grid, m_values, H, ALPHA)
    em = init_compatible(ScalarField.zeros(grid))
    mol = Mollifier.build(grid, 4.0 * grid.spacing[0])
    return make_initial_state(mf, ParticleEnsemble.empty(), em, mol)


def _same_row(a, b):
    """Bitwise equal ledger rows; the Hopf column is nan at 16^3."""
    return a.keys() == b.keys() and np.array_equal(
        list(a.values()), list(b.values()), equal_nan=True
    )


class TestAdvance:
    def test_global_fixed_point(self, grid16):
        state = bare_state(grid16, uniform_texture(grid16))
        out = advance(state, 1e-4)
        assert np.abs(out.mf.m - state.mf.m).max() < 1e-13
        assert np.abs(out.em.E.values).max() == 0.0
        assert out.ledger.total == pytest.approx(0.0, abs=1e-12)
        assert out.t == pytest.approx(1e-4)
        assert out.step_index == 1

    def test_pure_llg_run_dissipates(self, grid32):
        state = bare_state(grid32, skyrmion_tube(grid32))
        dt = 5e-5
        prev = state.ledger.total
        for _ in range(20):
            state = advance(state, dt)
            led = state.ledger
            assert led.kinetic == 0.0
            assert led.em_energy == 0.0
            assert led.total <= prev
            assert led.coupling_residual == 0.0
            prev = led.total
        assert state.ledger.dissipation_cum > 0.0

    def test_error_carries_step_and_phase(self, grid16):
        state = bare_state(grid16, uniform_texture(grid16))
        with pytest.raises(TimeStepError, match=r"step 1 \[llg\]"):
            advance(state, 10.0)

    def test_non_finite_ledger_carries_step_and_phase(self, grid16, monkeypatch):
        state = bare_state(grid16, uniform_texture(grid16))
        monkeypatch.setattr(coupler, "kinetic_energy", lambda p: float("inf"))
        with pytest.raises(LLGVMError, match=r"^step 1 \[ledger\]: ledger contains non-finite"):
            advance(state, 1e-4)

    def test_coupled_state_invariants(self):
        cfg = parse_config_text(
            "grid.n = 16\nkinetic.n_particles = 500\nkinetic.f0.radius = 1.0\nrun.dt = 5e-4\n"
        )
        state = build_state(cfg)
        dt = validate_dt(cfg, state)
        mass0 = state.particles.total_mass
        for _ in range(5):
            state = advance(state, dt)
        assert state.particles.total_mass == mass0
        assert np.abs(np.sqrt(np.sum(state.mf.m**2, axis=0)) - 1.0).max() < 1e-14
        from llgvm.maxwell import div_b_norm

        assert div_b_norm(state.em) < 1e-12
        assert state.t == pytest.approx(5 * dt)

    def test_state_keeps_ensemble_in_canonical_order(self):
        cfg = parse_config_text("grid.n = 16\nkinetic.n_particles = 400\nrun.dt = 5e-4\n")
        first = build_state(cfg)
        dt = validate_dt(cfg, first)
        p = first.particles
        perm = np.random.default_rng(2).permutation(p.count)
        permuted = ParticleEnsemble(p.positions[perm], p.velocities[perm], p.weights[perm])
        second = replace(first, particles=permuted)
        rows = [ledger_row(first), ledger_row(second)]
        # the initial kinetic energy sums over particles in sampling order, so
        # it and the total may differ at rounding level between the two runs
        for key in ("kinetic", "total"):
            assert rows[1][key] == pytest.approx(rows[0][key], rel=1e-14)
            del rows[0][key], rows[1][key]
        assert _same_row(rows[0], rows[1])
        box = np.asarray(first.mf.grid.box_length)
        for _ in range(3):
            first, second = advance(first, dt), advance(second, dt)
            q = first.particles
            x = q.positions[:, 0] % box[0]
            assert np.all(x[1:] > x[:-1])  # no ties here, so x alone sets the order
            pos = q.positions % box
            keys = (q.weights, *q.velocities.T[::-1], *pos.T[::-1])
            assert np.array_equal(np.lexsort(keys), np.arange(q.count))
            for name in ("positions", "velocities", "weights"):
                assert np.array_equal(getattr(q, name), getattr(second.particles, name))
            assert np.array_equal(first.rho.values, second.rho.values)
            assert _same_row(ledger_row(first), ledger_row(second))


class TestEnergyAudit:
    def test_zero_current_gives_zero_residual(self, grid16):
        state = bare_state(grid16, uniform_texture(grid16))
        nxt = advance(state, 1e-4)
        assert nxt.ledger.coupling_residual == 0.0
        assert energy_audit(state.em, nxt.em, nxt.emergent.e, None, None, None) == 0.0

    def test_smoothing_self_adjointness_pairing(self, grid16):
        mol = Mollifier.build(grid16, 4.0 * grid16.spacing[0])
        for seed in range(10):
            j = band_limited_vector(grid16, 500 + seed, k_cut=4)
            e = band_limited_vector(grid16, 600 + seed, k_cut=4)
            lhs = l2_inner(mollify(j, mol), e)
            rhs = l2_inner(j, mollify(e, mol))
            assert abs(lhs - rhs) <= 1e-12 * l2_norm(j) * l2_norm(e)

    def test_audit_matches_inline_value(self):
        cfg = parse_config_text("grid.n = 16\nkinetic.n_particles = 400\nrun.dt = 5e-4\n")
        state = build_state(cfg)
        dt = validate_dt(cfg, state)
        nxt = advance(state, dt)
        # the step's own j, K j and K(E + e), recomputed from the two states
        _, j = deposit(nxt.particles, nxt.mf.grid)
        e_tot, _ = total_force_fields(state)
        j_s = mollify(j, state.mollifier)
        recomputed = energy_audit(state.em, nxt.em, nxt.emergent.e, j, j_s, e_tot)
        assert recomputed == nxt.ledger.coupling_residual

    def test_residual_decreases_with_dt(self):
        # skip the first step: the lagged emergent field starts cold there, a
        # one-time transient outside the asymptotic claim
        def run(dt, nsteps):
            cfg = parse_config_text(
                f"grid.n = 16\nkinetic.n_particles = 2000\nrun.dt = {dt}\n"
                "kinetic.f0.v_thermal = 0.4\n"
            )
            state = build_state(cfg)
            worst = 0.0
            for s in range(nsteps):
                state = advance(state, dt)
                if s >= 1:
                    worst = max(worst, state.ledger.coupling_residual)
            return worst

        r1 = run(8e-4, 4)
        r2 = run(4e-4, 8)
        assert np.log2(r1 / r2) >= 0.9


class TestLedger:
    def test_monotone_total_with_scheme_tolerance(self):
        # per-step increase bounded by c1 * dt^2 * (dissipation rate + coupling power)
        cfg = parse_config_text("grid.n = 16\nkinetic.n_particles = 1000\nrun.dt = 8e-4\n")
        state = build_state(cfg)
        dt = validate_dt(cfg, state)
        c1 = 10.0
        for _ in range(20):
            prev = state.ledger
            state = advance(state, dt)
            led = state.ledger
            rate = (led.dissipation_cum - prev.dissipation_cum) / (ALPHA * dt)
            tol = c1 * dt**2 * (rate + abs(led.coupling_residual))
            assert led.total <= prev.total + tol + 1e-12

    def test_ledger_validation(self):
        from llgvm.coupler import EnergyLedger

        with pytest.raises(LLGVMError):
            EnergyLedger(-1.0, 0.0, 0.0, 0.0, 0.0).validate()
        with pytest.raises(LLGVMError):
            EnergyLedger(0.0, float("nan"), 0.0, 0.0, 0.0).validate()

    def test_diagnostics_off_blanks_only_the_diagnostic_columns(self, tmp_path):
        # a 48^3 hopfion is the smallest bundled texture whose Hopf column is
        # finite, so that with diagnostics on all three diagnostic columns are
        # finite
        text = (
            "grid.n = 48\nllg.initial = hopfion\nllg.init_radius = 7.0\n"
            "kinetic.n_particles = 200\nkinetic.f0.radius = 1.0\n"
            "run.dt = 1e-5\nrun.n_steps = 2\nrun.snapshot_every = 0\n"
        )
        ledgers = {}
        for diagnostics in ("true", "false"):
            cfg = parse_config_text(text + f"run.topology_diagnostics = {diagnostics}\n")
            run_simulation(cfg, tmp_path / diagnostics)
            lines = (tmp_path / diagnostics / "ledger.csv").read_text().splitlines()
            assert tuple(lines[0].split(",")) == LEDGER_COLUMNS
            rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
            ledgers[diagnostics] = dict(zip(LEDGER_COLUMNS, rows.T))
        on, off = ledgers["true"], ledgers["false"]
        assert len(on["t"]) == 3
        diagnostic = ("gauss_residual", "Q_mid_slice", "hopf")
        for name in LEDGER_COLUMNS:
            if name in diagnostic:
                assert np.all(np.isfinite(on[name])) and np.all(np.isnan(off[name]))
            else:
                assert np.array_equal(on[name], off[name])

    def test_gauss_law_drift_stays_monitorable(self):
        # charge conservation is monitored, not enforced: over 1000 coupled
        # steps the residual of the smoothed-source constraint
        # div(eps_r E) = K_eps rho stays below one percent of the charge norm
        from llgvm.kinetic import deposit
        from llgvm.maxwell import gauss_residual

        cfg = parse_config_text(
            "grid.n = 16\nkinetic.n_particles = 2000\nrun.dt = 8e-4\n"
            "kinetic.f0.v_thermal = 0.4\n"
        )
        state = build_state(cfg)
        dt = validate_dt(cfg, state)
        for _ in range(1000):
            state = advance(state, dt)
        rho_raw, _ = deposit(state.particles, state.mf.grid)
        rho = mollify(rho_raw, state.mollifier)
        assert gauss_residual(state.em, rho) / l2_norm(rho) < 1e-2
