"""Full coupled step, energy ledger, and the cross-term audit."""

import gc
import hashlib
import weakref

import numpy as np
import pytest

from llgvm import (
    Mollifier,
    PeriodicGrid,
    ScalarField,
    VectorField3,
    coupler,
    emergent,
    l2_norm,
    magnetization,
    maxwell,
    mollify,
    read_snapshot,
    runner,
)
from llgvm.config import parse_config_text
from llgvm.coupler import (
    advance,
    energy_audit,
    kinetic_energy,
    make_initial_state,
    total_force_fields,
)
from llgvm.emergent import compute_e
from llgvm.errors import BlowUpError, ConfigError, LLGVMError, TimeStepError
from llgvm.kinetic import _CHUNK, ParticleEnsemble, TwoStream, canonical, deposit, sample_initial
from llgvm.magnetization import LLCoefficients, MagnetizationField, dt_max, step
from llgvm.maxwell import EMFieldPair, cfl_limit, init_compatible, step_fields
from llgvm.runner import LEDGER_COLUMNS, build_state, ledger_row, run_simulation, validate_dt
from llgvm.textures import skyrmion_tube, uniform_texture

from conftest import checkerboard

H, ALPHA = 0.5, 0.1


def bare_state(grid, m_values):
    mf = MagnetizationField(grid, m_values, H, ALPHA)
    em = init_compatible(ScalarField.zeros(grid))
    mol = Mollifier.build(grid, 4.0 * grid.spacing[0])
    coeffs = LLCoefficients.from_alpha(ALPHA)
    return make_initial_state(mf, ParticleEnsemble.empty(), em, mol, coeffs, ScalarField.zeros(grid))


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

    def test_nan_rate_is_a_blow_up(self, grid16, monkeypatch):
        state = bare_state(grid16, uniform_texture(grid16))
        monkeypatch.setattr(magnetization, "_rhs", lambda mf, j: np.full(mf.m.shape, np.nan))
        with pytest.raises(BlowUpError, match=r"^step 1 \[llg\]: renormalization"):
            advance(state, 1e-4)

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
        # two chunks and a bit, so that the slices of the push hold other particles in the two runs
        cfg = parse_config_text(f"grid.n = 16\nkinetic.n_particles = {2 * _CHUNK + 3}\nrun.dt = 5e-4\n")
        first = build_state(cfg)
        dt = validate_dt(cfg, first)
        p = first.particles
        perm = np.random.default_rng(2).permutation(p.count)
        permuted = ParticleEnsemble(p.positions[:, perm], p.velocities[:, perm], p.weights[perm])
        second = make_initial_state(first.mf, permuted, first.em, first.mollifier, first.ll_coeffs, first.rho)
        rows = [ledger_row(first), ledger_row(second)]
        # only step 0 depends on the set-up order: its kinetic energy sums over
        # the particles as stored, so it and the total may differ at rounding level
        for key in ("kinetic", "total"):
            assert rows[1][key] == pytest.approx(rows[0][key], rel=1e-14)
            del rows[0][key], rows[1][key]
        assert _same_row(rows[0], rows[1])
        for _ in range(3):
            first, second = advance(first, dt), advance(second, dt)
            q = first.particles
            x = q.positions[0]
            assert np.all(x[1:] > x[:-1])  # no ties here, so x alone sets the order
            keys = (q.weights, *q.velocities[::-1], *q.positions[::-1])
            assert np.array_equal(np.lexsort(keys), np.arange(q.count))
            pairs = [
                (q.positions, second.particles.positions),
                (q.velocities, second.particles.velocities),
                (q.weights, second.particles.weights),
                (first.mf.m, second.mf.m),
                (first.em.E.values, second.em.E.values),
                (first.em.B.values, second.em.B.values),
                (first.rho.values, second.rho.values),
                (list(ledger_row(first).values()), list(ledger_row(second).values())),
            ]
            for a, b in pairs:
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestEnergyAudit:
    def test_zero_current_gives_zero_residual(self, grid16):
        state = bare_state(grid16, uniform_texture(grid16))
        nxt = advance(state, 1e-4)
        assert nxt.ledger.coupling_residual == 0.0
        assert energy_audit(state.em, nxt.em, nxt.emergent.e, None, None, None) == 0.0

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

    def test_node_average_of_e_is_taken_once_per_pair(self, monkeypatch):
        """Two coupled steps average E to the nodes three times, not six, bitwise as before."""
        text = "grid.n = 16\nkinetic.n_particles = 400\nrun.dt = 5e-4\n"

        def two_steps():
            cfg = parse_config_text(text)
            state = build_state(cfg)
            dt = validate_dt(cfg, state)
            return advance(advance(state, dt), dt)

        pair_average = maxwell._pair_average
        shifts = []

        def counted(values, shift):
            shifts.append(shift)
            return pair_average(values, shift)

        with monkeypatch.context() as mp:
            mp.setattr(maxwell, "_pair_average", counted)
            cached = two_steps()
        # gather, current to edges, audit of E^1; current to edges, audit of E^2
        assert shifts == [1, -1, 1, -1, 1]
        monkeypatch.setattr(
            coupler, "avg_E_to_nodes",
            lambda em: VectorField3(em.grid, pair_average(em.E.values, 1)),
        )
        uncached = two_steps()
        assert cached.ledger == uncached.ledger

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
            EnergyLedger(-1.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(LLGVMError):
            EnergyLedger(0.0, float("nan"), 0.0, 0.0, 0.0)
        for residual in (float("nan"), float("inf")):
            with pytest.raises(LLGVMError):
                EnergyLedger(0.0, 0.0, 0.0, 0.0, residual)

    def test_degenerate_mid_slice_reads_nan(self):
        grid = PeriodicGrid.cubic(8, 8.0)
        row = ledger_row(bare_state(grid, checkerboard(grid)))
        assert np.isnan(row["Q_mid_slice"]) and np.isnan(row["hopf"])  # not localized either
        assert all(np.isfinite(row[c]) for c in LEDGER_COLUMNS if c not in ("Q_mid_slice", "hopf"))

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


class TestBuildState:
    @pytest.mark.parametrize(
        "lines, count, kinetic",
        [
            ("kinetic.f0.kind = bump_maxwellian\nkinetic.n_particles = 300\nkinetic.f0.radius = 0.8\n", 300, None),
            ("kinetic.f0.kind = uniform_maxwellian\nkinetic.n_particles = 300\n", 300, None),
            ("kinetic.f0.kind = two_stream\nkinetic.n_particles = 300\n", 300, None),
            ("kinetic.f0.kind = delta\nkinetic.n_particles = 1\nkinetic.f0.velocity = 0.5,0,0\n", 1, 0.125),
        ],
        ids=["bump_maxwellian", "uniform_maxwellian", "two_stream", "delta"],
    )
    def test_f0_kind(self, lines, count, kinetic):
        state = build_state(parse_config_text(f"grid.n = 8\ngrid.box = 8.0\n{lines}"))
        p = state.particles
        assert p.count == count and p.total_mass == pytest.approx(1.0, rel=1e-14)
        assert np.all(p.positions >= 0.0) and np.all(p.positions < 8.0)
        assert state.rho.values.sum() * state.mf.grid.cell_volume == pytest.approx(-1.0, rel=1e-12)
        if kinetic is not None:
            assert np.array_equal(p.positions[:, 0], [4.0, 4.0, 4.0])  # the box center
            assert state.ledger.kinetic == kinetic

    def test_stores_the_sampled_ensemble_in_canonical_order_and_its_charge(self):
        cfg = parse_config_text("grid.n = 8\ngrid.box = 8.0\nkinetic.f0.kind = two_stream\nkinetic.n_particles = 300\n")
        state = build_state(cfg)
        p = state.particles
        assert state.rho.values.tobytes() == deposit(p, state.mf.grid)[0].values.tobytes()
        v = cfg.values
        spec = TwoStream(v["kinetic.f0.drift"], v["kinetic.f0.v_thermal"])
        sampled = sample_initial(spec, 300, v["kinetic.seed"], PeriodicGrid.cubic(8, 8.0))
        assert sampled.positions.tobytes() != p.positions.tobytes()  # sampling order is not canonical
        for q in (canonical(p), canonical(sampled)):
            for name in ("positions", "velocities", "weights"):
                assert getattr(q, name).tobytes() == getattr(p, name).tobytes()


class TestValidateDt:
    @pytest.mark.parametrize("bound", ["magnetization", "cfl"])
    def test_agrees_with_the_solver_at_its_bound(self, bound):
        # validate_dt runs each solver's own check_dt; at the three floats
        # around each bound it must refuse exactly where the solver does and
        # carry the solver's TimeStepError text in its ConfigError.
        # stabilizer_c = 6 makes the magnetization limit infinite, so only
        # the CFL bound can refuse in the second case.
        extra = "" if bound == "magnetization" else "llg.stabilizer_c = 6.0\n"
        cfg = parse_config_text(f"grid.n = 8\ngrid.box = 8.0\nkinetic.n_particles = 0\n{extra}")
        state = build_state(cfg)
        grid = state.mf.grid
        if bound == "magnetization":
            b = dt_max(grid, state.mf.alpha, state.mf.h_zeeman, state.ll_coeffs)
            expected = [None, None, "exceeds the stable bound"]  # dt <= b

            def solver(dt):
                step(state.mf, None, dt, state.ll_coeffs)
        else:
            b = cfl_limit(grid, state.em.eps_r, state.em.mu_r)
            refused = "violates the staggered CFL bound"
            expected = [None, refused, refused]  # dt < b

            def solver(dt):
                step_fields(state.em, None, dt)

        def refusal(call, error):
            try:
                call()
            except error as err:
                return str(err)
            return None

        for dt, phrase in zip((np.nextafter(b, 0.0), b, np.nextafter(b, np.inf)), expected):
            cfg.values["run.dt"] = float(dt)
            runner = refusal(lambda: validate_dt(cfg, state), ConfigError)
            solo = refusal(lambda: solver(float(dt)), TimeStepError)
            if phrase is None:
                assert runner is solo is None
            else:
                assert phrase in solo and solo in runner


class TestZeroMaxwellSector:
    PARTICLE_FREE = "grid.n = 16\nkinetic.n_particles = 0\nrun.dt = 1e-4\n"

    def test_particle_free_run_keeps_one_zero_pair(self, monkeypatch):
        cfg = parse_config_text(self.PARTICLE_FREE)
        state = build_state(cfg)
        dt = validate_dt(cfg, state)
        # init_compatible of zero charge returns -0.0, so step 1 takes the full path
        assert np.signbit(state.em.E.values).all() and not state.em.is_zero
        curl = maxwell._curl
        calls = []
        monkeypatch.setattr(maxwell, "_curl", lambda *args: calls.append(1) or curl(*args))
        per_step, pairs = [], []
        for _ in range(4):
            before = len(calls)
            state = advance(state, dt)
            per_step.append(len(calls) - before)
            pairs.append(state.em)
            assert not np.signbit(state.em.E.values).any()
            assert not np.signbit(state.em.B.values).any()
        assert per_step == [2, 0, 0, 0]
        assert all(em is pairs[0] for em in pairs)

        def unexpected(*args):
            raise AssertionError("the Gauss residual of a zero sector is known")

        monkeypatch.setattr(runner, "gauss_residual", unexpected)
        monkeypatch.setattr(runner, "l2_norm", unexpected)
        row = ledger_row(state)
        assert row["gauss_residual"] == row["divB"] == row["em"] == 0.0

    def test_particle_free_run_with_modes_changes_e_every_step(self):
        cfg = parse_config_text(self.PARTICLE_FREE + "em.init_modes = 1,0,0,0.1\n")
        state = build_state(cfg)
        dt = validate_dt(cfg, state)
        for _ in range(4):
            new = advance(state, dt)
            assert not np.array_equal(new.em.E.values, state.em.E.values)
            assert new.ledger.em_energy > 0.0
            state = new

    def test_outputs_match_the_full_path_byte_for_byte(self, tmp_path, monkeypatch):
        cfg_text = (
            "grid.n = 16\nllg.initial = hopfion\nllg.init_radius = 7.0\n"
            "kinetic.n_particles = 0\nrun.dt = 1e-5\nrun.n_steps = 4\nrun.snapshot_every = 1\n"
        )

        def digests(outdir):
            run_simulation(parse_config_text(cfg_text), outdir)
            return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outdir.iterdir()}

        skipped = digests(tmp_path / "skipped")
        monkeypatch.setattr(EMFieldPair, "is_zero", property(lambda self: False))
        full = digests(tmp_path / "full")
        assert len(full) == 6 * 6 + 1  # six kinds at steps 0..4 and final, plus the ledger
        assert skipped == full


class TestDeferredEmergentE:
    PARTICLE_FREE = (
        "grid.n = 16\nllg.initial = hopfion\nllg.init_radius = 7.0\n"
        "kinetic.n_particles = 0\nrun.dt = 1e-5\n"
    )
    COUPLED = "grid.n = 16\nkinetic.n_particles = 400\nrun.dt = 5e-4\n"

    @staticmethod
    def counted_compute_e(monkeypatch):
        """Count compute_e calls from the coupler and from a deferred pair's first read."""
        compute_e = emergent.compute_e
        calls = []

        def counted(*args):
            calls.append(1)
            return compute_e(*args)

        monkeypatch.setattr(coupler, "compute_e", counted)
        monkeypatch.setattr(emergent, "compute_e", counted)
        return calls

    def test_snapshots_hold_the_eager_e(self, tmp_path):
        cfg = parse_config_text(self.PARTICLE_FREE + "run.n_steps = 4\nrun.snapshot_every = 1\n")
        run_simulation(cfg, tmp_path)
        dt = cfg.values["run.dt"]

        def payload(kind, n):
            return read_snapshot(tmp_path / f"{kind}_{n:06d}.snap").payload

        assert not payload("e", 0).values.any()  # the pair at rest
        for n in range(1, 5):
            e = payload("e", n).values
            assert e.any()
            assert np.array_equal(e, compute_e(payload("m", n - 1), payload("m", n), dt).values)

    def test_only_a_read_computes_e(self, monkeypatch):
        calls = self.counted_compute_e(monkeypatch)
        cfg = parse_config_text(self.PARTICLE_FREE)
        state = build_state(cfg)
        dt = validate_dt(cfg, state)
        for _ in range(2):
            prev, state = state, advance(state, dt)
            ledger_row(state)
            assert calls == []
        e = state.emergent.e
        assert calls == [1] and state.emergent.e is e  # computed once, then kept
        assert np.array_equal(e.values, compute_e(prev.mf, state.mf, dt).values)

    def test_a_particle_step_computes_e_once(self, monkeypatch):
        calls = self.counted_compute_e(monkeypatch)
        cfg = parse_config_text(self.COUPLED)
        state = build_state(cfg)
        dt = validate_dt(cfg, state)
        for step_count in (1, 2):
            state = advance(state, dt)
            ledger_row(state)
            assert state.emergent.e is state.emergent.e  # an eager pair: no further call
            assert len(calls) == step_count

    def test_antipodal_motion_still_fails_in_its_step(self, monkeypatch):
        cfg = parse_config_text(self.PARTICLE_FREE)
        state = build_state(cfg)
        dt = validate_dt(cfg, state)
        monkeypatch.setattr(coupler, "step", lambda mf, j, dt, coeffs: mf.with_m(-mf.m))
        with pytest.raises(BlowUpError, match=r"^step 1 \[emergent\]: antipodal"):
            advance(state, dt)

    def test_pair_holds_only_the_previous_m(self):
        cfg = parse_config_text(self.PARTICLE_FREE)
        state = build_state(cfg)
        dt = validate_dt(cfg, state)
        state = advance(state, dt)
        prev_mf = weakref.ref(state.mf)  # with its cached spectrum and partials
        state = advance(state, dt)
        gc.collect()
        assert prev_mf() is None


@pytest.mark.parametrize("n", [10**5, 10**6])
def test_kinetic_energy_equals_the_squared_velocity_sum(n):
    rng = np.random.default_rng(n)
    p = ParticleEnsemble(rng.random((3, n)), rng.standard_normal((3, n)), rng.random(n))
    assert kinetic_energy(p) == float(0.5 * np.sum(p.weights * np.sum(p.velocities**2, axis=0)))
