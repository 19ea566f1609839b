"""Particle sampling, the Boris-type push, deposition, and velocity moments."""

from fractions import Fraction

import numpy as np
import pytest

from llgvm import (
    BumpMaxwellian,
    DeltaSpec,
    PeriodicGrid,
    TwoStream,
    UniformMaxwellian,
    VectorField3,
    deposit,
    deposit_moment,
    gather,
    lorentz_push,
    moment_exponent,
    moment_report,
    sample_initial,
)
from llgvm.errors import BlowUpError, ConfigError, ContractViolation
from llgvm.kinetic import (
    ParticleEnsemble,
    _rodrigues_rotate,
    analytic_m2,
    lp_norm_of_field,
    moment_exponent_exact,
)

from conftest import BOX, band_limited_vector

CENTER = (BOX / 2, BOX / 2, BOX / 2)


class TestSampling:
    def test_delta_spec_places_one_particle(self, grid16):
        spec = DeltaSpec(position=(1.0, 2.0, 3.0), velocity=(0.5, 0.0, -0.25), mass=2.5)
        p = sample_initial(spec, 1, 0, grid16)
        assert p.count == 1
        assert np.allclose(p.positions[0], (1.0, 2.0, 3.0))
        assert np.allclose(p.velocities[0], (0.5, 0.0, -0.25))
        assert p.weights[0] == 2.5
        with pytest.raises(ConfigError):
            sample_initial(spec, 2, 0, grid16)

    def test_maxwellian_second_moment(self, grid16):
        n = 40000
        spec = BumpMaxwellian(CENTER, 1.6, 0.3, mass=2.0)
        p = sample_initial(spec, n, 11, grid16)
        assert p.total_mass == pytest.approx(2.0, rel=1e-13)
        m2 = float(np.sum(p.weights * np.sum(p.velocities**2, axis=1)))
        assert abs(m2 / analytic_m2(spec) - 1.0) < 5.0 / np.sqrt(n)

    def test_two_seeds_agree_within_pooled_error(self, grid16):
        n = 20000
        spec = UniformMaxwellian(0.4)
        samples = []
        for seed in (3, 4):
            p = sample_initial(spec, n, seed, grid16)
            contrib = p.weights * np.sum(p.velocities**2, axis=1)
            samples.append((contrib.sum(), n * contrib.std() / np.sqrt(n)))
        diff = abs(samples[0][0] - samples[1][0])
        pooled = np.hypot(samples[0][1], samples[1][1])
        assert diff < 3.0 * pooled

    def test_two_stream_moment(self, grid16):
        spec = TwoStream(v_drift=0.8, v_thermal=0.2)
        p = sample_initial(spec, 30000, 5, grid16)
        m2 = float(np.sum(p.weights * np.sum(p.velocities**2, axis=1)))
        assert abs(m2 / analytic_m2(spec) - 1.0) < 5.0 / np.sqrt(30000)

    def test_determinism(self, grid16):
        spec = BumpMaxwellian(CENTER, 1.0, 0.3)
        a = sample_initial(spec, 500, 42, grid16)
        b = sample_initial(spec, 500, 42, grid16)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)

    def test_bump_must_fit_in_box(self, grid16):
        with pytest.raises(ConfigError):
            sample_initial(BumpMaxwellian(CENTER, 3.0, 0.3), 100, 0, grid16)

    def test_negative_weights_rejected(self):
        with pytest.raises(ContractViolation):
            ParticleEnsemble(np.zeros((1, 3)), np.zeros((1, 3)), [-1.0])


class TestLorentzPush:
    def test_speed_conserved_in_pure_magnetic_field(self, grid16):
        p = sample_initial(UniformMaxwellian(0.4), 256, 7, grid16)
        e0 = VectorField3.zeros(grid16)
        b0 = VectorField3.constant(grid16, (0.0, 0.0, 1.0))
        speeds0 = np.sqrt(np.sum(p.velocities**2, axis=1))
        for _ in range(10000):
            p = lorentz_push(p, e0, b0, 1e-2)
        speeds = np.sqrt(np.sum(p.velocities**2, axis=1))
        assert np.abs(speeds / speeds0 - 1.0).max() < 1e-11

    def test_gyro_orbit_second_order(self, grid16):
        # position error against a classical fourth-order oracle at dt/100
        b_mag = 1.0
        e0 = VectorField3.zeros(grid16)
        b0 = VectorField3.constant(grid16, (0.0, 0.0, b_mag))
        x0 = np.array([8.0, 8.0, 8.0])
        v0 = np.array([0.3, 0.1, 0.05])
        horizon = 2.0

        def rk4(n_sub):
            dt = horizon / n_sub
            x, v = x0.copy(), v0.copy()
            bvec = np.array([0.0, 0.0, b_mag])

            def acc(vel):
                return -np.cross(vel, bvec)

            for _ in range(n_sub):
                k1x, k1v = v, acc(v)
                k2x, k2v = v + dt / 2 * k1v, acc(v + dt / 2 * k1v)
                k3x, k3v = v + dt / 2 * k2v, acc(v + dt / 2 * k2v)
                k4x, k4v = v + dt * k3v, acc(v + dt * k3v)
                x = x + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
                v = v + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
            return x % BOX

        errs = []
        for n_steps in (40, 80):
            p = ParticleEnsemble(x0[None, :], v0[None, :], [1.0])
            for _ in range(n_steps):
                p = lorentz_push(p, e0, b0, horizon / n_steps)
            errs.append(np.linalg.norm(p.positions[0] - rk4(n_steps * 100)))
        assert np.log2(errs[0] / errs[1]) >= 1.9

    def test_uniform_electric_field_is_exact(self, grid16):
        # q = -1: v(t) = v0 - E t exactly, for any step count
        efield = VectorField3.constant(grid16, (0.2, -0.1, 0.05))
        bfield = VectorField3.zeros(grid16)
        p = ParticleEnsemble([[1.0, 2.0, 3.0]], [[0.1, 0.0, 0.0]], [1.0])
        dt = 0.05
        for _ in range(40):
            p = lorentz_push(p, efield, bfield, dt)
        expected = np.array([0.1, 0.0, 0.0]) - np.array([0.2, -0.1, 0.05]) * dt * 40
        assert np.abs(p.velocities[0] - expected).max() < 1e-13

    def test_phase_space_volume_preserved(self):
        # Richardson-extrapolated central differences of the one-step map
        grid = PeriodicGrid.cubic(16, BOX)
        efield = band_limited_vector(grid, 1, k_cut=2, amplitude=0.5)
        bfield = band_limited_vector(grid, 2, k_cut=2, amplitude=0.5)
        dt = 1e-3
        z0 = np.array([8.43, 7.91, 8.22, 0.31, -0.22, 0.17])

        def flow(z):
            p = ParticleEnsemble(z[:3][None, :], z[3:][None, :], [1.0])
            p = lorentz_push(p, efield, bfield, dt)
            return np.concatenate([p.positions[0], p.velocities[0]])

        def jacobian(delta):
            cols = []
            for c in range(6):
                e = np.zeros(6)
                e[c] = delta
                cols.append((flow(z0 + e) - flow(z0 - e)) / (2 * delta))
            return np.stack(cols, axis=1)

        delta = 1e-3
        jac = (4.0 * jacobian(delta / 2) - jacobian(delta)) / 3.0
        assert abs(np.linalg.det(jac) - 1.0) < 1e-10

    def test_total_mass_invariant(self, grid16):
        p = sample_initial(UniformMaxwellian(0.4), 1000, 9, grid16)
        mass0 = p.total_mass
        efield = band_limited_vector(grid16, 3, k_cut=2, amplitude=0.3)
        bfield = band_limited_vector(grid16, 4, k_cut=2, amplitude=0.3)
        for _ in range(50):
            p = lorentz_push(p, efield, bfield, 1e-2)
        assert p.total_mass == mass0
        assert np.all(p.positions >= 0.0) and np.all(p.positions < BOX)

    def test_underresolved_gyration_warns(self, grid16):
        p = sample_initial(UniformMaxwellian(0.4), 8, 1, grid16)
        bfield = VectorField3.constant(grid16, (0.0, 0.0, 30.0))
        with pytest.warns(RuntimeWarning):
            lorentz_push(p, VectorField3.zeros(grid16), bfield, 0.1)

    def test_nan_fields_abort(self, grid16):
        h = grid16.spacing[0]
        p = ParticleEnsemble([[0.4 * h, 0.3 * h, 0.2 * h]], [[0.0, 0.0, 0.0]], [1.0])
        bad = np.zeros((3, *grid16.shape))
        bad[0, 0, 0, 0] = np.inf  # inside the particle's gather stencil
        efield = VectorField3.zeros(grid16)
        object.__setattr__(efield, "values", bad)
        with pytest.raises(BlowUpError):
            lorentz_push(p, efield, VectorField3.zeros(grid16), 1e-2)

    def test_rodrigues_mixed_zero_rotations(self):
        # rows with a zero rotation vector take no part in the rotation
        rng = np.random.default_rng(4)
        n = 300
        v = rng.standard_normal((n, 3))
        rotvec = 0.7 * rng.standard_normal((n, 3))
        zero = rng.random(n) < 0.3
        rotvec[zero] = 0.0
        assert zero.any() and not zero.all()
        out = _rodrigues_rotate(v, rotvec)
        assert np.array_equal(out[zero], v[zero])
        assert np.array_equal(out[~zero], _rodrigues_rotate(v[~zero], rotvec[~zero]))
        speeds = np.sqrt(np.sum(out**2, axis=1)) / np.sqrt(np.sum(v**2, axis=1))
        assert np.abs(speeds - 1.0).max() < 1e-14


class TestDeposit:
    def test_particle_on_node(self, grid16):
        h = grid16.spacing[0]
        p = ParticleEnsemble([[2 * h, 3 * h, 5 * h]], [[0.0, 0.0, 0.0]], [0.7])
        rho, j = deposit(p, grid16)
        assert rho.values[2, 3, 5] == pytest.approx(-0.7 / grid16.cell_volume, rel=1e-14)
        mask = np.ones(grid16.shape, dtype=bool)
        mask[2, 3, 5] = False
        assert np.abs(rho.values[mask]).max() == 0.0
        assert np.abs(j.values).max() == 0.0

    def test_total_charge_and_current_exact(self, grid16):
        p = sample_initial(BumpMaxwellian(CENTER, 1.2, 0.5), 5000, 13, grid16)
        rho, j = deposit(p, grid16)
        cv = grid16.cell_volume
        assert rho.values.sum() * cv == pytest.approx(-p.total_mass, rel=1e-13)
        expected_j = -np.sum(p.weights[:, None] * p.velocities, axis=0)
        measured_j = j.values.sum(axis=(1, 2, 3)) * cv
        assert np.abs(measured_j - expected_j).max() < 1e-13 * max(1.0, np.abs(expected_j).max())

    def test_particle_order_invariance(self, grid16):
        rng = np.random.default_rng(0)
        n = 700
        p = ParticleEnsemble(
            rng.random((n, 3)) * BOX, rng.standard_normal((n, 3)), np.full(n, 1.0 / n)
        )
        perm = rng.permutation(n)
        q = ParticleEnsemble(p.positions[perm], p.velocities[perm], p.weights[perm])
        rho_p, j_p = deposit(p, grid16)
        rho_q, j_q = deposit(q, grid16)
        assert np.array_equal(rho_p.values, rho_q.values)
        assert np.array_equal(j_p.values, j_q.values)

    def test_particle_order_invariance_with_ties(self, grid16):
        # x on a coarse lattice, so many particles share it, plus exact
        # duplicates: the canonical order has to fall back to the full key
        rng = np.random.default_rng(1)
        n = 700
        pos = rng.random((n, 3)) * BOX
        pos[:, 0] = rng.integers(0, 24, n) * (BOX / 24)
        vel = rng.standard_normal((n, 3))
        w = rng.random(n) / n
        src, dst = rng.choice(n, (2, 60), replace=False)
        pos[dst], vel[dst], w[dst] = pos[src], vel[src], w[src]
        assert np.unique(pos[:, 0]).size < n
        rho_p, j_p = deposit(ParticleEnsemble(pos, vel, w), grid16)
        perms = [np.random.default_rng(seed).permutation(n) for seed in range(4)]
        # x already non-decreasing, tied x in no particular order
        perms.append(perms[0][np.argsort(pos[perms[0], 0], kind="stable")])
        for perm in perms:
            rho_q, j_q = deposit(ParticleEnsemble(pos[perm], vel[perm], w[perm]), grid16)
            assert np.array_equal(rho_p.values, rho_q.values)
            assert np.array_equal(j_p.values, j_q.values)

    def test_resting_uniform_ensemble(self):
        grid = PeriodicGrid.cubic(8, BOX)
        n = 100000
        rng = np.random.default_rng(21)
        p = ParticleEnsemble(rng.random((n, 3)) * BOX, np.zeros((n, 3)), np.full(n, 1.0 / n))
        rho, j = deposit(p, grid)
        assert np.abs(j.values).max() == 0.0
        mean = rho.values.mean()
        per_cell = n / grid.n_nodes
        assert np.abs(rho.values / mean - 1.0).max() < 5.0 / np.sqrt(per_cell)

    def test_gather_deposit_roundtrip_on_constant(self, grid16):
        field = VectorField3.constant(grid16, (0.3, -1.0, 2.0))
        rng = np.random.default_rng(17)
        pos = rng.random((50, 3)) * BOX
        (gathered,) = gather([field], pos)
        assert np.abs(gathered - np.array([0.3, -1.0, 2.0])).max() < 1e-14

    def test_gather_matches_reference(self):
        # unequal cell counts and box lengths, so a swapped axis or stride
        # shows; some particles sit exactly on nodes or on upper cell faces
        shape, box = (8, 12, 16), (5.0, 7.0, 11.0)
        grid = PeriodicGrid(shape, box)
        h = np.asarray(grid.spacing)
        rng = np.random.default_rng(8)
        fields = [VectorField3(grid, rng.standard_normal((3, *shape))) for _ in range(2)]
        pos = rng.random((300, 3)) * box
        pos[:30] = rng.integers(0, shape, (30, 3)) * h
        cells = rng.integers(0, shape, (30, 3))
        axes = rng.integers(0, 3, 30)
        pos[30 + np.arange(30), axes] = (cells[np.arange(30), axes] + 1) * h[axes]

        def reference(values, x):
            xi = [x[a] / grid.spacing[a] for a in range(3)]
            lower = [np.floor(v) for v in xi]
            total = np.zeros(3)
            for bx in (0, 1):
                for by in (0, 1):
                    for bz in (0, 1):
                        bits = (bx, by, bz)
                        frac = [xi[a] - lower[a] for a in range(3)]
                        w = [frac[a] if bits[a] else 1.0 - frac[a] for a in range(3)]
                        node = [(int(lower[a]) + bits[a]) % shape[a] for a in range(3)]
                        total = total + values[:, node[0], node[1], node[2]] * (w[0] * w[1] * w[2])
            return total

        gathered = gather(fields, pos)
        for field, values in zip(fields, gathered):
            expected = np.array([reference(field.values, x) for x in pos])
            assert np.array_equal(values, expected)
        assert np.array_equal(gather(fields[:1], pos)[0], gathered[0])

    def test_empty_ensemble(self, grid16):
        rho, j = deposit(ParticleEnsemble.empty(), grid16)
        assert np.abs(rho.values).max() == 0.0
        assert np.abs(j.values).max() == 0.0


class TestMoments:
    def test_exponent_matches_closed_form(self):
        assert moment_exponent(2, 1, 4) == 17.0 / 14.0
        assert moment_exponent_exact(2, 1, 4) == Fraction(17, 14)
        # and the general formula reduces to (5r-3)/(4r-2) at k=2, k'=1, p=r
        for r in (4, 5, 8):
            assert moment_exponent_exact(2, 1, r) == Fraction(5 * r - 3, 4 * r - 2)

    def test_exponent_rejects_bad_orders(self):
        with pytest.raises(ContractViolation):
            moment_exponent(1, 2, 4)

    def test_empty_ensemble_moments_vanish(self, grid16):
        report = moment_report(ParticleEnsemble.empty(), grid16, k_list=(0, 1, 2))
        assert report.m0 == 0.0
        assert report.m2 == 0.0

    def test_homogeneity_under_weight_scaling(self, grid16):
        p = sample_initial(BumpMaxwellian(CENTER, 1.4, 0.3), 4000, 3, grid16)
        scaled = ParticleEnsemble(p.positions, p.velocities, 2.0 * p.weights)
        f4 = 1.23  # stand-in ||f||_{L^4}; scales linearly under f -> 2 f
        rep1 = moment_report(p, grid16, lp_checks=[(2, 1, 4)], f_lp_norms={4: f4})
        rep2 = moment_report(scaled, grid16, lp_checks=[(2, 1, 4)], f_lp_norms={4: 2.0 * f4})
        e1 = rep1.lp_estimates[(2, 1, 4)]
        e2 = rep2.lp_estimates[(2, 1, 4)]
        assert abs(e1["exponent_sum"] - 1.0) < 1e-12
        assert abs(e2["lhs"] / e1["lhs"] - 2.0) < 1e-12
        assert abs(e2["rhs"] / e1["rhs"] - 2.0) < 1e-12

    def test_maxwellian_moment_density_oracle(self):
        # closed-form L^(17/14) norm of m1 for a Gaussian bump Maxwellian
        grid = PeriodicGrid.cubic(32, BOX)
        sigma, v_th, mass = 1.6, 0.3, 1.0
        spec = BumpMaxwellian(CENTER, sigma, v_th, mass)
        p = sample_initial(spec, 100000, 7, grid)
        ell = moment_exponent(2, 1, 4)
        lhs = lp_norm_of_field(deposit_moment(p, grid, 1), ell)
        mean_speed = v_th * np.sqrt(8.0 / np.pi)
        gauss_norm = (2.0 * np.pi * sigma**2) ** (3.0 * (1.0 - ell) / (2.0 * ell)) * ell ** (
            -3.0 / (2.0 * ell)
        )
        oracle = mass * mean_speed * gauss_norm
        assert abs(lhs / oracle - 1.0) < 0.05

    def test_moment_check_rejects_kprime_above_k(self, grid16):
        p = sample_initial(UniformMaxwellian(0.3), 10, 1, grid16)
        with pytest.raises(ContractViolation):
            moment_report(p, grid16, lp_checks=[(1, 2, 4)])
