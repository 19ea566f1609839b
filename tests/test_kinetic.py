"""Particle sampling, the Boris-type push, deposition, and velocity moments."""

import warnings
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
    read_snapshot,
    sample_initial,
    write_snapshot,
)
from llgvm import kinetic
from llgvm.errors import BlowUpError, ConfigError, ContractViolation
from llgvm.kinetic import (
    _CHUNK,
    CHARGE,
    ParticleEnsemble,
    _rodrigues_rotate,
    _wrap,
    analytic_m2,
    canonical,
    deposit_charge,
    lp_norm_of_field,
    moment_exponent_exact,
    total_moment,
)
from llgvm.selftest import speed_drift

from conftest import BOX, band_limited_vector

CENTER = (BOX / 2, BOX / 2, BOX / 2)
NON_CUBIC = (BOX, 7.3, 0.37)


def bits(a):
    """The int64 view of a float64 array: equal bits, so -0.0 differs from 0.0."""
    return np.ascontiguousarray(a).view(np.int64)


def reference_deposit(p, grid):
    """rho and j as one np.add.at per density over the whole ensemble in canonical
    order, particle-major: particle by particle, corner by corner within one."""
    q = canonical(p)
    n = np.asarray(grid.n_cells)[:, None]
    frac = q.positions / np.asarray(grid.spacing)[:, None]
    lower = np.floor(frac)
    frac -= lower
    nodes = (lower.astype(np.int64) % n, (lower.astype(np.int64) + 1) % n)
    weights = (1.0 - frac, frac)
    _, ny, nz = grid.n_cells
    idx = np.empty((q.count, 8), dtype=np.int64)
    wgt = np.empty((q.count, 8))
    for c in range(8):
        bx, by, bz = c >> 2, (c >> 1) & 1, c & 1
        idx[:, c] = (nodes[bx][0] * ny + nodes[by][1]) * nz + nodes[bz][2]
        wgt[:, c] = (weights[bx][0] * weights[by][1]) * weights[bz][2]
    densities = []
    for row in (q.weights, *(q.weights * q.velocities)):
        acc = np.zeros(grid.n_nodes)
        np.add.at(acc, idx.reshape(-1), ((wgt * row[:, None]) / grid.cell_volume).reshape(-1))
        densities.append(CHARGE * acc.reshape(grid.shape))
    return densities[0], np.stack(densities[1:])


def reference_push(p, e_tot, b_tot, dt):
    """The push as one pass over the whole ensemble, wrapping with %."""
    box = np.asarray(e_tot.grid.box_length)[:, None]
    x = p.positions + 0.5 * dt * p.velocities
    x %= box
    e_p, b_p = gather((e_tot, b_tot), x)
    half_kick = 0.5 * dt * CHARGE * e_p
    v = p.velocities + half_kick
    b_p *= -CHARGE * dt
    v = _rodrigues_rotate(v, b_p)
    v += half_kick
    x += 0.5 * dt * v
    x %= box
    return x, v


class TestSampling:
    def test_delta_spec_places_one_particle(self, grid16):
        spec = DeltaSpec(position=(1.0, 2.0, 3.0), velocity=(0.5, 0.0, -0.25), mass=2.5)
        p = sample_initial(spec, 1, 0, grid16)
        assert p.count == 1
        assert np.allclose(p.positions[:, 0], (1.0, 2.0, 3.0))
        assert np.allclose(p.velocities[:, 0], (0.5, 0.0, -0.25))
        assert p.weights[0] == 2.5
        with pytest.raises(ConfigError):
            sample_initial(spec, 2, 0, grid16)

    def test_maxwellian_second_moment(self, grid16):
        n = 40000
        spec = BumpMaxwellian(CENTER, 1.6, 0.3, mass=2.0)
        p = sample_initial(spec, n, 11, grid16)
        assert p.total_mass == pytest.approx(2.0, rel=1e-13)
        m2 = float(np.sum(p.weights * np.sum(p.velocities**2, axis=0)))
        assert abs(m2 / analytic_m2(spec) - 1.0) < 5.0 / np.sqrt(n)

    def test_two_seeds_agree_within_pooled_error(self, grid16):
        n = 20000
        spec = UniformMaxwellian(0.4)
        samples = []
        for seed in (3, 4):
            p = sample_initial(spec, n, seed, grid16)
            contrib = p.weights * np.sum(p.velocities**2, axis=0)
            samples.append((contrib.sum(), n * contrib.std() / np.sqrt(n)))
        diff = abs(samples[0][0] - samples[1][0])
        pooled = np.hypot(samples[0][1], samples[1][1])
        assert diff < 3.0 * pooled

    def test_two_stream_moment(self, grid16):
        spec = TwoStream(drift=0.8, v_thermal=0.2)
        p = sample_initial(spec, 30000, 5, grid16)
        m2 = float(np.sum(p.weights * np.sum(p.velocities**2, axis=0)))
        assert abs(m2 / analytic_m2(spec) - 1.0) < 5.0 / np.sqrt(30000)

    def test_determinism(self, grid16):
        spec = BumpMaxwellian(CENTER, 1.0, 0.3)
        a = sample_initial(spec, 500, 42, grid16)
        b = sample_initial(spec, 500, 42, grid16)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)

    @pytest.mark.parametrize("cutoff", [kinetic.VELOCITY_CUTOFF_SIGMAS, 1.0], ids=["default", "redraws"])
    @pytest.mark.parametrize("spec", [BumpMaxwellian(CENTER, 1.0, 0.3), TwoStream(0.8, 0.3)], ids=["bump", "two_stream"])
    def test_rejection_matches_the_full_retest(self, monkeypatch, grid16, spec, cutoff):
        redrawn = []

        def full_retest(rng, n, cut):
            """The rejection loop as first written: np.sum over every row after each redraw."""
            out = rng.standard_normal((n, 3))
            while True:
                bad = np.flatnonzero(np.sum(out**2, axis=1) > cut**2)
                if bad.size == 0:
                    return out
                redrawn.append(bad.size)
                out[bad] = rng.standard_normal((bad.size, 3))

        monkeypatch.setattr(kinetic, "VELOCITY_CUTOFF_SIGMAS", cutoff)
        got = sample_initial(spec, 3000, 8, grid16)
        monkeypatch.setattr(kinetic, "_truncated_normals", full_retest)
        want = sample_initial(spec, 3000, 8, grid16)
        for name in ("positions", "velocities", "weights"):
            assert np.array_equal(bits(getattr(got, name)), bits(getattr(want, name)))
        if cutoff == 1.0:
            assert len(redrawn) > 1  # rows redrawn more than once

    def test_bump_must_fit_in_box(self, grid16):
        with pytest.raises(ConfigError):
            sample_initial(BumpMaxwellian(CENTER, 3.0, 0.3), 100, 0, grid16)

    # A run takes its spec class from F0_KINDS, so only a Python caller can pass an unknown spec.
    @pytest.mark.parametrize(
        "spec, n, message",
        [(UniformMaxwellian(0.4), 0, "need at least one particle"), (object(), 10, "unknown initial distribution")],
        ids=["no-particles", "unknown-spec"],
    )
    def test_unusable_request_rejected(self, grid16, spec, n, message):
        with pytest.raises(ConfigError, match=message):
            sample_initial(spec, n, 0, grid16)

    @pytest.mark.parametrize(
        "spec, m2",
        [
            (UniformMaxwellian(0.5, mass=2.0), 1.5),  # 2 * 3 * 0.5^2
            (DeltaSpec((1.0, 2.0, 3.0), (0.5, 0.0, -0.25), mass=2.5), 0.78125),  # 2.5 * 0.3125
        ],
        ids=["uniform", "delta"],
    )
    def test_analytic_m2_closed_form(self, spec, m2):
        assert analytic_m2(spec) == m2

    def test_analytic_m2_rejects_an_unknown_spec(self):
        with pytest.raises(ConfigError, match="unknown initial distribution"):
            analytic_m2(object())

    def test_negative_weights_rejected(self):
        with pytest.raises(ContractViolation):
            ParticleEnsemble(np.zeros((3, 1)), np.zeros((3, 1)), [-1.0])

    def test_constructor_takes_only_3_by_n_rows(self):
        with pytest.raises(ContractViolation):  # per-particle (n, 3) records
            ParticleEnsemble(np.zeros((4, 3)), np.zeros((4, 3)), np.ones(4))
        with pytest.raises(ContractViolation):
            ParticleEnsemble(np.zeros((3, 4)), np.zeros((3, 5)), np.ones(4))
        with pytest.raises(ContractViolation):
            ParticleEnsemble(np.zeros((3, 4)), np.zeros((3, 4)), np.ones(5))


class TestLayout:
    def test_ensembles_are_stored_as_contiguous_rows(self, grid16, tmp_path):
        p = sample_initial(UniformMaxwellian(0.4), 50, 2, grid16)
        efield = band_limited_vector(grid16, 5, k_cut=2, amplitude=0.3)
        bfield = band_limited_vector(grid16, 6, k_cut=2, amplitude=0.3)
        pushed = lorentz_push(p, efield, bfield, 1e-2)
        reversed_p = ParticleEnsemble(p.positions[:, ::-1], p.velocities[:, ::-1], p.weights[::-1])
        reordered = canonical(reversed_p)
        assert reordered is not reversed_p
        path = tmp_path / "p.snap"
        write_snapshot(p, path)
        loaded = read_snapshot(path).payload
        for q in (p, pushed, reordered, loaded):
            for rows in (q.positions, q.velocities):
                assert rows.shape == (3, 50)
                assert rows.dtype == np.float64 and rows.flags.c_contiguous


class TestLorentzPush:
    def test_speed_conserved_in_pure_magnetic_field(self, grid16):
        p = sample_initial(UniformMaxwellian(0.4), 256, 7, grid16)
        e0 = VectorField3.zeros(grid16)
        b0 = VectorField3.constant(grid16, (0.0, 0.0, 1.0))
        drift, _ = speed_drift(p, e0, b0, 1e-2, 10000)
        assert drift < 1e-11

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
            p = ParticleEnsemble(x0[:, None], v0[:, None], [1.0])
            for _ in range(n_steps):
                p = lorentz_push(p, e0, b0, horizon / n_steps)
            errs.append(np.linalg.norm(p.positions[:, 0] - rk4(n_steps * 100)))
        assert np.log2(errs[0] / errs[1]) >= 1.9

    def test_uniform_electric_field_is_exact(self, grid16):
        # q = -1: v(t) = v0 - E t exactly, for any step count
        efield = VectorField3.constant(grid16, (0.2, -0.1, 0.05))
        bfield = VectorField3.zeros(grid16)
        p = ParticleEnsemble([[1.0], [2.0], [3.0]], [[0.1], [0.0], [0.0]], [1.0])
        dt = 0.05
        for _ in range(40):
            p = lorentz_push(p, efield, bfield, dt)
        expected = np.array([0.1, 0.0, 0.0]) - np.array([0.2, -0.1, 0.05]) * dt * 40
        assert np.abs(p.velocities[:, 0] - expected).max() < 1e-13

    def test_phase_space_volume_preserved(self):
        # Richardson-extrapolated central differences of the one-step map
        grid = PeriodicGrid.cubic(16, BOX)
        efield = band_limited_vector(grid, 1, k_cut=2, amplitude=0.5)
        bfield = band_limited_vector(grid, 2, k_cut=2, amplitude=0.5)
        dt = 1e-3
        z0 = np.array([8.43, 7.91, 8.22, 0.31, -0.22, 0.17])

        def flow(z):
            p = ParticleEnsemble(z[:3, None], z[3:, None], [1.0])
            p = lorentz_push(p, efield, bfield, dt)
            return np.concatenate([p.positions[:, 0], p.velocities[:, 0]])

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

    def test_empty_ensemble_pushes_to_empty_without_a_warning(self, grid16):
        bfield = VectorField3.constant(grid16, (0.0, 0.0, 30.0))  # would warn for any particle
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = lorentz_push(ParticleEnsemble.empty(), VectorField3.zeros(grid16), bfield, 0.1)
        assert p.count == 0 and p.positions.shape == p.velocities.shape == (3, 0)

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_non_finite_dt_rejected(self, grid16, dt):
        p = sample_initial(UniformMaxwellian(0.4), 8, 1, grid16)
        efield = VectorField3.zeros(grid16)
        with pytest.raises(ContractViolation, match="dt must be positive and finite"):
            lorentz_push(p, efield, efield, dt)

    def test_field_grids_must_agree(self, grid16, grid32):
        p = sample_initial(UniformMaxwellian(0.4), 8, 1, grid16)
        with pytest.raises(ContractViolation, match="field grids differ"):
            lorentz_push(p, VectorField3.zeros(grid16), VectorField3.zeros(grid32), 0.1)

    def test_nan_fields_abort(self, grid16):
        h = grid16.spacing[0]
        p = ParticleEnsemble([[0.4 * h], [0.3 * h], [0.2 * h]], np.zeros((3, 1)), [1.0])
        bad = np.zeros((3, *grid16.shape))
        bad[0, 0, 0, 0] = np.inf  # inside the particle's gather stencil
        efield = VectorField3.zeros(grid16)
        object.__setattr__(efield, "values", bad)
        with pytest.raises(BlowUpError):
            lorentz_push(p, efield, VectorField3.zeros(grid16), 1e-2)

    def test_overflowing_drift_aborts(self):
        # finite fields gather non-finite values only at a non-finite position
        grid = PeriodicGrid.cubic(8, BOX)
        p = ParticleEnsemble(np.full((3, 1), 1.0), [[1e308], [0.0], [0.0]], [1.0])
        zero = VectorField3.zeros(grid)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError, match="non-finite particle position: the half-step drift overflowed"):
                lorentz_push(p, zero, zero, 4.0)

    def test_rodrigues_mixed_zero_rotations(self):
        # columns with a zero rotation vector take no part in the rotation
        rng = np.random.default_rng(4)
        n = 300
        v = rng.standard_normal((n, 3)).T
        rotvec = 0.7 * rng.standard_normal((n, 3)).T
        zero = rng.random(n) < 0.3
        rotvec[:, zero] = 0.0
        assert zero.any() and not zero.all()
        out = _rodrigues_rotate(v, rotvec)
        assert np.array_equal(out[:, zero], v[:, zero])
        assert np.array_equal(out[:, ~zero], _rodrigues_rotate(v[:, ~zero], rotvec[:, ~zero]))
        speeds = np.sqrt(np.sum(out**2, axis=0)) / np.sqrt(np.sum(v**2, axis=0))
        assert np.abs(speeds - 1.0).max() < 1e-14


    def test_rodrigues_zero_angle_columns_unchanged(self):
        # a rotation vector whose angle underflows to 0 rotates nothing, like a zero one;
        # a rotating column matches the textbook formula written with np.cross
        v = np.random.default_rng(5).standard_normal((3, 4))
        rotvec = np.zeros((3, 4))
        rotvec[:, 1] = 1e-163
        rotvec[0, 2] = -1e-200
        rotvec[:, 3] = (0.3, -0.5, 0.2)
        out = _rodrigues_rotate(v, rotvec)
        assert np.array_equal(out[:, :3], v[:, :3])
        assert np.array_equal(_rodrigues_rotate(v, np.zeros((3, 4))), v)
        angle = np.linalg.norm(rotvec[:, 3])
        u, w = rotvec[:, 3] / angle, v[:, 3]
        ref = w * np.cos(angle) + np.cross(u, w) * np.sin(angle) + u * np.dot(u, w) * (1.0 - np.cos(angle))
        assert np.allclose(out[:, 3], ref, rtol=0.0, atol=1e-15)


class TestWrap:
    @staticmethod
    def check(rows, box):
        """_wrap of (3, m) rows is bitwise x % box."""
        x = np.array(rows, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            ref = x % np.asarray(box)[:, None]
            _wrap(x, box)
        assert np.array_equal(bits(x), bits(ref))

    @staticmethod
    def edges(length):
        return [
            -0.0, 0.0, length, -length, np.nextafter(length, 0.0), np.nextafter(-length, 0.0),
            np.nextafter(2.0 * length, 0.0), 2.0 * length - 1e-15, -1e-17, -1e-300,
        ]

    def test_edge_values_one_at_a_time(self):
        # alone, each value in [-L, 2L) takes the add-or-subtract path
        for column in zip(*(self.edges(length) for length in NON_CUBIC)):
            self.check(np.array(column)[:, None], NON_CUBIC)

    def test_edge_values_together(self):
        self.check([self.edges(length) for length in NON_CUBIC], NON_CUBIC)

    # one value outside [-L, 2L) sends its row through np.remainder
    @pytest.mark.parametrize("multiple", [5.0, -5.0])
    def test_multiples_of_the_box(self, multiple):
        self.check([self.edges(length) + [multiple * length] for length in NON_CUBIC], NON_CUBIC)

    @pytest.mark.parametrize("far", [1e300, -1e300, np.inf, -np.inf, np.nan])
    def test_huge_and_non_finite_values(self, far):
        self.check([self.edges(length) + [far] for length in NON_CUBIC], NON_CUBIC)

    @pytest.mark.parametrize("scale", [1.0, 1e-12])
    def test_uniform_draws(self, scale):
        box = tuple(scale * length for length in NON_CUBIC)
        rng = np.random.default_rng(8)
        self.check([rng.uniform(-length, 2.0 * length, 5000) for length in box], box)


class TestCicCorners:
    GRID = PeriodicGrid((16, 12, 8), NON_CUBIC)

    @staticmethod
    def reference(grid, positions):
        """The stencil with every node index row wrapped by %=."""
        _, ny, nz = grid.n_cells
        n = np.asarray(grid.n_cells)[:, None]
        frac = positions / np.asarray(grid.spacing)[:, None]
        lower = np.floor(frac)
        frac -= lower
        i0 = lower.astype(np.int64)
        i0 %= n
        nodes, weights = (i0, (i0 + 1) % n), (1.0 - frac, frac)
        idx, wgt = [], []
        for bx in (0, 1):
            for by in (0, 1):
                for bz in (0, 1):
                    idx.append((nodes[bx][0] * ny + nodes[by][1]) * nz + nodes[bz][2])
                    wgt.append(weights[bx][0] * weights[by][1] * weights[bz][2])
        return np.array(idx), np.array(wgt)

    @staticmethod
    def positions(at_box_length):
        rng = np.random.default_rng(12)
        box = np.asarray(NON_CUBIC)[:, None]
        pos = rng.random((3, 3000)) * box
        pos[:, 0] = 0.0
        pos[:, 1] = np.nextafter(box[:, 0], 0.0)
        if at_box_length:
            pos[:, 2] = box[:, 0]  # x = L, which _wrap can leave: index n wraps to 0
        return pos

    @pytest.mark.parametrize(
        "at_box_length, axes, shift",
        [(False, (), 0.0), (True, (), 0.0)]
        + [(True, (axis,), s) for axis in range(3) for s in (-1.0, 1.0, 2.0)]
        + [(True, (0, 1, 2), s) for s in (-1.0, 1.0, 2.0)],
    )
    def test_bitwise_the_wrap_of_every_row(self, at_box_length, axes, shift):
        pos = self.positions(at_box_length)
        for axis in axes:
            pos[axis] += shift * NON_CUBIC[axis]
        idx, wgt = kinetic._cic_corners(self.GRID, pos)
        ref_idx, ref_wgt = self.reference(self.GRID, pos)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(bits(wgt), bits(ref_wgt))
        assert idx.min() >= 0 and idx.max() < self.GRID.n_nodes


class TestChunkedPush:
    # whole multiples of the chunk, one off each side of one, and a remainder
    @pytest.mark.parametrize("n", [1, 4 * _CHUNK - 1, 4 * _CHUNK, 4 * _CHUNK + 1, 8 * _CHUNK + 3])
    def test_bitwise_equal_to_one_pass(self, grid16, n):
        p = sample_initial(TwoStream(0.8, 0.3), n, 11, grid16)
        efield = band_limited_vector(grid16, 3, k_cut=2, amplitude=0.3)
        bfield = band_limited_vector(grid16, 4, k_cut=2, amplitude=0.3)
        dt = 0.7  # many particles cross a box face
        x, v = reference_push(p, efield, bfield, dt)
        pushed = lorentz_push(p, efield, bfield, dt)
        assert np.array_equal(bits(pushed.positions), bits(x))
        assert np.array_equal(bits(pushed.velocities), bits(v))
        assert pushed.weights is p.weights

    @staticmethod
    def last_chunk_apart(grid, extra=5):
        """_CHUNK resting particles at x < L/4, then `extra` at x in [L/2, 0.7 L]."""
        n = _CHUNK + extra
        pos = np.random.default_rng(12).random((3, n)) * np.asarray(grid.box_length)[:, None]
        pos[0, :_CHUNK] *= 0.25
        pos[0, _CHUNK:] = grid.box_length[0] * np.linspace(0.5, 0.7, extra)
        return ParticleEnsemble(pos, np.zeros((3, n)), np.full(n, 1.0 / n))

    def test_one_warning_when_only_the_last_chunk_is_under_resolved(self, grid16):
        p = self.last_chunk_apart(grid16)
        bvals = np.zeros((3, *grid16.shape))
        bvals[2, grid16.n_cells[0] // 2 - 2 :] = 30.0  # reaches no node of the first chunk
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lorentz_push(p, VectorField3.zeros(grid16), VectorField3(grid16, bvals), 0.1)
        assert [w.category for w in caught] == [RuntimeWarning]

    def test_inf_in_the_last_chunk_aborts_without_a_warning(self, grid16):
        p = self.last_chunk_apart(grid16)
        evals = np.zeros((3, *grid16.shape))
        evals[0, grid16.n_cells[0] // 2 + 2 :] = np.inf  # reaches no node of the first chunk
        bfield = VectorField3.constant(grid16, (0.0, 0.0, 30.0))  # every chunk under-resolved
        efield = VectorField3.zeros(grid16)
        object.__setattr__(efield, "values", evals)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(BlowUpError):
                lorentz_push(p, efield, bfield, 0.1)
        assert caught == []


class TestDeposit:
    def test_particle_on_node(self, grid16):
        h = grid16.spacing[0]
        p = ParticleEnsemble([[2 * h], [3 * h], [5 * h]], np.zeros((3, 1)), [0.7])
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
        expected_j = -np.sum(p.weights * p.velocities, axis=1)
        measured_j = j.values.sum(axis=(1, 2, 3)) * cv
        assert np.abs(measured_j - expected_j).max() < 1e-13 * max(1.0, np.abs(expected_j).max())

    def test_particle_order_invariance(self, grid16):
        rng = np.random.default_rng(0)
        n = 700
        p = ParticleEnsemble(
            (rng.random((n, 3)) * BOX).T, rng.standard_normal((n, 3)).T, np.full(n, 1.0 / n)
        )
        perm = rng.permutation(n)
        q = ParticleEnsemble(p.positions[:, perm], p.velocities[:, perm], p.weights[perm])
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
        rho_p, j_p = deposit(ParticleEnsemble(pos.T, vel.T, w), grid16)
        perms = [np.random.default_rng(seed).permutation(n) for seed in range(4)]
        # x already non-decreasing, tied x in no particular order
        perms.append(perms[0][np.argsort(pos[perms[0], 0], kind="stable")])
        for perm in perms:
            rho_q, j_q = deposit(ParticleEnsemble(pos[perm].T, vel[perm].T, w[perm]), grid16)
            assert np.array_equal(rho_p.values, rho_q.values)
            assert np.array_equal(j_p.values, j_q.values)

    @pytest.mark.parametrize("case", ["fresh", "pushed", "tied"])
    def test_both_sort_kinds_give_one_canonical_ensemble(self, monkeypatch, grid16, case):
        p = sample_initial(TwoStream(0.8, 0.3), 2 * _CHUNK + 3, 17, grid16)
        if case == "pushed":
            zero = VectorField3.zeros(grid16)
            p = lorentz_push(canonical(p), zero, zero, 1e-4)
        if case == "tied":  # x on a coarse lattice, so the full key has to order the ties
            p = ParticleEnsemble(np.vstack([np.floor(p.positions[:1]), p.positions[1:]]), p.velocities, p.weights)
        x = p.positions[0]
        assert (np.mean(x[1:] > x[:-1]) >= kinetic._PRESORTED) == (case == "pushed")
        argsort, lexsort = np.argsort, np.lexsort
        kinds, lexsorts = [], []
        monkeypatch.setattr(np, "argsort", lambda a, kind=None: kinds.append(kind) or argsort(a, kind=kind))
        monkeypatch.setattr(np, "lexsort", lambda keys: lexsorts.append(len(keys)) or lexsort(keys))
        ensembles = []
        for presorted in (0.0, 2.0):  # timsort at any share of rising pairs, then at none
            monkeypatch.setattr(kinetic, "_PRESORTED", presorted)
            ensembles.append(canonical(p))
        assert kinds == ["stable", None]
        assert lexsorts == ([7, 7] if case == "tied" else [])
        q = ensembles[0]
        for name in ("positions", "velocities", "weights"):
            assert np.array_equal(getattr(q, name), getattr(ensembles[1], name))
        keys = (q.weights, *q.velocities[::-1], *q.positions[::-1])
        assert np.array_equal(lexsort(keys), np.arange(q.count))

    def test_positions_need_no_wrap(self, grid16):
        # the stencil wraps node indices, so shifting positions by whole box
        # lengths changes the densities only by the rounding of frac
        rng = np.random.default_rng(6)
        n = 500
        pos = rng.random((3, n)) * BOX
        pos[:, :2] = [[0.0, BOX], [BOX, 0.0], [0.0, 0.0]]
        vel = rng.standard_normal((3, n))
        w = rng.random(n) / n
        rho0, j0 = deposit(ParticleEnsemble(pos, vel, w), grid16)
        for axis in range(3):
            for shift in (-BOX, BOX, 2 * BOX):
                moved = pos.copy()
                moved[axis] += shift
                rho, j = deposit(ParticleEnsemble(moved, vel, w), grid16)
                assert np.abs(rho.values - rho0.values).max() <= 1e-12 * np.abs(rho0.values).max()
                assert np.abs(j.values - j0.values).max() <= 1e-12 * np.abs(j0.values).max()

    def test_resting_uniform_ensemble(self):
        grid = PeriodicGrid.cubic(8, BOX)
        n = 100000
        rng = np.random.default_rng(21)
        p = ParticleEnsemble((rng.random((n, 3)) * BOX).T, np.zeros((3, n)), np.full(n, 1.0 / n))
        rho, j = deposit(p, grid)
        assert np.abs(j.values).max() == 0.0
        mean = rho.values.mean()
        per_cell = n / grid.n_nodes
        assert np.abs(rho.values / mean - 1.0).max() < 5.0 / np.sqrt(per_cell)

    def test_gather_deposit_roundtrip_on_constant(self, grid16):
        field = VectorField3.constant(grid16, (0.3, -1.0, 2.0))
        rng = np.random.default_rng(17)
        pos = rng.random((50, 3)) * BOX
        (gathered,) = gather([field], pos.T)
        assert np.abs(gathered - np.array([0.3, -1.0, 2.0])[:, None]).max() < 1e-14

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

        gathered = gather(fields, pos.T)
        for field, values in zip(fields, gathered):
            expected = np.array([reference(field.values, x) for x in pos]).T
            assert np.array_equal(values, expected)
        assert np.array_equal(gather(fields[:1], pos.T)[0], gathered[0])

    @pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    def test_bitwise_equal_to_particle_major_reference(self, grid16, n):
        p = sample_initial(TwoStream(0.8, 0.3), n, 11, grid16)  # in sampling order
        rho, j = deposit(p, grid16)
        rho_ref, j_ref = reference_deposit(p, grid16)
        assert np.array_equal(bits(rho.values), bits(rho_ref))
        assert np.array_equal(bits(j.values), bits(j_ref))

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_size_leaves_the_sums_unchanged(self, monkeypatch, grid16, chunk):
        p = sample_initial(TwoStream(0.8, 0.3), 700, 5, grid16)
        rho, j = deposit(p, grid16)
        monkeypatch.setattr(kinetic, "_CHUNK", chunk)
        rho_c, j_c = deposit(p, grid16)
        assert np.array_equal(bits(rho_c.values), bits(rho.values))
        assert np.array_equal(bits(j_c.values), bits(j.values))

    def test_zeroth_moment_density_is_minus_rho(self, grid16):
        # w |v|^0 is w itself, so the one deposit path gives -rho bit for bit
        p = sample_initial(TwoStream(0.8, 0.3), 2 * _CHUNK + 3, 9, grid16)
        rho, _ = deposit(p, grid16)
        assert np.array_equal(bits(deposit_moment(p, grid16, 0).values), bits(-rho.values))

    def test_empty_ensemble(self, grid16):
        rho, j = deposit(ParticleEnsemble.empty(), grid16)
        assert np.abs(rho.values).max() == 0.0
        assert np.abs(j.values).max() == 0.0

    @pytest.mark.parametrize("n", [1, 2 * _CHUNK + 3])
    def test_charge_alone_is_the_deposits_rho(self, grid16, n):
        p = sample_initial(TwoStream(0.8, 0.3), n, 13, grid16)  # in sampling order
        rho, _ = deposit(p, grid16)
        assert np.array_equal(bits(deposit_charge(p, grid16).values), bits(rho.values))

    def test_charge_of_an_empty_ensemble(self, grid16):
        rho = deposit_charge(ParticleEnsemble.empty(), grid16)
        assert rho.grid == grid16 and not np.signbit(rho.values).any() and not rho.values.any()


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

    @pytest.mark.parametrize(
        "k, k_prime, p", [(2, np.nan, 2), (2, 0, np.nan), (2, 0, np.inf), (np.inf, 0, 2)]
    )
    def test_exponent_rejects_non_finite_orders(self, k, k_prime, p):
        with pytest.raises(ContractViolation, match="need"):
            moment_exponent(k, k_prime, p)

    @pytest.mark.parametrize("order", [-1.0, np.nan, np.inf])
    def test_total_moment_rejects_bad_orders(self, grid16, order):
        p = sample_initial(UniformMaxwellian(0.3), 10, 1, grid16)
        with pytest.raises(ContractViolation, match="moment order"):
            total_moment(p, order)

    @pytest.mark.parametrize("order", [np.nan, np.inf])
    def test_deposit_moment_rejects_non_finite_orders(self, grid16, order):
        # speeds above 1, so |v|^inf is inf and |v|^nan is nan
        p = sample_initial(UniformMaxwellian(3.0), 10, 1, grid16)
        with pytest.raises(ContractViolation, match="moment order"):
            deposit_moment(p, grid16, order)

    def test_empty_ensemble_moments_vanish(self, grid16):
        report = moment_report(ParticleEnsemble.empty(), grid16, k_list=(0, 1, 2))
        assert report.m0 == 0.0
        assert report.m2 == 0.0
        density = deposit_moment(ParticleEnsemble.empty(), grid16, 2)
        assert density.grid == grid16 and not np.any(density.values)

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

    def test_report_computes_each_moment_once(self, grid16, monkeypatch):
        p = sample_initial(UniformMaxwellian(0.3), 10, 1, grid16)
        orders = []

        def recording(p, order):
            orders.append(order)
            return total_moment(p, order)

        monkeypatch.setattr(kinetic, "total_moment", recording)
        report = moment_report(p, grid16, (0, 2), ((2, 1, 4),))
        assert orders == [0, 2]
        assert report.m2 == total_moment(p, 2)
        assert report.moment_totals == {0.0: total_moment(p, 0), 2.0: total_moment(p, 2)}

    def test_moment_check_rejects_kprime_above_k(self, grid16):
        p = sample_initial(UniformMaxwellian(0.3), 10, 1, grid16)
        with pytest.raises(ContractViolation):
            moment_report(p, grid16, lp_checks=[(1, 2, 4)])
