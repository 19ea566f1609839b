"""Energy functional, effective field, fourth-order right-hand side, IMEX step."""

import numpy as np
import pytest

from llgvm import (
    LLCoefficients,
    PeriodicGrid,
    ScalarField,
    VectorField3,
    apply_a,
    dt_max,
    effective_field,
    energy,
    grad,
    l2_inner,
    l2_norm,
    laplacian,
    ll_rhs,
    magnetization,
    step,
)
from llgvm.errors import BlowUpError, ConfigError, ContractViolation, StateCorruption, TimeStepError
from llgvm.grid import _fft, _ifft_real
from llgvm.magnetization import MagnetizationField, _rhs, unit_normalize
from llgvm.textures import make_texture, random_smooth_unit, skyrmion_tube, uniform_texture

from conftest import BOX, band_limited_vector, random_unit_mf, rel_l2

H_ZEEMAN = 0.5
ALPHA = 0.1


def uniform_mf(grid):
    return MagnetizationField(grid, uniform_texture(grid), H_ZEEMAN, ALPHA)


def single_mode_mf(grid, delta, mode=(1, 2, 0)):
    x, y, z = grid.node_mesh
    k = [2.0 * np.pi * n / l for n, l in zip(mode, grid.box_length)]
    phase = k[0] * x + k[1] * y + k[2] * z
    vals = uniform_texture(grid)
    vals[0] += delta * np.cos(phase)
    return MagnetizationField(grid, unit_normalize(vals), H_ZEEMAN, ALPHA), np.dot(k, k)


class TestEnergy:
    def test_ground_state_energy_is_zero(self, grid16):
        assert energy(uniform_mf(grid16)) == pytest.approx(0.0, abs=1e-14)

    def test_single_mode_quadratic_expansion(self, grid32):
        delta = 1e-3
        mf, k_sq = single_mode_mf(grid32, delta)
        expected = 0.5 * delta**2 * (k_sq**2 - k_sq + H_ZEEMAN) * grid32.volume / 2.0
        assert energy(mf) == pytest.approx(expected, rel=1e-4)

    def test_quadratic_expansion_improves_with_smaller_delta(self, grid32):
        # the relative deviation from the quadratic model is O(delta^2)
        devs = []
        for delta in (1e-2, 1e-3):
            mf, k_sq = single_mode_mf(grid32, delta)
            model = 0.5 * delta**2 * (k_sq**2 - k_sq + H_ZEEMAN) * grid32.volume / 2.0
            devs.append(abs(energy(mf) / model - 1.0))
        assert devs[1] < 0.05 * devs[0]

    def test_h2_coercivity_inequality(self, grid16):
        # E(m) >= 1/2 [(1 - 1/(4 eps)) ||hess m||^2 + (h - eps) ||m - e3||^2];
        # the 1/2 carries the energy's own prefactor through the Young-inequality
        # bound on ||grad m||^2, valid for any 1/4 < eps < h
        eps = 0.3
        e3 = np.array([0.0, 0.0, 1.0]).reshape(3, 1, 1, 1)
        for seed in range(100):
            mf = random_unit_mf(grid16, 1000 + seed, amplitude=0.1, k_cut=2)
            dev = VectorField3(grid16, mf.m - e3)
            hess_sq = l2_norm(laplacian(dev)) ** 2
            zee_sq = l2_norm(dev) ** 2
            lower = 0.5 * ((1.0 - 1.0 / (4.0 * eps)) * hess_sq + (H_ZEEMAN - eps) * zee_sq)
            assert energy(mf) >= lower - 1e-10 * max(1.0, abs(lower))

    def test_rejects_corrupted_state(self, grid16):
        bad = uniform_texture(grid16)
        bad[2] *= 1.5
        with pytest.raises(StateCorruption):
            MagnetizationField(grid16, bad, H_ZEEMAN, ALPHA)

    def test_rejects_shape_not_matching_grid(self, grid16, grid32):
        with pytest.raises(ContractViolation, match="shape does not match grid"):
            MagnetizationField(grid16, uniform_texture(grid32), H_ZEEMAN, ALPHA)


class TestCachedSpectrum:
    def test_in_place_write_raises(self, grid16):
        mf = random_unit_mf(grid16, 3)
        with pytest.raises(ValueError):
            mf.m[2, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            mf.m *= 1.0

    def test_constructor_does_not_alias_the_input(self, grid16):
        vals = uniform_texture(grid16)
        mf = MagnetizationField(grid16, vals, H_ZEEMAN, ALPHA)
        vals[2] = -1.0
        assert np.all(mf.m[2] == 1.0)
        assert vals.flags.writeable

    def test_step_adopts_its_fresh_m_read_only(self, grid16, monkeypatch):
        mf = random_unit_mf(grid16, 7, amplitude=0.2, k_cut=2)
        vals = mf.m.copy()
        nxt = mf.with_m(vals)
        vals[2] = -1.0  # the public path copies
        assert np.array_equal(nxt.m, mf.m)
        normalized = []

        def recorded(values, blow_up_floor=None):
            normalized.append(unit_normalize(values, blow_up_floor))
            return normalized[-1]

        monkeypatch.setattr(magnetization, "unit_normalize", recorded)
        nxt = step(mf, None, 1e-5, LLCoefficients.from_alpha(ALPHA))
        assert nxt.m is normalized[0]  # adopted, not copied
        assert (nxt.grid, nxt.h_zeeman, nxt.alpha) == (mf.grid, mf.h_zeeman, mf.alpha)
        with pytest.raises(ValueError):
            nxt.m[2, 0, 0, 0] = 1.0
        # the adopted array passes the constructor's checks
        bad = uniform_texture(grid16)
        bad[2, 0, 0, 0] = 1.0 + 1e-9
        with pytest.raises(StateCorruption):
            mf._adopt_m(bad)
        bad[2, 0, 0, 0] = np.nan
        with pytest.raises(ContractViolation, match="NaN or Inf"):
            mf._adopt_m(bad)

    def test_with_m_spectrum_is_the_transform_of_the_new_field(self, grid16):
        mf = random_unit_mf(grid16, 4)
        old_spectrum = mf.spectrum
        new = random_smooth_unit(grid16, 5, 0.05, 1)
        nxt = mf.with_m(new)
        assert np.array_equal(nxt.spectrum, _fft(new))
        assert not np.array_equal(nxt.spectrum, old_spectrum)
        assert np.array_equal(mf.spectrum, _fft(mf.m))

    def test_cached_gradient_is_the_spectral_gradient(self, grid16):
        mf = random_unit_mf(grid16, 6)
        for c in range(3):
            ref = grad(ScalarField(grid16, mf.m[c])).values
            for axis in range(3):
                assert np.abs(mf.gradient[axis][c] - ref[axis]).max() < 1e-14
        with pytest.raises(ValueError):
            mf.gradient[0][0, 0, 0, 0] = 0.0


class TestEffectiveField:
    def test_zero_at_ground_state(self, grid16):
        assert np.abs(effective_field(uniform_mf(grid16)).values).max() < 1e-12

    def test_single_mode_linearization(self, grid32):
        delta = 1e-4
        mf, k_sq = single_mode_mf(grid32, delta)
        heff = effective_field(mf)
        x, y, _ = grid32.node_mesh
        phase = 2.0 * np.pi * (x + 2.0 * y) / BOX
        expected = -delta * (k_sq**2 - k_sq + H_ZEEMAN) * np.cos(phase)
        assert np.abs(heff.values[0] - expected).max() < 20 * delta**2

    def test_directional_derivative(self, grid32):
        # forward quotient of the energy along a tangent perturbation matches
        # -<h_eff, v> at theta = 1e-5 within 1e-5 relative
        mf = random_unit_mf(grid32, 9, amplitude=0.1, k_cut=2)
        rng = np.random.default_rng(4)
        spec = np.fft.fftn(rng.standard_normal((3, *grid32.shape)), axes=(-3, -2, -1))
        for axis, n in enumerate(grid32.n_cells):
            idx = np.abs(np.fft.fftfreq(n) * n)
            shape = [1, 1, 1]
            shape[axis] = n
            spec *= (idx <= 2).reshape(shape)
        v = np.fft.ifftn(spec, axes=(-3, -2, -1)).real
        v -= np.sum(v * mf.m, axis=0) * mf.m
        v /= np.sqrt(np.sum(v**2) * grid32.cell_volume)
        exact = -l2_inner(effective_field(mf), VectorField3(grid32, v))
        theta = 1e-5
        perturbed = MagnetizationField(
            grid32, unit_normalize(mf.m + theta * v), H_ZEEMAN, ALPHA
        )
        quotient = (energy(perturbed) - energy(mf)) / theta
        assert abs(quotient - exact) < 1e-5 * abs(exact)


    def test_matches_two_transform_form(self, grid32):
        # one inverse transform of (k^4 - k^2) m_hat against lap m and bih m
        # from separate inverse transforms
        mf = MagnetizationField(grid32, random_smooth_unit(grid32, 35, 0.3, 2), H_ZEEMAN, ALPHA)
        k2 = grid32.k_squared
        lap = _ifft_real(-k2 * mf.spectrum)
        bih = _ifft_real(k2 * k2 * mf.spectrum)
        ref = -(bih + lap + H_ZEEMAN * (mf.m - np.array([0.0, 0.0, 1.0]).reshape(3, 1, 1, 1)))
        assert rel_l2(effective_field(mf).values, ref) <= 1e-12


class TestLLRhs:
    def test_ground_state_is_stationary(self, grid16):
        dmdt, lam = ll_rhs(uniform_mf(grid16))
        assert np.abs(dmdt.values).max() < 1e-12
        assert np.abs(lam).max() < 1e-12

    def test_rate_is_tangent(self, grid32):
        for seed in range(3):
            mf = random_unit_mf(grid32, 70 + seed, amplitude=0.1, k_cut=2)
            dmdt, _ = ll_rhs(mf)
            assert np.abs(np.sum(mf.m * dmdt.values, axis=0)).max() < 1e-8

    def test_rotation_operator_norm(self, grid16):
        # |A(m) xi|^2 = (1 + alpha^2) |xi|^2 for tangent xi, node-wise
        rng = np.random.default_rng(11)
        mf = random_unit_mf(grid16, 12, amplitude=0.3, k_cut=2)
        xi = rng.standard_normal((3, *grid16.shape))
        xi -= np.sum(xi * mf.m, axis=0) * mf.m
        out = apply_a(mf.m, xi, ALPHA)
        lhs = np.sum(out**2, axis=0)
        rhs = (1.0 + ALPHA**2) * np.sum(xi**2, axis=0)
        assert np.abs(lhs - rhs).max() <= 1e-14 * rhs.max()

    def test_divergence_structure(self, grid32):
        # m x bih(m) = lap(m x lap m) - 2 sum_k d_k(d_k m x lap m)
        for seed in range(3):
            mf = random_unit_mf(grid32, 80 + seed, amplitude=0.05, k_cut=1)
            m = mf.m
            v = mf.as_vector_field()
            lap = laplacian(v).values
            bih_spec = _fft(m) * grid32.k_squared**2
            lhs = np.cross(m, _ifft_real(bih_spec), axis=0)
            rhs = laplacian(VectorField3(grid32, np.cross(m, lap, axis=0))).values.copy()
            for axis in range(3):
                dkm = _ifft_real(grid32._ik[axis] * _fft(m))
                term = np.cross(dkm, lap, axis=0)
                rhs -= 2.0 * _ifft_real(grid32._ik[axis] * _fft(term))
            assert rel_l2(lhs, rhs) < 1e-8

    def test_e3_tangential_norm_identity(self, grid32):
        # ||e3^tan||_L2^2 = int (1 - m3^2)
        for seed in range(3):
            mf = random_unit_mf(grid32, 90 + seed, amplitude=0.2, k_cut=2)
            e3 = np.array([0.0, 0.0, 1.0]).reshape(3, 1, 1, 1)
            tan = e3 - mf.m[2] * mf.m
            lhs = np.sum(tan**2) * grid32.cell_volume
            rhs = np.sum(1.0 - mf.m[2] ** 2) * grid32.cell_volume
            assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    @pytest.mark.parametrize("with_current", [False, True], ids=["no_j", "j"])
    def test_rate_matches_two_transform_form(self, grid32, with_current):
        # the step's one-transform rate against (A f - alpha Lam m - A bih) / (1 + alpha^2),
        # with lap m and bih m from separate inverse transforms
        mf = MagnetizationField(grid32, random_smooth_unit(grid32, 33), H_ZEEMAN, ALPHA)
        j = band_limited_vector(grid32, 34, k_cut=2, amplitude=0.2) if with_current else None
        m, k2 = mf.m, grid32.k_squared
        lap = _ifft_real(-k2 * mf.spectrum)
        bih = _ifft_real(k2 * k2 * mf.spectrum)
        lam = -np.sum(m * bih, axis=0)
        drive = H_ZEEMAN * np.array([0.0, 0.0, 1.0]).reshape(3, 1, 1, 1) - lap
        if j is not None:
            jgrad = sum(j.values[axis] * mf.gradient[axis] for axis in range(3))
            drive = drive - np.cross(m, jgrad, axis=0)
        f = drive - np.sum(drive * m, axis=0) * m
        ref = (apply_a(m, f, ALPHA) - ALPHA * lam * m - apply_a(m, bih, ALPHA)) / (1.0 + ALPHA**2)
        assert np.abs(_rhs(mf, j) - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_current_grid_mismatch(self, grid16, grid32):
        with pytest.raises(ContractViolation):
            ll_rhs(uniform_mf(grid16), VectorField3.zeros(grid32))


class TestCoefficients:
    def test_lambda_from_alpha(self):
        coeffs = LLCoefficients.from_alpha(ALPHA)
        assert coeffs.lambda_coeff == pytest.approx(ALPHA / (1.0 + ALPHA**2), rel=1e-15)
        assert coeffs.stabilizer_c == pytest.approx(2.0 * coeffs.lambda_coeff, rel=1e-15)

    def test_rejects_small_stabilizer(self):
        with pytest.raises(ContractViolation):
            LLCoefficients.from_alpha(ALPHA, stabilizer_c=0.01)

    def test_large_stabilizer_is_unconditionally_stable(self, grid16):
        coeffs = LLCoefficients.from_alpha(ALPHA, stabilizer_c=6.0)
        assert 2.0 * coeffs.lambda_coeff * coeffs.stabilizer_c >= 1.0
        assert dt_max(grid16, ALPHA, H_ZEEMAN, coeffs) == np.inf

    @pytest.mark.parametrize(
        "shape, box",
        [((16,) * 3, (BOX,) * 3), ((32,) * 3, (BOX,) * 3), ((48,) * 3, (BOX,) * 3),
         ((8, 16, 16), (BOX / 2, BOX, BOX)), ((6, 10, 14), (3.0, 5.0, 7.0))],
        ids=lambda v: "x".join(map(str, v)),
    )
    def test_bound_reads_the_corner_of_the_dealiased_box(self, shape, box):
        # the closed form of the corner mode, K^2 = sum (2 pi (N_i // 3) / L_i)^2, bitwise
        grid = PeriodicGrid(shape, box)
        coeffs = LLCoefficients.from_alpha(ALPHA)
        k2 = sum((2.0 * np.pi * (n // 3) / l) ** 2 for n, l in zip(shape, box))
        sigma = k2 * k2 - k2 + H_ZEEMAN
        denom = sigma - 2.0 * coeffs.lambda_coeff * coeffs.stabilizer_c * k2 * k2
        bound = dt_max(grid, ALPHA, H_ZEEMAN, coeffs)
        assert type(bound) is float and bound == 2.0 * ALPHA / denom
        stable = LLCoefficients.from_alpha(ALPHA, stabilizer_c=0.5 / coeffs.lambda_coeff)
        assert dt_max(grid, ALPHA, H_ZEEMAN, stable) == np.inf


class TestStep:
    def test_ground_state_is_a_fixed_point(self, grid16):
        mf = uniform_mf(grid16)
        coeffs = LLCoefficients.from_alpha(ALPHA)
        dt = 0.5 * dt_max(grid16, ALPHA, H_ZEEMAN, coeffs)
        out = step(mf, None, dt, coeffs)
        assert np.abs(out.m - mf.m).max() < 1e-13

    def test_unit_norm_after_step(self, grid16):
        mf = random_unit_mf(grid16, 3, amplitude=0.2, k_cut=2)
        coeffs = LLCoefficients.from_alpha(ALPHA)
        out = step(mf, None, 0.5 * dt_max(grid16, ALPHA, H_ZEEMAN, coeffs), coeffs)
        assert np.abs(np.sqrt(np.sum(out.m**2, axis=0)) - 1.0).max() < 1e-15

    def test_skyrmion_tube_energy_never_increases(self, grid32):
        mf = MagnetizationField(grid32, skyrmion_tube(grid32), H_ZEEMAN, ALPHA)
        coeffs = LLCoefficients.from_alpha(ALPHA)
        dt = 5e-5
        e_prev = energy(mf)
        for _ in range(200):
            mf = step(mf, None, dt, coeffs)
            e_now = energy(mf)
            assert e_now <= e_prev + 1e-10 * max(1.0, e_prev)
            e_prev = e_now

    def test_self_convergence_first_order(self, grid16):
        # Richardson check against a dt/8 reference
        coeffs = LLCoefficients.from_alpha(ALPHA)
        j = VectorField3.constant(grid16, (0.4, 0.0, 0.0))
        m0 = random_smooth_unit(grid16, 5, 0.15, 2)
        horizon = 64 * 8e-4

        def solve(dt):
            mf = MagnetizationField(grid16, m0, H_ZEEMAN, ALPHA)
            for _ in range(round(horizon / dt)):
                mf = step(mf, j, dt, coeffs)
            return mf.m

        ref = solve(1e-4)
        err1 = np.sqrt(np.sum((solve(8e-4) - ref) ** 2))
        err2 = np.sqrt(np.sum((solve(4e-4) - ref) ** 2))
        assert np.log2(err1 / err2) >= 0.9

    def test_refuses_unstable_dt(self, grid16):
        mf = uniform_mf(grid16)
        coeffs = LLCoefficients.from_alpha(ALPHA)
        with pytest.raises(TimeStepError):
            step(mf, None, 1.1 * dt_max(grid16, ALPHA, H_ZEEMAN, coeffs), coeffs)
        with pytest.raises(ContractViolation):
            step(mf, None, -1e-5, coeffs)

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_non_finite_dt_rejected(self, grid16, dt):
        # nan fails every comparison with the stable bound, and inf passes an infinite one
        coeffs = LLCoefficients.from_alpha(ALPHA, stabilizer_c=6.0)
        with pytest.raises(ContractViolation, match="dt must be positive and finite"):
            step(uniform_mf(grid16), None, dt, coeffs)

    def test_renormalization_blow_up(self):
        vals = np.zeros((3, 2, 2, 2))
        vals[2] = 0.1
        with pytest.raises(BlowUpError):
            unit_normalize(vals, blow_up_floor=0.5)

    def test_nan_fails_both_floors(self):
        # NaN compares False with everything, so each test must be written to fail on it;
        # an infinite entry has an infinite norm, which passes both floors
        for bad in (np.nan, np.inf, -np.inf):
            vals = np.zeros((3, 2, 2, 2))
            vals[2] = 1.0
            vals[0, 1, 0, 1] = bad
            with pytest.raises(BlowUpError, match=r"\|m\*\| = (nan <|inf\))"):
                unit_normalize(vals, blow_up_floor=0.5)
            with pytest.raises(ContractViolation, match="cannot normalize a zero or non-finite vector"):
                unit_normalize(vals)


class TestMakeTexture:
    def test_uniform(self, grid16):
        mf = make_texture("uniform", grid16, H_ZEEMAN, ALPHA)
        assert np.array_equal(mf.m, uniform_texture(grid16))
        assert (mf.h_zeeman, mf.alpha) == (H_ZEEMAN, ALPHA)

    def test_unknown_name_rejected(self, grid16):
        # a run's llg.initial is one of TEXTURE_NAMES by config, so only a Python caller gets here
        with pytest.raises(ConfigError, match="unknown initial texture 'vortex'"):
            make_texture("vortex", grid16, H_ZEEMAN, ALPHA)
