"""Emergent electromagnetic fields and the homogeneous laws they satisfy."""

import numpy as np
import pytest

from llgvm import (
    LLCoefficients,
    PeriodicGrid,
    VectorField3,
    compute_b,
    compute_e,
    curl,
    div,
    l2_norm,
    skyrmion_number,
    step,
)
from llgvm.emergent import EmergentFieldPair
from llgvm.errors import BlowUpError, ContractViolation
from llgvm.magnetization import MagnetizationField, unit_normalize
from llgvm.textures import hopfion, random_smooth_unit, skyrmion_tube

from conftest import BOX, random_unit_mf, rel_l2

H, ALPHA = 0.5, 0.1


def rotate_about_z(values, angle):
    c, s = np.cos(angle), np.sin(angle)
    out = np.empty_like(values)
    out[0] = c * values[0] - s * values[1]
    out[1] = s * values[0] + c * values[1]
    out[2] = values[2]
    return out


class TestComputeB:
    def test_constant_field_gives_zero(self, grid16):
        vals = np.zeros((3, *grid16.shape))
        vals[2] = 1.0
        b = compute_b(MagnetizationField(grid16, vals, H, ALPHA))
        assert np.abs(b.values).max() == 0.0

    def test_skyrmion_tube_flux_quantization(self):
        # per-slice flux of b3 equals 4 pi Q with Q the lattice degree
        grid = PeriodicGrid.cubic(64, BOX)
        mf = MagnetizationField(grid, skyrmion_tube(grid), H, ALPHA)
        q = skyrmion_number(mf, 0)
        b = compute_b(mf)
        hx, hy, _ = grid.spacing
        flux = b.values[2, :, :, 0].sum() * hx * hy
        assert q == pytest.approx(-1.0, abs=1e-9)
        assert abs(flux - 4.0 * np.pi * q) / (4.0 * np.pi) < 1e-3

    def test_divergence_free(self, grid32):
        for seed in range(5):
            mf = random_unit_mf(grid32, 300 + seed, amplitude=0.05, k_cut=1)
            b = compute_b(mf)
            assert l2_norm(div(b)) < 1e-8 * l2_norm(b)

    def test_axisymmetric_rotation_invariance(self, grid32):
        # rotating the tube texture about e3 leaves b unchanged (the tube is
        # axisymmetric up to the rotation of its in-plane components)
        mf = MagnetizationField(grid32, skyrmion_tube(grid32), H, ALPHA)
        rotated = MagnetizationField(grid32, rotate_about_z(mf.m, 0.37), H, ALPHA)
        b0 = compute_b(mf)
        b1 = compute_b(rotated)
        assert l2_norm(VectorField3(grid32, b1.values - b0.values)) < 1e-12 * l2_norm(b0)

    def test_great_circle_field_has_no_emergent_fields(self, grid16):
        # m confined to one great circle makes every triple product vanish,
        # also for a motion that stays inside the same circle
        theta = random_smooth_unit(grid16, 55, 0.3, 2)[0]
        delta = random_smooth_unit(grid16, 56, 0.2, 2)[1]

        def planar(angle):
            vals = np.stack([np.sin(angle), np.zeros(grid16.shape), np.cos(angle)])
            return MagnetizationField(grid16, vals, H, ALPHA)

        mf = planar(theta)
        assert np.abs(compute_b(mf).values).max() < 1e-14
        e = compute_e(mf, planar(theta + delta), 0.2)
        assert np.abs(e.values).max() < 1e-14


    def test_matches_np_cross_reference(self, grid16):
        # b_i = m . (d_j m x d_k m) over the cyclic (j, k), written with np.cross
        mf = random_unit_mf(grid16, 31, amplitude=0.3, k_cut=2)
        dm = mf.gradient
        ref = np.stack(
            [np.sum(mf.m * np.cross(dm[j], dm[k], axis=0), axis=0) for j, k in ((1, 2), (2, 0), (0, 1))]
        )
        assert np.array_equal(compute_b(mf).values, ref)


class TestComputeE:
    def test_matches_np_cross_reference(self, grid16):
        # e_i = m_mid . (d_i u x dt m) / |u| with u = m_prev + m_next and d_i u read
        # from both states' partials, written as (u/|u|^2) . (d_i u x dt m) with np.cross
        mf0 = random_unit_mf(grid16, 32, amplitude=0.3, k_cut=2)
        mf1 = random_unit_mf(grid16, 33, amplitude=0.3, k_cut=2)
        dt = 0.05
        total = mf0.m + mf1.m
        scaled = total / np.sum(total**2, axis=0)
        dm_dt = (mf1.m - mf0.m) / dt
        ref = np.stack(
            [
                np.sum(scaled * np.cross(a + b, dm_dt, axis=0), axis=0)
                for a, b in zip(mf0.gradient, mf1.gradient)
            ]
        )
        assert np.array_equal(compute_e(mf0, mf1, dt).values, ref)

    @pytest.mark.parametrize(
        "texture, dt", [(skyrmion_tube, 5e-5), (hopfion, 1e-5)], ids=["skyrmion_tube", "hopfion"]
    )
    def test_agrees_with_partials_of_the_midpoint(self, grid32, texture, dt):
        # the direct form takes the spectral partials of the normalized midpoint
        # itself; along one LLG step the chain-rule form differs from it only at
        # discretization level, while a missing 1/|u| would be an O(1) change
        mf0 = MagnetizationField(grid32, texture(grid32), H, ALPHA)
        mf1 = step(mf0, None, dt, LLCoefficients.from_alpha(ALPHA))
        total = mf0.m + mf1.m
        m_mid = total / np.sqrt(np.sum(total**2, axis=0))
        dm = MagnetizationField(grid32, m_mid, H, ALPHA).gradient
        dm_dt = (mf1.m - mf0.m) / dt
        ref = np.stack([np.sum(m_mid * np.cross(d, dm_dt, axis=0), axis=0) for d in dm])
        assert rel_l2(compute_e(mf0, mf1, dt).values, ref) < 1e-6

    def test_static_field_gives_zero(self, grid16):
        mf = random_unit_mf(grid16, 8, amplitude=0.1, k_cut=2)
        e = compute_e(mf, mf, 1e-3)
        assert np.abs(e.values).max() == 0.0

    def test_second_order_against_refined_difference(self, grid32):
        # a rigidly rotating texture sampled at dt matches the dt/10 value to O(dt^2)
        m0 = skyrmion_tube(grid32)
        omega, t_mid = 0.7, 0.3

        def mf_at(t):
            return MagnetizationField(grid32, rotate_about_z(m0, omega * t), H, ALPHA)

        errs = []
        for dt in (0.05, 0.025):
            coarse = compute_e(mf_at(t_mid - dt / 2), mf_at(t_mid + dt / 2), dt)
            fine_dt = dt / 10.0
            fine = compute_e(mf_at(t_mid - fine_dt / 2), mf_at(t_mid + fine_dt / 2), fine_dt)
            errs.append(
                l2_norm(VectorField3(grid32, coarse.values - fine.values)) / l2_norm(fine)
            )
        assert np.log2(errs[0] / errs[1]) >= 1.9

    def test_antipodal_motion_raises(self, grid16):
        vals = np.zeros((3, *grid16.shape))
        vals[2] = 1.0
        up = MagnetizationField(grid16, vals, H, ALPHA)
        down = MagnetizationField(grid16, -vals, H, ALPHA)
        with pytest.raises(BlowUpError):
            compute_e(up, down, 1e-3)

    def test_grid_mismatch(self, grid16, grid32):
        a = random_unit_mf(grid16, 1)
        b = random_unit_mf(grid32, 1)
        with pytest.raises(ContractViolation):
            compute_e(a, b, 1e-3)

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_non_finite_dt_rejected(self, grid16, dt):
        mf = random_unit_mf(grid16, 1)
        with pytest.raises(ContractViolation, match="dt must be positive and finite"):
            compute_e(mf, mf, dt)


class TestFaraday:
    def test_residual_decreases_with_dt(self, grid32):
        # Sample a large-amplitude one-parameter motion of unit textures at
        # decreasing step sizes: the discrete residual is dominated by the
        # time-centering error, first order in dt.
        m0 = random_smooth_unit(grid32, 3, 0.3, 1)
        direction = random_smooth_unit(grid32, 4, 1.0, 1) - np.array(
            [0.0, 0.0, 1.0]
        ).reshape(3, 1, 1, 1)

        def mf_at(s):
            return MagnetizationField(grid32, unit_normalize(m0 + s * direction), H, ALPHA)

        res = []
        for dt in (0.4, 0.2, 0.1):
            prev, nxt = mf_at(0.0), mf_at(dt)
            b_prev, b_next = compute_b(prev), compute_b(nxt)
            e = compute_e(prev, nxt, dt)
            r = (b_next.values - b_prev.values) / dt + curl(e).values
            res.append(np.sqrt(np.sum(r**2) / np.sum(b_next.values**2)))
        orders = [np.log2(res[i] / res[i + 1]) for i in range(2)]
        assert min(orders) >= 0.9

    def test_residual_small_along_llg_flow(self):
        # along the integrator's own trajectory the per-step motion is tiny, so
        # the residual sits at the spatial floor, far below the field scale
        grid = PeriodicGrid.cubic(48, BOX)
        coeffs = LLCoefficients.from_alpha(ALPHA)
        dt = 1.2e-5
        mf = MagnetizationField(grid, random_smooth_unit(grid, 31, 0.05, 2), H, ALPHA)
        for _ in range(2):
            mf_next = step(mf, None, dt, coeffs)
            b_prev, b_next = compute_b(mf), compute_b(mf_next)
            e = compute_e(mf, mf_next, dt)
            res = (b_next.values - b_prev.values) / dt + curl(e).values
            assert np.sqrt(np.sum(res**2) / np.sum(b_next.values**2)) < 1e-6
            mf = mf_next

    def test_pair_invariants(self, grid32):
        mf = random_unit_mf(grid32, 2, amplitude=0.05, k_cut=1)
        pair = EmergentFieldPair.at_rest(mf)
        assert np.abs(pair.e.values).max() == 0.0
        assert l2_norm(div(pair.b)) < 1e-8 * max(l2_norm(pair.b), 1e-300)


class TestDeferredPair:
    def test_first_read_is_compute_e(self, grid16):
        mf0 = random_unit_mf(grid16, 32, amplitude=0.3, k_cut=2)
        mf1 = random_unit_mf(grid16, 33, amplitude=0.3, k_cut=2)
        b = compute_b(mf1)
        pair = EmergentFieldPair.deferred(mf0, mf1, 0.05, b)
        assert pair.b is b
        assert np.array_equal(pair.e.values, compute_e(mf0, mf1, 0.05).values)

    def test_compute_e_checks_run_at_once(self, grid16, grid32):
        vals = np.zeros((3, *grid16.shape))
        vals[2] = 1.0
        up = MagnetizationField(grid16, vals, H, ALPHA)
        b = compute_b(up)
        with pytest.raises(BlowUpError, match="antipodal"):
            EmergentFieldPair.deferred(up, up.with_m(-vals), 1e-3, b)
        with pytest.raises(ContractViolation, match="different grids"):
            EmergentFieldPair.deferred(random_unit_mf(grid32, 1), up, 1e-3, b)
        with pytest.raises(ContractViolation, match="dt must be positive and finite"):
            EmergentFieldPair.deferred(up, up, np.nan, b)
