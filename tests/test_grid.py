"""Spectral operator exactness, inner products, and Sobolev norms."""

import numpy as np
import pytest

from llgvm import (
    MagnetizationField,
    Mollifier,
    PeriodicGrid,
    ScalarField,
    VectorField3,
    biharmonic,
    curl,
    dealias,
    div,
    energy,
    grad,
    hs_norm,
    l2_inner,
    l2_norm,
    laplacian,
)
from llgvm.errors import ContractViolation
from llgvm.textures import random_smooth_unit

from conftest import BOX, band_limited_scalar, band_limited_vector


class TestPeriodicGrid:
    def test_spacing_consistent(self, grid32):
        assert grid32.spacing == (BOX / 32,) * 3
        assert grid32.volume == pytest.approx(BOX**3)
        assert grid32.cell_volume == pytest.approx((BOX / 32) ** 3)

    @pytest.mark.parametrize("n", [2, 3, 15, 33])
    def test_rejects_odd_or_tiny_node_counts(self, n):
        with pytest.raises(ContractViolation):
            PeriodicGrid.cubic(n, BOX)

    def test_rejects_nonpositive_box(self):
        with pytest.raises(ContractViolation):
            PeriodicGrid.cubic(16, -1.0)

    def test_field_shape_mismatch(self, grid16):
        with pytest.raises(ContractViolation):
            ScalarField(grid16, np.zeros((8, 8, 8)))

    def test_field_rejects_nan(self, grid16):
        vals = np.zeros(grid16.shape)
        vals[0, 0, 0] = np.nan
        with pytest.raises(ContractViolation):
            ScalarField(grid16, vals)


class TestSpectralDerivatives:
    @pytest.mark.parametrize("op", [grad, laplacian, biharmonic], ids=lambda op: op.__name__)
    def test_constant_scalar_maps_to_zero(self, grid16, op):
        out = op(ScalarField.full(grid16, 2.75))
        assert np.abs(out.values).max() < 1e-12

    @pytest.mark.parametrize("op", [div, curl, laplacian, biharmonic], ids=lambda op: op.__name__)
    def test_constant_vector_maps_to_zero(self, grid16, op):
        out = op(VectorField3.constant(grid16, (1.0, -2.0, 0.5)))
        assert np.abs(out.values).max() < 1e-12

    def test_gradient_of_single_mode_is_exact(self):
        grid = PeriodicGrid.cubic(32, BOX)
        x = grid.node_mesh[0]
        k = 2.0 * np.pi / BOX
        u = ScalarField(grid, np.sin(k * x))
        g = grad(u)
        assert np.abs(g.values[0] - k * np.cos(k * x)).max() < 1e-10
        assert np.abs(g.values[1]).max() < 1e-12
        assert np.abs(g.values[2]).max() < 1e-12

    def test_laplacian_matches_centered_differences(self):
        # second-order finite differences converge at order >= 1.9 to the
        # spectral value on a fixed band-limited field
        errs = []
        for n in (32, 64):
            grid = PeriodicGrid.cubic(n, BOX)
            f = band_limited_scalar(grid, seed=12, k_cut=2)
            lap = laplacian(f).values
            fd = np.zeros_like(lap)
            for axis in range(3):
                h = grid.spacing[axis]
                fd += (
                    np.roll(f.values, -1, axis) - 2.0 * f.values + np.roll(f.values, 1, axis)
                ) / h**2
            errs.append(np.abs(fd - lap).max())
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.9

    def test_linearity(self, grid16):
        a = band_limited_vector(grid16, 1)
        b = band_limited_vector(grid16, 2)
        lhs = curl(VectorField3(grid16, 2.0 * a.values - 3.0 * b.values)).values
        rhs = 2.0 * curl(a).values - 3.0 * curl(b).values
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())

    def test_commutes_with_one_cell_translation(self, grid16):
        f = band_limited_scalar(grid16, 3)
        rolled = ScalarField(grid16, np.roll(f.values, 1, axis=0))
        lhs = grad(rolled).values
        # array axis 1 is the spatial x axis of the (3, Nx, Ny, Nz) output
        rhs = np.roll(grad(f).values, 1, axis=1)
        assert np.abs(lhs - rhs).max() < 1e-11

    def test_div_curl_identity(self, grid16):
        v = band_limited_vector(grid16, 4)
        assert l2_norm(div(curl(v))) < 1e-12 * l2_norm(v)

    def test_curl_grad_identity(self, grid16):
        u = band_limited_scalar(grid16, 5)
        assert l2_norm(curl(grad(u))) < 1e-12 * l2_norm(u)

    def test_biharmonic_is_laplacian_squared(self, grid16):
        u = band_limited_scalar(grid16, 6)
        direct = biharmonic(u).values
        composed = laplacian(laplacian(u)).values
        scale = max(np.abs(direct).max(), 1e-300)
        assert np.abs(direct - composed).max() < 1e-12 * scale

    def test_rank_mismatch_raises(self, grid16):
        with pytest.raises(ContractViolation):
            curl(band_limited_scalar(grid16, 7))
        with pytest.raises(ContractViolation):
            div(band_limited_scalar(grid16, 7))
        with pytest.raises(ContractViolation):
            grad(band_limited_vector(grid16, 7))


class TestInnerProducts:
    def test_constant_inner_product_is_volume(self, grid16):
        one = ScalarField.full(grid16, 1.0)
        assert l2_inner(one, one) == pytest.approx(BOX**3, rel=1e-14)

    def test_sin_cos_orthogonality(self, grid32):
        x = grid32.node_mesh[0]
        k = 2.0 * np.pi / BOX
        s = ScalarField(grid32, np.sin(k * x))
        c = ScalarField(grid32, np.cos(k * x))
        assert abs(l2_inner(s, c)) < 1e-12 * l2_norm(s) * l2_norm(c)

    def test_parseval(self, grid16):
        f = band_limited_scalar(grid16, 8)
        spec = np.fft.fftn(f.values) / grid16.n_nodes
        spectral = grid16.volume * np.sum(np.abs(spec) ** 2)
        assert abs(l2_inner(f, f) - spectral) < 1e-12 * l2_inner(f, f)

    def test_symmetry_and_bilinearity(self, grid16):
        a = band_limited_scalar(grid16, 9)
        b = band_limited_scalar(grid16, 10)
        c = band_limited_scalar(grid16, 11)
        assert l2_inner(a, b) == l2_inner(b, a)
        lhs = l2_inner(ScalarField(grid16, 2.0 * a.values + c.values), b)
        assert lhs == pytest.approx(2.0 * l2_inner(a, b) + l2_inner(c, b), rel=1e-12)

    def test_grid_mismatch_raises(self, grid16, grid32):
        with pytest.raises(ContractViolation):
            l2_inner(ScalarField.zeros(grid16), ScalarField.zeros(grid32))
        with pytest.raises(ContractViolation):
            l2_inner(ScalarField.zeros(grid16), VectorField3.zeros(grid16))


class TestHsNorm:
    def test_constant(self, grid16):
        f = ScalarField.full(grid16, -2.0)
        for s in (-1.0, 0.0, 1.7, 3.0):
            assert hs_norm(f, s) == pytest.approx(2.0 * np.sqrt(BOX**3), rel=1e-13)

    def test_single_mode_closed_form(self, grid32):
        x, y, _ = grid32.node_mesh
        kx = 2.0 * np.pi / BOX
        ky = 2.0 * np.pi * 2 / BOX
        amp = 0.7
        f = ScalarField(grid32, amp * np.sin(kx * x + ky * y))
        k_sq = kx**2 + ky**2
        for s in (0.0, 1.0, 2.5):
            expected = np.sqrt(amp**2 * (1.0 + k_sq) ** s * BOX**3 / 2.0)
            assert hs_norm(f, s) == pytest.approx(expected, rel=1e-12)

    def test_matches_l2_at_s_zero(self, grid16):
        f = band_limited_scalar(grid16, 13)
        assert hs_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-12)

    def test_monotone_in_s(self, grid16):
        for seed in range(5):
            f = band_limited_scalar(grid16, 20 + seed)
            norms = [hs_norm(f, s) for s in (-1.0, 0.0, 0.5, 1.0, 2.0)]
            assert all(a <= b * (1 + 1e-13) for a, b in zip(norms, norms[1:]))


class TestHalfSpectrum:
    """Real-data transforms agree with a full complex-FFT reference.

    The grid is non-cubic with unequal box lengths, so the halved last axis
    differs from the other two in both node count and wavenumber spacing.
    """

    GRID = PeriodicGrid((8, 12, 16), (3.0, 5.0, 7.0))

    @staticmethod
    def _full_k(grid):
        """Full-spectrum wavenumbers per axis, broadcastable, in FFT order."""
        out = []
        for axis, (n, h) in enumerate(zip(grid.n_cells, grid.spacing)):
            shape = [1, 1, 1]
            shape[axis] = n
            out.append((2.0 * np.pi * np.fft.fftfreq(n, d=h)).reshape(shape))
        return out

    def _full_ik(self, grid):
        out = []
        for axis, k in enumerate(self._full_k(grid)):
            k = k.copy()
            k.reshape(-1)[grid.n_cells[axis] // 2] = 0.0
            out.append(1j * k)
        return out

    def _full_k2(self, grid):
        kx, ky, kz = self._full_k(grid)
        return kx**2 + ky**2 + kz**2

    @staticmethod
    def _fftn(values):
        return np.fft.fftn(values, axes=(-3, -2, -1))

    @staticmethod
    def _ifftn_real(spec):
        return np.fft.ifftn(spec, axes=(-3, -2, -1)).real

    @staticmethod
    def _assert_close(actual, reference):
        scale = max(float(np.abs(reference).max()), 1e-300)
        assert float(np.abs(actual - reference).max()) <= 1e-12 * scale

    def _fields(self):
        v = band_limited_vector(self.GRID, 40, k_cut=3)
        return v, v.component(1)

    def test_derivatives_match_full_fft(self):
        # white noise: every mode, the Nyquist planes of all axes included
        g = self.GRID
        v = VectorField3(g, np.random.default_rng(39).standard_normal((3, *g.shape)))
        u = v.component(1)
        ik = self._full_ik(g)
        k2 = self._full_k2(g)
        su, sv = self._fftn(u.values), self._fftn(v.values)
        ref_grad = np.stack([self._ifftn_real(ik[a] * su) for a in range(3)])
        self._assert_close(grad(u).values, ref_grad)
        self._assert_close(div(v).values, self._ifftn_real(sum(ik[a] * sv[a] for a in range(3))))
        ref_curl = np.stack(
            [
                self._ifftn_real(ik[1] * sv[2] - ik[2] * sv[1]),
                self._ifftn_real(ik[2] * sv[0] - ik[0] * sv[2]),
                self._ifftn_real(ik[0] * sv[1] - ik[1] * sv[0]),
            ]
        )
        self._assert_close(curl(v).values, ref_curl)
        self._assert_close(laplacian(v).values, self._ifftn_real(-k2 * sv))
        self._assert_close(biharmonic(u).values, self._ifftn_real(k2 * k2 * su))

    def test_dealias_matches_full_fft(self):
        g = self.GRID
        v = VectorField3(g, np.random.default_rng(41).standard_normal((3, *g.shape)))
        keep = np.ones(g.shape, dtype=bool)
        for axis, n in enumerate(g.n_cells):
            shape = [1, 1, 1]
            shape[axis] = n
            keep &= (np.abs(np.fft.fftfreq(n) * n) <= n // 3).reshape(shape)
        self._assert_close(dealias(v).values, self._ifftn_real(self._fftn(v.values) * keep))

    def test_parseval_sums_match_full_fft(self):
        g = self.GRID
        _, u = self._fields()
        k2 = self._full_k2(g)
        amp = self._fftn(u.values) / g.n_nodes
        for s in (-1.0, 0.0, 1.5):
            ref = np.sqrt(g.volume * np.sum((1.0 + k2) ** s * np.abs(amp) ** 2))
            assert hs_norm(u, s) == pytest.approx(ref, rel=1e-12)

        mf = MagnetizationField(g, random_smooth_unit(g, 42, 0.3, 2), 0.5, 0.1)
        dev = self._fftn(mf.m - np.array([0.0, 0.0, 1.0]).reshape(3, 1, 1, 1)) / g.n_nodes
        ref = 0.5 * g.volume * np.sum((k2 * k2 - k2 + mf.h_zeeman) * np.abs(dev) ** 2)
        assert energy(mf) == pytest.approx(ref, rel=1e-12)

    def test_mollifier_symbol_matches_full_fft(self):
        g = self.GRID
        mol = Mollifier.build(g, 1.2)
        full = self._fftn(mol.kernel.values).real * g.cell_volume
        self._assert_close(mol.symbol, full[:, :, : g.n_cells[2] // 2 + 1])
        v, _ = self._fields()
        ref = self._ifftn_real(self._fftn(v.values) * full)
        self._assert_close(mol.apply_values(v.values), ref)

    def test_nyquist_rule_on_halved_axis(self):
        g = self.GRID
        nz = g.n_cells[2]
        cosine = np.broadcast_to((-1.0) ** np.arange(nz), g.shape)  # cos(pi z / h_z)
        f = ScalarField(g, cosine)
        assert np.all(grad(f).values == 0.0)
        k_nyq = np.pi / g.spacing[2]
        self._assert_close(laplacian(f).values, -(k_nyq**2) * cosine)
