"""Spectral operator exactness, inner products, and Sobolev norms."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import llgvm
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
    mollify,
)
from llgvm.errors import ContractViolation
from llgvm.grid import _cross, _fft, _fft_dealiased, _ifft_dealiased, _ifft_real, _spectral_power
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

    def test_rejects_two_axes(self):
        with pytest.raises(ContractViolation, match="grid needs three axes"):
            PeriodicGrid((16, 16), (BOX, BOX))

    def test_rejects_nonpositive_box(self):
        with pytest.raises(ContractViolation):
            PeriodicGrid.cubic(16, -1.0)

    def test_dealias_cut_is_the_extent_of_the_mask(self):
        g = PeriodicGrid((6, 10, 14), (3.0, 5.0, 7.0))
        assert g.dealias_cut == (2, 3, 4)
        for axis, (modes, cut) in enumerate(zip(g.mode_numbers, g.dealias_cut)):
            kept = g.dealias_mask.any(axis=tuple(a for a in range(3) if a != axis))
            assert np.abs(modes[kept]).max() == cut
            assert np.array_equal(kept, np.abs(modes) <= cut)

    def test_cached_symbols(self):
        g = PeriodicGrid((6, 10, 14), (3.0, 5.0, 7.0))
        k2 = g.k_squared
        assert g.stiffness_symbol.tobytes() == (k2 * k2 - k2).tobytes()
        guarded = k2.copy()
        guarded[0, 0, 0] = 1.0
        assert g.inverse_k_squared.tobytes() == (1.0 / guarded).tobytes()
        for symbol in (g.stiffness_symbol, g.inverse_k_squared):
            with pytest.raises(ValueError):
                symbol[0, 0, 0] = 0.0
            with pytest.raises(ValueError):
                symbol *= 2.0

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

    @pytest.mark.parametrize("s", [np.nan, np.inf])
    def test_rejects_non_finite_s(self, grid16, s):
        with pytest.raises(ContractViolation, match="s must be finite"):
            hs_norm(ScalarField.zeros(grid16), s)

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

    def _assert_dealias_matches_full_fft(self, g, seed):
        v = VectorField3(g, np.random.default_rng(seed).standard_normal((3, *g.shape)))
        keep = np.ones(g.shape, dtype=bool)
        for axis, n in enumerate(g.n_cells):
            shape = [1, 1, 1]
            shape[axis] = n
            modes = (np.arange(n) + n // 2) % n - n // 2  # integers in FFT order
            keep &= (np.abs(modes) <= n // 3).reshape(shape)
        self._assert_close(dealias(v).values, self._ifftn_real(self._fftn(v.values) * keep))

    def test_dealias_matches_full_fft(self):
        self._assert_dealias_matches_full_fft(self.GRID, 41)

    @pytest.mark.parametrize(
        "shape", [(4, 6, 8), (6, 4, 10), (48, 48, 48)], ids=lambda s: "x".join(map(str, s))
    )
    def test_dealiased_pair_skips_only_zero_lines(self, shape):
        # the pruned pair against the full transforms: the forward equal by ==
        # (a masked zero may change sign) and bitwise on every kept mode, the
        # inverse bitwise
        g = PeriodicGrid(shape, (3.0, 5.0, 7.0))
        values = np.random.default_rng(47).standard_normal((3, *shape))
        ref = _fft(values) * g.dealias_mask
        spec = _fft_dealiased(g, values, g.dealias_mask)
        assert np.array_equal(spec, ref)
        kept = np.broadcast_to(g.dealias_mask, ref.shape)
        assert spec[kept].tobytes() == ref[kept].tobytes()
        assert _ifft_dealiased(g, ref.copy()).tobytes() == _ifft_real(ref.copy()).tobytes()
        assert _ifft_dealiased(g, spec).tobytes() == _ifft_real(ref).tobytes()
        self._assert_dealias_matches_full_fft(g, 41)

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


class TestCross:
    def test_bitwise_equal_to_np_cross(self):
        rng = np.random.default_rng(17)
        a, b = rng.standard_normal((2, 3, 16, 16, 16))
        assert np.array_equal(_cross(a, b), np.cross(a, b, axis=0))
        e3 = np.array([0.0, 0.0, 1.0]).reshape(3, 1, 1, 1)
        assert np.array_equal(_cross(e3, a), np.cross(e3, a, axis=0))
        assert np.array_equal(_cross(a, e3), np.cross(a, e3, axis=0))


TRANSFORM_CASES = [
    pytest.param(lead + shape, id=f"{'vector' if lead else 'scalar'}-{'x'.join(map(str, shape))}")
    for shape in ((16, 16, 16), (48, 48, 48), (8, 12, 16), (16, 8, 12))
    for lead in ((), (3,))
]


class TestTransforms:
    """_fft and _ifft_real are numpy's rfftn and irfftn, and allocate only their outputs."""

    @pytest.mark.parametrize("shape", TRANSFORM_CASES)
    def test_bitwise_equal_to_rfftn_and_irfftn(self, shape):
        values = np.random.default_rng(23).standard_normal(shape)
        spec = _fft(values)
        assert np.array_equal(spec, np.fft.rfftn(values, axes=(-3, -2, -1)))
        ref = np.fft.irfftn(spec, s=shape[-3:], axes=(-3, -2, -1))
        assert np.array_equal(_ifft_real(spec.copy()), ref)

    @pytest.mark.parametrize("shape", TRANSFORM_CASES)
    def test_peak_allocation_is_the_output(self, shape):
        values = np.random.default_rng(29).standard_normal(shape)
        for transform, arg in ((_fft, values), (_ifft_real, _fft(values))):
            tracemalloc.start()
            try:
                out = transform(arg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * out.nbytes, transform.__name__

    def test_operators_are_one_product_with_the_spectrum(self):
        # each operator is _ifft_real of one product with _fft(values), bitwise:
        # the multipliers with a float, a bool and the mollifier's symbol, and
        # div and curl with ik . v_hat and ik x v_hat
        g = PeriodicGrid((8, 12, 16), (3.0, 5.0, 7.0))
        v = VectorField3(g, np.random.default_rng(43).standard_normal((3, *g.shape)))
        k2, ik, mol = g.k_squared, g._ik, Mollifier.build(g, 1.2)
        for field in (v.component(1), v):
            spec = _fft(field.values)
            assert np.array_equal(laplacian(field).values, _ifft_real(spec * -k2))
            assert np.array_equal(biharmonic(field).values, _ifft_real(spec * (k2 * k2)))
            assert np.array_equal(dealias(field).values, _ifft_real(spec * g.dealias_mask))
            assert np.array_equal(mollify(field, mol).values, _ifft_real(spec * mol.symbol))
        s = _fft(v.values)
        assert np.array_equal(div(v).values, _ifft_real(ik[0] * s[0] + ik[1] * s[1] + ik[2] * s[2]))
        ref_curl = [
            _ifft_real(ik[1] * s[2] - ik[2] * s[1]),
            _ifft_real(ik[2] * s[0] - ik[0] * s[2]),
            _ifft_real(ik[0] * s[1] - ik[1] * s[0]),
        ]
        assert np.array_equal(curl(v).values, np.stack(ref_curl))

    def test_complex_over_real_is_a_product_with_the_reciprocal(self):
        # numpy divides a complex array by a real one as (re + im*0) * (1/d), so
        # the product with 1/d is bitwise equal on every nonzero part; a zero part
        # may change sign.  A numpy change to complex division fails here.
        g = PeriodicGrid((8, 12, 16), (3.0, 5.0, 7.0))
        spec = _fft(np.random.default_rng(53).standard_normal(g.shape))
        # the Nyquist planes stay as rfftn gives them; the self-conjugate modes
        # there, such as (0, 0, Nz/2) and (Nx/2, Ny/2, Nz/2), have no imaginary part
        spec[1, 2, :4] = [0.0, complex(-0.0, 1.5), complex(2.5, -0.0), complex(-0.0, -0.0)]
        spec[2, 3, :3] = [1e-310, complex(-1e150, 1e-300), complex(5e-324, -3.0)]
        k2 = g.k_squared.copy()
        k2[0, 0, 0] = 1.0
        for d in (1.01 + 0.3 * k2 * k2, k2, g.n_nodes):
            quotient, product = spec / d, spec * (1.0 / d)
            assert np.array_equal(quotient, product)
            for q, p in ((quotient.real, product.real), (quotient.imag, product.imag)):
                nonzero = p != 0.0
                assert q[nonzero].tobytes() == p[nonzero].tobytes()
        # the squares drop a zero's sign, so the Parseval sum is the quotient's
        amp = spec / g.n_nodes
        power = (np.square(amp.real) + np.square(amp.imag)) * g.parseval_weight
        assert _spectral_power(g, spec.copy()) == float(np.sum(power))

    def test_cached_spectrum_is_refused_untouched(self, grid16):
        mf = MagnetizationField(grid16, random_smooth_unit(grid16, 31, 0.3, 2), 0.5, 0.1)
        before = mf.spectrum.copy()
        with pytest.raises(ValueError):
            _ifft_real(mf.spectrum)
        with pytest.raises(ValueError):
            _spectral_power(grid16, mf.spectrum)
        assert np.array_equal(mf.spectrum, before)


def test_import_does_not_load_scipy():
    # Every transform is numpy.fft's.  Importing scipy.fft pulls in
    # scipy.special and raises a process's RSS from 26.9 to 53.8 MB after
    # numpy alone (+27 MB, 25-38% of a benchmark workload's peak RSS), so a
    # backend swap must be measured against that, not slipped in.
    env = {**os.environ, "PYTHONPATH": str(Path(llgvm.__file__).parents[1])}
    code = "import sys, llgvm; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
