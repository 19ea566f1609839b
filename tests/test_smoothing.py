"""Mollifier kernel invariants and convolution properties."""

import numpy as np
import pytest

from llgvm import Mollifier, PeriodicGrid, ScalarField, l2_norm, mollify
from llgvm.errors import ContractViolation

from conftest import BOX, band_limited_scalar


@pytest.fixture(scope="module")
def mol16(grid16):
    return Mollifier.build(grid16, 4.0 * grid16.spacing[0])


class TestKernel:
    def test_unit_mass(self, mol16, grid16):
        mass = mol16.kernel.values.sum() * grid16.cell_volume
        assert abs(mass - 1.0) < 1e-12

    def test_nonnegative(self, mol16):
        assert mol16.kernel.values.min() >= 0.0

    def test_even_on_grid(self, mol16, grid16):
        vals = mol16.kernel.values
        for axis in range(3):
            n = grid16.n_cells[axis]
            idx = (n - np.arange(n)) % n
            vals = np.take(vals, idx, axis=axis)
        assert np.array_equal(vals, mol16.kernel.values)

    def test_support_inside_ball(self, mol16, grid16):
        x, y, z = grid16.node_mesh
        d2 = np.minimum(x, BOX - x) ** 2 + np.minimum(y, BOX - y) ** 2 + np.minimum(z, BOX - z) ** 2
        outside = d2 >= mol16.epsilon**2
        assert np.abs(mol16.kernel.values[outside]).max() == 0.0

    def test_kernel_matches_per_axis_loop(self):
        grid = PeriodicGrid((8, 12, 16), (8.0, 9.0, 10.0))
        eps = 2.5
        r2 = np.zeros(grid.shape)
        for axis in range(3):
            x = grid.axis_coords(axis)
            shape = [1, 1, 1]
            shape[axis] = -1
            r2 = r2 + (np.minimum(x, grid.box_length[axis] - x) ** 2).reshape(shape)
        r2 = r2 / eps**2
        vals = np.zeros(grid.shape)
        vals[r2 < 1.0] = np.exp(-1.0 / (1.0 - r2[r2 < 1.0]))
        vals /= vals.sum() * grid.cell_volume
        assert np.array_equal(Mollifier.build(grid, eps).kernel.values, vals)

    def test_rejects_nonpositive_radius(self, grid16):
        with pytest.raises(ContractViolation):
            Mollifier.build(grid16, 0.0)


class TestMollify:
    def test_preserves_constants(self, mol16, grid16):
        out = mollify(ScalarField.full(grid16, 3.25), mol16)
        assert np.abs(out.values - 3.25).max() < 1e-12

    def test_preserves_mass(self, mol16, grid16):
        f = band_limited_scalar(grid16, 30)
        out = mollify(f, mol16)
        assert out.values.sum() * grid16.cell_volume == pytest.approx(
            f.values.sum() * grid16.cell_volume, abs=1e-12 * max(1.0, l2_norm(f))
        )

    def test_preserves_nonnegativity(self, mol16, grid16):
        f = band_limited_scalar(grid16, 31)
        shifted = ScalarField(grid16, f.values - f.values.min())
        out = mollify(shifted, mol16)
        assert out.values.min() >= -1e-14 * np.abs(shifted.values).max()

    def test_linear(self, mol16, grid16):
        a = band_limited_scalar(grid16, 32)
        b = band_limited_scalar(grid16, 33)
        lhs = mollify(ScalarField(grid16, 2.0 * a.values - b.values), mol16).values
        rhs = 2.0 * mollify(a, mol16).values - mollify(b, mol16).values
        assert np.abs(lhs - rhs).max() < 1e-13 * max(1.0, np.abs(rhs).max())

    def test_second_order_accuracy(self):
        # smoothing error on a single mode is O(eps^2) for even kernels
        grid = PeriodicGrid.cubic(64, BOX)
        x = grid.node_mesh[0]
        u = ScalarField(grid, np.sin(2.0 * np.pi * x / BOX))
        h = grid.spacing[0]
        errs = []
        for eps in (8.0 * h, 4.0 * h):
            mol = Mollifier.build(grid, eps)
            errs.append(np.abs(mollify(u, mol).values - u.values).max())
        assert np.log2(errs[0] / errs[1]) >= 1.9

    def test_grid_mismatch_raises(self, mol16, grid32):
        with pytest.raises(ContractViolation):
            mollify(ScalarField.zeros(grid32), mol16)
