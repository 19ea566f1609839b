"""Convolution smoothing with a compactly supported, even, unit-mass kernel.

The kernel is the classical C-infinity bump exp(-1/(1-(r/eps)^2)) restricted
to r < eps, sampled on the grid with minimum-image distances and renormalized
to unit discrete mass.  Convolution runs in Fourier space; the symbol is
forced real at construction so the operator is self-adjoint to rounding in
the discrete L2 product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .grid import Field, PeriodicGrid, ScalarField, _along, _fft, _filter


def _min_image_radius_sq(grid: PeriodicGrid) -> np.ndarray:
    coords = (grid.axis_coords(axis) for axis in range(3))
    return sum(
        _along(axis, np.minimum(x, l - x) ** 2)
        for axis, (x, l) in enumerate(zip(coords, grid.box_length))
    )


@dataclass(frozen=True, eq=False)
class Mollifier:
    """Immutable smoothing operator of support radius epsilon (box units)."""

    grid: PeriodicGrid
    epsilon: float
    kernel: ScalarField
    symbol: np.ndarray  # real Fourier symbol, includes the h^3 quadrature weight

    @classmethod
    def build(cls, grid: PeriodicGrid, epsilon: float) -> "Mollifier":
        if not np.isfinite(epsilon) or epsilon <= 0.0:
            raise ContractViolation(f"mollifier radius must be positive, got {epsilon}")
        r2 = _min_image_radius_sq(grid) / epsilon**2
        vals = np.zeros(grid.shape)
        inside = r2 < 1.0
        vals[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
        mass = vals.sum() * grid.cell_volume
        vals /= mass
        symbol = _fft(vals).real * grid.cell_volume
        return cls(grid, float(epsilon), ScalarField(grid, vals), symbol)

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        """Convolve a raw array whose trailing three axes match the grid."""
        return _filter(values, self.symbol)


def mollify(field: Field, mollifier: Mollifier) -> Field:
    """Periodic convolution of a field with the mollifier kernel."""
    if field.grid != mollifier.grid:
        raise ContractViolation("field and mollifier live on different grids")
    return type(field)(field.grid, mollifier.apply_values(field.values))
