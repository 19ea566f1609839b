"""Periodic uniform grid and Fourier-multiplier differential operators.

Derivatives act on the trigonometric interpolant of the node values, so they
are exact on band-limited fields.  Odd-order derivatives zero the Nyquist
mode (the interpolant's cosine Nyquist component has no representable
derivative on the grid); even-order multipliers keep it.  All reductions use
numpy's fixed pairwise summation, so results do not depend on thread count.

Fields are real, so every transform is a real-data one: a spectrum holds the
modes 0..Nz/2 of the last axis and all modes of the other two.  Every other
mode of the last axis is the conjugate of a stored one, so Parseval sums
count the interior modes of the halved axis twice (``parseval_weight``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractViolation


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic box [0, Lx) x [0, Ly) x [0, Lz) with even node counts."""

    n_cells: tuple[int, int, int]
    box_length: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "n_cells", tuple(int(n) for n in self.n_cells))
        object.__setattr__(self, "box_length", tuple(float(l) for l in self.box_length))
        if len(self.n_cells) != 3 or len(self.box_length) != 3:
            raise ContractViolation("grid needs three axes")
        for n in self.n_cells:
            if n < 4 or n % 2 != 0:
                raise ContractViolation(
                    f"node count per axis must be even and >= 4, got {n}"
                )
        for l in self.box_length:
            if not np.isfinite(l) or l <= 0.0:
                raise ContractViolation(f"box length must be positive, got {l}")

    @classmethod
    def cubic(cls, n: int, length: float) -> "PeriodicGrid":
        return cls((n, n, n), (length, length, length))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.n_cells

    @property
    def spacing(self) -> tuple[float, float, float]:
        return tuple(l / n for l, n in zip(self.box_length, self.n_cells))

    @property
    def cell_volume(self) -> float:
        hx, hy, hz = self.spacing
        return hx * hy * hz

    @property
    def volume(self) -> float:
        lx, ly, lz = self.box_length
        return lx * ly * lz

    @property
    def n_nodes(self) -> int:
        nx, ny, nz = self.n_cells
        return nx * ny * nz

    def axis_coords(self, axis: int, offset: float = 0.0) -> np.ndarray:
        """Node (offset=0) or staggered (offset=0.5) coordinates along one axis."""
        n = self.n_cells[axis]
        h = self.spacing[axis]
        return (np.arange(n) + offset) * h

    @cached_property
    def node_mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x, y, z = (self.axis_coords(a) for a in range(3))
        return tuple(np.meshgrid(x, y, z, indexing="ij"))

    def staggered_mesh(self, offsets):
        """Full coordinate mesh with per-axis half-cell offsets (Yee staggering)."""
        axes = [self.axis_coords(a, o) for a, o in enumerate(offsets)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    @cached_property
    def mode_numbers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integer mode numbers per axis in half-spectrum ordering.

        The first two axes run over all modes in FFT order; the last holds
        0..Nz/2, the Nyquist mode last.
        """
        nx, ny, nz = self.n_cells
        return (
            np.fft.fftfreq(nx, d=1.0 / nx),
            np.fft.fftfreq(ny, d=1.0 / ny),
            np.fft.rfftfreq(nz, d=1.0 / nz),
        )

    @cached_property
    def wavenumbers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Physical wavevectors 2*pi*n/L per axis in half-spectrum ordering."""
        return tuple(2.0 * np.pi * n / l for n, l in zip(self.mode_numbers, self.box_length))

    @cached_property
    def _ik(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable i*k multiplier per axis with the Nyquist mode zeroed."""
        out = []
        for axis in range(3):
            k = self.wavenumbers[axis].copy()
            k[self.n_cells[axis] // 2] = 0.0  # Nyquist: the last entry of the halved axis
            out.append(_along(axis, 1j * k))
        return tuple(out)

    @cached_property
    def k_squared(self) -> np.ndarray:
        return sum(_along(axis, k**2) for axis, k in enumerate(self.wavenumbers))

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean 2/3-rule mask over the half spectrum (True = keep)."""
        return self.box_mask([n // 3 for n in self.n_cells])

    def box_mask(self, cut) -> np.ndarray:
        """Modes whose mode number satisfies |n_i| <= cut[i] on every axis."""
        keep = [
            _along(axis, np.abs(n) <= c)
            for axis, (n, c) in enumerate(zip(self.mode_numbers, cut))
        ]
        return keep[0] & keep[1] & keep[2]

    @cached_property
    def parseval_weight(self) -> np.ndarray:
        """How often each stored mode occurs in the full spectrum (1 or 2)."""
        w = np.full(self.n_cells[2] // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        return _along(2, w)

    def dealiased_k_max_squared(self) -> float:
        """Largest |k|^2 surviving the 2/3 rule (corner mode)."""
        return float(
            sum((2.0 * np.pi * (n // 3) / l) ** 2 for n, l in zip(self.n_cells, self.box_length))
        )


def _along(axis: int, vec: np.ndarray) -> np.ndarray:
    """Reshape a per-axis vector so that it broadcasts along one grid axis."""
    shape = [1, 1, 1]
    shape[axis] = vec.size
    return vec.reshape(shape)


def _as_values(values, grid: PeriodicGrid, ncomp: int | None):
    arr = np.asarray(values, dtype=np.float64)
    expected = grid.shape if ncomp is None else (ncomp, *grid.shape)
    if arr.shape != expected:
        raise ContractViolation(f"field shape {arr.shape} does not match grid {expected}")
    if not np.all(np.isfinite(arr)):
        raise ContractViolation("field contains NaN or Inf")
    return arr


@dataclass(frozen=True, eq=False)
class ScalarField:
    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.values, self.grid, None))

    @classmethod
    def zeros(cls, grid: PeriodicGrid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def full(cls, grid: PeriodicGrid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))


@dataclass(frozen=True, eq=False)
class VectorField3:
    grid: PeriodicGrid
    values: np.ndarray  # shape (3, Nx, Ny, Nz)

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.values, self.grid, 3))

    @classmethod
    def zeros(cls, grid: PeriodicGrid) -> "VectorField3":
        return cls(grid, np.zeros((3, *grid.shape)))

    @classmethod
    def constant(cls, grid: PeriodicGrid, vec) -> "VectorField3":
        out = np.empty((3, *grid.shape))
        for c in range(3):
            out[c] = vec[c]
        return cls(grid, out)

    def component(self, c: int) -> ScalarField:
        return ScalarField(self.grid, self.values[c])


Field = ScalarField | VectorField3


def _fft(values: np.ndarray) -> np.ndarray:
    """Half spectrum of a real array over its trailing three (grid) axes."""
    return np.fft.rfftn(values, axes=(-3, -2, -1))


def _ifft_real(spec: np.ndarray) -> np.ndarray:
    """Real array from a half spectrum; the node counts are even by contract."""
    nx, ny, nzh = spec.shape[-3:]
    return np.fft.irfftn(spec, s=(nx, ny, 2 * (nzh - 1)), axes=(-3, -2, -1))


def _partials(grid: PeriodicGrid, spec: np.ndarray) -> list[np.ndarray]:
    """The three spectral partial derivatives of a field, from its half spectrum."""
    return [_ifft_real(grid._ik[axis] * spec) for axis in range(3)]


def _spectral_power(grid: PeriodicGrid, spec: np.ndarray, weight=1.0) -> float:
    """sum_k weight(k) |spec(k)/N|^2 over the full spectrum, from the half spectrum."""
    amp = spec / grid.n_nodes
    return float(np.sum(grid.parseval_weight * weight * (amp.real**2 + amp.imag**2)))


def grad(field: ScalarField) -> VectorField3:
    if not isinstance(field, ScalarField):
        raise ContractViolation("grad expects a scalar field")
    g = field.grid
    return VectorField3(g, np.stack(_partials(g, _fft(field.values))))


def div(field: VectorField3) -> ScalarField:
    if not isinstance(field, VectorField3):
        raise ContractViolation("div expects a vector field")
    g = field.grid
    spec = _fft(field.values)
    acc = g._ik[0] * spec[0] + g._ik[1] * spec[1] + g._ik[2] * spec[2]
    return ScalarField(g, _ifft_real(acc))


def curl(field: VectorField3) -> VectorField3:
    if not isinstance(field, VectorField3):
        raise ContractViolation("curl expects a vector field")
    g = field.grid
    ik = g._ik
    spec = _fft(field.values)
    out = np.stack(
        [
            _ifft_real(ik[1] * spec[2] - ik[2] * spec[1]),
            _ifft_real(ik[2] * spec[0] - ik[0] * spec[2]),
            _ifft_real(ik[0] * spec[1] - ik[1] * spec[0]),
        ]
    )
    return VectorField3(g, out)


def laplacian(field: Field) -> Field:
    g = field.grid
    spec = _fft(field.values) * (-g.k_squared)
    vals = _ifft_real(spec)
    return type(field)(g, vals)


def biharmonic(field: Field) -> Field:
    g = field.grid
    spec = _fft(field.values) * (g.k_squared * g.k_squared)
    vals = _ifft_real(spec)
    return type(field)(g, vals)


def dealias(field: Field) -> Field:
    """Zero all modes beyond the 2/3 rule (used on nonlinear right-hand sides)."""
    g = field.grid
    spec = _fft(field.values) * g.dealias_mask
    return type(field)(g, _ifft_real(spec))


def _check_compatible(a: Field, b: Field):
    if type(a) is not type(b):
        raise ContractViolation("field ranks differ")
    if a.grid != b.grid:
        raise ContractViolation("fields live on different grids")


def l2_inner(a: Field, b: Field) -> float:
    """Midpoint-quadrature L2 scalar product sum(a*b) * h^3."""
    _check_compatible(a, b)
    return float(np.sum(a.values * b.values) * a.grid.cell_volume)


def l2_norm(a: Field) -> float:
    return float(np.sqrt(np.sum(a.values**2) * a.grid.cell_volume))


def hs_norm(field: Field, s: float) -> float:
    """Discrete H^s norm: (V * sum_k (1+|k|^2)^s |F(f)(k)|^2)^(1/2).

    F is the normalized transform (amplitude convention), so hs_norm(f, 0)
    equals the L2 norm by Parseval.
    """
    if not np.isfinite(s):
        raise ContractViolation("s must be finite")
    g = field.grid
    power = _spectral_power(g, _fft(field.values), (1.0 + g.k_squared) ** s)
    return float(np.sqrt(g.volume * power))
