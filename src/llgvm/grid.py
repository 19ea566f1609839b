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

Transforms allocate only their outputs.  ``_fft`` runs every pass of
``np.fft.rfftn(..., out=)`` in one output array; ``_ifft_real`` runs
``np.fft.ifftn(spec, axes=(-2, -3), out=spec)`` (x first, as irfftn does)
and then one ``np.fft.irfft`` over z, bitwise equal to irfftn.
``_ifft_real`` and ``_spectral_power`` consume their input: it must be a
writable array the caller owns, and a read-only one (a cached spectrum)
raises ValueError untouched.

The 2/3 rule keeps the box |n_i| <= N_i // 3 of mode numbers (``dealias_cut``,
its one home), so a dealiased pair (``dealias``, the LLG step's rate)
transforms only the lines that box meets: ``_fft_dealiased`` runs the y pass on
the kept kz planes and the x pass on the kept (ky, kz) lines before it
multiplies by a symbol that is zero outside the box (the mask, or the mask over
the LLG step's implicit denominator), and ``_ifft_dealiased`` skips the same
zero lines before its full z pass.  Each line it transforms is bitwise the line
of the full transform.  A complex spectrum is divided by a real array as a
product with its reciprocal: numpy's complex / real is (re + im * 0) * (1 / d),
so the product is bitwise equal on every nonzero part and may differ only in
the sign of a zero part.  A real / real quotient stays a division.

Real-space chains of node-wise arithmetic (the LLG right-hand side and
renormalization, the emergent triple products, the |m| checks) run over the
x-slabs of ``_slabs``, about ``_SLAB_NODES`` nodes each, so that a chain's
operands stay in cache between its passes.  The result is bitwise that of
whole-array passes: every node's expression keeps its operands and order,
and a reduction across nodes is either order-free (min, max, all) or stays
one np.sum over the whole array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractViolation

_SLAB_NODES = 1 << 14  # nodes per x-slab of a real-space chain: three (3, slab) operands fit in L2


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
    def stiffness_symbol(self) -> np.ndarray:
        """Read-only k^4 - k^2, the symbol of bih + lap and, plus h, of the energy."""
        k2 = self.k_squared
        return _read_only(k2 * k2 - k2)

    @cached_property
    def inverse_k_squared(self) -> np.ndarray:
        """Read-only 1 / |k|^2 of the curl inversion, guarded to 1 at k = 0."""
        k2 = self.k_squared.copy()
        k2[0, 0, 0] = 1.0
        return _read_only(1.0 / k2)

    @property
    def dealias_cut(self) -> tuple[int, int, int]:
        """The 2/3 rule: the largest kept |mode number| per axis, N_i // 3."""
        return tuple(n // 3 for n in self.n_cells)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean 2/3-rule mask over the half spectrum (True = keep)."""
        return self.box_mask(self.dealias_cut)

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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _along(axis: int, vec: np.ndarray) -> np.ndarray:
    """Reshape a per-axis vector so that it broadcasts along one grid axis."""
    shape = [1, 1, 1]
    shape[axis] = vec.size
    return vec.reshape(shape)


def _slabs(shape) -> list[slice]:
    """Contiguous slices of axis 0 of a grid shape, about _SLAB_NODES nodes each, in order."""
    n = shape[0]
    count = min(n, max(1, round(int(np.prod(shape)) / _SLAB_NODES)))
    ends = [n * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]


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
    out = np.empty((*values.shape[:-1], values.shape[-1] // 2 + 1), np.complex128)
    return np.fft.rfftn(values, axes=(-3, -2, -1), out=out)


def _ifft_real(spec: np.ndarray) -> np.ndarray:
    """Real array from a half spectrum; the node counts are even by contract.

    Consumes ``spec``, which is left holding its x-y inverse.
    """
    np.fft.ifftn(spec, axes=(-2, -3), out=spec)
    return np.fft.irfft(spec, n=2 * (spec.shape[-1] - 1), axis=-1)


def _partials(grid: PeriodicGrid, spec: np.ndarray) -> list[np.ndarray]:
    """The three spectral partial derivatives of a field, from its half spectrum."""
    product = np.empty_like(spec)  # one buffer, consumed by each inverse
    return [_ifft_real(np.multiply(grid._ik[axis], spec, out=product)) for axis in range(3)]


def _cross(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a x b over the leading axis of (3, ...) arrays, bitwise equal to np.cross(a, b, axis=0).

    The components are written out in np.cross's order into one output (a
    new array, or ``out``, which must not overlap a or b), so no operand is
    copied to move its vector axis last.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    np.multiply(a[1], b[2], out=out[0])
    out[0] -= a[2] * b[1]
    np.multiply(a[2], b[0], out=out[1])
    out[1] -= a[0] * b[2]
    np.multiply(a[0], b[1], out=out[2])
    out[2] -= a[1] * b[0]
    return out


def _dealiased_lines(grid: PeriodicGrid) -> tuple[slice, tuple[slice, slice]]:
    """The kz planes and the two ky blocks, in FFT order, that the 2/3 rule keeps."""
    _, cy, cz = grid.dealias_cut  # cy >= 1, as every node count is >= 4
    return slice(0, cz + 1), (slice(0, cy + 1), slice(-cy, None))


def _fft_dealiased(grid: PeriodicGrid, values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """_fft(values) * symbol for a symbol that is zero outside the 2/3 box, e.g. grid.dealias_mask.

    The y and x passes run only on the lines the box keeps, each bitwise that
    line of _fft; the product is equal to the full one by ==, and a masked
    zero may differ in sign.
    """
    kz, ky_blocks = _dealiased_lines(grid)
    out = np.empty((*values.shape[:-1], values.shape[-1] // 2 + 1), np.complex128)
    np.fft.rfft(values, axis=-1, out=out)
    planes = out[..., kz]
    np.fft.fft(planes, axis=-2, out=planes)
    for ky in ky_blocks:
        lines = out[..., ky, kz]
        np.fft.fft(lines, axis=-3, out=lines)
    out *= symbol
    return out


def _ifft_dealiased(grid: PeriodicGrid, spec: np.ndarray) -> np.ndarray:
    """_ifft_real(spec), bitwise, for a spec that is zero outside the 2/3 box; consumes spec.

    The x pass skips the masked (ky, kz) lines and the y pass the masked kz
    planes, whose inverse is zero; the z pass is full.
    """
    kz, ky_blocks = _dealiased_lines(grid)
    for ky in ky_blocks:
        lines = spec[..., ky, kz]
        np.fft.ifft(lines, axis=-3, out=lines)
    planes = spec[..., kz]
    np.fft.ifft(planes, axis=-2, out=planes)
    return np.fft.irfft(spec, n=2 * (spec.shape[-1] - 1), axis=-1)


def _spectral_power(grid: PeriodicGrid, spec: np.ndarray, weight=1.0) -> float:
    """sum_k weight(k) |spec(k)/N|^2 over the full spectrum, from the half spectrum.

    Consumes ``spec``.
    """
    amp = np.multiply(spec, 1.0 / grid.n_nodes, out=spec)
    power = np.square(amp.real)
    power += np.square(amp.imag, out=amp.imag)
    power *= grid.parseval_weight * weight
    return float(np.sum(power))


def grad(field: ScalarField) -> VectorField3:
    if not isinstance(field, ScalarField):
        raise ContractViolation("grad expects a scalar field")
    g = field.grid
    return VectorField3(g, np.stack(_partials(g, _fft(field.values))))


def _div_spectrum(grid: PeriodicGrid, spec: np.ndarray) -> np.ndarray:
    """ik . v_hat, the half spectrum of div v from the half spectrum of v."""
    ik = grid._ik
    out = ik[0] * spec[0]
    term = ik[1] * spec[1]
    out += term
    out += np.multiply(ik[2], spec[2], out=term)
    return out


def _curl_spectrum(grid: PeriodicGrid, spec: np.ndarray):
    """ik x v_hat, the half spectra of curl v from that of v, yielded one component at a time."""
    ik = grid._ik
    yield ik[1] * spec[2] - ik[2] * spec[1]
    yield ik[2] * spec[0] - ik[0] * spec[2]
    yield ik[0] * spec[1] - ik[1] * spec[0]


def div(field: VectorField3) -> ScalarField:
    if not isinstance(field, VectorField3):
        raise ContractViolation("div expects a vector field")
    g = field.grid
    return ScalarField(g, _ifft_real(_div_spectrum(g, _fft(field.values))))


def curl(field: VectorField3) -> VectorField3:
    if not isinstance(field, VectorField3):
        raise ContractViolation("curl expects a vector field")
    g = field.grid
    spectra = _curl_spectrum(g, _fft(field.values))
    return VectorField3(g, np.stack([_ifft_real(c) for c in spectra]))


def _filter(values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """The real array whose half spectrum is that of values times symbol (a Fourier multiplier)."""
    spec = _fft(values)
    spec *= symbol
    return _ifft_real(spec)


def laplacian(field: Field) -> Field:
    return type(field)(field.grid, _filter(field.values, -field.grid.k_squared))


def biharmonic(field: Field) -> Field:
    k2 = field.grid.k_squared
    return type(field)(field.grid, _filter(field.values, k2 * k2))


def dealias(field: Field) -> Field:
    """Zero all modes beyond the 2/3 rule (used on nonlinear right-hand sides)."""
    g = field.grid
    return type(field)(g, _ifft_dealiased(g, _fft_dealiased(g, field.values, g.dealias_mask)))


def l2_inner(a: Field, b: Field) -> float:
    """Midpoint-quadrature L2 scalar product sum(a*b) * h^3."""
    if type(a) is not type(b):
        raise ContractViolation("field ranks differ")
    if a.grid != b.grid:
        raise ContractViolation("fields live on different grids")
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
