"""Micromagnetic state and dynamics for a frustrated magnet.

The interaction energy is E(m) = 1/2 * int |hess m|^2 - |grad m|^2
+ h |m - e3|^2, which is H^2-coercive for h > 1/4.  Damped precession with
an adiabatic spin-transfer drive (j . grad) m is integrated in the
fourth-order quasilinear form

    (1 + alpha^2) dm/dt + A(m) bih(m) = A(m) f - alpha * Lam * m,

with A(m) xi = alpha xi - m x xi, f the tangential part of
h e3 - m x (j.grad)m - lap m, and Lam = -m . bih(m).  With P the tangential
projection, A(m) bih + alpha Lam m = A(m) P bih, so the step evaluates the
same rate as

    dm/dt = A(m) P(h e3 - m x (j.grad)m - (lap + bih) m) / (1 + alpha^2),

which takes one inverse transform of (k^4 - k^2) m_hat; Lam is formed only
by ll_rhs.  One step of the integrator is first-order IMEX: a
constant-coefficient biharmonic stabilizer c*bih is treated implicitly
(diagonal in Fourier space), the rest explicitly with a 2/3-rule dealiased
right-hand side, followed by node-wise renormalization onto the unit sphere.
The rate's dealiased pair of transforms (grid._fft_dealiased,
grid._ifft_dealiased) runs only over the lines the 2/3 box keeps, and the
mask and the implicit denominator are one product with the real symbol
mask / denom.

The node-wise chains (the rate after its one inverse transform, the
re-projection, m* and its renormalization, the |m| = 1 check) run over the
x-slabs of grid._slabs so that their operands stay in cache.  Each node's
arithmetic is that of a whole-array pass, and the only cross-node reduction
inside them is a min, max or all, so every result is bitwise independent of the
slab size; the energy's Parseval sum stays one np.sum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import BlowUpError, ContractViolation, StateCorruption, TimeStepError
from .grid import (
    PeriodicGrid, VectorField3, _cross, _fft, _fft_dealiased, _ifft_dealiased, _ifft_real,
    _partials, _read_only, _slabs, _spectral_power,
)

E3 = np.array([0.0, 0.0, 1.0])


def unit_normalize(values: np.ndarray, blow_up_floor: float | None = None) -> np.ndarray:
    """Project (3, ...) vectors onto the unit sphere node-wise, slab by slab.

    With blow_up_floor set, a norm below that floor aborts with BlowUpError
    (the IMEX update collapsed a node vector toward zero).  Every norm is
    taken, and the global minimum checked, before any output is written.
    """
    slabs = _slabs(values.shape[1:])
    norms = np.empty(values.shape[1:])
    for s in slabs:
        np.sqrt(np.sum(values[:, s] ** 2, axis=0), out=norms[s])
    low, high = float(norms.min()), float(norms.max())
    if blow_up_floor is not None and not low >= blow_up_floor:  # NaN fails both tests
        raise BlowUpError(
            f"renormalization of a near-zero vector (|m*| = {low:.3e} < {blow_up_floor});"
            " time step too large for the field motion"
        )
    if blow_up_floor is not None and not high < np.inf:
        raise BlowUpError(f"renormalization of a vector with a non-finite norm (|m*| = {high:.3e})")
    if not (low > 0.0 and high < np.inf):
        raise ContractViolation("cannot normalize a zero or non-finite vector")
    out = np.empty(values.shape)
    for s in slabs:
        np.divide(values[:, s], norms[s], out=out[:, s])
    return out


@dataclass(frozen=True, eq=False)
class MagnetizationField:
    """Unit-vector field m with its Zeeman constant h and Gilbert damping alpha.

    m is a read-only copy, checked here once to |m| = 1 within 1e-12 for every operator,
    so the spectrum and partials cached on first use describe it; with_m makes a new state.
    step's new state adopts the fresh output of unit_normalize instead (_adopt_m).
    """

    grid: PeriodicGrid
    m: np.ndarray  # shape (3, Nx, Ny, Nz), |m| = 1 node-wise
    h_zeeman: float
    alpha: float

    def __post_init__(self):
        self._set_m(np.array(self.m, dtype=np.float64))  # a private copy
        if not 0.0 < self.alpha < np.inf:
            raise ContractViolation("Gilbert damping alpha must be positive and finite")
        if not np.isfinite(self.h_zeeman):
            raise ContractViolation("Zeeman constant h must be finite")

    def _set_m(self, arr: np.ndarray):
        """Check arr to |m| = 1 and freeze it as this state's m."""
        if arr.shape != (3, *self.grid.shape):
            raise ContractViolation("magnetization shape does not match grid")
        dev = 0.0
        for s in _slabs(self.grid.shape):
            slab = arr[:, s]
            if not np.all(np.isfinite(slab)):
                raise ContractViolation("magnetization contains NaN or Inf")
            dev = max(dev, np.abs(np.sqrt(np.sum(slab**2, axis=0)) - 1.0).max())
        if dev > 1e-12:
            raise StateCorruption(f"|m| deviates from 1 by {dev:.3e} (> 1e-12)")
        object.__setattr__(self, "m", _read_only(arr))

    def _adopt_m(self, new_m: np.ndarray) -> "MagnetizationField":
        """with_m for an array nothing else holds: checked and frozen in place, not copied."""
        new = object.__new__(MagnetizationField)
        new.__dict__.update(grid=self.grid, h_zeeman=self.h_zeeman, alpha=self.alpha)
        new._set_m(new_m)
        return new

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Half spectrum of m, taken once per state."""
        return _read_only(_fft(self.m))

    @cached_property
    def gradient(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Spectral partials (d_x m, d_y m, d_z m), each of shape (3, Nx, Ny, Nz)."""
        return tuple(_read_only(d) for d in _partials(self.grid, self.spectrum))

    def with_m(self, new_m: np.ndarray) -> "MagnetizationField":
        return replace(self, m=new_m)

    def as_vector_field(self) -> VectorField3:
        return VectorField3(self.grid, self.m)


@dataclass(frozen=True)
class LLCoefficients:
    """lambda = alpha/(1+alpha^2) plus the implicit biharmonic stabilizer c >= lambda."""

    lambda_coeff: float
    stabilizer_c: float

    def __post_init__(self):
        if self.stabilizer_c < self.lambda_coeff:
            raise ContractViolation(
                f"stabilizer c = {self.stabilizer_c} must be >= lambda = alpha/(1+alpha^2)"
                f" = {self.lambda_coeff:.6g}"
            )

    @classmethod
    def from_alpha(cls, alpha: float, stabilizer_c: float | None = None) -> "LLCoefficients":
        lam = alpha / (1.0 + alpha**2)
        return cls(lam, 2.0 * lam if stabilizer_c is None else float(stabilizer_c))


def energy(mf: MagnetizationField) -> float:
    """Total interaction energy, evaluated as a Fourier-space quadrature.

    By Parseval this equals the midpoint quadrature of the spectral-derivative
    integrand 1/2(|hess m|^2 - |grad m|^2 + h|m - e3|^2).
    """
    g = mf.grid
    # m - e3 differs from m only in the k = 0 mode of m_z, by N in the
    # unnormalized transform
    spec = mf.spectrum.copy()
    spec[2, 0, 0, 0] -= g.n_nodes
    return float(0.5 * g.volume * _spectral_power(g, spec, g.stiffness_symbol + mf.h_zeeman))


def apply_a(m: np.ndarray, xi: np.ndarray, alpha: float) -> np.ndarray:
    """A(m) xi = alpha xi - m x xi applied node-wise to (3, ...) arrays."""
    return alpha * xi - _cross(m, xi)


def _stiffness(mf: MagnetizationField) -> np.ndarray:
    """(bih + lap) m, one inverse transform of (k^4 - k^2) m_hat."""
    return _ifft_real(mf.grid.stiffness_symbol * mf.spectrum)


def effective_field(mf: MagnetizationField) -> VectorField3:
    """h_eff = -(bih m + lap m + h (m - e3)), the negative energy gradient."""
    zeeman = mf.h_zeeman * (mf.m - E3.reshape(3, 1, 1, 1))
    return VectorField3(mf.grid, -(_stiffness(mf) + zeeman))


def _rhs(mf: MagnetizationField, j: VectorField3 | None) -> np.ndarray:
    """dm/dt = A(m) P(h e3 - m x (j.grad)m - (lap + bih) m) / (1 + alpha^2).

    After the one inverse transform, each x-slab of the stiffness array is
    turned into the rate in place.
    """
    if j is not None and j.grid != mf.grid:
        raise ContractViolation("current density lives on a different grid")
    zeeman = mf.h_zeeman * E3.reshape(3, 1, 1, 1)
    out = _stiffness(mf)
    for s in _slabs(mf.grid.shape):
        m = mf.m[:, s]
        drive = np.subtract(zeeman, out[:, s], out=out[:, s])
        if j is not None:
            jgrad = np.zeros_like(m)
            for axis, dm_axis in enumerate(mf.gradient):
                jgrad += j.values[axis, s] * dm_axis[:, s]
            drive -= _cross(m, jgrad)
        drive -= np.sum(drive * m, axis=0) * m  # tangential projection
        np.divide(apply_a(m, drive, mf.alpha), 1.0 + mf.alpha**2, out=drive)
    return out


def ll_rhs(mf: MagnetizationField, j: VectorField3 | None = None):
    """dm/dt of the fourth-order form and the scalar Lam = -m . bih(m).

    Lam is taken in that defining form from its own inverse transform; the
    rate is A(m) applied to a tangential vector, so it is tangent to the
    sphere to rounding.
    """
    k2 = mf.grid.k_squared
    lam = -np.sum(mf.m * _ifft_real(k2 * k2 * mf.spectrum), axis=0)
    return VectorField3(mf.grid, _rhs(mf, j)), lam


def dt_max(grid: PeriodicGrid, alpha: float, h_zeeman: float, coeffs: LLCoefficients) -> float:
    """Largest stable step of the IMEX scheme (linearization about e3).

    For the worst dealiased mode K, the corner grid.dealias_cut of the 2/3
    box, the explicit symbol is sigma = K^4 - K^2 + h and the amplification
    condition reads dt * (sigma - 2*lambda*c*K^4) <= 2*alpha; when
    c >= 1/(2*lambda) the scheme is unconditionally stable.
    """
    k2 = float(grid.k_squared[grid.dealias_cut])
    sigma = float(grid.stiffness_symbol[grid.dealias_cut]) + h_zeeman
    denom = sigma - 2.0 * coeffs.lambda_coeff * coeffs.stabilizer_c * k2 * k2
    if denom <= 0.0 or sigma <= 0.0:
        return float("inf")
    return 2.0 * alpha / denom


def check_dt(mf: MagnetizationField, dt: float, coeffs: LLCoefficients) -> None:
    """The IMEX step's rule: dt positive and finite, and dt <= dt_max (else TimeStepError)."""
    if not 0.0 < dt < np.inf:
        raise ContractViolation("dt must be positive and finite")
    stable = dt_max(mf.grid, mf.alpha, mf.h_zeeman, coeffs)
    if dt > stable:
        raise TimeStepError(
            f"dt = {dt:.3e} exceeds the stable bound {stable:.3e} "
            f"(c = {coeffs.stabilizer_c:.4g}); reduce run.dt or raise llg.stabilizer_c"
        )


def step(
    mf: MagnetizationField,
    j: VectorField3 | None,
    dt: float,
    coeffs: LLCoefficients,
) -> MagnetizationField:
    """One IMEX step followed by exact node-wise renormalization."""
    check_dt(mf, dt, coeffs)
    g = mf.grid
    alpha2 = 1.0 + mf.alpha**2
    k2 = g.k_squared
    denom = alpha2 + coeffs.stabilizer_c * dt * k2 * k2
    # the rate's node array dies here; mask and reciprocal are one product
    rhs_spec = _fft_dealiased(g, _rhs(mf, j), g.dealias_mask / denom)
    # Re-project the dealiased, stabilized rate onto the tangent space so the
    # renormalization stays a second-order correction even for marginally
    # resolved data.
    m_star = _ifft_dealiased(g, rhs_spec)  # the rate, turned into m* slab by slab
    for s in _slabs(g.shape):
        m = mf.m[:, s]
        rate = m_star[:, s]
        rate -= np.sum(rate * m, axis=0) * m
        rate *= dt * alpha2
        rate += m
    return mf._adopt_m(unit_normalize(m_star, blow_up_floor=0.5))
