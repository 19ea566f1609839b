"""Micromagnetic state and dynamics for a frustrated magnet.

The interaction energy is E(m) = 1/2 * int |hess m|^2 - |grad m|^2
+ h |m - e3|^2, which is H^2-coercive for h > 1/4.  Damped precession with
an adiabatic spin-transfer drive (j . grad) m is integrated in the
fourth-order quasilinear form

    (1 + alpha^2) dm/dt + A(m) bih(m) = A(m) f - alpha * Lam * m,

with A(m) xi = alpha xi - m x xi, f the tangential part of
h e3 - m x (j.grad)m - lap m, and Lam = -m . bih(m).  One step of the
integrator is first-order IMEX: a constant-coefficient biharmonic
stabilizer c*bih is treated implicitly (diagonal in Fourier space), the
rest explicitly with a 2/3-rule dealiased right-hand side, followed by
node-wise renormalization onto the unit sphere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import BlowUpError, ContractViolation, StateCorruption, TimeStepError
from .grid import PeriodicGrid, VectorField3, _fft, _ifft_real, _partials, _spectral_power

E3 = np.array([0.0, 0.0, 1.0])


def unit_normalize(values: np.ndarray, blow_up_floor: float | None = None) -> np.ndarray:
    """Project (3, ...) vectors onto the unit sphere node-wise.

    With blow_up_floor set, a norm below that floor aborts with BlowUpError
    (the IMEX update collapsed a node vector toward zero).
    """
    norms = np.sqrt(np.sum(values**2, axis=0))
    low = float(norms.min())
    if blow_up_floor is not None and low < blow_up_floor:
        raise BlowUpError(
            f"renormalization of a near-zero vector (|m*| = {low:.3e} < {blow_up_floor});"
            " time step too large for the field motion"
        )
    if low <= 0.0:
        raise ContractViolation("cannot normalize a zero vector")
    return values / norms


@dataclass(frozen=True, eq=False)
class MagnetizationField:
    """Unit-vector field m with its Zeeman constant h and Gilbert damping alpha.

    m is held as a read-only copy, so the spectrum and partial derivatives
    cached on first use always describe it; with_m makes a new state.
    """

    grid: PeriodicGrid
    m: np.ndarray  # shape (3, Nx, Ny, Nz), |m| = 1 node-wise
    h_zeeman: float
    alpha: float

    def __post_init__(self):
        arr = np.array(self.m, dtype=np.float64)  # a private copy, frozen below
        if arr.shape != (3, *self.grid.shape):
            raise ContractViolation("magnetization shape does not match grid")
        if not np.all(np.isfinite(arr)):
            raise ContractViolation("magnetization contains NaN or Inf")
        dev = np.abs(np.sqrt(np.sum(arr**2, axis=0)) - 1.0).max()
        if dev > 1e-12:
            raise StateCorruption(f"|m| deviates from 1 by {dev:.3e} (> 1e-12)")
        if self.alpha <= 0.0:
            raise ContractViolation("Gilbert damping alpha must be positive")
        object.__setattr__(self, "m", _read_only(arr))

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
                f"stabilizer c = {self.stabilizer_c} must be >= lambda = {self.lambda_coeff}"
            )

    @classmethod
    def from_alpha(cls, alpha: float, stabilizer_c: float | None = None) -> "LLCoefficients":
        lam = alpha / (1.0 + alpha**2)
        return cls(lam, 2.0 * lam if stabilizer_c is None else float(stabilizer_c))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _check_norm(mf: MagnetizationField, tol: float = 1e-6):
    dev = np.abs(np.sqrt(np.sum(mf.m**2, axis=0)) - 1.0).max()
    if dev > tol:
        raise StateCorruption(f"unit-norm invariant broken: deviation {dev:.3e}")


def energy(mf: MagnetizationField) -> float:
    """Total interaction energy, evaluated as a Fourier-space quadrature.

    By Parseval this equals the midpoint quadrature of the spectral-derivative
    integrand 1/2(|hess m|^2 - |grad m|^2 + h|m - e3|^2).
    """
    _check_norm(mf)
    g = mf.grid
    # m - e3 differs from m only in the k = 0 mode of m_z, by N in the
    # unnormalized transform
    spec = mf.spectrum.copy()
    spec[2, 0, 0, 0] -= g.n_nodes
    k2 = g.k_squared
    return float(0.5 * g.volume * _spectral_power(g, spec, k2 * k2 - k2 + mf.h_zeeman))


def apply_a(m: np.ndarray, xi: np.ndarray, alpha: float) -> np.ndarray:
    """A(m) xi = alpha xi - m x xi applied node-wise to (3, ...) arrays."""
    return alpha * xi - np.cross(m, xi, axis=0)


def effective_field(mf: MagnetizationField) -> VectorField3:
    """h_eff = -(bih m + lap m + h (m - e3)), the negative energy gradient."""
    _check_norm(mf)
    g = mf.grid
    spec = mf.spectrum
    k2 = g.k_squared
    lap = _ifft_real(-k2 * spec)
    bih = _ifft_real(k2 * k2 * spec)
    zeeman = mf.h_zeeman * (mf.m - E3.reshape(3, 1, 1, 1))
    return VectorField3(g, -(bih + lap + zeeman))


def _rhs(mf: MagnetizationField, j: VectorField3 | None):
    g = mf.grid
    if j is not None and j.grid != g:
        raise ContractViolation("current density lives on a different grid")
    alpha = mf.alpha
    m = mf.m
    spec = mf.spectrum
    k2 = g.k_squared
    lap = _ifft_real(-k2 * spec)
    bih = _ifft_real(k2 * k2 * spec)
    lam = -np.sum(m * bih, axis=0)

    drive = mf.h_zeeman * E3.reshape(3, 1, 1, 1) - lap
    if j is not None:
        jgrad = np.zeros_like(m)
        for axis, dm_axis in enumerate(mf.gradient):
            jgrad += j.values[axis] * dm_axis
        drive = drive - np.cross(m, jgrad, axis=0)
    f = drive - np.sum(drive * m, axis=0) * m  # tangential projection

    dmdt = (apply_a(m, f, alpha) - alpha * lam * m - apply_a(m, bih, alpha)) / (1.0 + alpha**2)
    return dmdt, lam


def ll_rhs(mf: MagnetizationField, j: VectorField3 | None = None):
    """dm/dt of the fourth-order form and the scalar Lam = -m . bih(m).

    Lam is taken in that defining form, so the returned rate is tangent to
    the sphere to rounding.
    """
    dmdt, lam = _rhs(mf, j)
    return VectorField3(mf.grid, dmdt), lam


def dt_max(grid: PeriodicGrid, alpha: float, h_zeeman: float, coeffs: LLCoefficients) -> float:
    """Largest stable step of the IMEX scheme (linearization about e3).

    For the worst dealiased mode K the explicit symbol is
    sigma = K^4 - K^2 + h and the amplification condition reads
    dt * (sigma - 2*lambda*c*K^4) <= 2*alpha; when c >= 1/(2*lambda) the
    scheme is unconditionally stable.
    """
    k2 = grid.dealiased_k_max_squared()
    sigma = k2 * k2 - k2 + h_zeeman
    denom = sigma - 2.0 * coeffs.lambda_coeff * coeffs.stabilizer_c * k2 * k2
    if denom <= 0.0 or sigma <= 0.0:
        return float("inf")
    return 2.0 * alpha / denom


def step(
    mf: MagnetizationField,
    j: VectorField3 | None,
    dt: float,
    coeffs: LLCoefficients,
) -> MagnetizationField:
    """One IMEX step followed by exact node-wise renormalization."""
    if dt <= 0.0:
        raise ContractViolation("dt must be positive")
    stable = dt_max(mf.grid, mf.alpha, mf.h_zeeman, coeffs)
    if dt > stable:
        raise TimeStepError(
            f"dt = {dt:.3e} exceeds the stable bound {stable:.3e} "
            f"(c = {coeffs.stabilizer_c:.4g}); reduce run.dt or raise llg.stabilizer_c"
        )
    g = mf.grid
    alpha2 = 1.0 + mf.alpha**2
    dmdt, _ = _rhs(mf, j)
    k2 = g.k_squared
    denom = alpha2 + coeffs.stabilizer_c * dt * k2 * k2
    rhs_spec = _fft(dmdt) * g.dealias_mask
    # Re-project the dealiased, stabilized rate onto the tangent space so the
    # renormalization stays a second-order correction even for marginally
    # resolved data.
    rate = _ifft_real(rhs_spec / denom)
    rate -= np.sum(rate * mf.m, axis=0) * mf.m
    m_star = mf.m + dt * alpha2 * rate
    m_new = unit_normalize(m_star, blow_up_floor=0.5)
    return mf.with_m(m_new)
