"""Topological diagnostics: lattice degree, vector potential, helicity, Hopf index.

The per-slice skyrmion number is the lattice Brouwer degree computed from
signed spherical-triangle areas (two triangles per plaquette), which returns
integers up to rounding and reports degenerate plaquettes explicitly.  The
vector potential inverts the curl in the Coulomb gauge,
a_hat(k) = i k x b_hat(k) / |k|^2, after removing the k = 0 mode of b.  The
helicity <a, b> (Whitehead's integral) divided by (4 pi)^2 is the Hopf
invariant of a localized texture.  With b_hat = R + iI,
Re(a_hat . conj b_hat) = 2 k . (R x I) / |k|^2, so the helicity is one real
Parseval sum over the half spectrum of b and builds no potential.  The
ledger's hopf column and topology_report (llgvm diag topology) both take it
from _helicity, so on the same state they agree bitwise; the report checks b
once, for the helicity and for the potential whose gauge it reports.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DegenerateSliceError
from .grid import VectorField3, _cross, _curl_spectrum, _div_spectrum, _fft, _ifft_real, _spectral_power
from .grid import PeriodicGrid, div, l2_norm
from .magnetization import E3, MagnetizationField
from .emergent import compute_b

log = logging.getLogger(__name__)

FOUR_PI = 4.0 * np.pi


def _signed_triangle_areas(n1, n2, n3):
    """Signed spherical areas of triangles given by unit vectors (3, ...).

    Uses the half-angle form: Omega = 2 * atan2(n1.(n2 x n3),
    1 + n1.n2 + n2.n3 + n3.n1).  Returns (areas, degenerate_mask).
    """
    s12 = np.sum(n1 * n2, axis=0)
    s23 = np.sum(n2 * n3, axis=0)
    s31 = np.sum(n3 * n1, axis=0)
    chi = np.sum(n1 * _cross(n2, n3), axis=0)
    re = 1.0 + s12 + s23 + s31
    degenerate = (np.hypot(re, chi) < 1e-9) | ((re < 0.0) & (np.abs(chi) < 1e-12))
    return 2.0 * np.arctan2(chi, re), degenerate


def skyrmion_number(mf: MagnetizationField, z_index: int) -> float:
    """Lattice degree of the z-slice map into the sphere.

    The value is a sum of plaquette solid angles divided by 4 pi; for a
    non-degenerate slice it is an integer up to rounding.
    """
    nz = mf.grid.n_cells[2]
    if not -nz <= z_index < nz:
        raise ContractViolation(f"z index {z_index} out of range for {nz} slices")
    n1 = mf.m[:, :, :, z_index]  # (3, Nx, Ny)
    n2 = np.roll(n1, -1, axis=1)
    n3 = np.roll(n2, -1, axis=2)
    n4 = np.roll(n1, -1, axis=2)
    omega_a, bad_a = _signed_triangle_areas(n1, n2, n3)
    omega_b, bad_b = _signed_triangle_areas(n1, n3, n4)
    bad = bad_a | bad_b
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise DegenerateSliceError(
            f"degenerate plaquette at (i={i}, j={j}, z={z_index}): solid angle undefined"
        )
    return float((omega_a.sum() + omega_b.sum()) / FOUR_PI)


def _potential_spectrum(b: VectorField3):
    """Half spectrum of b without its k = 0 mode; None for b = 0.

    b must be solenoidal; its k = 0 mode has no potential and is dropped.
    """
    g = b.grid
    norm_b = l2_norm(b)
    if norm_b == 0.0:
        return None
    spec = _fft(b.values)
    rel_div = np.sqrt(g.volume * _spectral_power(g, _div_spectrum(g, spec))) / norm_b
    if rel_div > 1e-6:
        raise ContractViolation(
            f"input is not solenoidal (relative spectral divergence {rel_div:.3e} > 1e-6)"
        )
    mean_mag = float(np.sqrt(np.sum(np.abs(spec[:, 0, 0, 0]) ** 2)) / g.n_nodes)
    if mean_mag > 0.0:
        log.debug("removing k=0 mode of b with magnitude %.3e", mean_mag)
    spec[:, 0, 0, 0] = 0.0
    return spec


def _potential(g: PeriodicGrid, spec) -> VectorField3:
    """The Coulomb-gauge potential from _potential_spectrum's output."""
    if spec is None:
        return VectorField3.zeros(g)
    spectra = _curl_spectrum(g, spec)
    return VectorField3(g, np.stack([_ifft_real(c * g.inverse_k_squared) for c in spectra]))


def vector_potential(b: VectorField3) -> VectorField3:
    """Coulomb-gauge potential a_hat = ik x b_hat / |k|^2, with curl a = b minus its k = 0 mode."""
    return _potential(b.grid, _potential_spectrum(b))


def _check_localized(mf: MagnetizationField):
    """The texture must equal e3 on the periodic seam planes."""
    dev = 0.0
    target = E3.reshape(3, 1, 1)
    for axis in range(3):
        face = np.take(mf.m, 0, axis=1 + axis)
        dev = max(dev, float(np.abs(face - target).max()))
    if dev > 1e-6:
        raise ContractViolation(
            f"texture is not localized: |m - e3| = {dev:.3e} on the box faces (> 1e-06)"
        )


def _helicity(g: PeriodicGrid, spec) -> float:
    """The helicity from _potential_spectrum's output."""
    if spec is None:
        return 0.0
    r_x_i = _cross(spec.real, spec.imag)
    k_dot = sum(ik.imag * c for ik, c in zip(g._ik, r_x_i))  # Nyquist k is zero, as in the curl
    return float(2.0 * g.volume * np.sum(g.parseval_weight * k_dot * g.inverse_k_squared) / g.n_nodes**2)


def helicity(mf: MagnetizationField, b: VectorField3 | None = None) -> float:
    """Emergent magnetic helicity <a, b> with b = curl a in the Coulomb gauge.

    b, when given, must be compute_b(mf), e.g. the emergent field a step
    already holds.  The inner product is the real Parseval sum of
    2 k . (R x I) / |k|^2 over b_hat = R + iI: no potential, no inverse transform.
    """
    b = compute_b(mf) if b is None else b
    return _helicity(b.grid, _potential_spectrum(b))


def hopf_invariant(mf: MagnetizationField, b: VectorField3 | None = None) -> float:
    """Helicity divided by (4 pi)^2; integer-valued for smooth localized textures."""
    _check_localized(mf)
    return helicity(mf, b) / FOUR_PI**2


@dataclass(frozen=True)
class TopologyReport:
    skyrmion_number_per_slice: tuple[tuple[int, float], ...]
    helicity: float
    hopf_invariant: float
    gauge_residual: float  # l2 norm of div a

    def lines(self) -> list[str]:
        out = [
            f"helicity = {self.helicity!r}",
            f"hopf_invariant = {self.hopf_invariant!r}",
            f"gauge_residual = {self.gauge_residual!r}",
        ]
        for z, q in self.skyrmion_number_per_slice:
            out.append(f"skyrmion_number[z={z}] = {q!r}")
        return out


def topology_report(mf: MagnetizationField) -> TopologyReport:
    """Full diagnostic bundle; NaN per degenerate slice, and in the potential's entries if b is refused."""
    slices = []
    for z in range(mf.grid.n_cells[2]):
        try:
            slices.append((z, skyrmion_number(mf, z)))
        except DegenerateSliceError:
            slices.append((z, float("nan")))
    b = compute_b(mf)
    try:
        spec = _potential_spectrum(b)  # checked once for both
        hel, gauge = _helicity(b.grid, spec), l2_norm(div(_potential(b.grid, spec)))
    except ContractViolation:
        hel = gauge = float("nan")
    return TopologyReport(
        skyrmion_number_per_slice=tuple(slices),
        helicity=hel,
        hopf_invariant=hel / FOUR_PI**2,
        gauge_residual=gauge,
    )
