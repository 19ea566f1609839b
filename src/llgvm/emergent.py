"""Emergent electromagnetic fields derived from the magnetization.

The space-time vorticity of a unit field m pulls back the area form of the
sphere; its spatial part is the emergent magnetic field and its mixed part
the emergent electric field:

    b_i = 1/2 eps_ijk  m . (d_j m x d_k m),      e_i = m . (d_i m x dt m).

Both are gauge-free and satisfy div b = 0 and dt b + curl e = 0 identically
for smooth evolutions.  Spatial derivatives are spectral; dt m is the
discrete two-level difference, with m evaluated at the renormalized midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ContractViolation
from .grid import VectorField3, _cross, _fft, _partials
from .magnetization import MagnetizationField


def _triple_products(m: np.ndarray, pairs) -> np.ndarray:
    """The (3, ...) array of m . (a x b) for the three (a, b) pairs, in one work array."""
    out = np.empty(m.shape)
    work = np.empty(m.shape)
    for i, (a, b) in enumerate(pairs):
        _cross(a, b, out=work)
        work *= m
        np.sum(work, axis=0, out=out[i])
    return out


def compute_b(mf: MagnetizationField) -> VectorField3:
    """Emergent magnetic field, node-collocated."""
    dm = mf.gradient
    pairs = ((dm[1], dm[2]), (dm[2], dm[0]), (dm[0], dm[1]))
    return VectorField3(mf.grid, _triple_products(mf.m, pairs))


def compute_e(mf_prev: MagnetizationField, mf_next: MagnetizationField, dt: float) -> VectorField3:
    """Emergent electric field at the midpoint time between two magnetization states."""
    if mf_prev.grid != mf_next.grid:
        raise ContractViolation("magnetization states live on different grids")
    if dt <= 0.0:
        raise ContractViolation("dt must be positive")
    g = mf_prev.grid
    total = mf_prev.m + mf_next.m
    norms = np.sqrt(np.sum(total**2, axis=0))
    low = float(norms.min())
    if low < 0.5:
        raise BlowUpError(
            f"antipodal magnetization motion (|m_prev + m_next| = {low:.3e} < 0.5);"
            " the time step is too large for the field motion"
        )
    m_mid = total / norms
    dm_dt = (mf_next.m - mf_prev.m) / dt
    dm = _partials(g, _fft(m_mid))
    return VectorField3(g, _triple_products(m_mid, [(d, dm_dt) for d in dm]))


@dataclass(frozen=True, eq=False)
class EmergentFieldPair:
    """e at half-step times and b at node points, recomputed from m each step."""

    e: VectorField3
    b: VectorField3

    @classmethod
    def at_rest(cls, mf: MagnetizationField) -> "EmergentFieldPair":
        return cls(VectorField3.zeros(mf.grid), compute_b(mf))
