"""Emergent electromagnetic fields derived from the magnetization.

The space-time vorticity of a unit field m pulls back the area form of the
sphere; its spatial part is the emergent magnetic field and its mixed part
the emergent electric field:

    b_i = 1/2 eps_ijk  m . (d_j m x d_k m),      e_i = m . (d_i m x dt m).

Both are gauge-free and satisfy div b = 0 and dt b + curl e = 0 identically
for smooth evolutions.  Spatial derivatives are the spectral partials cached on
each state; dt m is the two-level difference, and m is taken at the renormalized
midpoint m_mid = u/|u|, u = m_prev + m_next.  As d_i m_mid is d_i u/|u| less a
part along m_mid, which drops out of the triple product, the chain rule gives
e_i = m_mid . (d_i u x dt m)/|u|, exact in the continuum.

The triple products and the antipodal check run over the x-slabs of
grid._slabs, so each slab's operands stay in cache; every node's arithmetic
is that of a whole-array pass, so the fields are bitwise independent of the
slab size.
"""

from __future__ import annotations

import numpy as np

from .errors import BlowUpError, ContractViolation
from .grid import VectorField3, _cross, _slabs
from .magnetization import MagnetizationField


def _triple_products(m: np.ndarray, pairs) -> np.ndarray:
    """The (3, ...) array of m . (a x b) over the three (a, b) pairs that pairs(s) gives.

    pairs(s) gives the operands of x-slab s; one work array per slab holds each cross product.
    """
    out = np.empty(m.shape)
    for s in _slabs(m.shape[1:]):
        ms = m[:, s]
        work = np.empty(ms.shape)
        for i, (a, b) in enumerate(pairs(s)):
            _cross(a, b, out=work)
            work *= ms
            np.sum(work, axis=0, out=out[i, s])
    return out


def compute_b(mf: MagnetizationField) -> VectorField3:
    """Emergent magnetic field, node-collocated."""
    dx, dy, dz = mf.gradient

    def pairs(s):
        return (dy[:, s], dz[:, s]), (dz[:, s], dx[:, s]), (dx[:, s], dy[:, s])

    return VectorField3(mf.grid, _triple_products(mf.m, pairs))


def _midpoint_sum(mf_prev: MagnetizationField, mf_next: MagnetizationField, dt: float):
    """u = m_prev + m_next and |u|^2, after compute_e's checks on its arguments.

    A node with |u| < 0.5 moved nearly antipodally in one step, which the
    midpoint cannot resolve: that is a BlowUpError.  Both arrays are written
    slab by slab, and the check reads the global minimum.
    """
    if mf_prev.grid != mf_next.grid:
        raise ContractViolation("magnetization states live on different grids")
    if not 0.0 < dt < np.inf:
        raise ContractViolation("dt must be positive and finite")
    total = np.empty(mf_prev.m.shape)
    norms2 = np.empty(mf_prev.grid.shape)
    low2 = np.inf
    for s in _slabs(norms2.shape):
        u = np.add(mf_prev.m[:, s], mf_next.m[:, s], out=total[:, s])
        low2 = min(low2, np.sum(u**2, axis=0, out=norms2[s]).min())
    low = float(np.sqrt(low2))
    if low < 0.5:
        raise BlowUpError(
            f"antipodal magnetization motion (|m_prev + m_next| = {low:.3e} < 0.5);"
            " the time step is too large for the field motion"
        )
    return total, norms2


def compute_e(mf_prev: MagnetizationField, mf_next: MagnetizationField, dt: float) -> VectorField3:
    """Emergent electric field at the midpoint time, read from both states' cached partials."""
    total, norms2 = _midpoint_sum(mf_prev, mf_next, dt)
    total /= norms2  # u/|u|^2 = m_mid/|u|, the chain-rule factor
    dm_dt = (mf_next.m - mf_prev.m) / dt

    def pairs(s):
        du = np.empty(total[:, s].shape)  # each d_i u of the slab, until the next overwrites it
        grads = zip(mf_prev.gradient, mf_next.gradient)
        return ((np.add(a[:, s], b[:, s], out=du), dm_dt[:, s]) for a, b in grads)

    return VectorField3(mf_prev.grid, _triple_products(total, pairs))


class EmergentFieldPair:
    """e at half-step times and b at node points, recomputed from m each step.

    A pair made by ``deferred`` runs compute_e's checks at once, so a step
    with antipodal motion fails in that step, but computes e only on its first
    read and then keeps it.  It holds the previous state's m array, not the
    state, whose cached spectrum and partials may then be freed; the read
    rebuilds that state as mf_next.with_m(m_prev), which retakes them, so e is
    bitwise the value compute_e gives at once.
    """

    def __init__(self, e: VectorField3, b: VectorField3):
        self._e = e
        self._pending = None
        self.b = b

    @classmethod
    def deferred(
        cls, mf_prev: MagnetizationField, mf_next: MagnetizationField, dt: float, b: VectorField3
    ) -> "EmergentFieldPair":
        _midpoint_sum(mf_prev, mf_next, dt)
        pair = cls(None, b)
        pair._pending = (mf_prev.m, mf_next, dt)
        return pair

    @property
    def e(self) -> VectorField3:
        if self._pending is not None:
            m_prev, mf_next, dt = self._pending
            self._e = compute_e(mf_next.with_m(m_prev), mf_next, dt)
            self._pending = None
        return self._e

    @classmethod
    def at_rest(cls, mf: MagnetizationField) -> "EmergentFieldPair":
        return cls(VectorField3.zeros(mf.grid), compute_b(mf))
