"""Staggered-grid leapfrog solver for the conventional Maxwell fields.

E components live on cell edges, B components on cell faces (Yee layout,
array index i holding the value at the half-shifted location).  The discrete
edge->face curl (forward differences) and face->edge curl (backward
differences) are adjoint under the plain lattice inner product, which makes
div B invariant to rounding and gives an exactly conserved source-free
energy 1/2 (eps_r ||E^n||^2 + <B^{n-1/2}, B^{n+1/2}>/mu_r).

The zero sector is known without computing it: when every bit of E and B
is zero (+0.0 throughout, no -0.0), a source-free step returns its input and
em_energy and div_b_norm read 0.0.  EMFieldPair freezes its arrays, so what
it caches on first use stays valid: that predicate, and the node average of
E, which a particle step's gather and both sides of its energy audit read.
The predicate is bitwise because a step turns
-0.0 into +0.0: the all -0.0 E of a chargeless init_compatible takes one full
step before the shortcut applies.

Units: wave speed is 1/sqrt(eps_r mu_r), i.e. c = 1 in vacuum.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, ContractViolation, TimeStepError
from .grid import PeriodicGrid, ScalarField, VectorField3, _along, _fft, _ifft_real

log = logging.getLogger(__name__)


def _fwd_diff(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (np.roll(values, -1, axis=axis) - values) / h


def _bwd_diff(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (values - np.roll(values, 1, axis=axis)) / h


def _curl(values: np.ndarray, grid: PeriodicGrid, diff) -> np.ndarray:
    """Staggered curl with one-sided differences diff (_fwd_diff or _bwd_diff)."""
    hx, hy, hz = grid.spacing
    vx, vy, vz = values
    return np.stack(
        [
            diff(vz, 1, hy) - diff(vy, 2, hz),
            diff(vx, 2, hz) - diff(vz, 0, hx),
            diff(vy, 0, hx) - diff(vx, 1, hy),
        ]
    )


def _pair_average(values: np.ndarray, shift: int) -> np.ndarray:
    """Component a of (3, ...) values averaged with its neighbour shift nodes along axis a."""
    return np.stack([0.5 * (values[a] + np.roll(values[a], shift, axis=a)) for a in range(3)])


def div_face(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Face-based divergence at cell centers (forward differences)."""
    return sum(_fwd_diff(values[a], a, grid.spacing[a]) for a in range(3))


def div_edge(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Edge-based divergence at nodes (backward differences)."""
    return sum(_bwd_diff(values[a], a, grid.spacing[a]) for a in range(3))


@dataclass(frozen=True, eq=False)
class EMFieldPair:
    """E on edges and B on faces with constitutive constants eps_r, mu_r >= 1."""

    E: VectorField3
    B: VectorField3
    eps_r: float
    mu_r: float

    def __post_init__(self):
        if self.E.grid != self.B.grid:
            raise ContractViolation("E and B live on different grids")
        if self.eps_r < 1.0 or self.mu_r < 1.0:
            raise ContractViolation("relative permittivity and permeability must be >= 1")
        self.E.values.flags.writeable = False  # so that is_zero cannot go stale
        self.B.values.flags.writeable = False

    @cached_property
    def is_zero(self) -> bool:
        """Every bit of E and B is zero: +0.0 throughout, no -0.0."""
        return not (self.E.values.view(np.uint64).any() or self.B.values.view(np.uint64).any())

    @cached_property
    def E_nodes(self) -> VectorField3:
        """E averaged to the nodes, read-only: the gather and both sides of the audit read it."""
        e = VectorField3(self.grid, _pair_average(self.E.values, 1))
        e.values.flags.writeable = False
        return e

    @property
    def grid(self) -> PeriodicGrid:
        return self.E.grid

    @classmethod
    def zeros(cls, grid: PeriodicGrid, eps_r: float = 1.0, mu_r: float = 1.0) -> "EMFieldPair":
        return cls(VectorField3.zeros(grid), VectorField3.zeros(grid), eps_r, mu_r)


@dataclass(frozen=True)
class EMMode:
    """A single transverse standing mode added to E at initialization."""

    n: tuple[int, int, int]  # integer mode numbers
    amplitude: float
    polarization: int = 0  # picks one of the two transverse directions


def cfl_limit(grid: PeriodicGrid, eps_r: float, mu_r: float) -> float:
    """Stability bound dt < sqrt(eps_r mu_r) / sqrt(sum 1/h_i^2)."""
    inv = sum(1.0 / h**2 for h in grid.spacing)
    return float(np.sqrt(eps_r * mu_r) / np.sqrt(inv))


def _seven_point_symbol(grid: PeriodicGrid) -> np.ndarray:
    """Positive symbol of -div_edge(grad_fwd .): sum (2 - 2 cos(k h)) / h^2."""
    return sum(
        _along(axis, (2.0 - 2.0 * np.cos(k * h)) / h**2)
        for axis, (k, h) in enumerate(zip(grid.wavenumbers, grid.spacing))
    )


def init_compatible(
    rho0: ScalarField,
    modes: tuple[EMMode, ...] = (),
    eps_r: float = 1.0,
    mu_r: float = 1.0,
    potential: VectorField3 | None = None,
) -> EMFieldPair:
    """Fields satisfying div(eps_r E0) = rho0 and div B0 = 0 discretely.

    E0 is the lattice-Poisson gradient part plus discretely divergence-free
    transverse modes; B0 is the staggered curl of the given edge potential.
    A mode whose numbers are all multiples of the node counts is the grid's
    k = 0 mode, which has no transverse direction, and is a ConfigError.
    Any mean of rho0 is unsupported on the periodic box; it is logged and
    removed.  A rho0 with no nonzero bit takes no transform.
    """
    grid = rho0.grid
    if rho0.values.view(np.uint64).any():
        spec = _fft(rho0.values)
        mean = spec.flat[0] / grid.n_nodes
        if abs(mean) > 0.0:
            log.info("removing mean %.3e from initial charge density", abs(mean))
        spec.flat[0] = 0.0
        symbol = _seven_point_symbol(grid)
        symbol.flat[0] = 1.0
        spec *= 1.0 / (eps_r * symbol)
        phi = _ifft_real(spec)
    else:  # no nonzero bit: phi is +0.0 and the gradient part of E0 all -0.0
        phi = np.zeros(grid.shape)
    evals = np.stack(
        [-_fwd_diff(phi, a, grid.spacing[a]) for a in range(3)]
    )
    h = np.asarray(grid.spacing)
    for mode in modes:
        if all(n % N == 0 for n, N in zip(mode.n, grid.n_cells)):
            raise ConfigError(f"EM mode {mode.n} is the zero mode of a grid of {grid.n_cells} nodes")
        k = np.array([2.0 * np.pi * mode.n[a] / grid.box_length[a] for a in range(3)])
        ktil = 2.0 * np.sin(0.5 * k * h) / h  # staggered-difference wavevector
        kt2 = float(np.dot(ktil, ktil))
        trial = np.zeros(3)
        trial[(np.argmax(np.abs(ktil)) + 1 + mode.polarization) % 3] = 1.0
        # the trial axis is not the largest of ktil, so |pol|^2 = 1 - ktil_t^2/kt2 >= 1/2
        pol = trial - np.dot(trial, ktil) / kt2 * ktil
        pol = pol / np.linalg.norm(pol) * mode.amplitude
        for a in range(3):
            offsets = [0.0, 0.0, 0.0]
            offsets[a] = 0.5
            xs = grid.staggered_mesh(offsets)
            phase = k[0] * xs[0] + k[1] * xs[1] + k[2] * xs[2]
            evals[a] += pol[a] * np.cos(phase)
    bvals = (
        _curl(potential.values, grid, _fwd_diff)
        if potential is not None
        else np.zeros((3, *grid.shape))
    )
    return EMFieldPair(VectorField3(grid, evals), VectorField3(grid, bvals), eps_r, mu_r)


def check_dt(em: EMFieldPair, dt: float) -> None:
    """The leapfrog's rule: dt positive and finite, and dt < cfl_limit (else TimeStepError)."""
    if not 0.0 < dt < np.inf:
        raise ContractViolation("dt must be positive and finite")
    limit = cfl_limit(em.grid, em.eps_r, em.mu_r)
    if dt >= limit:
        raise TimeStepError(f"dt = {dt:.3e} violates the staggered CFL bound {limit:.3e}")


def step_fields(em: EMFieldPair, j_mollified: VectorField3 | None, dt: float) -> EMFieldPair:
    """One leapfrog step: B to the next half level, then E with the current source.

    The stored B is interpreted at t - dt/2.  The source is the mollified
    node-collocated current; it is averaged onto edges here.
    """
    check_dt(em, dt)
    if j_mollified is None and em.is_zero:
        return em  # the full step maps bitwise zero fields to themselves
    grid = em.grid
    b_new = em.B.values - dt * _curl(em.E.values, grid, _fwd_diff)
    e_new = em.E.values + (dt / em.eps_r) * _curl(b_new, grid, _bwd_diff) / em.mu_r
    if j_mollified is not None:
        if j_mollified.grid != grid:
            raise ContractViolation("current grid mismatch")
        e_new = e_new - (dt / em.eps_r) * _pair_average(j_mollified.values, -1)
    return replace(em, E=VectorField3(grid, e_new), B=VectorField3(grid, b_new))


def avg_E_to_nodes(em: EMFieldPair) -> VectorField3:
    return em.E_nodes


def avg_B_to_nodes(em: EMFieldPair) -> VectorField3:
    out = np.empty((3, *em.grid.shape))
    for a in range(3):
        o1, o2 = [ax for ax in range(3) if ax != a]
        v = em.B.values[a]
        out[a] = 0.25 * (
            v + np.roll(v, 1, axis=o1) + np.roll(v, 1, axis=o2)
            + np.roll(np.roll(v, 1, axis=o1), 1, axis=o2)
        )
    return VectorField3(em.grid, out)


def em_energy(em: EMFieldPair) -> float:
    """Plain energy functional 1/2 (eps_r ||E||^2 + ||B||^2 / mu_r)."""
    if em.is_zero:
        return 0.0
    return em_energy_leapfrog(em.E.values, em.B.values, em.B.values, em.eps_r, em.mu_r, em.grid)


def em_energy_leapfrog(
    e_values: np.ndarray, b_prev: np.ndarray, b_next: np.ndarray,
    eps_r: float, mu_r: float, grid: PeriodicGrid,
) -> float:
    """The exactly conserved staggered-in-time energy of the source-free scheme."""
    cv = grid.cell_volume
    return float(0.5 * (eps_r * np.sum(e_values**2) + np.sum(b_prev * b_next) / mu_r) * cv)


def gauss_residual(em: EMFieldPair, rho: ScalarField) -> float:
    """l2 norm of div(eps_r E) - (rho - mean rho), edge-based divergence.

    A net charge cannot source a periodic field, so the constraint is stated
    for the background-neutralized density, matching init_compatible.
    """
    res = em.eps_r * div_edge(em.E.values, em.grid) - (rho.values - rho.values.mean())
    return float(np.sqrt(np.sum(res**2) * em.grid.cell_volume))


def div_b_norm(em: EMFieldPair) -> float:
    if em.is_zero:
        return 0.0
    return float(np.sqrt(np.sum(div_face(em.B.values, em.grid) ** 2) * em.grid.cell_volume))
