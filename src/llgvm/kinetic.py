"""Macro-particle representation of the electron distribution (charge q = -1).

Particles carry fixed weights (pure transport), so total mass and any
weight-histogram statistic are conserved structurally.  The velocity update
is a Boris-type split with an exact Rodrigues rotation for the magnetic
half, embedded in a drift-kick-drift step: it conserves speed exactly in a
pure magnetic field and preserves phase-space volume.  Gather and deposit
share the trilinear cloud-in-cell kernel, and one stencil serves every field
gathered at the same positions.  A deposit puts the particles in a canonical
order, by wrapped x alone or, where two x values are equal, by the full key
(x, y, z, vx, vy, vz, w), and sums each node's corner terms one after another
in that order, so results are independent of particle order and thread count.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BlowUpError, ConfigError, ContractViolation
from .grid import PeriodicGrid, ScalarField, VectorField3

CHARGE = -1.0
VELOCITY_CUTOFF_SIGMAS = 6.0
SPATIAL_CUTOFF_SIGMAS = 4.0


@dataclass(frozen=True, eq=False)
class ParticleEnsemble:
    positions: np.ndarray  # (n, 3), box coordinates
    velocities: np.ndarray  # (n, 3)
    weights: np.ndarray  # (n,), each the f-mass carried by the marker

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        vel = np.asarray(self.velocities, dtype=np.float64).reshape(-1, 3)
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if not (len(pos) == len(vel) == len(w)):
            raise ContractViolation("positions, velocities and weights disagree in length")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(vel)) and np.all(np.isfinite(w))):
            raise ContractViolation("ensemble contains NaN or Inf")
        if np.any(w < 0.0):
            raise ContractViolation("weights must be non-negative")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "velocities", vel)
        object.__setattr__(self, "weights", w)

    @property
    def count(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @classmethod
    def empty(cls) -> "ParticleEnsemble":
        return cls(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))


# ---------------------------------------------------------------------------
# Initial distributions


@dataclass(frozen=True)
class BumpMaxwellian:
    """Gaussian spatial bump (std = radius, cut at 4 radius) times a Maxwellian."""

    center: tuple[float, float, float]
    radius: float
    v_thermal: float
    mass: float = 1.0


@dataclass(frozen=True)
class UniformMaxwellian:
    v_thermal: float
    mass: float = 1.0
    drift: tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class TwoStream:
    """Two counter-streaming Maxwellian beams along one axis, uniform in space."""

    v_drift: float
    v_thermal: float
    mass: float = 1.0
    axis: int = 0


@dataclass(frozen=True)
class DeltaSpec:
    position: tuple[float, float, float]
    velocity: tuple[float, float, float]
    mass: float = 1.0


F0Spec = BumpMaxwellian | UniformMaxwellian | TwoStream | DeltaSpec


def analytic_m2(spec: F0Spec) -> float:
    """Closed-form second velocity moment int int f |v|^2 of the untruncated law."""
    if isinstance(spec, BumpMaxwellian):
        return spec.mass * 3.0 * spec.v_thermal**2
    if isinstance(spec, UniformMaxwellian):
        return spec.mass * (3.0 * spec.v_thermal**2 + float(np.dot(spec.drift, spec.drift)))
    if isinstance(spec, TwoStream):
        return spec.mass * (3.0 * spec.v_thermal**2 + spec.v_drift**2)
    if isinstance(spec, DeltaSpec):
        return spec.mass * float(np.dot(spec.velocity, spec.velocity))
    raise ConfigError(f"unknown initial distribution {spec!r}")


def _truncated_normals(rng, n: int, cutoff: float) -> np.ndarray:
    """(n, 3) standard normals rejected outside |x| <= cutoff (radial)."""
    out = rng.standard_normal((n, 3))
    while True:
        bad = np.flatnonzero(np.sum(out**2, axis=1) > cutoff**2)
        if bad.size == 0:
            return out
        out[bad] = rng.standard_normal((bad.size, 3))


def sample_initial(spec: F0Spec, n_particles: int, seed: int, grid: PeriodicGrid) -> ParticleEnsemble:
    """Deterministic equal-weight sampling of the requested distribution."""
    if isinstance(spec, DeltaSpec):
        if n_particles != 1:
            raise ConfigError("delta initial data needs exactly one particle")
        pos = np.asarray(spec.position, dtype=float).reshape(1, 3) % np.asarray(grid.box_length)
        return ParticleEnsemble(pos, np.asarray(spec.velocity, dtype=float).reshape(1, 3), [spec.mass])
    if n_particles < 1:
        raise ConfigError("need at least one particle")
    rng = np.random.default_rng(seed)
    box = np.asarray(grid.box_length)
    if isinstance(spec, BumpMaxwellian):
        if SPATIAL_CUTOFF_SIGMAS * spec.radius > 0.5 * min(grid.box_length):
            raise ConfigError(
                f"bump radius {spec.radius} too large: the {SPATIAL_CUTOFF_SIGMAS}-sigma"
                " support must fit inside half the box"
            )
        pos = np.asarray(spec.center) + spec.radius * _truncated_normals(
            rng, n_particles, SPATIAL_CUTOFF_SIGMAS
        )
        pos %= box
        vel = spec.v_thermal * _truncated_normals(rng, n_particles, VELOCITY_CUTOFF_SIGMAS)
        mass = spec.mass
    elif isinstance(spec, UniformMaxwellian):
        pos = rng.random((n_particles, 3)) * box
        vel = np.asarray(spec.drift) + spec.v_thermal * _truncated_normals(
            rng, n_particles, VELOCITY_CUTOFF_SIGMAS
        )
        mass = spec.mass
    elif isinstance(spec, TwoStream):
        pos = rng.random((n_particles, 3)) * box
        vel = spec.v_thermal * _truncated_normals(rng, n_particles, VELOCITY_CUTOFF_SIGMAS)
        signs = np.where(rng.random(n_particles) < 0.5, -1.0, 1.0)
        vel[:, spec.axis] += signs * spec.v_drift
        mass = spec.mass
    else:
        raise ConfigError(f"unknown initial distribution {spec!r}")
    weights = np.full(n_particles, mass / n_particles)
    return ParticleEnsemble(pos, vel, weights)


# ---------------------------------------------------------------------------
# Gather / push / deposit


def _cic_corners(grid: PeriodicGrid, positions: np.ndarray):
    """Trilinear corner indices and weights for every particle."""
    n = np.asarray(grid.n_cells)
    h = np.asarray(grid.spacing)
    xi = positions / h
    i0 = np.floor(xi).astype(np.int64)
    frac = xi - i0
    i0 %= n
    i1 = (i0 + 1) % n
    idx = []
    wgt = []
    for bx in (0, 1):
        for by in (0, 1):
            for bz in (0, 1):
                ix = i1[:, 0] if bx else i0[:, 0]
                iy = i1[:, 1] if by else i0[:, 1]
                iz = i1[:, 2] if bz else i0[:, 2]
                w = (
                    (frac[:, 0] if bx else 1.0 - frac[:, 0])
                    * (frac[:, 1] if by else 1.0 - frac[:, 1])
                    * (frac[:, 2] if bz else 1.0 - frac[:, 2])
                )
                idx.append((ix * n[1] + iy) * n[2] + iz)
                wgt.append(w)
    return np.concatenate(idx), np.concatenate(wgt)


def gather(fields: VectorField3 | Sequence[VectorField3], positions: np.ndarray):
    """Trilinear interpolation of node-collocated vector fields at particle positions.

    fields is one VectorField3, giving an (n, 3) array, or a sequence of
    VectorField3 on one grid, giving a list of (n, 3) arrays that share one
    CIC stencil.  Each value sums its eight corner terms in corner order.
    """
    single = isinstance(fields, VectorField3)
    if single:
        fields = (fields,)
    npart = len(positions)
    idx, wgt = _cic_corners(fields[0].grid, positions)
    flats = [field.values.reshape(3, -1) for field in fields]
    outs = [np.zeros((3, npart)) for _ in flats]
    term = np.empty((3, npart))
    for c in range(8):
        corner = slice(c * npart, (c + 1) * npart)
        for flat, out in zip(flats, outs):
            np.take(flat, idx[corner], axis=1, out=term)
            term *= wgt[corner]
            out += term
    outs = [out.T for out in outs]
    return outs[0] if single else outs


def _rodrigues_rotate(v: np.ndarray, rotvec: np.ndarray) -> np.ndarray:
    """Rotate each row of v by the corresponding rotation vector (exact)."""
    angle = np.sqrt(np.sum(rotvec**2, axis=1))
    out = v.copy()
    act = angle > 0.0
    if not act.any():
        return out
    u = rotvec[act] / angle[act, None]
    va = v[act]
    c = np.cos(angle[act])[:, None]
    s = np.sin(angle[act])[:, None]
    out[act] = va * c + np.cross(u, va) * s + u * np.sum(u * va, axis=1)[:, None] * (1.0 - c)
    return out


def lorentz_push(
    p: ParticleEnsemble, E_tot: VectorField3, B_tot: VectorField3, dt: float
) -> ParticleEnsemble:
    """Drift / Boris-rotation kick / drift with charge q = -1 and periodic wrap."""
    if dt <= 0.0:
        raise ContractViolation("dt must be positive")
    if E_tot.grid != B_tot.grid:
        raise ContractViolation("field grids differ")
    if p.count == 0:
        return p
    grid = E_tot.grid
    box = np.asarray(grid.box_length)
    x_half = (p.positions + 0.5 * dt * p.velocities) % box
    e_p, b_p = gather((E_tot, B_tot), x_half)
    if not (np.all(np.isfinite(e_p)) and np.all(np.isfinite(b_p))):
        raise BlowUpError("NaN in gathered fields")
    b_max = float(np.sqrt(np.sum(b_p**2, axis=1)).max(initial=0.0))
    if dt * b_max > 1.0:
        warnings.warn(
            f"dt * |B|_max = {dt * b_max:.3g} > 1: gyration is under-resolved",
            RuntimeWarning,
            stacklevel=2,
        )
    half_kick = 0.5 * dt * CHARGE * e_p
    v_minus = p.velocities + half_kick
    v_plus = _rodrigues_rotate(v_minus, -CHARGE * dt * b_p)
    v_new = v_plus + half_kick
    x_new = (x_half + 0.5 * dt * v_new) % box
    return ParticleEnsemble(x_new, v_new, p.weights)


class _DepositPlan:
    """Canonically ordered CIC corner data shared by all densities of one ensemble.

    Particles are sorted by wrapped x with one stable argsort.  Where two x
    values are equal that order is not unique, and the full key (x, y, z, vx,
    vy, vz, w) sorts them lexicographically instead; without ties both give
    the same order.  The corner entries are laid out corner-major in that
    order and each node sums its entries one after another, so the per-node
    summation order does not depend on how the ensemble array happened to be
    ordered.
    """

    def __init__(self, p: ParticleEnsemble, grid: PeriodicGrid):
        self.grid = grid
        pos = p.positions % np.asarray(grid.box_length)
        order = np.argsort(pos[:, 0], kind="stable")
        x = pos[order, 0]
        if np.any(x[1:] == x[:-1]):
            keys = (
                p.weights,
                p.velocities[:, 2], p.velocities[:, 1], p.velocities[:, 0],
                pos[:, 2], pos[:, 1], pos[:, 0],
            )
            order = np.lexsort(keys)
        self.particle_order = order
        self.idx, self.wgt = _cic_corners(grid, pos[order])

    def accumulate(self, per_particle: np.ndarray) -> np.ndarray:
        """per_particle is in the caller's original particle order."""
        sorted_pp = per_particle[self.particle_order]
        contrib = self.wgt.reshape(8, -1) * sorted_pp
        contrib /= self.grid.cell_volume
        out = np.bincount(self.idx, weights=contrib.reshape(-1), minlength=self.grid.n_nodes)
        return out.reshape(self.grid.shape)


def _deposit_weighted(
    p: ParticleEnsemble, grid: PeriodicGrid, per_particle: np.ndarray
) -> np.ndarray:
    """CIC-deposit per_particle * S(x - x_p) / h^3 onto grid nodes."""
    if p.count == 0:
        return np.zeros(grid.shape)
    return _DepositPlan(p, grid).accumulate(per_particle)


def deposit(p: ParticleEnsemble, grid: PeriodicGrid) -> tuple[ScalarField, VectorField3]:
    """Charge and current densities rho = -sum w S / h^3, j = -sum w v S / h^3."""
    if p.count == 0:
        return ScalarField.zeros(grid), VectorField3.zeros(grid)
    plan = _DepositPlan(p, grid)
    rho = ScalarField(grid, CHARGE * plan.accumulate(p.weights))
    jvals = np.stack(
        [CHARGE * plan.accumulate(p.weights * p.velocities[:, c]) for c in range(3)]
    )
    return rho, VectorField3(grid, jvals)


def deposit_moment(p: ParticleEnsemble, grid: PeriodicGrid, order: float) -> ScalarField:
    """Moment density of f itself (no charge sign): sum w |v|^k S / h^3."""
    if order < 0:
        raise ContractViolation("moment order must be >= 0")
    speed = np.sqrt(np.sum(p.velocities**2, axis=1))
    return ScalarField(grid, _deposit_weighted(p, grid, p.weights * speed**order))


# ---------------------------------------------------------------------------
# Velocity moments


def moment_exponent(k: float, k_prime: float, p: float) -> float:
    """The Lebesgue exponent ell = (k + 3/q) / (k' + 3/q + (k - k')/p), 1/p + 1/q = 1."""
    if k_prime > k or k_prime < 0:
        raise ContractViolation("need 0 <= k' <= k")
    if p <= 1.0:
        raise ContractViolation("need p > 1")
    three_over_q = 3.0 * (p - 1.0) / p
    return (k + three_over_q) / (k_prime + three_over_q + (k - k_prime) / p)


def moment_exponent_exact(k: int, k_prime: int, p: int) -> Fraction:
    """Rational-arithmetic version of moment_exponent for exact checks."""
    three_over_q = Fraction(3 * (p - 1), p)
    return (k + three_over_q) / (k_prime + three_over_q + Fraction(k - k_prime, p))


def lp_norm_of_field(field: ScalarField, ell: float) -> float:
    """Discrete L^ell norm (sum |f|^ell h^3)^(1/ell)."""
    return float((np.sum(np.abs(field.values) ** ell) * field.grid.cell_volume) ** (1.0 / ell))


def total_moment(p: ParticleEnsemble, order: float) -> float:
    """M_k = sum_p w_p |v_p|^k."""
    speed = np.sqrt(np.sum(p.velocities**2, axis=1))
    return float(np.sum(p.weights * speed**order))


@dataclass(frozen=True)
class MomentReport:
    m0: float
    m2: float
    moment_totals: dict
    lp_estimates: dict  # (k, k', p) -> dict with ell, lhs, rhs, exponents, exponent_sum


def moment_report(
    p: ParticleEnsemble,
    grid: PeriodicGrid,
    k_list=(0, 2),
    lp_checks=(),
    f_lp_norms: dict | None = None,
) -> MomentReport:
    """Velocity-moment diagnostics.

    lp_checks is an iterable of (k, k', p) triples; f_lp_norms supplies the
    caller's value of ||f||_{L^p} (analytic for the sampled laws), needed for
    the right-hand side of the interpolation estimate
    ||m_k'||_{L^ell} <= C ||f||_{L^p}^{(k-k')/(k+3/q)} M_k^{(k'+3/q)/(k+3/q)}.
    Both exponents are reported; they sum to one, so both sides scale
    linearly under f -> lam f.
    """
    totals = {float(k): total_moment(p, k) for k in k_list}
    estimates = {}
    for (k, kp, q_p) in lp_checks:
        if kp > k:
            raise ContractViolation(f"moment check needs k' <= k, got k'={kp} > k={k}")
        ell = moment_exponent(k, kp, q_p)
        density = deposit_moment(p, grid, kp)
        lhs = lp_norm_of_field(density, ell)
        three_over_q = 3.0 * (q_p - 1.0) / q_p
        exp_f = (k - kp) / (k + three_over_q)
        exp_mk = (kp + three_over_q) / (k + three_over_q)
        m_k = totals.get(float(k), total_moment(p, k))
        rhs = None
        if f_lp_norms is not None and q_p in f_lp_norms:
            rhs = float(f_lp_norms[q_p] ** exp_f * m_k**exp_mk)
        estimates[(k, kp, q_p)] = {
            "ell": ell,
            "lhs": lhs,
            "rhs": rhs,
            "exponent_f": exp_f,
            "exponent_moment": exp_mk,
            "exponent_sum": exp_f + exp_mk,
        }
    return MomentReport(
        m0=p.total_mass,
        m2=totals.get(2.0, total_moment(p, 2)),
        moment_totals=totals,
        lp_estimates=estimates,
    )
