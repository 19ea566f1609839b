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
A simulation state stores its ensemble in that canonical order after every
push (see canonical): the sort after the next push meets nearly sorted data,
and the deposit, finding the ensemble sorted, skips its sort.
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
    """Uniform in space times a Maxwellian at rest."""

    v_thermal: float
    mass: float = 1.0


@dataclass(frozen=True)
class TwoStream:
    """Two counter-streaming Maxwellian beams along x (drift +-v_drift), uniform in space."""

    v_drift: float
    v_thermal: float
    mass: float = 1.0


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
        return spec.mass * (3.0 * spec.v_thermal**2)
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
        vel = spec.v_thermal * _truncated_normals(rng, n_particles, VELOCITY_CUTOFF_SIGMAS)
        mass = spec.mass
    elif isinstance(spec, TwoStream):
        pos = rng.random((n_particles, 3)) * box
        vel = spec.v_thermal * _truncated_normals(rng, n_particles, VELOCITY_CUTOFF_SIGMAS)
        signs = np.where(rng.random(n_particles) < 0.5, -1.0, 1.0)
        vel[:, 0] += signs * spec.v_drift
        mass = spec.mass
    else:
        raise ConfigError(f"unknown initial distribution {spec!r}")
    weights = np.full(n_particles, mass / n_particles)
    return ParticleEnsemble(pos, vel, weights)


# ---------------------------------------------------------------------------
# Gather / push / deposit


def _cic_corners(grid: PeriodicGrid, positions: np.ndarray):
    """Trilinear corner node indices and weights, each an (8, N) array.

    Row c = 4 bx + 2 by + bz is the corner that takes the upper node along
    each axis whose bit is set.  Its weight is (wx * wy) * wz and its flat
    node index (ix * ny + iy) * nz + iz.
    """
    _, ny, nz = grid.n_cells
    n = np.asarray(grid.n_cells)[:, None]
    frac = np.empty((3, len(positions)))
    np.divide(positions.T, np.asarray(grid.spacing)[:, None], out=frac)
    lower = np.floor(frac)
    frac -= lower
    i0 = lower.astype(np.int64)
    i0 %= n
    i1 = i0 + 1
    i1[i1 == n] = 0
    stride = np.array([[ny * nz], [nz], [1]])
    i0 *= stride
    i1 *= stride
    np.subtract(1.0, frac, out=lower)
    nodes = (i0, i1)
    weights = (lower, frac)
    idx = np.empty((8, len(positions)), dtype=np.int64)
    wgt = np.empty((8, len(positions)))
    for bx in (0, 1):
        for by in (0, 1):
            ixy = nodes[bx][0] + nodes[by][1]
            wxy = weights[bx][0] * weights[by][1]
            for bz in (0, 1):
                c = 4 * bx + 2 * by + bz
                np.add(ixy, nodes[bz][2], out=idx[c])
                np.multiply(wxy, weights[bz][2], out=wgt[c])
    return idx, wgt


def gather(fields: Sequence[VectorField3], positions: np.ndarray) -> list[np.ndarray]:
    """Trilinear interpolation of node-collocated vector fields at particle positions.

    fields are VectorField3 on one grid; the result is a list of (n, 3)
    arrays, one per field, that share one CIC stencil.  Each value sums its
    eight corner terms in corner order.
    """
    npart = len(positions)
    idx, wgt = _cic_corners(fields[0].grid, positions)
    flats = [field.values.reshape(3, -1) for field in fields]
    outs = [np.zeros((3, npart)) for _ in flats]
    term = np.empty((3, npart))
    for c in range(8):
        for flat, out in zip(flats, outs):
            # the indices are in range; mode="raise" would buffer out
            np.take(flat, idx[c], axis=1, out=term, mode="clip")
            term *= wgt[c]
            out += term
    return [out.T for out in outs]


def _rotate(v: np.ndarray, rotvec: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Rodrigues rotation of the columns of v (3, n) by rotvec (3, n), angle > 0."""
    u = rotvec / angle
    c = np.cos(angle)
    dot = u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
    cross = np.empty_like(v)
    np.subtract(u[1] * v[2], u[2] * v[1], out=cross[0])
    np.subtract(u[2] * v[0], u[0] * v[2], out=cross[1])
    np.subtract(u[0] * v[1], u[1] * v[0], out=cross[2])
    cross *= np.sin(angle)
    out = v * c
    out += cross
    u *= dot
    u *= 1.0 - c
    out += u
    return out


def _rodrigues_rotate(v: np.ndarray, rotvec: np.ndarray) -> np.ndarray:
    """Rotate each row of v by the corresponding rotation vector (exact).

    Rows with a zero rotation vector come back unchanged.
    """
    r = rotvec.T
    angle = np.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2])
    act = angle > 0.0
    if act.all():
        return _rotate(v.T, r, angle).T
    out = v.copy()
    if act.any():
        out[act] = _rotate(v[act].T, rotvec[act].T, angle[act]).T
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
    box = np.asarray(grid.box_length)[:, None]
    # contiguous (3, n) rows, updated in place: x is x_half, then x_new, and v
    # is v_minus, then v_plus, then v_new
    x = p.positions.T.copy()
    v = p.velocities.T.copy()
    x += 0.5 * dt * v
    x %= box
    e_p, b_p = (f.T for f in gather((E_tot, B_tot), x.T))
    if not (np.all(np.isfinite(e_p)) and np.all(np.isfinite(b_p))):
        raise BlowUpError("NaN in gathered fields")
    b_max = float(np.sqrt(b_p[0] * b_p[0] + b_p[1] * b_p[1] + b_p[2] * b_p[2]).max(initial=0.0))
    if dt * b_max > 1.0:
        warnings.warn(
            f"dt * |B|_max = {dt * b_max:.3g} > 1: gyration is under-resolved",
            RuntimeWarning,
            stacklevel=2,
        )
    half_kick = 0.5 * dt * CHARGE * e_p
    v += half_kick
    b_p *= -CHARGE * dt  # the rotation vectors
    v = _rodrigues_rotate(v.T, b_p.T).T
    v += half_kick
    x += 0.5 * dt * v
    x %= box
    return ParticleEnsemble(x.T.copy(), v.T.copy(), p.weights)


def _canonical_order(p: ParticleEnsemble, x: np.ndarray, box: np.ndarray) -> np.ndarray | None:
    """Permutation that puts p, with wrapped x coordinates x, in canonical order.

    None means p is in that order already: its wrapped x strictly increases,
    so the sort would return the identity and meet no tie.
    """
    if np.all(x[1:] > x[:-1]):
        return None
    order = np.argsort(x, kind="stable")
    x = x[order]
    if np.any(x[1:] == x[:-1]):
        pos = p.positions % box
        keys = (
            p.weights,
            p.velocities[:, 2], p.velocities[:, 1], p.velocities[:, 0],
            pos[:, 2], pos[:, 1], pos[:, 0],
        )
        order = np.lexsort(keys)
    return order


def canonical(p: ParticleEnsemble, grid: PeriodicGrid) -> ParticleEnsemble:
    """p permuted into the canonical order of the deposit; p itself if it is in it."""
    box = np.asarray(grid.box_length)
    order = _canonical_order(p, p.positions[:, 0] % box[0], box)
    if order is None:
        return p
    return ParticleEnsemble(
        np.take(p.positions, order, axis=0), np.take(p.velocities, order, axis=0), p.weights[order]
    )


class _DepositPlan:
    """Canonically ordered CIC corner data shared by all densities of one ensemble.

    Particles are sorted by wrapped x with one stable argsort.  Where two x
    values are equal that order is not unique, and the full key (x, y, z, vx,
    vy, vz, w) sorts them lexicographically instead; without ties both give
    the same order.  The corner entries are laid out corner-major in that
    order and each node sums its entries one after another, so the per-node
    summation order does not depend on how the ensemble array happened to be
    ordered.  A simulation state stores its ensemble in canonical order (see
    canonical); for such an ensemble the plan skips the sort and both
    permutations.
    """

    def __init__(self, p: ParticleEnsemble, grid: PeriodicGrid):
        self.grid = grid
        box = np.asarray(grid.box_length)
        pos = p.positions % box
        self.particle_order = _canonical_order(p, pos[:, 0], box)
        if self.particle_order is not None:
            pos = np.take(pos, self.particle_order, axis=0)
        idx, self.wgt = _cic_corners(grid, pos)
        self.idx = idx.reshape(-1)

    def accumulate(self, per_particle: np.ndarray) -> np.ndarray:
        """per_particle is in the caller's original particle order."""
        if self.particle_order is not None:
            per_particle = per_particle[self.particle_order]
        contrib = self.wgt * per_particle
        contrib /= self.grid.cell_volume
        out = np.bincount(self.idx, weights=contrib.reshape(-1), minlength=self.grid.n_nodes)
        return out.reshape(self.grid.shape)


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
    if p.count == 0:
        return ScalarField.zeros(grid)
    speed = np.sqrt(np.sum(p.velocities**2, axis=1))
    return ScalarField(grid, _DepositPlan(p, grid).accumulate(p.weights * speed**order))


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
