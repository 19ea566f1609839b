"""Macro-particle representation of the electron distribution (charge q = -1).

Particles carry fixed weights (pure transport), so total mass and any
weight-histogram statistic are conserved structurally.  The velocity update
is a Boris-type split with an exact Rodrigues rotation for the magnetic
half, embedded in a drift-kick-drift step: it conserves speed exactly in a
pure magnetic field and preserves phase-space volume.  Its arithmetic is per
particle, so the push runs over fixed-size contiguous slices of the ensemble,
bitwise equal to one pass over all of it, with stencils of a few MB at any n;
its periodic wrap adds or subtracts the box length once where that suffices
and is bitwise equal to np.remainder for every float64.  Gather and deposit
share the trilinear cloud-in-cell kernel, and one stencil serves every field
gathered at the same positions; it wraps node indices, so any position is
accepted.  The ensemble is stored as (3, n) rows, like every field.  A deposit
puts the particles in a canonical order once, by x as stored alone or, where
two x values are equal, by the full key (x, y, z, vx, vy, vz, w), then builds
the stencil of one slice of that order at a time, so it too works in
chunk-sized memory.  Each node adds its terms (wgt * q) / h^3 one after
another (np.add.at), particle by particle in canonical order and corner by
corner within a particle, so results are independent of particle order, of
the slice size and of thread count; the density of one row does not depend
on the other rows, so deposit_charge, which deposits the charge alone, gives
deposit's rho bit for bit.  A simulation state stores its ensemble in that
canonical order from set-up on and after every push (see canonical): the
sort after the next push meets nearly sorted data, and the deposit, finding
the ensemble sorted, skips its sort.  The sort kind follows the data:
timsort, which merges the runs of nearly sorted x, after a push, and NumPy's
faster default argsort for a fresh sample, which has no such runs.  Distinct
x have one sorted order, so the kind never changes the result.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BlowUpError, ConfigError, ContractViolation
from .grid import PeriodicGrid, ScalarField, VectorField3, _cross

CHARGE = -1.0
VELOCITY_CUTOFF_SIGMAS = 6.0
SPATIAL_CUTOFF_SIGMAS = 4.0
_CHUNK = 1 << 13  # particles per slice of the push and the deposit; their stencils stay chunk-sized
_PRESORTED = 0.75  # share of rising adjacent x pairs from which canonical sorts with timsort


@dataclass(frozen=True, eq=False)
class ParticleEnsemble:
    positions: np.ndarray  # (3, n) C-contiguous rows x, y, z, box coordinates
    velocities: np.ndarray  # (3, n) C-contiguous rows vx, vy, vz
    weights: np.ndarray  # (n,), each the f-mass carried by the marker

    def __post_init__(self):
        pos = np.ascontiguousarray(self.positions, dtype=np.float64)
        vel = np.ascontiguousarray(self.velocities, dtype=np.float64)
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or pos.shape != (3, len(w)) or vel.shape != pos.shape:
            raise ContractViolation(f"need (3, n), (3, n), (n,) arrays: {pos.shape}, {vel.shape}, {w.shape}")
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
        return cls(np.zeros((3, 0)), np.zeros((3, 0)), np.zeros(0))


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
    """Two counter-streaming Maxwellian beams along x at mean velocity +-drift, uniform in space."""

    drift: float
    v_thermal: float
    mass: float = 1.0


@dataclass(frozen=True)
class DeltaSpec:
    position: tuple[float, float, float]
    velocity: tuple[float, float, float]
    mass: float = 1.0


F0Spec = BumpMaxwellian | UniformMaxwellian | TwoStream | DeltaSpec
# config name -> spec class; a run fills each field from kinetic.f0.<field>
F0_KINDS = {
    "bump_maxwellian": BumpMaxwellian,
    "uniform_maxwellian": UniformMaxwellian,
    "two_stream": TwoStream,
    "delta": DeltaSpec,
}


def analytic_m2(spec: F0Spec) -> float:
    """Closed-form second velocity moment int int f |v|^2 of the untruncated law."""
    if isinstance(spec, (BumpMaxwellian, UniformMaxwellian)):
        return spec.mass * 3.0 * spec.v_thermal**2
    if isinstance(spec, TwoStream):
        return spec.mass * (3.0 * spec.v_thermal**2 + spec.drift**2)
    if isinstance(spec, DeltaSpec):
        return spec.mass * float(np.dot(spec.velocity, spec.velocity))
    raise ConfigError(f"unknown initial distribution {spec!r}")


def _truncated_normals(rng, n: int, cutoff: float) -> np.ndarray:
    """(n, 3) standard normals rejected outside |x| <= cutoff (radial).

    |x|^2 is (x^2 + y^2) + z^2, the order np.sum takes along a row.  Only the
    redrawn rows are tested again: the others passed and have not changed.
    """
    out = draws = rng.standard_normal((n, 3))
    rows = None  # the rows of out that draws holds; None for all of them
    while True:
        sq = draws * draws
        bad = np.flatnonzero((sq[:, 0] + sq[:, 1]) + sq[:, 2] > cutoff**2)
        if bad.size == 0:
            return out
        rows = bad if rows is None else rows[bad]
        draws = rng.standard_normal((rows.size, 3))
        out[rows] = draws


def sample_initial(spec: F0Spec, n_particles: int, seed: int, grid: PeriodicGrid) -> ParticleEnsemble:
    """Deterministic equal-weight sampling of the requested distribution."""
    box = np.asarray(grid.box_length)
    if isinstance(spec, DeltaSpec):
        if n_particles != 1:
            raise ConfigError("delta initial data needs exactly one particle")
        pos = np.asarray(spec.position, dtype=float) % box
        return ParticleEnsemble(pos[:, None], np.asarray(spec.velocity, dtype=float)[:, None], [spec.mass])
    if n_particles < 1:
        raise ConfigError("need at least one particle")
    rng = np.random.default_rng(seed)
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
    elif isinstance(spec, (UniformMaxwellian, TwoStream)):
        pos = rng.random((n_particles, 3)) * box
    else:
        raise ConfigError(f"unknown initial distribution {spec!r}")
    vel = spec.v_thermal * _truncated_normals(rng, n_particles, VELOCITY_CUTOFF_SIGMAS)
    if isinstance(spec, TwoStream):
        signs = np.where(rng.random(n_particles) < 0.5, -1.0, 1.0)
        vel[:, 0] += signs * spec.drift
    weights = np.full(n_particles, spec.mass / n_particles)
    return ParticleEnsemble(pos.T, vel.T, weights)  # the (n, 3) draws, as rows


# ---------------------------------------------------------------------------
# Gather / push / deposit


def _cic_corners(grid: PeriodicGrid, positions: np.ndarray):
    """Trilinear corner node indices and weights of (3, N) positions, each an (8, N) array.

    Row c = 4 bx + 2 by + bz is the corner that takes the upper node along
    each axis whose bit is set.  Its weight is (wx * wy) * wz and its flat
    node index (ix * ny + iy) * nz + iz.  Node indices are wrapped, so a
    position outside [0, L), L itself included, needs no wrap beforehand.
    """
    _, ny, nz = grid.n_cells
    npart = positions.shape[1]
    n = np.asarray(grid.n_cells)[:, None]
    frac = positions / np.asarray(grid.spacing)[:, None]
    lower = np.floor(frac)
    frac -= lower
    i0 = lower.astype(np.int64)
    for row, size in zip(i0, grid.n_cells):  # a row that _wrap left in [0, n) needs no %
        if npart and not (0 <= row.min() and row.max() < size):
            np.remainder(row, size, out=row)
    i1 = i0 + 1
    i1[i1 == n] = 0
    stride = np.array([[ny * nz], [nz], [1]])
    i0 *= stride
    i1 *= stride
    np.subtract(1.0, frac, out=lower)
    nodes = (i0, i1)
    weights = (lower, frac)
    idx = np.empty((8, npart), dtype=np.int64)
    wgt = np.empty((8, npart))
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

    fields are VectorField3 on one grid and positions a (3, n) array; the
    result is a list of (3, n) arrays, one per field, that share one CIC
    stencil.  Each value sums its eight corner terms in corner order.
    """
    npart = positions.shape[1]
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
    return outs


def _rodrigues_rotate(v: np.ndarray, rotvec: np.ndarray) -> np.ndarray:
    """Rotate each column of v (3, n) by the corresponding rotation vector (exact).

    A non-zero angle is >= 2e-162, so the floor ``tiny`` leaves its division
    exact; a zero-angle column has sin = 1 - cos = 0 and comes back unchanged.
    """
    angle = np.sqrt(rotvec[0] * rotvec[0] + rotvec[1] * rotvec[1] + rotvec[2] * rotvec[2])
    u = rotvec / np.maximum(angle, np.finfo(np.float64).tiny)
    c = np.cos(angle)
    dot = u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
    cross = _cross(u, v)
    cross *= np.sin(angle)
    out = v * c
    out += cross
    u *= dot
    u *= 1.0 - c
    out += u
    return out


def _wrap(x: np.ndarray, box: Sequence[float]) -> None:
    """x %= box in place for (3, n) rows, bitwise equal to np.remainder.

    A row inside [-L, 2L) takes L off where x >= L (exact, by Sterbenz's
    lemma), then adds L where x < 0 (rounding as np.remainder does, so
    -1e-17 + L is L); a zero left is +0.0 or an input -0.0, which adding
    +0.0 makes +0.0.  Any other row, NaN or inf included, takes np.remainder.
    """
    for row, length in zip(x, box):
        if not (-length <= row.min() and row.max() < 2.0 * length):
            np.remainder(row, length, out=row)
            continue
        np.subtract(row, length, out=row, where=row >= length)
        np.add(row, length, out=row, where=row < 0.0)
        if row.min() == 0.0:
            row += 0.0


def lorentz_push(
    p: ParticleEnsemble, E_tot: VectorField3, B_tot: VectorField3, dt: float
) -> ParticleEnsemble:
    """Drift / Boris-rotation kick / drift (q = -1, periodic wrap) over slices of _CHUNK."""
    if not 0.0 < dt < np.inf:
        raise ContractViolation("dt must be positive and finite")
    if E_tot.grid != B_tot.grid:
        raise ContractViolation("field grids differ")
    box = E_tot.grid.box_length
    x_new, v_new = np.empty_like(p.positions), np.empty_like(p.velocities)
    b_max = 0.0
    for start in range(0, p.count, _CHUNK):
        cols = slice(start, start + _CHUNK)
        x, v = x_new[:, cols], v_new[:, cols]  # x is x_half, then x_new
        np.add(p.positions[:, cols], 0.5 * dt * p.velocities[:, cols], out=x)
        _wrap(x, box)
        e_p, b_p = gather((E_tot, B_tot), x)
        if not (np.all(np.isfinite(e_p)) and np.all(np.isfinite(b_p))):
            raise BlowUpError("non-finite particle position: the half-step drift overflowed")
        b_max = max(b_max, float(np.sqrt(b_p[0] * b_p[0] + b_p[1] * b_p[1] + b_p[2] * b_p[2]).max()))
        half_kick = 0.5 * dt * CHARGE * e_p
        b_p *= -CHARGE * dt  # the rotation vectors
        np.add(_rodrigues_rotate(p.velocities[:, cols] + half_kick, b_p), half_kick, out=v)
        x += 0.5 * dt * v
        _wrap(x, box)
    if dt * b_max > 1.0:
        warnings.warn(
            f"dt * |B|_max = {dt * b_max:.3g} > 1: gyration is under-resolved",
            RuntimeWarning,
            stacklevel=2,
        )
    return ParticleEnsemble(x_new, v_new, p.weights)


def canonical(p: ParticleEnsemble) -> ParticleEnsemble:
    """p permuted into the canonical order of the deposit; p itself if it is in it.

    p is in that order already if its x strictly increases: the sort would
    return the identity and meet no tie.  Otherwise x is sorted with timsort
    (kind="stable") where at least _PRESORTED of its adjacent pairs rise, as
    after a push, since its runs make that data cheap to merge, and with
    NumPy's default (SIMD) argsort elsewhere, as for a fresh sample.  Distinct
    keys have only one sorted order, so both give the same permutation; tied x
    go to the full-key lexsort either way.
    """
    x = p.positions[0]
    rises = x[1:] > x[:-1]
    rising = np.count_nonzero(rises)
    if rising == rises.size:
        return p
    order = np.argsort(x, kind="stable" if rising >= _PRESORTED * rises.size else None)
    x = x[order]
    if np.any(x[1:] == x[:-1]):
        order = np.lexsort((p.weights, *p.velocities[::-1], *p.positions[::-1]))
    return ParticleEnsemble(
        np.take(p.positions, order, axis=1), np.take(p.velocities, order, axis=1), p.weights[order]
    )


def _deposit(p: ParticleEnsemble, grid: PeriodicGrid, rows) -> np.ndarray:
    """Densities sum q S / h^3, one per row q of rows(v, w) for a slice's (3, m) v, (m,) w.

    The ensemble is put in canonical order once, only if it is not in it, and
    then taken in contiguous slices of _CHUNK.  Each node adds its terms in the
    order the module docstring states, whatever the slice size.
    """
    p = canonical(p)
    out = None
    for start in range(0, p.count, _CHUNK):
        cols = slice(start, start + _CHUNK)
        idx, wgt = _cic_corners(grid, p.positions[:, cols])
        idx = idx.T.ravel()  # particle-major
        wgt = np.ascontiguousarray(wgt.T)
        qs = rows(p.velocities[:, cols], p.weights[cols])
        if out is None:
            out = np.zeros((len(qs), grid.n_nodes))
        contrib = np.empty_like(wgt)
        for q, acc in zip(qs, out):
            np.multiply(wgt, q[:, None], out=contrib)
            contrib /= grid.cell_volume
            np.add.at(acc, idx, contrib.reshape(-1))
    return out.reshape(-1, *grid.shape)


def deposit(p: ParticleEnsemble, grid: PeriodicGrid) -> tuple[ScalarField, VectorField3]:
    """Charge and current densities rho = -sum w S / h^3, j = -sum w v S / h^3."""
    if p.count == 0:
        return ScalarField.zeros(grid), VectorField3.zeros(grid)
    out = _deposit(p, grid, lambda v, w: (w, *(w * v)))
    out *= CHARGE
    return ScalarField(grid, out[0]), VectorField3(grid, out[1:])


def deposit_charge(p: ParticleEnsemble, grid: PeriodicGrid) -> ScalarField:
    """The charge density alone, bitwise deposit's rho: rows (w,), scaled by CHARGE."""
    if p.count == 0:
        return ScalarField.zeros(grid)
    out = _deposit(p, grid, lambda v, w: (w,))
    out *= CHARGE
    return ScalarField(grid, out[0])


def _check_moment_order(order: float) -> None:
    if not 0.0 <= order < np.inf:
        raise ContractViolation(f"moment order must be >= 0 and finite, got {order}")


def _moment_weights(velocities: np.ndarray, weights: np.ndarray, order: float) -> np.ndarray:
    """w |v|^k per particle."""
    return weights * np.sqrt(np.sum(velocities**2, axis=0)) ** order


def deposit_moment(p: ParticleEnsemble, grid: PeriodicGrid, order: float) -> ScalarField:
    """Moment density of f itself (no charge sign): sum w |v|^k S / h^3."""
    _check_moment_order(order)
    if p.count == 0:
        return ScalarField.zeros(grid)
    return ScalarField(grid, _deposit(p, grid, lambda v, w: (_moment_weights(v, w, order),))[0])


# ---------------------------------------------------------------------------
# Velocity moments


def moment_exponent(k: float, k_prime: float, p: float) -> float:
    """The Lebesgue exponent ell = (k + 3/q) / (k' + 3/q + (k - k')/p), 1/p + 1/q = 1."""
    if not 0.0 <= k_prime <= k < np.inf:
        raise ContractViolation(f"need 0 <= k' <= k < inf, got k={k}, k'={k_prime}")
    if not 1.0 < p < np.inf:
        raise ContractViolation(f"need 1 < p < inf, got p={p}")
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
    _check_moment_order(order)
    return float(np.sum(_moment_weights(p.velocities, p.weights, order)))


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
        ell = moment_exponent(k, kp, q_p)
        density = deposit_moment(p, grid, kp)
        lhs = lp_norm_of_field(density, ell)
        three_over_q = 3.0 * (q_p - 1.0) / q_p
        exp_f = (k - kp) / (k + three_over_q)
        exp_mk = (kp + three_over_q) / (k + three_over_q)
        m_k = totals[float(k)] if float(k) in totals else total_moment(p, k)
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
        m2=totals[2.0] if 2.0 in totals else total_moment(p, 2),
        moment_totals=totals,
        lp_estimates=estimates,
    )
