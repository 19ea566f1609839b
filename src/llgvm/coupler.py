"""One full coupled time step and the energy ledger.

Step ordering: gather the mollified total fields (conventional plus
emergent) at the particles, push, deposit, mollify the current, advance the
magnetization with that same smoothed current, recompute the emergent pair,
advance the Maxwell fields with the same smoothed current, then update the
ledger.  Using one smoothed current for both consumers preserves the
cross-term cancellation of the continuous energy balance; the audit
(energy_audit), fed the step's own current, smoothed current and gathered
field, quantifies what time centering leaves behind.

The emergent electric field entering the particle force lags one step (the
last computed half-step value), which keeps the update explicit.  Without
particles there is no force to gather and no current: those phases are
skipped and both field solvers run source-free.  Nothing in such a step reads
e, so the step only checks the motion that e would refuse and leaves e to
its first reader, a snapshot (EmergentFieldPair.deferred).  The Maxwell
fields then stay zero unless em.init_modes seeds them; once every bit is
zero, step_fields returns them unchanged and their ledger terms read 0.0
without being computed (see maxwell).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .emergent import EmergentFieldPair, compute_b, compute_e
from .errors import LLGVMError
from .grid import ScalarField, VectorField3, l2_inner
from .kinetic import ParticleEnsemble, canonical, deposit, lorentz_push
from .magnetization import LLCoefficients, MagnetizationField, energy, step
from .maxwell import EMFieldPair, avg_E_to_nodes, avg_B_to_nodes, em_energy, step_fields
from .smoothing import Mollifier, mollify


@dataclass(frozen=True)
class EnergyLedger:
    """Per-step energy record used to assert the dissipation law."""

    kinetic: float
    em_energy: float
    micromagnetic: float
    dissipation_cum: float
    coupling_residual: float

    def __post_init__(self):
        if not all(np.isfinite(v) for v in astuple(self)):
            raise LLGVMError("ledger contains non-finite entries")
        if self.kinetic < 0.0 or self.em_energy < 0.0:
            raise LLGVMError("kinetic and electromagnetic energies must be non-negative")

    @property
    def total(self) -> float:
        return self.kinetic + self.em_energy + self.micromagnetic

    @classmethod
    def build(cls, mf: MagnetizationField, particles: ParticleEnsemble, em: EMFieldPair,
              dissipation_cum: float, coupling_residual: float) -> EnergyLedger:
        """The energies of mf, particles and em, with the dissipation and residual given."""
        return cls(kinetic_energy(particles), em_energy(em), energy(mf), dissipation_cum, coupling_residual)


def kinetic_energy(p: ParticleEnsemble) -> float:
    """1/2 sum w |v|^2, with |v|^2 summed in one n-array in the order vx, vy, vz."""
    v = p.velocities
    wv2 = v[0] * v[0]
    wv2 += v[1] * v[1]
    wv2 += v[2] * v[2]
    wv2 *= p.weights
    return float(0.5 * np.sum(wv2))


@dataclass(frozen=True, eq=False)
class SimState:
    t: float
    step_index: int
    mf: MagnetizationField
    particles: ParticleEnsemble
    em: EMFieldPair
    emergent: EmergentFieldPair
    mollifier: Mollifier
    ll_coeffs: LLCoefficients
    ledger: EnergyLedger
    rho: ScalarField  # raw charge density deposited from particles


def make_initial_state(
    mf: MagnetizationField,
    particles: ParticleEnsemble,
    em: EMFieldPair,
    mollifier: Mollifier,
    ll_coeffs: LLCoefficients,
    rho: ScalarField,
) -> SimState:
    """Initial state; rho is the raw deposited charge of particles, zero without any."""
    return SimState(
        t=0.0,
        step_index=0,
        mf=mf,
        particles=particles,
        em=em,
        emergent=EmergentFieldPair.at_rest(mf),
        mollifier=mollifier,
        ll_coeffs=ll_coeffs,
        ledger=EnergyLedger.build(mf, particles, em, 0.0, 0.0),
        rho=rho,
    )


def _phase(state: SimState, name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except LLGVMError as err:
        raise type(err)(f"step {state.step_index + 1} [{name}]: {err}") from err


def total_force_fields(state: SimState) -> tuple[VectorField3, VectorField3]:
    """Mollified node-collocated totals K_eps(E + e) and K_eps(B + b)."""
    grid = state.mf.grid
    e_node = avg_E_to_nodes(state.em).values + state.emergent.e.values
    b_node = avg_B_to_nodes(state.em).values + state.emergent.b.values
    mol = state.mollifier
    return (
        VectorField3(grid, mol.apply_values(e_node)),
        VectorField3(grid, mol.apply_values(b_node)),
    )


def advance(state: SimState, dt: float) -> SimState:
    """Advance the coupled system by one step of size dt."""
    grid = state.mf.grid

    particles = state.particles
    rho = state.rho
    j = j_s = e_tot = None
    if particles.count:
        e_tot, b_tot = _phase(state, "gather", total_force_fields, state)
        particles = _phase(state, "push", lorentz_push, particles, e_tot, b_tot, dt)
        particles = canonical(particles)
        rho, j = _phase(state, "deposit", deposit, particles, grid)
        j_s = _phase(state, "mollify", mollify, j, state.mollifier)
    mf_new = _phase(state, "llg", step, state.mf, j_s, dt, state.ll_coeffs)
    if particles.count:  # the audit below and the next gather read e
        e_half = _phase(state, "emergent", compute_e, state.mf, mf_new, dt)
        emergent = EmergentFieldPair(e_half, _phase(state, "emergent", compute_b, mf_new))
    else:  # only a snapshot reads e; the pair computes it then
        e_half = None
        b_new = _phase(state, "emergent", compute_b, mf_new)
        emergent = _phase(
            state, "emergent", EmergentFieldPair.deferred, state.mf, mf_new, dt, b_new
        )
    em_new = _phase(state, "maxwell", step_fields, state.em, j_s, dt)

    dm_rate_sq = float(np.sum((mf_new.m - state.mf.m) ** 2)) * grid.cell_volume / dt**2
    residual = _phase(state, "ledger", energy_audit, state.em, em_new, e_half, j, j_s, e_tot)
    dissipation_cum = state.ledger.dissipation_cum + state.mf.alpha * dt * dm_rate_sq
    ledger = _phase(state, "ledger", EnergyLedger.build, mf_new, particles, em_new, dissipation_cum, residual)
    return SimState(
        t=state.t + dt,
        step_index=state.step_index + 1,
        mf=mf_new,
        particles=particles,
        em=em_new,
        emergent=emergent,
        mollifier=state.mollifier,
        ll_coeffs=state.ll_coeffs,
        ledger=ledger,
        rho=rho,
    )


def energy_audit(
    em_prev: EMFieldPair,
    em_next: EMFieldPair,
    e_new: VectorField3 | None,
    j: VectorField3 | None,
    j_s: VectorField3 | None,
    e_tot: VectorField3 | None,
) -> float:
    """Magnitude of the summed discrete coupling pairings of one step.

    The arguments are the step's own values: the Maxwell fields before and
    after it, the new emergent electric field e^{n+1/2}, the deposited
    current j, its smoothing K j and the gathered total K(E + e); e_new and
    j are None when there are no particles.  The three pairings are the
    kinetic gain <j, K(E + e)> with the fields as gathered (previous E,
    lagged e), the Maxwell loss -<K j, (E^n + E^{n+1})/2> and the
    magnetization loss -<K j, e^{n+1/2}>.  Smoothing is self-adjoint to
    rounding, so the sum isolates the time-centering error, which is first
    order in dt.
    """
    if j is None:
        return 0.0
    e_prev_node = avg_E_to_nodes(em_prev)
    e_next_node = avg_E_to_nodes(em_next)
    e_mid = VectorField3(j.grid, 0.5 * (e_prev_node.values + e_next_node.values))
    p_vlasov = l2_inner(j, e_tot)
    p_maxwell = -l2_inner(j_s, e_mid)
    p_llg = -l2_inner(j_s, e_new)
    return float(abs(p_vlasov + p_maxwell + p_llg))
