"""Build a simulation from a parsed RunConfig, derived defaults resolved, and drive the time loop.

ledger.csv is written as the run goes, each row flushed when computed, so a
run that fails after set-up keeps the rows of every step it finished.
"""

from __future__ import annotations

import logging
from dataclasses import fields
from pathlib import Path

from . import magnetization, maxwell
from .config import RunConfig
from .coupler import SimState, advance, make_initial_state
from .errors import ConfigError, ContractViolation, DegenerateSliceError, TimeStepError
from .grid import PeriodicGrid, l2_norm
from .kinetic import F0_KINDS, ParticleEnsemble, canonical, deposit_charge, sample_initial
from .maxwell import div_b_norm, gauss_residual, init_compatible
from .smoothing import Mollifier, mollify
from .snapshots import write_snapshot
from .textures import make_texture
from .topology import hopf_invariant, skyrmion_number

log = logging.getLogger(__name__)

LEDGER_COLUMNS = (
    "t",
    "kinetic",
    "em",
    "micromagnetic",
    "dissipation_cum",
    "total",
    "coupling_residual",
    "divB",
    "gauss_residual",
    "Q_mid_slice",
    "hopf",
)


def build_state(cfg: RunConfig) -> SimState:
    v = cfg.values
    grid = PeriodicGrid(cfg.grid_shape(), cfg.box_lengths())
    mf = make_texture(
        v["llg.initial"],
        grid,
        v["llg.h"],
        v["llg.alpha"],
        radius=v["llg.init_radius"],
        seed=v["run.seed"],
        amplitude=v["llg.init_amplitude"],
        k_cut=v["llg.init_kcut"],
    )
    n_particles = v["kinetic.n_particles"]
    if n_particles > 0:
        kind = F0_KINDS[v["kinetic.f0.kind"]]
        spec = kind(**{f.name: v[f"kinetic.f0.{f.name}"] for f in fields(kind)})
        particles = canonical(sample_initial(spec, n_particles, v["kinetic.seed"], grid))
    else:
        particles = ParticleEnsemble.empty()
    mollifier = Mollifier.build(grid, v["mollifier.epsilon"])
    # The Maxwell source is the smoothed current, so the compatible constraint
    # carries the smoothed charge: div(eps_r E0) = K_eps rho0, zero without particles.
    rho0 = deposit_charge(particles, grid)
    rho0_s = mollify(rho0, mollifier) if particles.count else rho0
    em = init_compatible(rho0_s, v["em.init_modes"], v["em.eps_r"], v["em.mu_r"])
    coeffs = magnetization.LLCoefficients.from_alpha(v["llg.alpha"], v["llg.stabilizer_c"])
    return make_initial_state(mf, particles, em, mollifier, coeffs, rho0)


def validate_dt(cfg: RunConfig, state: SimState) -> float:
    """Check the configured step with the solvers' own checks before step 1."""
    dt = cfg.values["run.dt"]
    try:
        magnetization.check_dt(state.mf, dt, state.ll_coeffs)
        maxwell.check_dt(state.em, dt)
    except TimeStepError as err:
        raise ConfigError(f"run.dt = {dt:.4g} is not stable: {err}") from err
    return dt


def ledger_row(state: SimState, diagnostics: bool = True) -> dict:
    """One ledger row; without diagnostics the Gauss, Q and Hopf columns read nan."""
    led = state.ledger
    gauss = q_mid = hopf = float("nan")
    if diagnostics:
        gauss = 0.0  # no charge and bitwise zero fields: the residual is known
        if state.particles.count or not state.em.is_zero:
            rho = state.rho  # the step's deposit; zero without particles
            if state.particles.count:
                rho = mollify(rho, state.mollifier)  # the constraint carries K_eps rho
            rho_norm = l2_norm(rho)
            gauss = gauss_residual(state.em, rho)
            if rho_norm > 0.0:
                gauss /= rho_norm
        try:
            q_mid = skyrmion_number(state.mf, state.mf.grid.n_cells[2] // 2)
        except DegenerateSliceError:
            pass
        try:
            hopf = hopf_invariant(state.mf, state.emergent.b)
        except ContractViolation:
            pass
    return {
        "t": state.t,
        "kinetic": led.kinetic,
        "em": led.em_energy,
        "micromagnetic": led.micromagnetic,
        "dissipation_cum": led.dissipation_cum,
        "total": led.total,
        "coupling_residual": led.coupling_residual,
        "divB": div_b_norm(state.em),
        "gauss_residual": gauss,
        "Q_mid_slice": q_mid,
        "hopf": hopf,
    }


def _write_snapshots(state: SimState, outdir: Path, tag: str) -> None:
    for stem, name, obj in (
        ("m", "m", state.mf),
        ("E", "E", state.em.E),
        ("B", "B", state.em.B),
        ("e", "e_emergent", state.emergent.e),
        ("b", "b_emergent", state.emergent.b),
        ("particles", "particles", state.particles),
    ):
        path = outdir / f"{stem}_{tag}.snap"
        try:
            write_snapshot(obj, path, name, state.t)
        except OSError as err:
            raise ConfigError(f"cannot write {path}: {err}") from err


def run_simulation(cfg: RunConfig, output_dir=None) -> SimState:
    """Execute run.n_steps coupled steps, writing ledger.csv and snapshots."""
    state = build_state(cfg)
    dt = validate_dt(cfg, state)
    outdir = Path(output_dir if output_dir is not None else cfg.values["run.output_dir"])
    try:  # after set-up, so that a configuration error leaves no directory behind
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {outdir}: {err}") from err
    n_steps = cfg.values["run.n_steps"]
    every = cfg.values["run.snapshot_every"]
    diagnostics = cfg.values["run.topology_diagnostics"]
    ledger_path = outdir / "ledger.csv"
    try:
        ledger = open(ledger_path, "w", encoding="utf-8", newline="\n")
    except OSError as err:
        raise ConfigError(f"cannot write {ledger_path}: {err}") from err
    with ledger:
        ledger.write(",".join(LEDGER_COLUMNS) + "\n")
        for n in range(n_steps + 1):  # n = 0 is the initial state
            if n:
                state = advance(state, dt)
            row = ledger_row(state, diagnostics)
            ledger.write(",".join(format(row[c], ".17g") for c in LEDGER_COLUMNS) + "\n")
            ledger.flush()
            if every and n % every == 0:
                _write_snapshots(state, outdir, f"{n:06d}")
    _write_snapshots(state, outdir, "final")
    log.info("run finished: %d steps to t = %.6g, output in %s", n_steps, state.t, outdir)
    return state
