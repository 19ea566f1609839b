"""Build a simulation from a RunConfig and drive the time loop."""

from __future__ import annotations

import logging
from pathlib import Path

from .config import RunConfig
from .coupler import SimState, advance, make_initial_state
from .errors import ConfigError, ContractViolation, DegenerateSliceError
from .grid import PeriodicGrid, l2_norm
from .kinetic import (
    BumpMaxwellian,
    DeltaSpec,
    ParticleEnsemble,
    TwoStream,
    UniformMaxwellian,
    deposit,
    sample_initial,
)
from .magnetization import LLCoefficients, dt_max
from .maxwell import EMMode, cfl_limit, div_b_norm, gauss_residual, init_compatible
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


def f0_spec_from_config(cfg: RunConfig, box_lengths) -> object:
    v = cfg.values
    kind = v["kinetic.f0.kind"]
    center = v["kinetic.f0.center"]
    if center is None:
        center = tuple(0.5 * l for l in box_lengths)
    if kind == "bump_maxwellian":
        return BumpMaxwellian(center, v["kinetic.f0.radius"], v["kinetic.f0.v_thermal"], v["kinetic.f0.mass"])
    if kind == "uniform_maxwellian":
        return UniformMaxwellian(v["kinetic.f0.v_thermal"], v["kinetic.f0.mass"])
    if kind == "two_stream":
        return TwoStream(v["kinetic.f0.drift"], v["kinetic.f0.v_thermal"], v["kinetic.f0.mass"])
    if kind == "delta":
        pos = v["kinetic.f0.position"] or center
        vel = v["kinetic.f0.velocity"] or (0.0, 0.0, 0.0)
        return DeltaSpec(pos, vel, v["kinetic.f0.mass"])
    raise ConfigError(f"unknown kinetic.f0.kind {kind!r}")


def parse_modes(text: str) -> tuple[EMMode, ...]:
    """Modes are 'nx,ny,nz,amplitude[,polarization]' entries joined by ';'."""
    modes = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) not in (4, 5):
            raise ConfigError(f"bad em.init_modes entry {chunk!r}")
        try:
            n = (int(parts[0]), int(parts[1]), int(parts[2]))
            amp = float(parts[3])
            pol = int(parts[4]) if len(parts) == 5 else 0
        except ValueError as err:
            raise ConfigError(f"bad em.init_modes entry {chunk!r}: {err}") from err
        modes.append(EMMode(n, amp, pol))
    return tuple(modes)


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
        spec = f0_spec_from_config(cfg, grid.box_length)
        particles = sample_initial(spec, n_particles, v["kinetic.seed"], grid)
    else:
        particles = ParticleEnsemble.empty()
    eps = v["mollifier.epsilon"]
    if eps is None:
        eps = 4.0 * min(grid.spacing)
    mollifier = Mollifier.build(grid, eps)
    # The Maxwell source is the smoothed current, so the compatible constraint
    # carries the smoothed charge: div(eps_r E0) = K_eps rho0.
    rho0, _ = deposit(particles, grid)
    rho0_s = mollify(rho0, mollifier)
    em = init_compatible(rho0_s, parse_modes(v["em.init_modes"]), v["em.eps_r"], v["em.mu_r"])
    coeffs = LLCoefficients.from_alpha(v["llg.alpha"], v["llg.stabilizer_c"])
    return make_initial_state(mf, particles, em, mollifier, coeffs, rho0)


def validate_dt(cfg: RunConfig, state: SimState) -> float:
    """Check the configured step against both stability bounds up front."""
    dt = cfg.values["run.dt"]
    grid = state.mf.grid
    llg_bound = dt_max(grid, state.mf.alpha, state.mf.h_zeeman, state.ll_coeffs)
    em_bound = cfl_limit(grid, state.em.eps_r, state.em.mu_r)
    bound = min(llg_bound, em_bound)
    if dt > bound:
        raise ConfigError(
            f"run.dt = {dt:.4g} exceeds the stable bound {bound:.4g}"
            f" (magnetization limit {llg_bound:.4g}, staggered CFL {em_bound:.4g})"
        )
    return dt


def ledger_row(state: SimState, diagnostics: bool = True) -> dict:
    """One ledger row; without diagnostics the Gauss, Q and Hopf columns read nan."""
    led = state.ledger
    gauss = q_mid = hopf = float("nan")
    if diagnostics:
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


def write_ledger_csv(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(LEDGER_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(format(row[c], ".17g") for c in LEDGER_COLUMNS) + "\n")


def _write_snapshots(state: SimState, outdir: Path, tag: str) -> None:
    write_snapshot(state.mf, outdir / f"m_{tag}.snap", "m", state.t)
    write_snapshot(state.em.E, outdir / f"E_{tag}.snap", "E", state.t)
    write_snapshot(state.em.B, outdir / f"B_{tag}.snap", "B", state.t)
    write_snapshot(state.emergent.e, outdir / f"e_{tag}.snap", "e_emergent", state.t)
    write_snapshot(state.emergent.b, outdir / f"b_{tag}.snap", "b_emergent", state.t)
    write_snapshot(state.particles, outdir / f"particles_{tag}.snap", "particles", state.t)


def run_simulation(cfg: RunConfig, output_dir=None) -> SimState:
    """Execute run.n_steps coupled steps, writing ledger.csv and snapshots."""
    outdir = Path(output_dir if output_dir is not None else cfg.values["run.output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    state = build_state(cfg)
    dt = validate_dt(cfg, state)
    n_steps = cfg.values["run.n_steps"]
    every = cfg.values["run.snapshot_every"]
    diagnostics = cfg.values["run.topology_diagnostics"]
    rows = [ledger_row(state, diagnostics)]
    if every:
        _write_snapshots(state, outdir, f"{0:06d}")
    for n in range(1, n_steps + 1):
        state = advance(state, dt)
        rows.append(ledger_row(state, diagnostics))
        if every and n % every == 0:
            _write_snapshots(state, outdir, f"{n:06d}")
    _write_snapshots(state, outdir, "final")
    write_ledger_csv(rows, outdir / "ledger.csv")
    log.info("run finished: %d steps to t = %.6g, output in %s", n_steps, state.t, outdir)
    return state
