"""Fast built-in invariant suite behind the `llgvm selftest` command."""

from __future__ import annotations

import io
import os
import tempfile

import numpy as np

from . import grid as g
from .config import parse_config_text
from .emergent import compute_b
from .kinetic import (
    UniformMaxwellian,
    deposit,
    lorentz_push,
    moment_exponent,
    sample_initial,
)
from .magnetization import MagnetizationField, ll_rhs
from .maxwell import EMFieldPair, div_b_norm, em_energy_leapfrog, step_fields
from .runner import run_simulation
from .smoothing import Mollifier, mollify
from .snapshots import read_snapshot, write_snapshot
from .textures import random_smooth_unit, skyrmion_tube
from .topology import skyrmion_number, vector_potential


def _grid(n=16, length=16.0):
    return g.PeriodicGrid.cubic(n, length)


def _random_vector(grid, seed):
    rng = np.random.default_rng(seed)
    white = rng.standard_normal((3, *grid.shape))
    f = g.VectorField3(grid, white)
    return g.dealias(f)


def check_spectral_identities():
    grid = _grid()
    v = _random_vector(grid, 1)
    u = v.component(0)
    dc = g.l2_norm(g.div(g.curl(v))) / max(g.l2_norm(v), 1e-300)
    cg = g.l2_norm(g.curl(g.grad(u))) / max(g.l2_norm(u), 1e-300)
    bi = np.abs(g.biharmonic(u).values - g.laplacian(g.laplacian(u)).values).max()
    parseval = abs(g.l2_inner(u, u) - g.hs_norm(u, 0.0) ** 2) / g.l2_inner(u, u)
    ok = dc < 1e-12 and cg < 1e-12 and bi < 1e-10 and parseval < 1e-12
    return ok, f"div.curl={dc:.2e} curl.grad={cg:.2e} biharmonic={bi:.2e} parseval={parseval:.2e}"


def check_mollifier():
    grid = _grid()
    mol = Mollifier.build(grid, 4.0 * grid.spacing[0])
    mass = mol.kernel.values.sum() * grid.cell_volume
    const = mollify(g.ScalarField.full(grid, 3.5), mol)
    f1 = _random_vector(grid, 2)
    f2 = _random_vector(grid, 3)
    adj = abs(g.l2_inner(mollify(f1, mol), f2) - g.l2_inner(f1, mollify(f2, mol)))
    adj /= g.l2_norm(f1) * g.l2_norm(f2)
    ok = abs(mass - 1.0) < 1e-12 and np.abs(const.values - 3.5).max() < 1e-12 and adj < 1e-12
    return ok, f"mass-1={mass - 1.0:.2e} self-adjoint={adj:.2e}"


def check_llg_structure():
    grid = _grid(32)
    mf = MagnetizationField(grid, random_smooth_unit(grid, 7, 0.05, 1), 0.5, 0.1)
    dmdt, lam_direct = ll_rhs(mf)
    tangency = np.abs(np.sum(mf.m * dmdt.values, axis=0)).max()
    lap = g.laplacian(mf.as_vector_field()).values
    grad_sq = sum(
        g.grad(g.ScalarField(grid, mf.m[c])).values ** 2 for c in range(3)
    ).sum(axis=0)
    lap_gradsq = g.laplacian(g.ScalarField(grid, grad_sq)).values
    cross = np.zeros(grid.shape)
    for c in range(3):
        gm = g.grad(g.ScalarField(grid, mf.m[c])).values
        gl = g.grad(g.ScalarField(grid, lap[c])).values
        cross += np.sum(gm * gl, axis=0)
    lam_expanded = np.sum(lap**2, axis=0) + lap_gradsq + 2.0 * cross
    rel = np.sqrt(np.sum((lam_direct - lam_expanded) ** 2) / max(np.sum(lam_expanded**2), 1e-300))
    ok = tangency < 1e-8 and rel < 1e-8
    return ok, f"tangency={tangency:.2e} lambda-identity={rel:.2e}"


def check_emergent_and_topology():
    grid = g.PeriodicGrid.cubic(24, 16.0)
    mf = MagnetizationField(grid, skyrmion_tube(grid), 0.5, 0.1)
    b = compute_b(mf)
    rel_div = g.l2_norm(g.div(b)) / g.l2_norm(b)
    q = skyrmion_number(mf, 0)
    # curl inversion is the identity on mean-free solenoidal fields
    sol = g.curl(_random_vector(grid, 9))
    rec = g.l2_norm(
        g.VectorField3(grid, g.curl(vector_potential(sol)).values - sol.values)
    ) / g.l2_norm(sol)
    ok = rel_div < 1e-8 and abs(q + 1.0) < 1e-9 and rec < 1e-10
    return ok, f"div b={rel_div:.2e} Q={q:.6f} curl(a)-b={rec:.2e}"


def check_kinetic():
    grid = _grid()
    p = sample_initial(UniformMaxwellian(0.4), 512, 42, grid)
    mass0 = p.total_mass
    bfield = g.VectorField3.constant(grid, (0.0, 0.0, 1.3))
    efield = g.VectorField3.zeros(grid)
    speeds0 = np.sqrt(np.sum(p.velocities**2, axis=1))
    q = p
    for _ in range(200):
        q = lorentz_push(q, efield, bfield, 5e-3)
    speeds = np.sqrt(np.sum(q.velocities**2, axis=1))
    drift = np.abs(speeds - speeds0).max() / speeds0.max()
    rho, _ = deposit(q, grid)
    mass_dep = -rho.values.sum() * grid.cell_volume
    ell = moment_exponent(2, 1, 4)
    ok = (
        drift < 1e-12
        and abs(mass_dep - mass0) < 1e-12 * max(1.0, mass0)
        and abs(q.total_mass - mass0) == 0.0
        and abs(ell - 17.0 / 14.0) < 1e-15
    )
    return ok, f"speed drift={drift:.2e} deposited-mass err={mass_dep - mass0:.2e} ell={ell:.6f}"


def check_maxwell():
    grid = _grid()
    rng = np.random.default_rng(5)
    em = EMFieldPair(
        g.dealias(g.VectorField3(grid, rng.standard_normal((3, *grid.shape)))),
        g.VectorField3.zeros(grid),
        1.0,
        1.0,
    )
    dt = 0.2 * grid.spacing[0]
    u0 = None
    worst = 0.0
    for _ in range(50):
        e_mid = em.E.values
        b_prev = em.B.values
        em = step_fields(em, None, dt)
        # E^n sits between the two half-level B fields in the conserved functional
        u = em_energy_leapfrog(e_mid, b_prev, em.B.values, 1.0, 1.0, grid)
        if u0 is None:
            u0 = u
        worst = max(worst, abs(u - u0) / abs(u0))
    ok = worst < 1e-10 and div_b_norm(em) < 1e-12
    return ok, f"energy drift={worst:.2e} divB={div_b_norm(em):.2e}"


def check_snapshot_roundtrip():
    grid = _grid(8)
    mf = MagnetizationField(grid, random_smooth_unit(grid, 11), 0.5, 0.1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.snap")
        write_snapshot(mf, path, "m", 1.25)
        snap = read_snapshot(path)
    same = (
        isinstance(snap.payload, MagnetizationField)
        and np.array_equal(snap.payload.m, mf.m)
        and snap.time == 1.25
    )
    return same, "bitwise round trip" if same else "round trip mismatch"


def check_determinism():
    cfg_text = "\n".join(
        [
            "grid.n = 8",
            "grid.box = 8.0",
            "kinetic.n_particles = 200",
            "kinetic.f0.radius = 0.9",
            "run.n_steps = 3",
            "run.dt = 1e-4",
            "run.topology_diagnostics = false",
        ]
    )
    outputs = []
    for _ in range(2):
        cfg = parse_config_text(cfg_text)
        with tempfile.TemporaryDirectory() as tmp:
            run_simulation(cfg, output_dir=tmp)
            with open(os.path.join(tmp, "ledger.csv"), "rb") as fh:
                outputs.append(fh.read())
    same = outputs[0] == outputs[1]
    return same, "bitwise identical ledgers" if same else "ledgers differ"


CHECKS = (
    ("spectral identities", check_spectral_identities),
    ("mollifier", check_mollifier),
    ("llg structure", check_llg_structure),
    ("emergent + topology", check_emergent_and_topology),
    ("kinetic", check_kinetic),
    ("maxwell", check_maxwell),
    ("snapshot round trip", check_snapshot_roundtrip),
    ("determinism", check_determinism),
)


def run_selftest(stream=None) -> bool:
    out = stream if stream is not None else io.StringIO()
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as err:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(err).__name__}: {err}"
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", file=out)
    return all_ok
