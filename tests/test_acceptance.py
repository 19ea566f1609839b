"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import llgvm
from llgvm import (
    BumpMaxwellian,
    EMFieldPair,
    LLCoefficients,
    Mollifier,
    PeriodicGrid,
    ScalarField,
    VectorField3,
    apply_a,
    cfl_limit,
    compute_b,
    compute_e,
    curl,
    deposit_moment,
    div,
    energy,
    hopf_invariant,
    l2_norm,
    laplacian,
    lorentz_push,
    moment_exponent,
    sample_initial,
    skyrmion_number,
    step,
    step_fields,
)
from llgvm.cli import main as cli_main
from llgvm.config import parse_config_text
from llgvm.coupler import advance
from llgvm.grid import _fft, _ifft_real
from llgvm.kinetic import ParticleEnsemble, lp_norm_of_field, moment_exponent_exact
from llgvm.magnetization import MagnetizationField, unit_normalize
from llgvm.runner import build_state, validate_dt
from llgvm.selftest import (
    adjoint_defect,
    lambda_identity_defect,
    leapfrog_energy_drift,
    speed_drift,
)
from llgvm.textures import hopfion, random_smooth_unit, skyrmion_tube

from conftest import BOX, band_limited_vector, rel_l2

H, ALPHA = 0.5, 0.1


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {number} PASS: {title}")


def coupled_run(dt, n_steps):
    cfg = parse_config_text(f"grid.n = 32\nkinetic.n_particles = 10000\nrun.dt = {dt}\n")
    state = build_state(cfg)
    assert dt <= validate_dt(cfg, state)
    e0 = state.ledger.total
    monotone = True
    prev = e0
    for _ in range(n_steps):
        state = advance(state, dt)
        total = state.ledger.total
        if total > prev + 1e-6 * abs(e0):
            monotone = False
        prev = total
    residual = abs(state.ledger.total - e0 + state.ledger.dissipation_cum)
    return residual, monotone


def test_criterion_1_energy_dissipation_law():
    with criterion(1, "energy-dissipation law on the default coupled run"):
        started = time.time()
        res_coarse, mono_coarse = coupled_run(5e-5, 200)
        res_fine, mono_fine = coupled_run(2.5e-5, 400)
        elapsed = time.time() - started
        order = np.log2(res_coarse / res_fine)
        print(
            f"  residual {res_coarse:.3e} -> {res_fine:.3e} (order {order:.2f}),"
            f" runtime {elapsed:.0f}s"
        )
        assert mono_coarse and mono_fine
        assert order >= 0.9


def test_criterion_2_mollifier_self_adjoint(grid16):
    with criterion(2, "smoothing operator self-adjoint on 100 random pairs"):
        mol = Mollifier.build(grid16, 4.0 * grid16.spacing[0])
        for seed in range(100):
            j = band_limited_vector(grid16, 2000 + seed, k_cut=4)
            e = band_limited_vector(grid16, 3000 + seed, k_cut=4)
            assert adjoint_defect(mol, j, e) <= 1e-12


def test_criterion_3_topological_quantization():
    with criterion(3, "skyrmion number, Hopf charge, and its preservation"):
        grid32 = PeriodicGrid.cubic(32, BOX)
        tube = MagnetizationField(grid32, skyrmion_tube(grid32), H, ALPHA)
        q = skyrmion_number(tube, 0)
        assert round(q) == -1 and abs(q - round(q)) < 1e-9

        grid64 = PeriodicGrid.cubic(64, BOX)
        mf = MagnetizationField(grid64, hopfion(grid64), H, ALPHA)
        h0 = hopf_invariant(mf)
        assert 0.99 <= h0 <= 1.01

        coeffs = LLCoefficients.from_alpha(ALPHA)
        drift = 0.0
        state = mf
        for n in range(100):
            state = step(state, None, 2.5e-6, coeffs)
            if (n + 1) % 50 == 0:
                drift = max(drift, abs(hopf_invariant(state) - h0))
        print(f"  Q = {q:.12f}, H = {h0:.6f}, drift over 100 steps = {drift:.2e}")
        assert drift < 5e-3


def test_criterion_4_emergent_maxwell_laws(grid32):
    with criterion(4, "emergent Gauss law and Faraday residual"):
        for seed in range(5):
            mf = MagnetizationField(
                grid32, random_smooth_unit(grid32, 4000 + seed, 0.05, 1), H, ALPHA
            )
            b = compute_b(mf)
            assert l2_norm(div(b)) < 1e-8 * l2_norm(b)

        m0 = random_smooth_unit(grid32, 3, 0.3, 1)
        direction = random_smooth_unit(grid32, 4, 1.0, 1) - np.array(
            [0.0, 0.0, 1.0]
        ).reshape(3, 1, 1, 1)

        def mf_at(s):
            return MagnetizationField(grid32, unit_normalize(m0 + s * direction), H, ALPHA)

        res = []
        for dt in (0.4, 0.2, 0.1):
            prev, nxt = mf_at(0.0), mf_at(dt)
            r = (compute_b(nxt).values - compute_b(prev).values) / dt + curl(
                compute_e(prev, nxt, dt)
            ).values
            res.append(np.sqrt(np.sum(r**2) / np.sum(compute_b(nxt).values ** 2)))
        orders = [np.log2(res[i] / res[i + 1]) for i in range(2)]
        print(f"  div b ok; faraday residuals {[f'{r:.2e}' for r in res]}")
        assert min(orders) >= 0.9


def test_criterion_5_structural_identities(grid32, grid16):
    with criterion(5, "fourth-order structure identities and coercivity"):
        for seed in range(20):
            mf = MagnetizationField(
                grid32, random_smooth_unit(grid32, 5000 + seed, 0.05, 1), H, ALPHA
            )
            assert lambda_identity_defect(mf) < 1e-8

            m, gradm = mf.m, mf.gradient
            lap = laplacian(mf.as_vector_field()).values
            bih = _ifft_real(mf.spectrum * grid32.k_squared**2)
            lhs = np.cross(m, bih, axis=0)
            rhs = laplacian(VectorField3(grid32, np.cross(m, lap, axis=0))).values.copy()
            for axis in range(3):
                term = np.cross(gradm[axis], lap, axis=0)
                rhs -= 2.0 * _ifft_real(grid32._ik[axis] * _fft(term))
            assert rel_l2(lhs, rhs) < 1e-8

        rng = np.random.default_rng(77)
        mf = MagnetizationField(grid32, random_smooth_unit(grid32, 7, 0.3, 2), H, ALPHA)
        xi = rng.standard_normal((3, *grid32.shape))
        xi -= np.sum(xi * mf.m, axis=0) * mf.m
        lhs = np.sum(apply_a(mf.m, xi, ALPHA) ** 2, axis=0)
        rhs = (1.0 + ALPHA**2) * np.sum(xi**2, axis=0)
        assert np.abs(lhs - rhs).max() <= 1e-14 * rhs.max()

        eps = 0.3
        e3 = np.array([0.0, 0.0, 1.0]).reshape(3, 1, 1, 1)
        for seed in range(100):
            mf = MagnetizationField(
                grid16, random_smooth_unit(grid16, 6000 + seed, 0.1, 2), H, ALPHA
            )
            dev = VectorField3(grid16, mf.m - e3)
            lower = 0.5 * (
                (1.0 - 1.0 / (4.0 * eps)) * l2_norm(laplacian(dev)) ** 2
                + (H - eps) * l2_norm(dev) ** 2
            )
            assert energy(mf) >= lower - 1e-10 * max(1.0, abs(lower))


def test_criterion_6_kinetic_structure(grid16):
    with criterion(6, "Boris-split structure: speed, volume, mass, orbit order"):
        p = sample_initial(BumpMaxwellian((8.0, 8.0, 8.0), 1.5, 0.4), 64, 7, grid16)
        mass0 = p.total_mass
        e0 = VectorField3.zeros(grid16)
        b0 = VectorField3.constant(grid16, (0.0, 0.0, 1.0))
        drift, q = speed_drift(p, e0, b0, 1e-2, 10000)
        assert drift < 1e-11
        assert q.total_mass == mass0

        efield = band_limited_vector(grid16, 1, k_cut=2, amplitude=0.5)
        bfield = band_limited_vector(grid16, 2, k_cut=2, amplitude=0.5)
        z0 = np.array([8.43, 7.91, 8.22, 0.31, -0.22, 0.17])

        def flow(z):
            one = ParticleEnsemble(z[:3, None], z[3:, None], [1.0])
            one = lorentz_push(one, efield, bfield, 1e-3)
            return np.concatenate([one.positions[:, 0], one.velocities[:, 0]])

        def jac(delta):
            cols = []
            for c in range(6):
                unit = np.zeros(6)
                unit[c] = delta
                cols.append((flow(z0 + unit) - flow(z0 - unit)) / (2 * delta))
            return np.stack(cols, axis=1)

        det = np.linalg.det((4.0 * jac(5e-4) - jac(1e-3)) / 3.0)
        assert abs(det - 1.0) < 1e-10

        x0 = np.array([8.0, 8.0, 8.0])
        v0 = np.array([0.3, 0.1, 0.05])
        horizon = 2.0

        def rk4(n_sub):
            dt = horizon / n_sub
            x, v = x0.copy(), v0.copy()
            bvec = np.array([0.0, 0.0, 1.0])
            for _ in range(n_sub):
                k1x, k1v = v, -np.cross(v, bvec)
                k2x, k2v = v + dt / 2 * k1v, -np.cross(v + dt / 2 * k1v, bvec)
                k3x, k3v = v + dt / 2 * k2v, -np.cross(v + dt / 2 * k2v, bvec)
                k4x, k4v = v + dt * k3v, -np.cross(v + dt * k3v, bvec)
                x = x + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
                v = v + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
            return x % BOX

        errs = []
        for n_steps in (40, 80):
            one = ParticleEnsemble(x0[:, None], v0[:, None], [1.0])
            for _ in range(n_steps):
                one = lorentz_push(one, e0, b0, horizon / n_steps)
            errs.append(np.linalg.norm(one.positions[:, 0] - rk4(n_steps * 100)))
        order = np.log2(errs[0] / errs[1])
        print(f"  |det-1| = {abs(det - 1.0):.2e}, gyro order = {order:.2f}")
        assert order >= 1.9


def test_criterion_7_maxwell_solver(grid16):
    with criterion(7, "staggered solver: div B, energy conservation, dispersion"):
        from llgvm.maxwell import div_b_norm, init_compatible

        pot = band_limited_vector(grid16, 61)
        em = init_compatible(ScalarField.zeros(grid16), potential=pot)
        em = EMFieldPair(band_limited_vector(grid16, 63), em.B, 1.0, 1.0)
        dt = 0.4 * cfl_limit(grid16, 1.0, 1.0)
        scale = np.abs(em.B.values).max()
        for _ in range(100):
            em = step_fields(em, None, dt)
        assert div_b_norm(em) < 1e-12 * scale

        em = EMFieldPair(band_limited_vector(grid16, 64), VectorField3.zeros(grid16), 1.0, 1.0)
        drift, _ = leapfrog_energy_drift(em, 0.3 * cfl_limit(grid16, 1.0, 1.0), 1000)
        assert drift < 1e-10

        grid = PeriodicGrid.cubic(64, BOX)
        n_mode = 4
        k = 2.0 * np.pi * n_mode / BOX
        for eps_r, mu_r in ((1.0, 1.0), (2.0, 1.0), (2.0, 2.0)):
            c = 1.0 / np.sqrt(eps_r * mu_r)
            dt = 0.2 * cfl_limit(grid, eps_r, mu_r)
            xe = grid.staggered_mesh((0.0, 0.5, 0.0))[0]
            xb = grid.staggered_mesh((0.5, 0.5, 0.0))[0]
            evals = np.zeros((3, *grid.shape))
            bvals = np.zeros((3, *grid.shape))
            evals[1] = np.cos(k * xe)
            bvals[2] = np.sqrt(eps_r * mu_r) * np.cos(k * xb + c * k * dt / 2)
            em = EMFieldPair(VectorField3(grid, evals), VectorField3(grid, bvals), eps_r, mu_r)
            phases = []
            for _ in range(240):
                em = step_fields(em, None, dt)
                phases.append(np.angle(np.fft.fft(em.E.values[1][:, 0, 0])[n_mode]))
            times = dt * (1.0 + np.arange(len(phases)))
            omega = abs(np.polyfit(times, np.unwrap(phases), 1)[0])
            assert abs(1.0 - (omega / k) / c) <= 1.05 * (k * grid.spacing[0]) ** 2 / 24.0


def test_criterion_8_moment_machinery():
    with criterion(8, "velocity-moment exponent, homogeneity, Gaussian oracle"):
        assert moment_exponent(2, 1, 4) == 17.0 / 14.0
        assert moment_exponent_exact(2, 1, 4) == Fraction(17, 14)
        three_over_q = 3.0 * (4 - 1) / 4
        exp_f = (2 - 1) / (2 + three_over_q)
        exp_mk = (1 + three_over_q) / (2 + three_over_q)
        assert abs(exp_f + exp_mk - 1.0) < 1e-12

        grid = PeriodicGrid.cubic(32, BOX)
        sigma, v_th = 1.6, 0.3
        p = sample_initial(BumpMaxwellian((8.0, 8.0, 8.0), sigma, v_th), 100000, 7, grid)
        ell = moment_exponent(2, 1, 4)
        lhs = lp_norm_of_field(deposit_moment(p, grid, 1), ell)
        oracle = (
            v_th
            * np.sqrt(8.0 / np.pi)
            * (2.0 * np.pi * sigma**2) ** (3.0 * (1.0 - ell) / (2.0 * ell))
            * ell ** (-3.0 / (2.0 * ell))
        )
        print(f"  ell = {ell}, ||m1|| = {lhs:.5f} vs oracle {oracle:.5f}")
        assert abs(lhs / oracle - 1.0) < 0.05


def test_criterion_9_determinism_and_io(tmp_path):
    with criterion(9, "bitwise determinism across threads, exact IO, selftest"):
        config = Path(__file__).resolve().parent.parent / "configs" / "skyrmion.cfg"
        outputs = []
        for threads in ("1", "8"):  # numpy's BLAS and OpenMP pools, in a fresh process each
            out = tmp_path / f"threads{threads}"
            env = {
                **os.environ,
                "PYTHONPATH": str(Path(llgvm.__file__).parents[1]),
                "OMP_NUM_THREADS": threads,
                "OPENBLAS_NUM_THREADS": threads,
                "MKL_NUM_THREADS": threads,
            }
            subprocess.run(
                [sys.executable, "-m", "llgvm.cli", "run", "--config", str(config), "--output", str(out)],
                env=env, check=True, timeout=600,
            )
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert len(outputs[0]) == 1 + 6 * 4  # ledger.csv, six snapshots at steps 0, 25, 50 and final
        assert outputs[0] == outputs[1]

        from llgvm import read_snapshot, write_snapshot

        grid = PeriodicGrid.cubic(16, BOX)
        mf = MagnetizationField(grid, random_smooth_unit(grid, 5), H, ALPHA)
        path = tmp_path / "m.snap"
        write_snapshot(mf, path, "m", 0.5)
        assert np.array_equal(read_snapshot(path).payload.m, mf.m)

        assert cli_main(["selftest"]) == 0
