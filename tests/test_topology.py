"""Lattice degree, curl inversion, helicity, and Hopf invariant."""

from pathlib import Path

import numpy as np
import pytest

from llgvm import (
    LLCoefficients,
    PeriodicGrid,
    VectorField3,
    compute_b,
    curl,
    dealias,
    div,
    grad,
    helicity,
    hopf_invariant,
    l2_inner,
    l2_norm,
    skyrmion_number,
    step,
    topology_report,
    vector_potential,
)
from llgvm import topology
from llgvm.config import parse_config
from llgvm.errors import ContractViolation, DegenerateSliceError
from llgvm.grid import _curl_spectrum, _fft, _ifft_real
from llgvm.magnetization import MagnetizationField
from llgvm.runner import build_state, ledger_row
from llgvm.textures import hopfion, mirror_z, random_smooth_unit, skyrmion_tube, uniform_texture

from conftest import BOX, band_limited_scalar, band_limited_vector, checkerboard, rel_l2

H, ALPHA = 0.5, 0.1
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def potential_spectra(b):
    """Half spectra of the Coulomb-gauge potential and of b: the curl inversion as a complex product."""
    g = b.grid
    spec = _fft(b.values)
    spec[:, 0, 0, 0] = 0.0
    k2 = g.k_squared.copy()
    k2[0, 0, 0] = 1.0
    inv_k2 = 1.0 / k2
    a_spec = np.empty_like(spec)
    for a, c in zip(a_spec, _curl_spectrum(g, spec)):
        np.multiply(c, inv_k2, out=a)
    return a_spec, spec


def potential_form_helicity(b):
    """<a, b> as the Parseval sum of Re(a_hat . conj b_hat) over the potential's spectrum."""
    g = b.grid
    a_spec, b_spec = potential_spectra(b)
    products = a_spec.view(np.float64) * b_spec.view(np.float64)
    cross_power = (products[..., 0::2] + products[..., 1::2]).sum(axis=0)
    return float(g.volume * np.sum(g.parseval_weight * cross_power) / g.n_nodes**2)


def identity_case(name):
    """(texture, b): the 48^3 hopfion, a texture of near-zero helicity, or the curl of a random field."""
    if name == "curl16":
        grid = PeriodicGrid.cubic(16, BOX)
        rng = np.random.default_rng(26)
        b = curl(dealias(VectorField3(grid, rng.standard_normal((3, *grid.shape)))))
        return MagnetizationField(grid, uniform_texture(grid), H, ALPHA), b
    n, texture = {
        "hopfion48": (48, lambda g: hopfion(g, 7.0)),
        "random_smooth32": (32, lambda g: random_smooth_unit(g, 5, 0.05, 1)),
    }[name]
    grid = PeriodicGrid.cubic(n, BOX)
    mf = MagnetizationField(grid, texture(grid), H, ALPHA)
    return mf, compute_b(mf)


class TestSkyrmionNumber:
    def test_uniform_slice_has_degree_zero(self, grid16):
        mf = MagnetizationField(grid16, uniform_texture(grid16), H, ALPHA)
        assert skyrmion_number(mf, 0) == 0.0

    def test_axisymmetric_profile_has_degree_minus_one(self, grid32):
        mf = MagnetizationField(grid32, skyrmion_tube(grid32), H, ALPHA)
        for z in (0, grid32.n_cells[2] // 2):
            q = skyrmion_number(mf, z)
            assert round(q) == -1
            assert abs(q - round(q)) < 1e-9

    def test_flux_consistency(self):
        grid = PeriodicGrid.cubic(64, BOX)
        mf = MagnetizationField(grid, skyrmion_tube(grid), H, ALPHA)
        q = skyrmion_number(mf, 5)
        b = compute_b(mf)
        flux = b.values[2, :, :, 5].sum() * grid.spacing[0] * grid.spacing[1]
        assert abs(4.0 * np.pi * q - flux) / (4.0 * np.pi) < 1e-3

    def test_degenerate_plaquette_is_reported(self, grid16):
        vals = uniform_texture(grid16)
        vals[:, 3, 4, 0] = (0.0, 0.0, -1.0)  # antipodal node
        mf = MagnetizationField(grid16, vals, H, ALPHA)
        with pytest.raises(DegenerateSliceError):
            skyrmion_number(mf, 0)

    def test_out_of_range_slice(self, grid16):
        mf = MagnetizationField(grid16, uniform_texture(grid16), H, ALPHA)
        with pytest.raises(ContractViolation):
            skyrmion_number(mf, 100)


class TestVectorPotential:
    def test_zero_maps_to_zero(self, grid16):
        out = vector_potential(VectorField3.zeros(grid16))
        assert np.abs(out.values).max() == 0.0

    def test_single_circular_mode(self, grid32):
        # b = (cos kz, -sin kz, 0) satisfies curl b = +k b, so a = b / k
        k = 2.0 * np.pi * 3 / BOX
        z = grid32.node_mesh[2]
        vals = np.zeros((3, *grid32.shape))
        vals[0] = np.cos(k * z)
        vals[1] = -np.sin(k * z)
        b = VectorField3(grid32, vals)
        a = vector_potential(b)
        assert np.abs(a.values - vals / k).max() < 1e-12

    def test_curl_of_potential_recovers_field(self, grid16):
        for seed in range(5):
            b = curl(band_limited_vector(grid16, 400 + seed))  # solenoidal, mean-free
            a = vector_potential(b)
            assert rel_l2(curl(a).values, b.values) < 1e-10
            assert l2_norm(div(a)) < 1e-10 * l2_norm(a)

    def test_rejects_non_solenoidal_input(self, grid16):
        bad = grad(band_limited_scalar(grid16, 77))
        with pytest.raises(ContractViolation):
            vector_potential(bad)

    def test_matches_biot_savart_summation(self):
        # real-space Biot-Savart integral over one shell of periodic images
        grid = PeriodicGrid.cubic(16, BOX)
        x, y, z = grid.node_mesh
        w = 3.0
        r2 = (x - BOX / 2) ** 2 + (y - BOX / 2) ** 2 + (z - BOX / 2) ** 2
        potential = np.zeros((3, *grid.shape))
        potential[2] = np.exp(-r2 / w**2)
        b = curl(VectorField3(grid, potential))
        a_spectral = vector_potential(b).values

        nodes = np.stack([x, y, z], axis=-1).reshape(-1, 3)
        bflat = b.values.reshape(3, -1).T
        shifts = np.array(
            [(i * BOX, j * BOX, k * BOX) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)]
        )
        sources = (nodes[None, :, :] + shifts[:, None, :]).reshape(-1, 3)
        bsrc = np.tile(bflat, (len(shifts), 1))
        # compare on a deterministic subset of target nodes to keep this cheap
        target_idx = np.arange(0, len(nodes), 4)
        a_direct = np.zeros((len(target_idx), 3))
        for start in range(0, len(target_idx), 256):
            targets = nodes[target_idx[start : start + 256]]
            diff = targets[:, None, :] - sources[None, :, :]
            dist3 = np.sum(diff**2, axis=-1) ** 1.5
            np.clip(dist3, 1e-300, None, out=dist3)
            a_direct[start : start + 256] = np.einsum(
                "tsc,ts->tc", np.cross(bsrc[None, :, :], diff, axis=-1), 1.0 / dist3
            ) * grid.cell_volume / (4.0 * np.pi)
        a_sub = a_spectral.reshape(3, -1).T[target_idx]
        # remove the k = 0 component of the image sum for a like-for-like
        # comparison with the mean-free spectral gauge
        a_direct -= a_direct.mean(axis=0, keepdims=True)
        a_sub = a_sub - a_sub.mean(axis=0, keepdims=True)
        assert rel_l2(a_direct, a_sub) < 5e-2


class TestHopfInvariant:
    def test_uniform_texture_has_no_helicity(self, grid16):
        mf = MagnetizationField(grid16, uniform_texture(grid16), H, ALPHA)
        assert abs(hopf_invariant(mf)) < 1e-12

    def test_hopfion_is_quantized_at_unit_charge(self):
        grid = PeriodicGrid.cubic(64, BOX)
        mf = MagnetizationField(grid, hopfion(grid), H, ALPHA)
        assert 0.99 <= hopf_invariant(mf) <= 1.01

    def test_mirror_hopfion_has_opposite_charge(self):
        grid = PeriodicGrid.cubic(64, BOX)
        mf = MagnetizationField(grid, mirror_z(hopfion(grid)), H, ALPHA)
        assert -1.01 <= hopf_invariant(mf) <= -0.99

    def test_refinement_extrapolates_to_one(self):
        # the quantized value is the refinement limit; with the common core
        # radius 7.0 every resolution satisfies the solenoidal precondition
        values = []
        for n in (48, 64, 96):
            grid = PeriodicGrid.cubic(n, BOX)
            mf = MagnetizationField(grid, hopfion(grid, 7.0), H, ALPHA)
            values.append(hopf_invariant(mf))
        errs = [abs(v - 1.0) for v in values]
        assert errs[1] <= errs[0] + 1e-12
        assert errs[2] <= errs[1] + 1e-12
        assert errs[-1] < 1e-3

    def test_gauge_independence(self, grid32):
        mf = MagnetizationField(grid32, skyrmion_tube(grid32), H, ALPHA)
        b = compute_b(mf)
        a = vector_potential(b)
        base = l2_inner(a, b) / (4.0 * np.pi) ** 2
        chi = band_limited_scalar(grid32, 88, k_cut=2)
        shifted = VectorField3(grid32, a.values + grad(chi).values)
        changed = l2_inner(shifted, b) / (4.0 * np.pi) ** 2
        assert abs(changed - base) < 1e-10

    def test_requires_localized_texture(self, grid32):
        from llgvm.textures import random_smooth_unit

        mf = MagnetizationField(grid32, random_smooth_unit(grid32, 5, 0.05, 1), H, ALPHA)
        with pytest.raises(ContractViolation):
            hopf_invariant(mf)

    def test_helicity_preserved_along_llg_flow(self):
        # 100 damped-precession steps change the Hopf number by < 5e-3
        grid = PeriodicGrid.cubic(64, BOX)
        mf = MagnetizationField(grid, hopfion(grid), H, ALPHA)
        coeffs = LLCoefficients.from_alpha(ALPHA)
        h0 = hopf_invariant(mf)
        dt = 2.5e-6
        drift = 0.0
        for n in range(100):
            mf = step(mf, None, dt, coeffs)
            if (n + 1) % 25 == 0:
                drift = max(drift, abs(hopf_invariant(mf) - h0))
        assert drift < 5e-3


class TestHelicity:
    def test_parseval_sum_matches_real_space_inner_product(self):
        grid = PeriodicGrid.cubic(48, BOX)
        mf = MagnetizationField(grid, hopfion(grid, 7.0), H, ALPHA)
        b = compute_b(mf)
        direct = l2_inner(vector_potential(b), b)
        assert abs(helicity(mf, b) - direct) <= 1e-12 * abs(direct)

    def test_zero_field_has_zero_helicity(self, grid16):
        mf = MagnetizationField(grid16, uniform_texture(grid16), H, ALPHA)
        assert helicity(mf, VectorField3.zeros(grid16)) == 0.0

    def test_rejects_non_solenoidal_field(self, grid16):
        mf = MagnetizationField(grid16, uniform_texture(grid16), H, ALPHA)
        with pytest.raises(ContractViolation):
            helicity(mf, grad(band_limited_scalar(grid16, 77)))

    @pytest.mark.parametrize("case", ["hopfion48", "random_smooth32", "curl16"])
    def test_real_sum_equals_the_potential_form(self, case):
        # Re(a_hat . conj b_hat) = 2 k . (R x I) / |k|^2 with b_hat = R + iI; the
        # rounding scale of both sums is ||a|| ||b||, not |helicity|, which is
        # about 1e-17 of it on the random_smooth texture
        mf, b = identity_case(case)
        scale = l2_norm(vector_potential(b)) * l2_norm(b)
        assert abs(helicity(mf, b) - potential_form_helicity(b)) <= 1e-15 * scale
        assert np.array_equal(
            vector_potential(b).values, np.stack([_ifft_real(a) for a in potential_spectra(b)[0]])
        )

    def test_ledger_hopf_builds_no_potential(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the Hopf column inverted the curl")

        monkeypatch.setattr(topology, "_curl_spectrum", refuse)
        hopf = ledger_row(build_state(parse_config(CONFIGS / "hopfion.cfg")))["hopf"]
        assert np.isfinite(hopf) and round(hopf) == 1


class TestTopologyReport:
    def test_report_on_tube(self, grid32):
        mf = MagnetizationField(grid32, skyrmion_tube(grid32), H, ALPHA)
        report = topology_report(mf)
        assert len(report.skyrmion_number_per_slice) == grid32.n_cells[2]
        for _, q in report.skyrmion_number_per_slice:
            assert q == pytest.approx(-1.0, abs=1e-9)
        assert report.hopf_invariant == pytest.approx(report.helicity / (4 * np.pi) ** 2)
        assert report.gauge_residual < 1e-10
        assert len(report.lines()) == grid32.n_cells[2] + 3

    def test_hopf_value_is_the_ledger_one(self):
        # the 48^3 hopfion of configs/hopfion.cfg
        grid = PeriodicGrid.cubic(48, BOX)
        mf = MagnetizationField(grid, hopfion(grid, 7.0), H, ALPHA)
        report = topology_report(mf)
        assert report.helicity == helicity(mf)
        assert report.hopf_invariant == hopf_invariant(mf)
        assert report.gauge_residual == l2_norm(div(vector_potential(compute_b(mf))))

    def test_checks_b_once(self, monkeypatch, grid32):
        # the helicity and the gauge residual share one checked spectrum of b
        calls = []
        for name in ("_fft", "_div_spectrum"):
            original = getattr(topology, name)
            monkeypatch.setattr(topology, name, lambda *a, _n=name, _f=original: calls.append(_n) or _f(*a))
        report = topology_report(MagnetizationField(grid32, skyrmion_tube(grid32), H, ALPHA))
        assert np.isfinite([report.helicity, report.gauge_residual]).all()
        assert calls == ["_fft", "_div_spectrum"]

    def test_refused_potential_reads_nan_and_keeps_the_slices(self, grid32):
        # a 32^3 hopfion's b is not solenoidal to the inversion's 1e-6 bound
        mf = MagnetizationField(grid32, hopfion(grid32), H, ALPHA)
        with pytest.raises(ContractViolation, match="not solenoidal"):
            vector_potential(compute_b(mf))
        report = topology_report(mf)
        assert np.isnan([report.helicity, report.hopf_invariant, report.gauge_residual]).all()
        assert [z for z, _ in report.skyrmion_number_per_slice] == list(range(32))
        assert np.isfinite([q for _, q in report.skyrmion_number_per_slice]).all()
        assert report.lines()[:3] == ["helicity = nan", "hopf_invariant = nan", "gauge_residual = nan"]

    def test_degenerate_slices_read_nan(self):
        grid = PeriodicGrid.cubic(8, 8.0)
        report = topology_report(MagnetizationField(grid, checkerboard(grid), H, ALPHA))
        assert len(report.skyrmion_number_per_slice) == 8
        assert np.isnan([q for _, q in report.skyrmion_number_per_slice]).all()
