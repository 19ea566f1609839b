"""Staggered-grid Maxwell solver: constraints, conservation, dispersion."""

import numpy as np
import pytest

from llgvm import (
    EMFieldPair,
    EMMode,
    PeriodicGrid,
    ScalarField,
    VectorField3,
    cfl_limit,
    gauss_residual,
    init_compatible,
    step_fields,
)
from llgvm.errors import ConfigError, ContractViolation, TimeStepError
from llgvm.maxwell import (
    avg_B_to_nodes,
    avg_E_to_nodes,
    div_b_norm,
    div_edge,
    em_energy,
    em_energy_leapfrog,
)
from llgvm.selftest import leapfrog_energy_drift

from conftest import BOX, band_limited_vector

EPS_KEYS = [(1.0, 1.0), (2.0, 1.0), (2.0, 2.0)]


def fwd_diff(f, axis, h):
    return (np.roll(f, -1, axis=axis) - f) / h


def bwd_diff(f, axis, h):
    return (f - np.roll(f, 1, axis=axis)) / h


def roll_curl(v, grid, diff):
    """Staggered curl written out with explicit np.roll differences."""
    hx, hy, hz = grid.spacing
    return np.stack(
        [
            diff(v[2], 1, hy) - diff(v[1], 2, hz),
            diff(v[0], 2, hz) - diff(v[2], 0, hx),
            diff(v[1], 0, hx) - diff(v[0], 1, hy),
        ]
    )


@pytest.fixture(scope="module")
def grid_aniso():
    return PeriodicGrid((8, 12, 16), (8.0, 9.0, 10.0))


class TestStaggeredCurls:
    def test_edge_to_face_curl_of_the_potential(self, grid_aniso):
        pot = band_limited_vector(grid_aniso, 65)
        em = init_compatible(ScalarField.zeros(grid_aniso), potential=pot)
        assert np.array_equal(em.B.values, roll_curl(pot.values, grid_aniso, fwd_diff))

    def test_leapfrog_step_uses_both_curls(self, grid_aniso):
        e0 = band_limited_vector(grid_aniso, 66).values
        b0 = band_limited_vector(grid_aniso, 67).values
        eps_r, mu_r = 2.0, 1.5
        dt = 0.3 * cfl_limit(grid_aniso, eps_r, mu_r)
        em = EMFieldPair(VectorField3(grid_aniso, e0), VectorField3(grid_aniso, b0), eps_r, mu_r)
        em = step_fields(em, None, dt)
        b_ref = b0 - dt * roll_curl(e0, grid_aniso, fwd_diff)
        e_ref = e0 + (dt / eps_r) * roll_curl(b_ref, grid_aniso, bwd_diff) / mu_r
        assert np.array_equal(em.B.values, b_ref)
        assert np.array_equal(em.E.values, e_ref)


class TestInitCompatible:
    def test_zero_charge_gives_zero_fields(self, grid16):
        em = init_compatible(ScalarField.zeros(grid16))
        assert np.abs(em.E.values).max() == 0.0
        assert np.abs(em.B.values).max() == 0.0

    @pytest.mark.parametrize("eps_r", [1.0, 2.0])
    def test_single_mode_poisson(self, grid32, eps_r):
        x = grid32.node_mesh[0]
        k = 2.0 * np.pi * 2 / BOX
        rho = ScalarField(grid32, 0.8 * np.cos(k * x))
        em = init_compatible(rho, eps_r=eps_r)
        res = eps_r * div_edge(em.E.values, grid32) - rho.values
        assert np.sqrt(np.sum(res**2) * grid32.cell_volume) < 1e-10

    def test_gauss_residual_for_random_charge(self, grid16):
        rho_vals = band_limited_vector(grid16, 60).values[0]
        rho = ScalarField(grid16, rho_vals - rho_vals.mean())
        em = init_compatible(rho, eps_r=1.5)
        assert gauss_residual(em, rho) < 1e-10

    def test_solenoidal_b_from_potential(self, grid16):
        pot = band_limited_vector(grid16, 61)
        em = init_compatible(ScalarField.zeros(grid16), potential=pot)
        assert div_b_norm(em) < 1e-12 * np.abs(em.B.values).max()

    def test_transverse_modes_are_divergence_free(self, grid16):
        em = init_compatible(
            ScalarField.zeros(grid16),
            modes=(EMMode((1, 2, 0), 0.5), EMMode((0, 1, 1), 0.25, polarization=1)),
        )
        res = div_edge(em.E.values, grid16)
        assert np.abs(res).max() < 1e-12

    @pytest.mark.parametrize("n", [(0, 0, 0), (16, 16, 0)], ids=["zero", "aliased-zero"])
    def test_zero_mode_rejected(self, grid16, n):
        # sin(pi) is 1.2e-16, not 0: only the integer test sees (16, 16, 0) as k = 0 on 16^3
        with pytest.raises(ConfigError, match=r"is the zero mode of a grid of \(16, 16, 16\) nodes") as err:
            init_compatible(ScalarField.zeros(grid16), modes=(EMMode(n, 1.0),))
        assert f"EM mode {n}" in str(err.value)

    def test_constitutive_constants_validated(self, grid16):
        with pytest.raises(ContractViolation):
            EMFieldPair.zeros(grid16, eps_r=0.5)

    def test_e_and_b_grids_must_agree(self, grid16, grid32):
        with pytest.raises(ContractViolation, match="different grids"):
            EMFieldPair(VectorField3.zeros(grid16), VectorField3.zeros(grid32), 1.0, 1.0)


class TestStepFields:
    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_non_finite_dt_rejected(self, grid16, dt):
        with pytest.raises(ContractViolation, match="dt must be positive and finite"):
            step_fields(EMFieldPair.zeros(grid16), None, dt)

    def test_current_grid_must_match(self, grid16, grid32):
        with pytest.raises(ContractViolation, match="current grid mismatch"):
            step_fields(EMFieldPair.zeros(grid16), VectorField3.zeros(grid32), 1e-3)

    def test_zero_state_stays_zero(self, grid16):
        # every bit is zero, so the source-free step returns its input
        em = EMFieldPair.zeros(grid16)
        assert em.is_zero
        assert step_fields(em, None, 0.5 * cfl_limit(grid16, 1.0, 1.0)) is em
        assert em_energy(em) == 0.0 and div_b_norm(em) == 0.0

    def test_uniform_current_drives_linear_e(self, grid16):
        # with B = 0 and spatially uniform j the curl terms vanish identically
        eps_r = 2.0
        em = EMFieldPair.zeros(grid16, eps_r=eps_r)
        j = VectorField3.constant(grid16, (0.3, 0.0, -0.1))
        dt = 0.1 * cfl_limit(grid16, eps_r, 1.0)
        for _ in range(25):
            em = step_fields(em, j, dt)
        expected = -np.array([0.3, 0.0, -0.1]) * 25 * dt / eps_r
        for c in range(3):
            assert np.abs(em.E.values[c] - expected[c]).max() < 1e-13

    def test_div_b_invariant(self, grid16):
        rng = np.random.default_rng(3)
        pot = band_limited_vector(grid16, 62)
        em = init_compatible(ScalarField.zeros(grid16), potential=pot)
        em = EMFieldPair(
            band_limited_vector(grid16, 63), em.B, 1.0, 1.0
        )  # arbitrary E, solenoidal B
        dt = 0.4 * cfl_limit(grid16, 1.0, 1.0)
        scale = np.abs(em.B.values).max()
        for _ in range(50):
            em = step_fields(em, None, dt)
        assert div_b_norm(em) < 1e-12 * max(scale, np.abs(em.B.values).max())

    # vacuum, (1, 1), is acceptance criterion 7's run of this check
    @pytest.mark.parametrize("eps_r,mu_r", EPS_KEYS[1:])
    def test_source_free_energy_conservation(self, grid16, eps_r, mu_r):
        # the staggered-in-time functional is conserved to 1e-10 over 1000 steps
        em = EMFieldPair(
            band_limited_vector(grid16, 64),
            VectorField3.zeros(grid16),
            eps_r,
            mu_r,
        )
        drift, _ = leapfrog_energy_drift(em, 0.3 * cfl_limit(grid16, eps_r, mu_r), 1000)
        assert drift < 1e-10

    @pytest.mark.parametrize("eps_r,mu_r", EPS_KEYS)
    def test_plane_wave_dispersion(self, eps_r, mu_r):
        # measured phase speed within the second-order bound (k h)^2 / 24
        grid = PeriodicGrid.cubic(64, BOX)
        n_mode = 4
        k = 2.0 * np.pi * n_mode / BOX
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
        speed_error = abs(1.0 - (omega / k) / c)
        bound = (k * grid.spacing[0]) ** 2 / 24.0
        assert speed_error <= 1.05 * bound

    def test_cfl_refusal(self, grid16):
        # at and above the bound: the zero pair's shortcut comes after both dt checks
        em = EMFieldPair.zeros(grid16)
        for factor in (1.0, 1.01):
            with pytest.raises(TimeStepError):
                step_fields(em, None, factor * cfl_limit(grid16, 1.0, 1.0))


def yee_reference(em, dt):
    """The leapfrog update written out, as in test_leapfrog_step_uses_both_curls."""
    b = em.B.values - dt * roll_curl(em.E.values, em.grid, fwd_diff)
    e = em.E.values + (dt / em.eps_r) * roll_curl(b, em.grid, bwd_diff) / em.mu_r
    return e, b


def bits(values):
    return values.view(np.uint64)


class TestZeroSector:
    def test_fields_are_frozen(self, grid16):
        # is_zero is computed once per pair
        em = EMFieldPair.zeros(grid16)
        for values in (em.E.values, em.B.values):
            with pytest.raises(ValueError):
                values[0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("field", ["E", "B"])
    @pytest.mark.parametrize("fill", ["negative_zero", "tiny", "subnormal"])
    def test_any_set_bit_takes_the_full_yee_step(self, grid16, field, fill):
        vals = np.zeros((3, *grid16.shape))
        if fill == "negative_zero":
            vals[:] = -0.0
        else:
            vals[1, 3, 5, 7] = 1e-170 if fill == "tiny" else 1e-310
        zero = VectorField3.zeros(grid16)
        given = VectorField3(grid16, vals)
        em = EMFieldPair(given, zero, 1.0, 1.0) if field == "E" else EMFieldPair(zero, given, 1.0, 1.0)
        assert not em.is_zero
        # each square underflows, so the energy cannot tell these fields from zero
        assert em_energy_leapfrog(vals, vals, vals, 1.0, 1.0, grid16) == 0.0
        dt = 0.4 * cfl_limit(grid16, 1.0, 1.0)
        out = step_fields(em, None, dt)
        e_ref, b_ref = yee_reference(em, dt)
        assert out is not em
        assert np.array_equal(bits(out.E.values), bits(e_ref))
        assert np.array_equal(bits(out.B.values), bits(b_ref))


class TestAveraging:
    def test_edge_average_of_linear_mode(self, grid16):
        # node average of Ex recovers cos(k x) * cos(k h / 2)
        k = 2.0 * np.pi / BOX
        xe = grid16.staggered_mesh((0.5, 0.0, 0.0))[0]
        vals = np.zeros((3, *grid16.shape))
        vals[0] = np.cos(k * xe)
        em = EMFieldPair(VectorField3(grid16, vals), VectorField3.zeros(grid16), 1.0, 1.0)
        nodes = avg_E_to_nodes(em)
        x = grid16.node_mesh[0]
        expected = np.cos(k * x) * np.cos(k * grid16.spacing[0] / 2.0)
        assert np.abs(nodes.values[0] - expected).max() < 1e-13

    def test_edge_and_node_averages_match_explicit_rolls(self, grid16):
        # E onto nodes pairs each component with its lower neighbour; the
        # step's current onto edges pairs it with its upper neighbour
        e = band_limited_vector(grid16, 60)
        em = EMFieldPair(e, band_limited_vector(grid16, 61), 1.0, 1.0)
        ref = np.stack([0.5 * (e.values[a] + np.roll(e.values[a], 1, axis=a)) for a in range(3)])
        assert np.array_equal(avg_E_to_nodes(em).values, ref)
        j = band_limited_vector(grid16, 62)
        j_edge = np.stack([0.5 * (j.values[a] + np.roll(j.values[a], -1, axis=a)) for a in range(3)])
        dt = 0.3 * cfl_limit(grid16, 1.0, 1.0)
        free = step_fields(em, None, dt).E.values
        assert np.array_equal(step_fields(em, j, dt).E.values, free - dt * j_edge)

    def test_face_average_constant(self, grid16):
        vals = np.zeros((3, *grid16.shape))
        vals[1] = 4.0
        em = EMFieldPair(VectorField3.zeros(grid16), VectorField3(grid16, vals), 1.0, 1.0)
        nodes = avg_B_to_nodes(em)
        assert np.abs(nodes.values[1] - 4.0).max() < 1e-14

    def test_plain_energy_functional(self, grid16):
        em = EMFieldPair(
            VectorField3.constant(grid16, (2.0, 0.0, 0.0)),
            VectorField3.constant(grid16, (0.0, 3.0, 0.0)),
            2.0,
            1.5,
        )
        expected = 0.5 * (2.0 * 4.0 + 9.0 / 1.5) * BOX**3
        assert em_energy(em) == pytest.approx(expected, rel=1e-13)
