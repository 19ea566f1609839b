"""Slab-blocked real-space chains: bitwise independent of the slab size.

The node-wise chains of the LLG step, the |m| checks and the emergent fields
run over the x-slabs of grid._slabs.  Each test runs at the slab size of the
``slab_nodes`` fixture (one plane per slab, an uneven split, one slab) and
compares bitwise with a one-slab run, or checks that a fault in the last slab
is reported as a whole-array pass reports it.
"""

import tracemalloc

import numpy as np
import pytest

from llgvm import coupler, grid
from llgvm.config import parse_config_text
from llgvm.coupler import advance
from llgvm.emergent import EmergentFieldPair, compute_b, compute_e
from llgvm.errors import BlowUpError, ContractViolation, StateCorruption
from llgvm.grid import PeriodicGrid, _slabs
from llgvm.magnetization import LLCoefficients, MagnetizationField, step, unit_normalize
from llgvm.runner import build_state, ledger_row, validate_dt

from conftest import BOX, band_limited_vector, random_unit_mf

H, ALPHA = 0.5, 0.1
COUPLED = "grid.n = 16\nkinetic.n_particles = 400\nrun.dt = 5e-4\n"
HOPFION = (
    "grid.n = 16\nllg.initial = hopfion\nllg.init_radius = 7.0\n"
    "kinetic.n_particles = 0\nrun.dt = 1e-5\n"
)


def one_slab(monkeypatch, fn):
    """fn() with every chain in a single slab, the whole-array pass."""
    with monkeypatch.context() as mp:
        mp.setattr(grid, "_SLAB_NODES", 1 << 40)
        return fn()


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n", [4, 6, 24, 32, 48])
def test_slabs_cover_the_x_axis_once(slab_nodes, n):
    slabs = _slabs((n, n, n))
    covered = np.concatenate([np.arange(n)[s] for s in slabs])
    assert np.array_equal(covered, np.arange(n))
    assert all(s.step is None and s.stop > s.start for s in slabs)


def test_default_slab_counts():
    assert [len(_slabs((n, n, n))) for n in (16, 24, 32, 48)] == [1, 1, 2, 7]


class TestBitwiseAcrossSlabSizes:
    @pytest.mark.parametrize("with_j", [False, True])
    def test_step(self, grid16, slab_nodes, monkeypatch, with_j):
        j = band_limited_vector(grid16, 5, amplitude=0.3) if with_j else None
        coeffs = LLCoefficients.from_alpha(ALPHA)

        def run():
            return step(random_unit_mf(grid16, 3, amplitude=0.3, k_cut=2), j, 1e-4, coeffs).m

        assert same_bits(run(), one_slab(monkeypatch, run))

    def test_unit_normalize(self, grid16, slab_nodes, monkeypatch):
        values = band_limited_vector(grid16, 7).values + 3.0
        ref = one_slab(monkeypatch, lambda: unit_normalize(values))
        assert same_bits(unit_normalize(values), ref)

    def test_magnetization_field_accepts_the_same_states(self, grid16, slab_nodes):
        values = random_unit_mf(grid16, 4, amplitude=0.3).m
        assert same_bits(MagnetizationField(grid16, values, H, ALPHA).m, values)

    def test_compute_b_and_compute_e(self, grid16, slab_nodes, monkeypatch):
        coeffs = LLCoefficients.from_alpha(ALPHA)
        mf0 = random_unit_mf(grid16, 8, amplitude=0.3, k_cut=2)
        mf1 = step(mf0, None, 1e-3, coeffs)

        def fields():
            # fresh states, so the slabbed code, not a cache, makes both fields
            prev, nxt = mf1.with_m(mf0.m), mf1.with_m(mf1.m)
            return compute_b(nxt).values, compute_e(prev, nxt, 1e-3).values

        for got, ref in zip(fields(), one_slab(monkeypatch, fields)):
            assert same_bits(got, ref)

    @pytest.mark.parametrize("text", [COUPLED, HOPFION], ids=["coupled", "particle-free"])
    def test_advance_and_ledger_row(self, slab_nodes, monkeypatch, text):
        def run():
            cfg = parse_config_text(text)
            state = build_state(cfg)
            state = advance(state, validate_dt(cfg, state))
            arrays = (state.mf.m, state.emergent.b.values, state.emergent.e.values)
            return ledger_row(state), arrays

        (row, arrays), (ref_row, ref_arrays) = run(), one_slab(monkeypatch, run)
        assert np.array_equal(np.array(list(row.values())), np.array(list(ref_row.values())),
                              equal_nan=True)
        assert all(same_bits(a, b) for a, b in zip(arrays, ref_arrays))


class TestFailureInTheLastSlab:
    def test_nan_is_a_contract_violation(self, grid16, slab_nodes):
        values = random_unit_mf(grid16, 1).m.copy()
        values[0, -1, 0, 0] = np.nan
        with pytest.raises(ContractViolation, match="NaN or Inf"):
            MagnetizationField(grid16, values, H, ALPHA)

    def test_off_unit_norm_is_state_corruption(self, grid16, slab_nodes):
        values = random_unit_mf(grid16, 1).m.copy()
        values[:, 0, 0, 0] *= 1.0 + 5e-12  # within the 1e-12 tolerance
        values[:, -1, 0, 0] *= 1.0 + 1e-11
        with pytest.raises(StateCorruption, match=r"by 1\.000e-11"):
            MagnetizationField(grid16, values, H, ALPHA)

    def test_collapsed_m_star_names_the_global_minimum(self, grid16, slab_nodes, monkeypatch):
        collapsed = random_unit_mf(grid16, 1).m.copy()
        collapsed[:, 0, 0, 0] *= 0.3
        collapsed[:, -1, 0, 0] *= 0.1
        with pytest.raises(BlowUpError, match=r"\|m\*\| = 1\.000e-01 < 0\.5"):
            unit_normalize(collapsed, blow_up_floor=0.5)
        cfg = parse_config_text(HOPFION)
        state = build_state(cfg)
        monkeypatch.setattr(
            coupler, "step",
            lambda mf, j, dt, coeffs: mf.with_m(unit_normalize(collapsed, blow_up_floor=0.5)),
        )
        with pytest.raises(BlowUpError, match=r"^step 1 \[llg\]: renormalization .* 1\.000e-01"):
            advance(state, validate_dt(cfg, state))

    @pytest.mark.parametrize("text", [COUPLED, HOPFION], ids=["compute_e", "deferred"])
    def test_antipodal_motion(self, slab_nodes, monkeypatch, text):
        cfg = parse_config_text(text)
        state = build_state(cfg)
        dt = validate_dt(cfg, state)
        flipped = state.mf.m.copy()
        flipped[:, -1, 0, 0] *= -1.0
        mf_next = state.mf.with_m(flipped)
        call = compute_e if text == COUPLED else (
            lambda prev, nxt, dt: EmergentFieldPair.deferred(prev, nxt, dt, compute_b(nxt))
        )
        with pytest.raises(BlowUpError, match=r"= 0\.000e\+00 < 0\.5"):
            call(state.mf, mf_next, dt)
        monkeypatch.setattr(coupler, "step", lambda mf, j, dt, coeffs: mf_next)
        with pytest.raises(BlowUpError, match=r"^step 1 \[emergent\]: antipodal"):
            advance(state, dt)


class TestMemory:
    """Traced peaks at 32^3 in slabs of 2048 nodes, as multiples of one (3, N) field."""

    @staticmethod
    def peak(call) -> float:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak / (3 * 32**3 * 8)

    @pytest.fixture
    def mf32(self, monkeypatch):
        monkeypatch.setattr(grid, "_SLAB_NODES", 2048)
        mf = random_unit_mf(PeriodicGrid.cubic(32, BOX), 3)
        mf.gradient  # and the spectrum, as a step of a run finds them
        return mf

    def test_compute_b_peak_is_little_over_its_output(self, mf32):
        assert self.peak(lambda: compute_b(mf32)) < 1.25

    def test_step_peak(self, mf32):
        coeffs = LLCoefficients.from_alpha(ALPHA)
        assert self.peak(lambda: step(mf32, None, 1e-5, coeffs)) < 5.0
