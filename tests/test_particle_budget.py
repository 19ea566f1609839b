"""Stencil and memory budget of the particle path.

The push runs over contiguous slices of kinetic._PUSH_CHUNK particles, so it
builds one CIC stencil per slice, none larger than a slice, and its working
memory beyond the two (3, n) outputs does not grow with n.  The deposit keeps
one stencil over the whole ensemble, so each node's sum runs over all
particles in canonical order.  A change that un-chunks the push, or chunks the
deposit, must update these counts deliberately.
"""

import tracemalloc

import numpy as np
import pytest

from llgvm import PeriodicGrid, TwoStream, VectorField3, kinetic
from llgvm.kinetic import _PUSH_CHUNK, deposit, lorentz_push, sample_initial

from conftest import BOX, band_limited_vector


@pytest.fixture(scope="module")
def grid8():
    return PeriodicGrid.cubic(8, BOX)


def _stencil_sizes(monkeypatch, call):
    """The particle counts of the _cic_corners calls that call() makes."""
    cic_corners = kinetic._cic_corners
    sizes = []

    def counted(grid, positions):
        sizes.append(positions.shape[1])
        return cic_corners(grid, positions)

    with monkeypatch.context() as mp:
        mp.setattr(kinetic, "_cic_corners", counted)
        call()
    return sizes


@pytest.mark.parametrize("n", [1, _PUSH_CHUNK, _PUSH_CHUNK + 1, 2 * _PUSH_CHUNK + 3])
def test_push_builds_one_stencil_per_chunk(monkeypatch, grid8, n):
    p = sample_initial(TwoStream(0.8, 0.3), n, 1, grid8)
    field = VectorField3.zeros(grid8)
    sizes = _stencil_sizes(monkeypatch, lambda: lorentz_push(p, field, field, 1e-2))
    assert len(sizes) == -(-n // _PUSH_CHUNK)
    assert max(sizes) <= _PUSH_CHUNK
    assert sum(sizes) == n


def test_deposit_builds_one_stencil(monkeypatch, grid8):
    n = 2 * _PUSH_CHUNK + 3
    p = sample_initial(TwoStream(0.8, 0.3), n, 1, grid8)
    assert _stencil_sizes(monkeypatch, lambda: deposit(p, grid8)) == [n]


def test_push_working_memory_does_not_grow_with_n(grid8):
    efield = band_limited_vector(grid8, 3, k_cut=2, amplitude=0.3)
    bfield = band_limited_vector(grid8, 4, k_cut=2, amplitude=0.3)
    working = {}
    for n in (1 << 16, 1 << 18):
        p = sample_initial(TwoStream(0.8, 0.3), n, 1, grid8)
        tracemalloc.start()
        try:
            pushed = lorentz_push(p, efield, bfield, 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        working[n] = peak - pushed.positions.nbytes - pushed.velocities.nbytes
    assert working[1 << 18] <= 1.1 * working[1 << 16], working
