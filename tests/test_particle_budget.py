"""Stencil and memory budget of the particle path.

The push and the deposit both run over contiguous slices of kinetic._CHUNK
particles, so each builds one CIC stencil per slice, none larger than a
slice.  The push's working memory beyond its two (3, n) outputs does not grow
with n, nor does the deposit's beyond its densities for an ensemble in
canonical order, as a simulation state keeps it: the deposit orders the
particles once and then adds each slice's terms to the nodes in that order.
A change that un-chunks the push or the deposit must update these counts
deliberately.
"""

import tracemalloc

import numpy as np
import pytest

from llgvm import PeriodicGrid, TwoStream, VectorField3, kinetic
from llgvm.kinetic import _CHUNK, canonical, deposit, lorentz_push, sample_initial

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


def _assert_one_stencil_per_chunk(sizes, n):
    assert len(sizes) == -(-n // _CHUNK)
    assert max(sizes) <= _CHUNK
    assert sum(sizes) == n


# whole multiples of the chunk, one over one, and a remainder
CHUNKED = [1, 4 * _CHUNK, 4 * _CHUNK + 1, 8 * _CHUNK + 3]


@pytest.mark.parametrize("n", CHUNKED)
def test_push_builds_one_stencil_per_chunk(monkeypatch, grid8, n):
    p = sample_initial(TwoStream(0.8, 0.3), n, 1, grid8)
    field = VectorField3.zeros(grid8)
    sizes = _stencil_sizes(monkeypatch, lambda: lorentz_push(p, field, field, 1e-2))
    _assert_one_stencil_per_chunk(sizes, n)


@pytest.mark.parametrize("n", CHUNKED)
def test_deposit_builds_one_stencil_per_chunk(monkeypatch, grid8, n):
    p = sample_initial(TwoStream(0.8, 0.3), n, 1, grid8)
    _assert_one_stencil_per_chunk(_stencil_sizes(monkeypatch, lambda: deposit(p, grid8)), n)


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


def test_deposit_working_memory_does_not_grow_with_n(grid8):
    working = {}
    for n in (1 << 16, 1 << 18):
        p = canonical(sample_initial(TwoStream(0.8, 0.3), n, 1, grid8))
        tracemalloc.start()
        try:
            rho, j = deposit(p, grid8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        working[n] = peak - rho.values.nbytes - j.values.nbytes
    assert working[1 << 18] <= 1.1 * working[1 << 16], working
