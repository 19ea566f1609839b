import zlib

import numpy as np
import pytest

from llgvm import PeriodicGrid, VectorField3, grid
from llgvm.magnetization import MagnetizationField
from llgvm.snapshots import _HEADER
from llgvm.textures import random_smooth_unit

BOX = 16.0


@pytest.fixture(scope="session")
def grid16():
    return PeriodicGrid.cubic(16, BOX)


@pytest.fixture(scope="session")
def grid32():
    return PeriodicGrid.cubic(32, BOX)


@pytest.fixture(params=[1, 1500, 1 << 40], ids=["plane", "uneven", "single"])
def slab_nodes(request, monkeypatch):
    """grid._SLAB_NODES set to give one x-plane per slab, an uneven split (16^3, 24^3 and
    32^3 split into 3, 9 and 22 slabs), or a single slab."""
    monkeypatch.setattr(grid, "_SLAB_NODES", request.param)
    return request.param


def band_limited_vector(grid, seed, k_cut=3, amplitude=1.0):
    """Random real vector field with modes |n_i| <= k_cut only."""
    rng = np.random.default_rng(seed)
    spec = np.fft.fftn(rng.standard_normal((3, *grid.shape)), axes=(-3, -2, -1))
    for axis, n in enumerate(grid.n_cells):
        idx = np.abs(np.fft.fftfreq(n) * n)
        shape = [1, 1, 1]
        shape[axis] = n
        spec *= (idx <= k_cut).reshape(shape)
    vals = np.fft.ifftn(spec, axes=(-3, -2, -1)).real
    vals *= amplitude / np.sqrt(np.mean(vals**2))
    return VectorField3(grid, vals)


def band_limited_scalar(grid, seed, k_cut=3, amplitude=1.0):
    return band_limited_vector(grid, seed, k_cut, amplitude).component(0)


def random_unit_mf(grid, seed, amplitude=0.05, k_cut=1, h=0.5, alpha=0.1):
    return MagnetizationField(grid, random_smooth_unit(grid, seed, amplitude, k_cut), h, alpha)


def checkerboard(grid):
    """m = (0, 0, (-1)^(i+j)): every plaquette of every z-slice is degenerate."""
    i, j = np.indices(grid.shape)[:2]
    vals = np.zeros((3, *grid.shape))
    vals[2] = (-1.0) ** (i + j)
    return vals


def rewrite_snapshot_header(src, dst, dims=None, box=None):
    """Copy a snapshot with new header dims and/or box lengths; the CRC covers only the payload."""
    raw = src.read_bytes()
    header = list(_HEADER.unpack(raw[: _HEADER.size]))
    if dims is not None:
        header[5:8] = dims
    if box is not None:
        header[8:11] = box
    dst.write_bytes(_HEADER.pack(*header) + raw[_HEADER.size :])


def rewrite_snapshot_payload(path, index, value):
    """Set one payload double of a snapshot in place and recompute the header's CRC."""
    raw = path.read_bytes()
    header = list(_HEADER.unpack(raw[: _HEADER.size]))
    data = np.frombuffer(raw[_HEADER.size :], dtype="<f8").copy()
    data[index] = value
    payload = data.tobytes()
    header[-1] = zlib.crc32(payload) & 0xFFFFFFFF
    path.write_bytes(_HEADER.pack(*header) + payload)


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||_2 / ||b||_2 over raw arrays."""
    return float(np.sqrt(np.sum((a - b) ** 2) / np.sum(b**2)))
