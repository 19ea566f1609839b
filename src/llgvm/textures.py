"""Initial magnetization textures on the periodic box.

Localized textures use a C-infinity plateau profile that equals e3 exactly
outside a compact core; the final band-limiting pass leaves the periodic
seam within filter-leakage (well below 1e-6) of e3.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .grid import PeriodicGrid, _filter
from .magnetization import MagnetizationField, unit_normalize

TEXTURE_NAMES = ("uniform", "skyrmion_tube", "hopfion", "random_smooth")


def smoothstep_flat(s: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for s <= 0, 1 for s >= 1, flat to all orders at both ends."""
    s = np.clip(s, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(s > 0.0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
        b = np.where(s < 1.0, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
    return a / (a + b)


def uniform_texture(grid: PeriodicGrid) -> np.ndarray:
    out = np.zeros((3, *grid.shape))
    out[2] = 1.0
    return out


def _radial_profile(grid: PeriodicGrid, radius: float | None, n_axes: int, default_fraction: float, name: str):
    """The angle pi * (1 - S(r/R)) and the radial unit vector (0 at r = 0).

    r is the distance from the box centre over the first n_axes axes, and the
    unit vector has those n_axes components.  With L the shortest box length
    over those axes, R defaults to default_fraction * L and must lie in (0, L/2].
    """
    lmin = min(grid.box_length[:n_axes])
    if radius is None:
        radius = default_fraction * lmin
    if not 0.0 < radius <= 0.5 * lmin:
        raise ConfigError(f"{name} radius {radius} does not fit in the box")
    d = [x - 0.5 * l for x, l in zip(grid.node_mesh[:n_axes], grid.box_length)]
    r = np.sqrt(sum(di**2 for di in d))
    safe_r = np.where(r > 0.0, r, 1.0)
    unit = [np.where(r > 0.0, di / safe_r, 0.0) for di in d]
    return np.pi * (1.0 - smoothstep_flat(r / radius)), unit


def skyrmion_tube(grid: PeriodicGrid, radius: float | None = None) -> np.ndarray:
    """Planar axisymmetric skyrmion (degree -1 per slice) extended along z.

    The polar profile theta(r) = pi * (1 - S(r/R)) runs from pi at the tube
    axis to exactly 0 for r >= R.
    """
    theta, (nx, ny) = _radial_profile(grid, radius, 2, 0.3, "skyrmion")
    sin_t = np.sin(theta)
    out = np.empty((3, *grid.shape))
    out[0] = sin_t * nx
    out[1] = sin_t * ny
    out[2] = np.cos(theta)
    return band_limit_unit(unit_normalize(out), grid)


def band_limit_unit(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Gaussian low-pass + renormalize, two passes.

    Textures built from radial profiles carry weak spectral tails near the
    Nyquist band; products of their derivatives then alias.  A Gaussian
    filter has a non-oscillating, rapidly decaying spatial kernel, so it
    suppresses the tail without disturbing localization, and renormalizing
    restores the unit sphere (each pass shrinks the correction
    quadratically).  The filter's width is 0.45 of the smallest per-axis
    Nyquist wavenumber.
    """
    k_nyq = min(np.pi * n / l for n, l in zip(grid.n_cells, grid.box_length))
    filt = np.exp(-grid.k_squared / (0.45 * k_nyq) ** 2)
    out = values
    for _ in range(2):
        out = unit_normalize(_filter(out, filt))
    return out


def hopfion(grid: PeriodicGrid, radius: float | None = None) -> np.ndarray:
    """Unit-Hopf-charge texture: compactification of the box onto S^3 composed
    with the Hopf fibration.

    The profile xi(r) = pi * (1 - S(r/R)) winds the radial direction once
    around S^3; outside r = R the field is exactly e3.  The sampled field is
    band-limited (see band_limit_unit) so the emergent magnetic field is
    solenoidal to curl-inversion tolerance on the sampling grid.
    """
    xi, (nx, ny, nz) = _radial_profile(grid, radius, 3, 0.375, "hopfion")
    sin_xi = np.sin(xi)
    # Point on S^3 as a pair of complex numbers, then the Hopf map to S^2.
    z1 = np.cos(xi) - 1j * (sin_xi * nz)
    z2 = (sin_xi * nx) + 1j * (sin_xi * ny)
    w = 2.0 * np.conj(z1) * z2
    out = np.empty((3, *grid.shape))
    out[0] = w.real
    out[1] = w.imag
    out[2] = np.abs(z1) ** 2 - np.abs(z2) ** 2
    return band_limit_unit(unit_normalize(out), grid)


def random_smooth_unit(
    grid: PeriodicGrid, seed: int, amplitude: float = 0.05, k_cut: int = 2
) -> np.ndarray:
    """Seeded band-limited random unit field close to e3.

    The perturbation keeps only Fourier modes with every index |n_i| <= k_cut,
    so products of derivatives stay essentially alias-free on the grid.
    """
    rng = np.random.default_rng(seed)
    white = rng.standard_normal((3, *grid.shape))
    u = _filter(white, grid.box_mask((k_cut,) * 3))
    rms = np.sqrt(np.mean(u**2, axis=(1, 2, 3), keepdims=True))
    u /= np.maximum(rms, 1e-300)
    return unit_normalize(uniform_texture(grid) + amplitude * u)


def mirror_z(values: np.ndarray) -> np.ndarray:
    """Pull back a field by the spatial reflection z -> -z (mod L).

    Node k maps to node (N - k) mod N, so node 0 is fixed and the texture is
    reflected about the z = 0 plane.  This reverses the orientation of the
    domain and hence the sign of the Hopf invariant.
    """
    n = values.shape[-1]
    idx = (n - np.arange(n)) % n
    return np.take(values, idx, axis=-1)


def make_texture(
    name: str,
    grid: PeriodicGrid,
    h_zeeman: float,
    alpha: float,
    *,
    radius: float | None = None,
    seed: int = 0,
    amplitude: float = 0.05,
    k_cut: int = 2,
) -> MagnetizationField:
    if name == "uniform":
        vals = uniform_texture(grid)
    elif name == "skyrmion_tube":
        vals = skyrmion_tube(grid, radius)
    elif name == "hopfion":
        vals = hopfion(grid, radius)
    elif name == "random_smooth":
        vals = random_smooth_unit(grid, seed, amplitude, k_cut)
    else:
        raise ConfigError(f"unknown initial texture {name!r}; choose from {TEXTURE_NAMES}")
    return MagnetizationField(grid, vals, h_zeeman, alpha)
