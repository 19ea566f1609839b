"""Versioned binary snapshots for fields and particle ensembles.

Layout (all header integers and floats little-endian, payload float64
little-endian, C order):

    magic     8 bytes  b"LLGVMF01" (format name + version)
    flags     1 byte   bit 0: payload endianness (0 = little)
    kind      1 byte   1 scalar field, 2 vector field, 3 magnetization, 4 ensemble
    name     16 bytes  UTF-8, NUL padded
    time      f8
    dims      3 x u4   grid node counts (ensemble: particle count, 0, 0)
    box       3 x f8   box lengths
    count     u8       payload float64 count
    crc       u4       CRC-32 of the payload bytes

Magnetization payloads carry (h, alpha) as two leading doubles so the state
round-trips bitwise.  Ensemble payloads are a record stream of
(x, y, z, vx, vy, vz, w) per particle.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, SnapshotError, StateCorruption
from .grid import PeriodicGrid, ScalarField, VectorField3
from .kinetic import ParticleEnsemble
from .magnetization import MagnetizationField

MAGIC = b"LLGVMF01"
_HEADER = struct.Struct("<8sBB16sd3I3dQI")

KIND_SCALAR = 1
KIND_VECTOR = 2
KIND_MAGNETIZATION = 3
KIND_ENSEMBLE = 4


@dataclass(frozen=True)
class Snapshot:
    name: str
    time: float
    payload: ScalarField | VectorField3 | MagnetizationField | ParticleEnsemble


def _payload(obj) -> tuple[int, tuple, tuple, tuple[np.ndarray, ...]]:
    """Kind, dims, box and the payload as C-contiguous little-endian parts, written in turn."""
    if isinstance(obj, ParticleEnsemble):
        rec = np.empty((obj.count, 7), dtype="<f8")  # one record per particle
        rec[:, 0:3] = obj.positions.T
        rec[:, 3:6] = obj.velocities.T
        rec[:, 6] = obj.weights
        return KIND_ENSEMBLE, (obj.count, 0, 0), (0.0, 0.0, 0.0), (rec,)
    if isinstance(obj, MagnetizationField):
        kind, parts = KIND_MAGNETIZATION, (np.array([obj.h_zeeman, obj.alpha]), obj.m)
    elif isinstance(obj, VectorField3):
        kind, parts = KIND_VECTOR, (obj.values,)
    elif isinstance(obj, ScalarField):
        kind, parts = KIND_SCALAR, (obj.values,)
    else:
        raise ContractViolation(f"cannot snapshot object of type {type(obj).__name__}")
    parts = tuple(np.ascontiguousarray(part, dtype="<f8") for part in parts)
    return kind, obj.grid.n_cells, obj.grid.box_length, parts


def write_snapshot(obj, path, name: str = "", time: float = 0.0) -> None:
    kind, dims, box, parts = _payload(obj)
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    name_bytes = name.encode("utf-8")[:16].ljust(16, b"\0")
    header = _HEADER.pack(
        MAGIC,
        0,
        kind,
        name_bytes,
        float(time),
        *[int(d) for d in dims],
        *[float(b) for b in box],
        sum(part.size for part in parts),
        crc & 0xFFFFFFFF,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for part in parts:
            fh.write(part)


def read_snapshot(path) -> Snapshot:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise SnapshotError(f"cannot read snapshot {path}: {err}") from err
    if len(raw) < _HEADER.size:
        raise SnapshotError(f"truncated snapshot {path}: no complete header")
    magic, flags, kind, name_b, time, d0, d1, d2, b0, b1, b2, count, crc = _HEADER.unpack(
        raw[: _HEADER.size]
    )
    if magic[:6] != MAGIC[:6]:
        raise SnapshotError(f"bad magic in {path}: {magic!r}")
    if magic != MAGIC:
        raise SnapshotError(
            f"version mismatch in {path}: file has {magic[6:].decode(errors='replace')},"
            f" reader expects {MAGIC[6:].decode()}"
        )
    if flags & 0x1:
        raise SnapshotError(f"unsupported payload endianness flag in {path}")
    # the header is outside the CRC: its dims must imply its payload count
    nodes = d0 * d1 * d2
    implied = {KIND_SCALAR: nodes, KIND_VECTOR: 3 * nodes, KIND_MAGNETIZATION: 2 + 3 * nodes,
               KIND_ENSEMBLE: 7 * d0}
    if kind not in implied:
        raise SnapshotError(f"unknown payload kind {kind} in {path}")
    if count != implied[kind]:
        raise SnapshotError(
            f"inconsistent header in {path}: dims {(d0, d1, d2)} of kind {kind}"
            f" imply {implied[kind]} doubles, the header counts {count}"
        )
    payload = raw[_HEADER.size :]
    if len(payload) != 8 * count:
        raise SnapshotError(
            f"truncated snapshot {path}: expected {8 * count} payload bytes, found {len(payload)}"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise SnapshotError(f"checksum mismatch in {path}: payload is corrupted")
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    name = name_b.rstrip(b"\0").decode("utf-8", errors="replace")
    try:
        grid = None if kind == KIND_ENSEMBLE else PeriodicGrid((d0, d1, d2), (b0, b1, b2))
    except ContractViolation as err:
        raise SnapshotError(f"invalid grid in header of {path}: {err}") from err
    try:  # the payload passed its CRC; its object's constructor runs the object's own checks
        if kind == KIND_ENSEMBLE:
            rec = data.reshape(d0, 7)
            obj = ParticleEnsemble(rec[:, 0:3].T, rec[:, 3:6].T, rec[:, 6])
        elif kind == KIND_SCALAR:
            obj = ScalarField(grid, data.reshape(grid.shape))
        elif kind == KIND_VECTOR:
            obj = VectorField3(grid, data.reshape(3, *grid.shape))
        else:
            obj = MagnetizationField(grid, data[2:].reshape(3, *grid.shape), data[0], data[1])
    except (ContractViolation, StateCorruption) as err:
        raise SnapshotError(f"invalid payload in {path}: {err}") from err
    return Snapshot(name, time, obj)
