"""Flat key = value run configuration with full validation.

Sections are spelled with dotted keys (grid.n = 32).  Parsing is total:
every malformed entry is collected and reported together; unknown keys are
rejected so typos cannot silently fall back to defaults.  A parsed config
holds its derived defaults resolved: kinetic.seed, llg.stabilizer_c,
mollifier.epsilon, kinetic.f0.center and kinetic.f0.position read as a run
uses them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from .errors import ConfigError, ContractViolation
from .grid import PeriodicGrid
from .kinetic import F0_KINDS
from .magnetization import LLCoefficients
from .maxwell import EMMode
from .textures import TEXTURE_NAMES

log = logging.getLogger(__name__)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated numbers, got {text!r}")
    return tuple(_parse_float(p) for p in parts)


def _parse_modes(text: str) -> tuple[EMMode, ...]:
    """Modes are 'nx,ny,nz,amplitude[,polarization]' entries joined by ';'."""
    modes = []
    for chunk in filter(None, map(str.strip, text.split(";"))):
        parts = [p.strip() for p in chunk.split(",")]
        try:
            if len(parts) not in (4, 5):
                raise ValueError("expected nx,ny,nz,amplitude[,polarization]")
            n = (int(parts[0]), int(parts[1]), int(parts[2]))
            amp = _parse_float(parts[3])
            pol = int(parts[4]) if len(parts) == 5 else 0
            if n == (0, 0, 0):
                raise ValueError("zero wavevector")
            if pol not in (0, 1):
                raise ValueError("polarization must be 0 or 1")
        except ValueError as err:
            raise ValueError(f"bad em.init_modes entry {chunk!r}: {err}") from err
        modes.append(EMMode(n, amp, pol))
    return tuple(modes)


# key -> (converter, default); a None default is derived once the file is parsed.
SCHEMA = {
    "grid.n": (int, 32),
    "grid.nx": (int, None),
    "grid.ny": (int, None),
    "grid.nz": (int, None),
    "grid.box": (_parse_float, 16.0),
    "grid.lx": (_parse_float, None),
    "grid.ly": (_parse_float, None),
    "grid.lz": (_parse_float, None),
    "llg.alpha": (_parse_float, 0.1),
    "llg.h": (_parse_float, 0.5),
    "llg.stabilizer_c": (_parse_float, None),  # defaults to 2 lambda
    "llg.dt": (_parse_float, None),  # alias of run.dt
    "llg.initial": (str, "random_smooth"),
    "llg.init_radius": (_parse_float, None),
    "llg.init_amplitude": (_parse_float, 0.05),
    "llg.init_kcut": (int, 2),
    "em.eps_r": (_parse_float, 1.0),
    "em.mu_r": (_parse_float, 1.0),
    "em.init_modes": (_parse_modes, ()),
    "kinetic.n_particles": (int, 10000),
    "kinetic.seed": (int, None),  # defaults to run.seed
    "kinetic.f0.kind": (str, "bump_maxwellian"),
    "kinetic.f0.center": (_parse_triple, None),  # defaults to the box center
    "kinetic.f0.radius": (_parse_float, 1.6),
    "kinetic.f0.v_thermal": (_parse_float, 0.3),
    "kinetic.f0.mass": (_parse_float, 1.0),
    "kinetic.f0.drift": (_parse_float, 0.8),
    "kinetic.f0.position": (_parse_triple, None),  # defaults to kinetic.f0.center
    "kinetic.f0.velocity": (_parse_triple, (0.0, 0.0, 0.0)),
    "mollifier.epsilon": (_parse_float, None),  # defaults to 4 min(h)
    "run.dt": (_parse_float, 5e-5),
    "run.n_steps": (int, 200),
    "run.snapshot_every": (int, 0),
    "run.output_dir": (str, "out"),
    "run.seed": (int, 12345),
    "run.topology_diagnostics": (_parse_bool, True),
}


@dataclass
class RunConfig:
    values: dict
    warnings: list = field(default_factory=list)

    def __getitem__(self, key):
        return self.values[key]

    def _per_axis(self, prefix: str, fallback: str) -> tuple:
        """grid.<prefix>x, y, z, each falling back to grid.<fallback> where unset."""
        each = (self.values[f"grid.{prefix}{axis}"] for axis in "xyz")
        return tuple(self.values[f"grid.{fallback}"] if v is None else v for v in each)

    def grid_shape(self) -> tuple[int, int, int]:
        return self._per_axis("n", "n")

    def box_lengths(self) -> tuple[float, float, float]:
        return self._per_axis("l", "box")


def _range_checks(values: dict, errors: list[str], warnings: list[str]):
    def check(cond: bool, message: str):
        if not cond:
            errors.append(message)

    for key in ("grid.n", "grid.nx", "grid.ny", "grid.nz"):
        n = values[key]
        if n is None:
            continue
        if n < 4 or n % 2 != 0:
            errors.append(f"{key} = {n}: node counts must be even and >= 4")
    for key in ("grid.box", "grid.lx", "grid.ly", "grid.lz"):
        l = values[key]
        if l is not None:
            check(l > 0.0, f"{key} = {l}: box lengths must be positive")
    check(values["llg.alpha"] > 0.0, "llg.alpha must be positive")
    if values["llg.h"] <= 0.25:
        warnings.append(
            f"llg.h = {values['llg.h']} <= 1/4: the interaction energy is only"
            " H^2-coercive for h > 1/4; the run may be outside the well-posed regime"
        )
    if values["llg.initial"] not in TEXTURE_NAMES:
        errors.append(
            f"llg.initial = {values['llg.initial']!r}: choose one of {TEXTURE_NAMES}"
        )
    if values["llg.init_radius"] is not None:
        check(values["llg.init_radius"] > 0.0, "llg.init_radius must be positive")
    check(values["llg.init_kcut"] >= 1, "llg.init_kcut must be >= 1")
    check(values["em.eps_r"] >= 1.0, "em.eps_r must be >= 1")
    check(values["em.mu_r"] >= 1.0, "em.mu_r must be >= 1")
    check(values["kinetic.n_particles"] >= 0, "kinetic.n_particles must be >= 0")
    if values["kinetic.f0.kind"] not in F0_KINDS:
        errors.append(f"kinetic.f0.kind = {values['kinetic.f0.kind']!r}: choose one of {tuple(F0_KINDS)}")
    check(values["kinetic.f0.radius"] > 0.0, "kinetic.f0.radius must be positive")
    check(values["kinetic.f0.v_thermal"] >= 0.0, "kinetic.f0.v_thermal must be >= 0")
    check(values["kinetic.f0.mass"] >= 0.0, "kinetic.f0.mass must be >= 0")
    if values["mollifier.epsilon"] is not None:
        check(values["mollifier.epsilon"] > 0.0, "mollifier.epsilon must be positive")
    check(values["run.dt"] > 0.0, "run.dt must be positive")
    check(values["run.n_steps"] >= 0, "run.n_steps must be >= 0")
    check(values["run.snapshot_every"] >= 0, "run.snapshot_every must be >= 0")
    for key in ("run.seed", "kinetic.seed"):
        if values[key] is not None:
            check(values[key] >= 0, f"{key} = {values[key]}: seeds must be >= 0")


def parse_config_text(text: str, source: str = "<string>") -> RunConfig:
    errors: list[str] = []
    warnings: list[str] = []
    values = {key: default for key, (_, default) in SCHEMA.items()}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key not in SCHEMA:
            errors.append(f"{source}:{lineno}: unknown key {key!r}")
            continue
        if key in seen:
            errors.append(f"{source}:{lineno}: duplicate key {key!r}")
            continue
        seen.add(key)
        converter, _ = SCHEMA[key]
        try:
            values[key] = converter(rhs)
        except (ValueError, TypeError) as err:
            errors.append(f"{source}:{lineno}: bad value for {key}: {err}")
    # llg.dt is an alias for run.dt
    if values["llg.dt"] is not None:
        if "run.dt" in seen and values["llg.dt"] != values["run.dt"]:
            errors.append(
                f"llg.dt = {values['llg.dt']} conflicts with run.dt = {values['run.dt']}"
            )
        else:
            values["run.dt"] = values["llg.dt"]
    _range_checks(values, errors, warnings)
    if values["llg.alpha"] > 0.0:  # lambda and the rule c >= lambda live in LLCoefficients
        try:
            values["llg.stabilizer_c"] = LLCoefficients.from_alpha(
                values["llg.alpha"], values["llg.stabilizer_c"]
            ).stabilizer_c
        except ContractViolation as err:
            errors.append(f"llg.stabilizer_c: {err}")
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    cfg = RunConfig(values=values, warnings=warnings)
    grid = PeriodicGrid(cfg.grid_shape(), cfg.box_lengths())
    for key, derived in (
        ("kinetic.seed", values["run.seed"]),
        ("mollifier.epsilon", 4.0 * min(grid.spacing)),
        ("kinetic.f0.center", tuple(0.5 * l for l in grid.box_length)),
    ):
        if values[key] is None:
            values[key] = derived
    if values["kinetic.f0.position"] is None:
        values["kinetic.f0.position"] = values["kinetic.f0.center"]
    for msg in warnings:
        log.warning("%s", msg)
    return cfg


def parse_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read configuration file {path}: {err}") from err
    return parse_config_text(text, source=str(path))


def default_config() -> RunConfig:
    return parse_config_text("")
