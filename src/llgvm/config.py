"""Flat key = value run configuration with full validation.

Sections are spelled with dotted keys (grid.n = 32).  Each key has one
SCHEMA row: its converter, its default and its range rule.  Parsing is
total: every malformed entry is collected and reported together, range
errors in SCHEMA order; unknown keys are rejected so typos cannot silently
fall back to defaults.  A given seed (llgvm run --seed) sets run.seed and
kinetic.seed before the range rules run, so a negative one is reported with
the file's errors.  Two rules live outside the rows: the llg.h <= 1/4
warning, and c >= lambda for llg.stabilizer_c, which LLCoefficients owns.
A parsed config holds its derived defaults resolved: kinetic.seed,
llg.stabilizer_c, mollifier.epsilon, kinetic.f0.center and
kinetic.f0.position read as a run uses them.
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


# A range rule is (test, message): a parsed value that fails the test gives the
# error message.format(key=key, value=value).
_POSITIVE = (lambda v: v > 0.0, "{key} must be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "{key} must be >= 0")
_AT_LEAST_ONE = (lambda v: v >= 1, "{key} must be >= 1")
_EVEN_NODES = (lambda n: n >= 4 and n % 2 == 0, "{key} = {value}: node counts must be even and >= 4")
_LENGTH = (_POSITIVE[0], "{key} = {value}: box lengths must be positive")
_SEED = (_NON_NEGATIVE[0], "{key} = {value}: seeds must be >= 0")


def _one_of(names) -> tuple:
    return (lambda v: v in names, f"{{key}} = {{value!r}}: choose one of {tuple(names)}")


# key -> (converter, default, range rule); a None default is derived once the
# file is parsed, and a None value skips the rule.
SCHEMA = {
    "grid.n": (int, 32, _EVEN_NODES),
    "grid.nx": (int, None, _EVEN_NODES),
    "grid.ny": (int, None, _EVEN_NODES),
    "grid.nz": (int, None, _EVEN_NODES),
    "grid.box": (_parse_float, 16.0, _LENGTH),
    "grid.lx": (_parse_float, None, _LENGTH),
    "grid.ly": (_parse_float, None, _LENGTH),
    "grid.lz": (_parse_float, None, _LENGTH),
    "llg.alpha": (_parse_float, 0.1, _POSITIVE),
    "llg.h": (_parse_float, 0.5, None),
    "llg.stabilizer_c": (_parse_float, None, None),  # defaults to 2 lambda
    "llg.dt": (_parse_float, None, None),  # alias of run.dt
    "llg.initial": (str, "random_smooth", _one_of(TEXTURE_NAMES)),
    "llg.init_radius": (_parse_float, None, _POSITIVE),
    "llg.init_amplitude": (_parse_float, 0.05, None),
    "llg.init_kcut": (int, 2, _AT_LEAST_ONE),
    "em.eps_r": (_parse_float, 1.0, _AT_LEAST_ONE),
    "em.mu_r": (_parse_float, 1.0, _AT_LEAST_ONE),
    "em.init_modes": (_parse_modes, (), None),
    "kinetic.n_particles": (int, 10000, _NON_NEGATIVE),
    "kinetic.seed": (int, None, _SEED),  # defaults to run.seed
    "kinetic.f0.kind": (str, "bump_maxwellian", _one_of(F0_KINDS)),
    "kinetic.f0.center": (_parse_triple, None, None),  # defaults to the box center
    "kinetic.f0.radius": (_parse_float, 1.6, _POSITIVE),
    "kinetic.f0.v_thermal": (_parse_float, 0.3, _NON_NEGATIVE),
    "kinetic.f0.mass": (_parse_float, 1.0, _NON_NEGATIVE),
    "kinetic.f0.drift": (_parse_float, 0.8, None),
    "kinetic.f0.position": (_parse_triple, None, None),  # defaults to kinetic.f0.center
    "kinetic.f0.velocity": (_parse_triple, (0.0, 0.0, 0.0), None),
    "mollifier.epsilon": (_parse_float, None, _POSITIVE),  # defaults to 4 min(h)
    "run.dt": (_parse_float, 5e-5, _POSITIVE),
    "run.n_steps": (int, 200, _NON_NEGATIVE),
    "run.snapshot_every": (int, 0, _NON_NEGATIVE),
    "run.output_dir": (str, "out", None),
    "run.seed": (int, 12345, _SEED),
    "run.topology_diagnostics": (_parse_bool, True, None),
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


def parse_config_text(text: str, source: str = "<string>", seed: int | None = None) -> RunConfig:
    errors: list[str] = []
    warnings: list[str] = []
    values = {key: default for key, (_, default, _) in SCHEMA.items()}
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
        converter = SCHEMA[key][0]
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
    if seed is not None:
        values["run.seed"] = values["kinetic.seed"] = seed
    for key, (_, _, rule) in SCHEMA.items():
        if rule is not None and values[key] is not None and not rule[0](values[key]):
            errors.append(rule[1].format(key=key, value=values[key]))
    if values["llg.h"] <= 0.25:
        warnings.append(
            f"llg.h = {values['llg.h']} <= 1/4: the interaction energy is only"
            " H^2-coercive for h > 1/4; the run may be outside the well-posed regime"
        )
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


def parse_config(path, seed: int | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read configuration file {path}: {err}") from err
    return parse_config_text(text, source=str(path), seed=seed)


def default_config() -> RunConfig:
    return parse_config_text("")
