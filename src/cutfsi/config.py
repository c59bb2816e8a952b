"""Simulation configuration: defaults, validation and the flat file format.

A ``SimulationConfig`` is immutable and validates itself when it is built,
so every config that exists, however it was made (constructor, ``replace``,
``parse_config``), has passed ``validate``: among others, T/k is a finite,
whole number of steps.

Config files are plain text, one ``key = value`` per line, ``#`` comments.
Unknown keys are rejected with the offending line number, a key given
twice with both line numbers, a file that cannot be read or decoded with
its path and the reason.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from dataclasses import dataclass
from typing import ClassVar


class ConfigError(ValueError):
    """Invalid configuration or run input."""


@dataclass(frozen=True)
class SimulationConfig:
    """All physical, stabilization, discretization and run parameters."""

    m_f: ClassVar[int] = 2   # fluid order (Taylor-Hood Q2/Q1), not settable

    rho_f: float = 1.0       # fluid density [kg/m^3]
    rho_s: float = 1.0       # solid density [kg/m^3]
    nu_f: float = 1e-3       # kinematic viscosity [m^2/s]
    mu_s: float = 5e-3       # second Lame parameter, the shear modulus [Pa]
    lambda_s: float = 1e-2   # first Lame parameter [Pa]
    gamma_vf: float = 1e-3   # ghost penalty, fluid velocity
    gamma_p: float = 1e-3    # ghost penalty, pressure
    gamma_vs: float = 1e-3   # ghost penalty, solid velocity
    gamma_u: float = 1e-3    # ghost penalty, displacement
    gamma_N: float = 1e2     # Nitsche penalty
    w_max: float = 1.0       # cut-fraction weight bound (1 = unweighted)
    m_s: int = 1             # solid order (equal-order Q_ms)
    n: int = 8               # cells per side, h = 2/n
    k: float = 1.0           # time step [s]
    T: float = 8.0           # final time [s]; not fixed by the benchmark
    radius_squared: float = 0.75  # interface circle, |x|^2 = radius_squared
    peak_inflow: float = 0.2      # lid speed [m/s]
    ramp_time: float = 2.0        # inflow ramp duration [s]

    def __post_init__(self) -> None:
        self.validate()

    @property
    def h(self) -> float:
        return 2.0 / self.n

    def validate(self) -> None:
        positive = ["rho_f", "rho_s", "nu_f", "mu_s", "lambda_s", "gamma_vf",
                    "gamma_p", "gamma_vs", "gamma_u", "gamma_N",
                    "radius_squared", "k", "T", "ramp_time"]
        for name in positive:
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite, "
                                  f"got {getattr(self, name)}")
        # the viscous and Nitsche forms scale by these products, and
        # Analyzer.energy divides by the second
        for names in (("rho_f", "nu_f"), ("rho_f", "nu_f", "gamma_N")):
            values = [getattr(self, name) for name in names]
            if not sys.float_info.min <= math.prod(values) < math.inf:
                raise ConfigError(f"{' * '.join(names)} = {' * '.join(map(str, values))} "
                                  "is not a normal float")
        if self.radius_squared >= 1.0:
            raise ConfigError("radius_squared must be < 1 so that the circle lies inside "
                              f"the cavity (-1, 1)^2, got {self.radius_squared}")
        for name in ("peak_inflow", "w_max"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.w_max < 1.0:
            raise ConfigError(f"w_max must be >= 1, got {self.w_max}")
        for name in ("n", "m_s"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.m_s not in (1, 2):
            raise ConfigError(f"m_s must be 1 or 2, got {self.m_s}")
        if self.n < 2:
            raise ConfigError(f"n must be >= 2, got {self.n}")
        if self.n > sys.float_info.max:  # 2.0 / n would overflow
            raise ConfigError(f"n must be at most {sys.float_info.max:g} so that h = 2/n is "
                              f"a positive float, got a {self.n.bit_length()}-bit integer")
        n_steps = self.T / self.k
        if not math.isfinite(n_steps):
            raise ConfigError(f"T = {self.T} over k = {self.k} overflows the step count")
        if abs(n_steps - round(n_steps)) > 1e-9:
            raise ConfigError(f"T = {self.T} is not an integer multiple of k = {self.k}")
        if self.n_steps < 1:
            raise ConfigError(f"T = {self.T} is shorter than one time step k = {self.k}")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.k))

    def replace(self, **kw) -> "SimulationConfig":
        return dataclasses.replace(self, **kw)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(SimulationConfig)}


def parse_config(path: str | None = None, overrides: dict | None = None) -> SimulationConfig:
    """Read a flat key = value file (may be None; UTF-8, a leading
    byte-order mark dropped) plus inline overrides."""
    values: dict = {}
    seen: dict = {}  # line number of each key of the file
    if path is not None:
        try:
            with open(path, encoding="utf-8-sig") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc  # the OS reason, or the decode error
            raise ConfigError(f"cannot read config file {path}: {reason}") from exc
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in seen:
                raise ConfigError(f"{path}:{lineno}: {key} is already set on line "
                                  f"{seen[key]}")
            seen[key] = lineno
            try:
                values[key] = _convert(key, val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {key} = {val!r}: {exc}") from exc
    for key, val in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            values[key] = _convert(key, val) if isinstance(val, str) else val
        except ValueError as exc:
            raise ConfigError(f"{key} = {val!r}: {exc}") from exc
    return SimulationConfig(**values)


def _convert(key: str, val: str):
    kind = _FIELD_TYPES[key]
    if kind in (int, "int"):
        return int(val)
    return float(val)


def format_config(cfg: SimulationConfig) -> str:
    """Render the fully resolved configuration as flat key = value lines."""
    return "\n".join(f"{k} = {v}" for k, v in cfg.as_dict().items())
