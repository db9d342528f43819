"""Flat key = value run configuration.

One assignment per line, ``#`` starts a comment, keys are fixed in
advance. Parsing is strict: unknown keys, malformed values, and
parameter combinations outside the admissible regime are all rejected
with the offending key and line number, so a bad sweep fails before any
work is done. ``serialize_config`` and ``parse_config`` round-trip.

Sweep files reuse the same grammar and add ``sweep.<key> = v1, v2, ...``
lines; every other line seeds the base configuration shared by all
cells.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from typing import get_type_hints

from .bounds import fmt
from .dynamics import DEFAULT_THRESHOLDS, StepControls
from .errors import ConfigError
from .functionals import ModelParams
from .mesh import Grid, make_grid
from .scenarios import PRESET_NAMES

__all__ = [
    "RunConfig",
    "SweepConfig",
    "parse_config",
    "parse_sweep_config",
    "serialize_config",
]

MAX_SWEEP_CELLS = 10_000


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one simulation run."""

    dim: int = 1
    N: int = 128
    extent: float = 1.0
    p: float = 3.0
    r: float = 2.0
    gamma: float = 0.5
    beta: float = 1.0
    preset: str = "negative_energy"
    amplitude: float = 1.0
    energy_R: float = 1.0
    seed: int = 0
    dt_max: float = 1e-3
    dt_min: float | None = None  # StepControls resolves it to 1e-12 * dt_max
    t_max: float = 10.0
    blow_threshold: float = 1e9
    output_every: int = 1
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    mu: float = 1.0
    alpha_override: float | None = None
    eps_override: float | None = None
    M_safety: float = 2.0

    def model_params(self) -> ModelParams:
        return ModelParams(p=self.p, r=self.r, gamma=self.gamma,
                           beta=self.beta, dim=self.dim)

    def grid(self) -> Grid:
        return make_grid(self.dim, self.N, self.extent)

    def step_controls(self) -> StepControls:
        return StepControls(dt_max=self.dt_max, dt_min=self.dt_min)


@dataclass(frozen=True)
class SweepConfig:
    """Base run plus named axes expanded as a cartesian product."""

    base: RunConfig = field(default_factory=RunConfig)
    axes: dict[str, tuple] = field(default_factory=dict)

    def cells(self) -> list[RunConfig]:
        """All configurations in the product, axes in sorted key order."""
        keys = sorted(self.axes)
        total = 1
        for k in keys:
            total *= len(self.axes[k])
        if total > MAX_SWEEP_CELLS:
            raise ConfigError(
                f"sweep product has {total} cells, cap is {MAX_SWEEP_CELLS}")
        out = []
        for combo in itertools.product(*(self.axes[k] for k in keys)):
            out.append(replace(self.base, **dict(zip(keys, combo))))
        return out


# parsing ------------------------------------------------------------------

def _parse_int(text: str) -> int:
    value = int(text)
    if str(value) != text.strip():
        raise ValueError(text)
    return value


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _parse_optional_float(text: str) -> float | None:
    if text.strip().lower() in ("none", ""):
        return None
    return _parse_float(text)


def _parse_list(text: str, parse: Callable) -> tuple:
    """A non-empty comma-separated list, each element read by parse."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError(text)
    return tuple(parse(p) for p in parts)


_PARSERS_BY_TYPE = {
    int: _parse_int,
    float: _parse_float,
    float | None: _parse_optional_float,
    str: str,
    tuple[float, ...]: lambda text: _parse_list(text, _parse_float),
}

_PARSERS = {name: _PARSERS_BY_TYPE[kind]
            for name, kind in get_type_hints(RunConfig).items()}


def _validate(cfg: RunConfig) -> None:
    """Reject configurations outside the admissible regime.

    The model, grid and step-control rules are those of the objects a
    run builds from the configuration; the rest are checked here."""
    def bad(msg: str) -> None:
        raise ConfigError(msg)

    try:
        cfg.model_params()
        cfg.grid()
        cfg.step_controls()
    except ValueError as exc:
        bad(str(exc))
    if cfg.seed < 0:
        bad(f"seed must be non-negative, got {cfg.seed}")
    if cfg.preset not in PRESET_NAMES:
        bad(f"unknown preset {cfg.preset!r}, choose from {PRESET_NAMES}")
    if not cfg.t_max > 0:
        bad(f"t_max must be positive, got {cfg.t_max}")
    if not cfg.blow_threshold > 0:
        bad(f"blow_threshold must be positive, got {cfg.blow_threshold}")
    if cfg.output_every < 1:
        bad(f"output_every must be at least 1, got {cfg.output_every}")
    if len(cfg.thresholds) < 3:
        bad("thresholds needs at least 3 values")
    if any(t <= 0 for t in cfg.thresholds):
        bad("thresholds must be positive")
    if any(a >= b for a, b in zip(cfg.thresholds, cfg.thresholds[1:])):
        bad("thresholds must be strictly increasing")
    # ||u||_{p+1} <= |Omega|^(1/(p+1)) max|u|, and the run stops once
    # max|u| reaches blow_threshold: only an overshooting last step
    # could cross a threshold above that reach
    reach = cfg.blow_threshold * cfg.grid().volume**(1.0 / (cfg.p + 1.0))
    if cfg.thresholds[-1] > reach:
        bad(f"top threshold {fmt(cfg.thresholds[-1])} lies beyond the "
            f"run's reach: ||u||_(p+1) <= |Omega|^(1/(p+1)) blow_threshold "
            f"= {fmt(reach)}")
    if not cfg.mu > 0:
        bad(f"mu must be positive, got {cfg.mu}")
    if not cfg.M_safety > 1:
        bad(f"M_safety must exceed 1, got {cfg.M_safety}")
    if cfg.alpha_override is not None and not cfg.alpha_override > 0:
        bad(f"alpha_override must be positive, got {cfg.alpha_override}")
    if cfg.eps_override is not None and not cfg.eps_override > 0:
        bad(f"eps_override must be positive, got {cfg.eps_override}")


def _assignments(text: str):
    """Yield (lineno, key, raw value) for every assignment line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        yield lineno, key.strip(), value.strip()


def _parse_items(items) -> RunConfig:
    overrides = {}
    for lineno, key, value in items:
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in overrides:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            overrides[key] = _PARSERS[key](value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: bad value {value!r} for key {key!r}") from None
    cfg = RunConfig(**overrides)
    _validate(cfg)
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse a flat run configuration, rejecting sweep axes."""
    for lineno, key, _ in _assignments(text):
        if key.startswith("sweep."):
            raise ConfigError(
                f"line {lineno}: sweep axes ({key!r}) need the sweep command")
    return _parse_items(_assignments(text))


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse a sweep configuration: base keys plus sweep.<key> axes."""
    base_items = []
    axes: dict[str, tuple] = {}
    for lineno, key, value in _assignments(text):
        if not key.startswith("sweep."):
            base_items.append((lineno, key, value))
            continue
        name = key[len("sweep."):]
        if name not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown sweep key {name!r}")
        if name in axes:
            raise ConfigError(f"line {lineno}: duplicate sweep key {name!r}")
        if name == "thresholds":
            raise ConfigError(f"line {lineno}: thresholds cannot be swept")
        try:
            axes[name] = _parse_list(value, _PARSERS[name])
        except ValueError:
            raise ConfigError(
                f"line {lineno}: bad value {value!r} for sweep key {name!r}") from None
    base = _parse_items(base_items)
    sweep = SweepConfig(base=base, axes=axes)
    for cell in sweep.cells():
        _validate(cell)
    return sweep


# serialization ------------------------------------------------------------

def serialize_config(cfg: RunConfig) -> str:
    """Render a configuration so that parse_config recovers it exactly."""
    lines = [f"{f.name} = {fmt(getattr(cfg, f.name))}"
             for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"
