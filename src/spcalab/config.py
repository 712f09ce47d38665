"""Every config fact: a study's settings, keys, value types, presets and echo.

Each ``ConfigKey`` is a ``key=value`` line and a flag; its ``ValueType`` parses a string
and checks a library caller's value.  ``experiment``, ``figures`` and ``cli`` build on it.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

from . import theory
from ._files import cell, replace_text
from .estimators import RSPCA_MAX_ITER, _check_max_iter
from .exceptions import ConfigError, DomainError, _check_integers, _check_real
from .metrics import DEFAULT_LAMBDA_MIN, DEFAULT_LAMBDA_POINTS, _check_grid_settings
from .model import SpikedSpec, _check_seed
from .penalties import DEFAULT_SCAD_A, FAMILIES, PenaltySpec

DEFAULT_SEED = 20260809

#: The default (alpha, beta) grid of the phase-diagram study.
PAPER_PAIRS: tuple[tuple[float, float], ...] = tuple(
    (a, b) for a in (0.2, 0.4, 0.6, 0.8) for b in (0.0, 0.1, 0.3, 0.5, 0.7)
)

PROFILES = {
    "paper": {"d": 10000, "replications": 100},
    "desk": {"d": 2000, "replications": 50},
}

#: The estimators a study can run; ``--method`` takes a comma list of them.
METHODS = ("pca", "st", "rspca", "oracle")


@dataclass(frozen=True)
class ExperimentConfig:
    """A study's settings, checked when built: invalid values raise ``ConfigError``."""

    pairs: tuple[tuple[float, float], ...] = ((0.6, 0.1),)
    d: int = 10000
    n: int = 25
    replications: int = 100
    methods: tuple[str, ...] = ("pca", "st", "rspca")
    penalty: str = "hard"
    scad_a: float = DEFAULT_SCAD_A
    lambda_min: float = DEFAULT_LAMBDA_MIN
    lambda_max: float | None = None
    lambda_points: int = DEFAULT_LAMBDA_POINTS
    bic: bool = True
    sweep: bool = False
    base_seed: int = DEFAULT_SEED
    output_dir: Path | None = None
    threads: int = 1
    timing: bool = False
    max_iter: int = RSPCA_MAX_ITER
    delta: float = 1.0
    gamma: float | None = None

    def __post_init__(self):
        # Each field is stored through its key's ValueType (a None default allows None),
        # so a config that compares equal hashes and writes the same bytes.
        for f in fields(self):
            value, key = getattr(self, f.name), _FIELD_KEYS[f.name]
            if value is not None or f.default is not None:
                object.__setattr__(self, f.name, key.type.check(key.name, value))
        self.validate()

    def validate(self) -> None:
        """ConfigError for a bad value.

        The seed, iteration cap, grid, penalty, model and range check their own.
        """
        if not self.pairs:
            raise ConfigError("at least one (alpha, beta) pair is required")
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        if not self.methods:
            raise ConfigError("at least one method is required")
        for i, m in enumerate(self.methods):
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; expected subset of {METHODS}")
            if m in self.methods[:i]:
                raise ConfigError(f"method {m!r} is listed twice")
            if m in ("st", "rspca") and not (self.bic or self.sweep):
                raise ConfigError(f"method {m!r} writes no rows with bic and sweep both off")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.threads > 1 and not hasattr(os, "fork"):
            raise ConfigError("threads > 1 needs os.fork, which this platform lacks")
        # Figure file names print each pair with :g, so two pairs that print
        # alike would overwrite each other's figures.
        labels: dict[str, tuple[float, float]] = {}
        try:
            _check_seed(self.base_seed)
            _check_max_iter(self.max_iter)
            _check_grid_settings(self.lambda_min, self.lambda_max, self.lambda_points)
            PenaltySpec(self.penalty, 0.0, self.scad_a)
            theory._check_range_settings(self.d, self.delta, self.gamma)
            for a, b in self.pairs:
                SpikedSpec(self.d, self.n, a, b)
                label = f"{a:g}:{b:g}"
                if label in labels:
                    raise ConfigError(f"pairs {labels[label]} and {(a, b)} share the label {label}")
                labels[label] = (a, b)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc


def _integer(v) -> int:
    if not (isinstance(v, float) and v.is_integer()):
        _check_integers(value=v)
    return int(v)


def _real(v) -> float:
    _check_real(value=v)
    return float(v)


def _instance(cls) -> Callable[[object], object]:
    def store(v):
        if not isinstance(v, cls):
            raise TypeError(f"not a {cls.__name__}")
        return v
    return store


def _names(v) -> tuple[str, ...]:
    if isinstance(v, str):
        raise TypeError("one string is not a sequence of names")
    return tuple(map(_instance(str), v))


def _pairs(v) -> tuple[tuple[float, float], ...]:
    return tuple((_real(a), _real(b)) for a, b in v)  # a pair of another length: ValueError


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError("expected true or false")


def _parse_list(value: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in value.split(",") if m.strip())


def _parse_pairs(value: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for item in _parse_list(value):
        if ":" not in item:
            raise ValueError(f"invalid pair {item!r}; expected alpha:beta")
        a, _, b = item.partition(":")
        pairs.append((float(a), float(b)))
    return tuple(pairs)


class ValueType(NamedTuple):
    """What a key's value must be (``what``), how a string is read, how a value is kept."""

    what: str
    parse: Callable[[str], object]
    store: Callable[[object], object]

    def check(self, name: str, value, error: type[Exception] = ConfigError):
        """``value`` as ``store`` keeps it; ``error`` naming ``name`` if its type is wrong."""
        try:
            return self.store(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise error(f"{name} must be {self.what}, got {value!r}") from exc


INTEGER = ValueType("an integer", int, _integer)
REAL = ValueType("a real number", float, _real)
BOOL = ValueType("a bool", _parse_bool, _instance(bool))
TEXT = ValueType("a string", str, _instance(str))
PATH = ValueType("a path", Path, Path)
NAMES = ValueType("a sequence of strings", _parse_list, _names)
PAIRS = ValueType("a sequence of (alpha, beta) pairs of real numbers", _parse_pairs, _pairs)


@dataclass
class ConfigKey:
    """One config key, as a ``key=value`` line and as a CLI flag, with its value type.

    ``attr`` is the ``ExperimentConfig`` field it sets, by default ``name``
    (``alpha``/``beta`` fold into ``pairs``; ``profile`` names a preset).
    ``flag`` defaults to ``name`` with dashes.
    """

    name: str
    type: ValueType
    help: str
    attr: str = ""
    flag: str = ""
    choices: tuple[str, ...] | None = None

    def __post_init__(self):
        self.attr = self.attr or self.name
        self.flag = self.flag or "--" + self.name.replace("_", "-")

    @property
    def is_bool(self) -> bool:
        return self.type is BOOL

    def read(self, value):
        """``value``, parsed when it is a string, stored, then checked against ``choices``."""
        if isinstance(value, str):
            try:
                value = self.type.parse(value)
            except ValueError as exc:
                raise ConfigError(f"invalid value for {self.name!r}: {value!r} ({exc})") from exc
        value = self.type.check(self.name, value)
        if self.choices is not None and value not in self.choices:
            raise ConfigError(f"invalid value for {self.name!r}: {value!r}; expected {self.choices}")
        return value


#: Every config key, in the order README lists them.
CONFIG_KEYS = (
    ConfigKey("pairs", PAIRS, "comma list of alpha:beta pairs"),
    ConfigKey("alpha", REAL, "spike index (with --beta: single pair)"),
    ConfigKey("beta", REAL, "sparsity index (with --alpha: single pair)"),
    ConfigKey("d", INTEGER, "ambient dimension"),
    ConfigKey("n", INTEGER, "sample size"),
    ConfigKey("replications", INTEGER, "replications per pair", flag="--reps"),
    ConfigKey("methods", NAMES, f"comma list from {','.join(METHODS)}", flag="--method"),
    ConfigKey("penalty", TEXT, f"RSPCA penalty family, one of {','.join(FAMILIES)}"),
    ConfigKey("scad_a", REAL, "SCAD shape parameter"),
    ConfigKey("lambda_min", REAL, "smallest nonzero lambda of the grid"),
    ConfigKey("lambda_max", REAL, "largest lambda of the grid (default: 1.5 max |X v1|)"),
    ConfigKey("lambda_points", INTEGER, "log-spaced lambdas of the grid (plus lambda = 0)"),
    ConfigKey("bic", BOOL, "BIC-select lambda per replication"),
    ConfigKey("seed", INTEGER, "base seed", attr="base_seed"),
    ConfigKey("out", PATH, "output directory", attr="output_dir"),
    ConfigKey("profile", TEXT, "preset scale", choices=tuple(PROFILES)),
    ConfigKey("threads", INTEGER, "worker processes"),
    ConfigKey("timing", BOOL, "record wall-clock runtime_ms (breaks byte-determinism)"),
    ConfigKey("max_iter", INTEGER, "rspca iteration cap"),
    ConfigKey("delta", REAL, "lower-bound exponent on log(d)"),
    ConfigKey("gamma", REAL, "upper-bound exponent (default: midpoint)"),
)

_KEYS = {k.name: k for k in CONFIG_KEYS}
#: The key of each ``ExperimentConfig`` field; sweep mode is the subcommand's to set.
_FIELD_KEYS = {k.attr: k for k in CONFIG_KEYS} | {"sweep": ConfigKey("sweep", BOOL, "sweep mode")}


def parse_config_file(path) -> dict[str, str]:
    """Read a key=value config file; '#' comments and blank lines allowed."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _layer(values: dict[str, object]) -> dict[str, object]:
    """One layer's keys read into ``ExperimentConfig`` fields (and ``profile``)."""
    out = {}
    for name, value in values.items():
        if name not in _KEYS:
            raise ConfigError(f"unknown config key {name!r}")
        if value is not None:
            out[_KEYS[name].attr] = _KEYS[name].read(value)
    alpha = out.pop("alpha", None)
    beta = out.pop("beta", None)
    if (alpha is None) != (beta is None):
        raise ConfigError("alpha and beta must be given together")
    if alpha is not None:
        if "pairs" in out:
            raise ConfigError("give pairs or alpha and beta, not both")
        out["pairs"] = ((alpha, beta),)
    return out


def resolve_config(
    file_values: dict[str, object] | None = None,
    flag_values: dict[str, object] | None = None,
    *,
    defaults: dict[str, object] | None = None,
    forced: dict[str, object] | None = None,
) -> ExperimentConfig:
    """Merge the layers, each over the one before, into a config (which checks itself).

    Layers: defaults (``ExperimentConfig``'s, then ``defaults``), profile
    preset, config file, CLI flags, ``forced``.  File and flag values are
    keyed by config key and go through ``ConfigKey.read`` (None is skipped);
    ``defaults`` and ``forced`` are keyed by field.  The profile, the flags'
    or else the file's, sits under every explicit key.
    """
    file, flags = _layer(file_values or {}), _layer(flag_values or {})
    profile = flags.pop("profile", file.pop("profile", None))
    return ExperimentConfig(**{**(defaults or {}), **PROFILES.get(profile, {}), **file, **flags,
                               **(forced or {})})


def write_resolved_config(cfg: ExperimentConfig, path) -> Path:
    """Echo the resolved configuration as a config file that reads back into ``cfg``.

    One ``key=value`` line per ``CONFIG_KEYS`` entry whose field is set, in
    that table's order, each value written so that its key's parser returns
    it exactly; ``sweep``, which only the subcommand sets, is a comment.
    """
    lines = []
    for key in CONFIG_KEYS:
        v = getattr(cfg, key.attr, None)
        if isinstance(v, tuple):  # pairs or methods
            v = ",".join(":".join(map(cell, m)) if isinstance(m, tuple) else m for m in v)
        if v is not None:
            lines.append(f"{key.name}={cell(v)}")
    lines.append(f"# sweep={cell(cfg.sweep)}")
    return replace_text(path, "\n".join(lines) + "\n")
