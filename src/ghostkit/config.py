"""Runtime configuration.

Defaults < config file < command-line flags.  The config file is plain
``key = value`` text (``#`` comments allowed) and is located through the
``GHOSTKIT_CONFIG`` environment variable unless a path is given explicitly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction

ENV_VAR = "GHOSTKIT_CONFIG"

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


@dataclass(frozen=True)
class Config:
    hmax: Fraction = Fraction(8)
    jwindow: tuple[Fraction, Fraction] = (Fraction(-6), Fraction(6))
    catalog_bound: int = 8
    strict_guards: bool = False
    pool_max_length: int = 7
    pool_max_flow: int = 3
    pool_cosets: tuple[Fraction, ...] = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


def parse_fraction(text: str, what: str) -> Fraction:
    """Parse one rational, quoting the text in the error."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what} must be a rational, got {text!r}") from None


def parse_jwindow(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"jwindow must look like 'a:b', got {text!r}")
    try:
        lo, hi = Fraction(parts[0].strip()), Fraction(parts[1].strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"jwindow bounds must be rationals, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"empty jwindow {text!r}")
    return lo, hi


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in _TRUE:
        return True
    if t in _FALSE:
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _apply(cfg: Config, key: str, value: str) -> Config:
    key = key.strip().lower()
    value = value.strip()
    if key == "hmax":
        return replace(cfg, hmax=parse_fraction(value, "hmax"))
    if key == "jwindow":
        return replace(cfg, jwindow=parse_jwindow(value))
    if key == "catalog_bound":
        return replace(cfg, catalog_bound=int(value))
    if key == "strict_guards":
        return replace(cfg, strict_guards=_parse_bool(value))
    if key == "pool_max_length":
        return replace(cfg, pool_max_length=int(value))
    if key == "pool_max_flow":
        return replace(cfg, pool_max_flow=int(value))
    if key == "pool_cosets":
        cosets = tuple(parse_fraction(part, "pool_cosets entry")
                       for part in value.split(",") if part.strip())
        return replace(cfg, pool_cosets=cosets)
    raise ValueError(f"unknown config key {key!r}")


def load_file(path: str, base: Config | None = None) -> Config:
    cfg = base or Config()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            cfg = _apply(cfg, key, value)
    return cfg


def load(path: str | None = None) -> Config:
    """Resolve the effective config from defaults, env var and explicit path."""
    cfg = Config()
    chosen = path or os.environ.get(ENV_VAR)
    if chosen:
        cfg = load_file(chosen, cfg)
    return cfg
