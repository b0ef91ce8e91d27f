"""Runtime configuration.

Defaults < config file < command-line flags.  The config file is plain
``key = value`` text (``#`` comments allowed) and is located through the
``GHOSTKIT_CONFIG`` environment variable unless a path is given explicitly.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import NamedTuple

ENV_VAR = "GHOSTKIT_CONFIG"

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


class Config(NamedTuple):
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


def parse_integer(text: str, what: str) -> int:
    """Parse one integer, quoting the text in the error."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {text!r}") from None


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


def _parse_cosets(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_fraction(part, "pool_cosets entry")
                 for part in text.split(",") if part.strip())


# The parser of each config key's text.  Every flag named after a key hands
# its text to the same parser, so the file and the flag accept the same values.
PARSERS = {
    "hmax": lambda text: parse_fraction(text, "hmax"),
    "jwindow": parse_jwindow,
    "catalog_bound": lambda text: parse_integer(text, "catalog_bound"),
    "strict_guards": _parse_bool,
    "pool_max_length": lambda text: parse_integer(text, "pool_max_length"),
    "pool_max_flow": lambda text: parse_integer(text, "pool_max_flow"),
    "pool_cosets": _parse_cosets,
}


def _apply(cfg: Config, key: str, value: str) -> Config:
    key = key.strip().lower()
    if key not in PARSERS:
        raise ValueError(f"unknown config key {key!r}")
    return cfg._replace(**{key: PARSERS[key](value.strip())})


def load_file(path: str) -> Config:
    cfg = Config()
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
    chosen = path or os.environ.get(ENV_VAR)
    return load_file(chosen) if chosen else Config()
