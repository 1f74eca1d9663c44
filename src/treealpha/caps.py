"""Exhaustive-computation caps.

All caps can be overridden per call; the environment variable
``TREEALPHA_CAP_OVERRIDE`` (an integer) replaces every default cap at once,
as a blunt escape hatch for experiments on larger instances.
"""

from __future__ import annotations

import os

from .errors import FormatError

DEFAULT_CAPS = {
    "alpha": 40,
    "pattern": 12,
    "tree_alpha": 10,
    "mwis_brute": 24,
    "mwis_states": 5_000_000,
}

_ENV_VAR = "TREEALPHA_CAP_OVERRIDE"


def cap(name: str, override: int | None = None) -> int:
    """Resolve a cap: explicit override > environment override > default."""
    if override is not None:
        return override
    env = os.environ.get(_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise FormatError(f"{_ENV_VAR}={env!r} is not an integer") from None
    return DEFAULT_CAPS[name]
