"""Exhaustive-computation caps.

Each exhaustive computation refuses an instance above its cap rather than
approximate. ``DEFAULT_CAPS`` holds each cap's default; every call that
enforces a cap takes a per-call override in that cap's own unit, and
nothing else changes a cap.
"""

from __future__ import annotations

from .errors import PreconditionError

DEFAULT_CAPS = {
    "alpha": 40,
    "pattern": 12,
    "tree_alpha": 10,
    "mwis_brute": 24,
    "mwis_states": 5_000_000,
}


def cap(name: str, override: int | None = None) -> int:
    """The cap in force: override when given, else the default."""
    if override is None:
        return DEFAULT_CAPS[name]
    # a plain int: a bool, a float or a numeric string is refused
    if not (type(override) is int and override >= 0):
        raise PreconditionError(f"{name} cap override {override!r} is not an integer >= 0")
    return override
