"""Exhaustive-computation caps.

Each exhaustive computation refuses an instance above its cap rather than
approximate. ``DEFAULT_CAPS`` holds each cap's default; every call that
enforces a cap takes a per-call override in that cap's own unit, and
nothing else changes a cap. A refusal carries the cap and its source.

The ``tree_alpha`` cap bounds the vertex count of the largest piece that
``tree_alpha_exact``'s subset recurrence runs on, after simplicial vertices
are removed and the rest is split into components; it does not bound n.
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


def source(override: int | None) -> str:
    """Where the cap in force came from, for ``CapExceededError.source``."""
    return "default" if override is None else "argument"
