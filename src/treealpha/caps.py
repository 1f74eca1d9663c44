"""Exhaustive-computation caps, behind one gate.

Each exhaustive computation refuses an instance above its cap rather than
approximate. ``enforce`` is the one reader of ``DEFAULT_CAPS`` and the one
raiser of ``CapExceededError``: every capped call hands it its size and the
call's ``cap_override``, a per-call override in the cap's own unit, and
nothing else changes a cap.

The ``tree_alpha`` cap bounds the vertex count of the largest piece that
``tree_alpha_exact``'s subset recurrence runs on, after simplicial vertices
are removed and the rest is split into components; it does not bound n.

The ``edgelist_vertices`` cap bounds the vertex count that an edge list
declares or implies, as each vertex gets a mask of up to n bits: 0.6 MB of
edge-list text on 100 000 vertices asks for about 680 MB of masks, and on
10 000 vertices for about 8 MB.
"""

from __future__ import annotations

from .errors import CapExceededError, PreconditionError

DEFAULT_CAPS = {
    "alpha": 40,
    "pattern": 12,
    "tree_alpha": 10,
    "mwis_brute": 24,
    "mwis_states": 5_000_000,
    "edgelist_vertices": 10_000,
}


def enforce(name: str, size: int, override: int | None = None) -> int:
    """The cap name in force: override when given, else its default. Refuses
    a malformed override, and a size above the cap, naming the cap's key."""
    if override is None:
        limit, source = DEFAULT_CAPS[name], "default"
    # a plain int: a bool, a float or a numeric string is refused
    elif type(override) is int and override >= 0:
        limit, source = override, "argument"
    else:
        raise PreconditionError(f"{name} cap override {override!r} is not an integer >= 0")
    if size > limit:
        raise CapExceededError(name, size, limit, source)
    return limit
