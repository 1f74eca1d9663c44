"""A fixed pure-Python reference kernel, timed next to the package's calls.

On a shared host the speed one process gets swings by 40 % or more, in
phases that can last minutes, so a raw time says as much about the host's
phase as about the program. The benchmark times this kernel next to every
call and reports each call's time in multiples of it ("ref" units): both
slow down together, and the ratio keeps only the program's own cost.

The kernel mixes the kinds of work the package does: integer and bitmask
arithmetic, a branch and bound over bitmasks, and a backtracking search
over set adjacency. It imports nothing from the package or from the
benchmark's checks, so changes there never rescale it. Changing this file
rescales every ``_ref`` metric; it is kept fixed for that reason.
"""

from __future__ import annotations

import random

_RNG = random.Random(20250124)


def _random_adjacency(n: int, p: float) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if _RNG.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


_ALPHA_ADJ = _random_adjacency(22, 0.3)
_ALPHA_MASKS = [sum(1 << v for v in nbrs) for nbrs in _ALPHA_ADJ]
_HOST = _random_adjacency(10, 0.3)
_PATH = [{1}, {0, 2}, {1, 3}, {2}]  # induced path on four vertices


def _mix(rounds: int) -> int:
    acc = 0
    seen: dict[int, int] = {}
    for i in range(rounds):
        m = (i * 2654435761) & 0xFFFFFFFF
        acc ^= m >> 3
        acc += bin(m).count("1")
        seen[i & 127] = acc
    return acc + len(seen)


def _alpha(mask: int) -> int:
    """Stability number of the fixed graph restricted to mask."""
    if not mask:
        return 0
    v = (mask & -mask).bit_length() - 1
    rest = mask & ~(1 << v)
    if not _ALPHA_MASKS[v] & rest:
        return 1 + _alpha(rest)
    return max(1 + _alpha(rest & ~_ALPHA_MASKS[v]), _alpha(rest))


def _count_induced_paths() -> int:
    """Induced copies of _PATH in _HOST, found by backtracking (every image counted)."""
    found = 0
    image: list[int] = []

    def extend(i: int) -> None:
        nonlocal found
        if i == len(_PATH):
            found += 1
            return
        for h in range(len(_HOST)):
            if h in image:
                continue
            if all((h in _HOST[image[j]]) == (j in _PATH[i]) for j in range(i)):
                image.append(h)
                extend(i + 1)
                image.pop()

    extend(0)
    return found


def kernel() -> int:
    """One fixed unit of reference work, about a millisecond on a 2020s x86 core."""
    return _mix(400) + _alpha((1 << len(_ALPHA_MASKS)) - 1) + _count_induced_paths()
