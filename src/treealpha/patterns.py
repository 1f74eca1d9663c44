"""Induced-subgraph pattern detection.

A generic exact backtracking matcher (capped), specialized searches for the
three-legged subdivided claw and for bicliques that scale past the generic
cap, and a bounded semi-decision for freeness from line graphs of wall
subdivisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .caps import cap
from .errors import CapExceededError, InvariantViolationError, PreconditionError
from .graphs import Graph, generate, line_graph, subdivide


@dataclass
class Embedding:
    """Injective map from pattern vertices to host vertices, induced."""

    mapping: dict[int, int]

    def verify(self, pattern: Graph, host: Graph) -> bool:
        m = self.mapping
        if set(m) != set(pattern.vertices):
            return False
        if len(set(m.values())) != len(m):
            return False
        for a in pattern.vertices:
            for b in range(a + 1, pattern.n):
                if pattern.has_edge(a, b) != host.has_edge(m[a], m[b]):
                    return False
        return True


@dataclass(frozen=True)
class PatternSpec:
    """One of the named forbidden structures, or an explicit pattern graph."""

    kind: str  # s_ttt | k_tt | k_gamma_2 | explicit
    t: int = 0
    gamma: int = 0
    graph: Graph | None = None

    def __post_init__(self):
        if self.kind in ("s_ttt", "k_tt"):
            if self.t < 1:
                raise PreconditionError(f"{self.kind} needs t >= 1, got t={self.t}")
        elif self.kind == "k_gamma_2":
            if self.gamma < 1:
                raise PreconditionError(f"k_gamma_2 needs gamma >= 1, got gamma={self.gamma}")
        elif self.kind == "explicit":
            if self.graph is None:
                raise PreconditionError("explicit pattern spec needs a graph")
        else:
            raise PreconditionError(f"unknown pattern kind {self.kind!r}")

    def realize(self) -> Graph:
        if self.kind == "s_ttt":
            return generate("s_ttt", t=self.t)
        if self.kind == "k_tt":
            return generate("complete_bipartite", a=self.t, b=self.t)
        if self.kind == "k_gamma_2":
            return generate("k_gamma_2", gamma=self.gamma)
        return self.graph


def _host_profile(g: Graph) -> tuple[tuple[int, ...], list[int], int]:
    """What the matcher needs of a host, built once per host: its adjacency
    masks, the mask of vertices of degree >= d for each d (the list ends
    with an empty mask past the maximum degree), and the mask of vertices
    that lie in a triangle."""
    adj = g._masks
    degrees = [m.bit_count() for m in adj]
    deg_ge = [0] * (max(degrees, default=0) + 2)
    for v, d in enumerate(degrees):
        deg_ge[d] |= 1 << v
    for d in range(len(deg_ge) - 2, -1, -1):
        deg_ge[d] |= deg_ge[d + 1]
    return adj, deg_ge, _triangle_mask(adj)


def _triangle_mask(adj: tuple[int, ...]) -> int:
    """The vertices that lie in a triangle, as a mask."""
    out = 0
    for v, m in enumerate(adj):
        rest = m
        while rest:
            b = rest & -rest
            rest ^= b
            if adj[b.bit_length() - 1] & m:
                out |= 1 << v
                break
    return out


def _pattern_profile(adj: tuple[int, ...]) -> tuple:
    """What the matcher needs of a pattern with adjacency masks adj: each
    vertex's degree, the mask of vertices that lie in a triangle, and for
    each vertex u its later neighbours and later non-neighbours (the ids
    above u, each an int tuple)."""
    k = len(adj)
    nbrs = tuple(tuple(p for p in range(u + 1, k) if m >> p & 1) for u, m in enumerate(adj))
    non = tuple(tuple(p for p in range(u + 1, k) if not m >> p & 1) for u, m in enumerate(adj))
    return tuple(m.bit_count() for m in adj), _triangle_mask(adj), nbrs, non


def _backtrack_induced(g: Graph, h: Graph | tuple,
                       host: tuple | None = None) -> Embedding | None:
    """Exact induced-subgraph search with forward-checked domains.

    h is the pattern, as a Graph or as its ``_pattern_profile``; host is
    ``_host_profile(g)``, built here when not given. Pattern vertices are
    assigned in id order and host candidates tried in ascending order, so
    the returned embedding is deterministic and a self-match yields the
    identity. Assigning u to v intersects the domain of each later
    neighbour of u with v's neighbourhood, then that of each later
    non-neighbour with v's other non-neighbours, and drops v as soon as a
    domain empties.

    Before the search, a pattern vertex of degree d keeps only host vertices
    of degree >= d, and one that lies in a triangle only host vertices that
    lie in a triangle. An induced embedding maps a vertex's neighbours and
    triangles onto neighbours and triangles of its image, so these filters
    remove only candidates that occur in no embedding: the search visits
    the same live branches in the same order and returns the first
    embedding it would return without them.
    """
    degrees, in_tri, later_nbrs, later_non = (
        _pattern_profile(h._masks) if isinstance(h, Graph) else h)
    k = len(degrees)
    if k == 0:
        return Embedding({})
    if k > g.n:
        return None
    adj, deg_ge, tri = host if host is not None else _host_profile(g)
    doms = []
    for u, d in enumerate(degrees):
        dom = deg_ge[d] if d < len(deg_ge) else 0
        if in_tri >> u & 1:
            dom &= tri
        if not dom:
            return None
        doms.append(dom)
    full = (1 << g.n) - 1
    assign = [0] * k

    def rec(u: int, doms: list[int]) -> bool:
        if u == k:
            return True
        m = doms[u]
        nbrs, non_nbrs = later_nbrs[u], later_non[u]
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            nbr = adj[v]
            new_doms = doms[:]
            for p in nbrs:
                new_doms[p] &= nbr
                if not new_doms[p]:
                    break
            else:
                non = full & ~nbr & ~b
                for p in non_nbrs:
                    new_doms[p] &= non
                    if not new_doms[p]:
                        break
                else:
                    assign[u] = v
                    if rec(u + 1, new_doms):
                        return True
        return False

    if rec(0, doms):
        return Embedding(dict(enumerate(assign)))
    return None


def contains_induced(g: Graph, h: Graph, cap_override: int | None = None) -> Embedding | None:
    """An induced embedding of h into g, or None; exactness guaranteed."""
    limit = cap("pattern", cap_override)
    if h.n > limit:
        raise CapExceededError("contains_induced pattern size", h.n, limit)
    return _certified(_backtrack_induced(g, h), h, g)


def _certified(emb: Embedding | None, h: Graph, g: Graph) -> Embedding | None:
    """emb, once checked to be an induced embedding of h into g."""
    if emb is not None and not emb.verify(h, g):
        raise InvariantViolationError("search returned an embedding that is not induced",
                                      trace=emb.mapping)
    return emb


# -- specialized searches -------------------------------------------------------


def _find_s_ttt(g: Graph, t: int) -> Embedding | None:
    """Center plus three induced legs of t vertices, pairwise anticomplete."""
    pattern_ids = lambda leg, pos: 1 + leg * t + pos  # noqa: E731

    for center in g.vertices:
        if g.degree(center) < 3:
            continue
        cmask = g.adj_mask(center)
        legs: list[list[int]] = []
        used = 1 << center

        def leg_ok(x: int, leg: list[int]) -> bool:
            xm = g.adj_mask(x)
            # attached only to its predecessor (or the center at position 0)
            if leg:
                if not (xm >> leg[-1]) & 1:
                    return False
                if (xm >> center) & 1:
                    return False
                for p in leg[:-1]:
                    if (xm >> p) & 1:
                        return False
            else:
                if not (xm >> center) & 1:
                    return False
            for other in legs:
                for p in other:
                    if (xm >> p) & 1:
                        return False
            return True

        def grow(leg: list[int]) -> bool:
            nonlocal used
            if len(leg) == t:
                legs.append(list(leg))
                if len(legs) == 3:
                    return True
                if grow([]):
                    return True
                legs.pop()
                return False
            for x in g.vertices:
                if (used >> x) & 1 or not leg_ok(x, leg):
                    continue
                leg.append(x)
                used |= 1 << x
                if grow(leg):
                    return True
                used &= ~(1 << x)
                leg.pop()
            return False

        if cmask.bit_count() >= 3 and grow([]):
            mapping = {0: center}
            for j, leg in enumerate(legs):
                for i, v in enumerate(leg):
                    mapping[pattern_ids(j, i)] = v
            return Embedding(mapping)
    return None


def _stable_subset(masks: tuple[int, ...], cand: int, size: int) -> list[int] | None:
    """The lexicographically first stable subset of cand with size vertices."""
    if size == 0:
        return []
    while cand.bit_count() >= size:
        b = cand & -cand
        cand ^= b
        v = b.bit_length() - 1
        rest = _stable_subset(masks, cand & ~masks[v], size - 1)
        if rest is not None:
            return [v] + rest
    return None


def _find_k_tt(g: Graph, t: int) -> Embedding | None:
    """Induced biclique with stable sides of size t, complete across."""
    found: list[tuple[list[int], list[int]]] = []

    def rec(a_list: list[int], common: int, start: int) -> bool:
        if len(a_list) == t:
            b_side = _stable_subset(g._masks, common, t)
            if b_side is None:
                return False
            found.append((a_list, b_side))
            return True
        need = t - len(a_list)
        for v in range(start, g.n - need + 1):
            if any(g.has_edge(v, a) for a in a_list):
                continue
            new_common = common & g.adj_mask(v) if a_list else g.adj_mask(v)
            if new_common.bit_count() < t:
                continue
            if rec(a_list + [v], new_common, v + 1):
                return True
        return False

    if not rec([], 0, 0):
        return None
    a_side, b_side = found[0]
    mapping = {i: v for i, v in enumerate(a_side)}
    mapping.update({t + i: v for i, v in enumerate(b_side)})
    return Embedding(mapping)


def find_pattern(g: Graph, spec: PatternSpec) -> Embedding | None:
    """Specialized pattern search; agrees with contains_induced where both run."""
    pattern = spec.realize()
    if spec.kind == "s_ttt":
        emb = _find_s_ttt(g, spec.t)
    elif spec.kind == "k_tt":
        emb = _find_k_tt(g, spec.t)
    else:
        emb = _backtrack_induced(g, pattern)
    return _certified(emb, pattern, g)


# -- wall line-graph freeness (bounded) -----------------------------------------


@dataclass
class LtVerdict:
    """Semi-decision outcome; certified_cap is the largest host size the
    enumeration can definitively clear at the requested size cap."""

    status: str  # free | witness | inconclusive
    certified_cap: int
    witness: Embedding | None = None
    members_tested: int = 0
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        out = {
            "verdict": self.status,
            "certified_cap": self.certified_cap,
            "members_tested": self.members_tested,
        }
        if self.witness is not None:
            out["witness"] = {str(k): v for k, v in sorted(self.witness.mapping.items())}
        return out


def _distributions(total: int, bins: int):
    """All ways to split `total` across `bins` nonnegative counts."""
    if bins == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _distributions(total - first, bins - 1):
            yield (first,) + rest


# Member profiles kept, keyed by (t, distribution): room for every member of
# the 2-wall with at most three subdivisions (1540), at about 4 kB each.
_MEMBER_CACHE = 2048


def _member(t: int, dist: tuple[int, ...]) -> Graph:
    """L(the t-wall with dist[i] subdivisions on its i-th edge)."""
    wall = generate("wall", t=t)
    member, _ = line_graph(subdivide(wall, dict(zip(wall.edges(), dist))))
    return member


@lru_cache(maxsize=_MEMBER_CACHE)
def _member_profile(t: int, dist: tuple[int, ...]) -> tuple:
    """The ``_pattern_profile`` of ``_member(t, dist)``, built once."""
    return _pattern_profile(_member(t, dist)._masks)


def lt_free_upto(g: Graph, t: int, size_cap: int,
                 member_budget: int = 200_000) -> LtVerdict:
    """Test g against line graphs of wall subdivisions up to size_cap vertices.

    A subdivision with V + s vertices (s extra) has a line graph on E + s
    vertices, so only s <= |V(g)| - E can possibly embed; verdicts are
    certified exactly when the cap covers every such s. A witness is
    checked against the member it embeds.
    """
    if t < 1:
        raise PreconditionError(f"lt_free_upto needs t >= 1, got t={t}")
    wall = generate("wall", t=t)
    v_wall, e_wall = wall.n, wall.edge_count()
    s_enum = size_cap - v_wall
    s_fit = g.n - e_wall
    host = _host_profile(g)

    tested = 0
    s_complete = -1
    for s in range(0, min(s_fit, s_enum) + 1):
        for dist in _distributions(s, e_wall):
            if tested >= member_budget:
                return LtVerdict(
                    status="inconclusive",
                    certified_cap=e_wall + s_complete,
                    members_tested=tested,
                    notes=[f"member budget {member_budget} exhausted at s={s}"],
                )
            tested += 1
            emb = _backtrack_induced(g, _member_profile(t, dist), host)
            if emb is not None:
                return LtVerdict(
                    status="witness",
                    certified_cap=e_wall + max(s_enum, 0),
                    witness=_certified(emb, _member(t, dist), g),
                    members_tested=tested,
                )
        s_complete = s

    certified_cap = e_wall + s_enum
    if s_fit < 0 or s_complete >= s_fit:
        return LtVerdict(status="free", certified_cap=max(certified_cap, g.n),
                         members_tested=tested)
    return LtVerdict(status="inconclusive", certified_cap=certified_cap,
                     members_tested=tested)
