"""Induced-subgraph pattern detection.

One exact backtracking matcher, ``_backtrack_induced``, finds every
pattern. It forward checks the pattern vertices already reached, those with
an assigned neighbour, and checks Hall's condition on the rest at every
node. It serves an explicit graph through ``contains_induced``, its one route,
which caps the pattern's size; the named forbidden structures S_{t,t,t},
K_{t,t} and K_gamma^2, whose size t or gamma fixes, through
``find_pattern``; and the members of a bounded semi-decision for freeness
from line graphs of wall subdivisions through ``lt_free_upto``, which
counts one member per split of the subdivisions over the wall's branch
paths and matches one per orbit of splits under the wall's automorphisms.

Every pattern takes one path: it is relabelled into its breadth-first,
most-constrained-first ``_matching_order``, its automorphisms are broken
by orbit bounds (``_orbit_bounds``, found by the same matcher), each step's
plan (the vertices it wakes and narrows, and the Hall need of those still
unreached) is built once with the orbit bounds into the pattern's cached
profile, and the embedding found is mapped back to the pattern's own ids
and certified.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import comb

from .caps import enforce
from .errors import InvariantViolationError, PreconditionError
from .graphs import (Edge, Graph, _bits, _check_graph, _frame, _is_int, generate, line_graph,
                     norm_edge, set_to_mask, subdivide)


@dataclass(slots=True)
class Embedding:
    """Injective map from pattern vertices to host vertices, induced."""

    mapping: dict[int, int]

    def verify(self, pattern: Graph, host: Graph) -> bool:
        _check_graph(pattern, "pattern")
        _check_graph(host, "host")
        m = self.mapping
        if not isinstance(m, Mapping):
            raise PreconditionError(f"mapping {m!r} is not a mapping of pattern to host ids")
        if not all(_is_int(a) for a in m) or set(m) != set(pattern.vertices):
            return False
        if not all(_is_int(v) and 0 <= v < host.n for v in m.values()):
            return False
        if len(set(m.values())) != len(m):
            return False
        # induced: the host's rows on the image, framed in pattern order, are the pattern's
        order = [m[a] for a in pattern.vertices]
        return _frame(host._masks, set_to_mask(order), order) == pattern._masks


@dataclass(frozen=True)
class PatternSpec:
    """One of the named forbidden structures; an explicit pattern graph goes
    to ``contains_induced`` instead."""

    kind: str  # s_ttt | k_tt | k_gamma_2
    t: int = 0
    gamma: int = 0

    def __post_init__(self):
        for name in ("t", "gamma"):
            if not _is_int(getattr(self, name)):
                raise PreconditionError(f"{name}={getattr(self, name)!r} is not an integer")
        if self.kind in ("s_ttt", "k_tt"):
            if self.t < 1:
                raise PreconditionError(f"{self.kind} needs t >= 1, got t={self.t}")
        elif self.kind == "k_gamma_2":
            if self.gamma < 1:
                raise PreconditionError(f"k_gamma_2 needs gamma >= 1, got gamma={self.gamma}")
        else:
            raise PreconditionError(f"unknown pattern kind {self.kind!r}")

    def realize(self) -> Graph:
        if self.kind == "s_ttt":
            return generate("s_ttt", t=self.t)
        if self.kind == "k_tt":
            return generate("complete_bipartite", a=self.t, b=self.t)
        return generate("k_gamma_2", gamma=self.gamma)


def _host_profile(g: Graph, triangles: bool = True) -> tuple[tuple[int, ...], list[int], int]:
    """What the matcher needs of a host, built once per host: its adjacency
    masks, the mask of vertices of degree >= d for each d (the list ends
    with an empty mask past the maximum degree), and the mask of vertices
    that lie in a triangle, or 0 unless triangles is set."""
    adj = g._masks
    degrees = [m.bit_count() for m in adj]
    deg_ge = [0] * (max(degrees, default=0) + 2)
    for v, d in enumerate(degrees):
        deg_ge[d] |= 1 << v
    for d in range(len(deg_ge) - 2, -1, -1):
        deg_ge[d] |= deg_ge[d + 1]
    return adj, deg_ge, _triangle_mask(adj) if triangles else 0


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


def _pattern_need(adj: tuple[int, ...]) -> tuple:
    """What the Hall check needs of a pattern with adjacency masks adj: each
    vertex's degree, the mask of vertices that lie in a triangle, and the
    ``_need`` of those degrees."""
    degrees = tuple(m.bit_count() for m in adj)
    tri = _triangle_mask(adj)
    tri_degrees = [degrees[u] for u in _bits(tri)]
    return degrees, tri, _need({d: (degrees.count(d), tri_degrees.count(d))
                                for d in set(degrees)})


def _need(counts: dict[int, tuple[int, int]]) -> tuple:
    """The need ``(d, count, in triangles)`` per degree d with
    ``counts[d] = (vertices of degree d, those of them in a triangle)``,
    highest first: how many vertices have degree >= d, and how many of
    those lie in a triangle. A degree no vertex has gets no entry; the next
    higher entry's counts stand for it."""
    need, count, in_tri = [], 0, 0
    for d in sorted(counts, reverse=True):
        c, c_tri = counts[d]
        if c:
            count, in_tri = count + c, in_tri + c_tri
            need.append((d, count, in_tri))
    return tuple(need)


def _pattern_steps(adj: tuple[int, ...]) -> tuple:
    """Per pattern vertex u, the matcher's step ``(reached neighbours,
    reached non-neighbours, above, runs, woken, need, root)``: the plan of
    ``_plain_steps`` with u's orbit bound from ``_orbit_bounds`` (or -1),
    ``(head, size)`` for each twin class of two or more whose first vertex,
    its head, lies above u and is reached by step u, and the ``_need`` of
    the vertices still unreached after step u."""
    plain, head, runs = _plain_steps(adj)
    above, _ = _orbit_bounds(adj, plain, head)
    degrees = [m.bit_count() for m in adj]
    tri = _triangle_mask(adj)
    left: dict[int, list[int]] = {}  # per degree, the unreached vertices and those in a triangle
    for u, d in enumerate(degrees):
        c = left.setdefault(d, [0, 0])
        c[0] += 1
        c[1] += tri >> u & 1
    steps, need, reached = [], (), 0
    for u, (nbrs, non, _, _, woken, _, root) in enumerate(plain):
        gone = (u,) + woken if root else woken
        for p in gone:
            c = left[degrees[p]]
            c[0] -= 1
            c[1] -= tri >> p & 1
        if gone:  # else the need is the last step's
            need = _need(left)
        reached |= adj[u]
        twins = tuple(r for r in runs if r[0] > u and reached >> r[0] & 1) if runs else ()
        steps.append((nbrs, non, above[u], twins, woken, need, root))
    return tuple(steps)


def _plain_steps(adj: tuple[int, ...]) -> tuple[list, list[int], list[tuple[int, int]]]:
    """The matcher's steps for the pattern with masks adj with the symmetry
    and Hall fields off, each vertex's twin-class head, and ``(head, size)``
    for each twin class of two or more. Pattern vertices p < u are twins
    when N(p) minus u equals N(u) minus p; twinship is an equivalence.

    A later vertex is reached once one of its neighbours is assigned. Step
    u's plan, read off masks in one pass, lists the later vertices reached
    before u, adjacent to u and not, then the later neighbours that u
    reaches first, the vertices it wakes, and says whether u is a root,
    reached by no earlier vertex. Its need counts the vertices still
    unreached after u as if each had degree 0: they need distinct images
    outside ``blocked``, whatever their degrees."""
    k = len(adj)
    head, size, last = list(range(k)), [0] * k, {}
    for u, m in enumerate(adj):
        # twins have equal open (non-adjacent) or closed (adjacent)
        # neighbourhoods, and no open one equals a closed one
        closed = m | 1 << u
        p = max(last.get(m, -1), last.get(closed, -1))
        if p >= 0:
            head[u] = head[p]
        size[head[u]] += 1
        last[m] = last[closed] = u
    runs = [(h, c) for h, c in enumerate(size) if c > 1]
    plain, reached, full = [], 0, (1 << k) - 1
    for u, m in enumerate(adj):
        later = full & -(2 << u)
        seen = reached & later
        woken, root = tuple(_bits(m & later & ~reached)), not reached >> u & 1
        reached |= m
        left = (later & ~reached).bit_count()
        plain.append((tuple(_bits(m & seen)), tuple(_bits(seen & ~m)), -1, (), woken,
                      ((0, left, 0),) if left else (), root))
    return plain, head, runs


def _orbit_bounds(adj: tuple[int, ...], plain: list,
                  head: list[int]) -> tuple[list[int], list[tuple[int, ...]]]:
    """Per pattern vertex u, the largest v < u such that some automorphism
    of the pattern fixes 0..v-1 and maps v to u, or -1: v's orbit under the
    automorphisms that fix 0..v-1 holds u. Also the automorphisms found,
    as tuples of images. With the swaps of twins they generate the
    pattern's whole automorphism group: for each v they map v to one vertex
    of each other twin class in its orbit, and the swaps reach the rest.
    plain and head are ``_plain_steps``'.

    Each orbit is found by ``_backtrack_induced`` matching the pattern into
    itself with 0..v-1 pinned and v mapped to a candidate w. Such an
    automorphism keeps every vertex's degree and its distance to every
    pinned vertex, so the vertices that agree on those, a cell, are the
    only candidates and bound each vertex's domain. Swapping two twins is an
    automorphism that fixes every other vertex, so v's twins join its orbit
    untried, and one member w of each other twin class is tried: the rest
    lie in v's orbit exactly when w does, and w's own orbit, later, bounds
    them. Once every cell is a single vertex, only the identity fixes
    0..v-1, and no later vertex has a bound. Each automorphism found is
    checked before it counts."""
    k = len(adj)
    above, cell, found = [-1] * k, [m.bit_count() for m in adj], []
    classes = [0] * k
    for u, h in enumerate(head):
        classes[h] |= 1 << u
    full = (1 << k) - 1
    host = (adj, (full,), 0)  # every vertex has degree >= 0
    for v in range(k):
        if v:  # refine by the distance to the vertex pinned last
            ids: dict = {}
            cell = [ids.setdefault(key, len(ids)) for key in zip(cell, _distances(adj, v - 1))]
        members: dict = {}
        for x, c in enumerate(cell):
            members[c] = members.get(c, 0) | 1 << x
        if len(members) == k:
            break
        free = full & -(1 << v)  # the vertices not pinned
        orbit = tried = classes[head[v]] & free
        for w in _bits(members[cell[v]] & ~tried):
            if tried >> w & 1:
                continue
            tried |= classes[head[w]]
            doms = [members[c] for c in cell]
            doms[v] = 1 << w
            emb = _backtrack_induced(host, ((), 0, plain), doms)
            if emb is not None:
                perm = [emb.mapping.get(x) for x in range(k)]
                if set(perm) != set(range(k)) or perm[:v + 1] != [*range(v), w] \
                        or _frame(adj, full, perm) != adj:
                    raise InvariantViolationError("orbit search returned a map that is not "
                                                  "an automorphism", trace=emb.mapping)
                orbit |= 1 << w
                found.append(tuple(perm))
        for u in _bits(orbit & ~(1 << v)):
            above[u] = v
    return above, found


def _distances(adj: tuple[int, ...], p: int) -> list[int]:
    """Each vertex's distance to p, breadth first over the masks adj; -1
    where p is not reached."""
    dist, d = [-1] * len(adj), 0
    seen = frontier = 1 << p
    while frontier:
        reach = 0
        for x in _bits(frontier):
            dist[x] = d
            reach |= adj[x]
        frontier = reach & ~seen
        seen |= frontier
        d += 1
    return dist


def _hall_refuses(host: tuple, need: tuple) -> bool:
    """Whether a host's ``_host_profile`` falls short of a need: for some
    ``(d, count, in triangles)`` it has fewer vertices of degree >= d, or
    fewer of them in a triangle. Then no injective map into the matcher's
    degree and triangle domains exists (Hall's condition), and so no
    embedding. This also refuses a pattern larger than the host. It is the
    matcher's Hall rule (``_backtrack_induced``) at the root, before any
    vertex is assigned: every vertex is unreached and nothing is blocked."""
    _, deg_ge, tri = host
    for d, c, c_tri in need:
        dom = deg_ge[d] if d < len(deg_ge) else 0
        if dom.bit_count() < c or (dom & tri).bit_count() < c_tri:
            return True
    return False


def _backtrack_induced(host: tuple, pattern: tuple,
                       doms: list[int] | None = None) -> Embedding | None:
    """The induced embedding of a pattern into a host that is first in the
    pattern's vertex order, or None, from the host's ``_host_profile``, with
    triangles if the pattern has one, and the pattern's ``(degrees, triangle
    mask, steps)`` from ``_pattern_need`` and ``_pattern_steps``. The
    callers run ``_hall_refuses`` before building either, which is the Hall
    rule below before any vertex is assigned, and which leaves a host mask
    in ``deg_ge`` for every degree of the pattern. doms, when given, are the
    starting domains in place of the degree and triangle ones, which only
    ``_orbit_bounds`` passes, with ``_plain_steps``' needs, which count the
    unreached vertices as if of degree 0, and a host whose one degree mask
    holds every vertex.

    Pattern vertices are assigned in id order and host candidates tried in
    ascending order, so a self-match yields the identity. The callers
    relabel the pattern into its ``_matching_order`` (``_pattern_profile``,
    ``_member_profile``). A later vertex is reached once one of its
    neighbours is assigned, and only reached vertices are forward checked.
    Assigning u to v gives each vertex u wakes, reached first, the domain
    of v's neighbours outside ``blocked``, the closed neighbourhoods of the
    images so far; it intersects the domain of each reached later neighbour
    of u with v's neighbourhood, and that of each reached later
    non-neighbour with v's other non-neighbours; it drops v as soon as a
    domain empties. A root, a vertex no earlier one reaches, takes its
    starting domain outside ``blocked``. So at its own step each vertex's
    domain holds exactly the vertices of its starting domain that keep the
    map so far injective and induced, as forward checking every later
    vertex at every step would leave it, and the search visits the same
    assignments in the same order, less the branches the rules below cut.

    The plain search returns the least embedding f, comparing maps by their
    images of 0, 1, ... in turn. Every other rule prunes only branches that
    hold no embedding or only later ones, so the answer is f:
    - A pattern vertex of degree d keeps only host vertices of degree >= d,
      and one in a triangle only host vertices in a triangle.
    - Hall's condition on the unreached vertices, after each assignment.
      An unreached vertex has no assigned neighbour, so its image lies
      outside ``blocked``, in its degree and triangle domain, and the
      images are distinct. So for each ``(d, count, in triangles)`` of the
      step's need, the unreached vertices' ``_need``, the host must have
      that many vertices of degree >= d outside ``blocked``, and that many
      of them in a triangle. With the degree and triangle domains, the
      counts also cover each unreached vertex's own domain not being
      empty, all that forward checking it would test.
    - A vertex u with an orbit bound v = above >= 0 maps only above v's
      image. Some automorphism s fixes 0..v-1 and maps v to u, so f after s
      is an embedding that agrees with f below v and maps v to f(u); as f
      is least, f(v) < f(u). Twins are the case of s swapping two vertices.
    - After forward checking, each later reached twin-class head's domain
      must hold a host vertex per class member: none is assigned yet, so
      all share that domain and need distinct images in it. The Hall rule
      covers an unreached class.
    """
    adj, deg_ge, tri = host
    degrees, in_tri, steps = pattern
    if doms is None:
        doms = [deg_ge[d] & tri if in_tri >> u & 1 else deg_ge[d]
                for u, d in enumerate(degrees)]
    k = len(steps)
    assign = [0] * k

    def rec(u: int, doms: list[int], free: int) -> bool:
        # free is ~blocked: the host vertices an unreached vertex may take
        if u == k:
            return True
        nbrs, non_nbrs, above, runs, woken, need, root = steps[u]
        m = doms[u] & free if root else doms[u]
        if above >= 0:
            m &= -2 << assign[above]
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
                non = ~(nbr | b)
                for p in non_nbrs:
                    new_doms[p] &= non
                    if not new_doms[p]:
                        break
                else:
                    # once no later vertex is unreached, free is read no more
                    if woken or need:
                        fresh, non = nbr & free, non & free
                        ok = True
                        for p in woken:
                            new_doms[p] &= fresh
                            if not new_doms[p]:
                                ok = False
                                break
                        if ok:
                            for d, c, c_tri in need:
                                dom = deg_ge[d] & non
                                if dom.bit_count() < c or c_tri and (dom & tri).bit_count() < c_tri:
                                    ok = False
                                    break
                        if not ok:
                            continue
                    if runs and any(new_doms[p].bit_count() < c for p, c in runs):
                        continue
                    assign[u] = v
                    if rec(u + 1, new_doms, non):
                        return True
        return False

    if rec(0, doms, -1):
        return Embedding(dict(enumerate(assign)))
    return None


def contains_induced(g: Graph, h: Graph, cap_override: int | None = None) -> Embedding | None:
    """An induced embedding of h into g, or None; exactness guaranteed."""
    _check_graph(g)
    _check_graph(h, "h")
    enforce("pattern", h.n, cap_override)
    return _first_embedding(g, h)


# Explicit and named pattern profiles kept, keyed by the pattern's masks,
# and as many named patterns, keyed by (kind, t, gamma), and pattern needs,
# keyed by the masks. Each call of contains_induced or find_pattern reads a
# need, and each that passes the Hall check a profile.
_PATTERN_CACHE = 64


@lru_cache(maxsize=_PATTERN_CACHE)
def _pattern_hall(adj: tuple[int, ...]) -> tuple:
    """``_pattern_need(adj)``, built once per pattern."""
    return _pattern_need(adj)


@lru_cache(maxsize=_PATTERN_CACHE)
def _named_pattern(kind: str, t: int, gamma: int) -> Graph:
    """The pattern ``PatternSpec(kind, t, gamma)`` names, built once."""
    return PatternSpec(kind, t, gamma).realize()


def _first_embedding(g: Graph, h: Graph) -> Embedding | None:
    """``_backtrack_induced`` of h into g, in h's matching order, certified:
    the host's profile is built here, its triangles only when h has one.
    ``_hall_refuses`` runs on h's need before h's order, orbits and steps
    are built, which cost far more than the need: it is the matcher's Hall
    check at the root, before any vertex is assigned."""
    _, tri, need = _pattern_hall(h._masks)
    host = _host_profile(g, tri != 0)
    if _hall_refuses(host, need):
        return None
    profile, order = _pattern_profile(h._masks)
    return _certified(_backtrack_induced(host, profile), order, h, g)


def _certified(emb: Embedding | None, order: tuple[int, ...], h: Graph,
               g: Graph) -> Embedding | None:
    """emb, an embedding of h relabelled into order (vertex i is order[i]),
    keyed back by h's own ids and checked to be an induced embedding of h
    into g."""
    if emb is None:
        return None
    m = emb.mapping
    if isinstance(m, Mapping) and set(m) == set(range(len(order))):
        back = Embedding(dict(sorted(zip(order, (m[i] for i in range(len(order)))))))
        if back.verify(h, g):
            return back
    raise InvariantViolationError("search returned an embedding that is not induced", trace=m)


def find_pattern(g: Graph, spec: PatternSpec) -> Embedding | None:
    """The first induced embedding of spec's pattern into g, or None: the
    matcher and answer of ``contains_induced``, without its ``pattern`` cap,
    as a named pattern's size is fixed by t or gamma. First means first in
    the pattern's ``_matching_order``, keyed by the pattern's own ids. The
    orbit bounds keep the legs of S_{t,t,t}, the sides of K_{t,t} and the
    branch vertices of K_gamma^2 from being tried in every order. A
    pattern with more vertices than g is refused before it is built:
    S_{t,t,t} has 3t + 1, K_{t,t} 2t and K_gamma^2 gamma^2. Each named
    pattern, its need and its profile are built once and cached."""
    _check_graph(g)
    # fields, not the class, as _check_graph reads them: a spec built before
    # this module was imported again still passes, and _named_pattern
    # checks the fields again as it builds the pattern
    if not all(hasattr(spec, f) for f in ("kind", "t", "gamma")):
        raise PreconditionError(f"spec is {spec!r}, not a PatternSpec")
    if {"s_ttt": 3 * spec.t + 1, "k_tt": 2 * spec.t}.get(spec.kind, spec.gamma ** 2) > g.n:
        return None
    return _first_embedding(g, _named_pattern(spec.kind, spec.t, spec.gamma))


# -- wall line-graph freeness (bounded) -----------------------------------------


@dataclass(slots=True)
class LtVerdict:
    """Semi-decision outcome. members_tested counts splits of the
    subdivisions over the wall's branch paths, one member each, whether or
    not the member was matched (see ``lt_free_upto``). With s subdivisions
    a member has E + s vertices, E the wall's edge count. A witness is the
    first embedding of the first member that embeds, first in the member's
    matching order (``_matching_order``, the order every pattern is matched
    in) and keyed by the member's own line-graph ids. certified_cap is a
    member size; with V the wall's vertex count, it is:
    - free: max(E + size_cap - V, |V(g)|). Every member that fits in g was
      tested.
    - witness: E + max(size_cap - V, 0), the largest member size the cap
      lets the enumeration reach, whatever the host's size.
    - inconclusive, with the note "member budget B exhausted at s=S":
      E + S - 1, the largest member size whose level was tested in full.
    - inconclusive with no note: E + size_cap - V, the largest member size
      the cap lets the enumeration reach, below the largest that fits in g.
    """

    status: str  # free | witness | inconclusive
    certified_cap: int
    witness: Embedding | None = None
    members_tested: int = 0
    notes: list[str] = field(default_factory=list)


def _distributions(total: int, bins: int):
    """All ways to split `total` across `bins` nonnegative counts, in
    lexicographic order: stars and bars, each choice of bins - 1 bar slots
    among total + bins - 1, in the order ``combinations`` takes them."""
    slots = total + bins - 1
    for bars in combinations(range(slots), bins - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))


@lru_cache(maxsize=4)  # the bench tests t = 2 only
def _wall(t: int) -> tuple[Graph, tuple[Edge, ...], tuple[int, ...]]:
    """The t-wall and, for each of its branch paths (``_branch_paths``),
    the path's lowest edge, ascending, and its length in edges. A split of
    s subdivisions over the branch paths lists one count per path, in this
    order."""
    wall = generate("wall", t=t)
    paths = _branch_paths(wall)
    return wall, tuple(path[0] for path in paths), tuple(map(len, paths))


def _branch_paths(wall: Graph) -> list[list[Edge]]:
    """The edges of each branch path of wall, the lowest first, paths in
    the order of their lowest edges. A branch path is a maximal path whose
    inner vertices have degree 2; the t = 1 wall, a 6-cycle, is one branch
    path."""
    adj = wall._masks
    seen: set[Edge] = set()
    paths = []
    for u, v in wall.edges():
        if (u, v) in seen:
            continue
        path = [(u, v)]
        seen.add((u, v))
        for prev, cur in ((u, v), (v, u)):
            while adj[cur].bit_count() == 2:
                nxt = (adj[cur] & ~(1 << prev)).bit_length() - 1
                e = norm_edge(cur, nxt)
                if e in seen:  # the walk closed a cycle
                    break
                seen.add(e)
                path.append(e)
                prev, cur = cur, nxt
        paths.append(path)
    return paths


@lru_cache(maxsize=4)
def _wall_symmetries(t: int) -> tuple[tuple[int, ...], ...]:
    """The permutations of the t-wall's branch paths that its automorphisms
    induce, as tuples sigma with sigma[i] the path that path i maps onto:
    a group, so a split's images under the automorphisms are
    ``tuple(split[j] for j in sigma)`` over all sigma.

    The automorphisms are those ``_orbit_bounds`` finds on the wall, closed
    under composition: the wall has no twins, so that is its whole group.
    Each found map is checked to be an automorphism, and each permutation
    to map every edge of path i into path sigma[i], with a raise: a wrong
    one would skip a split whose member no matched split is isomorphic to."""
    wall = _wall(t)[0]
    adj, n = wall._masks, wall.n
    plain, head, _ = _plain_steps(adj)
    _, found = _orbit_bounds(adj, plain, head)
    ids = tuple(range(n))
    for perm in found:
        if sorted(perm) != list(ids) or _frame(adj, (1 << n) - 1, perm) != adj:
            raise InvariantViolationError("orbit search returned a map that is not an "
                                          "automorphism of the wall", trace=perm)
    group, todo = {ids}, [ids]
    while todo:
        perm = todo.pop()
        for gen in found:
            nxt = tuple(gen[x] for x in perm)
            if nxt not in group:
                group.add(nxt)
                todo.append(nxt)
    paths = _branch_paths(wall)
    path_of = {e: i for i, path in enumerate(paths) for e in path}
    sigmas = set()
    for perm in group:
        image = [{path_of[norm_edge(perm[u], perm[v])] for u, v in path} for path in paths]
        sigma = tuple(min(js) for js in image)
        if any(len(js) > 1 for js in image) or sorted(sigma) != list(range(len(paths))):
            raise InvariantViolationError("a wall automorphism does not permute the branch "
                                          "paths", trace=perm)
        sigmas.add(sigma)
    return tuple(sorted(sigmas))


def _wall_need(t: int, s: int, few: int, many: int) -> tuple:
    """The least ``_need`` of the members with s subdivisions whose splits
    leave at least few and at most many branch paths of one edge.

    A member vertex is an edge xy of the subdivided wall. It has degree
    deg x + deg y - 2, and lies in a triangle exactly when x or y has
    degree 3, as a subdivided wall has no triangle. For t >= 2 every branch
    path joins two wall vertices of degree 3: a path of one edge gives one
    vertex of degree 4, a longer one two vertices of degree 3 at its ends
    and vertices of degree 2 between them. The 6-cycle of t = 1 gives
    vertices of degree 2 only."""
    lengths = _wall(t)[2]
    ends = 2 * len(lengths) - many if t > 1 else 0  # vertices of degree >= 3
    return _need({4: (few, few), 3: (ends - few, ends - few),
                  2: (sum(lengths) + s - ends, 0)})


# Member profiles and split records kept, keyed by (t, split): room for every
# split of at most three subdivisions over the 2-wall's branch paths (220)
# and of at most two over the 3-wall's (325). A profile, the relabelled
# member's matcher profile with its matching order, and its split record
# take about 8.3 kB at t = 2 and 16.6 kB at t = 3 (tracemalloc, over those
# splits, members built outside the measure, each cache entry's own
# overhead included); the per-step Hall needs add about 2 kB at t = 2.
_MEMBER_CACHE = 2048


@lru_cache(maxsize=_MEMBER_CACHE)
def _split_record(t: int, split: tuple[int, ...]) -> tuple[tuple, bool]:
    """The need of ``_pattern_need(_member(t, split)._masks)``, read off
    the branch paths' lengths without building the member, and whether
    split is first among its images under the wall's automorphisms
    (``_wall_symmetries``) in ``_distributions`` order, which is
    lexicographic. An image's member is isomorphic to split's."""
    single = sum(length + c == 1 for length, c in zip(_wall(t)[2], split))
    first = all(tuple(split[j] for j in sigma) >= split for sigma in _wall_symmetries(t))
    return _wall_need(t, sum(split), single, single), first


def _level_need(t: int, s: int) -> tuple:
    """A need at most that of every split of s subdivisions, entry by
    entry. A branch path of one edge stays so only if no subdivision lands
    on it: of the wall's `single` such paths, at least single - s stay so,
    and at most all of them."""
    single = _wall(t)[2].count(1)
    return _wall_need(t, s, max(single - s, 0), single)


def _member(t: int, split: tuple[int, ...]) -> Graph:
    """L(the t-wall with split[i] subdivisions on the lowest edge of its
    i-th branch path), the one member that stands for split."""
    wall, lowest, _ = _wall(t)
    member, _ = line_graph(subdivide(wall, dict(zip(lowest, split))))
    return member


def _matching_order(adj: tuple[int, ...]) -> tuple[int, ...]:
    """The vertices of a pattern with adjacency masks adj in a connected,
    most-constrained-first order, the greedy of RI (Bonnici et al. 2013)
    and VF2++ (Juttner and Madarasi 2018): each next vertex is the one with
    the most neighbours already ordered, ties to higher degree, then to the
    earliest-ordered neighbour, breadth first, then to the lower id. So the
    first is a vertex of highest degree, and on a connected pattern every
    later one has an earlier neighbour, so forward checking has narrowed
    its domain to a neighbourhood before it is tried. Breadth first puts
    the heads of S_{t,t,t}'s three legs right after its centre, where the
    orbit bounds prune.

    Each vertex's key only grows as vertices are ordered, and only when a
    neighbour is, so the keys sit negated in a heap, a vertex's key is
    pushed anew each time a neighbour is ordered, and an entry that is no
    longer its vertex's key is dropped when it comes up: time
    O((k + edges) log k)."""
    keys = [(0, -m.bit_count(), len(adj), v) for v, m in enumerate(adj)]
    heap, order, done = keys[:], [], 0
    heapify(heap)
    while heap:
        key = heappop(heap)
        u = key[3]
        if key != keys[u]:
            continue
        for v in _bits(adj[u] & ~done):
            count, neg_degree, first, _ = keys[v]
            keys[v] = (count - 1, neg_degree, min(first, len(order)), v)
            heappush(heap, keys[v])
        order.append(u)
        done |= 1 << u
    return tuple(order)


def _profile(adj: tuple[int, ...]) -> tuple[tuple, tuple[int, ...]]:
    """The pattern with masks adj relabelled into its ``_matching_order``,
    as the matcher's ``(degrees, triangle mask, steps)``, and that order:
    vertex i of the relabelled pattern is vertex order[i]."""
    order = _matching_order(adj)
    adj = _frame(adj, (1 << len(adj)) - 1, order)
    return _pattern_need(adj)[:2] + (_pattern_steps(adj),), order


@lru_cache(maxsize=_PATTERN_CACHE)
def _pattern_profile(adj: tuple[int, ...]) -> tuple[tuple, tuple[int, ...]]:
    """``_profile(adj)``, built once per pattern."""
    return _profile(adj)


@lru_cache(maxsize=_MEMBER_CACHE)
def _member_profile(t: int, split: tuple[int, ...]) -> tuple[tuple, tuple[int, ...]]:
    """``_profile`` of ``_member(t, split)``, built once per split."""
    return _profile(_member(t, split)._masks)


def lt_free_upto(g: Graph, t: int, size_cap: int,
                 member_budget: int = 200_000) -> LtVerdict:
    """Test g against line graphs of wall subdivisions up to size_cap vertices.

    A subdivision with V + s vertices (s extra) has a line graph on E + s
    vertices, so only s <= |V(g)| - E can possibly embed; verdicts are
    certified exactly when the cap covers every such s. As the t-wall has
    V = 2(t + 1)^2 - 2 vertices and E = (t + 1)(3t + 1) - 2 edges, a host
    on fewer than E vertices is free before the wall is built. A subdivided
    wall's isomorphism type depends only on how many subdivisions land on
    each branch path (see ``_wall``), so one member stands for each split
    of s over the paths: the one with each path's whole total on the path's
    lowest wall edge. member_budget and members_tested count these splits.

    Two splits that one of the wall's automorphisms maps onto each other
    (``_wall_symmetries``) give isomorphic subdivided walls, and so
    isomorphic members. So a split's member is matched only if the split
    is first among its images (``_split_record``), and every other split
    still counts as tested: the first among its images came earlier in the
    same level, met the same need, and its member did not embed. The first
    split whose member embeds is thus first among its images, and the
    verdict, witness included, is the one matching every split would give.

    Each member is matched as every pattern is, in its ``_matching_order``,
    connected and most constrained first, with its orbit bounds, which
    prunes far earlier than the member's id order: the order picks which
    embedding is found first, not whether one exists.
    The witness is that first embedding mapped back to the member's own
    line-graph ids (those of ``line_graph(subdivide(...))``), and is
    checked against the member in those ids.

    Levels s go in ascending order, and a level's splits in
    ``_distributions`` order. A member is built and matched only if g
    meets its need (``_split_record``): the Hall check of
    ``_first_embedding``, run before the member exists. If g falls short of
    the level's least need (``_level_need``), which no split's need is
    below, the whole level is refused, and its C(s + m - 1, m - 1) splits,
    m the number of branch paths, count as tested at once. A budget that
    ends inside such a level stops at the split count, note and
    certified_cap of a split-by-split walk, which would find no witness
    there. So every field of the verdict is the walk's.
    """
    _check_graph(g)
    for name, x in (("t", t), ("size_cap", size_cap), ("member_budget", member_budget)):
        if not _is_int(x):
            raise PreconditionError(f"lt_free_upto needs an integer {name}, got {x!r}")
    if t < 1:
        raise PreconditionError(f"lt_free_upto needs t >= 1, got t={t}")
    if size_cap < 0 or member_budget < 0:
        raise PreconditionError(f"lt_free_upto needs size_cap and member_budget >= 0, "
                                f"got {size_cap} and {member_budget}")
    v_wall, e_wall = 2 * (t + 1) ** 2 - 2, (t + 1) * (3 * t + 1) - 2
    s_enum = size_cap - v_wall
    s_fit = g.n - e_wall
    if s_fit < 0:
        return LtVerdict(status="free", certified_cap=max(e_wall + s_enum, g.n))
    m = len(_wall(t)[1])
    host = _host_profile(g)

    def exhausted(s: int) -> LtVerdict:
        return LtVerdict(status="inconclusive", certified_cap=e_wall + s - 1,
                         members_tested=member_budget,
                         notes=[f"member budget {member_budget} exhausted at s={s}"])

    tested = 0
    for s in range(0, min(s_fit, s_enum) + 1):
        if _hall_refuses(host, _level_need(t, s)):
            tested += comb(s + m - 1, m - 1)
            if tested > member_budget:
                return exhausted(s)
            continue
        for split in _distributions(s, m):
            if tested >= member_budget:
                return exhausted(s)
            tested += 1
            need, first = _split_record(t, split)
            if not first or _hall_refuses(host, need):
                continue
            profile, order = _member_profile(t, split)
            emb = _backtrack_induced(host, profile)
            if emb is not None:
                return LtVerdict(
                    status="witness",
                    certified_cap=e_wall + max(s_enum, 0),
                    witness=_certified(emb, order, _member(t, split), g),
                    members_tested=tested,
                )

    certified_cap = e_wall + s_enum
    if s_enum >= s_fit:
        return LtVerdict(status="free", certified_cap=max(certified_cap, g.n),
                         members_tested=tested)
    return LtVerdict(status="inconclusive", certified_cap=certified_cap,
                     members_tested=tested)
