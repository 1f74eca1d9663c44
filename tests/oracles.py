"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive: full enumeration wherever possible,
no pruning shared with the implementations under test. Above the sizes
enumeration reaches, the ``nx_*`` oracles ask networkx, a third party.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

import networkx as nx

from treealpha.caps import enforce
from treealpha.errors import OracleContractError, PreconditionError
from treealpha.graphs import (
    Graph,
    WeightFn,
    _bits,
    _reach,
    components,
    generate,
    norm_edge,
    set_to_mask,
)
from treealpha.patterns import Embedding, LtVerdict, _triangle_mask, _wall
from treealpha.treedecomp import AssembleResult, TreeDecomposition, validate_td


def edge_list_adjacency(n: int, edges) -> list[frozenset[int]]:
    """Neighbour sets built straight from a constructor edge list, the way
    Graph stored its adjacency before it kept only bitmasks."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return [frozenset(s) for s in adj]


def naive_alpha(g: Graph, verts=None) -> int:
    """Maximum stable set size by checking every subset."""
    vs = sorted(verts) if verts is not None else list(range(g.n))
    best = 0
    for r in range(len(vs), 0, -1):
        if r <= best:
            break
        for sub in combinations(vs, r):
            if all(not g.has_edge(a, b) for a, b in combinations(sub, 2)):
                best = max(best, r)
                break
    return best


def naive_mwis(g: Graph, weights: dict[int, int]) -> int:
    """Maximum weight of a stable set by checking every subset."""
    vs = list(range(g.n))
    best = 0
    for r in range(0, len(vs) + 1):
        for sub in combinations(vs, r):
            if all(not g.has_edge(a, b) for a, b in combinations(sub, 2)):
                best = max(best, sum(weights.get(v, 0) for v in sub))
    return best


def naive_contains_induced(g: Graph, h: Graph) -> bool:
    """Induced-subgraph containment by checking every injection."""
    if h.n > g.n:
        return False
    for image in permutations(range(g.n), h.n):
        ok = True
        for a in range(h.n):
            for b in range(a + 1, h.n):
                if h.has_edge(a, b) != g.has_edge(image[a], image[b]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def naive_components(g: Graph, removed=frozenset()) -> set[frozenset[int]]:
    removed = set(removed)
    seen = set(removed)
    out = set()
    for s in range(g.n):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        seen.add(s)
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        out.add(frozenset(comp))
    return out


def naive_is_chordal(g: Graph) -> bool:
    """Chordality by searching for an induced cycle of length >= 4."""
    for size in range(4, g.n + 1):
        for sub in combinations(range(g.n), size):
            deg = {v: 0 for v in sub}
            edges = 0
            for a, b in combinations(sub, 2):
                if g.has_edge(a, b):
                    deg[a] += 1
                    deg[b] += 1
                    edges += 1
            if edges == size and all(d == 2 for d in deg.values()):
                # connected 2-regular subgraph on `size` vertices is a cycle
                comp = {sub[0]}
                stack = [sub[0]]
                while stack:
                    u = stack.pop()
                    for w in sub:
                        if w not in comp and g.has_edge(u, w):
                            comp.add(w)
                            stack.append(w)
                if len(comp) == size:
                    return False
    return True


def minimal_triangulations_by_branching(g: Graph) -> set[frozenset]:
    """All minimal chordal completions, by branching on chordless cycles.

    Returns the set of fill-edge sets. Independent of the elimination-order
    enumerator in the package: this one repeatedly finds a chordless cycle of
    length >= 4 and branches on each possible chord.
    """

    def find_chordless_cycle(edges: frozenset) -> tuple[int, ...] | None:
        def adjacent(a, b):
            return (min(a, b), max(a, b)) in edges

        n = g.n
        # DFS over induced paths from each start; a path whose end closes
        # back to the start with no interior chords is a chordless cycle
        for start in range(n):
            stack = [(start, [start])]
            while stack:
                u, path = stack.pop()
                for w in range(n):
                    if w == u or w in path or w < start or not adjacent(u, w):
                        continue
                    if any(adjacent(w, p) for p in path[1:-1]):
                        continue
                    closes = adjacent(w, start) and len(path) >= 2
                    if closes and len(path) + 1 >= 4:
                        return tuple(path + [w])
                    if not closes:
                        stack.append((w, path + [w]))
        return None

    def is_chordal_edges(edges: frozenset) -> bool:
        return find_chordless_cycle(edges) is None

    base = frozenset((min(u, v), max(u, v)) for u, v in g.edges())
    results: set[frozenset] = set()
    seen: set[frozenset] = set()

    def rec(edges: frozenset):
        if edges in seen:
            return
        seen.add(edges)
        cyc = find_chordless_cycle(edges)
        if cyc is None:
            fill = edges - base
            # minimal iff removing any single fill edge breaks chordality
            for e in fill:
                if is_chordal_edges(edges - {e}):
                    return
            results.add(frozenset(fill))
            return
        k = len(cyc)
        for i in range(k):
            for j in range(i + 2, k):
                if i == 0 and j == k - 1:
                    continue
                a, b = cyc[i], cyc[j]
                rec(edges | {(min(a, b), max(a, b))})

    rec(base)
    return results


def reference_tree_alpha(g: Graph) -> int:
    """Tree independence number as the package computed it before its
    recurrence over eliminated sets: the least, over the minimal
    triangulations H of g (from minimal_triangulations_by_branching), of the
    largest naive_alpha over H's maximal cliques, with the cliques found by
    checking every vertex subset."""
    best = None
    for fill in minimal_triangulations_by_branching(g):
        adj = [set(g.neighbors(v)) for v in g.vertices]
        for a, c in fill:
            adj[a].add(c)
            adj[c].add(a)
        cliques = [frozenset(sub) for r in range(1, g.n + 1)
                   for sub in combinations(range(g.n), r)
                   if all(b in adj[a] for a, b in combinations(sub, 2))]
        maximal = [q for q in cliques if not any(q < o for o in cliques)]
        worst = max((naive_alpha(g, q) for q in maximal), default=0)
        best = worst if best is None else min(best, worst)
    return best


def _remap(mask: int, to) -> int:
    """mask with each bit v moved to bit to[v]."""
    out = 0
    while mask:
        b = mask & -mask
        out |= 1 << to[b.bit_length() - 1]
        mask ^= b
    return out


def reference_max_weight_stable(masks: tuple[int, ...], mask: int, weights: list) -> int:
    """A maximum-weight stable subset of ``mask``, as the package's branch
    and bound found it before it branched in clique-cover order: binary
    in/out branching on a vertex of maximum degree, pruned by a greedy
    clique cover, taking an edgeless remainder whole.

    ``masks[v]`` is v's adjacency mask and ``weights[v] >= 0`` its weight.
    Vertices are relabelled by non-increasing weight (a stable sort, so unit
    weights keep their labels); then the lowest vertex of each greedy clique
    is its heaviest, and the clique cover bound adds up those vertices'
    weights. Branching takes a vertex of maximum degree, first in, then out.
    """
    order = sorted(range(len(masks)), key=weights.__getitem__, reverse=True)
    if any(v != i for i, v in enumerate(order)):
        to = [0] * len(order)
        for i, v in enumerate(order):
            to[v] = i
        found = reference_max_weight_stable(tuple(_remap(masks[v], to) for v in order),
                                            _remap(mask, to), [weights[v] for v in order])
        return _remap(found, order)
    best, best_val = 0, 0

    def rec(m: int, cur: int, cur_val) -> None:
        nonlocal best, best_val
        bound = 0
        rem = m
        while rem:
            b = rem & -rem
            v = b.bit_length() - 1
            rem ^= b
            cand = rem & masks[v]
            while cand:
                cb = cand & -cand
                rem ^= cb
                cand &= masks[cb.bit_length() - 1]
            bound += weights[v]
        if cur_val + bound <= best_val:
            return
        pick, pick_deg = -1, -1
        mm = m
        while mm:
            b = mm & -mm
            v = b.bit_length() - 1
            d = (masks[v] & m).bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
            mm ^= b
        if pick_deg <= 0:
            # m is edgeless or empty, and the bound is its weight: take it all
            best, best_val = cur | m, cur_val + bound
            return
        bit = 1 << pick
        rec(m & ~(masks[pick] | bit), cur | bit, cur_val + weights[pick])
        rec(m & ~bit, cur, cur_val)

    rec(mask, 0, 0)
    return best


def reference_subset_tree_alpha(g: Graph) -> int:
    """Tree independence number as ``tree_alpha_exact`` computed it before
    it removed simplicial vertices and split components: the subset
    recurrence over eliminated sets, run on the whole graph, with no cap."""
    adj, unit = g._masks, [1] * g.n
    bag_alpha: dict[int, int] = {}
    ta = [0] * (1 << g.n)
    for s in range(1, 1 << g.n):
        best, m = g.n, s
        while m:
            b = m & -m
            m ^= b
            before = s ^ b
            if ta[before] >= best:
                continue
            bag = _reach(adj, b, before) & ~before
            if bag not in bag_alpha:
                bag_alpha[bag] = reference_max_weight_stable(adj, bag, unit).bit_count()
            best = min(best, max(ta[before], bag_alpha[bag]))
        ta[s] = best
    return ta[-1]


def naive_validate_td(g: Graph, td) -> list[tuple[str, object]]:
    """Violations of the three tree-decomposition conditions, found by
    scanning every bag for every vertex and every edge (quadratic). A bag
    member that is not a plain int id of g is reported once per occurrence,
    in bag order, and then left out of its bag."""
    violations: list[tuple[str, object]] = []
    t = td.tree
    if set(td.bags) != set(t.vertices):
        return [("tree", "bag keys do not match tree nodes")]
    if t.n > 0 and (t.edge_count() != t.n - 1 or len(components(t)) != 1):
        return [("tree", "decomposition tree is not a tree")]

    bags: dict[int, set[int]] = {}
    for tn, bag in td.bags.items():
        bags[tn] = set()
        for v in bag:
            if type(v) is int and 0 <= v < g.n:
                bags[tn].add(v)
            else:
                violations.append(("vertex-range", (tn, v)))

    covered: set[int] = set()
    for b in bags.values():
        covered |= b
    for v in g.vertices:
        if v not in covered:
            violations.append(("vertex-coverage", v))

    for u, v in g.edges():
        if not any(u in b and v in b for b in bags.values()):
            violations.append(("edge-coverage", (u, v)))

    for v in g.vertices:
        holders = [tn for tn in t.vertices if v in bags[tn]]
        if not holders:
            continue
        seen = {holders[0]}
        stack = [holders[0]]
        hold = set(holders)
        while stack:
            x = stack.pop()
            for y in t.neighbors(x):
                if y in hold and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != hold:
            violations.append(("subtree-connectivity", (v, sorted(hold))))
    return violations


def naive_stable_subset_count(g: Graph, bag) -> int:
    """How many subsets of the bag are stable, the empty one included, by
    testing every subset pair by pair."""
    return sum(all(not g.has_edge(a, b) for a, b in combinations(sub, 2))
               for r in range(len(bag) + 1) for sub in combinations(sorted(bag), r))


def _reference_stable_subsets(masks: tuple[int, ...], bag: int, w, room: int) -> dict[int, object]:
    """Every stable subset of the bag, as a mask, with its weight; stops
    adding vertices once there are more than room subsets, so a bag past
    the room is built to at most twice it."""
    out = {0: 0}
    while bag and len(out) <= room:
        b = bag & -bag
        v = b.bit_length() - 1
        bag ^= b
        wv = w(v)
        out.update([(s | b, val + wv) for s, val in out.items() if not s & masks[v]])
    return out


def reference_mwis_td(inst, td: TreeDecomposition,
                      cap_override: int | None) -> tuple[int, object]:
    """The decomposition DP before it built each bag's states where its
    bottom-up walk reaches the bag: every bag's stable subsets are built and
    counted against the ``mwis_states`` cap up front, the tables are joined
    bottom-up, and a last loop unions the chosen states into the witness.
    Returns the witness mask and its value, as ``treedecomp._mwis_td``."""
    g = inst.graph
    limit = enforce("mwis_states", 0, cap_override)
    report = validate_td(g, td)
    if not report.ok:
        raise PreconditionError(f"invalid tree decomposition: {report.violations}")
    if not td.bags:
        return 0, 0

    bags = {t: set_to_mask(b) for t, b in td.bags.items()}
    own = {}
    counted = 0
    for t, b in bags.items():
        own[t] = _reference_stable_subsets(g._masks, b, inst.w, limit - counted)
        counted += len(own[t])
        if counted > limit:  # tested here, so that the gate runs once per call, not per bag
            enforce("mwis_states", counted, cap_override)

    # kids[t]: t's children when the tree hangs from node 0, ascending
    tree = td.tree._masks
    kids, order, seen = {}, [0], 1
    for t in order:
        kids[t] = _bits(tree[t] & ~seen)
        seen |= tree[t]
        order.extend(kids[t])

    # value[t][s]: the best weight in the subtree of t among stable sets that
    # meet bag t in s. A child's table is forgotten down to the part of its
    # bag it shares with the parent, keeping the best child state per
    # projection; each parent state joins the child state its own projection
    # selects, counting the shared weight once.
    value: dict[int, dict[int, object]] = {}
    pick: dict[int, dict[int, tuple[object, int]]] = {}
    for t in reversed(order):
        own_t = own.pop(t)
        table = dict(own_t)
        for u in kids[t]:
            shared = bags[t] & bags[u]
            best: dict[int, tuple[object, int]] = {}
            for s, val in value.pop(u).items():
                key = s & shared
                if key not in best or val > best[key][0]:
                    best[key] = (val, s)
            for s in table:
                key = s & shared
                table[s] += best[key][0] - own_t[key]
            pick[u] = best
        value[t] = table

    top = value[0]
    chosen = {0: max(top, key=top.__getitem__)}
    for t in order:
        for u in kids[t]:
            chosen[u] = pick[u][chosen[t] & bags[t] & bags[u]][1]
    wit = 0
    for s in chosen.values():
        wit |= s
    return wit, top[chosen[0]]


def naive_is_embedding(mapping, pattern: Graph, host: Graph) -> bool:
    """Whether mapping is an induced embedding of pattern into host: its
    keys are pattern's ids, its values distinct host ids, and every pair of
    pattern vertices is adjacent exactly when its images are."""
    m = mapping
    if not all(type(a) is int for a in m) or set(m) != set(pattern.vertices):
        return False
    if not all(type(v) is int and 0 <= v < host.n for v in m.values()):
        return False
    if len(set(m.values())) != len(m):
        return False
    return all(pattern.has_edge(a, b) == host.has_edge(m[a], m[b])
               for a, b in combinations(pattern.vertices, 2))


def reference_backtrack_induced(g: Graph, h: Graph, order=None) -> Embedding | None:
    """The induced matcher the package used before its mask-driven one:
    pattern vertices in id order, or in the given vertex order, host
    candidates ascending, a degree filter and forward checking through
    ``Graph.has_edge``. Returns the same first embedding, keyed by h's own
    ids, so the two are compared mapping for mapping."""
    if h.n == 0:
        return Embedding({})
    if h.n > g.n:
        return None
    order = list(h.vertices if order is None else order)
    full = (1 << g.n) - 1
    domains = []
    for u in h.vertices:
        du = h.degree(u)
        m = 0
        for v in g.vertices:
            if g.degree(v) >= du:
                m |= 1 << v
        if not m:
            return None
        domains.append(m)

    assign: dict[int, int] = {}

    def rec(i: int, doms: list[int]) -> bool:
        if i == h.n:
            return True
        u = order[i]
        m = doms[u]
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            nbr = g.adj_mask(v)
            new_doms = list(doms)
            ok = True
            for p in order[i + 1:]:
                if h.has_edge(p, u):
                    nd = new_doms[p] & nbr
                else:
                    nd = new_doms[p] & ~nbr & full
                nd &= ~b
                if not nd:
                    ok = False
                    break
                new_doms[p] = nd
            if not ok:
                continue
            assign[u] = v
            if rec(i + 1, new_doms):
                return True
            del assign[u]
        return False

    if rec(0, domains):
        return Embedding(dict(assign))
    return None


def naive_line_graph(g: Graph) -> tuple[Graph, dict[tuple[int, int], int]]:
    """L(G) and the edge-to-vertex map, by testing every pair of edges for
    a shared endpoint; ids follow the lexicographic order of g's edges."""
    es = g.edges()
    ids = {e: i for i, e in enumerate(es)}
    out = []
    for i, (u, v) in enumerate(es):
        for j in range(i + 1, len(es)):
            x, y = es[j]
            if u in (x, y) or v in (x, y):
                out.append((i, j))
    return Graph(len(es), out), ids


def naive_subdivide(g: Graph, counts) -> Graph:
    """``graphs.subdivide`` as it was before it built its masks in one pass:
    the edge set, a second walk over the edges in order, and every output
    edge re-checked by ``Graph(n, edges)``."""
    known = set(g.edges())
    norm_counts = {}
    for e, c in counts.items():
        pair = type(e) is tuple and len(e) == 2 and type(e[0]) is int and type(e[1]) is int
        ne = norm_edge(*e) if pair else None
        if ne not in known:
            raise PreconditionError(f"unknown edge key {e!r}")
        if not (type(c) is int and c >= 0):
            raise PreconditionError(f"subdivision count {c!r} for {e} is not an integer >= 0")
        if ne in norm_counts:
            raise PreconditionError(f"edge {ne} is keyed twice")
        norm_counts[ne] = c
    edges = []
    nxt = g.n
    for e in g.edges():
        c = norm_counts.get(e, 0)
        u, v = e
        if c == 0:
            edges.append((u, v))
            continue
        chain = [u] + list(range(nxt, nxt + c)) + [v]
        nxt += c
        edges.extend(zip(chain, chain[1:]))
    return Graph(nxt, edges)


def reference_wall(t: int) -> Graph:
    """Elementary t-by-t wall, as ``graphs._gen_wall`` built it before it
    dropped the two degree-one corners by rule.

    Coordinate rule: start from the grid fragment with rows 0..t and columns
    0..2t+1, keep all horizontal edges, keep the vertical edge between
    (r, c) and (r+1, c) exactly when r + c is even, then prune degree-one
    vertices until none remain. Ids are dense in (row, column) order.
    """
    rows, cols = t + 1, 2 * t + 2
    verts = {(r, c) for r in range(rows) for c in range(cols)}
    edges = set()
    for r in range(rows):
        for c in range(cols - 1):
            edges.add(((r, c), (r, c + 1)))
    for r in range(rows - 1):
        for c in range(cols):
            if (r + c) % 2 == 0:
                edges.add(((r, c), (r + 1, c)))
    while True:
        deg = {v: 0 for v in verts}
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        drop = {v for v, d in deg.items() if d <= 1}
        if not drop:
            break
        verts -= drop
        edges = {(a, b) for a, b in edges if a not in drop and b not in drop}
    order = sorted(verts)
    ids = {v: i for i, v in enumerate(order)}
    return Graph(len(order), [(ids[a], ids[b]) for a, b in edges])


def naive_branch_paths(wall: Graph) -> list[int]:
    """For each edge of wall, in ``wall.edges()`` order, the index of the
    lowest edge of its branch path: edges that meet at a vertex of degree 2
    are joined, pair by pair."""
    edges = wall.edges()
    path_of = list(range(len(edges)))
    for i, (a, b) in enumerate(edges):
        for j in range(i):
            shared = {a, b} & set(edges[j])
            if shared and wall.degree(shared.pop()) == 2:
                lo, hi = sorted((path_of[i], path_of[j]))
                path_of = [lo if p == hi else p for p in path_of]
    return path_of


def reference_pattern_profile(adj: tuple[int, ...]) -> tuple:
    """The matcher's pattern profile, ``patterns._pattern_need``'s degrees
    and triangle mask with ``patterns._pattern_steps``, recomputed: each
    step's plan is ``naive_step_plan``'s, its bound ``naive_orbit_bounds``'
    and its twin classes are found by comparing neighbourhoods, every later
    id tested against u's mask."""
    k = len(adj)
    head, size, last = list(range(k)), [0] * k, {}
    for u, m in enumerate(adj):
        closed = m | 1 << u
        p = max(last.get(m, -1), last.get(closed, -1))
        if p >= 0:
            head[u] = head[p]
        size[head[u]] += 1
        last[m] = last[closed] = u
    runs = [(h, c) for h, c in enumerate(size) if c > 1]
    above = naive_orbit_bounds(adj)
    steps = tuple((nbrs, non, above[u],
                   tuple(r for r in runs
                         if r[0] > u and any(adj[r[0]] >> q & 1 for q in range(u + 1))),
                   woken, need, root)
                  for u, (nbrs, non, woken, need, root) in enumerate(naive_step_plan(adj)))
    return tuple(m.bit_count() for m in adj), _triangle_mask(adj), steps


def naive_step_plan(adj: tuple[int, ...]) -> list[tuple]:
    """Per step u of the pattern with adjacency masks adj, matched in id
    order, ``(reached neighbours, reached non-neighbours, woken, need,
    root)`` recomputed from sets: the later vertices with a neighbour among
    0..u-1, adjacent to u and not; those whose first such neighbour is u;
    the need, highest degree first, of the later vertices with no
    neighbour among 0..u, each counted with its degree and triangle
    membership; and whether u has no earlier neighbour. Each pair of
    vertices is tested on its own."""
    k = len(adj)

    def adjacent(a: int, b: int) -> bool:
        return bool(adj[a] >> b & 1)

    degree = [sum(adjacent(x, y) for y in range(k)) for x in range(k)]
    in_tri = [any(adjacent(a, b)
                  for a, b in combinations([y for y in range(k) if adjacent(x, y)], 2))
              for x in range(k)]
    plan = []
    for u in range(k):
        before = {p for p in range(u + 1, k) if any(adjacent(p, q) for q in range(u))}
        after = {p for p in range(u + 1, k) if any(adjacent(p, q) for q in range(u + 1))}
        unreached = set(range(u + 1, k)) - after
        need = tuple((d, sum(degree[p] >= d for p in unreached),
                      sum(degree[p] >= d and in_tri[p] for p in unreached))
                     for d in sorted({degree[p] for p in unreached}, reverse=True))
        plan.append((tuple(sorted(p for p in before if adjacent(p, u))),
                     tuple(sorted(p for p in before if not adjacent(p, u))),
                     tuple(sorted(after - before)), need,
                     not any(adjacent(u, q) for q in range(u))))
    return plan


def naive_orbit_bounds(adj: tuple[int, ...]) -> list[int]:
    """Per vertex u of the graph with adjacency masks adj, the largest v < u
    such that some automorphism fixes 0..v-1 and maps v to u, or -1. Every
    automorphism is listed by extending a map vertex by vertex, in id order,
    through every image of the same degree that keeps adjacency to the
    vertices mapped so far; a non-identity one fixes 0..v-1 for v its least
    moved vertex."""
    k = len(adj)
    above = [-1] * k
    degree = [m.bit_count() for m in adj]

    def extend(perm: list[int]) -> None:
        i = len(perm)
        if i == k:
            v = next((x for x in range(k) if perm[x] != x), None)
            if v is not None:
                above[perm[v]] = max(above[perm[v]], v)
            return
        for w in range(k):
            if w not in perm and degree[w] == degree[i] and all((adj[i] >> j & 1) == (adj[w] >> perm[j] & 1)
                                     for j in range(i)):
                extend(perm + [w])

    extend([])
    return above


def reference_matching_order(adj: tuple[int, ...]) -> tuple[int, ...]:
    """``patterns._matching_order`` as it was before it kept its keys in a
    heap: each next vertex is the unordered one with the greatest key
    (ordered neighbours, degree, minus the position of the earliest-ordered
    neighbour, minus the id), every key recounted at every step."""
    k = len(adj)
    degrees = [m.bit_count() for m in adj]
    first = [k] * k  # the position of each vertex's earliest-ordered neighbour
    order, done, rest = [], 0, set(range(k))
    while rest:
        u = max(rest, key=lambda v: ((adj[v] & done).bit_count(), degrees[v], -first[v], -v))
        for v in _bits(adj[u] & ~done):
            first[v] = min(first[v], len(order))
        order.append(u)
        done |= 1 << u
        rest.remove(u)
    return tuple(order)


def naive_triangle_vertices(g: Graph) -> set[int]:
    """The vertices of g that lie in a triangle, every pair of neighbours
    tested."""
    return {u for u in g.vertices
            if any(g.has_edge(a, b) for a, b in combinations(sorted(g.neighbors(u)), 2))}


def naive_two_core(g: Graph) -> frozenset[int]:
    """The vertices of g's 2-core: while some vertex left has fewer than two
    neighbours left, the least such vertex is removed, one at a time."""
    left = set(g.vertices)
    while True:
        low = [v for v in sorted(left) if len(g.neighbors(v) & left) < 2]
        if not low:
            return frozenset(left)
        left.remove(low[0])


def naive_pattern_need(h: Graph) -> tuple:
    """``patterns._pattern_need``'s need, counted vertex by vertex: per
    degree d of h, highest first, the vertices of degree >= d and those of
    them in a triangle."""
    tri = naive_triangle_vertices(h)
    return tuple((d, sum(h.degree(u) >= d for u in h.vertices),
                  sum(h.degree(u) >= d for u in tri))
                 for d in sorted({h.degree(u) for u in h.vertices}, reverse=True))


def naive_need_shortfall(g: Graph, need: tuple) -> tuple[bool, bool]:
    """Whether g falls short of a need's ``(d, count, in triangles)``
    entries on some degree count, and on some triangle count: fewer
    vertices of degree >= d than count, or fewer of them in a triangle than
    in triangles, each counted vertex by vertex."""
    g_tri = naive_triangle_vertices(g)
    short_deg = short_tri = False
    for d, need_deg, need_tri in need:
        supply = [v for v in g.vertices if g.degree(v) >= d]
        short_deg |= len(supply) < need_deg
        short_tri |= len(g_tri.intersection(supply)) < need_tri
    return short_deg, short_tri


def naive_hall_refuses(g: Graph, h: Graph) -> bool:
    """Whether some degree d of h has more vertices of degree >= d than g
    has, or more of them in a triangle than g has such vertices in a
    triangle: then no injective map, and so no embedding, respects the
    matcher's degree and triangle domains."""
    return any(naive_need_shortfall(g, naive_pattern_need(h)))


def reference_distributions(total: int, bins: int):
    """``patterns._distributions`` as it was before stars and bars: every
    split of total over bins nonnegative counts, first count outermost."""
    if bins == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in reference_distributions(total - first, bins - 1):
            yield (first,) + rest


def reference_lt_free_upto(g: Graph, t: int, size_cap: int,
                           member_budget: int = 200_000) -> LtVerdict:
    """The wall line-graph test as the package ran it before members were
    cached: one member per split over the wall's edges, each rebuilt with
    ``naive_line_graph``/``naive_subdivide`` and matched by
    ``reference_backtrack_induced``, in the same order."""
    wall = generate("wall", t=t)
    return _wall_sweep(g, wall, wall.edges(), size_cap, member_budget,
                       lambda member: reference_backtrack_induced(g, member))


def reference_class_lt_free_upto(g: Graph, t: int, size_cap: int,
                                 member_budget: int = 200_000) -> LtVerdict:
    """``patterns.lt_free_upto`` as it ran before it refused whole levels:
    one member per split over the wall's branch paths, on each path's lowest
    edge, built with ``naive_line_graph``/``naive_subdivide``, refused by
    ``naive_hall_refuses`` as ``_first_embedding``'s Hall check refuses
    it, and otherwise matched by ``reference_backtrack_induced`` in the
    member's ``reference_matching_order``; splits go in the same order."""
    wall, lowest, _ = _wall(t)
    return _wall_sweep(g, wall, lowest, size_cap, member_budget,
                       lambda member: None if naive_hall_refuses(g, member)
                       else reference_backtrack_induced(
                           g, member, reference_matching_order(member._masks)))


def _wall_sweep(g: Graph, wall: Graph, keys, size_cap: int, member_budget: int,
                match) -> LtVerdict:
    """The verdict of matching, level by level, one member per split of s
    subdivisions over the wall edges keys, in ``reference_distributions``
    order, until match returns a witness or member_budget members are
    tested."""
    v_wall, e_wall = wall.n, wall.edge_count()
    s_enum = size_cap - v_wall
    s_fit = g.n - e_wall

    tested = 0
    s_complete = -1
    for s in range(0, min(s_fit, s_enum) + 1):
        for dist in reference_distributions(s, len(keys)):
            if tested >= member_budget:
                return LtVerdict(
                    status="inconclusive",
                    certified_cap=e_wall + s_complete,
                    members_tested=tested,
                    notes=[f"member budget {member_budget} exhausted at s={s}"],
                )
            member, _ = naive_line_graph(naive_subdivide(wall, dict(zip(keys, dist))))
            tested += 1
            emb = match(member)
            if emb is not None:
                return LtVerdict(
                    status="witness",
                    certified_cap=e_wall + max(s_enum, 0),
                    witness=emb,
                    members_tested=tested,
                )
        s_complete = s

    certified_cap = e_wall + s_enum
    if s_fit < 0 or s_complete >= s_fit:
        return LtVerdict(status="free", certified_cap=max(certified_cap, g.n),
                         members_tested=tested)
    return LtVerdict(status="inconclusive", certified_cap=certified_cap,
                     members_tested=tested)


def reference_assemble_td(g: Graph, sep_oracle, c=Fraction(1, 2)) -> AssembleResult:
    """assemble_td as the package ran it on neighbour sets, before its
    recursion state became vertex masks: frozenset regions and boundary
    pieces, components by ``naive_components`` and each child's boundary
    found by scanning the bag for neighbours of the component. Makes the
    same oracle calls in the same order; skips the final validation and
    bound check, which the package applies to its own result."""
    c = Fraction(c)
    adj = edge_list_adjacency(g.n, g.edges())
    bags: dict[int, frozenset[int]] = {}
    tree_edges: list[tuple[int, int]] = []
    oracle_alphas: list[int] = []

    def comps(removed):
        return sorted(naive_components(g, removed), key=min)

    def call_oracle(univ, heavy):
        sub, to_sub, to_host = g.induced(univ)
        w = WeightFn(to_sub[v] for v in heavy)
        x_sub = frozenset(sep_oracle(sub, w))
        if not all(w.weight(comp) <= c for comp in naive_components(sub, x_sub)):
            raise OracleContractError("oracle output is not a balanced separator", (sub, w))
        x = frozenset(to_host[v] for v in x_sub)
        oracle_alphas.append(naive_alpha(g, x))
        return x

    def new_node(bag):
        bags[len(bags)] = bag
        return len(bags) - 1

    def decompose(region, boundary):
        bverts = frozenset().union(*boundary) if boundary else frozenset()
        if not region:
            return new_node(bverts)
        univ = region | bverts
        x = call_oracle(univ, univ)
        outside = frozenset(g.vertices) - region
        rest = comps(outside | x)
        if len(rest) == 1 and rest[0] == region:
            x = x | call_oracle(univ, region)
            rest = comps(outside | x)
        bag = bverts | x
        node = new_node(bag)
        for comp in rest:
            nb = frozenset(u for u in bag if any(v in adj[u] for v in comp))
            child_boundary = [p & nb for p in boundary if p & nb]
            if x & nb:
                child_boundary.append(x & nb)
            child = decompose(comp, child_boundary)
            tree_edges.append((node, child))
        return node

    decompose(frozenset(g.vertices), [])
    td = TreeDecomposition(Graph(len(bags), tree_edges), dict(bags))
    return AssembleResult(td, oracle_alphas, max(oracle_alphas, default=0))


# -- networkx: an independent third party at 30-40 vertices --------------------


def nx_graph(g: Graph) -> nx.Graph:
    """g as a networkx graph on the nodes 0..n-1."""
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def nx_mwis(g: Graph, weights: dict[int, int]) -> int:
    """Maximum weight of a stable set, as networkx's maximum weight clique
    of the complement; the weights are integers >= 0, 0 where absent."""
    comp = nx.complement(nx_graph(g))
    nx.set_node_attributes(comp, {v: weights.get(v, 0) for v in range(g.n)}, "weight")
    return nx.max_weight_clique(comp, weight="weight")[1]


def nx_alpha(g: Graph) -> int:
    """Stability number, as networkx's maximum clique of the complement."""
    return nx_mwis(g, {v: 1 for v in range(g.n)})


def nx_contains_induced(g: Graph, h: Graph) -> bool:
    """Whether h is an induced subgraph of g, by networkx's node-induced
    VF2 subgraph isomorphism."""
    return nx.isomorphism.GraphMatcher(nx_graph(g), nx_graph(h)).subgraph_is_isomorphic()


def nx_components(g: Graph, removed=frozenset()) -> set[frozenset[int]]:
    """The connected components of g minus removed, by networkx."""
    rest = nx_graph(g)
    rest.remove_nodes_from(removed)
    return {frozenset(c) for c in nx.connected_components(rest)}
