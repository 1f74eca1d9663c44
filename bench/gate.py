"""Correctness gate: certificate checks and independent recomputation.

Nothing here calls into ``treealpha``'s algorithms. Graphs are read only
through ``n`` and ``edges()``; patterns, wall members, stability numbers,
tree-alpha and decomposition validity are recomputed by separate, simpler
code, so a fast path that breaks an answer cannot also break its check.
Every check raises ``WrongAnswer`` on failure.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb


class WrongAnswer(Exception):
    """An answer failed its certificate check or disagreed with a recomputation."""


def adjacency(g) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def masks_of(adj: list[set[int]]) -> list[int]:
    return [sum(1 << u for u in nb) for nb in adj]


def graph_masks(g) -> list[int]:
    return masks_of(adjacency(g))


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- induced embeddings ---------------------------------------------------------


def embedding_ok(pattern: list[set[int]], host: list[set[int]], mapping) -> bool:
    """True when ``mapping`` is an injective induced copy of pattern in host."""
    if mapping is None or set(mapping) != set(range(len(pattern))):
        return False
    image = [mapping[a] for a in range(len(pattern))]
    if len(set(image)) != len(image) or not all(0 <= x < len(host) for x in image):
        return False
    for a in range(len(pattern)):
        for b in range(a + 1, len(pattern)):
            if (b in pattern[a]) != (image[b] in host[image[a]]):
                return False
    return True


def find_induced(pattern: list[set[int]], host: list[set[int]]) -> dict | None:
    """Plain backtracking induced-subgraph search, pattern vertices in BFS order."""
    k = len(pattern)
    if k == 0:
        return {}
    order: list[int] = []
    seen: set[int] = set()
    for root in range(k):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        for x in queue:
            order.append(x)
            for y in sorted(pattern[x]):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
    earlier = {x: order[:i] for i, x in enumerate(order)}
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def rec(i: int) -> bool:
        if i == k:
            return True
        x = order[i]
        placed_nbrs = [mapping[y] for y in earlier[x] if y in pattern[x]]
        if placed_nbrs:
            cands = set(host[placed_nbrs[0]])
            for h in placed_nbrs[1:]:
                cands &= host[h]
        else:
            cands = set(range(len(host)))
        for v in sorted(cands - used):
            if len(host[v]) < len(pattern[x]):
                continue
            if any((y in pattern[x]) != (mapping[y] in host[v]) for y in earlier[x]):
                continue
            mapping[x] = v
            used.add(v)
            if rec(i + 1):
                return True
            used.discard(v)
            del mapping[x]
        return False

    return dict(mapping) if rec(0) else None


def triangle_count(host: list[set[int]]) -> int:
    return sum(
        1
        for u in range(len(host))
        for v in host[u]
        if v > u
        for w in host[u] & host[v]
        if w > v
    )


# -- named patterns, numbered as the generators document them -------------------


def _from_edges(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def s_ttt_pattern(t: int) -> list[set[int]]:
    edges = []
    for leg in range(3):
        base = 1 + leg * t
        edges.append((0, base))
        edges.extend((base + i, base + i + 1) for i in range(t - 1))
    return _from_edges(3 * t + 1, edges)


def k_tt_pattern(t: int) -> list[set[int]]:
    return _from_edges(2 * t, [(i, t + j) for i in range(t) for j in range(t)])


def _subdivided(n: int, edges: list[tuple[int, int]], counts) -> tuple[int, list]:
    """Subdivision numbered like the package: new ids appended per sorted edge."""
    out = []
    nxt = n
    for (u, v), c in zip(edges, counts):
        chain = [u, *range(nxt, nxt + c), v]
        nxt += c
        out.extend((min(a, b), max(a, b)) for a, b in zip(chain, chain[1:]))
    return nxt, sorted(out)


def k_gamma_2_pattern(gamma: int) -> list[set[int]]:
    edges = [(i, j) for i in range(gamma) for j in range(i + 1, gamma)]
    n, sub = _subdivided(gamma, edges, [2] * len(edges))
    return _from_edges(n, sub)


def wall_edges(t: int) -> tuple[int, list[tuple[int, int]]]:
    """Elementary t-wall by the coordinate rule the package documents."""
    rows, cols = t + 1, 2 * t + 2
    verts = {(r, c) for r in range(rows) for c in range(cols)}
    edges = {((r, c), (r, c + 1)) for r in range(rows) for c in range(cols - 1)}
    edges |= {((r, c), (r + 1, c)) for r in range(rows - 1) for c in range(cols)
              if (r + c) % 2 == 0}
    while True:
        deg = dict.fromkeys(verts, 0)
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        drop = {v for v, d in deg.items() if d <= 1}
        if not drop:
            break
        verts -= drop
        edges = {(a, b) for a, b in edges if a not in drop and b not in drop}
    ids = {v: i for i, v in enumerate(sorted(verts))}
    return len(ids), sorted((min(ids[a], ids[b]), max(ids[a], ids[b])) for a, b in edges)


def line_of(edges: list[tuple[int, int]]) -> list[set[int]]:
    """Line graph with vertex ids in the lexicographic order of the edges."""
    at: dict[int, list[int]] = {}
    for i, (u, v) in enumerate(sorted(edges)):
        at.setdefault(u, []).append(i)
        at.setdefault(v, []).append(i)
    adj: list[set[int]] = [set() for _ in edges]
    for group in at.values():
        for i in group:
            adj[i].update(j for j in group if j != i)
    return adj


def wall_members(t: int, s: int):
    """Line graphs of every subdivision of the t-wall with s extra vertices."""
    n, edges = wall_edges(t)
    for picks in combinations_with_replacement(range(len(edges)), s):
        counts = [0] * len(edges)
        for e in picks:
            counts[e] += 1
        _, sub = _subdivided(n, edges, counts)
        yield line_of(sub)


def members_upto(t: int, s: int) -> int:
    """Number of members with at most s extra vertices."""
    e = len(wall_edges(t)[1])
    return sum(comb(k + e - 1, e - 1) for k in range(s + 1))


# -- lt_free_upto verdicts --------------------------------------------------------


def no_member_upto(host: list[set[int]], t: int, s_max: int) -> None:
    """Prove that no member with at most s_max extra vertices is induced in host.

    Each member has one triangle per degree-3 wall vertex and no other, so a
    host with fewer triangles than that contains none; otherwise every member
    is searched for.
    """
    if s_max < 0:
        return
    n, edges = wall_edges(t)
    branch = sum(1 for v in range(n) if sum(v in e for e in edges) == 3)
    if triangle_count(host) < branch:
        return
    for s in range(s_max + 1):
        for member in wall_members(t, s):
            if find_induced(member, host) is not None:
                raise WrongAnswer(f"host contains a member with s={s}")


def check_lt(verdict, host_graph, t: int, size_cap: int, budget: int) -> None:
    host = adjacency(host_graph)
    n_wall, edges = wall_edges(t)
    e_wall = len(edges)
    s_max = min(len(host) - e_wall, size_cap - n_wall)
    if verdict.status == "witness":
        k = len(verdict.witness.mapping) if verdict.witness else -1
        s = k - e_wall
        if not (0 <= s <= s_max):
            raise WrongAnswer(f"witness has {k} vertices, outside the members searched")
        if not any(embedding_ok(m, host, verdict.witness.mapping) for m in wall_members(t, s)):
            raise WrongAnswer("witness is not an induced copy of any member of its size")
    elif verdict.status == "free":
        if verdict.members_tested > budget:
            raise WrongAnswer("free verdict beyond the member budget")
        if verdict.certified_cap < len(host):
            raise WrongAnswer("free verdict does not cover the host")
        no_member_upto(host, t, s_max)
    elif verdict.status == "inconclusive":
        if members_upto(t, s_max) <= budget or verdict.members_tested != budget:
            raise WrongAnswer("inconclusive verdict without an exhausted budget")
        s_done = max(s for s in range(s_max + 1) if members_upto(t, s) <= budget)
        if verdict.certified_cap != e_wall + s_done:
            raise WrongAnswer(f"certified_cap {verdict.certified_cap} != {e_wall + s_done}")
        no_member_upto(host, t, s_done)
    else:
        raise WrongAnswer(f"unknown verdict status {verdict.status!r}")


# -- find_pattern answers -----------------------------------------------------------


def has_s_ttt(host: list[set[int]], t: int) -> bool:
    """Centre plus three pairwise anticomplete induced legs of t vertices."""
    hm = masks_of(host)
    for c in range(len(host)):
        if len(host[c]) < 3:
            continue
        legs: list[tuple[int, int]] = []  # (vertex mask, closed-neighbourhood mask)

        def grow(path: list[int], vmask: int, forbidden: int):
            if len(path) == t:
                closed = vmask
                for x in path:
                    closed |= hm[x]
                legs.append((vmask, closed & ~(1 << c)))
                return
            last = path[-1] if path else c
            for y in bits(hm[last] & ~forbidden):
                grow(path + [y], vmask | (1 << y), forbidden | hm[last] | (1 << y))

        grow([], 0, (1 << c))
        for i, (a, na) in enumerate(legs):
            for j in range(i + 1, len(legs)):
                b, nb = legs[j]
                if b & na:
                    continue
                for cm, nc in legs[j + 1:]:
                    if not (cm & na) and not (cm & nb):
                        return True
    return False


def has_k_tt(host: list[set[int]], t: int) -> bool:
    """Two stable t-sets, complete to each other."""
    hm = masks_of(host)

    def stable_subsets(cands: int, size: int):
        """Stable size-subsets of cands, each once (later vertices after v)."""
        if size == 0:
            yield 0
            return
        for v in bits(cands):
            for rest in stable_subsets(cands & ~hm[v] & ~((2 << v) - 1), size - 1):
                yield rest | (1 << v)

    full = (1 << len(host)) - 1
    for a in stable_subsets(full, t):
        common = full
        for v in bits(a):
            common &= hm[v]
        if common.bit_count() >= t and next(stable_subsets(common, t), None) is not None:
            return True
    return False


PATTERNS = {
    "s_ttt": lambda spec: s_ttt_pattern(spec.t),
    "k_tt": lambda spec: k_tt_pattern(spec.t),
    "k_gamma_2": lambda spec: k_gamma_2_pattern(spec.gamma),
}


def check_find_pattern(emb, host_graph, spec) -> None:
    host = adjacency(host_graph)
    pattern = PATTERNS[spec.kind](spec)
    if emb is not None:
        if not embedding_ok(pattern, host, emb.mapping):
            raise WrongAnswer(f"{spec.kind} embedding is not an induced copy")
        return
    if spec.kind == "s_ttt":
        present = has_s_ttt(host, spec.t)
    elif spec.kind == "k_tt":
        present = has_k_tt(host, spec.t)
    else:
        present = find_induced(pattern, host) is not None
    if present:
        raise WrongAnswer(f"host contains {spec.kind} but the search returned None")


# -- stable sets ---------------------------------------------------------------------


def check_stable(adj: list[set[int]], vs) -> None:
    vs = list(vs)
    if any(not (0 <= v < len(adj)) for v in vs) or len(set(vs)) != len(vs):
        raise WrongAnswer("stable set has vertices outside the graph or repeats")
    for i, a in enumerate(vs):
        for b in vs[i + 1:]:
            if b in adj[a]:
                raise WrongAnswer(f"stable set contains the edge ({a},{b})")


def max_weight_stable(masks: list[int], weight, mask: int | None = None) -> int:
    """Exact maximum weight of a stable set in the masked subgraph.

    Memoised include/exclude branching on a vertex of maximum degree, with
    isolated vertices taken outright; unrelated to the package's clique-cover
    branch and bound.
    """
    if mask is None:
        mask = (1 << len(masks)) - 1

    @lru_cache(maxsize=None)
    def best(m: int) -> int:
        total = 0
        pick, pick_deg = -1, 0
        for v in bits(m):
            d = (masks[v] & m).bit_count()
            if d == 0:
                total += weight[v]
                m &= ~(1 << v)
            elif d > pick_deg:
                pick, pick_deg = v, d
        if pick < 0:
            return total
        bit = 1 << pick
        return total + max(best(m & ~bit), weight[pick] + best(m & ~bit & ~masks[pick]))

    return best(mask)


def alpha(masks: list[int], mask: int | None = None) -> int:
    return max_weight_stable(masks, [1] * len(masks), mask)


def check_mwis(answer, adj: list[set[int]], weights: dict[int, int], expected: int) -> None:
    wit, val = answer
    check_stable(adj, wit)
    if sum(weights.get(v, 0) for v in wit) != val:
        raise WrongAnswer(f"witness weight differs from the returned value {val}")
    if val != expected:
        raise WrongAnswer(f"returned value {val}, recomputed optimum {expected}")


def strip_mwis(k: int, length: int, weights: dict[int, int]) -> int:
    """Optimum on the k-by-length grid, ids column-major, by a column transfer DP."""
    rows = [s for s in range(1 << k) if not (s & (s >> 1))]
    best = {s: 0 for s in rows}
    for c in range(length):
        col = {s: sum(weights.get(c * k + r, 0) for r in bits(s)) for s in rows}
        best = {s: col[s] + max(v for p, v in best.items() if not (p & s)) for s in rows}
    return max(best.values())


# -- tree decompositions ---------------------------------------------------------------


def check_td(g, td) -> None:
    """The three defining conditions, with a vertex-to-nodes index."""
    nodes = td.tree.n
    if set(td.bags) != set(range(nodes)):
        raise WrongAnswer("bag keys do not match the tree nodes")
    tadj = adjacency(td.tree)
    if nodes and (sum(map(len, tadj)) // 2 != nodes - 1 or _reach(tadj, {0}, set(range(nodes))) != nodes):
        raise WrongAnswer("decomposition tree is not a tree")
    holders: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for node, bag in td.bags.items():
        for v in bag:
            if v not in holders:
                raise WrongAnswer(f"bag {node} holds vertex {v} outside the graph")
            holders[v].add(node)
    for v, hs in holders.items():
        if not hs:
            raise WrongAnswer(f"vertex {v} is in no bag")
        if _reach(tadj, {min(hs)}, hs) != len(hs):
            raise WrongAnswer(f"bags holding vertex {v} are not connected")
    for u, v in g.edges():
        if not holders[u] & holders[v]:
            raise WrongAnswer(f"edge ({u},{v}) is in no bag")


def _reach(adj: list[set[int]], start: set[int], allowed: set[int]) -> int:
    seen = set(start)
    stack = list(start)
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y in allowed and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen)


def td_states(g, td) -> int:
    """Sum over bags of the number of stable subsets of the bag."""
    masks = graph_masks(g)
    total = 0
    for bag in td.bags.values():
        verts = sorted(bag)
        local = [sum(1 << j for j, u in enumerate(verts) if masks[v] >> u & 1) for v in verts]

        def count(i: int, banned: int) -> int:
            if i == len(verts):
                return 1
            out = count(i + 1, banned)
            if not banned >> i & 1:
                out += count(i + 1, banned | local[i])
            return out

        total += count(0, 0)
    return total


def tree_alpha(g) -> int:
    """Tree independence number by dynamic programming over eliminated sets.

    TA(S) = min over v in S of max(TA(S - v), alpha({v} + Q(S - v, v))), where
    Q(S, v) is the set of vertices outside S + v reachable from v through S:
    the bag v gets when eliminated after S. Exponential in n, fine for n <= 12.
    """
    n = g.n
    if n == 0:
        return 0
    masks = graph_masks(g)

    def q(s: int, v: int) -> int:
        reached = 1 << v
        frontier = 1 << v
        while frontier:
            nxt = 0
            for x in bits(frontier):
                nxt |= masks[x]
            nxt &= ~reached
            reached |= nxt
            frontier = nxt & s
        return reached & ~s

    bag_alpha: dict[int, int] = {}

    def cost(bag: int) -> int:
        if bag not in bag_alpha:
            bag_alpha[bag] = alpha(masks, bag)
        return bag_alpha[bag]

    table = {0: 0}
    for size in range(1, n + 1):
        for s in _subsets_of_size(n, size):
            table[s] = min(
                max(table[s & ~(1 << v)], cost(q(s & ~(1 << v), v)))
                for v in bits(s)
            )
    return table[(1 << n) - 1]


def _subsets_of_size(n: int, k: int):
    if k == 0:
        yield 0
        return
    s = (1 << k) - 1
    while s < 1 << n:
        yield s
        low = s & -s
        ripple = s + low
        s = (((ripple ^ s) >> 2) // low) | ripple
