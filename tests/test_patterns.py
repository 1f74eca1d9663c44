"""Pattern detection: the one induced matcher behind contains_induced,
find_pattern and lt_free_upto, its symmetry breaking by automorphism
orbits, and wall freeness, each cross-checked against the search it
replaced."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from math import comb
from pathlib import Path

import networkx as nx
import pytest

import treealpha
from treealpha import graphs, patterns
from treealpha.errors import CapExceededError, InvariantViolationError, PreconditionError
from treealpha.graphs import Graph, generate, line_graph, subdivide
from treealpha.patterns import (
    Embedding,
    PatternSpec,
    contains_induced,
    find_pattern,
    lt_free_upto,
)

from .oracles import (
    naive_branch_paths,
    naive_contains_induced,
    naive_hall_refuses,
    naive_is_embedding,
    naive_line_graph,
    naive_orbit_bounds,
    naive_pattern_need,
    naive_step_plan,
    naive_subdivide,
    naive_triangle_vertices,
    nx_contains_induced,
    nx_graph,
    reference_backtrack_induced,
    reference_class_lt_free_upto,
    reference_distributions,
    reference_lt_free_upto,
    reference_matching_order,
    reference_pattern_profile,
    reference_wall,
)


def _random_bipartite(rng: random.Random, n: int, p: float) -> Graph:
    """A triangle-free random graph: edges only across a random split."""
    side = [rng.random() < 0.5 for _ in range(n)]
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if side[u] != side[v] and rng.random() < p])


def _random_pair(rng: random.Random) -> tuple[Graph, Graph]:
    """A host on up to 11 vertices and a pattern on up to 6, each either
    G(n, p) or triangle-free; half the patterns are induced subgraphs of
    the host, so that embeddings are frequent."""
    def draw(n):
        if rng.random() < 0.3:
            return _random_bipartite(rng, n, rng.choice([0.4, 0.7]))
        return generate("gnp", n=n, p=rng.choice([0.2, 0.4, 0.6, 0.8]),
                        seed=rng.randrange(10**6))

    g = draw(rng.randint(1, 11))
    if rng.random() < 0.5:
        h = draw(rng.randint(1, 6))
    else:
        verts = rng.sample(range(g.n), rng.randint(1, min(6, g.n)))
        h, _, _ = g.induced(verts)
    return g, h


def _reference_first(g: Graph, h: Graph) -> Embedding | None:
    """The reference matcher's first embedding of h into g in h's
    ``_matching_order``, the order every search of the package matches in,
    keyed by h's own ids."""
    return reference_backtrack_induced(g, h, patterns._matching_order(h._masks))


def _random_host(rng: random.Random, h: Graph, max_n: int) -> Graph:
    """A G(n, p) host on up to max_n vertices, or, half the time, a copy of
    h plus random vertices and edges under a random relabelling, so that
    both hits and misses occur."""
    n = rng.randint(max(1, h.n - 2), max_n)
    p = rng.choice([0.2, 0.35, 0.5, 0.7])
    if rng.random() < 0.5 or n < h.n:
        return generate("gnp", n=n, p=p, seed=rng.randrange(10**6))
    edges = set(h.edges())
    edges |= {(u, v) for u in range(n) for v in range(max(u + 1, h.n), n) if rng.random() < p}
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def _class_members(t: int, s: int):
    """The member lt_free_upto tests for each split of s subdivisions over
    the t-wall's branch paths."""
    _, lowest, _ = patterns._wall(t)
    for split in patterns._distributions(s, len(lowest)):
        yield patterns._member(t, split)


def _check_against_reference(g: Graph, t: int, size_cap: int, budget: int = 200_000):
    """lt_free_upto against the per-edge reference: the same status and
    certified_cap where the reference is definite; where its budget binds, a
    cap at least as high and, if definite, the unbudgeted status. A witness
    has the reference witness's size and embeds a tested member."""
    got = lt_free_upto(g, t, size_cap, budget)
    want = reference_lt_free_upto(g, t, size_cap, budget)
    if want.status == "inconclusive":
        assert got.certified_cap >= want.certified_cap
        if got.status == "inconclusive":
            return got, want
        settled = reference_lt_free_upto(g, t, size_cap)
    else:
        assert got.certified_cap == want.certified_cap
        settled = want
    assert got.status == settled.status
    if got.status == "witness":
        k = len(got.witness.mapping)
        assert k == len(settled.witness.mapping)
        s = k - generate("wall", t=t).edge_count()
        assert any(got.witness.verify(m, g) for m in _class_members(t, s))
    return got, want


def _planted(t: int, s: int, pendants: int, rng: random.Random,
             counts: dict | None = None) -> Graph:
    """L(t-wall with s random subdivisions, or with the given counts per
    wall edge) plus pendant vertices, relabelled."""
    wall = generate("wall", t=t)
    if counts is None:
        counts = {}
        for _ in range(s):
            e = rng.choice(wall.edges())
            counts[e] = counts.get(e, 0) + 1
    member, _ = line_graph(subdivide(wall, counts))
    n = member.n
    edges = member.edges() + [(rng.randrange(n), n + j) for j in range(pendants)]
    perm = list(range(n + pendants))
    rng.shuffle(perm)
    return Graph(n + pendants, [(perm[u], perm[v]) for u, v in edges])


class TestContainsInduced:
    def test_c5_contains_p3(self):
        emb = contains_induced(generate("cycle", k=5), generate("path", k=3))
        assert emb is not None

    def test_c4_has_no_induced_p4(self):
        assert contains_induced(generate("cycle", k=4), generate("path", k=4)) is None

    def test_self_match_is_identity(self):
        g = generate("gnp", n=8, p=0.4, seed=5)
        emb = contains_induced(g, g)
        assert emb is not None
        assert emb.mapping == {v: v for v in g.vertices}

    def test_cap(self):
        with pytest.raises(CapExceededError):
            contains_induced(Graph(15), Graph(13), cap_override=12)

    def test_empty_pattern_embeds_in_any_host(self):
        assert contains_induced(generate("cycle", k=5), Graph(0)) == Embedding({})
        assert contains_induced(Graph(0), Graph(0)) == Embedding({})

    def test_matches_reference_matcher(self):
        # the same first embedding (or None) as the forward-checking matcher
        # the mask-driven one replaced, run in the same vertex order, on
        # hosts and patterns with and without triangles
        rng = random.Random(2024)
        found = triangle_free = 0
        for _ in range(1200):
            g, h = _random_pair(rng)
            want = _reference_first(g, h)
            got = patterns._first_embedding(g, h)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.mapping == want.mapping
                found += 1
            triangle_free += patterns._triangle_mask(g._masks) == 0
        assert found > 300 and triangle_free > 300

    def test_agrees_with_naive(self):
        rng = random.Random(77)
        for _ in range(200):
            g = generate("gnp", n=rng.randint(1, 8), p=rng.choice([0.3, 0.5, 0.7]),
                         seed=rng.randrange(10**6))
            h = generate("gnp", n=rng.randint(1, 4), p=rng.choice([0.3, 0.6]),
                         seed=rng.randrange(10**6))
            got = contains_induced(g, h)
            assert (got is not None) == naive_contains_induced(g, h)
            if got is not None:
                assert got.verify(h, g)


class TestFindPattern:
    def test_s_ttt_identity_on_itself(self):
        g = generate("s_ttt", t=2)
        emb = find_pattern(g, PatternSpec("s_ttt", t=2))
        assert emb is not None and emb.verify(g, g)

    def test_k33_biclique(self):
        g = generate("complete_bipartite", a=3, b=3)
        emb = find_pattern(g, PatternSpec("k_tt", t=3))
        assert emb is not None
        sides = sorted(emb.mapping[i] for i in range(3)), sorted(
            emb.mapping[i] for i in range(3, 6)
        )
        assert sorted(sides[0] + sides[1]) == list(range(6))

    def test_c9_has_no_s222(self):
        assert find_pattern(generate("cycle", k=9), PatternSpec("s_ttt", t=2)) is None

    def test_s_ttt_none_when_max_degree_2(self):
        for g in (generate("path", k=12), generate("cycle", k=12)):
            for t in (1, 2, 3):
                assert find_pattern(g, PatternSpec("s_ttt", t=t)) is None

    def test_monotone_in_t(self):
        rng = random.Random(3)
        hits = 0
        for _ in range(60):
            g = generate("gnp", n=12, p=0.35, seed=rng.randrange(10**6))
            if find_pattern(g, PatternSpec("s_ttt", t=2)) is not None:
                hits += 1
                assert find_pattern(g, PatternSpec("s_ttt", t=1)) is not None
        assert hits > 0

    def test_k_gamma_2_explicit_route(self):
        g = generate("k_gamma_2", gamma=3)
        emb = find_pattern(g, PatternSpec("k_gamma_2", gamma=3))
        assert emb is not None and emb.verify(g, g)

    def test_matches_deleted_searches(self):
        # the same mapping (or None) as the matcher find_pattern ran before
        # its mask-driven one, run in the pattern's matching order
        rng = random.Random(41)
        outcomes = set()
        for _ in range(240):
            kind, t = rng.choice(("s_ttt", "k_tt")), rng.choice((1, 2, 3))
            spec = PatternSpec(kind, t=t)
            g = _random_host(rng, spec.realize(), 14)
            want = _reference_first(g, spec.realize())
            got = find_pattern(g, spec)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.mapping == want.mapping
            outcomes.add((kind, t, got is not None))
        assert len(outcomes) == 12  # hits and misses for every kind and t

    def test_matches_networkx_on_30_vertex_hosts(self):
        specs = [PatternSpec("s_ttt", t=3), PatternSpec("k_tt", t=3),
                 PatternSpec("k_gamma_2", gamma=3)]
        # a miss of networkx's on a dense host takes seconds, so the larger
        # patterns run on the sparse hosts only
        sparse = [PatternSpec("s_ttt", t=5), PatternSpec("k_gamma_2", gamma=4)]
        outcomes = set()
        for p in (0.1, 0.3):
            for seed in (1, 2, 3):
                g = generate("gnp", n=30, p=p, seed=seed)
                for spec in specs + (sparse if p == 0.1 else []):
                    got = find_pattern(g, spec)
                    assert (got is not None) == nx_contains_induced(g, spec.realize())
                    outcomes.add((spec.kind, got is not None))
        assert len(outcomes) == 6  # hits and misses for every kind

    def test_embedding_verify_rejects_bad(self):
        g = generate("cycle", k=4)
        h = generate("path", k=3)
        assert not Embedding({0: 0, 1: 1, 2: 2, 3: 3}).verify(h, g)  # wrong domain
        assert not Embedding({0: 0, 1: 0, 2: 1}).verify(h, g)  # not injective

    def test_embedding_verify_rejects_non_host_images(self):
        p2, p3 = generate("path", k=2), generate("path", k=3)
        assert not Embedding({0: -1, 1: 1}).verify(p2, p3)  # -1 would index vertex 2
        assert not Embedding({0: 0, 1: 5}).verify(Graph(2), p3)
        assert not Embedding({0: 0, 1: "1"}).verify(Graph(2), p3)
        assert Embedding({0: 0, 1: 1}).verify(p2, p3)
        assert not Embedding({0: 0, 1: True}).verify(p2, p3)  # a bool is not an id
        assert not Embedding({0: 1, True: 0}).verify(p2, p3)

    def test_embedding_verify_matches_pairwise_definition(self):
        # verify compares each pattern vertex's neighbourhood mask with its
        # image's within the image; the pairwise definition tests every pair.
        # Maps are random (mostly not injective or not induced) or an induced
        # copy with one image moved, so both answers occur
        rng = random.Random(67)
        answers = Counter()
        for _ in range(3000):
            host = generate("gnp", n=rng.randint(1, 9), p=rng.choice([0.2, 0.5, 0.8]),
                            seed=rng.randrange(10**6))
            k = rng.randint(1, min(6, host.n))
            image = rng.sample(range(host.n), k)
            pattern = Graph(k, [(a, b) for a in range(k) for b in range(a + 1, k)
                                if host.has_edge(image[a], image[b])])
            if rng.random() < 0.5:
                image[rng.randrange(k)] = rng.randrange(host.n)
            else:
                image = [rng.randrange(host.n) for _ in range(k)]
            want = naive_is_embedding(dict(enumerate(image)), pattern, host)
            assert Embedding(dict(enumerate(image))).verify(pattern, host) == want
            answers[want] += 1
        assert answers[True] > 300 and answers[False] > 300

    def test_k_tt_needs_no_alpha_search(self, monkeypatch):
        # a stable pair among 50 common neighbours, with the alpha search
        # (cap 40) made unusable: the B side is the first stable t-subset
        def no_alpha(*args):
            raise AssertionError("k_tt ran the alpha search")

        monkeypatch.setattr(graphs, "_max_weight_stable", no_alpha)
        g = generate("complete_bipartite", a=2, b=50)
        emb = find_pattern(g, PatternSpec("k_tt", t=2))
        assert emb is not None and emb.verify(generate("complete_bipartite", a=2, b=2), g)
        assert emb.mapping == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_bad_spec_rejected(self):
        for kind, t, gamma in (("s_ttt", 0, 3), ("k_tt", 0, 3), ("k_gamma_2", 3, 0),
                               ("explicit", 3, 3), ("k_tt", True, 0), ("s_ttt", "2", 0),
                               ("k_tt", 2.0, 0), ("k_gamma_2", 0, "3"), ("k_gamma_2", 0, True)):
            with pytest.raises(PreconditionError):
                find_pattern(generate("complete", k=4), PatternSpec(kind, t=t, gamma=gamma))

    def test_wrong_embedding_is_refused(self, monkeypatch):
        # P3 mapped onto a triangle: injective, but the image is not induced.
        # K4 meets the Hall need of P3, the claw and K_{1,1}, so each search
        # reaches the matcher. K_{1,1} has two vertices, so the wrong map's
        # key 2 names no vertex of it: still a typed refusal. Whether the
        # profiles are cached or their orbit searches meet the wrong matcher
        # too, each call is refused
        host, p3 = generate("complete", k=4), generate("path", k=3)
        wrong = Embedding({0: 0, 1: 1, 2: 2})
        monkeypatch.setattr(patterns, "_backtrack_induced", lambda *args: wrong)
        with pytest.raises(InvariantViolationError):
            contains_induced(host, p3)
        for spec in (PatternSpec("s_ttt", t=1), PatternSpec("k_tt", t=1)):
            with pytest.raises(InvariantViolationError):
                find_pattern(host, spec)

    def test_hall_check_runs_before_the_steps(self, monkeypatch):
        # S_{1000,1000,1000} has 3001 vertices, fewer than the path's 4000,
        # but a vertex of degree 3: its degrees refuse it, so its matching
        # order, its step plan and its orbits are never built
        for name in ("_matching_order", "_pattern_steps", "_orbit_bounds"):
            def built(*args, name=name):
                raise LookupError(f"{name} built")

            monkeypatch.setattr(patterns, name, built)
            patterns._pattern_profile.cache_clear()
            assert find_pattern(generate("path", k=4000), PatternSpec("s_ttt", t=1000)) is None
            with pytest.raises(LookupError, match=name):  # a claw meets the claw's need
                find_pattern(generate("s_ttt", t=1), PatternSpec("s_ttt", t=1))
            monkeypatch.undo()

    def test_oversized_pattern_is_never_built(self, monkeypatch):
        # a pattern with more vertices than the host is refused before
        # realize() builds it: 3t + 1 for S_{t,t,t}, 2t for K_{t,t} and
        # gamma^2 for K_gamma^2, each checked against the built pattern
        sizes = {"s_ttt": lambda t: 3 * t + 1, "k_tt": lambda t: 2 * t,
                 "k_gamma_2": lambda gamma: gamma ** 2}
        specs = [PatternSpec("s_ttt", t=t) for t in (1, 2, 3)]
        specs += [PatternSpec("k_tt", t=t) for t in (1, 2, 3)]
        specs += [PatternSpec("k_gamma_2", gamma=gamma) for gamma in (1, 2, 3)]
        for spec in specs:
            assert spec.realize().n == sizes[spec.kind](spec.t or spec.gamma)

        def built(*args, **kwargs):
            raise LookupError("pattern built")

        monkeypatch.setattr(patterns, "generate", built)
        patterns._named_pattern.cache_clear()  # earlier tests built some of these
        host = generate("path", k=4)
        for spec in (PatternSpec("k_tt", t=3000), PatternSpec("s_ttt", t=30_000),
                     PatternSpec("k_gamma_2", gamma=3), PatternSpec("s_ttt", t=2),
                     PatternSpec("k_tt", t=3)):
            assert find_pattern(host, spec) is None
        for spec in (PatternSpec("s_ttt", t=1), PatternSpec("k_tt", t=2),
                     PatternSpec("k_gamma_2", gamma=2)):  # the host's 4 vertices: built
            with pytest.raises(LookupError):
                find_pattern(host, spec)


class TestTwinBreaking:
    # K_{1,4}, K_{3,3}, E_3, K_4 and C_4 plus a pendant at vertex 0: twin
    # classes of 4, 3 + 3, 3, 4 and 2 (vertices 1 and 3) vertices
    PATTERNS = (generate("complete_bipartite", a=1, b=4),
                generate("complete_bipartite", a=3, b=3),
                Graph(3), generate("complete", k=4),
                Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]))

    def test_twin_classes(self):
        # runs against the definition: p < u are twins when
        # N(p) - {u} == N(u) - {p}; a step lists the classes whose head is
        # above it and reached, adjacent to one of 0..u
        rng = random.Random(8)
        hs = list(self.PATTERNS) + [generate("gnp", n=rng.randint(1, 7),
                                             p=rng.choice([0.2, 0.5, 0.8]),
                                             seed=rng.randrange(10**6)) for _ in range(300)]
        for h in hs:
            adj = h._masks
            earlier = [[p for p in range(u) if adj[p] & ~(1 << u) == adj[u] & ~(1 << p)]
                       for u in range(h.n)]
            sizes = Counter(min(ps + [u]) for u, ps in enumerate(earlier))
            steps = patterns._pattern_steps(adj)
            reached = 0
            for u, step in enumerate(steps):
                reached |= adj[u]
                assert step[3] == tuple((x, c) for x, c in sorted(sizes.items())
                                        if x > u and c > 1 and reached >> x & 1)
        assert patterns._pattern_steps(self.PATTERNS[1]._masks)[0][3] == ((3, 3),)

    def test_orbit_bounds(self):
        # each step's bound against every automorphism listed by the naive
        # oracle, on every atlas graph with at most 6 vertices, and on
        # S_{2,2,2}, K_{3,3} and K_3^2, in id order and in matching order
        hs = [Graph(g.number_of_nodes(), g.edges()) for g in nx.graph_atlas_g()[:209]]
        assert hs[-1].n == 6 and len(hs) == 1 + 1 + 2 + 4 + 11 + 34 + 156
        hs += [generate("s_ttt", t=2), generate("complete_bipartite", a=3, b=3),
               generate("k_gamma_2", gamma=3)]
        bounded = 0
        for h in hs:
            order = patterns._matching_order(h._masks)
            for adj in (h._masks, graphs._frame(h._masks, (1 << h.n) - 1, order)):
                want = naive_orbit_bounds(adj)
                assert [step[2] for step in patterns._pattern_steps(adj)] == want, h.edges()
                bounded += max(want, default=-1) > 0
        # bounds above 0, so beyond the first vertex's orbit, occur; in
        # S_{2,2,2}'s matching order, centre first, the second leg head is
        # bounded by the first and the third by the second
        assert bounded > 100
        steps = patterns._pattern_profile(hs[-3]._masks)[0][2]
        assert [step[2] for step in steps] == [-1, -1, 1, 2, -1, -1, -1]

    def test_orbit_search_answer_is_checked(self, monkeypatch):
        # on C_5, whose vertices have no twins, so every orbit is searched:
        # an orbit search answering with a map of only some vertices, with
        # the swap of v and w, which is no automorphism, or with the
        # rotation taking v to w, which moves the pinned 0 once v = 1, is
        # refused, typed; the rotation is accepted while v = 0
        c5 = generate("cycle", k=5)
        rotated = []

        def partial(host, pattern, doms):
            return Embedding({0: 0, 1: 1, 2: 2})

        def swap(host, pattern, doms):
            v = next(i for i, m in enumerate(doms) if m != 1 << i)
            w = doms[v].bit_length() - 1
            return Embedding({x: {v: w, w: v}.get(x, x) for x in range(5)})

        def rotation(host, pattern, doms):
            v = next(i for i, m in enumerate(doms) if m != 1 << i)
            rotated.append(v)
            return Embedding({x: (x + doms[v].bit_length() - 1 - v) % 5 for x in range(5)})

        for search in (partial, swap, rotation):
            monkeypatch.setattr(patterns, "_backtrack_induced", search)
            with pytest.raises(InvariantViolationError):
                patterns._pattern_steps(c5._masks)
        assert rotated == [0, 0, 0, 0, 1]

    def test_profile_matches_reference(self):
        # steps read off the masks against steps recomputed pair by pair,
        # on random patterns, edgeless and complete ones among them
        rng = random.Random(23)
        hs = list(self.PATTERNS) + [Graph(0), Graph(1), Graph(6), generate("complete", k=7)]
        hs += [generate("gnp", n=rng.randint(1, 12), p=rng.choice([0.1, 0.3, 0.5, 0.8]),
                        seed=rng.randrange(10**6)) for _ in range(150)]
        hs += [patterns._member(2, (0, 1, 0, 0, 2, 0, 0, 0, 1))]
        for h in hs:
            degrees, tri, need = patterns._pattern_need(h._masks)
            steps = patterns._pattern_steps(h._masks)
            assert (degrees, tri, steps) == reference_pattern_profile(h._masks)
            assert need == naive_pattern_need(h)
            # the cached profile is that of h relabelled into its order
            order = patterns._matching_order(h._masks)
            assert patterns._pattern_profile(h._masks) == (
                reference_pattern_profile(graphs._frame(h._masks, (1 << h.n) - 1, order)), order)

    def test_matches_reference_and_naive(self):
        rng = random.Random(19)
        hits = [0] * len(self.PATTERNS)
        for _ in range(60):
            for i, h in enumerate(self.PATTERNS):
                g = _random_host(rng, h, 9)
                want = _reference_first(g, h)
                got = patterns._first_embedding(g, h)
                assert (got is None) == (want is None) == (not naive_contains_induced(g, h))
                if got is not None:
                    assert got.mapping == want.mapping
                    hits[i] += 1
        assert all(10 < x < 60 for x in hits)

    def test_k_tt_boundary(self):
        # A (t, stable) complete to B (stable) and to a clique D that is
        # complete to B: the common neighbourhood of A holds exactly |B|
        # stable vertices, and no other side of t stable vertices exists
        rng = random.Random(4)
        for t in (2, 3, 4):
            for b, want in ((t, True), (t - 1, False)):
                n = t + b + 2
                ab = [(x, y) for x in range(t) for y in range(t, n)]
                d = [(n - 2, n - 1)] + [(y, z) for y in range(t, t + b) for z in (n - 2, n - 1)]
                perm = list(range(n))
                rng.shuffle(perm)
                g = Graph(n, [(perm[x], perm[y]) for x, y in ab + d])
                emb = find_pattern(g, PatternSpec("k_tt", t=t))
                assert (emb is not None) == want
                ref = _reference_first(g, PatternSpec("k_tt", t=t).realize())
                assert (None if emb is None else emb.mapping) == (
                    None if ref is None else ref.mapping)


def _gnm(rng: random.Random, n: int, m: int) -> Graph:
    """A uniform graph on n vertices with exactly m edges."""
    return Graph(n, rng.sample(list(combinations(range(n), 2)), m))


def _relabel(g: Graph, rng: random.Random, extra: int = 0) -> Graph:
    """g with extra isolated vertices added, under a random relabelling."""
    perm = list(range(g.n + extra))
    rng.shuffle(perm)
    return Graph(g.n + extra, [(perm[u], perm[v]) for u, v in g.edges()])


class TestStepPlan:
    # the plan each step carries: the reached vertices it narrows, the
    # vertices it wakes, and the Hall need of those still unreached

    def test_plan_matches_naive(self):
        # each step's plan in the cached profile against the plan recomputed
        # from sets, on wall members with at most one subdivision and on the
        # named patterns; every atlas graph is in test_atlas
        hs = [m for t in (2, 3) for s in (0, 1) for m in _class_members(t, s)]
        assert len(hs) == 1 + 9 + 1 + 24
        hs += [PatternSpec(kind, t=x, gamma=x).realize()
               for kind in ("s_ttt", "k_tt", "k_gamma_2") for x in (1, 2, 3, 4)]
        for h in hs:
            (_, _, steps), order = patterns._profile(h._masks)
            want = naive_step_plan(graphs._frame(h._masks, (1 << h.n) - 1, order))
            assert [(s[0], s[1], s[4], s[5], s[6]) for s in steps] == want, h.edges()
            # the first vertex is the only root of a connected pattern
            assert [s[6] for s in steps] == [True] + [False] * (h.n - 1)

    def test_matches_reference_on_dense_hosts(self):
        # S_{3,3,3} is absent from every G(22, 0.5) host here, so each call
        # is a refutation, where the Hall rule prunes most; K_{3,3} is in
        # every one, so its first embedding is compared
        found = Counter()
        for seed in range(40):
            g = generate("gnp", n=22, p=0.5, seed=seed)
            for spec in (PatternSpec("s_ttt", t=3), PatternSpec("k_tt", t=3)):
                got = find_pattern(g, spec)
                want = _reference_first(g, spec.realize())
                assert (None if got is None else got.mapping) == (
                    None if want is None else want.mapping), (seed, spec)
                found[spec.kind] += got is not None
        assert found == {"s_ttt": 0, "k_tt": 40}


class TestHallBound:
    """The Hall counting rule ``_first_embedding`` and ``lt_free_upto`` run
    before the matcher: the pattern vertices of degree >= d, and those of
    them in a triangle, need as many such host vertices. Every answer is
    checked mapping for mapping against the reference matcher, which has no
    such rule, run in the pattern's matching order."""

    @staticmethod
    def _members() -> list[Graph]:
        # the classes lt_free_upto tests with s <= 3 on the 6-cycle and
        # s <= 2 on the 2-wall
        return [patterns._member(t, split) for t, top in ((1, 3), (2, 2))
                for s in range(top + 1)
                for split in patterns._distributions(s, len(patterns._wall(t)[1]))]

    @staticmethod
    def _check(g: Graph, h: Graph) -> Embedding | None:
        want = _reference_first(g, h)
        got = patterns._first_embedding(g, h)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.mapping == want.mapping
        return got

    @staticmethod
    def _refused(g: Graph, h: Graph) -> bool:
        need = patterns._pattern_need(h._masks)[2]
        return patterns._hall_refuses(patterns._host_profile(g._masks), need)

    def test_refuses_where_supply_falls_short(self):
        # a member with one edge removed, padded with isolated vertices: its
        # host keeps triangle and high-degree vertices, but one or two
        # fewer than the member needs; and G(21, 25) hosts, the bench's free
        # hosts, which hold a few triangles
        rng = random.Random(41)
        members = self._members()
        fired = 0
        for h in members:
            for e in rng.sample(h.edges(), 3):
                g = _relabel(Graph(h.n, [f for f in h.edges() if f != e]), rng, 2)
                refused = naive_hall_refuses(g, h)
                assert self._refused(g, h) == refused
                assert self._check(g, h) is None
                fired += refused
        assert fired == 3 * len(members)
        # a triangle edge (a, b) replaced by a path a-x-b keeps every degree,
        # so only the triangle count can fall short
        by_triangles, with_triangles = 0, [h for h in members if naive_triangle_vertices(h)]
        for h in with_triangles:
            a, b = next((a, b) for a, b in h.edges() if h.neighbors(a) & h.neighbors(b))
            g = Graph(h.n + 1, [e for e in h.edges() if e != (a, b)] + [(a, h.n), (b, h.n)])
            g = _relabel(g, rng)
            assert all(sum(g.degree(v) >= d for v in g.vertices) >= need
                       for d, need, _ in naive_pattern_need(h))
            refused = naive_hall_refuses(g, h)
            assert self._refused(g, h) == refused
            assert self._check(g, h) is None
            by_triangles += refused
        assert by_triangles == len(with_triangles) > 0
        for _ in range(3):
            g = _gnm(rng, 21, 25)
            assert 0 < len(naive_triangle_vertices(g)) < 12
            for h in members:
                refused = naive_hall_refuses(g, h)
                assert self._refused(g, h) == refused
                if refused:
                    assert self._check(g, h) is None
                    fired += 1
        assert fired > 3 * len(members) + 100

    def test_supply_exactly_meets_need(self):
        # a member, or a random pattern with no isolated vertex, with
        # isolated vertices added: at every degree of the pattern the host
        # has exactly the vertices of degree >= d, and in a triangle, that
        # the pattern needs, and an embedding exists
        rng = random.Random(42)
        hs = self._members()
        while len(hs) < 160:
            h = generate("gnp", n=rng.randint(2, 9), p=rng.choice([0.3, 0.5, 0.8]),
                         seed=rng.randrange(10**6))
            if all(h.degree(u) for u in h.vertices):
                hs.append(h)
        for h in hs:
            g = _relabel(h, rng, rng.randint(0, 3))
            g_tri = naive_triangle_vertices(g)
            for d, need, need_tri in naive_pattern_need(h):
                supply = {v for v in g.vertices if g.degree(v) >= d}
                assert (len(supply), len(supply & g_tri)) == (need, need_tri)
            assert not naive_hall_refuses(g, h) and not self._refused(g, h)
            assert self._check(g, h) is not None

    def test_lt_free_upto_on_gnm_hosts(self):
        # the verdict against reference_lt_free_upto, which counts members
        # per wall edge (210 with s <= 2), and members_tested and the
        # witness against the reference matcher run on each class member in
        # turn, in the member's matching order, on G(21, 25) hosts, planted
        # 21-vertex hosts, and planted ones with one edge added, which are
        # free but let members past the rule
        rng = random.Random(43)
        hosts = [_gnm(rng, 21, 25) for _ in range(4)]
        hosts += [_planted(2, s, 2 - s, rng) for s in (0, 1, 2)]
        for _ in range(2):
            g = _planted(2, 2, 0, rng)
            u, v = rng.choice([e for e in combinations(g.vertices, 2) if not g.has_edge(*e)])
            hosts.append(Graph(g.n, g.edges() + [(u, v)]))
        _, lowest, _ = patterns._wall(2)
        passed, statuses = 0, Counter()
        for g in hosts:
            got = lt_free_upto(g, 2, g.n)
            want = reference_lt_free_upto(g, 2, g.n)
            assert (got.status, got.certified_cap) == (want.status, want.certified_cap)
            tested, first = 0, None
            for s in range(3):
                for split in patterns._distributions(s, len(lowest)):
                    if first is None:
                        tested += 1
                        h = patterns._member(2, split)
                        first = _reference_first(g, h)
                        passed += not naive_hall_refuses(g, h)
            assert got.members_tested == tested
            assert got.witness == first
            statuses[got.status] += 1
        assert statuses == {"free": 6, "witness": 3} and passed > 20


class TestLtFree:
    def test_p10_free_for_t2(self):
        verdict = lt_free_upto(generate("path", k=10), 2, 30)
        assert verdict.status == "free"

    def test_line_graph_of_wall_is_witness(self):
        wall = generate("wall", t=2)
        host, _ = line_graph(wall)
        verdict = lt_free_upto(host, 2, wall.edge_count())
        assert verdict.status == "witness"
        assert verdict.witness is not None

    def test_k5_free_for_t1(self):
        verdict = lt_free_upto(generate("complete", k=5), 1, 10)
        assert verdict.status == "free"

    def test_c7_witness_for_t1(self):
        # subdividing C6 once gives C7; its line graph is C7 again
        verdict = lt_free_upto(generate("cycle", k=7), 1, 7)
        assert verdict.status == "witness"

    def test_triangle_rich_hosts_stop_at_the_budget(self):
        # on hosts with many triangles the matcher's search, not member
        # construction, bounds the run: the budget of 300 splits ends
        # inside s = 4, with every level below tested in full
        for p in (0.2, 0.3):
            verdict = lt_free_upto(generate("gnp", n=30, p=p, seed=3), 2, 30, member_budget=300)
            assert (verdict.status, verdict.certified_cap, verdict.members_tested,
                    verdict.witness, verdict.notes) == (
                "inconclusive", 22, 300, None, ["member budget 300 exhausted at s=4"])

    def test_inconclusive_when_cap_too_small(self):
        # host big enough to hold subdivided members the cap cannot reach
        host = generate("cycle", k=9)
        verdict = lt_free_upto(host, 1, 6)  # only the unsubdivided C6 enumerated
        assert verdict.status == "inconclusive"
        assert verdict.certified_cap == 6

    def test_notes_name_only_a_budget_stop(self):
        # C9 holds the t = 1 member with s = 3; a budget of b members stops
        # at s = b, the first level it cannot start
        c9 = generate("cycle", k=9)
        for budget in (0, 1, 3):
            verdict = lt_free_upto(c9, 1, 9, budget)
            assert verdict.status == "inconclusive"
            assert verdict.notes == [f"member budget {budget} exhausted at s={budget}"]
        for g, t, status in ((c9, 1, "witness"), (generate("path", k=10), 2, "free")):
            verdict = lt_free_upto(g, t, g.n)
            assert verdict.status == status and verdict.notes == []

    def test_t_below_one_is_precondition_error(self):
        for t in (0, -1):
            with pytest.raises(PreconditionError):
                lt_free_upto(generate("cycle", k=7), t, 7)
        # parameters that are not integers, bools among them, or a negative
        # size cap or budget
        c7 = generate("cycle", k=7)
        for t, size_cap, budget in (("2", 7, 10), (True, 7, 10), (1, None, 10), (1, 7.5, 10),
                                    (1, True, 10), (1, 7, None), (1, 7, -1), (1, 7, 2.0),
                                    (1, -1, 10)):
            with pytest.raises(PreconditionError):
                lt_free_upto(c7, t, size_cap, budget)

    def test_wrong_witness_is_refused(self, monkeypatch):
        wrong = Embedding({0: 0, 1: 1, 2: 2})
        monkeypatch.setattr(patterns, "_backtrack_induced", lambda g, h, host=None: wrong)
        with pytest.raises(InvariantViolationError):
            lt_free_upto(generate("cycle", k=7), 1, 7)

    def test_matches_reference_t1(self):
        rng = random.Random(5)
        hosts = [generate("cycle", k=k) for k in (5, 6, 7, 9)]
        hosts += [generate("gnp", n=rng.randint(6, 11), p=rng.choice([0.2, 0.3, 0.5]),
                           seed=rng.randrange(10**6)) for _ in range(20)]
        hosts += [_planted(1, s, 2, rng) for s in (0, 1, 2, 3)]
        statuses = Counter()
        for g in hosts:
            for size_cap, budget in ((g.n, 200_000), (8, 200_000), (g.n, 3)):
                got, want = _check_against_reference(g, 1, size_cap, budget)
                statuses[want.status, got.status] += 1
        # every status occurs, and the budget of 3 binds on the reference
        # where one member per level lets the new test finish
        assert {"free", "witness", "inconclusive"} <= {w for w, _ in statuses}
        assert statuses["inconclusive", "free"] + statuses["inconclusive", "witness"] > 0

    def test_matches_reference_t2(self):
        rng = random.Random(6)
        hosts = [_planted(2, s, 4, rng) for s in (0, 1, 1, 2)]
        hosts += [generate("gnp", n=20, p=0.15, seed=rng.randrange(10**6)) for _ in range(3)]
        statuses = []
        for g in hosts:
            got, _ = _check_against_reference(g, 2, g.n)
            statuses.append(got.status)
        assert statuses == ["witness"] * 4 + ["free"] * 3
        for _ in range(3):  # over budget: inconclusive after exactly 20 members
            g = generate("gnp", n=28, p=0.12, seed=rng.randrange(10**6))
            got, _ = _check_against_reference(g, 2, g.n, 20)
            assert got.status == "inconclusive" and got.members_tested == 20

    def test_members_are_copies_of_their_class(self):
        # every per-edge member with s <= 2 is isomorphic to the tested
        # member with the same totals per branch path; the paths are found
        # here by joining wall edges that meet at a degree-2 vertex
        for t in (1, 2):
            wall = generate("wall", t=t)
            edges = wall.edges()
            path_of = naive_branch_paths(wall)
            heads = sorted(set(path_of))
            assert patterns._wall(t)[:2] == (wall, tuple(edges[i] for i in heads))
            for s in range(3):
                for dist in patterns._distributions(s, len(edges)):
                    rep = [0] * len(edges)
                    for i, c in enumerate(dist):
                        rep[path_of[i]] += c
                    member, _ = line_graph(subdivide(wall, dict(zip(edges, dist))))
                    cls = patterns._member(t, tuple(rep[i] for i in heads))
                    assert (member.n, member.edge_count()) == (cls.n, cls.edge_count())
                    emb = patterns._first_embedding(cls, member)
                    assert emb is not None and emb.verify(member, cls)

    def test_e2e1_classes_absent_by_networkx(self):
        # E2E-1 is lt_free_upto(gnp(30, 0.1, seed=3), 2, 30), free after
        # every class with s <= 11; a seeded sample of those classes, each
        # absent by the package's matcher and by networkx's
        host = generate("gnp", n=30, p=0.1, seed=3)
        wall, lowest, _ = patterns._wall(2)
        assert host.n - wall.edge_count() == 11
        rng = random.Random(31)
        for _ in range(20):
            split = [0] * len(lowest)
            for _ in range(rng.randint(0, 11)):
                split[rng.randrange(len(lowest))] += 1
            member = patterns._member(2, tuple(split))
            assert contains_induced(host, member, cap_override=host.n) is None, split
            assert not nx_contains_induced(host, member), split

    def test_wall_counts(self):
        # lt_free_upto reads the t-wall's V and E off t without building it
        for t in range(1, 7):
            wall = patterns._wall(t)[0]
            assert (wall.n, wall.edge_count()) == (2 * (t + 1) ** 2 - 2,
                                                   (t + 1) * (3 * t + 1) - 2)

    def test_host_below_the_wall_builds_no_wall(self, monkeypatch):
        # a host on fewer than E vertices is free with no member tested,
        # and certified_cap max(E + size_cap - V, |V(g)|), with V and E the
        # built wall's; the 300-wall has 181 200 vertices and 271 199 edges
        walls = {t: patterns._wall(t)[0] for t in range(1, 5)}

        def built(t):
            raise LookupError("wall built")

        monkeypatch.setattr(patterns, "_wall", built)
        for t, wall in walls.items():
            v, e = wall.n, wall.edge_count()
            for size_cap in (0, v - 1, v + 3, 100):
                assert lt_free_upto(Graph(e - 1), t, size_cap) == patterns.LtVerdict(
                    status="free", certified_cap=max(e + size_cap - v, e - 1))
        assert lt_free_upto(generate("path", k=5), 300, 10) == patterns.LtVerdict(
            status="free", certified_cap=271_199 + 10 - 181_200)

    def test_distributions_match_recursive_reference(self):
        # stars and bars yields the splits in the recursive generator's order
        for bins in range(1, 11):
            for total in range(6):
                assert (list(patterns._distributions(total, bins))
                        == list(reference_distributions(total, bins))), (total, bins)

    def test_one_member_per_class(self):
        # 1 + 9 + 45 splits over the 2-wall's nine branch paths for s <= 2,
        # and one per level on the 6-cycle (the per-edge count is 210 in both)
        for g in (generate("path", k=21), generate("gnp", n=21, p=0.12, seed=3)):
            verdict = lt_free_upto(g, 2, g.n)
            assert (verdict.status, verdict.members_tested) == ("free", 55)
        verdict = lt_free_upto(generate("path", k=10), 1, 30)
        assert (verdict.status, verdict.members_tested) == ("free", 5)

    def test_witness_off_the_representative_edge(self):
        # two subdivisions on wall edge (0, 5), which shares its branch
        # path 5-0-1-2 with the path's lowest edge (0, 1)
        wall = generate("wall", t=2)
        assert wall.edges()[1] == (0, 5) and (0, 5) not in patterns._wall(2)[1]
        g = _planted(2, 2, 3, random.Random(9), counts={(0, 5): 2})
        got, want = _check_against_reference(g, 2, g.n)
        assert got.status == want.status == "witness"
        assert got.members_tested < want.members_tested



def _at_least(need: tuple, d: int) -> tuple[int, int]:
    """From a need, the vertices of degree >= d and those of them in a
    triangle: the entry of the least degree >= d, as a missing degree's
    counts are those of the next higher one."""
    return next(((c, c_tri) for e, c, c_tri in reversed(need) if e >= d), (0, 0))


class TestLevelRefusal:
    """lt_free_upto reads each split's need, and each level's least need,
    off the wall's branch-path lengths, and refuses a whole level or a
    split before building a member. Every verdict field is checked against
    the per-class loop that builds and matches each member in turn."""

    def test_split_need_is_the_member_need(self):
        # every split with s <= 5 at t = 1, s <= 3 at t = 2 and s <= 2 at
        # t = 3; the level's least need is each split's at most, and met by
        # some split, degree by degree
        count = 0
        for t, top in ((1, 5), (2, 3), (3, 2)):
            m = len(patterns._wall(t)[1])
            for s in range(top + 1):
                needs = []
                for split in patterns._distributions(s, m):
                    need = patterns._split_record(t, split)[0]
                    assert need == patterns._pattern_need(patterns._member(t, split)._masks)[2]
                    needs.append(need)
                least = patterns._level_need(t, s)
                for d in range(1, 6):
                    for i in (0, 1):
                        assert _at_least(least, d)[i] == min(_at_least(n, d)[i] for n in needs)
                count += len(needs)
        assert count == 6 + 220 + 325

    def test_verdicts_match_per_class_loop(self):
        # G(n, m) hosts, which refuse whole levels, and planted hosts, which
        # refuse few, at t = 1, 2 and 3. At t = 2 the budgets 1, 10 and 55
        # end a level exactly, and 20 ends inside level 2
        rng = random.Random(51)
        hosts = {1: [generate("cycle", k=k) for k in (5, 7, 9)]
                 + [_gnm(rng, n, m) for n, m in ((8, 10), (10, 14), (11, 25))]
                 + [_planted(1, s, 2, rng) for s in (0, 2)],
                 2: [_gnm(rng, 21, m) for m in (25, 25, 40)]
                 + [_planted(2, s, 2 - s, rng) for s in (0, 1, 2)],
                 3: [_gnm(rng, 40, 50)] + [_planted(3, s, 2 - s, rng) for s in (0, 1)]}
        statuses, stops = Counter(), Counter()
        for t, gs in hosts.items():
            e_wall = patterns._wall(t)[0].edge_count()
            for g in gs:
                host = patterns._host_profile(g._masks)
                refused = {s for s in range(g.n - e_wall + 1)
                           if patterns._hall_refuses(host, patterns._level_need(t, s))}
                runs = [(g.n, budget) for budget in (0, 1, 10, 20, 55, 56, 200_000)]
                for size_cap, budget in runs + [(g.n - 1, 200_000)]:
                    got = lt_free_upto(g, t, size_cap, budget)
                    assert got == reference_class_lt_free_upto(g, t, size_cap, budget)
                    statuses[got.status] += 1
                    if got.notes:
                        s = int(got.notes[0].rsplit("=", 1)[1])
                        stops["refused" if s in refused else "walked"] += 1
        assert set(statuses) == {"free", "witness", "inconclusive"}
        assert stops["refused"] > 0 and stops["walked"] > 0

    def test_members_built_are_those_the_host_can_meet(self, monkeypatch):
        # L(2-wall with two subdivisions on its first branch path, of four
        # edges) meets the least need of levels 0 and 1, but not the need
        # of a split that subdivides a path of one edge: of the others, only
        # those first among their images under the wall's automorphisms get
        # a member profile, and some met split is not
        _, lowest, lengths = patterns._wall(2)
        assert lengths[0] == 4
        g = _planted(2, 0, 0, random.Random(52), counts={lowest[0]: 2})
        host = patterns._host_profile(g._masks)
        assert not any(patterns._hall_refuses(host, patterns._level_need(2, s)) for s in (0, 1))
        met, refused, skipped = [], 0, 0
        for s in (0, 1):
            for split in patterns._distributions(s, len(lowest)):
                need, first = patterns._split_record(2, split)
                if patterns._hall_refuses(host, need):
                    refused += 1
                elif first:
                    met.append(split)
                else:
                    skipped += 1
        built = []
        profile = patterns._member_profile
        monkeypatch.setattr(patterns, "_member_profile",
                            lambda t, split: built.append(split) or profile(t, split))
        verdict = lt_free_upto(g, 2, g.n, member_budget=len(lowest) + 1)
        assert verdict.status == "inconclusive" and refused > 0 and skipped > 0
        assert built == met

    def test_e2e1_builds_no_member(self, monkeypatch):
        # E2E-1: the host has 3 vertices in a triangle, and every level of
        # the 2-wall needs 13, so each level is refused whole, on the host
        # itself: its 2-core is never peeled
        def built(*args):
            pytest.fail("a member or a 2-core was built")

        monkeypatch.setattr(patterns, "_member", built)
        monkeypatch.setattr(patterns, "_member_profile", built)
        monkeypatch.setattr(patterns, "_core_profile", built)
        host = generate("gnp", n=30, p=0.1, seed=3)
        verdict = lt_free_upto(host, 2, 30)
        assert (verdict.status, verdict.members_tested, verdict.certified_cap,
                verdict.witness, verdict.notes) == ("free", 167_960, 33, None, [])
        verdict = lt_free_upto(host, 2, 30, member_budget=3000)
        assert (verdict.status, verdict.members_tested, verdict.certified_cap,
                verdict.notes) == ("inconclusive", 3000, 24,
                                   ["member budget 3000 exhausted at s=6"])

    def test_degree_refused_host_builds_no_triangles(self, monkeypatch):
        # a G(21, 25) host, the shape of the bench's free hosts, with
        # triangles, whose degree counts refuse every level: its verdict
        # comes without its triangle mask, and without peeling its 2-core
        g = _gnm(random.Random(0), 21, 25)
        assert patterns._triangle_mask(g._masks)

        def built(*args):
            pytest.fail("a triangle mask or a 2-core was built")

        monkeypatch.setattr(patterns, "_triangle_mask", built)
        monkeypatch.setattr(patterns, "_core_profile", built)
        verdict = lt_free_upto(g, 2, g.n)
        assert (verdict.status, verdict.certified_cap, verdict.members_tested,
                verdict.witness, verdict.notes) == ("free", 24, 55, None, [])

    def test_host_triangles_built_once_per_call(self, monkeypatch):
        # hosts that meet the degree counts: E2E-1, whose twelve levels all
        # fall short on triangles; planted hosts, walked split by split to
        # the witness, cold and then warm; and the paw, with a triangle, and
        # K_{3,3}, without, sought in a dense host. Each call builds a
        # triangle mask once if the pattern has a triangle, else never,
        # counted on the host's rows and on those of each 2-core that
        # lt_free_upto peels from it, not on a member's
        builds, cores = Counter(), set()
        triangle_mask, core_profile = patterns._triangle_mask, patterns._core_profile
        monkeypatch.setattr(patterns, "_triangle_mask",
                            lambda adj: builds.update([adj]) or triangle_mask(adj))
        monkeypatch.setattr(patterns, "_core_profile",
                            lambda host: cores.add((core := core_profile(host))[0]) or core)
        rng = random.Random(53)
        lt = lambda g: lt_free_upto(g, 2, g.n).status  # noqa: E731
        calls = [(generate("gnp", n=30, p=0.1, seed=3), lt, 1, "free")]
        for s in (0, 2):
            calls += [(_planted(2, s, 2, rng), lt, 1, "witness")] * 2
        g = generate("gnp", n=22, p=0.5, seed=5)
        paw = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        calls += [(g, lambda g: contains_induced(g, paw) is not None, 1, True),
                  (g, lambda g: find_pattern(g, PatternSpec("k_tt", t=3)).mapping, 0,
                   {0: 0, 1: 2, 2: 9, 3: 7, 4: 8, 5: 17})]
        for g, call, want, answer in calls:
            builds.clear()
            cores.clear()
            assert call(g) == answer
            assert sum(builds[adj] for adj in cores | {g._masks}) == want


def _hung(g: Graph, rng: random.Random, trees: int = 0, paths: int = 0,
          chords: int = 0) -> Graph:
    """g with pendant trees and pendant paths of 1-4 vertices each, hung
    from random vertices of g, and chords random pairs of g's vertices
    joined (an existing edge stays one), relabelled."""
    n, edges = g.n, set(g.edges())
    for k, path in [(rng.randint(1, 4), False) for _ in range(trees)] + [
            (rng.randint(1, 4), True) for _ in range(paths)]:
        for j in range(k):
            edges.add((rng.randrange(g.n) if not j else n + j - 1 if path
                       else rng.randrange(n, n + j), n + j))
        n += k
    edges |= {tuple(sorted(rng.sample(range(g.n), 2))) for _ in range(chords)}
    return _relabel(Graph(n, sorted(edges)), rng)


class TestTwoCore:
    """Every member has minimum degree 2, so lt_free_upto matches it in the
    host's 2-core, peeled at the first level whose need the host meets:
    every verdict field is the one the host itself gives."""

    def test_verdicts_match_per_class_loop(self):
        # planted walls with pendant trees, pendant paths and chords, which
        # may break the planted member, at member budgets 20, 200 and the
        # default; the per-class loop matches in the whole host
        rng = random.Random(4002)
        statuses, peeled = Counter(), 0
        for t, s, trees, paths, chords in ((1, 0, 2, 0, 0), (1, 2, 0, 2, 0), (1, 3, 1, 1, 2),
                                           (2, 0, 2, 0, 0), (2, 1, 0, 2, 0), (2, 2, 1, 1, 0),
                                           (2, 1, 1, 1, 2), (2, 2, 0, 1, 3)):
            g = _hung(_planted(t, s, 0, rng), rng, trees, paths, chords)
            peeled += patterns._core_profile(patterns._host_profile(g._masks))[0] != g._masks
            for budget in (20, 200, 200_000):
                got = lt_free_upto(g, t, g.n, budget)
                assert got == reference_class_lt_free_upto(g, t, g.n, budget), (t, s, budget)
                statuses[got.status] += 1
        assert peeled == 8 and set(statuses) == {"free", "witness", "inconclusive"}

    def test_planted_host_matches_fewer_members(self, monkeypatch):
        # L(2-wall, s = 2) with 6 pendants: the host has 6 vertices of
        # degree >= 4, its 2-core 3, and levels 0 and 1 need 5 and 4. So the
        # host meets both levels' needs and its core neither: level 0, whose
        # check triggers the peel, and level 1 are refused whole on the
        # core, their splits are never read, and 4 members are matched to
        # the witness where the host itself took 20
        g = _planted(2, 2, 6, random.Random(5))
        want = lt_free_upto(g, 2, g.n)  # and every member profile is built
        assert (want.status, want.members_tested) == ("witness", 28)
        host = patterns._host_profile(g._masks)
        core = patterns._core_profile(host)
        for s in (0, 1):
            need = patterns._level_need(2, s)
            assert not patterns._hall_refuses(host, need) and patterns._hall_refuses(core, need)
        matched, levels = [], Counter()
        match, record = patterns._backtrack_induced, patterns._split_record
        monkeypatch.setattr(patterns, "_backtrack_induced",
                            lambda host, profile: matched.append(1) or match(host, profile))
        monkeypatch.setattr(patterns, "_split_record",
                            lambda t, split: levels.update([sum(split)]) or record(t, split))
        assert lt_free_upto(g, 2, g.n) == want
        assert len(matched) == 4 and levels[0] == levels[1] == 0 < levels[2]


def _wall_automorphisms(t: int) -> set[tuple[int, ...]]:
    """The automorphisms the orbit search finds on the t-wall, closed under
    composition."""
    adj = patterns._wall(t)[0]._masks
    plain, head, _ = patterns._plain_steps(adj)
    _, found = patterns._orbit_bounds(adj, plain, head)
    group = {tuple(range(len(adj)))}
    while True:
        more = {tuple(f[x] for x in g) for g in group for f in found} - group
        if not more:
            return group
        group |= more


def _nx_class_count(members) -> int:
    """The number of isomorphism classes among members, by networkx. Only
    members whose vertices have the same (distance, degree) profiles, as
    multisets, are tested for isomorphism."""
    buckets: dict = {}
    count = 0
    for h in members:
        ng = nx_graph(h)
        key = sorted(tuple(sorted((d, ng.degree(x)) for x, d in dist.items()))
                     for _, dist in nx.all_pairs_shortest_path_length(ng))
        bucket = buckets.setdefault(tuple(key), [])
        if not any(nx.is_isomorphic(ng, other) for other in bucket):
            bucket.append(ng)
            count += 1
    return count


class TestWallSymmetries:
    """lt_free_upto matches a split's member only when the split is first,
    in ``_distributions`` order, among its images under the wall's
    automorphisms, which the orbit search finds; every other split's member
    is isomorphic to an earlier matched one."""

    def test_group_is_networkx_automorphism_group(self):
        # the closed group has networkx's automorphism count, and the
        # branch-path permutations are those networkx's automorphisms
        # induce on the oracle's branch paths
        for t, size in ((1, 12), (2, 4), (3, 2)):
            wall = patterns._wall(t)[0]
            ng = nx_graph(wall)
            autos = list(nx.isomorphism.GraphMatcher(ng, ng).isomorphisms_iter())
            assert len(_wall_automorphisms(t)) == len(autos) == size
            edges = wall.edges()
            path_of = naive_branch_paths(wall)
            heads = sorted(set(path_of))
            index = {e: i for i, e in enumerate(edges)}
            want = set()
            for f in autos:
                want.add(tuple(heads.index(path_of[index[graphs.norm_edge(f[u], f[v])]])
                               for u, v in (edges[h] for h in heads)))
            assert set(patterns._wall_symmetries(t)) == want
        assert len(patterns._wall_symmetries(1)) == 1  # one branch path

    def test_distributions_are_lexicographic(self):
        # first among the images means least, as the walk goes in ascending order
        for t, top in ((1, 5), (2, 3), (3, 2)):
            m = len(patterns._wall(t)[1])
            for s in range(top + 1):
                splits = list(patterns._distributions(s, m))
                assert splits == sorted(splits)

    def test_matched_splits_are_the_member_classes(self, monkeypatch):
        # K_n meets every split's need and holds no member, so each level
        # is walked in full: the splits matched per level are as many as
        # the isomorphism classes of the level's members, by networkx
        matched = Counter()
        profile = patterns._member_profile
        monkeypatch.setattr(patterns, "_member_profile", lambda t, split: (
            matched.update([(t, sum(split))]) or profile(t, split)))
        for t, want in ((2, [1, 4, 17, 52]), (3, [1, 14, 160])):
            wall, lowest, _ = patterns._wall(t)
            top = len(want) - 1
            host = generate("complete", k=wall.edge_count() + top)
            verdict = lt_free_upto(host, t, wall.n + top)
            assert (verdict.status, verdict.members_tested) == (
                "free", sum(comb(s + len(lowest) - 1, s) for s in range(top + 1)))
            assert [matched[t, s] for s in range(top + 1)] == want
            assert [_nx_class_count(_class_members(t, s)) for s in range(top + 1)] == want

    def test_skipped_members_are_isomorphic_to_a_matched_one(self):
        # a split that is not first among its images has an earlier one
        # that is, and their members are isomorphic by networkx
        skipped = 0
        for t, top in ((2, 3), (3, 2)):
            sigmas = patterns._wall_symmetries(t)
            for s in range(top + 1):
                for split in patterns._distributions(s, len(sigmas[0])):
                    first = patterns._split_record(t, split)[1]
                    least = min(tuple(split[j] for j in sigma) for sigma in sigmas)
                    assert first == (least == split)
                    if first:
                        continue
                    assert least < split and patterns._split_record(t, least)[1]
                    assert nx.is_isomorphic(nx_graph(patterns._member(t, split)),
                                            nx_graph(patterns._member(t, least)))
                    skipped += 1
        assert skipped == (55 + 165 - 74) + (325 - 175)

    def test_wrong_automorphism_is_refused(self, monkeypatch):
        # an orbit search that answers with a map that is not an
        # automorphism of the wall, or not a permutation of its vertices,
        # is refused before any split is skipped; so is a branch-path
        # partition the automorphisms do not permute
        wall, lowest, _ = patterns._wall(2)
        host, _ = line_graph(wall)
        u = next(x for x in wall.vertices if wall.degree(x) == 2)
        v = next(x for x in wall.vertices if wall.degree(x) == 3)
        swap = tuple({u: v, v: u}.get(x, x) for x in wall.vertices)
        ids = tuple(wall.vertices)
        for wrong in (swap, ids[:-1], (ids[1],) + ids[1:]):
            monkeypatch.setattr(patterns, "_orbit_bounds",
                                lambda adj, plain, head, wrong=wrong: ([-1] * len(adj), [wrong]))
            patterns._wall_symmetries.cache_clear()
            patterns._split_record.cache_clear()
            with pytest.raises(InvariantViolationError):
                lt_free_upto(host, 2, host.n)
            monkeypatch.undo()
        paths = patterns._branch_paths(wall)
        moved = [paths[0][:-1], paths[1] + paths[0][-1:]] + paths[2:]
        monkeypatch.setattr(patterns, "_branch_paths", lambda wall: moved)
        patterns._wall_symmetries.cache_clear()
        patterns._split_record.cache_clear()
        with pytest.raises(InvariantViolationError):
            lt_free_upto(host, 2, host.n)
        monkeypatch.undo()
        patterns._wall_symmetries.cache_clear()
        patterns._split_record.cache_clear()
        assert lt_free_upto(host, 2, host.n).status == "witness"


class TestMatchingOrderAgainstReference:
    def test_heap_order_is_the_rescan_order(self):
        # the heap's order against the quadratic rescan it replaced, on
        # every atlas graph, wall members, S_{t,t,t}, K_{t,t} and random
        # patterns, disconnected ones among them
        hs = [Graph(g.number_of_nodes(), g.edges()) for g in nx.graph_atlas_g()]
        for t, top in ((1, 3), (2, 2), (3, 1)):
            hs += [member for s in range(top + 1) for member in _class_members(t, s)]
        hs += [generate("s_ttt", t=t) for t in (1, 2, 5, 30)]
        hs += [generate("complete_bipartite", a=t, b=t) for t in (1, 2, 5, 12)]
        rng = random.Random(71)
        hs += [generate("gnp", n=rng.randint(1, 40), p=rng.choice([0.05, 0.1, 0.3, 0.6, 0.9]),
                        seed=rng.randrange(10**6)) for _ in range(300)]
        for h in hs:
            assert patterns._matching_order(h._masks) == reference_matching_order(h._masks)


class TestMatchingOrder:
    """lt_free_upto matches each member in ``_matching_order``, connected
    and most constrained first, and maps the embedding back, so the witness
    stays keyed by the member's own line-graph ids."""

    def test_order_on_every_member(self):
        # every split with s <= 3 at t = 2 and s <= 2 at t = 3: the order is
        # a permutation that starts at a vertex of maximum degree, and every
        # later vertex has an earlier neighbour, as members are connected;
        # the cached profile is the member's, read in that order
        count = 0
        for t, top in ((2, 3), (3, 2)):
            m = len(patterns._wall(t)[1])
            for s in range(top + 1):
                for split in patterns._distributions(s, m):
                    member = patterns._member(t, split)
                    (degrees, tri, _), order = patterns._member_profile(t, split)
                    assert order == patterns._matching_order(member._masks)
                    assert sorted(order) == list(member.vertices)
                    assert member.degree(order[0]) == max(map(member.degree, member.vertices))
                    assert all(member.neighbors(u) & set(order[:i])
                               for i, u in enumerate(order) if i)
                    assert degrees == tuple(member.degree(u) for u in order)
                    in_tri = naive_triangle_vertices(member)
                    assert tri == sum(1 << i for i, u in enumerate(order) if u in in_tri)
                    count += 1
        assert count == 220 + 325

    def test_order_by_hand(self):
        # the paw on triangle 0-1-2 with 3 pendant at 2, plus 4 pendant at 0:
        # 0 and 2 tie at degree 3, so 0 starts; 1, 2 and 4 each have one
        # ordered neighbour, and 2 has the highest degree; then 1 has two;
        # 3 and 4 tie on one neighbour and degree 1, and 4's neighbour 0 was
        # ordered first (position 0, against 2's position 1)
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (0, 4)])
        assert patterns._matching_order(g._masks) == (0, 2, 1, 4, 3)
        # S_{3,3,3}, centre 0 and legs 1-2-3, 4-5-6, 7-8-9: breadth first,
        # the three leg heads come right after the centre, then the second
        # vertices, then the leaves
        s333 = generate("s_ttt", t=3)
        assert patterns._matching_order(s333._masks) == (0, 1, 4, 7, 2, 5, 8, 3, 6, 9)
        # a disconnected pattern restarts at the highest degree left
        g = Graph(6, [(0, 1), (2, 3), (2, 4), (2, 5)])
        assert patterns._matching_order(g._masks) == (2, 3, 4, 5, 0, 1)

    def test_witness_in_the_member_ids(self):
        # on planted hosts each witness verifies against a member built
        # only by the oracles: the oracle wall's branch paths, each path's
        # total on its lowest edge, naive subdivision and line graph; a
        # witness keyed by the matching order's ids would verify against none
        rng = random.Random(61)
        checked = 0
        for t, levels in ((2, (0, 1, 2, 3)), (3, (0, 1, 2))):
            wall = reference_wall(t)
            edges = wall.edges()
            lowest = [edges[i] for i in sorted(set(naive_branch_paths(wall)))]
            for s in levels:
                g = _planted(t, s, 3, rng)
                got = lt_free_upto(g, t, g.n)
                assert got.status == "witness"
                k = len(got.witness.mapping) - len(edges)
                members = (naive_line_graph(naive_subdivide(wall, dict(zip(lowest, split))))[0]
                           for split in reference_distributions(k, len(lowest)))
                assert any(got.witness.verify(h, g) for h in members)
                checked += 1
        assert checked == 7


def test_certificate_checks_survive_optimize():
    # under python -O (asserts stripped) a matcher that returns a
    # non-induced embedding is still refused by every public search
    script = """
from treealpha import patterns
from treealpha.errors import InvariantViolationError
from treealpha.graphs import generate
from treealpha.patterns import Embedding, PatternSpec

assert False, "asserts must be stripped in this run"
wrong = Embedding({0: 0, 1: 1, 2: 2})
patterns._backtrack_induced = lambda *args: wrong
host, p3 = generate("complete", k=4), generate("path", k=3)
calls = (lambda: patterns.contains_induced(host, p3),
         lambda: patterns.find_pattern(host, PatternSpec("s_ttt", t=1)),
         lambda: patterns.lt_free_upto(generate("cycle", k=7), 1, 7))
for call in calls:
    try:
        call()
    except InvariantViolationError:
        continue
    raise SystemExit("a wrong embedding was accepted")
print("refused")
"""
    src = str(Path(treealpha.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                         timeout=30, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "refused"


def test_wall_automorphism_check_survives_optimize():
    # under python -O an orbit search that answers with a map that is not
    # an automorphism of the wall is still refused by lt_free_upto before
    # it skips a split
    script = """
from treealpha import patterns
from treealpha.errors import InvariantViolationError
from treealpha.graphs import line_graph

assert False, "asserts must be stripped in this run"
wall = patterns._wall(2)[0]
u = next(x for x in wall.vertices if wall.degree(x) == 2)
v = next(x for x in wall.vertices if wall.degree(x) == 3)
swap = tuple({u: v, v: u}.get(x, x) for x in wall.vertices)
patterns._orbit_bounds = lambda adj, plain, head: ([-1] * len(adj), [swap])
host, _ = line_graph(wall)
try:
    patterns.lt_free_upto(host, 2, host.n)
except InvariantViolationError:
    print("refused")
else:
    raise SystemExit("a wrong automorphism was accepted")
"""
    src = str(Path(treealpha.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                         timeout=30, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "refused"
