"""Exhaustive ground truth: every graph on at most seven vertices, the
1 253 graphs of networkx's Graph Atlas, checked against the naive oracles
and networkx. The cheap rows run a second time on the same graphs under
one seeded relabelling.

Each row's size is chosen to keep the module to a few seconds:
- every host with every pattern on 1-4 vertices (18 patterns, 22 554
  pairs) for the matcher and the Hall rule; patterns on 5-7 vertices too
  would multiply the pairs by 70;
- ``reference_tree_alpha`` on n <= 6 only: its triangulations by
  branching take about 4 s on the 1 044 graphs with n = 7, and the subset
  recurrence covers all n;
- every graph, whole, for the other rows."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from treealpha import patterns
from treealpha.graphs import (Graph, _bits, _frame, alpha_exact, emit_graph, generate,
                              line_graph, max_stable_set, parse_graph, set_to_mask)
from treealpha.treedecomp import (
    MWISInstance,
    TreeDecomposition,
    is_chordal,
    mwis,
    tree_alpha_exact,
    validate_td,
)

from .oracles import (
    naive_alpha,
    naive_is_chordal,
    naive_line_graph,
    naive_mwis,
    naive_need_shortfall,
    naive_pattern_need,
    naive_step_plan,
    naive_triangle_vertices,
    naive_two_core,
    naive_validate_td,
    nx_graph,
    reference_backtrack_induced,
    reference_subset_tree_alpha,
    reference_tree_alpha,
)

ATLAS = [Graph(g.number_of_nodes(), g.edges()) for g in nx.graph_atlas_g()]
PATTERNS = [h for h in ATLAS if 1 <= h.n <= 4]


def _relabelled(seed: int) -> list[Graph]:
    """Every atlas graph under a random relabelling drawn from one seed."""
    rng = random.Random(seed)
    out = []
    for g in ATLAS:
        perm = rng.sample(range(g.n), g.n)
        out.append(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
    return out


@pytest.fixture(params=["atlas", "relabelled"], scope="module")
def graphs(request) -> list[Graph]:
    return ATLAS if request.param == "atlas" else _relabelled(1253)


def test_atlas_size():
    assert [sum(g.n == n for g in ATLAS) for n in range(8)] == [1, 1, 2, 4, 11, 34, 156, 1044]
    assert len(PATTERNS) == 18


def test_first_embedding_matches_reference_matcher():
    # the reference has no Hall rule and no orbit rule, so equal first
    # embeddings in the pattern's matching order on every pair show that
    # both rules only prune
    found = 0
    for g in ATLAS:
        for h in PATTERNS:
            want = reference_backtrack_induced(g, h, patterns._matching_order(h._masks))
            got = patterns._first_embedding(g, h)
            assert (None if got is None else got.mapping) == (
                None if want is None else want.mapping), (g.edges(), h.edges())
            found += got is not None
    assert len(ATLAS) * len(PATTERNS) == 22_554
    assert 0 < found < 22_554


def test_found_pairs_match_id_order_reference():
    # the matching order picks which embedding comes first, never whether
    # one exists: the pairs found are the id-order reference's
    found = {(i, j) for i, g in enumerate(ATLAS) for j, h in enumerate(PATTERNS)
             if patterns._first_embedding(g, h) is not None}
    assert found == {(i, j) for i, g in enumerate(ATLAS) for j, h in enumerate(PATTERNS)
                     if reference_backtrack_induced(g, h) is not None}


def test_step_plan_matches_naive():
    # each step's plan in the cached profile, the pattern relabelled into
    # its matching order, against the plan recomputed from sets
    for h in ATLAS:
        (_, _, steps), order = patterns._profile(h._masks)
        want = naive_step_plan(_frame(h._masks, (1 << h.n) - 1, order))
        assert [(s[0], s[1], s[4], s[5], s[6]) for s in steps] == want, h.edges()


def test_self_match_is_identity():
    # every graph, relabelled into its matching order, matched into itself:
    # the least embedding is the identity, and Hall's condition is tight at
    # every step of it, as the vertices outside the closed neighbourhood of
    # 0..u are exactly the unreached ones, so a need one too high or a
    # reached vertex counted as unreached loses the identity
    for h in ATLAS:
        profile, order = patterns._profile(h._masks)
        framed = _frame(h._masks, (1 << h.n) - 1, order)
        g = Graph(h.n, [(a, b) for a in range(h.n) for b in _bits(framed[a]) if a < b])
        host = patterns._host_profile(g._masks)
        assert not patterns._hall_refuses(host, patterns._pattern_need(framed)[2])
        emb = patterns._backtrack_induced(host, profile)
        assert emb is not None and emb.mapping == {x: x for x in range(h.n)}, h.edges()
        blocked, tri = 0, profile[1]
        for u, step in enumerate(profile[2]):
            blocked |= framed[u] | 1 << u
            free = [x for x in range(h.n) if not blocked >> x & 1]
            assert step[5] == tuple((d, sum(profile[0][x] >= d for x in free),
                                     sum(profile[0][x] >= d and tri >> x & 1 for x in free))
                                    for d, _, _ in step[5])


def _hall_cases(hosts: list[Graph], needs: list[tuple]) -> tuple[int, set]:
    """``_hall_refuses`` on every host and need against the vertex-by-vertex
    count: with a fresh host profile per need, whose triangle mask must be
    built exactly when no degree count falls short and the need asks for
    triangles, and with one profile per host serving every need in turn, as
    in a call of ``lt_free_upto``. Returns the refusals and the kinds of
    shortfall seen, as (degree count short, triangle count short)."""
    refused, kinds = 0, set()
    for g in hosts:
        shared = patterns._host_profile(g._masks)
        tri = set_to_mask(naive_triangle_vertices(g))
        for need in needs:
            short_deg, short_tri = naive_need_shortfall(g, need)
            host = patterns._host_profile(g._masks)
            got = patterns._hall_refuses(host, need)
            assert got == patterns._hall_refuses(shared, need) == (short_deg or short_tri), (
                g.edges(), need)
            built = not short_deg and any(c_tri for _, _, c_tri in need)
            assert host[2] == (tri if built else None), (g.edges(), need)
            refused += got
            kinds.add((short_deg, short_tri))
    return refused, kinds


def test_hall_refuses_matches_naive():
    # the needs of both entry points: a pattern's, which _first_embedding
    # reads, on every atlas host; and a wall level's least need and each
    # split's, which lt_free_upto reads, with the patterns' on seeded
    # G(n, m) hosts, triangle-free hosts and wall members with pendants
    needs = []
    for h in PATTERNS:
        needs.append(patterns._pattern_hall(h._masks))
        assert needs[-1] == naive_pattern_need(h)
    refused, _ = _hall_cases(ATLAS, needs)
    assert 0 < refused < 22_554
    needs += [patterns._level_need(t, s) for t in (1, 2, 3) for s in range(5)]
    needs += [patterns._split_record(t, split)[0] for t in (1, 2) for s in range(3)
              for split in patterns._distributions(s, len(patterns._wall(t)[1]))]
    rng = random.Random(733)
    hosts = []
    for _ in range(12):
        n = rng.randint(16, 26)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        hosts.append(Graph(n, rng.sample(pairs, rng.randint(n, 3 * n))))
        side = [rng.random() < 0.5 for _ in range(n)]
        hosts.append(Graph(n, [(u, v) for u, v in pairs
                               if side[u] != side[v] and rng.random() < 0.5]))
        t = rng.choice((1, 2))
        split = tuple(rng.choice((0, 0, 1)) for _ in patterns._wall(t)[1])
        member = patterns._member(t, split)
        hosts.append(Graph(member.n + 3, member.edges()
                           + [(rng.randrange(member.n), member.n + j) for j in range(3)]))
    refused, kinds = _hall_cases(hosts, needs)
    assert 0 < refused < len(hosts) * len(needs)
    # some needs fall short only on a degree count, some only on a
    # triangle count, and some on neither
    assert {(True, False), (False, True), (False, False)} <= kinds


def _core_case(g: Graph) -> int:
    """``_core_profile`` of g's profile, with its triangle mask built, against
    the profile of g's 2-core by ``naive_two_core``, as an induced subgraph,
    mapped back to g's ids: equal rows (a removed vertex's empty), degree
    masks and triangle mask; and g's own profile when nothing is removed.
    A profile whose triangle mask is not built gives a core without one.
    Returns the number of vertices removed."""
    core = sorted(naive_two_core(g))
    sub = g.induced(core)[0]
    want = patterns._host_profile(sub._masks)
    tri = set_to_mask(naive_triangle_vertices(sub))
    host = patterns._host_profile(g._masks)
    host[2] = set_to_mask(naive_triangle_vertices(g))
    got = patterns._core_profile(host)
    if len(core) == g.n:
        assert got is host, g.edges()
    back = [set_to_mask(core[i] for i in _bits(m)) for m in want[0] + tuple(want[1]) + (tri,)]
    rows = [0] * g.n
    for i, v in enumerate(core):
        rows[v] = back[i]
    assert got == [tuple(rows), back[len(core):-1], back[-1]], g.edges()
    assert patterns._core_profile(patterns._host_profile(g._masks))[2] is None
    return g.n - len(core)


def test_core_profile_matches_naive(graphs):
    # every graph: some lose no vertex, some every vertex, as a tree does
    removed = [_core_case(g) for g in graphs]
    assert 0 in removed and any(0 < r < g.n for r, g in zip(removed, graphs))
    assert any(r == g.n > 0 for r, g in zip(removed, graphs))


def test_core_profile_on_seeded_hosts():
    # wall members, of minimum degree 2, and G(n, m) hosts, each bare and
    # with pendant trees and pendant paths hung from random vertices: every
    # vertex added has one edge to an earlier one, so the peel removes it,
    # and with it lowers its anchor's degree; and a path, whose core is empty
    rng = random.Random(4001)
    members = [patterns._member(t, split) for t, split in (
        (1, (0,)), (1, (2,)), (2, (0,) * 10), (2, (1, 0, 0, 2, 0, 0, 0, 0, 0, 1)))]
    hosts = [Graph(n, rng.sample([(u, v) for u in range(n) for v in range(u)], m))
             for n, m in ((12, 14), (20, 25), (24, 40))]
    for base in members + hosts:
        for hung in (0, 1, 2, 4):
            n, edges = base.n, base.edges()
            for _ in range(hung):
                # a path grows from its last vertex, a tree from any earlier one
                k, path = rng.randint(1, 4), rng.random() < 0.5
                for j in range(k):
                    edges.append((n + j, n + j - 1 if path and j else rng.randrange(n + j)))
                n += k
            perm = rng.sample(range(n), n)
            removed = _core_case(Graph(n, [(perm[u], perm[v]) for u, v in edges]))
            bare = _core_case(base) if base in hosts else 0
            assert removed == n - base.n + bare, (base.edges(), edges)
    assert [_core_case(g) for g in hosts] == [5, 4, 2]
    assert _core_case(generate("path", k=9)) == 9


def test_tree_alpha_matches_references():
    # against the recurrence over eliminated sets on every graph, and the
    # minimal triangulations by branching on n <= 6
    for g in ATLAS:
        want = reference_subset_tree_alpha(g)
        assert tree_alpha_exact(g) == want, g.edges()
        if g.n <= 6:
            assert reference_tree_alpha(g) == want, g.edges()


def test_tree_alpha_monotone_and_one_iff_chordal():
    # tree-alpha(G - v) <= tree-alpha(G) for every v, so for every induced
    # subgraph; and a graph with a vertex has tree-alpha 1 exactly when
    # chordal
    for g in ATLAS:
        ta = tree_alpha_exact(g)
        for v in g.vertices:
            assert tree_alpha_exact(g.induced(set(g.vertices) - {v})[0]) <= ta, (g.edges(), v)
        assert g.n == 0 or (ta == 1) == is_chordal(g), g.edges()


def test_is_chordal(graphs):
    answers = [is_chordal(g) for g in graphs]
    assert answers == [naive_is_chordal(g) for g in graphs]
    assert 0 < sum(answers) < len(graphs)


def test_alpha_exact(graphs):
    for g in graphs:
        want = naive_alpha(g)
        assert alpha_exact(g) == want, g.edges()
        found = max_stable_set(g)
        assert len(found) == want and not any(g.has_edge(a, b) for a in found for b in found)


def test_mwis_brute(graphs):
    # seeded weights 0-9: zeros let a witness leave vertices out
    rng = random.Random(7)
    for g in graphs:
        weights = {v: rng.randrange(10) for v in g.vertices}
        found, value = mwis(MWISInstance(g, weights), "brute")
        assert value == naive_mwis(g, weights) == sum(weights[v] for v in found), g.edges()


def test_validate_td(graphs):
    # the single bag is a decomposition; that bag less its highest vertex
    # misses that vertex and its edges, and under the relabelling the
    # highest vertex is another one of the graph's
    for g in graphs:
        assert validate_td(g, TreeDecomposition.single_bag(g)).ok
        if g.n:
            td = TreeDecomposition(Graph(1), {0: frozenset(range(g.n - 1))})
            report = validate_td(g, td)
            assert not report.ok and report.violations == naive_validate_td(g, td), g.edges()


def test_line_graph(graphs):
    for g in graphs:
        assert line_graph(g) == naive_line_graph(g), g.edges()


def test_graph6(graphs):
    for g in graphs:
        text = nx.to_graph6_bytes(nx_graph(g), header=False).decode().strip()
        assert emit_graph(g, "graph6") == text, g.edges()
        assert parse_graph(text, "graph6") == g
