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
from treealpha.graphs import (Graph, _bits, _frame, alpha_exact, emit_graph, line_graph,
                              max_stable_set, parse_graph)
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
    naive_hall_refuses,
    naive_is_chordal,
    naive_line_graph,
    naive_mwis,
    naive_step_plan,
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
        emb = patterns._backtrack_induced(patterns._host_profile(g, profile[1] != 0), profile)
        assert emb is not None and emb.mapping == {x: x for x in range(h.n)}, h.edges()
        blocked, tri = 0, profile[1]
        for u, step in enumerate(profile[2]):
            blocked |= framed[u] | 1 << u
            free = [x for x in range(h.n) if not blocked >> x & 1]
            assert step[5] == tuple((d, sum(profile[0][x] >= d for x in free),
                                     sum(profile[0][x] >= d and tri >> x & 1 for x in free))
                                    for d, _, _ in step[5])


def test_hall_refuses_matches_naive():
    refused = 0
    for g in ATLAS:
        host = patterns._host_profile(g)
        for h in PATTERNS:
            got = patterns._hall_refuses(host, patterns._pattern_need(h._masks)[2])
            assert got == naive_hall_refuses(g, h), (g.edges(), h.edges())
            refused += got
    assert 0 < refused < 22_554


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
