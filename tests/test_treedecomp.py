"""Tree decompositions, exact tree independence number, MWIS."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import networkx as nx
import pytest

import treealpha
from treealpha import graphs, treedecomp
from treealpha.errors import (
    CapExceededError,
    FormatError,
    InvariantViolationError,
    OracleContractError,
    PreconditionError,
)
from treealpha.graphs import (
    Graph,
    WeightFn,
    _reach,
    alpha_exact,
    check_vertex_set,
    closed_nbhd,
    components,
    emit_graph,
    generate,
    line_graph,
    mask_to_set,
    max_stable_set,
    parse_graph,
    subdivide,
)
from treealpha.patterns import (
    Embedding,
    PatternSpec,
    contains_induced,
    find_pattern,
    lt_free_upto,
)
from treealpha.treedecomp import (
    MWISInstance,
    TreeDecomposition,
    _subset_tree_alpha,
    assemble_td,
    is_chordal,
    minimal_triangulations,
    mwis,
    td_stats,
    tree_alpha_exact,
    validate_td,
)

from .oracles import (
    minimal_triangulations_by_branching,
    naive_alpha,
    naive_mwis,
    naive_stable_subset_count,
    naive_validate_td,
    nx_graph,
    nx_mwis,
    reference_assemble_td,
    reference_max_weight_stable,
    reference_mwis_td,
    reference_subset_tree_alpha,
    reference_tree_alpha,
)


def brute_balanced_separator(g: Graph, w: WeightFn, c=Fraction(1, 2)):
    """Smallest vertex set whose removal leaves every component weight <= c."""
    verts = list(g.vertices)
    for size in range(g.n + 1):
        for x in combinations(verts, size):
            xs = frozenset(x)
            if all(w.weight(comp) <= c for comp in components(g, xs)):
                return xs
    return frozenset(verts)


def logged(log: list, answers=(), c=Fraction(1, 2)):
    """An oracle that appends each instance it gets to log, as (sub.n,
    sub.edges(), sorted(w.heavy)), and answers its i-th call with answers[i], or
    past their end as brute_balanced_separator."""
    def oracle(sub, w):
        log.append((sub.n, sub.edges(), sorted(w.heavy)))
        i = len(log) - 1
        return answers[i] if i < len(answers) else brute_balanced_separator(sub, w, c)
    return oracle


def elimination_td(g: Graph, order: list[int]) -> TreeDecomposition:
    """Decomposition from eliminating g's vertices in order: node i holds the
    i-th vertex with its neighbours eliminated later (fill edges added) and
    hangs below the node of the first of those; roots are chained."""
    pos = {v: i for i, v in enumerate(order)}
    adj = [set(g.neighbors(v)) for v in g.vertices]
    bags, edges, roots = {}, [], []
    for i, v in enumerate(order):
        later = {u for u in adj[v] if pos[u] > i}
        for a, b in combinations(later, 2):
            adj[a].add(b)
            adj[b].add(a)
        bags[i] = frozenset(later | {v})
        if later:
            edges.append((i, min(pos[u] for u in later)))
        else:
            roots.append(i)
    edges += list(zip(roots, roots[1:]))
    return TreeDecomposition(Graph(g.n, edges), bags)


def corrupted(g: Graph, td: TreeDecomposition, rng: random.Random):
    """A bag dropped, a bag emptied, a vertex removed from a bag, a tree edge
    moved, a vertex added to a bag that does not hold it, bags as lists with
    a member repeated, and members that are out of range or not ints, in a
    set bag and repeated in a list bag."""
    nodes = list(td.bags)
    if not nodes:
        return
    k = rng.choice(nodes)
    yield TreeDecomposition(td.tree, {t: b for t, b in td.bags.items() if t != k})
    yield TreeDecomposition(td.tree, {**td.bags, k: frozenset()})
    full = [t for t in nodes if td.bags[t]]
    k = rng.choice(full)
    v = rng.choice(sorted(td.bags[k]))
    yield TreeDecomposition(td.tree, {**td.bags, k: td.bags[k] - {v}})
    edges = td.tree.edges()
    if edges and td.tree.n >= 3:
        edges.remove(rng.choice(edges))
        free = [(a, b) for a, b in combinations(nodes, 2) if (a, b) not in edges]
        edges.append(rng.choice(free))
        yield TreeDecomposition(Graph(td.tree.n, edges), td.bags)
    outside = [t for t in nodes if v not in td.bags[t]]
    far = rng.choice(outside) if outside else None
    if outside:
        yield TreeDecomposition(td.tree, {**td.bags, far: td.bags[far] | {v}})
    lists = {t: sorted(b) for t, b in td.bags.items()}
    lists[k].insert(rng.randrange(len(lists[k]) + 1), v)
    yield TreeDecomposition(td.tree, lists)
    if outside:  # repeated outside its subtree too
        yield TreeDecomposition(td.tree, {**lists, far: lists[far] + [v, v]})
    stray = rng.choice([-1, g.n, g.n + 7, True, False, 1.0, "0", None])
    yield TreeDecomposition(td.tree, {**td.bags, k: td.bags[k] | {stray}})
    yield TreeDecomposition(td.tree, {**lists, k: [stray, *lists[k], stray]})


def _union(*gs: Graph) -> Graph:
    """The disjoint union, each graph's ids shifted past the ones before it."""
    edges, n = [], 0
    for g in gs:
        edges += [(u + n, v + n) for u, v in g.edges()]
        n += g.n
    return Graph(n, edges)


def _with_pendant_path(g: Graph, k: int) -> Graph:
    """g with a path of k new vertices hanging from vertex 0."""
    path = [0, *range(g.n, g.n + k)]
    return Graph(g.n + k, g.edges() + list(zip(path, path[1:])))


def _greedy_elimination_bound(g: Graph) -> int:
    """The largest bag alpha of the greedy elimination that
    ``_subset_tree_alpha`` runs first: each step eliminates the vertex whose
    bag has the least alpha, the lowest one on ties."""
    adj, full, unit = g._masks, (1 << g.n) - 1, [1] * g.n
    bound = before = 0
    while before != full:
        a, v = min((reference_max_weight_stable(adj, _reach(adj, 1 << v, before) & ~before,
                                                unit).bit_count(), v)
                   for v in mask_to_set(full ^ before))
        bound = max(bound, a)
        before |= 1 << v
    return bound


def _random_forest(rng: random.Random, n: int) -> Graph:
    return Graph(n, [(v, rng.randrange(v)) for v in range(1, n) if rng.random() < 0.8])


def _random_chordal(rng: random.Random, n: int) -> Graph:
    """An intersection graph of subtrees of a random tree: chordal."""
    size = rng.randint(1, 8)
    parent = [-1] + [rng.randrange(i) for i in range(1, size)]
    tree_adj = [set() for _ in range(size)]
    for i in range(1, size):
        tree_adj[i].add(parent[i])
        tree_adj[parent[i]].add(i)
    subtrees = []
    for _ in range(n):
        grown = {rng.randrange(size)}
        for _ in range(rng.randint(0, 3)):
            grown.add(rng.choice(sorted(set().union(*(tree_adj[x] for x in grown)) | grown)))
        subtrees.append(grown)
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if subtrees[u] & subtrees[v]])


def _elimination_fill(g: Graph) -> Graph:
    """g with the fill of eliminating 0, 1, ..., n - 1 in turn: each vertex's
    later neighbours made a clique. That order is a perfect elimination
    order of the result, so the result is chordal."""
    nbrs = [set(g.neighbors(v)) for v in g.vertices]
    for v in g.vertices:
        later = sorted(u for u in nbrs[v] if u > v)
        for a, b in combinations(later, 2):
            nbrs[a].add(b)
            nbrs[b].add(a)
    return Graph(g.n, [(u, v) for u in g.vertices for v in nbrs[u] if u < v])


def _grid_strip(k: int, length: int) -> tuple[Graph, TreeDecomposition]:
    """The k-by-length grid, ids column-major, with its sliding-window path
    decomposition: bag i holds ids i..i+k."""
    n = k * length
    edges = [(v, v + 1) for v in range(n) if (v + 1) % k]
    edges += [(v, v + k) for v in range(n - k)]
    nodes = max(n - k, 1)
    return Graph(n, edges), TreeDecomposition(
        Graph(nodes, [(i, i + 1) for i in range(nodes - 1)]),
        {i: frozenset(range(i, min(i + k + 1, n))) for i in range(nodes)})


def _shuffled_path(rng: random.Random) -> tuple[Graph, TreeDecomposition]:
    """A random graph whose edges join ids at most k apart, k from 1 to 3,
    with its sliding-window path decomposition, bag i holding ids i..i+k,
    under shuffled node labels: each child bag both loses and gains a vertex
    against its parent, and the root lands anywhere on the path."""
    k = rng.randint(1, 3)
    n = rng.randint(k + 2, 11)
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, min(u + k + 1, n))
                  if rng.random() < 0.6])
    nodes = n - k
    label = list(range(nodes))
    rng.shuffle(label)
    return g, TreeDecomposition(
        Graph(nodes, [(label[i], label[i + 1]) for i in range(nodes - 1)]),
        {label[i]: frozenset(range(i, i + k + 1)) for i in range(nodes)},
    )


def _dp_cases(rng: random.Random) -> list[tuple[Graph, TreeDecomposition]]:
    """Seeded graphs with a decomposition of every shape the DP is tested
    on: single bags, elimination orders, assemble_td's, sliding-window paths
    with shuffled node labels, and grid strips."""
    cases = []
    for _ in range(20):
        g = generate("gnp", n=rng.randint(1, 10), p=rng.choice([0.2, 0.4, 0.6]),
                     seed=rng.randrange(10**6))
        order = list(g.vertices)
        rng.shuffle(order)
        cases += [(g, TreeDecomposition.single_bag(g)), (g, elimination_td(g, order)),
                  (g, assemble_td(g, brute_balanced_separator).td), _shuffled_path(rng)]
    cases += [_grid_strip(k, length) for k, length in ((2, 7), (3, 5), (5, 6), (6, 6))]
    return cases


def _rerooted(bags: list[frozenset[int]], root: int) -> TreeDecomposition:
    """The path decomposition with the given bags in order, its node
    labels turned so that the root-th bag is node 0: the bags before it
    hang below it on one side and the bags after it on the other."""
    m = len(bags)
    label = [(i - root) % m for i in range(m)]
    return TreeDecomposition(Graph(m, [(label[i], label[i + 1]) for i in range(m - 1)]),
                             {label[i]: b for i, b in enumerate(bags)})


def _shift_cases() -> list[tuple[str, Graph, TreeDecomposition]]:
    """The decompositions on which the DP's shift of each bag's states by
    its lowest vertex could go wrong: no bags, empty bags at the root, a
    leaf and an interior node, bags far from vertex 0 on 5 000 vertices, a
    bag holding both 0 and n - 1, and children whose lowest vertex lies
    below and above their parent's."""
    def path_td(bags, empty_at):
        bags = list(bags)
        bags.insert(empty_at, frozenset())
        return _rerooted(bags, 0)

    p6 = generate("path", k=6)
    two_paths = _union(generate("path", k=3), generate("path", k=3))
    strip = _grid_strip(3, 8)
    # a path on 1..n-2 with its bags {i, i + 1}, and the triangle {0, m, n - 1}
    # as one more bag hung from {m, m + 1}; the tree hangs from {m, m + 1}, so
    # the path below it, the path above it and the triangle are its children
    n, m = 5000, 2500
    far = Graph(n, [(i, i + 1) for i in range(1, n - 2)] + [(0, m), (0, n - 1), (m, n - 1)])
    bags = [frozenset({i, i + 1}) for i in range(1, n - 2)] + [frozenset({0, m, n - 1})]
    k, root = len(bags), m - 1
    label = list(range(k))
    label[0], label[root] = root, 0
    tree = Graph(k, [(label[j], label[j + 1]) for j in range(k - 2)] + [(label[k - 1], 0)])
    return [
        ("no bags", Graph(0), TreeDecomposition(Graph(0), {})),
        ("Graph(0)", Graph(0), TreeDecomposition.single_bag(Graph(0))),
        ("empty root", p6, path_td([frozenset(range(4)), frozenset({3, 4, 5})], 0)),
        ("empty leaf", p6, path_td([frozenset(range(4)), frozenset({3, 4, 5})], 2)),
        ("empty interior", two_paths, path_td([frozenset(range(3)), frozenset({3, 4, 5})], 1)),
        ("far from 0", far, TreeDecomposition(tree, {label[j]: b for j, b in enumerate(bags)})),
        ("below and above", strip[0],
         _rerooted([strip[1].bags[i] for i in range(strip[1].tree.n)], strip[1].tree.n // 2)),
    ]


class TestValidate:
    def test_indexed_matches_quadratic_oracle(self):
        rng = random.Random(43)
        kinds = set()
        for _ in range(150):
            n = rng.randint(0, 9)
            g = generate("gnp", n=n, p=rng.choice([0.2, 0.4, 0.7]),
                         seed=rng.randrange(10**6)) if n else Graph(0)
            order = list(g.vertices)
            rng.shuffle(order)
            td = elimination_td(g, order)
            assert validate_td(g, td).ok
            assert naive_validate_td(g, td) == []
            for bad in corrupted(g, td, rng):
                got = validate_td(g, bad).violations
                assert got == naive_validate_td(g, bad)
                kinds.update(kind for kind, _ in got)
        assert kinds == {"tree", "vertex-range", "vertex-coverage", "edge-coverage",
                         "subtree-connectivity"}

    def test_json_roundtrip(self):
        g = generate("gnp", n=8, p=0.4, seed=3)
        td = elimination_td(g, list(g.vertices))
        again = TreeDecomposition.from_json(td.to_json())
        assert again.tree == td.tree and again.bags == td.bags

    def test_to_json_writes_each_member_once_and_refuses_non_ints(self):
        td = TreeDecomposition(Graph(2, [(0, 1)]), {0: [0, 0], 1: [2, 0, 2]})
        assert '"bags": {"0": [0], "1": [0, 2]}' in td.to_json()
        assert TreeDecomposition.from_json(td.to_json()).bags == {0: {0}, 1: {0, 2}}
        for bag in ([0, "a"], [0, 1.0], [True], [None], [[0]]):
            with pytest.raises(PreconditionError):
                TreeDecomposition(Graph(1), {0: bag}).to_json()
        for bags in (None, {"0": [0]}, {0: 5}):
            with pytest.raises(PreconditionError):
                TreeDecomposition(Graph(1), bags).to_json()

    def test_bad_json_is_format_error(self):
        for text in ("not json", "[]", '{"nodes": [0]}', '{"nodes": 3, "edges": [], "bags": {}}',
                     '{"nodes": [0, 1], "edges": [[0, 5]], "bags": {}}',
                     '{"nodes": [0, 1], "edges": [[0]], "bags": {}}',
                     '{"nodes": [0], "edges": [], "bags": {"x": [0]}}',
                     '{"nodes": [0], "edges": [], "bags": {"0": ["a"]}}',
                     '{"nodes": [0], "edges": [], "bags": {"0": [0, true]}}',
                     '{"nodes": [0, 1], "edges": [[0, true]], "bags": {}}',
                     '{"nodes": [0], "edges": [], "bags": {"0": [0], "00": [0]}}',
                     # to_json writes each bag key as ASCII digits, which int()
                     # alone does not require
                     '{"nodes": [0], "edges": [], "bags": {"0_0": [0]}}',
                     '{"nodes": [0], "edges": [], "bags": {" 0": [0]}}',
                     '{"nodes": [0], "edges": [], "bags": {"+0": [0]}}',
                     '{"nodes": [0], "edges": [], "bags": {"-0": [0]}}',
                     '{"nodes": [0], "edges": [], "bags": {"\u0660": [0]}}',
                     # the node list must read 0..k-1 in plain ints
                     '{"nodes": ["x", 7], "edges": [[0, 1]], "bags": {"0": [0], "1": [0]}}',
                     '{"nodes": {"0": 0}, "edges": [], "bags": {"0": [0]}}',
                     '{"nodes": "0", "edges": [], "bags": {"0": [0]}}',
                     '{"nodes": [false, true], "edges": [[0, 1]], "bags": {"0": [0], "1": [0]}}',
                     '{"nodes": [0.0], "edges": [], "bags": {"0": [0]}}',
                     '{"nodes": [1, 0], "edges": [[0, 1]], "bags": {"0": [0], "1": [0]}}',
                     '{"nodes": [0, 0], "edges": [[0, 1]], "bags": {"0": [0], "1": [0]}}'):
            with pytest.raises(FormatError):
                TreeDecomposition.from_json(text)

    def test_single_bag_always_ok(self):
        g = generate("gnp", n=8, p=0.5, seed=0)
        assert validate_td(g, TreeDecomposition.single_bag(g)).ok

    def test_p3_two_bags(self):
        g = generate("path", k=3)
        td = TreeDecomposition(Graph(2, [(0, 1)]), {0: frozenset({0, 1}), 1: frozenset({1, 2})})
        assert validate_td(g, td).ok

    def test_edge_uncovered(self):
        g = generate("path", k=3)
        td = TreeDecomposition(Graph(2, [(0, 1)]), {0: frozenset({0, 1}), 1: frozenset({2})})
        report = validate_td(g, td)
        assert not report.ok
        assert ("edge-coverage", (1, 2)) in report.violations

    def test_vertex_uncovered(self):
        g = generate("path", k=3)
        td = TreeDecomposition(Graph(1), {0: frozenset({0, 1})})
        report = validate_td(g, td)
        assert any(v[0] == "vertex-coverage" for v in report.violations)

    def test_disconnected_subtree(self):
        g = Graph(3, [(0, 1), (1, 2)])
        td = TreeDecomposition(
            Graph(3, [(0, 1), (1, 2)]),
            {0: frozenset({0, 1}), 1: frozenset({1, 2}), 2: frozenset({0, 2})},
        )
        report = validate_td(g, td)
        assert any(v[0] == "subtree-connectivity" for v in report.violations)

    def test_non_tree_rejected(self):
        g = generate("path", k=3)
        td = TreeDecomposition(
            Graph(3, [(0, 1), (1, 2), (0, 2)]),
            {i: frozenset(g.vertices) for i in range(3)},
        )
        report = validate_td(g, td)
        assert ("tree", "decomposition tree is not a tree") in report.violations


class TestStats:
    def test_single_bag_c5(self):
        g = generate("cycle", k=5)
        assert td_stats(g, TreeDecomposition.single_bag(g)) == (4, 2)

    def test_path_decomposition(self):
        g = generate("path", k=5)
        td = TreeDecomposition(
            generate("path", k=4),
            {i: frozenset({i, i + 1}) for i in range(4)},
        )
        assert validate_td(g, td).ok
        assert td_stats(g, td) == (1, 1)

    def test_clique_bags_have_independence_1(self):
        g = generate("complete", k=6)
        assert td_stats(g, TreeDecomposition.single_bag(g)) == (5, 1)

    def test_width_counts_distinct_ids(self):
        # a repeated member counts once, as validate_td reads it: the bag's
        # length less one would give (2, 1)
        td = TreeDecomposition(Graph(1), {0: [0, 1, 1]})
        assert validate_td(Graph(2, [(0, 1)]), td).ok
        assert td_stats(Graph(2, [(0, 1)]), td) == (1, 1)

    def test_matches_naive_on_repeats_and_corruptions(self):
        # width and alpha against the distinct ids of each bag, on the DP's
        # decompositions with their bags as lists holding a member twice, and
        # on every corruption of an elimination decomposition; a member that
        # is not an id of g is refused, a malformed tree is not
        rng = random.Random(71)
        cases = []
        for g, td in _dp_cases(rng):
            lists = {t: sorted(b) + sorted(b)[:1] for t, b in td.bags.items()}
            cases += [(g, td), (g, TreeDecomposition(td.tree, lists))]
        for _ in range(60):
            g = generate("gnp", n=rng.randint(1, 8), p=rng.choice([0.2, 0.5]),
                         seed=rng.randrange(10**6))
            order = list(g.vertices)
            rng.shuffle(order)
            cases += [(g, bad) for bad in corrupted(g, elimination_td(g, order), rng)]
        refused = 0
        for g, td in cases:
            ids = [set(b) for b in td.bags.values()]
            if any(not (type(v) is int and 0 <= v < g.n) for b in ids for v in b):
                with pytest.raises(PreconditionError):
                    td_stats(g, td)
                refused += 1
                continue
            want = (max(map(len, ids), default=0) - 1,
                    max((naive_alpha(g, b) for b in ids), default=0))
            assert td_stats(g, td) == want
        assert 0 < refused < len(cases)

    def test_measures_the_bags_of_a_malformed_tree(self):
        # validate_td rejects these trees; td_stats still measures their bags
        g = generate("path", k=4)
        bags = {0: frozenset({0, 1}), 1: frozenset({1, 2, 3}), 2: frozenset({0, 2})}
        for tree in (Graph(2, [(0, 1)]), Graph(5, [(0, 1), (1, 2)]),
                     Graph(3, [(0, 1), (1, 2), (0, 2)]), Graph(3)):
            td = TreeDecomposition(tree, bags)
            assert validate_td(g, td).violations[0][0] == "tree"
            assert td_stats(g, td) == (2, 2)

    def test_keys_that_are_not_tree_nodes(self):
        # a negative key, or one far past the tree (from_json reads any
        # numeral), is reported as a key that matches no node, and its bag is
        # still measured
        g = generate("path", k=4)
        tree = Graph(2, [(0, 1)])
        text = TreeDecomposition(tree, {0: {0, 1}, 1: {1, 2, 3}}).to_json()
        cases = [TreeDecomposition(tree, {0: frozenset({0, 1}), key: frozenset({1, 2, 3})})
                 for key in (-1, 10**12)]
        cases.append(TreeDecomposition.from_json(text.replace('"1":', f'"{10**12}":')))
        for td in cases:
            assert validate_td(g, td).violations == [("tree", "bag keys do not match tree nodes")]
            assert td_stats(g, td) == (2, 2)


class TestChordality:
    def test_matches_maximum_cardinality_search(self):
        # the simplicial worklist against networkx's chordality test, a
        # maximum cardinality search
        rng = random.Random(71)
        cases = [Graph(0)] + [generate("cycle", k=k) for k in range(3, 12)]
        for _ in range(3000):
            cases.append(generate("gnp", n=rng.randint(1, 11),
                                  p=rng.choice([0.1, 0.2, 0.3, 0.5, 0.7, 0.9]),
                                  seed=rng.randrange(10**6)))
        chordal = 0
        for g in cases:
            want = nx.is_chordal(nx_graph(g))
            assert is_chordal(g) == want, g.edges()
            chordal += want
        assert 0 < chordal < len(cases)

    def test_matches_networkx_at_30_to_40(self):
        # G(n, p) hosts, rarely chordal, and the fill of each, always chordal;
        # networkx is called here, as the oracles may not name is_chordal
        rng = random.Random(73)
        answers = []
        for _ in range(20):
            g = generate("gnp", n=rng.randint(30, 40), p=rng.choice([0.03, 0.06, 0.1, 0.3]),
                         seed=rng.randrange(10**6))
            for h in (g, _elimination_fill(g)):
                want = nx.is_chordal(nx_graph(h))
                assert is_chordal(h) == want, h.edges()
                answers.append(want)
        assert 0 < sum(answers) < len(answers)


class TestTreeAlpha:
    def test_chordal_graphs_give_1(self):
        for g in (
            generate("complete", k=5),
            generate("path", k=6),
            Graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)]),
        ):
            assert tree_alpha_exact(g) == 1

    def test_c4_is_2(self):
        assert tree_alpha_exact(generate("cycle", k=4)) == 2

    def test_cycles_are_2(self):
        for k in range(4, 8):
            assert tree_alpha_exact(generate("cycle", k=k)) == 2

    def test_kn_is_1(self):
        assert tree_alpha_exact(generate("complete", k=7)) == 1

    def test_cap(self):
        # the cap bounds the largest piece left after the reductions: C_11
        # has no simplicial vertex and is one piece, and a pendant path
        # hanging off it is removed vertex by vertex
        c11 = generate("cycle", k=11)
        for g in (c11, _with_pendant_path(c11, 20)):
            with pytest.raises(CapExceededError) as err:
                tree_alpha_exact(g)
            assert err.value.size == 11
        assert tree_alpha_exact(generate("cycle", k=10)) == 2

    def test_answers_above_ten_vertices(self):
        # every piece fits the cap although n does not
        c5 = generate("cycle", k=5)
        cases = [
            (Graph(0), 0),
            (Graph(11), 1),
            (generate("path", k=30), 1),
            (generate("complete", k=12), 1),
            (generate("complete_bipartite", a=1, b=20), 1),
            (_union(c5, c5, c5), 2),
            (_with_pendant_path(generate("cycle", k=6), 20), 2),
        ]
        for g, want in cases:
            assert tree_alpha_exact(g) == want, g

    def test_matches_plain_recurrence_on_random_graphs(self):
        # the reductions against the subset recurrence run on the whole graph
        rng = random.Random(61)
        cases = [Graph(0)] + [Graph(k) for k in range(1, 11)]
        for _ in range(1000):
            cases.append(generate("gnp", n=rng.randint(1, 10),
                                  p=rng.choice([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
                                  seed=rng.randrange(10**6)))
        for g in cases:
            assert tree_alpha_exact(g) == reference_subset_tree_alpha(g), g.edges()

    def test_matches_plain_recurrence_on_forests_chordal_graphs_and_unions(self):
        rng = random.Random(67)
        forests = [_random_forest(rng, rng.randint(1, 10)) for _ in range(60)]
        chordal = [_random_chordal(rng, rng.randint(1, 10)) for _ in range(60)]
        assert all(is_chordal(g) for g in forests + chordal)
        unions = []
        for i in range(60):
            parts = [_random_forest(rng, rng.randint(1, 4)),
                     _random_chordal(rng, rng.randint(1, 4)),
                     generate("cycle", k=rng.randint(3, 5))]
            rng.shuffle(parts)
            g = _union(*parts)
            # every other union also gets a few edges between its parts
            extra = [(u, v) for u, v in combinations(g.vertices, 2)
                     if i % 2 and rng.random() < 0.03]
            unions.append(Graph(g.n, g.edges() + extra))
        for g in forests + chordal + unions:
            assert tree_alpha_exact(g) == reference_subset_tree_alpha(g), g.edges()

    def test_matches_plain_recurrence_above_the_default_cap(self):
        # 14 of these graphs leave a piece of 11 or 12 vertices, above the
        # default cap; the reference takes each bag's alpha by branch and bound
        for n in (11, 12):
            for p in (0.2, 0.3, 0.5, 0.7):
                for seed in range(4):
                    g = generate("gnp", n=n, p=p, seed=seed)
                    want = reference_subset_tree_alpha(g)
                    assert tree_alpha_exact(g, cap_override=12) == want, (n, p, seed)

    def test_reference_values(self):
        for t in (2, 3, 4):
            assert tree_alpha_exact(generate("complete_bipartite", a=t, b=t)) == t
        # the 2-wall has 16 vertices, none simplicial, and is one piece
        assert tree_alpha_exact(generate("wall", t=2), cap_override=16) == 2
        # so has its line graph, with 19
        assert tree_alpha_exact(line_graph(generate("wall", t=2))[0], cap_override=19) == 3

    def test_subset_recurrence_on_unpeeled_graphs_and_masks(self):
        # the greedy bound's early return holds for any mask, not only for
        # the pieces the reductions leave
        rng = random.Random(71)
        cases = [generate("cycle", k=k) for k in range(3, 9)]
        cases += [_random_chordal(rng, rng.randint(1, 10)) for _ in range(60)]
        cases += [generate("gnp", n=rng.randint(1, 10), p=rng.choice([0.2, 0.3, 0.5, 0.7]),
                           seed=rng.randrange(10**6)) for _ in range(300)]
        for g in cases:
            full = (1 << g.n) - 1
            assert _subset_tree_alpha(g._masks, full) == reference_subset_tree_alpha(g), g.edges()
            keep = rng.randrange(full + 1)
            sub = g.induced(mask_to_set(keep))[0]
            assert _subset_tree_alpha(g._masks, keep) == reference_subset_tree_alpha(sub), g.edges()

    def test_subset_recurrence_where_the_greedy_bound_is_above_two(self):
        # graphs whose greedy bound is 3 or more, so the recurrence runs,
        # clipped at that bound; on some the answer is 2, below it
        rng = random.Random(3)
        cases = []
        while len(cases) < 30:
            g = generate("gnp", n=rng.randint(9, 10), p=rng.choice([0.4, 0.5, 0.6]),
                         seed=rng.randrange(10**6))
            bound = _greedy_elimination_bound(g)
            if bound >= 3:
                cases.append((g, bound))
        below = 0
        for g, bound in cases:
            want = reference_subset_tree_alpha(g)
            assert _subset_tree_alpha(g._masks, (1 << g.n) - 1) == want, g.edges()
            below += want < bound
        assert below > 0

    def test_greedy_bound_above_the_answer_is_lowered(self):
        # (n, p, seed, greedy bound, tree-alpha), found by a search over
        # seeded gnp graphs and the values taken from the reference
        for n, p, seed, bound, want in [(9, 0.3, 19, 3, 2), (10, 0.5, 11, 3, 2),
                                        (11, 0.6, 0, 3, 2), (12, 0.3, 5, 3, 2),
                                        (12, 0.4, 15, 4, 3)]:
            g = generate("gnp", n=n, p=p, seed=seed)
            assert _greedy_elimination_bound(g) == bound, (n, p, seed)
            assert _subset_tree_alpha(g._masks, (1 << n) - 1) == want, (n, p, seed)

    def test_matches_triangulation_reference(self):
        rng = random.Random(59)
        cases = [Graph(0)]
        for k in range(1, 9):
            cases += [Graph(k), generate("complete", k=k)]
            cases += [generate("cycle", k=k)] if k >= 3 else []
        cases += [Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]),
                  Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]),
                  Graph(6, [(0, 1), (2, 3), (4, 5)])]
        for _ in range(160):
            cases.append(generate("gnp", n=rng.randint(1, 7),
                                  p=rng.choice([0.2, 0.35, 0.5, 0.7]),
                                  seed=rng.randrange(10**6)))
        for g in cases:
            assert tree_alpha_exact(g) == reference_tree_alpha(g), g.edges()

    def test_minimal_triangulations_match_branching_oracle(self):
        rng = random.Random(17)
        cases = [generate("cycle", k=k) for k in range(4, 9)]
        # the empty graph, and hosts of two components
        cases += [Graph(0), _union(generate("cycle", k=4), generate("cycle", k=4)),
                  _union(generate("cycle", k=5), generate("complete", k=3))]
        cases += [
            generate("gnp", n=rng.randint(3, 6), p=rng.choice([0.3, 0.5, 0.7]),
                     seed=rng.randrange(10**6))
            for _ in range(25)
        ]
        cases += [
            generate("gnp", n=rng.randint(1, 7), p=rng.choice([0.2, 0.3, 0.5, 0.7]),
                     seed=rng.randrange(10**6))
            for _ in range(100)
        ]
        for g in cases:
            assert minimal_triangulations(g) == minimal_triangulations_by_branching(g)

    def test_c4_triangulations_are_the_two_diagonals(self):
        fills = minimal_triangulations(generate("cycle", k=4))
        assert fills == {frozenset({(0, 2)}), frozenset({(1, 3)})}


class TestAssemble:
    def test_single_vertex(self):
        g = Graph(1)
        result = assemble_td(g, brute_balanced_separator)
        assert validate_td(g, result.td).ok

    def test_p20_with_brute_oracle(self):
        g = generate("path", k=20)
        result = assemble_td(g, brute_balanced_separator)
        assert validate_td(g, result.td).ok
        _, indep = td_stats(g, result.td)
        assert indep <= 5 * max(result.d_realized, 1)

    def test_chordal_instance(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)])
        result = assemble_td(g, brute_balanced_separator)
        assert validate_td(g, result.td).ok

    def test_oracle_breach_detected(self):
        g = generate("path", k=8)

        def bad_oracle(sub, w):
            return frozenset()  # never balanced for a connected normal weight

        with pytest.raises(OracleContractError):
            assemble_td(g, bad_oracle)
        # outputs that are not an iterable of the instance's int ids
        for out in (None, 3, ["a"], [1.0], [8], [[1]]):
            with pytest.raises(OracleContractError) as err:
                assemble_td(g, lambda sub, w, out=out: out)
            sub, w = err.value.instance
            assert sub == g and isinstance(w, WeightFn)

    def test_breach_carries_the_instance_the_oracle_saw(self):
        # whichever call breaks the contract, the error holds that call's
        # subgraph and weight, so sep_oracle(*err.instance) replays it
        for g in (generate("path", k=9), generate("gnp", n=10, p=0.3, seed=5)):
            assert len(components(g)) == 1  # so an empty separator is never balanced
            calls = len(assemble_td(g, brute_balanced_separator).oracle_alphas)
            for breach_at in range(calls):
                for bad in (lambda sub: frozenset(), lambda sub: [sub.n]):
                    log = []

                    def oracle(sub, w, bad=bad, breach_at=breach_at, log=log):
                        log.append((sub, w.heavy))
                        if len(log) > breach_at:
                            return bad(sub)
                        return brute_balanced_separator(sub, w)

                    with pytest.raises(OracleContractError) as err:
                        assemble_td(g, oracle)
                    sub, w = err.value.instance
                    assert len(log) == breach_at + 1 and (sub, w.heavy) == log[-1]

    def test_balance_boundary(self):
        # on C_8 with c = 1/2: {2, 7} leaves 4 of 8 vertices in {3..6}; the
        # child on region {0, 1} gets G[{0, 1, 2, 7}] (sub ids 0..3) and
        # sub {2, 3}, i.e. host {2, 7}, leaves 2 of 4 in {0, 1}; that misses
        # the region, so the forced re-cut puts the weight on {0, 1} alone,
        # and sub {0} leaves 1 of those 2. Each answer holds exactly c.
        g = generate("cycle", k=8)
        log = []
        result = assemble_td(g, logged(log, [{2, 7}, {2, 3}, {0}]))
        assert validate_td(g, result.td).ok
        assert [entry[2] for entry in log[1:3]] == [[0, 1, 2, 3], [0, 1]]
        # one vertex of the weight more in a component, at each of the three calls
        for answers in ([{1, 7}], [{2, 7}, {3}], [{2, 7}, {2, 3}, {3}]):
            log = []
            with pytest.raises(OracleContractError, match="not a balanced separator"):
                assemble_td(g, logged(log, answers))
            assert len(log) == len(answers)

    def test_bag_alpha_above_the_bound_is_refused(self, monkeypatch):
        # td_stats reads the bound, then one more: ceil((3 - c)/(1 - c)) is 5
        # at c = 1/2 and 9 at c = 3/4, times max(d_realized, 1)
        g = generate("path", k=8)
        for c, ratio in ((Fraction(1, 2), 5), (Fraction(3, 4), 9)):
            want = assemble_td(g, brute_balanced_separator, c)
            bound = ratio * max(want.d_realized, 1)
            monkeypatch.setattr(treedecomp, "td_stats", lambda *args: (0, bound))
            assert assemble_td(g, brute_balanced_separator, c) == want
            monkeypatch.setattr(treedecomp, "td_stats", lambda *args: (0, bound + 1))
            with pytest.raises(InvariantViolationError) as err:
                assemble_td(g, brute_balanced_separator, c)
            assert err.value.trace == {"d_realized": want.d_realized, "c": str(c)}
            monkeypatch.undo()

    def test_c_range(self):
        with pytest.raises(PreconditionError):
            assemble_td(Graph(1), brute_balanced_separator, c=Fraction(1, 4))

        def counting_oracle(sub, w):
            calls.append(sub)
            return brute_balanced_separator(sub, w)

        for bad in ("x", None, float("nan"), float("inf")):
            calls = []
            with pytest.raises(PreconditionError):
                assemble_td(generate("path", k=5), counting_oracle, c=bad)
            assert calls == []

    def test_float_c_is_its_fraction(self):
        g = generate("gnp", n=9, p=0.3, seed=11)
        for c, exact in ((0.5, Fraction(1, 2)), (0.75, Fraction(3, 4))):
            got = assemble_td(g, brute_balanced_separator, c=c)
            assert got == assemble_td(g, brute_balanced_separator, c=exact)

    def test_matches_set_based_reference(self):
        # the mask recursion, which hands each child one boundary mask, against
        # the set-based one it replaced, which hands down a list of boundary
        # pieces: the same bags, tree edges, oracle alphas and d_realized, and
        # the same subgraph and weight handed to the oracle at every call
        rng = random.Random(59)
        for _ in range(100):
            n = rng.randint(0, 12)
            g = generate("gnp", n=n, p=rng.choice([0.15, 0.3, 0.5]),
                         seed=rng.randrange(10**6)) if n else Graph(0)
            for c in (Fraction(1, 2), Fraction(3, 4)):
                got, want = [], []
                assert (assemble_td(g, logged(got, c=c), c)
                        == reference_assemble_td(g, logged(want, c=c), c))
                assert got == want  # the same instance at every oracle call

    def test_random_instances_validate(self):
        rng = random.Random(31)
        for _ in range(15):
            g = generate("gnp", n=rng.randint(2, 10), p=rng.choice([0.2, 0.4, 0.7]),
                         seed=rng.randrange(10**6))
            result = assemble_td(g, brute_balanced_separator)
            assert validate_td(g, result.td).ok
            _, indep = td_stats(g, result.td)
            assert indep <= 5 * max(result.d_realized, 1)


class TestMWIS:
    def test_c5_unit(self):
        g = generate("cycle", k=5)
        inst = MWISInstance(g, {v: 1 for v in g.vertices})
        s, val = mwis(inst, "brute")
        assert val == 2 and len(s) == 2

    def test_k33_weighted(self):
        g = generate("complete_bipartite", a=3, b=3)
        inst = MWISInstance(g, {0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2})
        s, val = mwis(inst, "brute")
        assert val == 6 and s == frozenset({3, 4, 5})

    # (module, kernel, stand-in, method or x): each stand-in returns a
    # witness that is not stable, lies outside the graph or x, or does not
    # weigh the value, on path(3) with every weight 10**12; integer weights
    # are compared exactly, so a value off by one out of 2 * 10**12 is refused
    WRONG_KERNELS = {
        "td not stable": (treedecomp, "_mwis_td", lambda *args: (0b011, 2 * 10**12), "td"),
        "td outside": (treedecomp, "_mwis_td", lambda *args: (0b1000, 0), "td"),
        "td value": (treedecomp, "_mwis_td", lambda *args: (0b101, 2 * 10**12 + 1), "td"),
        "td empty value": (treedecomp, "_mwis_td", lambda *args: (0, 1), "td"),
        "brute value": (treedecomp, "_mwis_brute", lambda *args: (0b101, 2 * 10**12 - 1),
                        "brute"),
        # the brute method runs the kernel of graphs, as max_stable_set does;
        # the kernel's frame of path(3) orders it 0, 2, 1 by degree, so the
        # stand-ins' 0b110 is {2, 1}
        "brute not stable": (graphs, "_max_weight_stable", lambda *args: 0b110, "brute"),
        "brute outside": (graphs, "_max_weight_stable", lambda *args: 0b1001, "brute"),
        "max_stable_set not stable": (graphs, "_max_weight_stable", lambda *args: 0b110, None),
        # the kernel sees x in its frame, bits 0 and 1 for 0 and 2, so
        # bit 2 lies past the frame and must be refused before the back-map
        "max_stable_set outside x": (graphs, "_max_weight_stable", lambda *args: 0b100, {0, 2}),
    }

    @pytest.mark.parametrize("case", sorted(WRONG_KERNELS))
    def test_wrong_witness_is_refused(self, case, monkeypatch):
        module, kernel, stand_in, method = self.WRONG_KERNELS[case]
        g = generate("path", k=3)
        inst = MWISInstance(g, {v: 10**12 for v in g.vertices})
        td = TreeDecomposition.single_bag(g) if method == "td" else None
        if method not in ("td", "brute"):  # None or x: a max_stable_set case
            def call():
                return max_stable_set(g, method)
        else:
            def call():
                return mwis(inst, method, td=td)
        before = call()
        monkeypatch.setattr(module, kernel, stand_in)
        with pytest.raises(InvariantViolationError):
            call()
        monkeypatch.undo()
        assert call() == before

    def test_float_weights_pass_the_value_check(self):
        # the DP adds float weights in another order than the witness sum
        rng = random.Random(43)
        for _ in range(40):
            g = generate("gnp", n=rng.randint(2, 11), p=rng.choice([0.2, 0.4]),
                         seed=rng.randrange(10**6))
            inst = MWISInstance(g, {v: rng.random() * 10 ** rng.randint(-3, 3)
                                    for v in g.vertices})
            td = assemble_td(g, brute_balanced_separator).td
            _, val = mwis(inst, "td", td=td)
            assert val == pytest.approx(mwis(inst, "brute")[1], rel=1e-9)

    def test_td_matches_brute_single_bag(self):
        rng = random.Random(37)
        for _ in range(60):
            g = generate("gnp", n=rng.randint(1, 10), p=rng.choice([0.2, 0.4, 0.6]),
                         seed=rng.randrange(10**6))
            inst = MWISInstance(g, {v: rng.randint(0, 100) for v in g.vertices})
            _, brute_val = mwis(inst, "brute")
            _, td_val = mwis(inst, "td", td=TreeDecomposition.single_bag(g))
            assert brute_val == td_val
            assert naive_mwis(g, inst.weights) == brute_val

    def test_td_matches_brute_assembled(self):
        rng = random.Random(41)
        for _ in range(25):
            g = generate("gnp", n=rng.randint(2, 11), p=rng.choice([0.2, 0.4, 0.6]),
                         seed=rng.randrange(10**6))
            inst = MWISInstance(g, {v: rng.randint(0, 100) for v in g.vertices})
            td = assemble_td(g, brute_balanced_separator).td
            _, brute_val = mwis(inst, "brute")
            wit, td_val = mwis(inst, "td", td=td)
            assert brute_val == td_val
            assert inst.total(wit) == td_val

    def test_brute_matches_networkx(self):
        rng = random.Random(43)
        for n in range(16, 25):
            for p in (0.1, 0.3, 0.5):
                g = generate("gnp", n=n, p=p, seed=rng.randrange(10**6))
                inst = MWISInstance(g, {v: rng.randint(0, 20) for v in g.vertices})
                assert mwis(inst, "brute")[1] == nx_mwis(g, inst.weights)

    def test_td_matches_networkx_on_grid_strips(self):
        rng = random.Random(47)
        for k, length in ((5, 6), (6, 6), (4, 10), (5, 8)):
            g, td = _grid_strip(k, length)
            inst = MWISInstance(g, {v: rng.randint(0, 20) for v in g.vertices})
            assert mwis(inst, "td", td=td)[1] == nx_mwis(g, inst.weights), (k, length)

    def test_td_matches_networkx_single_bag_at_30_to_36(self):
        rng = random.Random(53)
        for n in (30, 33, 36):
            for p in (0.3, 0.5):
                g = generate("gnp", n=n, p=p, seed=rng.randrange(10**6))
                inst = MWISInstance(g, {v: rng.randint(0, 20) for v in g.vertices})
                got = mwis(inst, "td", td=TreeDecomposition.single_bag(g))[1]
                assert got == nx_mwis(g, inst.weights), (n, p)

    def test_td_matches_the_up_front_dp(self):
        # the same witness and value as the DP that built and counted every
        # bag's states before its bottom-up walk, with int, Fraction and
        # float weights
        rng = random.Random(59)
        for g, td in _dp_cases(rng):
            for weight in (lambda: rng.randint(0, 30),
                           lambda: Fraction(rng.randint(0, 30), rng.randint(1, 7)),
                           lambda: rng.uniform(0, 30)):
                inst = MWISInstance(g, {v: weight() for v in g.vertices})
                want = reference_mwis_td(inst, td, None)
                assert treedecomp._mwis_td(inst, td, None) == want
                assert mwis(inst, "td", td=td) == (mask_to_set(want[0]), want[1])

    def test_td_shift_corner_cases_match_the_up_front_dp(self):
        # the DP's bag-local states give the up-front DP's witness, value and
        # cap decision where a shift could go wrong, with int, Fraction and
        # float weights; a cap of all states but one refuses at the last bag
        rng = random.Random(67)
        for name, g, td in _shift_cases():
            assert validate_td(g, td).ok, name
            for weight in (lambda: rng.randint(0, 30),
                           lambda: Fraction(rng.randint(0, 30), rng.randint(1, 7)),
                           lambda: rng.uniform(0, 30)):
                inst = MWISInstance(g, {v: weight() for v in g.vertices})
                want = reference_mwis_td(inst, td, None)
                assert mwis(inst, "td", td=td) == (mask_to_set(want[0]), want[1]), name
            total = sum(naive_stable_subset_count(g, b) for b in td.bags.values())
            for cap in sorted({0, max(total - 1, 0), total}):
                got = []
                for dp in (treedecomp._mwis_td, reference_mwis_td):
                    try:
                        got.append(dp(inst, td, cap))
                    except CapExceededError:
                        got.append("refused")
                assert got[0] == got[1], (name, cap)
                assert (got[0] == "refused") == (cap < total), (name, cap, total)

    def test_td_state_cap_decision_matches_the_up_front_dp(self):
        # both DPs refuse exactly when the states of all bags outnumber the
        # cap, and refuse within twice the cap
        rng = random.Random(61)
        for g, td in _dp_cases(rng):
            inst = MWISInstance(g, {v: rng.randint(0, 30) for v in g.vertices})
            total = sum(naive_stable_subset_count(g, b) for b in td.bags.values())
            for cap in (0, total // 2, total - 1, total, total + 1):
                got = []
                for dp in (treedecomp._mwis_td, reference_mwis_td):
                    try:
                        got.append(dp(inst, td, cap))
                    except CapExceededError as err:
                        assert cap < err.size <= max(2 * cap, cap + 1)
                        got.append("refused")
                assert got[0] == got[1]
                assert (got[0] == "refused") == (cap < total), (cap, total)

    def test_brute_cap(self):
        g = Graph(30)
        with pytest.raises(CapExceededError):
            mwis(MWISInstance(g, {}), "brute")

    def test_td_state_cap_refuses_while_enumerating(self):
        # an edgeless 20-vertex bag has 2^20 stable subsets; the refusal
        # comes within twice the cap, before the table is built
        g = Graph(20)
        with pytest.raises(CapExceededError) as err:
            mwis(MWISInstance(g, {}), "td", td=TreeDecomposition.single_bag(g),
                 cap_override=1000)
        assert 1000 < err.value.size <= 2000

    def test_td_state_cap_counts_every_bag(self):
        # three stable subsets of bag 0 and four of bag 1, the empty set in both
        g = Graph(3, [(0, 1)])
        td = TreeDecomposition(Graph(2, [(0, 1)]), {0: frozenset({0, 1}), 1: frozenset({1, 2})})
        inst = MWISInstance(g, {0: 1, 1: 2, 2: 3})
        assert mwis(inst, "td", td=td, cap_override=7) == (frozenset({1, 2}), 5)
        with pytest.raises(CapExceededError):
            mwis(inst, "td", td=td, cap_override=6)

    def test_td_requires_valid(self):
        g = generate("path", k=3)
        bad = TreeDecomposition(Graph(1), {0: frozenset({0})})
        with pytest.raises(PreconditionError):
            mwis(MWISInstance(g, {0: 1}), "td", td=bad)

    def test_td_bag_members_outside_graph_refused(self):
        g = generate("path", k=3)
        for extra in (7, -1):
            td = TreeDecomposition(Graph(1), {0: frozenset({0, 1, 2, extra})})
            assert validate_td(g, td).violations == [("vertex-range", (0, extra))]
            with pytest.raises(PreconditionError):
                mwis(MWISInstance(g, {0: 1, 1: 1, 2: 1}), "td", td=td)
        # True is not vertex 1, which the bag then leaves uncovered
        td = TreeDecomposition(Graph(1), {0: frozenset({0, True, 2})})
        assert ("vertex-range", (0, True)) in validate_td(g, td).violations
        assert ("vertex-coverage", 1) in validate_td(g, td).violations
        with pytest.raises(PreconditionError):
            mwis(MWISInstance(g, {0: 1, 1: 1, 2: 1}), "td", td=td)
        with pytest.raises(PreconditionError):
            MWISInstance(g, {True: 1})

    def test_malformed_bags_are_precondition_error(self):
        # bags that are not a mapping, or a bag that is not a collection, are
        # refused by validate_td, td_stats and mwis(method="td") alike
        g = Graph(2)
        inst = MWISInstance(g, {0: 1, 1: 1})
        for bags in (None, [frozenset({0, 1})], frozenset({0}), {0: None}, {0: 1},
                     {0: iter([0, 1])},
                     # a key that is not a plain int is no tree node, even one equal to 0
                     {0.0: frozenset({0, 1})}, {False: frozenset({0, 1})},
                     {"0": frozenset({0, 1})}):
            td = TreeDecomposition(Graph(1), bags)
            for call in (lambda: validate_td(g, td), lambda: td_stats(g, td),
                         lambda: mwis(inst, "td", td=td)):
                with pytest.raises(PreconditionError):
                    call()

    def test_malformed_bags_refusal_names_the_offender(self):
        # on a 2 000-bag path decomposition the refusal names the first bad
        # key or bag in a short message, not the whole mapping
        g = generate("path", k=2001)
        tree = generate("path", k=2000)
        bags = {t: frozenset({t, t + 1}) for t in range(2000)}
        float_key, str_key, int_bag = dict(bags), dict(bags), dict(bags)
        float_key[1234.5] = float_key.pop(1234)
        str_key["7"] = str_key.pop(7)
        int_bag[77] = 77
        for bad, names in ((float_key, "key 1234.5 of type float"),
                           (str_key, "key '7' of type str"),
                           (int_bag, "td.bags[77] is of type int"),
                           (list(bags.values()), "td.bags is of type list")):
            td = TreeDecomposition(tree, bad)
            for call in (lambda: validate_td(g, td), lambda: td_stats(g, td)):
                with pytest.raises(PreconditionError) as err:
                    call()
                assert names in str(err.value) and len(str(err.value)) < 100

    def test_unknown_method_rejected(self):
        with pytest.raises(PreconditionError):
            mwis(MWISInstance(generate("path", k=3), {0: 1}), "greedy")

    def test_negative_weight_rejected(self):
        for x in (-1, "1", None, 1j):
            with pytest.raises(PreconditionError):
                MWISInstance(Graph(2), {0: x})
        # a weight keyed by something other than a vertex id
        for key in (1.5, 1.0, "1", 2):
            with pytest.raises(PreconditionError):
                MWISInstance(Graph(2), {key: 1})
        # weights that are not a mapping at all
        for bad in (None, [1, 1]):
            with pytest.raises(PreconditionError):
                MWISInstance(Graph(2), bad)

    def test_non_finite_weight_rejected(self):
        for x in (float("nan"), float("inf")):
            with pytest.raises(PreconditionError):
                MWISInstance(Graph(2), {0: x})

    def test_empty_instance_td(self):
        inst = MWISInstance(Graph(0), {})
        assert mwis(inst, "td", td=TreeDecomposition(Graph(0), {})) == (frozenset(), 0)

    def test_brute_matches_naive_with_zero_and_fraction_weights(self):
        rng = random.Random(47)
        for _ in range(120):
            n = rng.randint(0, 12)
            g = generate("gnp", n=n, p=rng.choice([0.2, 0.4, 0.7]),
                         seed=rng.randrange(10**6)) if n else Graph(0)
            weights = {v: rng.choice([0, 0, 1, 3, Fraction(1, 3), Fraction(7, 2),
                                      rng.randint(0, 20)]) for v in g.vertices}
            inst = MWISInstance(g, weights)
            wit, val = mwis(inst, "brute")
            assert val == naive_mwis(g, weights)
            assert inst.total(wit) == val
            assert not any(g.has_edge(a, b) for a, b in combinations(wit, 2))

    def test_td_matches_brute_on_path_decompositions(self):
        rng = random.Random(53)
        for _ in range(40):
            g, td = _shuffled_path(rng)
            weights = {v: rng.choice([0, 2, Fraction(5, 3), rng.randint(0, 30)])
                       for v in g.vertices}
            inst = MWISInstance(g, weights)
            wit, val = mwis(inst, "td", td=td)
            assert val == mwis(inst, "brute")[1] == naive_mwis(g, weights)
            assert inst.total(wit) == val
            assert not any(g.has_edge(a, b) for a, b in combinations(wit, 2))


def test_certificate_checks_survive_optimize():
    # under python -O (asserts stripped) a DP witness that is not stable or
    # does not weigh the DP's value, a brute-force or max_stable_set witness
    # that is not stable, an assembled decomposition that fails validation
    # or whose bag independence exceeds the assembly bound, and a separator whose largest component holds one vertex of the weight
    # too many, at the first call or at a forced re-cut (see
    # test_balance_boundary), are still refused
    script = """
from treealpha import graphs, treedecomp
from treealpha.errors import InvariantViolationError, OracleContractError
from treealpha.graphs import generate
from treealpha.treedecomp import MWISInstance, TreeDecomposition

assert False, "asserts must be stripped in this run"
g = generate("path", k=3)
inst = MWISInstance(g, {v: 1 for v in g.vertices})
single = TreeDecomposition.single_bag(g)
validate = treedecomp.validate_td
cases = [  # (module, name, stand-in, call)
    (treedecomp, "_mwis_td", lambda *args: (0b011, 2),
     lambda: treedecomp.mwis(inst, "td", td=single)),
    (treedecomp, "_mwis_td", lambda *args: (0b101, 3),
     lambda: treedecomp.mwis(inst, "td", td=single)),
    (graphs, "_max_weight_stable", lambda *args: 0b110,  # {2, 1} in the kernel's frame
     lambda: treedecomp.mwis(inst, "brute")),
    (graphs, "_max_weight_stable", lambda *args: 0b110, lambda: graphs.max_stable_set(g)),
    (treedecomp, "validate_td", lambda g, td: validate(
        g, TreeDecomposition(td.tree, {**td.bags, 0: frozenset()})),
     lambda: treedecomp.assemble_td(g, lambda sub, w: sub.vertices)),
    (treedecomp, "td_stats", lambda *args: (0, 10**6),
     lambda: treedecomp.assemble_td(g, lambda sub, w: sub.vertices)),
]
for module, name, stand_in, call in cases:
    real = getattr(module, name)
    setattr(module, name, stand_in)
    try:
        call()
    except InvariantViolationError:
        continue
    finally:
        setattr(module, name, real)
    raise SystemExit(f"a wrong certificate was accepted: {name}")
for answers in ([{1, 7}], [{2, 7}, {2, 3}, {3}]):
    try:
        treedecomp.assemble_td(generate("cycle", k=8), lambda sub, w: answers.pop(0))
    except OracleContractError:
        continue
    raise SystemExit("an unbalanced separator was accepted")
print("refused")
"""
    src = str(Path(treealpha.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                         timeout=30, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "refused"


def test_a_row_holding_its_own_vertex_is_refused_not_searched():
    # the kernel's clique loop never ends on a row that holds its own
    # vertex, so every frame refuses one; run apart, so a hang fails the test
    script = """
from treealpha import graphs, treedecomp
from treealpha.errors import InvariantViolationError
from treealpha.graphs import Graph

g = Graph(3)
g._masks = (0b011, 0b011, 0b000)  # vertex 0 holds itself, and 1 is its neighbour
h = Graph(4)
h._masks = (0b0000, 0b0100, 0b0110, 0b0000)  # vertex 2 holds itself, away from vertex 0
calls = [
    lambda: graphs.max_stable_set(g),
    lambda: graphs.max_stable_set(h, [1, 2, 3]),
    lambda: treedecomp.mwis(treedecomp.MWISInstance(g, {0: 1}), "brute"),
    lambda: treedecomp.td_stats(h, treedecomp.TreeDecomposition(Graph(1), {0: {1, 2}})),
    lambda: treedecomp._subset_tree_alpha(h._masks, 0b0110),
    lambda: graphs._frame(g._masks, 0b011, [1, 0]),
]
for call in calls:
    try:
        call()
    except InvariantViolationError:
        continue
    raise SystemExit("a row holding its own vertex was searched")
print("refused")
"""
    src = str(Path(treealpha.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=30, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "refused"


class TestFrames:
    """A search on a subset runs in the subset's frame (graphs._frame) and
    must answer as it did on the host ids: the same witness, the same
    induced graph and translations, the same alpha and tree-alpha."""

    @staticmethod
    def subsets():
        # subsets that hold vertex 0, subsets spread with wide gaps, and the
        # fan bags {i, i + 1, 199} of cycle(200)
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(20, 150)
            g = generate("gnp", n=n, p=rng.choice([0.05, 0.15, 0.4]), seed=rng.randrange(10**6))
            k = rng.randint(1, 12)
            yield g, frozenset({0, *rng.sample(range(1, n), k - 1)})
            yield g, frozenset(range(rng.randrange(n // k), n, n // k))
        fan = generate("cycle", k=200)
        for i in range(0, 198, 7):
            yield fan, frozenset({i, i + 1, 199})

    @staticmethod
    def host_search(g: Graph, xs: frozenset[int]) -> frozenset[int]:
        """The kernel run on xs's host ids, relabelled here with sets: by
        non-decreasing degree in G[xs], ties to the lower id."""
        order = sorted(xs, key=lambda v: (len(g.neighbors(v) & xs), v))
        at = {v: i for i, v in enumerate(order)}
        rows = tuple(sum(1 << at[u] for u in g.neighbors(v) & xs) for v in order)
        found = graphs._max_weight_stable(rows, [1] * len(order))
        return frozenset(v for i, v in enumerate(order) if found >> i & 1)

    def test_stable_set_witness_is_the_host_search(self):
        for g, xs in self.subsets():
            got = max_stable_set(g, xs)
            assert got == self.host_search(g, xs), (g.edges(), sorted(xs))
            want = reference_max_weight_stable(g._masks, graphs.set_to_mask(xs), [1] * g.n)
            assert len(got) == want.bit_count()
            assert not any(g.has_edge(a, b) for a in got for b in got)

    def test_td_stats_is_each_bags_naive_alpha(self):
        for g, xs in self.subsets():
            td = TreeDecomposition(Graph(1), {0: xs})
            assert td_stats(g, td) == (len(xs) - 1, naive_alpha(g, xs)), sorted(xs)

    def test_induced_matches_the_edge_list(self):
        for g, xs in self.subsets():
            order = tuple(sorted(xs))
            at = {v: i for i, v in enumerate(order)}
            want = Graph(len(order), [(at[u], at[v]) for u, v in g.edges() if u in xs and v in xs])
            assert g.induced(xs) == (want, at, order), sorted(xs)

    def test_tree_alpha_on_pieces_with_gaps(self):
        # a cycle with random chords, or K_{3,3} or K_{4,4} (tree-alpha 3
        # and 4), spread over every third id with a pendant vertex on each
        # id between: the pendants are peeled as simplicial, so the pieces
        # left hold ids with gaps
        rng = random.Random(37)
        hosts = [generate("complete_bipartite", a=3, b=3), generate("complete_bipartite", a=4, b=4)]
        for i in range(30):
            k = rng.randint(5, 9) if i % 3 else 4
            chords = generate("gnp", n=k, p=rng.choice([0.2, 0.4]), seed=rng.randrange(10**6))
            hosts.append(Graph(k, [(v, (v + 1) % k) for v in range(k)] + chords.edges()))
        gapped = 0
        for h in hosts:
            spread = [3 * v + rng.randrange(3) for v in h.vertices]
            pendants = [(spread[v], w) for v in h.vertices
                        for w in range(3 * v, 3 * v + 3) if w != spread[v]]
            g = Graph(3 * h.n, [(spread[u], spread[v]) for u, v in h.edges()] + pendants)
            assert tree_alpha_exact(g) == reference_subset_tree_alpha(h), g.edges()
            if g.n <= 12:
                assert tree_alpha_exact(g) == reference_subset_tree_alpha(g), g.edges()
            pieces = graphs._component_masks(
                g._masks, treedecomp._peel_simplicial(g._masks, (1 << g.n) - 1))
            gapped += any(p & (p + (p & -p)) for p in pieces)  # a piece whose ids skip one
        assert gapped >= 20


NON_GRAPH_CALLS = {
    "tree_alpha_exact": tree_alpha_exact,
    "alpha_exact": alpha_exact,
    "max_stable_set": max_stable_set,
    "components": components,
    "find_pattern": lambda x: find_pattern(x, PatternSpec("k_tt", t=2)),
    "contains_induced host": lambda x: contains_induced(x, Graph(2)),
    "contains_induced pattern": lambda x: contains_induced(Graph(2), x),
    "lt_free_upto": lambda x: lt_free_upto(x, 1, 10),
    "assemble_td": lambda x: assemble_td(x, brute_balanced_separator),
    "validate_td graph": lambda x: validate_td(x, TreeDecomposition.single_bag(Graph(2))),
    "validate_td td": lambda x: validate_td(Graph(2), x),
    "check_vertex_set": lambda x: check_vertex_set(x, [0]),
    "closed_nbhd": lambda x: closed_nbhd(x, []),
    "line_graph": line_graph,
    "subdivide": lambda x: subdivide(x, {}),
    "emit_graph": lambda x: emit_graph(x, "graph6"),
    "td_stats graph": lambda x: td_stats(x, TreeDecomposition.single_bag(Graph(2))),
    "td_stats td": lambda x: td_stats(Graph(2), x),
    "TreeDecomposition.single_bag": TreeDecomposition.single_bag,
    "MWISInstance": lambda x: MWISInstance(x, {}),
    "is_chordal": is_chordal,
    "minimal_triangulations": minimal_triangulations,
    "mwis": mwis,
}


@pytest.mark.parametrize("bad", [None, [0, 1], SimpleNamespace(n=5, _masks=())],
                         ids=["None", "list", "short rows"])
@pytest.mark.parametrize("entry", sorted(NON_GRAPH_CALLS))
def test_non_graph_argument_is_precondition_error(entry, bad):
    with pytest.raises(PreconditionError):
        NON_GRAPH_CALLS[entry](bad)


P3 = generate("path", k=3)

# a malformed argument other than the graph: each call once raised a bare
# AttributeError or TypeError, or took a bool as a number
MALFORMED_ARGUMENT_CALLS = {  # name: (call, error)
    "WeightFn None": (lambda: WeightFn(None), PreconditionError),
    "WeightFn list": (lambda: WeightFn([0.5]), PreconditionError),
    "WeightFn bool weight": (lambda: WeightFn({0: True}), PreconditionError),
    "WeightFn int": (lambda: WeightFn(5), PreconditionError),
    "WeightFn mapping": (lambda: WeightFn({0: Fraction(1, 2)}), PreconditionError),
    "WeightFn empty": (lambda: WeightFn(()), PreconditionError),
    "WeightFn bool id": (lambda: WeightFn([True]), PreconditionError),
    "WeightFn negative id": (lambda: WeightFn([0, -1]), PreconditionError),
    "subdivide None": (lambda: subdivide(P3, None), PreconditionError),
    "parse_graph graph6 None": (lambda: parse_graph(None, "graph6"), FormatError),
    "parse_graph edgelist int": (lambda: parse_graph(123, "edgelist"), FormatError),
    "find_pattern str spec": (lambda: find_pattern(P3, "s_ttt"), PreconditionError),
    "find_pattern None spec": (lambda: find_pattern(P3, None), PreconditionError),
    "Embedding.verify pattern None": (lambda: Embedding({}).verify(None, P3), PreconditionError),
    "Embedding.verify host None": (lambda: Embedding({}).verify(P3, None), PreconditionError),
    "Embedding.verify mapping None": (lambda: Embedding(None).verify(P3, P3), PreconditionError),
    "WeightFn.weight None": (lambda: WeightFn({0}).weight(None), PreconditionError),
    "MWISInstance.total None": (lambda: MWISInstance(P3, {0: 1}).total(None), PreconditionError),
    "assemble_td oracle None": (lambda: assemble_td(P3, None), PreconditionError),
    "MWISInstance bool weight": (lambda: MWISInstance(P3, {0: True}), PreconditionError),
    "generate gnp bool p": (lambda: generate("gnp", n=4, p=True), PreconditionError),
    "generate gnp bool seed": (lambda: generate("gnp", n=4, p=0.5, seed=True), PreconditionError),
    "generate gnp str seed": (lambda: generate("gnp", n=4, p=0.5, seed="x"), PreconditionError),
    "generate gnp float seed": (lambda: generate("gnp", n=4, p=0.5, seed=1.0), PreconditionError),
    "generate cycle extra n": (lambda: generate("cycle", k=5, n=7), PreconditionError),
    "generate path extra kk": (lambda: generate("path", k=3, kk=4), PreconditionError),
    "generate gnp extra k": (lambda: generate("gnp", n=4, p=0.5, k=2), PreconditionError),
    "mwis td without td": (lambda: mwis(MWISInstance(P3, {0: 1}), "td"), PreconditionError),
    "mwis brute with td": (lambda: mwis(MWISInstance(P3, {0: 1}), "brute",
                                        td=TreeDecomposition.single_bag(Graph(1))), PreconditionError),
}


@pytest.mark.parametrize("entry", sorted(MALFORMED_ARGUMENT_CALLS))
def test_malformed_argument_is_typed_refusal(entry):
    call, error = MALFORMED_ARGUMENT_CALLS[entry]
    with pytest.raises(error):
        call()


def test_well_formed_neighbours_of_the_malformed_arguments_pass():
    # the plain-int and plain-text versions of the refused arguments
    assert WeightFn({0}).weight([0]) == 1 and WeightFn(range(2)).weight(range(2)) == 1
    assert generate("cycle", k=5, seed=3) == generate("cycle", k=5)
    assert parse_graph("# n=5\n0 1", "edgelist").n == 5
    assert generate("gnp", n=4, p=1).edge_count() == 6
    assert generate("gnp", n=6, p=0.5, seed=None) == generate("gnp", n=6, p=0.5, seed=0)
    assert generate("gnp", n=6, p=0.5, seed=-3).n == 6
    assert MWISInstance(P3, {0: 1, 1: Fraction(1, 2), 2: 0.5}).total(P3.vertices) == 2
    assert find_pattern(P3, PatternSpec("k_tt", t=1)).verify(Graph(2, [(0, 1)]), P3)
