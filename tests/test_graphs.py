"""Graph core: formats, generators, primitives, exact stability number."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from treealpha import caps, graphs
from treealpha.errors import CapExceededError, FormatError, PreconditionError
from treealpha.graphs import (
    Graph,
    WeightFn,
    alpha_exact,
    check_vertex_set,
    closed_nbhd,
    components,
    emit_graph,
    generate,
    line_graph,
    max_stable_set,
    norm_edge,
    parse_graph,
    subdivide,
)
from treealpha.patterns import contains_induced
from treealpha.treedecomp import (
    MWISInstance,
    TreeDecomposition,
    assemble_td,
    mwis,
    td_stats,
    tree_alpha_exact,
)

from .oracles import (
    edge_list_adjacency,
    naive_alpha,
    naive_components,
    naive_line_graph,
    naive_subdivide,
    nx_alpha,
    nx_components,
    nx_graph,
    reference_max_weight_stable,
    reference_wall,
)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


small_graphs = st.integers(0, 9).flatmap(
    lambda n: st.builds(
        Graph,
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
            .filter(lambda e: e[0] != e[1]),
            max_size=2 * n,
        ),
    )
    if n > 0
    else st.just(Graph(0))
)


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(PreconditionError):
            Graph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(PreconditionError):
            Graph(2, [(0, 5)])
        with pytest.raises(PreconditionError):
            Graph(-1)
        # a non-integer count or endpoint, and an edge that is not a pair
        for n, edges in ((2.5, []), ("3", []), (3, [(0, 1.0)]), (3, [("0", 1)]),
                         (3, [(0, 1, 2)]), (3, [(0,)]), (3, [5]), (True, []),
                         (2, [(False, True)]), (3, [(0, True)])):
            with pytest.raises(PreconditionError):
                Graph(n, edges)
        for bad in (2, -1, 1.5, 1.0, "1", True):
            with pytest.raises(PreconditionError):
                check_vertex_set(Graph(2), [0, bad])
        with pytest.raises(PreconditionError):  # True would remove vertex 1
            components(generate("path", k=3), [True])
        with pytest.raises(PreconditionError):
            alpha_exact(generate("path", k=4), [1.5])
        with pytest.raises(PreconditionError):
            components(generate("path", k=4), [1.0])
        # a vertex set or edge collection that is not iterable
        for call in (lambda: components(generate("path", k=3), None),
                     lambda: generate("path", k=3).induced(None), lambda: Graph(3, 5)):
            with pytest.raises(PreconditionError):
                call()
        for u, v in ((-1, 0), (0, -1), (0, 2), (2, 0)):  # -1 would index vertex 1
            with pytest.raises(PreconditionError):
                Graph(2, [(0, 1)]).has_edge(u, v)
        # per-vertex accessors: -1 would read vertex 3, and True vertex 1
        p4 = generate("path", k=4)
        for call in (lambda: p4.degree(-1), lambda: p4.adj_mask(-1), lambda: p4.neighbors(-1),
                     lambda: p4.degree(4), lambda: p4.degree(True), lambda: p4.adj_mask(1.0),
                     lambda: p4.has_edge(True, 2), lambda: p4.has_edge(1.5, 2),
                     lambda: p4.has_edge(2, "1")):
            with pytest.raises(PreconditionError):
                call()

    def test_multi_edges_collapse(self):
        g = Graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    def test_adjacency_symmetric(self):
        g = generate("gnp", n=12, p=0.4, seed=7)
        for u in g.vertices:
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    def test_accessors_match_edge_list_adjacency(self):
        # every accessor read off the masks against neighbour sets built
        # from the edge list the graph was constructed with
        rng = random.Random(61)
        for _ in range(150):
            n = rng.randint(0, 12)
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
            edges = [e for e in edges if e[0] != e[1]]
            g = Graph(n, edges)
            adj = edge_list_adjacency(n, edges)
            assert g.edges() == sorted({(min(e), max(e)) for e in edges})
            assert g.edge_count() == len(g.edges())
            assert g == Graph(n, [(v, u) for u, v in reversed(edges)])
            assert hash(g) == hash(Graph(n, [(v, u) for u, v in edges]))
            for u in range(n):
                assert g.neighbors(u) == adj[u] and isinstance(g.neighbors(u), frozenset)
                assert g.degree(u) == len(adj[u])
                for v in range(n):
                    assert g.has_edge(u, v) is (v in adj[u])
            xs = frozenset(v for v in range(n) if rng.random() < 0.4)
            sub, to_sub, to_host = g.induced(xs)
            assert to_host == tuple(sorted(xs)) and sub.n == len(xs)
            assert sub.edges() == sorted((to_sub[u], to_sub[v]) for u in xs for v in adj[u]
                                         if u < v and v in xs)

    def test_induced_translation(self):
        g = generate("cycle", k=6)
        sub, to_sub, to_host = g.induced([1, 2, 4])
        assert sub.n == 3
        assert to_host[to_sub[4]] == 4
        assert sub.has_edge(to_sub[1], to_sub[2])
        assert not sub.has_edge(to_sub[2], to_sub[4])


class TestFormats:
    def test_graph6_known_string(self):
        # 'D?{' is a 5-vertex string; round-trip must be byte identical
        g = parse_graph("D?{", "graph6")
        assert g.n == 5
        assert emit_graph(g, "graph6") == "D?{"

    def test_graph6_header_stripped(self):
        g = parse_graph(">>graph6<<D?{", "graph6")
        assert g.n == 5

    def test_edgelist_p3(self):
        g = parse_graph("0 1\n1 2", "edgelist")
        assert g.n == 3
        assert g.edges() == [(0, 1), (1, 2)]

    def test_edgelist_self_loop_rejected(self):
        with pytest.raises(FormatError):
            parse_graph("0 0", "edgelist")

    def test_edgelist_non_integer_rejected(self):
        with pytest.raises(FormatError):
            parse_graph("0 x", "edgelist")

    def test_edgelist_declared_n_too_small(self):
        with pytest.raises(FormatError):
            parse_graph("# n=3\n0 5", "edgelist")

    def test_empty_graph_roundtrip(self):
        g = Graph(0)
        assert emit_graph(g, "graph6") == "?"
        assert parse_graph("?", "graph6").n == 0

    def test_k3_roundtrip(self):
        g = generate("complete", k=3)
        assert parse_graph(emit_graph(g, "graph6"), "graph6") == g

    def test_random_roundtrip_both_formats(self):
        g = generate("gnp", n=12, p=0.4, seed=7)
        for fmt in ("graph6", "edgelist"):
            assert parse_graph(emit_graph(g, fmt), fmt) == g

    def test_edgelist_keeps_isolated_vertices(self):
        g = Graph(5, [(0, 1)])
        assert parse_graph(emit_graph(g, "edgelist"), "edgelist") == g
        # the "# n=" header may carry spaces around "="; the first one counts,
        # and other comments are not headers
        for text in ("# n = 5\n0 1\n", "#n=5\n0 1  # n=9\n", "# n=5\n# nodes=x\n# m = y\n0 1\n"):
            assert parse_graph(text, "edgelist") == g

    def test_graph6_bad_length(self):
        with pytest.raises(FormatError):
            parse_graph("D?", "graph6")

    def test_edgelist_vertex_count_is_capped(self):
        # a "# n=" header and a large endpoint id each ask for a vertex count
        # in a few bytes; the count is refused above the cap, before any mask
        for text, size in (("# n=2000000\n", 2_000_000), ("0 2000000\n", 2_000_001),
                           ("# n=10001\n0 1\n", 10_001), ("0 1\n5 10000\n", 10_001)):
            with pytest.raises(CapExceededError) as err:
                parse_graph(text, "edgelist")
            assert (err.value.what, err.value.size, err.value.cap) == (
                "edgelist_vertices", size, caps.DEFAULT_CAPS["edgelist_vertices"])
        assert parse_graph("# n=10000\n", "edgelist") == Graph(10_000)
        assert parse_graph("0 9999\n", "edgelist") == Graph(10_000, [(0, 9999)])
        # the override bounds either form, both ways
        assert parse_graph("# n=10001\n", "edgelist", cap_override=10_001).n == 10_001
        assert parse_graph("0 10000\n", "edgelist", cap_override=10_001).n == 10_001
        for text in ("# n=4\n", "0 3\n"):
            assert parse_graph(text, "edgelist", cap_override=4).n == 4
            with pytest.raises(CapExceededError):
                parse_graph(text, "edgelist", cap_override=3)
        # a count that contradicts an endpoint is a format error first
        with pytest.raises(FormatError):
            parse_graph("# n=3\n0 2000000\n", "edgelist", cap_override=3)

    @given(small_graphs)
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_identity_property(self, g):
        for fmt in ("graph6", "edgelist"):
            assert parse_graph(emit_graph(g, fmt), fmt) == g

    def test_graph6_matches_networkx(self):
        # n = 62 is the last count that one byte holds
        for n, seed in [(11, seed) for seed in range(12)] + [(62, 0)]:
            g = generate("gnp", n=n, p=0.35, seed=seed)
            theirs = nx.to_graph6_bytes(nx_graph(g), header=False).decode().strip()
            assert emit_graph(g, "graph6") == theirs

    def test_graph6_long_form_matches_networkx(self):
        # n >= 63 takes the four-byte vertex count; both directions
        for n in (63, 64, 100, 300):
            g = generate("gnp", n=n, p=0.1, seed=n)
            ours = emit_graph(g, "graph6")
            assert ours.startswith("~")
            theirs = nx.to_graph6_bytes(nx_graph(g), header=False).decode().strip()
            assert ours == theirs
            back = nx.from_graph6_bytes(ours.encode())
            assert sorted(back.nodes) == list(range(n))
            assert Graph(n, back.edges) == g
            assert parse_graph(theirs, "graph6") == g

    def test_graph6_long_headers_of_a_small_graph(self):
        # the four- and eight-byte vertex counts also parse for a small n,
        # as networkx reads them
        for text in ("~??DQc", "~~?????DQc"):
            want = nx.from_graph6_bytes(text.encode())
            assert parse_graph(text, "graph6") == Graph(5, want.edges) == parse_graph("DQc", "graph6")

    # one malformed text per FormatError raise of the text boundary, with
    # the message that names the fault
    @pytest.mark.parametrize("call, message", [
        (lambda: parse_graph("", "graph6"), "empty graph6 string"),
        (lambda: parse_graph("D?\u00e9", "graph6"), "not ASCII"),
        (lambda: parse_graph("D?>", "graph6"), "invalid graph6 byte 62"),
        (lambda: parse_graph("A@", "graph6"), "nonzero padding bits"),
        (lambda: parse_graph("~?", "graph6"), "truncated graph6 vertex count"),
        (lambda: parse_graph("~??", "graph6"), "truncated graph6 vertex count"),
        (lambda: parse_graph("~~??", "graph6"), "truncated graph6 vertex count"),
        # the largest n of the one- and four-byte counts and the smallest of
        # the eight-byte count, with no body, so no graph is built
        (lambda: parse_graph("}", "graph6"), "0 bytes, expected 316 for n=62$"),
        (lambda: parse_graph("~}~~", "graph6"), "0 bytes, expected 5548999681 for n=258047$"),
        (lambda: parse_graph("~~???~??", "graph6"), "0 bytes, expected 5549042688 for n=258048$"),
        (lambda: parse_graph("0 1 2", "edgelist"), "expected 'u v'"),
        (lambda: parse_graph("0 -1", "edgelist"), "negative vertex id"),
        (lambda: parse_graph("0 x", "edgelist"), "line 1: non-integer endpoint"),
        # int() reads each of these as a vertex id; an endpoint is ASCII digits
        (lambda: parse_graph("0 1\n0 1_0", "edgelist"), "line 2: non-integer endpoint"),
        (lambda: parse_graph("0 +3", "edgelist"), "line 1: non-integer endpoint"),
        (lambda: parse_graph("0 \u0663", "edgelist"), "line 1: non-integer endpoint"),
        (lambda: parse_graph("0 \uff13", "edgelist"), "line 1: non-integer endpoint"),
        (lambda: parse_graph("A_", "dot"), "unknown graph format"),
        (lambda: emit_graph(Graph(2), "dot"), "unknown graph format"),
        (lambda: parse_graph("# n=abc\n0 1\n", "edgelist"), "line 1: vertex count 'abc'"),
        (lambda: parse_graph("0 1\n# n = 2.5\n", "edgelist"), "line 2: vertex count '2.5'"),
        (lambda: parse_graph("# n=-3\n", "edgelist"), "line 1: vertex count '-3'"),
        (lambda: parse_graph("# n=\n", "edgelist"), "line 1: vertex count ''"),
    ], ids=["empty", "non-ascii", "byte-below-63", "padding", "header-~?", "header-~??",
            "header-~~??", "body-n62", "body-n258047", "body-n258048", "three-tokens",
            "negative-id", "non-integer-id", "underscore-id", "plus-id", "arabic-indic-id",
            "fullwidth-id", "parse-fmt", "emit-fmt", "n-header-abc", "n-header-float",
            "n-header-negative", "n-header-empty"])
    def test_malformed_text_is_format_error(self, call, message):
        with pytest.raises(FormatError, match=message):
            call()


class TestGenerators:
    def test_s111_is_claw(self):
        g = generate("s_ttt", t=1)
        assert g.n == 4 and g.edge_count() == 3
        assert g.degree(0) == 3

    def test_k_gamma_2_of_3(self):
        g = generate("k_gamma_2", gamma=3)
        assert g.n == 9 and g.edge_count() == 9

    def test_wall_1_is_c6(self):
        g = generate("wall", t=1)
        assert g.n == 6 and g.edge_count() == 6
        assert all(g.degree(v) == 2 for v in g.vertices)

    def test_wall_degree_and_girth(self):
        for t in (2, 3):
            g = generate("wall", t=t)
            assert max(g.degree(v) for v in g.vertices) <= 3
            assert _girth(g) == 6

    def test_wall_matches_prune_loop_builder(self):
        for t in range(1, 11):
            assert generate("wall", t=t) == reference_wall(t)

    def test_wall_2_counts(self):
        g = generate("wall", t=2)
        assert g.n == 16 and g.edge_count() == 19

    def test_gnp_deterministic(self):
        a = generate("gnp", n=20, p=0.3, seed=5)
        b = generate("gnp", n=20, p=0.3, seed=5)
        c = generate("gnp", n=20, p=0.3, seed=6)
        assert a == b
        assert a != c

    def test_bad_params(self):
        with pytest.raises(PreconditionError):
            generate("path", k=0)
        with pytest.raises(PreconditionError):
            generate("gnp", n=5, p=1.5, seed=0)
        with pytest.raises(PreconditionError):
            generate("cycle", k=2)
        with pytest.raises(PreconditionError):
            generate("kite")
        for kind, params in (("path", {}), ("gnp", {"n": 5}), ("path", {"k": 2.5}),
                             ("wall", {"t": True}),
                             ("gnp", {"n": 5, "p": "x"}), ("complete_bipartite", {"a": 2})):
            with pytest.raises(PreconditionError):
                generate(kind, **params)


def _girth(g: Graph) -> int:
    best = None
    for src in g.vertices:
        dist = {src: 0}
        parent = {src: -1}
        queue = [src]
        while queue:
            u = queue.pop(0)
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cyc = dist[u] + dist[w] + 1
                    if best is None or cyc < best:
                        best = cyc
    return best


class TestLineGraphSubdivide:
    def test_line_graph_p4(self):
        g, _ = line_graph(generate("path", k=4))
        assert g == generate("path", k=3)

    def test_line_graph_claw(self):
        g, _ = line_graph(generate("s_ttt", t=1))
        assert g == generate("complete", k=3)

    def test_line_graph_c5(self):
        g, _ = line_graph(generate("cycle", k=5))
        assert g.n == 5 and all(g.degree(v) == 2 for v in g.vertices)

    def test_line_graph_degree_identity(self):
        g = generate("gnp", n=10, p=0.4, seed=3)
        lg, ids = line_graph(g)
        for (u, v), i in ids.items():
            assert lg.degree(i) == g.degree(u) + g.degree(v) - 2

    def test_matches_naive_line_graph(self):
        # the incidence-mask construction against the pair scan: graph and
        # edge-to-id map, on random graphs and on edgeless and complete ones
        rng = random.Random(83)
        gs = [Graph(0), Graph(5)] + [generate("complete", k=k) for k in (1, 2, 5, 12)]
        gs += [generate("gnp", n=rng.randint(1, 12), p=rng.choice([0.1, 0.3, 0.6, 0.9]),
                        seed=rng.randrange(10**6)) for _ in range(150)]
        for g in gs:
            assert line_graph(g) == naive_line_graph(g)

    def test_matches_networkx_line_graph(self):
        # the edge-to-id map is an isomorphism onto networkx's line graph
        rng = random.Random(89)
        gs = [generate("wall", t=3), subdivide(generate("wall", t=2), {(0, 1): 2})]
        gs += [generate("gnp", n=rng.randint(1, 16), p=rng.choice([0.1, 0.3, 0.6]),
                        seed=rng.randrange(10**6)) for _ in range(40)]
        for g in gs:
            lg, ids = line_graph(g)
            theirs = nx.line_graph(nx_graph(g))
            to_id = {e: ids[norm_edge(*e)] for e in theirs.nodes}
            assert sorted(to_id.values()) == list(range(lg.n))
            assert {norm_edge(to_id[a], to_id[b]) for a, b in theirs.edges} == set(lg.edges())

    def test_subdivide_k2_once(self):
        g = subdivide(Graph(2, [(0, 1)]), {(0, 1): 1})
        # ids 0,1 preserved; the new vertex 2 sits between them
        assert g.n == 3 and g.edges() == [(0, 2), (1, 2)]

    def test_subdivide_claw_gives_s222(self):
        g = generate("s_ttt", t=1)
        sub = subdivide(g, {e: 1 for e in g.edges()})
        s222 = generate("s_ttt", t=2)
        assert sub.n == s222.n and sub.edge_count() == s222.edge_count()
        assert sorted(sub.degree(v) for v in sub.vertices) == sorted(
            s222.degree(v) for v in s222.vertices
        )

    def test_subdivide_zero_is_identity(self):
        g = generate("gnp", n=8, p=0.5, seed=1)
        assert subdivide(g, {e: 0 for e in g.edges()}) == g

    def test_subdivide_unknown_edge(self):
        with pytest.raises(PreconditionError):
            subdivide(Graph(3, [(0, 1)]), {(1, 2): 1})
        with pytest.raises(PreconditionError):
            subdivide(Graph(3, [(0, 1)]), {(0, 1): -1})
        # counts that are not plain ints, keys that are not pairs of ids, and
        # an edge keyed in both orientations
        for counts in ({(0, 1): 1.5}, {(0, 1): "2"}, {(0, 1): True}, {(0, 1): None}, {5: 1},
                       {(0, 1, 2): 1}, {(0,): 1}, {("0", 1): 1}, {(0, True): 1}, {(0, 1.0): 1},
                       {(0, 1): 1, (1, 0): 2}, {(1, 0): 2, (0, 1): 1}):
            with pytest.raises(PreconditionError):
                subdivide(Graph(3, [(0, 1)]), counts)

    def test_matches_naive_subdivide(self):
        # the one-pass mask construction against the edge-list build: the
        # same ids and masks on random graphs and count maps (keys in either
        # orientation and in any order, zero counts, empty maps), and a
        # refusal wherever the edge-list build refuses (non-edges, ids out
        # of range, bad counts)
        rng = random.Random(97)
        cases = [(Graph(0), {}), (Graph(4), {}), (generate("complete", k=1), {})]
        for _ in range(200):
            g = generate("gnp", n=rng.randint(1, 12), p=rng.choice([0.1, 0.3, 0.6, 0.9]),
                         seed=rng.randrange(10**6))
            keys = [e if rng.random() < 0.5 else e[::-1] for e in g.edges() if rng.random() < 0.6]
            rng.shuffle(keys)
            counts = {e: rng.randint(0, 3) for e in keys}
            if rng.random() < 0.2:
                u, v = rng.randrange(-1, g.n + 1), rng.randrange(-1, g.n + 1)
                counts[(u, v)] = rng.choice([1, -1, 1.5])
            cases.append((g, counts))
        refused = 0
        for g, counts in cases:
            try:
                want = naive_subdivide(g, counts)
            except PreconditionError:
                refused += 1
                with pytest.raises(PreconditionError):
                    subdivide(g, counts)
                continue
            got = subdivide(g, counts)
            assert (got.n, got._masks) == (want.n, want._masks), (g.edges(), counts)
        assert 10 <= refused <= 60

    def test_subdivide_vertex_count(self):
        g = generate("cycle", k=5)
        counts = {e: i for i, e in enumerate(g.edges())}
        assert subdivide(g, counts).n == g.n + sum(counts.values())


class TestSetPrimitives:
    def test_components_p5_middle(self):
        g = generate("path", k=5)
        comps = components(g, {2})
        assert sorted(len(c) for c in comps) == [2, 2]

    def test_components_c6_whole(self):
        assert len(components(generate("cycle", k=6))) == 1

    def test_components_k33_one_side(self):
        g = generate("complete_bipartite", a=3, b=3)
        comps = components(g, {0, 1, 2})
        assert sorted(len(c) for c in comps) == [1, 1, 1]

    def test_components_match_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            g = generate("gnp", n=9, p=0.3, seed=rng.randrange(10**6))
            removed = frozenset(v for v in g.vertices if rng.random() < 0.3)
            assert set(components(g, removed)) == naive_components(g, removed)

    def test_components_match_networkx_at_30_to_40(self):
        rng = random.Random(13)
        counts = set()
        for _ in range(40):
            g = generate("gnp", n=rng.randint(30, 40), p=rng.choice([0.03, 0.06, 0.1]),
                         seed=rng.randrange(10**6))
            share = rng.choice([0, 0.2, 0.5])
            removed = frozenset(v for v in g.vertices if rng.random() < share)
            comps = components(g, removed)
            assert set(comps) == nx_components(g, removed) and len(comps) == len(set(comps))
            counts.add(len(comps))
        assert len(counts) > 10

    def test_components_pairwise_anticomplete(self):
        g = generate("gnp", n=12, p=0.25, seed=9)
        removed = frozenset({5, 6, 8, 11})
        comps = components(g, removed)
        assert len(comps) == 4
        for i, a in enumerate(comps):
            for b in comps[i + 1:]:
                assert not a & b and not any(g.has_edge(u, v) for u in a for v in b)
        assert frozenset().union(*comps, removed) == frozenset(g.vertices)

    def test_star_center_closed_nbhd(self):
        g = generate("complete_bipartite", a=1, b=5)
        assert closed_nbhd(g, {0}) == frozenset(range(6))

    def test_empty_nbhd(self):
        g = generate("path", k=3)
        assert closed_nbhd(g, frozenset()) == frozenset()

    def test_set_primitives_match_edge_list_adjacency(self):
        rng = random.Random(71)
        for _ in range(150):
            n, p = rng.randint(0, 12), rng.choice([0.15, 0.3, 0.6])
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            g = Graph(n, edges)
            adj = edge_list_adjacency(n, edges)
            xs = frozenset(v for v in range(n) if rng.random() < 0.3)
            near = frozenset().union(*(adj[v] for v in xs))
            assert closed_nbhd(g, xs) == near | xs
            comps = components(g, xs)
            assert set(comps) == naive_components(g, xs) and len(comps) == len(set(comps))
            assert [min(c) for c in comps] == sorted(min(c) for c in comps)
        with pytest.raises(PreconditionError):
            closed_nbhd(generate("path", k=3), {3})

    @given(small_graphs, st.data())
    @settings(max_examples=80, deadline=None)
    def test_nbhd_identities(self, g, data):
        xs = frozenset(
            data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n))
        ) if g.n else frozenset()
        assert closed_nbhd(g, xs) == xs.union(*(g.neighbors(v) for v in xs))


class TestAlphaExact:
    def test_k5(self):
        assert alpha_exact(generate("complete", k=5)) == 1

    def test_c5(self):
        assert alpha_exact(generate("cycle", k=5)) == 2

    def test_petersen(self):
        assert alpha_exact(petersen()) == 4

    def test_subset(self):
        g = generate("cycle", k=6)
        assert alpha_exact(g, {0, 1, 2}) == 2

    def test_witness_is_stable(self):
        g = generate("gnp", n=14, p=0.4, seed=2)
        s = max_stable_set(g)
        assert len(s) == alpha_exact(g)
        for a in s:
            for b in s:
                if a != b:
                    assert not g.has_edge(a, b)

    def test_cap_refusal(self):
        g = Graph(6)
        with pytest.raises(CapExceededError):
            alpha_exact(g, cap_override=5)

    def test_non_integer_cap_override_rejected(self):
        # every cap override is a plain int >= 0, refused before any search
        def everything(sub, w):
            return sub.vertices

        inst = MWISInstance(generate("path", k=3), {0: 1, 1: 1, 2: 1})
        td = TreeDecomposition.single_bag(inst.graph)
        empty = TreeDecomposition.single_bag(Graph(0))  # no bag to take an alpha of
        for bad in ("5", "3", 2.5, 3.0, True, -1):
            for call in (lambda: alpha_exact(Graph(3), cap_override=bad),
                         lambda: max_stable_set(Graph(3), cap_override=bad),
                         lambda: contains_induced(Graph(3), Graph(2), cap_override=bad),
                         lambda: mwis(inst, "brute", cap_override=bad),
                         lambda: mwis(inst, "td", td=td, cap_override=bad),
                         lambda: tree_alpha_exact(Graph(3), cap_override=bad),
                         lambda: td_stats(inst.graph, td, cap_override=bad),
                         lambda: assemble_td(inst.graph, everything, cap_override=bad),
                         lambda: td_stats(Graph(0), empty, cap_override=bad),
                         lambda: assemble_td(Graph(0), everything, cap_override=bad),
                         lambda: parse_graph("0 1\n", "edgelist", cap_override=bad)):
                with pytest.raises(PreconditionError):
                    call()
        assert alpha_exact(Graph(3), cap_override=3) == 3
        with pytest.raises(CapExceededError):
            alpha_exact(Graph(1), cap_override=0)

    def test_refusal_names_its_cap_source(self, monkeypatch):
        # every cap refusal names its cap by its DEFAULT_CAPS key and says
        # whether its cap was the call's argument or the default, in its
        # fields and in its message
        inst = MWISInstance(generate("path", k=3), {0: 1, 1: 1, 2: 1})
        td = TreeDecomposition.single_bag(inst.graph)
        c11 = generate("cycle", k=11)
        g41 = Graph(41)

        def everything(sub, w):
            return sub.vertices

        # path(3) has five stable sets; a default of 4 refuses them
        monkeypatch.setitem(caps.DEFAULT_CAPS, "mwis_states", 4)
        cases = [  # (call, what, size, cap, source)
            (lambda: alpha_exact(g41), "alpha", 41, 40, "default"),
            (lambda: alpha_exact(Graph(3), cap_override=2), "alpha", 3, 2, "argument"),
            (lambda: max_stable_set(g41), "alpha", 41, 40, "default"),
            (lambda: max_stable_set(Graph(3), cap_override=2), "alpha", 3, 2, "argument"),
            (lambda: td_stats(g41, TreeDecomposition.single_bag(g41)), "alpha", 41, 40,
             "default"),
            (lambda: td_stats(inst.graph, td, cap_override=2), "alpha", 3, 2, "argument"),
            (lambda: assemble_td(g41, everything), "alpha", 41, 40, "default"),
            (lambda: assemble_td(inst.graph, everything, cap_override=2), "alpha", 3, 2,
             "argument"),
            (lambda: contains_induced(Graph(3), Graph(13)), "pattern", 13, 12, "default"),
            (lambda: contains_induced(Graph(3), Graph(2), cap_override=1), "pattern", 2, 1,
             "argument"),
            (lambda: mwis(MWISInstance(Graph(25), {}), "brute"), "mwis_brute", 25, 24,
             "default"),
            (lambda: mwis(inst, "brute", cap_override=2), "mwis_brute", 3, 2, "argument"),
            (lambda: mwis(inst, "td", td=td), "mwis_states", 5, 4, "default"),
            (lambda: mwis(inst, "td", td=td, cap_override=3), "mwis_states", 5, 3, "argument"),
            (lambda: tree_alpha_exact(c11), "tree_alpha", 11, 10, "default"),
            (lambda: tree_alpha_exact(c11, cap_override=9), "tree_alpha", 11, 9, "argument"),
            (lambda: parse_graph("# n=10001\n", "edgelist"), "edgelist_vertices", 10_001,
             10_000, "default"),
            (lambda: parse_graph("0 2\n", "edgelist", cap_override=2), "edgelist_vertices", 3,
             2, "argument"),
        ]
        for call, what, size, cap, source in cases:
            with pytest.raises(CapExceededError) as err:
                call()
            assert err.value.what in caps.DEFAULT_CAPS
            got = (err.value.what, err.value.size, err.value.cap, err.value.source)
            assert got == (what, size, cap, source)
            assert str(err.value) == f"{what}: size {size} exceeds cap {cap} ({source})"
        assert mwis(inst, "td", td=td, cap_override=5)[1] == 2
        # an override above the default reaches every alpha that td_stats
        # and assemble_td take, of an oracle output and of a bag
        assert td_stats(g41, TreeDecomposition.single_bag(g41), cap_override=41) == (40, 41)
        assert assemble_td(g41, everything, cap_override=41).oracle_alphas == [41]

    def test_matches_naive_on_200_random(self):
        rng = random.Random(424242)
        for _ in range(200):
            n = rng.randint(1, 16)
            g = generate("gnp", n=n, p=rng.choice([0.2, 0.5, 0.8]), seed=rng.randrange(10**6))
            assert alpha_exact(g) == naive_alpha(g)

    def test_matches_networkx_at_30_to_40(self):
        for n in (30, 35, 40):
            for p in (0.1, 0.3, 0.5):
                for seed in (1, 2):
                    g = generate("gnp", n=n, p=p, seed=seed)
                    assert alpha_exact(g) == nx_alpha(g)

    def test_max_stable_set_is_maximum_cardinality(self):
        # unit weights are all positive, so no vertex is left out that a
        # larger stable set could hold, on the whole graph and on subsets
        rng = random.Random(8080)
        for _ in range(80):
            n = rng.randint(1, 14)
            g = generate("gnp", n=n, p=rng.choice([0.1, 0.3, 0.6]), seed=rng.randrange(10**6))
            x = frozenset(rng.sample(range(n), rng.randint(0, n)))
            for verts in (None, x):
                s = max_stable_set(g, verts)
                assert len(s) == naive_alpha(g, verts)
                assert verts is None or s <= verts
                assert not any(g.has_edge(a, b) for a in s for b in s if a < b)


WEIGHT_KINDS = {
    "unit": lambda rng: 1,
    "int 0..100": lambda rng: rng.randint(0, 100),
    "int 0..3": lambda rng: rng.randint(0, 3),
    "Fraction": lambda rng: Fraction(rng.randint(0, 12), rng.randint(1, 7)),
    "float": lambda rng: rng.random(),
}


class TestMaxWeightStableKernel:
    """``graphs._max_weight_stable`` against the in/out branch and bound it
    replaced, kept in ``tests/oracles.py``: the kernel runs on each mask's
    frame, and the oracle on the host rows."""

    @pytest.mark.parametrize("kind", sorted(WEIGHT_KINDS))
    def test_matches_reference_kernel(self, kind):
        rng = random.Random(f"kernel:{kind}")
        draw = WEIGHT_KINDS[kind]
        for _ in range(40):
            n = rng.randint(1, 16)
            g = generate("gnp", n=n, p=rng.choice([0.1, 0.3, 0.5, 0.8]),
                         seed=rng.randrange(10**6))
            weights = [draw(rng) for _ in range(n)]
            full = (1 << n) - 1
            for mask in (full, *(rng.randint(0, full) for _ in range(3))):
                order = sorted(graphs._bits(mask), key=lambda v: (g._masks[v] & mask).bit_count())
                local = graphs._frame(g._masks, mask, order)
                found = graphs._max_weight_stable(local, [weights[v] for v in order])
                got = graphs.set_to_mask(order[i] for i in graphs._bits(found))
                want = reference_max_weight_stable(g._masks, mask, weights)
                value = sum(weights[v] for v in range(n) if got >> v & 1)
                best = sum(weights[v] for v in range(n) if want >> v & 1)
                if kind == "float":
                    assert math.isclose(value, best, rel_tol=1e-12, abs_tol=1e-12)
                else:
                    assert value == best
                assert got & ~mask == 0
                assert not any(g._masks[v] & got for v in range(n) if got >> v & 1)

    def test_all_zero_weights(self):
        # weight 0 adds nothing, so the witness may be empty, and it is stable
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 12)
            g = generate("gnp", n=n, p=rng.choice([0.0, 0.3, 0.7]), seed=rng.randrange(10**6))
            wit, val = mwis(MWISInstance(g, {v: 0 for v in g.vertices}), "brute")
            assert val == 0
            assert not any(g.has_edge(a, b) for a in wit for b in wit if a < b)


class TestWeightFn:
    def test_total_cap(self):
        # the heavy set weighs exactly 1 and no vertex set weighs more;
        # mappings, an empty set, non-iterables and members that are not
        # vertex ids are refused
        w = WeightFn([3, 1, 4])
        assert w.heavy == frozenset({1, 3, 4})
        assert w.weight(w.heavy) == w.weight(range(10)) == 1
        for bad in ({0: Fraction(1, 2)}, {0: 1, 1: 0}, {}, [], "", None, 5, [1.5], ["0"],
                    [-3, 0], [True], [False, 1], [None], [[0]]):
            with pytest.raises(PreconditionError):
                WeightFn(bad)

    def test_sums_match_fraction_sums(self):
        # weight against a plain Fraction sum of 1/|heavy| over the distinct
        # members of vs that are heavy, on sets with repeats and non-members
        rng = random.Random(97)
        for _ in range(150):
            n = rng.randint(1, 12)
            heavy = rng.sample(range(2 * n), n)
            w = WeightFn(heavy + heavy[: rng.randint(0, n)])
            assert w.heavy == frozenset(heavy)
            for _ in range(5):
                vs = [rng.randrange(-1, 2 * n + 3) for _ in range(rng.randint(0, 2 * n))]
                got = w.weight(iter(vs))
                want = sum((Fraction(1, n) for v in set(vs) if v in heavy), Fraction(0))
                assert got == want and type(got) is Fraction

    def test_normal_flag(self):
        # uniform on its set, so normal: the whole set weighs 1, and a
        # repeated member is one member, in heavy and in vs alike
        assert WeightFn(range(5)).weight(range(5)) == 1
        assert WeightFn([0, 0, 1]).heavy == WeightFn([0, 1]).heavy
        assert WeightFn([0, 0, 1]).weight([0, 0]) == Fraction(1, 2)
        with pytest.raises(PreconditionError):
            WeightFn([0]).weight([[0]])
