"""Pattern detection: generic matcher, specialized searches, wall freeness."""

from __future__ import annotations

import random

import pytest

from treealpha import patterns
from treealpha.errors import CapExceededError, InvariantViolationError, PreconditionError
from treealpha.graphs import Graph, generate, line_graph
from treealpha.patterns import (
    Embedding,
    PatternSpec,
    contains_induced,
    find_pattern,
    lt_free_upto,
)

from .oracles import naive_contains_induced


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

    def test_specialized_agrees_with_generic(self):
        rng = random.Random(41)
        for _ in range(80):
            g = generate("gnp", n=10, p=rng.choice([0.25, 0.45]), seed=rng.randrange(10**6))
            for spec in (PatternSpec("s_ttt", t=2), PatternSpec("k_tt", t=2)):
                fast = find_pattern(g, spec)
                slow = contains_induced(g, spec.realize())
                assert (fast is None) == (slow is None)

    def test_embedding_verify_rejects_bad(self):
        g = generate("cycle", k=4)
        h = generate("path", k=3)
        assert not Embedding({0: 0, 1: 1, 2: 2, 3: 3}).verify(h, g)  # wrong domain
        assert not Embedding({0: 0, 1: 0, 2: 1}).verify(h, g)  # not injective

    def test_bad_spec_rejected(self):
        for kind, t, gamma in (("s_ttt", 0, 3), ("k_tt", 0, 3), ("k_gamma_2", 3, 0)):
            with pytest.raises(PreconditionError):
                find_pattern(generate("complete", k=4), PatternSpec(kind, t=t, gamma=gamma))

    def test_wrong_embedding_is_refused(self, monkeypatch):
        # P3 mapped onto a triangle: injective, but the image is not induced
        host, p3 = generate("complete", k=3), generate("path", k=3)
        wrong = Embedding({0: 0, 1: 1, 2: 2})
        monkeypatch.setattr(patterns, "_backtrack_induced", lambda g, h: wrong)
        with pytest.raises(InvariantViolationError):
            contains_induced(host, p3)
        with pytest.raises(InvariantViolationError):
            find_pattern(host, PatternSpec("explicit", graph=p3))
        monkeypatch.setattr(patterns, "_find_s_ttt", lambda g, t: Embedding({0: 0, 1: 1, 2: 2, 3: 0}))
        with pytest.raises(InvariantViolationError):
            find_pattern(host, PatternSpec("s_ttt", t=1))


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

    def test_inconclusive_when_cap_too_small(self):
        # host big enough to hold subdivided members the cap cannot reach
        host = generate("cycle", k=9)
        verdict = lt_free_upto(host, 1, 6)  # only the unsubdivided C6 enumerated
        assert verdict.status == "inconclusive"
        assert verdict.certified_cap == 6
