"""The three workloads: fixed call lists generated up front from a seed.

A workload is a list of ``Call``s. A round runs every call once, in order,
one at a time; the benchmark repeats rounds on the same inputs. Each call
carries its own correctness check, run outside the timed region.

Instance shapes are fixed per workload and the seed draws the instances, so
the work a round does is about the same for every seed: where a seeded
instance's cost swings widely (tree-alpha on ten vertices), the benchmark
uses a fixed graph under a seeded relabelling instead, which leaves the
work unchanged and the input different.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

import gate

WALL_T = 2


@dataclass
class Call:
    name: str  # unique within the workload
    kind: str  # the public call it times, as in the per-call metric names
    run: Callable[[dict], object]  # gets the answers of earlier calls this round
    check: Callable[[object], None]  # raises gate.WrongAnswer
    key: Callable[[object], object]  # summary that must repeat in every round
    definite: Callable[[object], bool] = lambda answer: True
    work: Callable[[object, dict], dict] = lambda answer, ctx: {}  # counted outside the timing


class Bench:
    """The calls of one workload plus the benchmark-side hooks they use."""

    def __init__(self, mods):
        self.mods = mods
        self.calls: list[Call] = []

    def sep_oracle(self, g, w, c=Fraction(1, 2)):
        """Smallest vertex set whose removal leaves every component weight <= c."""
        components = self.mods.graphs.components
        for size in range(g.n + 1):
            for x in combinations(range(g.n), size):
                xs = frozenset(x)
                if all(w.weight(comp) <= c for comp in components(g, xs)):
                    return xs
        return frozenset(range(g.n))


def gnm(mods, n: int, m: int, rng: random.Random):
    """Uniform random graph with exactly n vertices and m edges."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return mods.graphs.Graph(n, rng.sample(pairs, m))


def density_edges(n: int, p: float) -> int:
    return round(p * n * (n - 1) / 2)


def relabel(mods, g, rng: random.Random):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return mods.graphs.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _embedding_key(emb):
    return None if emb is None else tuple(sorted(emb.mapping.items()))


# -- patterns ----------------------------------------------------------------------

FREE_HOSTS = (21, 25, 28)  # n, m, count: gnp(21, 0.12) has 25 edges on average
PLANTED_S = (0, 1, 2, 2, 3)  # subdivisions of each planted wall
PENDANTS = 6
BUDGET_HOSTS = (30, 44, 4)  # gnp(30, 0.1) has 44 edges on average
# every member with at most one subdivision, so the budget ends on a level
MEMBER_BUDGET = gate.members_upto(WALL_T, 1)
# find_pattern hosts are fixed G(n, m) graphs under a seeded relabelling. On a
# fresh sparse host k_tt takes 0.1 to 4 ms depending on the host, and hardly
# on its labels. Where s_ttt hits first depends on the vertex order, so on
# 40 to 60 vertices it takes 0.1 ms for most orders and 5 to 150 ms for some;
# at 100 vertices there are enough early hits that it stays under a millisecond.
SPARSE_FIND = (100, 0.1, 3)  # n, p, count
DENSE_FIND = (22, 0.5, 4)


def planted_host(mods, i: int, s: int, rng: random.Random):
    """L(2-wall with s subdivisions) plus pendant vertices, under a seeded
    relabelling. Where the subdivisions and pendants go is fixed per host i:
    it decides how many members lt_free_upto tests before the hit (1 to 578),
    which the labels do not change."""
    G = mods.graphs
    fixed = random.Random(f"planted:{i}")
    wall = G.generate("wall", t=WALL_T)
    edges = wall.edges()
    counts: dict = {}
    for _ in range(s):
        e = fixed.choice(edges)
        counts[e] = counts.get(e, 0) + 1
    member, _ = G.line_graph(G.subdivide(wall, counts))
    n = member.n
    host = G.Graph(n + PENDANTS,
                   member.edges() + [(fixed.randrange(n), n + j) for j in range(PENDANTS)])
    return relabel(mods, host, rng)


def _lt_key(v):
    return (v.status, v.certified_cap, v.members_tested, _embedding_key(v.witness))


def _lt_call(b: Bench, name: str, host, budget: int) -> Call:
    P = b.mods.patterns
    if budget is None:
        budget = 200_000  # the function's default
    return Call(
        name, "lt_free_upto",
        run=lambda ctx: P.lt_free_upto(host, t=WALL_T, size_cap=host.n, member_budget=budget),
        check=lambda v: gate.check_lt(v, host, WALL_T, host.n, budget),
        key=_lt_key,
        definite=lambda v: v.status != "inconclusive",
        work=lambda v, ctx: {"members": v.members_tested},
    )


def _find_call(b: Bench, name: str, host, kind: str) -> Call:
    P = b.mods.patterns
    spec = P.PatternSpec(kind, t=3, gamma=3)
    return Call(
        name, "find_pattern",
        run=lambda ctx: P.find_pattern(host, spec),
        check=lambda emb: gate.check_find_pattern(emb, host, spec),
        key=_embedding_key,
    )


def patterns(b: Bench, seed: int) -> None:
    rng = random.Random(f"patterns:{seed}")
    n, m, count = FREE_HOSTS
    for i in range(count):
        b.calls.append(_lt_call(b, f"lt.free.{i}", gnm(b.mods, n, m, rng), None))
    for i, s in enumerate(PLANTED_S):
        b.calls.append(_lt_call(b, f"lt.planted.{i}.s{s}", planted_host(b.mods, i, s, rng), None))
    n, m, count = BUDGET_HOSTS
    for i in range(count):
        b.calls.append(_lt_call(b, f"lt.budget.{i}", gnm(b.mods, n, m, rng), MEMBER_BUDGET))
    for label, (n, p, count), kinds in (("sparse", SPARSE_FIND, ("s_ttt", "k_tt", "k_gamma_2")),
                                        ("dense", DENSE_FIND, ("s_ttt", "k_tt"))):
        for i in range(count):
            fixed = gnm(b.mods, n, density_edges(n, p), random.Random(f"{label}:{i}"))
            host = relabel(b.mods, fixed, rng)
            for kind in kinds:
                b.calls.append(_find_call(b, f"find.{label}{n}.{i}.{kind}", host, kind))


# -- tree_alpha --------------------------------------------------------------------

# Fixed gnp graphs and a cycle under a seeded relabelling: the enumerator's
# work is invariant under relabelling, while a fresh graph's cost swings with
# the seed (0.1 s to 4.7 s at ten vertices). Eight vertices keep each call
# short, so that a run holds many rounds. Two fresh graphs vary the inputs
# further; they are small, so they barely move the work of a round.
TA_FIXED = ((8, 0.3, range(1, 13)), (8, 0.5, range(1, 13)))  # n, p, gnp seeds
TA_CYCLE = 8
TA_FRESH = ((6, 6, 2),)  # n, m, count


def _ta_call(b: Bench, name: str, g) -> Call:
    TD = b.mods.treedecomp
    return Call(
        name, "tree_alpha",
        run=lambda ctx: TD.tree_alpha_exact(g),
        check=lambda v: _expect(v, gate.tree_alpha(g), "tree-alpha"),
        key=lambda v: v,
    )


def _expect(got, want, what: str) -> None:
    if got != want:
        raise gate.WrongAnswer(f"{what} {got}, recomputed {want}")


def tree_alpha(b: Bench, seed: int) -> None:
    rng = random.Random(f"tree_alpha:{seed}")
    G = b.mods.graphs
    for n, p, seeds in TA_FIXED:
        for k in seeds:
            g = relabel(b.mods, G.generate("gnp", n=n, p=p, seed=k), rng)
            b.calls.append(_ta_call(b, f"ta.gnp{n}.p{p}.seed{k}", g))
    b.calls.append(_ta_call(b, f"ta.cycle{TA_CYCLE}",
                            relabel(b.mods, G.generate("cycle", k=TA_CYCLE), rng)))
    for n, m, count in TA_FRESH:
        for i in range(count):
            b.calls.append(_ta_call(b, f"ta.gnm{n}.{m}.{i}", gnm(b.mods, n, m, rng)))


# -- stable_sets -------------------------------------------------------------------

ALPHA_P = (0.05, 0.1, 0.2, 0.3, 0.5)
ALPHA_N, ALPHA_EACH = 40, 8
BRUTE_P = (0.1, 0.2, 0.3, 0.5)
BRUTE_N, BRUTE_EACH = 24, 10
STRIPS = ((1, 2000), (6, 150))  # rows, columns
ASSEMBLE = ((11, 0.3, 4), (12, 0.3, 4))  # n, p, count
MAX_WEIGHT = 100


def grid_strip(mods, k: int, length: int):
    """k-by-length grid, ids column-major, with its sliding-window path
    decomposition: bag i holds ids i..i+k."""
    G = mods.graphs
    edges = []
    for c in range(length):
        for r in range(k):
            v = c * k + r
            if r + 1 < k:
                edges.append((v, v + 1))
            if c + 1 < length:
                edges.append((v, v + k))
    n = k * length
    nodes = max(n - k, 1)
    td = mods.treedecomp.TreeDecomposition(
        G.Graph(nodes, [(i, i + 1) for i in range(nodes - 1)]),
        {i: frozenset(range(i, min(i + k + 1, n))) for i in range(nodes)},
    )
    return G.Graph(n, edges), td


def _weights(n: int, rng: random.Random) -> dict[int, int]:
    return {v: rng.randint(1, MAX_WEIGHT) for v in range(n)}


def _mwis_key(answer):
    wit, val = answer
    return (tuple(sorted(wit)), val)


def _mwis_td_call(b: Bench, name: str, g, weights, td_of, expected) -> Call:
    TD = b.mods.treedecomp
    inst = TD.MWISInstance(g, weights)
    return Call(
        name, "mwis_td",
        run=lambda ctx: TD.mwis(inst, "td", td=td_of(ctx)),
        check=lambda ans: gate.check_mwis(ans, gate.adjacency(g), weights, expected()),
        key=_mwis_key,
        work=lambda ans, ctx: {"td_states": gate.td_states(g, td_of(ctx))},
    )


def _check_assembled(g, res) -> None:
    gate.check_td(g, res.td)
    masks = gate.graph_masks(g)
    if res.d_realized != max(res.oracle_alphas, default=0):
        raise gate.WrongAnswer("d_realized is not the largest oracle-output alpha")
    if any(a > gate.alpha(masks) for a in res.oracle_alphas):
        raise gate.WrongAnswer("an oracle-output alpha exceeds alpha(G)")
    bound = 5 * max(res.d_realized, 1)  # ceil((3 - c) / (1 - c)) = 5 at c = 1/2
    for bag in res.td.bags.values():
        if gate.alpha(masks, sum(1 << v for v in bag)) > bound:
            raise gate.WrongAnswer("a bag's independence number exceeds the bound")


def stable_sets(b: Bench, seed: int) -> None:
    rng = random.Random(f"stable_sets:{seed}")
    G, TD = b.mods.graphs, b.mods.treedecomp
    for p in ALPHA_P:
        for i in range(ALPHA_EACH):
            g = gnm(b.mods, ALPHA_N, density_edges(ALPHA_N, p), rng)
            b.calls.append(Call(
                f"alpha.p{p}.{i}", "alpha",
                run=lambda ctx, g=g: G.alpha_exact(g),
                check=lambda v, g=g: _expect(v, gate.alpha(gate.graph_masks(g)), "alpha"),
                key=lambda v: v,
            ))
    for p in BRUTE_P:
        for i in range(BRUTE_EACH):
            g = gnm(b.mods, BRUTE_N, density_edges(BRUTE_N, p), rng)
            weights = _weights(g.n, rng)
            inst = TD.MWISInstance(g, weights)
            b.calls.append(Call(
                f"mwis_brute.p{p}.{i}", "mwis_brute",
                run=lambda ctx, inst=inst: TD.mwis(inst, "brute"),
                check=lambda ans, g=g, w=weights: gate.check_mwis(
                    ans, gate.adjacency(g), w, gate.max_weight_stable(gate.graph_masks(g), w)),
                key=_mwis_key,
            ))
    for k, length in STRIPS:
        g, td = grid_strip(b.mods, k, length)
        weights = _weights(g.n, rng)
        b.calls.append(_mwis_td_call(
            b, f"mwis_td.strip{k}x{length}", g, weights, lambda ctx, td=td: td,
            lambda k=k, length=length, w=weights: gate.strip_mwis(k, length, w)))
    for n, p, count in ASSEMBLE:
        for i in range(count):
            g = gnm(b.mods, n, density_edges(n, p), rng)
            name = f"assemble_td.gnm{n}.{i}"
            b.calls.append(Call(
                name, "assemble_td",
                run=lambda ctx, g=g: TD.assemble_td(g, b.sep_oracle),
                check=lambda res, g=g: _check_assembled(g, res),
                key=lambda res: (sorted((t, tuple(sorted(bag))) for t, bag in res.td.bags.items()),
                                 res.td.tree.edges(), tuple(res.oracle_alphas)),
                work=lambda res, ctx: {"oracle_calls": len(res.oracle_alphas),
                                  "bags": len(res.td.bags)},
            ))
            weights = _weights(g.n, rng)
            b.calls.append(_mwis_td_call(
                b, f"mwis_td.assembled{n}.{i}", g, weights,
                lambda ctx, name=name: ctx[name].td,
                lambda g=g, w=weights: gate.max_weight_stable(gate.graph_masks(g), w)))


WORKLOADS = {"patterns": patterns, "tree_alpha": tree_alpha, "stable_sets": stable_sets}


def build(name: str, mods, seed: int) -> Bench:
    b = Bench(mods)
    WORKLOADS[name](b, seed)
    return b
