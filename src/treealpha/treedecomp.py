"""Tree decompositions: validation, statistics, exact tree independence
number when the pieces left by its safe reductions are tiny, assembly from a
balanced-separator oracle, and exact MWIS both brute-force and by dynamic
programming over a decomposition."""

from __future__ import annotations

import json
import math
import reprlib
from collections.abc import Callable, Collection, Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational, Real

from .caps import enforce
from .errors import (
    FormatError,
    InvariantViolationError,
    OracleContractError,
    PreconditionError,
)
from .graphs import (
    Graph,
    WeightFn,
    _bits,
    _check_graph,
    _component_masks,
    _frame,
    _is_int,
    _is_numeral,
    _max_stable_in,
    _reach,
    _stable_witness,
    alpha_exact,
    check_vertex_set,
    mask_to_set,
    set_to_mask,
)


@dataclass
class TreeDecomposition:
    """A tree plus a bag per tree node."""

    tree: Graph
    bags: dict[int, frozenset[int]]

    def to_json(self) -> str:
        _check_td(self)
        if not all(_is_int(v) for b in self.bags.values() for v in b):
            raise PreconditionError("a bag member is not an int, so not a vertex id")
        return json.dumps(
            {
                "nodes": list(range(self.tree.n)),
                "edges": [list(e) for e in self.tree.edges()],
                "bags": {str(t): sorted(set(b)) for t, b in sorted(self.bags.items())},
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "TreeDecomposition":
        try:
            raw = json.loads(text)
            nodes = raw["nodes"]  # plain ints 0..k-1, tested by type: [False, True] == [0, 1]
            if nodes != list(range(len(nodes))) or not all(map(_is_int, nodes)):
                raise FormatError(f"bad tree decomposition JSON: nodes {nodes!r} are not 0..k-1")
            tree = Graph(len(nodes), [tuple(e) for e in raw["edges"]])
            bags = {}
            for key, b in raw["bags"].items():
                if not _is_numeral(key):  # to_json writes str(t), ASCII digits only
                    raise FormatError(f"bad tree decomposition JSON: key {key!r} is not a node id")
                t = int(key)
                if t in bags:  # "1" and "01" name one node
                    raise FormatError(f"bad tree decomposition JSON: node {t} has two bags")
                bags[t] = frozenset(b)
        except (ValueError, KeyError, TypeError, AttributeError, PreconditionError) as e:
            raise FormatError(f"bad tree decomposition JSON: {e!r}") from e
        if not all(_is_int(v) for b in bags.values() for v in b):
            raise FormatError("bad tree decomposition JSON: bag members must be integers")
        return cls(tree, bags)

    @classmethod
    def single_bag(cls, g: Graph) -> "TreeDecomposition":
        _check_graph(g)
        return cls(Graph(1), {0: frozenset(g.vertices)})


@dataclass
class TDReport:
    """validate_td's verdict. bag_masks, internal and left out of repr and ==,
    holds each bag as the mask of its vertex ids, for the DP to read."""

    ok: bool
    violations: list[tuple[str, object]] = field(default_factory=list)
    bag_masks: dict[int, int] = field(default_factory=dict, repr=False, compare=False)


def _check_td(td) -> None:
    """Refuse with PreconditionError a decomposition whose tree is not a
    graph or whose bags are not a mapping from plain ints to collections. Bag
    members are left to _bag_masks, which reports those that are not ids."""
    _check_graph(getattr(td, "tree", None), "td.tree")
    bags = getattr(td, "bags", None)
    if not isinstance(bags, Mapping):
        raise PreconditionError(f"td.bags is of type {type(bags).__name__}, "
                                "not a mapping from tree nodes to bags")
    # _is_int's test per key type and one ABC test per bag type, as a test per
    # bag slows validate_td on long paths; a bool or a float key is no node.
    # A refusal names the first offender, not the whole mapping.
    if set(map(type, bags)) - {int}:
        key = next(k for k in bags if type(k) is not int)
        raise PreconditionError(f"td.bags has the key {reprlib.repr(key)} of type "
                                f"{type(key).__name__}; tree nodes are ints")
    for kind in set(map(type, bags.values())):
        if not issubclass(kind, Collection):
            node = next(t for t, b in bags.items() if type(b) is kind)
            raise PreconditionError(f"td.bags[{node}] is of type {kind.__name__}, "
                                    "not a collection of vertex ids")


def _bag_masks(g: Graph, td: TreeDecomposition) -> tuple[dict[int, int], list[int], list]:
    """The one reading of td's bags: each bag's vertex ids as a mask, each
    vertex's holders (the tree nodes whose bag holds it) as a mask, and a
    ("vertex-range", (node, member)) violation per member that is not an id
    of g, in bag order. A key that is not a tree node holds nothing."""
    _check_graph(g)
    _check_td(td)
    masks, holders, strays, n = {}, [0] * g.n, [], g.n
    for tn, bag in td.bags.items():
        m, node = 0, 1 << tn if 0 <= tn < td.tree.n else 0
        for v in bag:
            if type(v) is int and 0 <= v < n:  # _is_int inlined, as this runs per member
                m |= 1 << v
                holders[v] |= node
            else:
                strays.append(("vertex-range", (tn, v)))
        masks[tn] = m
    return masks, holders, strays


def validate_td(g: Graph, td: TreeDecomposition) -> TDReport:
    """Check the three defining conditions, reporting every violation.

    Subtree connectivity is counted, not searched. The tree nodes whose bags
    hold v induce a subgraph of a tree, so a forest, and a forest on h nodes
    with l edges has h - l components. So they form a subtree exactly when
    l, the number of tree edges whose two bags both hold v, is h - 1."""
    bags, holders, violations = _bag_masks(g, td)
    t = td.tree
    if set(td.bags) != set(t.vertices):
        return TDReport(False, [("tree", "bag keys do not match tree nodes")], bags)
    edges, root = t.edges(), list(range(t.n))
    for a, b in edges:  # union-find, halving paths: each root left is one component's
        while root[a] != a or root[b] != b:
            root[a] = a = root[root[a]]
            root[b] = b = root[root[b]]
        root[a] = b
    if t.n > 0 and (len(edges) != t.n - 1 or sum(root[v] == v for v in range(t.n)) != 1):
        return TDReport(False, [("tree", "decomposition tree is not a tree")], bags)

    for v in g.vertices:
        if not holders[v]:
            violations.append(("vertex-coverage", v))
    for u, v in g.edges():
        if not holders[u] & holders[v]:
            violations.append(("edge-coverage", (u, v)))
    links = [0] * g.n
    for a, b in edges:
        both = bags[a] & bags[b]
        while both:
            low = both & -both
            links[low.bit_length() - 1] += 1
            both ^= low
    for v, hold in enumerate(holders):
        if hold and links[v] != hold.bit_count() - 1:
            violations.append(("subtree-connectivity", (v, sorted(mask_to_set(hold)))))

    return TDReport(not violations, violations, bags)


def td_stats(g: Graph, td: TreeDecomposition,
             cap_override: int | None = None) -> tuple[int, int]:
    """(width, independence number) of the bags, exact, even on a malformed
    tree. Each bag's alpha runs under the alpha cap, overridden by cap_override."""
    bags, _, strays = _bag_masks(g, td)
    if strays:
        raise PreconditionError(f"(node, member) {reprlib.repr(strays[0][1])}: not a vertex id")
    width = max((b.bit_count() for b in bags.values()), default=0) - 1
    enforce("alpha", width + 1, cap_override)  # every bag, before any is searched
    alphas = (len(_max_stable_in(g._masks, b)) for b in bags.values())
    return width, max(alphas, default=0)


# -- simplicial elimination: chordality, tree-alpha ---------------------------


def _peel_simplicial(adj, keep: int) -> int:
    """What is left of the mask keep after removing simplicial vertices of
    G[keep] while there is one: v is simplicial when its remaining neighbours
    are pairwise adjacent, and removing v puts them back on the worklist.
    Nothing is left exactly when G[keep] is chordal (Dirac 1961)."""
    todo = keep
    while todo:
        b = todo & -todo
        todo ^= b
        nb = adj[b.bit_length() - 1] & keep
        m = nb
        while m:
            u = m & -m
            m ^= u
            if m & ~adj[u.bit_length() - 1]:
                break
        else:
            keep ^= b
            todo |= nb
    return keep


def is_chordal(g: Graph) -> bool:
    _check_graph(g)
    return not _peel_simplicial(g._masks, (1 << g.n) - 1)


def minimal_triangulations(g: Graph) -> set[frozenset]:
    """All minimal chordal completions, as sets of fill edges.

    Enumerates elimination orders depth-first, deduplicating on the
    (eliminated set, fill) state; the fill is an int whose bit a * n + c
    marks the fill edge (a, c), a < c. Eliminating v after the set S joins
    every two vertices of its bag {v} + Q(S, v), as in _subset_tree_alpha.
    Every order's filled graph is a triangulation, and a minimal
    triangulation H is the filled graph of its own perfect elimination
    order, which lies inside H and is chordal, so equals H (Rose, Tarjan and
    Lueker 1976). So the minimal triangulations are the order fills that
    contain no other fill.
    """
    _check_graph(g)
    n, adj = g.n, g._masks
    full = (1 << n) - 1
    seen: set[tuple[int, int]] = set()
    fills: set[int] = set()

    def rec(before: int, fill: int):
        if (before, fill) in seen:
            return
        seen.add((before, fill))
        if before == full:
            fills.add(fill)
        for v in _bits(full ^ before):
            q = _reach(adj, 1 << v, before) & ~before ^ 1 << v
            child = fill
            for a in _bits(q):
                # the non-neighbours c > a of a in Q(S, v), at bits a * n + c
                child |= (q & ~adj[a] & -(2 << a)) << a * n
            rec(before | 1 << v, child)

    rec(0, 0)
    return {frozenset(divmod(i, n) for i in _bits(f))
            for f in fills if not any(o & f == o != f for o in fills)}


def tree_alpha_exact(g: Graph, cap_override: int | None = None) -> int:
    """Exact tree independence number: 0 on the empty graph, otherwise the
    larger of 1 and the value of each piece that two safe reductions leave.

    - Simplicial vertices go first, removed by ``_peel_simplicial``: v is
      simplicial when its remaining neighbours are pairwise adjacent, and
      then tree-alpha(G) = max(1, tree-alpha(G - v)). An optimal
      decomposition of G - v has a bag holding the clique N(v), and the bag
      N[v], whose alpha is 1, attaches to it; and induced subgraphs never
      raise tree-alpha.
    - What is left splits into its components, and decompositions of the
      components join by one tree edge each, so the value is the largest
      over the components.

    Each piece runs ``_subset_tree_alpha``, and the ``tree_alpha`` cap bounds
    the size of the largest piece, not n: a refusal reports that piece. A
    greedy elimination bounds each piece's value from above first. A piece
    has no simplicial vertex, so it is not chordal and its value is at least
    2, and a bound of 2 is the answer without the recurrence; a larger bound
    seeds the recurrence, whose values are clipped at it, exactly.
    """
    _check_graph(g)
    adj = g._masks
    pieces = _component_masks(adj, _peel_simplicial(adj, (1 << g.n) - 1))
    enforce("tree_alpha", max((p.bit_count() for p in pieces), default=0), cap_override)
    floor = 1 if g.n else 0  # a nonempty graph has a bag, and its alpha is at least 1
    return max([floor] + [_subset_tree_alpha(adj, p) for p in pieces])


def _subset_tree_alpha(adj: tuple[int, ...], piece: int) -> int:
    """Tree independence number of the subgraph that the mask piece induces,
    by dynamic programming over the set of vertices eliminated first.

    Eliminating v after the set S gives the bag {v} + Q(S, v), where Q(S, v)
    holds the vertices outside S + v that v reaches through S. An order's
    bags are cliques of its filled graph and include each maximal clique of
    it, and every triangulation contains the filled graph of its perfect
    elimination order; alpha is monotone, so tree-alpha is the least over
    orders of the largest alpha of a bag. A bag depends on the set before it,
    not on that set's order, hence with TA(empty) = 0 and
    TA(S) = min over v in S of max(TA(S - v), alpha({v} + Q(S - v, v))),
    tree-alpha is TA(V): the treewidth recurrence of Bodlaender, Fomin,
    Koster, Kratsch and Thilikos (TALG 2012) with alpha as the bag cost.

    Every bag is a subset of the piece, so one table over the piece's
    subsets, filled in 2^k steps before the recurrence, holds every bag's
    alpha. With v the lowest vertex of S, a stable subset of S either avoids
    v or holds v and nothing of N(v), so
    alpha(S) = max(alpha(S - v), 1 + alpha(S - N[v])), exactly.

    Before the recurrence, one greedy elimination bounds the answer from
    above: each step eliminates the vertex whose bag has the least alpha,
    the lowest such vertex on ties, and ub is the largest alpha of a bag it
    took. That order is one of those TA(V) minimises over, so
    tree-alpha <= ub, and when ub <= 2 it is the answer, for any mask:
    - A chordal piece gives ub = 1. While no step has added fill, the
      remaining graph is an induced subgraph of the piece, so chordal, and
      it has a simplicial vertex (Dirac 1961), whose bag is a clique: alpha
      1, and no fill. So the greedy takes only such bags.
    - A piece that is not chordal has tree-alpha at least 2, since a
      decomposition whose bags are all cliques makes it chordal.
    Otherwise every TA(S) starts at ub instead of at n, and the table holds
    min(ub, TA(S)). That is exact: min(ub, .) commutes with the minimum over
    v, and min(ub, max(x, y)) = min(ub, max(min(ub, x), y)), so clipping the
    values the recurrence reads gives the clipped value of TA(S), and
    min(ub, TA(V)) = TA(V). A candidate v whose TA(S - v) already reaches
    the least value found so far for TA(S) cannot lower it, so its bag is
    not built; that value is at most ub from the start, so the skip fires
    far more often.
    """
    adj = _frame(adj, piece, _bits(piece))
    n = len(adj)
    alpha = [0] * (1 << n)
    for s in range(1, 1 << n):
        b = s & -s
        rest = s ^ b
        alpha[s] = max(alpha[rest], 1 + alpha[rest & ~adj[b.bit_length() - 1]])
    full = (1 << n) - 1
    ub = before = 0
    while before != full:
        a, v = min((alpha[_reach(adj, 1 << v, before) & ~before], v)
                   for v in _bits(full ^ before))
        ub = max(ub, a)
        before |= 1 << v
    if ub <= 2:
        return ub
    ta = [0] * (1 << n)
    for s in range(1, 1 << n):
        best, m = ub, s
        while m:
            b = m & -m
            m ^= b
            before = s ^ b
            if ta[before] >= best:
                continue
            # ta[before] < best, so max(ta[before], a) < best exactly when a < best
            a = alpha[_reach(adj, b, before) & ~before]
            if a < best:
                best = a if a > ta[before] else ta[before]
        ta[s] = best
    return ta[-1]


# -- assembly from a balanced-separator oracle --------------------------------


# collections.abc, not typing: typing caches subscriptions, and its cache would
# keep Graph, and through it every function of a re-imported graphs module, alive
SepOracle = Callable[[Graph, WeightFn], Iterable[int]]


@dataclass
class AssembleResult:
    td: TreeDecomposition
    oracle_alphas: list[int]
    d_realized: int


def assemble_td(g: Graph, sep_oracle: SepOracle, c: Fraction = Fraction(1, 2),
                cap_override: int | None = None) -> AssembleResult:
    """Build a tree decomposition by recursive balanced separation.

    Recursion state is two vertex masks: the active region and its boundary,
    the part of the parent's bag adjacent to it; a node's bag is its boundary
    plus its separator. Each oracle call gets G[boundary + region], in sub
    ids, and ``WeightFn(heavy)``, uniform on heavy: the whole of boundary plus
    region, or the region alone for the forced re-cut when the first separator
    missed it. Every oracle output X is re-checked for (w,c)-balance on host
    masks by counting: each component of G[boundary + region] - X may hold at
    most c * |heavy| vertices of heavy, which is w.weight(component) <= c. The
    resulting decomposition is validated and its independence number checked
    against ceil((3-c)/(1-c)) times the largest oracle-output stability
    number. Every alpha, of an oracle output or of a bag, runs under the
    ``alpha`` cap, with cap_override as its override.
    """
    _check_graph(g)
    if not callable(sep_oracle):
        raise PreconditionError(f"sep_oracle {sep_oracle!r} is not callable")
    try:
        c = Fraction(c)
    except (TypeError, ValueError, ArithmeticError) as e:
        raise PreconditionError(f"balance fraction c={c!r} is not a number") from e
    if not (Fraction(1, 2) <= c < 1):
        raise PreconditionError(f"balance fraction c={c} outside [1/2, 1)")
    adj = g._masks
    bags: dict[int, frozenset[int]] = {}
    tree_edges: list[tuple[int, int]] = []
    oracle_alphas: list[int] = []

    def call_oracle(univ: int, heavy: int) -> int:
        # the oracle's instance is G[univ] with weight uniform on heavy
        sub, to_sub, to_host = g.induced(_bits(univ))
        w = WeightFn(to_sub[v] for v in _bits(heavy))
        out = sep_oracle(sub, w)
        try:
            x = set_to_mask(to_host[v] for v in check_vertex_set(sub, out))
        except PreconditionError as e:
            raise OracleContractError(
                f"oracle returned {out!r}, not a vertex set of its instance", (sub, w)
            ) from e
        room = c * heavy.bit_count()
        if any((comp & heavy).bit_count() > room for comp in _component_masks(adj, univ & ~x)):
            raise OracleContractError("oracle output is not a balanced separator", (sub, w))
        oracle_alphas.append(alpha_exact(g, _bits(x), cap_override))
        return x

    def new_node(bag: int) -> int:
        node = len(bags)
        bags[node] = mask_to_set(bag)
        return node

    def decompose(region: int, boundary: int) -> int:
        # each child's region is one component of region minus the separator x
        if not region:
            return new_node(boundary)
        univ = region | boundary
        x = call_oracle(univ, univ)
        rest = _component_masks(adj, region & ~x)
        if rest == [region]:
            # the separator missed the active region; force a cut of it
            x |= call_oracle(univ, region)
            rest = _component_masks(adj, region & ~x)
        bag = boundary | x
        node = new_node(bag)
        for comp in rest:
            # comp and bag are disjoint, so N[comp] & bag is bag & N(comp)
            child = decompose(comp, _reach(adj, comp, 0) & bag)
            tree_edges.append((node, child))
        return node

    decompose((1 << g.n) - 1, 0)
    td = TreeDecomposition(Graph(len(bags), tree_edges), dict(bags))

    report = validate_td(g, td)
    if not report.ok:
        raise InvariantViolationError(
            "assembled decomposition failed validation", trace=report.violations
        )
    d_realized = max(oracle_alphas, default=0)
    _, indep = td_stats(g, td, cap_override)
    ratio = (3 - c) / (1 - c)
    bound = -(-ratio.numerator // ratio.denominator) * max(d_realized, 1)
    if indep > bound:
        raise InvariantViolationError(
            f"bag independence {indep} exceeds bound {bound}",
            trace={"d_realized": d_realized, "c": str(c)},
        )
    return AssembleResult(td, oracle_alphas, d_realized)


# -- MWIS ----------------------------------------------------------------------


@dataclass
class MWISInstance:
    graph: Graph
    weights: dict[int, object]

    def __post_init__(self):
        _check_graph(self.graph, "graph")
        if not isinstance(self.weights, Mapping):
            raise PreconditionError(f"weights {self.weights!r} is not a mapping")
        check_vertex_set(self.graph, self.weights.keys())
        for v, x in self.weights.items():
            if not (isinstance(x, Real) and type(x) is not bool and 0 <= x < math.inf):
                raise PreconditionError(f"weight {x!r} at vertex {v} is not a finite number >= 0")

    def w(self, v: int):
        return self.weights.get(v, 0)

    def total(self, vs: Iterable[int]):
        try:
            return sum(self.w(v) for v in vs)
        except TypeError:
            raise PreconditionError(f"{vs!r} is not a set of vertex ids") from None


def _mwis_brute(inst: MWISInstance, cap_override: int | None) -> tuple[int, object]:
    g = inst.graph
    enforce("mwis_brute", g.n, cap_override)
    found = _max_stable_in(g._masks, (1 << g.n) - 1, inst.w)
    return set_to_mask(found), inst.total(found)


def _stable_subsets(masks: tuple[int, ...], bag: int, lo: int, w,
                    room: int) -> dict[int, object]:
    """Every stable subset of the bag, with its weight, as a mask shifted
    down by lo, the bag's lowest vertex: bit i stands for vertex lo + i.
    Vertices are added in ascending order, so the subsets come in ascending
    mask order. Stops adding vertices once there are more than room
    subsets, so a bag past the room is built to at most twice it."""
    out = {0: 0}
    local = bag >> lo
    while local and len(out) <= room:
        b = local & -local
        v = lo + b.bit_length() - 1
        local ^= b
        wv = w(v)
        nb = (masks[v] & bag) >> lo
        out.update([(s | b, val + wv) for s, val in out.items() if not s & nb])
    return out


def _mwis_td(inst: MWISInstance, td: TreeDecomposition,
             cap_override: int | None) -> tuple[int, object]:
    g = inst.graph
    limit = enforce("mwis_states", 0, cap_override)
    report = validate_td(g, td)
    if not report.ok:
        raise PreconditionError(f"invalid tree decomposition: {report.violations}")
    bags = report.bag_masks
    if not bags:
        return 0, 0

    # lo[t]: bag t's lowest vertex, 0 for an empty bag
    lo = {t: (b & -b).bit_length() - 1 if b else 0 for t, b in bags.items()}
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
    # Each bag's states are shifted down by lo[t]: the rank frame of
    # graphs._frame when a bag's ids are consecutive. A child's projections
    # are formed in the parent's frame, each child state shifted by
    # lo[u] - lo[t] and cut to the shared vertices. A shift is one-to-one on
    # a bag's subsets and keeps their order, so tables are filled and scanned
    # in host-id order: the same first maximum, and floats summed in the
    # same order. Rank frames per bag read 1.49-1.67x this DP's time on grid
    # strips, so wide bags keep wide states until ROADMAP item 4's rewrite.
    value: dict[int, dict[int, object]] = {}
    pick: dict[int, dict[int, tuple[object, int]]] = {}
    counted = 0
    for t in reversed(order):
        own = _stable_subsets(g._masks, bags[t], lo[t], inst.w, limit - counted)
        counted += len(own)
        if counted > limit:  # tested here, so that the gate runs once per call, not per bag
            enforce("mwis_states", counted, cap_override)
        table = dict(own)
        for u in kids[t]:
            cut = (bags[t] & bags[u]) >> lo[t]
            up = lo[u] - lo[t]  # shared vertices lie at or above both shifts
            best: dict[int, tuple[object, int]] = {}
            for s, val in value.pop(u).items():
                key = (s << up if up >= 0 else s >> -up) & cut
                if key not in best or val > best[key][0]:
                    best[key] = (val, s)
            for s in table:
                key = s & cut
                table[s] += best[key][0] - own[key]
            pick[u] = best
        value[t] = table

    top = value[0]
    chosen = {0: max(top, key=top.__getitem__)}
    wit = chosen[0] << lo[0]
    for t in order:
        for u in kids[t]:
            # chosen[t] lies in bag t, so this is its part shared with bag u
            chosen[u] = pick[u][chosen[t] & bags[u] >> lo[t]][1]
            wit |= chosen[u] << lo[u]
    return wit, top[chosen[0]]


def mwis(instance: MWISInstance, method: str = "brute",
         td: TreeDecomposition | None = None,
         cap_override: int | None = None) -> tuple[frozenset[int], object]:
    """Exact maximum weight stable set with a witness: a stable set of the
    largest total weight, returned with that weight. A witness may leave out
    vertices of weight 0: with every weight 0 it may be empty. Either
    method's witness is checked to be stable and to weigh the value
    returned."""
    _check_graph(getattr(instance, "graph", None), "instance.graph")
    if method == "brute":
        if td is not None:
            raise PreconditionError("only the td method takes a decomposition")
        wit, val = _mwis_brute(instance, cap_override)
    elif method == "td":
        if td is None:
            raise PreconditionError("td method needs a decomposition")
        wit, val = _mwis_td(instance, td, cap_override)
    else:
        raise PreconditionError(f"unknown mwis method {method!r}")
    g = instance.graph
    found = _stable_witness(g._masks, wit)
    weight = instance.total(found)
    # float weights are summed in another order by the DP than here
    exact = isinstance(weight, Rational) and isinstance(val, Rational)
    if not (weight == val if exact else math.isclose(weight, val, rel_tol=1e-9, abs_tol=1e-12)):
        raise InvariantViolationError(f"mwis {method} returned value {val!r} for a witness "
                                      f"of weight {weight!r}", trace=sorted(found))
    return found, val
