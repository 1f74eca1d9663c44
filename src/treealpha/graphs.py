"""Immutable simple graphs, the balance weight of a separator oracle,
generators, neighbourhoods and components, and exact stability number.

Vertices are dense ids ``0..n-1``. A graph is held in one representation:
one adjacency bitmask per vertex, bit u of vertex v's mask set when uv is
an edge; every accessor and every neighbourhood or component walk reads
those masks. Induced subgraphs return an explicit id translation instead of
renumbering silently. All randomized generation takes an explicit seed and
is deterministic. Graphs are immutable after construction and safe to share
across concurrent tasks.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping
from fractions import Fraction
from numbers import Real

from .caps import enforce
from .errors import FormatError, InvariantViolationError, PreconditionError

Edge = tuple[int, int]


def _is_int(x) -> bool:
    """x is a plain int: a bool, which Python counts as an int, is not a
    vertex id or a count."""
    return type(x) is int


def _is_numeral(text: str) -> bool:
    """text is an ASCII decimal numeral, which int() alone does not test: it
    also takes a sign, spaces, "_" and other scripts' digits."""
    return text.isascii() and text.isdigit()


def norm_edge(u: int, v: int) -> Edge:
    """Normalize an undirected edge to (min, max) form."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph: no loops, no multi-edges, stored only as the
    tuple ``_masks`` of adjacency bitmasks, one per vertex."""

    __slots__ = ("n", "_masks")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if not (_is_int(n) and n >= 0):
            raise PreconditionError(f"vertex count must be a nonnegative integer, got {n!r}")
        try:
            edges = iter(edges)
        except TypeError:
            raise PreconditionError(f"edges {edges!r} is not an iterable of pairs") from None
        masks = [0] * n
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise PreconditionError(f"edge {e!r} is not a pair of vertices") from None
            # _is_int inlined, as this runs once per edge
            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
                raise PreconditionError(f"edge ({u!r},{v!r}) out of range for n={n}")
            if u == v:
                raise PreconditionError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self._masks = tuple(masks)

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(self.n)

    def adj_mask(self, v: int) -> int:
        """v's adjacency mask; every per-vertex accessor reads it here, so
        each refuses a v that is not an id in 0..n-1."""
        if not (_is_int(v) and 0 <= v < self.n):
            raise PreconditionError(f"{v!r} is not a vertex id in 0..{self.n - 1}")
        return self._masks[v]

    def neighbors(self, v: int) -> frozenset[int]:
        """v's neighbours, as a frozenset built from its mask on each call."""
        return mask_to_set(self.adj_mask(v))

    def degree(self, v: int) -> int:
        return self.adj_mask(v).bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self.adj_mask(v)  # refuses a v that is not an id
        return self.adj_mask(u) >> v & 1 == 1

    def edges(self) -> list[Edge]:
        """Every edge (u, v) with u < v, in lexicographic order."""
        out = []
        for u, m in enumerate(self._masks):
            m >>= u + 1
            while m:
                b = m & -m
                out.append((u, u + b.bit_length()))
                m ^= b
        return out

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._masks) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"

    # -- derived graphs ----------------------------------------------------

    def induced(self, verts: Iterable[int]) -> tuple["Graph", dict[int, int], tuple[int, ...]]:
        """Induced subgraph plus id translation.

        Returns (subgraph, host_to_sub, sub_to_host); the subgraph is the
        rank frame of verts (see _frame), so sub ids follow the host ids.
        """
        order = sorted(check_vertex_set(self, verts))
        sub = Graph(len(order))
        sub._masks = _frame(self._masks, set_to_mask(order), order)
        return sub, dict(zip(order, range(sub.n))), tuple(order)


def _check_graph(g, what: str = "g") -> None:
    """Refuse with PreconditionError anything that lacks a graph's fields,
    a plain int n and a tuple _masks of n rows: the one check that public
    entry points run on a graph argument, so that None, a list or a short
    row tuple is a typed refusal, not a bare AttributeError or IndexError.
    It reads fields rather than the class, so a Graph built before this
    module was imported again still passes."""
    masks = getattr(g, "_masks", None)
    if not (_is_int(getattr(g, "n", None)) and type(masks) is tuple and len(masks) == g.n):
        raise PreconditionError(f"{what} is {g!r}, not a Graph")


def set_to_mask(vs: Iterable[int]) -> int:
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def _bits(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(_bits(mask))


def _frame(rows, keep: int, order) -> tuple[int, ...]:
    """The rows of the members of the mask keep, cut to keep, in a local
    frame: bit i stands for order[i], which lists keep's members, and
    order maps a frame mask back. Ascending, it is the rank frame, which
    keeps the vertex order. Refuses a row that holds its own vertex, on
    which the clique loop of _max_weight_stable would never end."""
    to, local = dict(zip(order, range(len(order)))), []
    for i, v in enumerate(order):
        m, out = rows[v] & keep, 0
        while m:
            b = m & -m
            out |= 1 << to[b.bit_length() - 1]
            m ^= b
        if out >> i & 1:
            raise InvariantViolationError(f"the row of vertex {v} holds {v}", trace=order)
        local.append(out)
    return tuple(local)


def check_vertex_set(g: Graph, vs: Iterable[int]) -> frozenset[int]:
    """Validate that every member is an int id in g's universe; returns the
    frozenset."""
    _check_graph(g)
    try:
        s = frozenset(vs)
    except TypeError:
        raise PreconditionError(f"{vs!r} is not a set of vertex ids") from None
    for v in s:
        if not (_is_int(v) and 0 <= v < g.n):
            raise PreconditionError(f"vertex {v!r} is not an id in 0..{g.n - 1}")
    return s


# -- the balance weight of a separator oracle ---------------------------------


class WeightFn:
    """The weight a separator oracle balances: uniform on ``heavy``, a
    nonempty set of vertex ids, so a vertex set weighs the share of heavy it
    holds. ``assemble_td`` builds one for each oracle call and re-checks the
    answer by counting heavy vertices in each component, the same test."""

    __slots__ = ("heavy",)

    def __init__(self, heavy: Iterable[int]):
        # a mapping would otherwise become uniform on its keys, dropping
        # the weights it was given
        if isinstance(heavy, Mapping):
            raise PreconditionError("a balance weight is uniform on a vertex set, not a mapping")
        try:
            heavy = frozenset(heavy)
        except TypeError:
            raise PreconditionError(f"heavy set {heavy!r} is not a set of vertex ids") from None
        if not heavy:
            raise PreconditionError("a balance weight needs a nonempty heavy set")
        for v in heavy:
            if not (_is_int(v) and v >= 0):
                raise PreconditionError(f"heavy member {v!r} is not a vertex id")
        self.heavy = heavy

    def weight(self, vs: Iterable[int]) -> Fraction:
        """|heavy & vs| / |heavy|; a repeated member of vs counts once."""
        try:
            return Fraction(len(self.heavy.intersection(vs)), len(self.heavy))
        except TypeError:
            raise PreconditionError(f"{vs!r} is not a set of vertex ids") from None

    def __repr__(self) -> str:
        return f"WeightFn(|heavy|={len(self.heavy)})"


# -- neighborhoods and components ---------------------------------------------


def closed_nbhd(g: Graph, x: Iterable[int]) -> frozenset[int]:
    """N[X] = X together with N(X)."""
    seed = set_to_mask(check_vertex_set(g, x))
    return mask_to_set(_reach(g._masks, seed, 0))


def _reach(adj, seed: int, through: int) -> int:
    """Every vertex reached from the mask seed along walks whose inner
    vertices all lie in the mask through, seed included, as a mask; adj[v]
    is v's adjacency mask. With through = 0 this is the closed
    neighbourhood of seed."""
    seen = frontier = seed
    while frontier:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            nxt |= adj[b.bit_length() - 1]
            frontier ^= b
        nxt &= ~seen
        seen |= nxt
        frontier = nxt & through
    return seen


def _component_masks(adj, keep: int) -> list[int]:
    """The connected components of the subgraph induced by the mask keep,
    as masks, sorted by least vertex."""
    out = []
    while keep:
        comp = _reach(adj, keep & -keep, keep) & keep
        out.append(comp)
        keep ^= comp
    return out


def components(g: Graph, removed: Iterable[int] = ()) -> list[frozenset[int]]:
    """Connected components of g minus ``removed``, sorted by least vertex."""
    gone = set_to_mask(check_vertex_set(g, removed))
    keep = ((1 << g.n) - 1) & ~gone
    return [mask_to_set(comp) for comp in _component_masks(g._masks, keep)]


# -- maximum weight stable set (exact) ----------------------------------------


def _max_weight_stable(masks: tuple[int, ...], weights: list) -> int:
    """A maximum-weight stable set of the frame masks (see _frame), by a
    clique-cover-ordered branch and bound: Tomita and Seki's MCQ (DMTCS
    2003) on the complement, with Kumlander's weighted colour bound (2004).

    Callers order the frame's ids by non-decreasing degree, and
    weights[v] >= 0 is the weight of id v.
    Each node covers its candidates by greedy cliques in label order; a
    stable set meets a clique at most once, so the heaviest weights of the
    cliques up to the i-th add up to a bound on what cliques 0..i can still
    give. The node walks its cliques from last to first and takes each
    vertex v in turn: it prunes once the current weight plus that bound
    cannot beat the best found, else it searches the candidates outside
    N[v] with v taken and then drops v, the "out" branch. Only a strictly
    heavier set replaces the best, so a witness may leave out vertices of
    weight 0.
    """
    best, best_val = 0, 0

    def expand(p: int, cur: int, cur_val) -> None:
        nonlocal best, best_val
        if cur_val > best_val:
            best, best_val = cur, cur_val
        # cliques[i]: the i-th greedy clique of p and the bound of cliques 0..i
        cliques, bound, rem = [], 0, p
        while rem:
            b = rem & -rem
            v = b.bit_length() - 1
            q, top = b, weights[v]
            cand = rem & masks[v]
            while cand:
                b = cand & -cand
                u = b.bit_length() - 1
                q |= b
                if weights[u] > top:
                    top = weights[u]
                cand &= masks[u]
            rem ^= q
            bound += top
            cliques.append((q, bound))
        for q, bound in reversed(cliques):
            while q:
                if cur_val + bound <= best_val:
                    return
                b = q & -q
                q ^= b
                v = b.bit_length() - 1
                expand(p & ~(masks[v] | b), cur | b, cur_val + weights[v])
                p ^= b

    expand((1 << len(masks)) - 1, 0, 0)
    return best


def max_stable_set(g: Graph, x: Iterable[int] | None = None,
                   cap_override: int | None = None) -> frozenset[int]:
    """A maximum stable set of G[x], exact, via branch and bound.

    Refuses (never approximates) when |x| exceeds the alpha cap.
    """
    _check_graph(g)
    keep = set_to_mask(check_vertex_set(g, x)) if x is not None else (1 << g.n) - 1
    enforce("alpha", keep.bit_count(), cap_override)
    return _max_stable_in(g._masks, keep)


def _max_stable_in(masks: tuple[int, ...], keep: int, w=None) -> frozenset[int]:
    """A maximum-weight stable subset of the mask keep in the graph with rows
    masks, vertex v weighing w(v), or 1 without w. The kernel searches keep's
    frame, sized to keep, with its members by degree in G[keep], ties to the
    lower id; the answer is checked in that frame before it is mapped back,
    so a bit past the frame is a refusal."""
    order = sorted(_bits(keep), key=lambda v: (masks[v] & keep).bit_count())
    local = _frame(masks, keep, order)
    weights = [w(v) for v in order] if w else [1] * len(order)
    found = _stable_witness(local, _max_weight_stable(local, weights))
    return frozenset(order[v] for v in found)


def _stable_witness(masks: tuple[int, ...], wit: int) -> frozenset[int]:
    """The mask wit as a vertex set, once checked to be a stable set of the
    graph with rows masks, with no bit past them: the check, run on every
    witness a stable-set search returns, that survives python -O."""
    found = mask_to_set(wit)
    if wit >> len(masks) or any(masks[v] & wit for v in found):
        raise InvariantViolationError("search returned a set that is not a stable subset",
                                      trace=sorted(found))
    return found


def alpha_exact(g: Graph, x: Iterable[int] | None = None,
                cap_override: int | None = None) -> int:
    """Exact stability number of G[x]."""
    return len(max_stable_set(g, x, cap_override))


# -- text formats ---------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


# graph6's vertex-count forms: the prefix, the number of 6-bit groups after
# it, and the largest n the form holds
_G6_SIZES = ((b"", 1, 62), (b"~", 3, 258047), (b"~~", 6, 68719476735))


def _sextets(x: int, count: int) -> bytes:
    """x as count graph6 bytes, six bits each, the high group first."""
    return bytes((x >> 6 * k & 63) + 63 for k in range(count - 1, -1, -1))


def _emit_graph6(g: Graph) -> str:
    forms = [form for form in _G6_SIZES if g.n <= form[2]]
    if not forms:
        raise FormatError(f"graph too large for graph6: n={g.n}")
    prefix, count, _ = forms[0]
    # the upper triangle in column order: column j holds the bits i < j, i rising
    bits = "".join(format(g.adj_mask(j) & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, g.n))
    bits += "0" * (-len(bits) % 6)
    body = bytes(int(bits[k:k + 6], 2) + 63 for k in range(0, len(bits), 6))
    return (prefix + _sextets(g.n, count) + body).decode("ascii")


def _parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):].strip()
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as e:
        raise FormatError("graph6 input is not ASCII") from e
    for byte in data:
        if not (63 <= byte <= 126):
            raise FormatError(f"invalid graph6 byte {byte}")
    if not data:
        raise FormatError("empty graph6 string")
    prefix, count, _ = [form for form in _G6_SIZES if data.startswith(form[0])][-1]
    bits = "".join(format(byte - 63, "06b") for byte in data[len(prefix):])
    if len(bits) < 6 * count:
        raise FormatError("truncated graph6 vertex count")
    n, body = int(bits[:6 * count], 2), bits[6 * count:]
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    if len(body) != 6 * need_bytes:
        raise FormatError(
            f"graph6 body has {len(body) // 6} bytes, expected {need_bytes} for n={n}")
    if "1" in body[need_bits:]:
        raise FormatError("nonzero padding bits in graph6 body")
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    return Graph(n, [pair for pair, bit in zip(pairs, body) if bit == "1"])


def _emit_edgelist(g: Graph) -> str:
    # the leading comment pins the vertex count so isolated vertices survive
    lines = [f"# n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _parse_edgelist(text: str, cap_override: int | None) -> Graph:
    edges = []
    max_v = -1
    declared = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)
        if len(line) == 2 and declared is None:
            # the header comment "n=<count>", with spaces allowed around "="
            key, eq, value = line[1].partition("=")
            if eq and key.strip() == "n":
                value = value.strip()
                if not _is_numeral(value):
                    raise FormatError(f"line {lineno}: vertex count {value!r} is not an integer >= 0")
                declared = int(value)
        body = line[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        if not all(map(_is_numeral, parts)):
            signed = all(_is_numeral(part.removeprefix("-")) for part in parts)
            fault = "negative vertex id" if signed else "non-integer endpoint"
            raise FormatError(f"line {lineno}: {fault} in {raw!r}")
        u, v = map(int, parts)
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at {u}")
        edges.append((u, v))
        max_v = max(max_v, u, v)
    count = declared if declared is not None else max_v + 1
    if max_v >= count:
        raise FormatError(f"vertex {max_v} out of range for declared n={count}")
    # a few bytes of header or endpoint id can ask for millions of masks
    enforce("edgelist_vertices", count, cap_override)
    return Graph(count, edges)


def parse_graph(text: str, fmt: str, cap_override: int | None = None) -> Graph:
    """Parse graph6 (bit-exact) or whitespace edge-list text; an edge list's
    vertex count is its first "# n=<count>" comment, else its largest id + 1.
    That count runs under the ``edgelist_vertices`` cap, with cap_override
    as its override, before any mask is built. A graph6 text needs about
    n^2 / 12 bytes for n vertices, and is refused when shorter, so it runs
    under no cap."""
    if not isinstance(text, str):
        raise FormatError(f"graph text {text!r} is not a string")
    if fmt == "graph6":
        return _parse_graph6(text)
    if fmt == "edgelist":
        return _parse_edgelist(text, cap_override)
    raise FormatError(f"unknown graph format {fmt!r}")


def emit_graph(g: Graph, fmt: str) -> str:
    _check_graph(g)
    if fmt == "graph6":
        return _emit_graph6(g)
    if fmt == "edgelist":
        return _emit_edgelist(g)
    raise FormatError(f"unknown graph format {fmt!r}")


# -- generators -----------------------------------------------------------------


def _gen_path(k: int) -> Graph:
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def _gen_cycle(k: int) -> Graph:
    if k < 3:
        raise PreconditionError(f"cycle needs at least 3 vertices, got {k}")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def _gen_complete(k: int) -> Graph:
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def _gen_complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _gen_s_ttt(t: int) -> Graph:
    # center 0; leg j occupies ids 1 + j*t .. (j+1)*t, chained outward
    edges = []
    for j in range(3):
        base = 1 + j * t
        edges.append((0, base))
        edges.extend((base + i, base + i + 1) for i in range(t - 1))
    return Graph(3 * t + 1, edges)


def _gen_k_gamma_2(gamma: int) -> Graph:
    # complete graph on gamma vertices, every edge subdivided twice
    base = _gen_complete(gamma)
    return subdivide(base, {e: 2 for e in base.edges()})


def _gen_wall(t: int) -> Graph:
    """Elementary t-by-t wall.

    Coordinate rule: the grid fragment with rows 0..t and columns 0..2t+1,
    all its horizontal edges, and the vertical edge between (r, c) and
    (r+1, c) exactly when r + c is even, without its two corners of degree
    one. A vertex off the end columns has two horizontal edges, and one on
    an end column strictly between the top and bottom rows has one vertical
    edge, up or down by the parity of r + c. So degree one falls only on a
    corner that gets no vertical edge: (0, 2t+1), and (t, 0) for even t or
    (t, 2t+1) for odd t. Their neighbours (0, 2t) and (t, 1) or (t, 2t)
    keep a vertical edge, so no vertex reaches degree one once they go.
    Ids are dense in (row, column) order.
    """
    corners = {(0, 2 * t + 1), (t, 0 if t % 2 == 0 else 2 * t + 1)}
    ids = {v: i for i, v in enumerate(
        (r, c) for r in range(t + 1) for c in range(2 * t + 2) if (r, c) not in corners)}
    edges = []
    for (r, c), i in ids.items():
        if (r, c + 1) in ids:
            edges.append((i, ids[r, c + 1]))
        if (r + c) % 2 == 0 and (r + 1, c) in ids:
            edges.append((i, ids[r + 1, c]))
    return Graph(len(ids), edges)


def _gen_gnp(n: int, p: float, seed: int) -> Graph:
    if not (isinstance(p, Real) and type(p) is not bool and 0 <= p <= 1):
        raise PreconditionError(f"edge probability {p!r} outside [0,1]")
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


# kind -> (builder, the parameters it takes, in order); gnp also takes the seed,
# and every parameter but gnp's p is a positive integer
_KINDS = {"path": (_gen_path, "k"), "cycle": (_gen_cycle, "k"),
          "complete": (_gen_complete, "k"), "complete_bipartite": (_gen_complete_bipartite, "a b"),
          "s_ttt": (_gen_s_ttt, "t"), "k_gamma_2": (_gen_k_gamma_2, "gamma"),
          "wall": (_gen_wall, "t"), "gnp": (_gen_gnp, "n p")}


def generate(kind: str, seed: int | None = None, **params) -> Graph:
    """Named graph families; gnp is deterministic per seed."""
    if kind not in _KINDS:
        raise PreconditionError(f"unknown graph kind {kind!r}")
    if not (seed is None or _is_int(seed)):
        raise PreconditionError(f"seed={seed!r} is not None or an integer")
    build, names = _KINDS[kind]
    names = names.split()
    for key in params:
        if key not in names:
            raise PreconditionError(f"graph kind {kind!r} takes no parameter {key!r}")
        if key != "p" and not (_is_int(params[key]) and params[key] > 0):
            raise PreconditionError(f"parameter {key}={params[key]!r} must be a positive integer")
    try:
        args = [params[key] for key in names]
    except KeyError as e:
        raise PreconditionError(f"graph kind {kind!r} needs parameter {e.args[0]!r}") from None
    return build(*args, seed or 0) if kind == "gnp" else build(*args)


def line_graph(g: Graph) -> tuple[Graph, dict[Edge, int]]:
    """L(G) plus the edge-to-vertex mapping.

    Line-graph ids follow the lexicographic order of g's edges.
    """
    _check_graph(g)
    es = g.edges()
    inc = [0] * g.n  # inc[v]: the ids of the edges at v, as a mask
    for i, (u, v) in enumerate(es):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    out = Graph(len(es))
    out._masks = tuple((inc[u] | inc[v]) ^ 1 << i for i, (u, v) in enumerate(es))
    return out, {e: i for i, e in enumerate(es)}


def subdivide(g: Graph, counts: Mapping[Edge, int]) -> Graph:
    """Replace each edge by a path with counts[e] new internal vertices.

    Original vertex ids are preserved; new ids are appended per sorted edge.
    """
    _check_graph(g)
    if not isinstance(counts, Mapping):
        raise PreconditionError(f"counts {counts!r} is not a mapping from edges to counts")
    n, masks = g.n, list(g._masks)
    norm_counts = {}
    for e, c in counts.items():
        known = (type(e) is tuple and len(e) == 2 and _is_int(e[0]) and _is_int(e[1])
                 and 0 <= e[0] < n and 0 <= e[1] < n and masks[e[0]] >> e[1] & 1)
        if not known:
            raise PreconditionError(f"unknown edge key {e!r}")
        if not (_is_int(c) and c >= 0):
            raise PreconditionError(f"subdivision count {c!r} for {e} is not an integer >= 0")
        key = norm_edge(*e)
        if key in norm_counts:
            raise PreconditionError(f"edge {key} is keyed twice")
        norm_counts[key] = c
    for (u, v), c in sorted(norm_counts.items()):
        if c == 0:
            continue
        # the path u, nxt, ..., nxt + c - 1, v replaces the edge uv
        nxt = len(masks)
        chain = [u, *range(nxt, nxt + c), v]
        masks[u] ^= 1 << v | 1 << nxt
        masks[v] ^= 1 << u | 1 << nxt + c - 1
        masks.extend(1 << a | 1 << b for a, b in zip(chain, chain[2:]))
    out = Graph(len(masks))
    out._masks = tuple(masks)
    return out
