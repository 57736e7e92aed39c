"""Simple graphs and digraphs with dense 0-indexed vertices.

A graph is the digraph with both arcs of each edge, so `Graph` and
`Digraph` share one base: the constructor checks, the frozen pair set, the
per-vertex out- and in-neighbour bitmasks (a graph's two are one tuple,
also named `adj`), equality, hashing and the kept facts.  The bitmasks drive
the search-heavy routines (closures, canonical labeling, induced-pattern
embedding), which read `out_adj`/`in_adj` whatever the kind.  Instances are
immutable after construction, so the facts that depend on the graph alone
are computed once and kept on it: the bitmasks, and the facts of `kept`'s
list.  The kind matters only where the mathematics differs: the canonical
segments, graph6 against digraph6, and the classifications.
"""

from itertools import combinations


def check_pair(n, u, v, noun):
    """ValueError if the pair (u, v) is a loop or leaves 0..n-1."""
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"{noun} ({u},{v}) out of range for n={n}")


class _PairGraph:
    """n vertices and a frozen set of ordered pairs, `pairs`; a subclass
    with _symmetric set stores each edge once as (min, max)."""

    __slots__ = ("n", "pairs", "_out_adj", "_in_adj", "_facts")
    _symmetric = False
    _noun = "arc"

    def __init__(self, n, pairs=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        ps = set()
        for u, v in pairs:
            check_pair(n, u, v, self._noun)
            ps.add((min(u, v), max(u, v)) if self._symmetric else (u, v))
        self.n = n
        self.pairs = frozenset(ps)
        self._out_adj = self._in_adj = None
        self._facts = {}    # filled by kept

    @classmethod
    def _trusted(cls, n, pairs):
        """The graph on a frozenset of pairs already in range, loop-free and,
        for a graph, each edge as (min, max): the constructor without its
        checks, for pairs made from a valid graph."""
        g = cls.__new__(cls)
        _PairGraph.__init__(g, n)
        g.pairs = pairs
        return g

    def _build(self):
        # bitmask rows cost O(n^2/64) to build; huge sparse graphs (the
        # linear-time tree paths) never touch them.  A symmetric pair set
        # writes both directions into one list.
        out_adj = [0] * self.n
        in_adj = out_adj if self._symmetric else [0] * self.n
        for u, v in self.pairs:
            out_adj[u] |= 1 << v
            in_adj[v] |= 1 << u
        self._out_adj = tuple(out_adj)
        self._in_adj = self._out_adj if self._symmetric else tuple(in_adj)

    @property
    def out_adj(self):
        if self._out_adj is None:
            self._build()
        return self._out_adj

    @property
    def in_adj(self):
        if self._in_adj is None:
            self._build()
        return self._in_adj

    @property
    def m(self):
        return len(self.pairs)

    def has_arc(self, u, v):
        return bool(self.out_adj[u] >> v & 1)

    def __eq__(self, other):
        return type(other) is type(self) and self.n == other.n and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.n, self.pairs))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, {self._noun}s={sorted(self.pairs)})"


class Graph(_PairGraph):
    __slots__ = ()
    _symmetric = True
    _noun = "edge"

    def __init__(self, n, edges=()):
        super().__init__(n, edges)

    edges = _PairGraph.pairs
    adj = _PairGraph.out_adj
    has_edge = _PairGraph.has_arc

    def degrees(self):
        return tuple(a.bit_count() for a in self.adj)

    def neighbors(self, v):
        return _bits(self.adj[v])


class Digraph(_PairGraph):
    __slots__ = ()
    arcs = _PairGraph.pairs

    def __init__(self, n, arcs=()):
        super().__init__(n, arcs)


def kept(g, key, make, *args):
    """g's fact under key: make(*args), made on the first call and kept on g.

    The one writer of a graph's facts.  Each is a function of the graph
    alone and of the budgets in its key, never of a cache or a caller:
    - "canonical": its CanonicalForm (canonical_form);
    - "zero-forcing": its ZeroForcingResult (zeroforcing.zero_forcing_number).
    gamma's, in criticalideals:
    - "certificate": the certificate minor of that result's force record;
    - ("bound", p, radius, budget): (upper, point, exhaustive, boxed) of
      gamma's evaluation bound over the scan prime p: the probe scan and,
      after a gap, the budgeted box or field scan (criticalideals._bound),
      never a cache's entry; p is None for Z and Q, which share it because
      ranks over Z are taken over Q;
    - ("minors", i): (unit minor, constant minors) of the i-minor scan, or
      None past the scan's cap;
    - ("field-point", p, i, budget): (upper, point, exhaustive, scanned) of
      the scan of F_p^n, within the point budget, whose point is the first
      where L(g, X) has rank <= i - 1, or None.
    Only small summaries are kept, never a symbolic matrix or its minor
    memo."""
    facts = g._facts
    if key not in facts:
        facts[key] = make(*args)
    return facts[key]


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# structural operations

def complement(g: Graph) -> Graph:
    missing = [(u, v) for u, v in combinations(range(g.n), 2) if not g.has_edge(u, v)]
    return Graph(g.n, missing)


def relabel(g, perm):
    """Apply perm (old label -> new label) to a graph or digraph."""
    return type(g)(g.n, [(perm[u], perm[v]) for u, v in g.pairs])


def induced_subgraph(g, vertices):
    """Induced sub(di)graph on the given vertices, relabeled 0..k-1 in order."""
    vs = list(vertices)
    pos = {v: i for i, v in enumerate(vs)}
    return type(g)(len(vs), [(pos[u], pos[v]) for u, v in g.pairs
                             if u in pos and v in pos])


def is_connected(g) -> bool:
    """Connectivity; for digraphs this is weak connectivity."""
    if g.n == 0:
        return True
    out_adj, in_adj = g.out_adj, g.in_adj
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= out_adj[v] | in_adj[v]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << g.n) - 1


def is_tree(g: Graph) -> bool:
    """A connected graph with n - 1 edges; never a digraph, which the tree
    routines (rooted_tree) refuse."""
    return isinstance(g, Graph) and g.n >= 1 and g.m == g.n - 1 and is_connected(g)


def adjacency_lists(g: Graph):
    # bitmask neighborhoods cost O(n) each on huge sparse graphs; plain
    # lists keep the tree DPs linear at n ~ 1e5
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def rooted_tree(g: Graph):
    """(adjacency lists, DFS order from vertex 0, child lists) of a tree;
    anything else, a digraph included, is a ValueError.  Iterative, so big
    trees need no recursion."""
    n = g.n
    if not isinstance(g, Graph) or n < 1 or g.m != n - 1:
        raise ValueError("input is not a tree (connected with n-1 edges)")
    adj = adjacency_lists(g)
    parent = [-2] * n
    children = [[] for _ in range(n)]
    order = []
    stack = [0]
    parent[0] = -1
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if parent[w] == -2:
                parent[w] = v
                stack.append(w)
    if len(order) != n:
        raise ValueError("input is not a tree (connected with n-1 edges)")
    for v in order[1:]:
        children[parent[v]].append(v)
    return adj, order, children


def line_graph(g: Graph) -> Graph:
    """One vertex per edge (in sorted edge order); adjacency = shared endpoint."""
    es = sorted(g.edges)
    out = []
    for i, j in combinations(range(len(es)), 2):
        if set(es[i]) & set(es[j]):
            out.append((i, j))
    return Graph(len(es), out)


# ---------------------------------------------------------------------------
# induced-pattern embedding

def contains_induced(g, pattern):
    """Injective vertex map realizing pattern as an induced sub(di)graph.

    Returns a tuple t with t[i] = host vertex for pattern vertex i, or None.
    Backtracking over host vertices with adjacency consistency checks at
    every extension; exhaustive, intended for small orders.
    """
    if pattern.n > g.n:
        return None
    if isinstance(g, Digraph) != isinstance(pattern, Digraph):
        raise TypeError("pattern and host must both be graphs or both digraphs")
    pn = pattern.n
    if pn == 0:
        return ()
    p_out, p_in = pattern.out_adj, pattern.in_adj
    g_out, g_in = g.out_adj, g.in_adj

    assign = [-1] * pn
    used = 0

    def extend(i):
        nonlocal used
        if i == pn:
            return True
        for h in range(g.n):
            if used >> h & 1:
                continue
            ok = True
            for j in range(i):
                hj = assign[j]
                if bool(p_out[i] >> j & 1) != bool(g_out[h] >> hj & 1):
                    ok = False
                    break
                if bool(p_in[i] >> j & 1) != bool(g_in[h] >> hj & 1):
                    ok = False
                    break
            if not ok:
                continue
            assign[i] = h
            used |= 1 << h
            if extend(i + 1):
                return True
            used &= ~(1 << h)
        assign[i] = -1
        return False

    if extend(0):
        return tuple(assign)
    return None


# ---------------------------------------------------------------------------
# canonical labeling
#
# The canonical encoding of a (di)graph is the lexicographically minimal
# sequence of per-vertex segments over all placement orders, where the
# segment of the vertex placed at position j is
#     graphs:   (degree, adjacency bits to positions 0..j-1)
#     digraphs: (outdeg, indeg, interleaved arc bits to positions 0..j-1)
# Including the degrees first makes degree-based candidate pruning exact.
# Exhaustive (hence a true isomorphism certificate) at any n.  Twin and
# orbit pruning make graphs with many automorphisms cheap: K_{1,40}, the
# 4-cube and the Petersen graph label in milliseconds.  Branches that tie
# and then lose are searched in full, so long paths and cycles grow fast:
# P_16 and C_16 take about 0.4 s, and P_20 and C_20 stop past
# LABELING_WORK_CAP with LabelingOverCap, never wrong.  The form is
# computed once per graph object and kept on it (kept).

# Work of one canonical labeling: each segment evaluation costs 1 plus the
# length of the placed prefix it reads; a pruned branch costs nothing.  The
# largest search over the benchmark workloads, `params` on the catalog and
# every sweep takes 16,718 units (a 10-vertex tree in `sweep thm-trees`),
# the largest over all trees with n <= 10 in four labelings each 18,298,
# and the largest in the tests is a relabeled 4-cube's 167,458.  The cap
# dates from searches without pruning, when the star K_{1,9} took
# 16,768,972; it stops P_20, C_20 or C_300 in about 5 s, not hours.
LABELING_WORK_CAP = 40_000_000


class LabelingOverCap(RuntimeError):
    """A canonical labeling stopped at LABELING_WORK_CAP."""


class CanonicalForm:
    __slots__ = ("key", "perm")

    def __init__(self, key, perm):
        self.key = key          # bytes; equal iff isomorphic
        self.perm = perm        # old label -> canonical label witness

    def __eq__(self, other):
        return isinstance(other, CanonicalForm) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def hex(self):
        return self.key.hex()

    def __repr__(self):
        return f"CanonicalForm({self.key.hex()})"


def _canonical_order(n, seg_of, twin):
    """Minimize the segment sequence over all placement orders.

    seg_of(v, placed) -> comparable segment key.
    twin[v] -> the least vertex of v's twin class; any two twins swap by an
    automorphism that fixes every other vertex.

    Returns the least sequence and the first order found that reaches it.
    A subtree that is the automorphic image of one already searched holds
    the same sequences and comes later, so with the strict < it can never
    replace the best order.  Three kinds of such subtree are skipped, at no
    cost in work units:
    - a candidate twin to an explored sibling;
    - a candidate in the orbit of an explored sibling, under the
      automorphisms found so far that fix the placed prefix pointwise.  A
      leaf with the best sequence gives the automorphism
      best_order[i] -> order[i];
    - the rest of the subtree in which such a leaf was found, below the
      node where its order parts from the best one: the automorphism maps
      the best order's subtree there onto it.
    """
    best = None
    best_order = None
    cur = []
    placed = []
    autos = []
    work = 0

    def repeats(v, tried):
        # v's twin class lies in the orbit of a tried one, under the
        # automorphisms found that fix the placed prefix
        fixing = [a for a in autos if all(a[p] == p for p in placed)]
        orbit = {twin[v]}
        stack = [v]
        while stack:
            x = stack.pop()
            for a in fixing:
                t = twin[a[x]]
                if t in tried:
                    return True
                if t not in orbit:
                    orbit.add(t)
                    stack.append(a[x])
        return False

    def dfs(remaining):
        # the level to resume at, below this one when the rest of its
        # subtree repeats one searched
        nonlocal best, best_order, work
        level = len(placed)
        if level == n:
            if best is None or cur < best:
                best = list(cur)
                best_order = list(placed)
                return level
            # equal to the best: keep the automorphism between the two
            # orders and back up to the node where they part
            aut = [0] * n
            for b, v in zip(best_order, placed):
                aut[b] = v
            autos.append(aut)
            k = 0
            while best_order[k] == placed[k]:
                k += 1
            return k
        work += len(remaining) * (level + 1)
        if work > LABELING_WORK_CAP:
            raise LabelingOverCap(f"canonical labeling over its cap of "
                                  f"{LABELING_WORK_CAP} work units")
        cands = sorted((seg_of(v, placed), v) for v in remaining)
        tried = set()  # twin classes of the candidates searched
        for key, v in cands:
            if best is not None and cur == best[:level] and key > best[level]:
                break  # candidates are sorted; nothing smaller follows
            if twin[v] in tried or tried and autos and repeats(v, tried):
                continue
            tried.add(twin[v])
            cur.append(key)
            placed.append(v)
            remaining.remove(v)
            back = dfs(remaining)
            remaining.add(v)
            placed.pop()
            cur.pop()
            if back < level:
                return back
        return level

    dfs(set(range(n)))
    return best, best_order


def twin_classes(g):
    """g's twin classes: for each vertex v, the least vertex of v's class.

    Twins have equal (out, in) rows, or rows that are equal once each sets
    its own bit, so swapping two members of a class is an automorphism that
    fixes every other vertex.  No vertex has twins of both kinds (a twin of
    each would be both adjacent and not adjacent to it), and no rows of one
    kind equal rows of the other (that needs an arc each way between two
    vertices that have none), so one dict finds both."""
    out_adj, in_adj = g.out_adj, g.in_adj
    first = {}
    twin = []
    for v in range(g.n):
        b = 1 << v
        twin.append(min(first.setdefault((out_adj[v], in_adj[v]), v),
                        first.setdefault((out_adj[v] | b, in_adj[v] | b), v)))
    return twin


def canonical_form(g) -> CanonicalForm:
    return kept(g, "canonical", _canonical_form, g)


def _canonical_form(g):
    directed = isinstance(g, Digraph)
    n = g.n
    if n == 0:
        return CanonicalForm(b"D0" if directed else b"G0", ())

    out_adj, in_adj = g.out_adj, g.in_adj
    if directed:
        outd = tuple(a.bit_count() for a in out_adj)
        ind = tuple(a.bit_count() for a in in_adj)

        def seg_of(v, placed):
            bits = 0
            for p in placed:
                bits = bits << 2 | (out_adj[p] >> v & 1) << 1 | (out_adj[v] >> p & 1)
            return (outd[v], ind[v], bits)
    else:
        deg = g.degrees()

        def seg_of(v, placed):
            bits = 0
            for p in placed:
                bits = bits << 1 | (out_adj[v] >> p & 1)
            return (deg[v], bits)

    segments, order = _canonical_order(n, seg_of, twin_classes(g))
    perm = [0] * n
    for new, old in enumerate(order):
        perm[old] = new
    return CanonicalForm(_pack_key(n, segments, directed), tuple(perm))


def _pack_key(n, segments, directed):
    parts = [b"D" if directed else b"G", n.to_bytes(2, "big")]
    for seg in segments:
        *degs, bits = seg
        for d in degs:
            parts.append(d.to_bytes(2, "big"))
        width = max(1, (bits.bit_length() + 7) // 8)
        parts.append(width.to_bytes(1, "big"))
        parts.append(bits.to_bytes(width, "big"))
    return b"".join(parts)
