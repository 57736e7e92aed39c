"""The construction catalog: the graph families and the named graphs and
digraphs of the paper, which the sweeps, the classifications and the
reference tables build from.  ``NAMED_GRAPHS`` keys the named graphs.

All vertex labels are 0-indexed; entries transcribed from 1-indexed drawings
shift every label down by one (the bull keeps its triangle on 0,1,2 and its
pendants on 3,4).
"""

from itertools import combinations

from .graphs import Graph, Digraph, complement


def path(n) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, list(combinations(range(n), 2)))


def star(k) -> Graph:
    """K_{1,k}: center 0, leaves 1..k."""
    if k < 0:
        raise ValueError("star needs k >= 0")
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def complete_multipartite(parts) -> Graph:
    parts = list(parts)
    if any(p < 1 for p in parts):
        raise ValueError("part sizes must be positive")
    bounds = []
    start = 0
    for p in parts:
        bounds.append(range(start, start + p))
        start += p
    edges = []
    for a, b in combinations(range(len(parts)), 2):
        edges.extend((u, v) for u in bounds[a] for v in bounds[b])
    return Graph(start, edges)


def bull() -> Graph:
    """Triangle 0-1-2 with pendants 3 (at 0) and 4 (at 1)."""
    return Graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)])


def matching_3k2() -> Graph:
    """Three disjoint edges on six vertices, paired as i -- i+3."""
    return Graph(6, [(0, 3), (1, 4), (2, 5)])


def octahedron() -> Graph:
    """Complement of the 3-edge matching; equals K_{2,2,2}."""
    return complement(matching_3k2())


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer 5-cycle
        edges.append((i, i + 5))                # spokes
        edges.append((i + 5, (i + 2) % 5 + 5))  # inner pentagram
    return Graph(10, edges)


# the three 6-vertex graphs whose first non-trivial minor ideal has no
# small integer zero; edge lists transcribed from their drawings
def graph_a() -> Graph:
    return Graph(6, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (1, 4),
                     (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)])


def graph_b() -> Graph:
    """The triangular prism: triangles 0-1-4 and 2-3-5 plus a matching."""
    return Graph(6, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (2, 3),
                     (2, 5), (3, 5), (4, 5)])


def graph_c() -> Graph:
    """The wheel on 6 vertices: hub 0, rim cycle 1-2-3-5-4."""
    return Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
                     (1, 2), (1, 4), (2, 3), (3, 5), (4, 5)])


def lambda_digraph(n1, n2, n3) -> Digraph:
    """Parts T (no arcs), K (all double arcs), T' (no arcs) with complete
    arc sets T->K, T->T' and K->T'.  Vertices: T = 0..n1-1, then K, then T'.
    """
    if min(n1, n2, n3) < 0 or n1 + n2 + n3 < 1:
        raise ValueError("part sizes must be non-negative and sum to >= 1")
    t = list(range(n1))
    k = list(range(n1, n1 + n2))
    tp = list(range(n1 + n2, n1 + n2 + n3))
    arcs = []
    arcs += [(u, v) for u in t for v in k]
    arcs += [(u, v) for u in t for v in tp]
    arcs += [(u, v) for u in k for v in tp]
    arcs += [(u, v) for u in k for v in k if u != v]
    return Digraph(n1 + n2 + n3, arcs)


# The seventeen minimal forbidden digraphs, in figure order.  Two of the
# drawings share the printed label "F3,6"; we keep both drawings and name
# them F3,6a and F3,6b rather than guess which was meant to be F3,7.
# Each entry also records the marked zero forcing set from its drawing.
_FORBIDDEN = [
    ("F3,1", 3, [(0, 2), (2, 1)], (0,)),
    ("F3,2", 3, [(0, 2), (1, 2), (2, 0)], (1,)),
    ("F3,3", 3, [(0, 2), (2, 0), (2, 1)], (0,)),
    ("F3,4", 3, [(0, 2), (1, 2), (2, 0), (2, 1)], (0,)),
    ("F3,5", 3, [(0, 1), (1, 2), (2, 0)], (0,)),
    ("F3,6a", 3, [(0, 1), (0, 2), (1, 0), (2, 1)], (1,)),
    ("F3,6b", 3, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0)], (2,)),
    ("F4,1", 4, [(0, 2), (0, 3), (1, 3)], (0, 1)),
    ("F4,2", 4, [(0, 2), (0, 3), (1, 3), (2, 3)], (0, 1)),
    ("F4,3", 4, [(0, 2), (3, 0), (3, 1), (3, 2)], (0, 3)),
    ("F4,4", 4, [(0, 2), (0, 3), (1, 3), (2, 0), (2, 3)], (0, 1)),
    ("F4,5", 4, [(0, 2), (2, 0), (3, 0), (3, 1), (3, 2)], (0, 3)),
    ("F4,6", 4, [(0, 2), (1, 2), (3, 0), (3, 1), (3, 2)], (0, 3)),
    ("F4,7", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], (0, 2)),
    ("F4,8", 4, [(0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (1, 3), (2, 3)], (0, 2)),
    ("F4,9", 4, [(0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (1, 3), (2, 3), (3, 2)],
     (0, 3)),
    ("F4,10", 4, [(0, 1), (1, 0), (2, 0), (2, 1), (2, 3), (3, 0), (3, 1)], (0, 2)),
]


def forbidden_family():
    """The seventeen forbidden digraphs, in figure order."""
    return [Digraph(n, arcs) for _, n, arcs, _ in _FORBIDDEN]


def forbidden_family_named():
    """(name, digraph, marked zero forcing set) triples, in figure order."""
    return [(name, Digraph(n, arcs), frozenset(zfs))
            for name, n, arcs, zfs in _FORBIDDEN]


def complete_digraph(n) -> Digraph:
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


NAMED_GRAPHS = {
    "bull": bull,
    "petersen": petersen,
    "octahedron": octahedron,
    "3K2-complement": octahedron,
    "graph-a": graph_a,
    "graph-b": graph_b,
    "graph-c": graph_c,
}
