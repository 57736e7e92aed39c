"""Exhaustive isomorphism-free enumeration of small graphs, digraphs, trees.

Graphs (n <= 7) and digraphs (n <= 4) are generated by one-vertex
extension: every class on n - 1 vertices is joined to a new vertex by an
in-set s and an out-set t of old vertices (a graph's two are one), and the
first graph of each canonical key is kept, canonically relabeled (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998).  The
representative therefore depends on its class alone.  A join is built and
labeled only if it passes two filters:
- degrees: no old vertex has a strictly larger (out-degree, in-degree),
  compared as a tuple, than the new vertex;
- twins: along each twin class of the parent (graphs.twin_classes),
  members taken in label order, the join's (s, t) bits do not increase.
No class is lost:
- every class has a vertex of largest (out-degree, in-degree), and that
  pair is an isomorphism invariant;
- deleting that vertex gives a graph in some class on n - 1 vertices, and
  one join of that class's representative rebuilds the class with the new
  vertex in the deleted vertex's role, so that join passes the degree
  filter;
- a swap of two twins of the parent fixes every other vertex and keeps
  every degree, so it maps that join to one that also passes the degree
  filter, and extended by the new vertex it is an isomorphism between the
  two children.  The swaps within a class permute its members' (s, t) bits
  in every way, so each orbit of joins holds exactly one whose bits do not
  increase along every class, and it passes both filters;
- so the output is the same tuple of representatives in the same order.
Free trees (n <= 12, past the reach of canonical labeling) are grown by
leaf augmentation and deduplicated with a centroid-rooted AHU code.
"""

from functools import lru_cache

from .graphs import (Graph, Digraph, canonical_form, is_connected, rooted_tree,
                     twin_classes)


class EnumerationRangeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# graphs and digraphs by one-vertex extension

@lru_cache(maxsize=None)
def _classes(kind, n):
    """Canonical representatives of all graphs (kind Graph) or digraphs
    (kind Digraph) on exactly n vertices, sorted by canonical key.

    Each class on n - 1 vertices is joined to the new vertex n - 1 by every
    in-set s and out-set t of earlier vertices, as bitmasks (a graph's t is
    s); a join that fails the module docstring's twin or degree filter is
    skipped before any graph is built.  A join that passes, and the
    representative relabeled from it, are built unchecked (_trusted): their
    pairs come from a valid parent, in-range bitmasks and a permutation.
    """
    if n == 0:
        return (kind(0),)
    new = n - 1
    directed = kind is Digraph
    subsets = range(1 << new)
    seen = {}
    for parent in _classes(kind, new):
        base = parent.pairs
        degrees = list(zip((a.bit_count() for a in parent.out_adj),
                           (a.bit_count() for a in parent.in_adj)))
        # each twin with the member of its class before it
        steps, last = [], {}
        for w, c in enumerate(twin_classes(parent)):
            if c in last:
                steps.append((last[c], w))
            last[c] = w
        for s in subsets:
            for t in (subsets if directed else (s,)):
                if any((s >> u & 1, t >> u & 1) < (s >> w & 1, t >> w & 1)
                       for u, w in steps):
                    continue
                top = (t.bit_count(), s.bit_count())
                if any((out + (s >> v & 1), into + (t >> v & 1)) > top
                       for v, (out, into) in enumerate(degrees)):
                    continue
                join = [(v, new) for v in range(new) if s >> v & 1]
                if directed:
                    join += [(new, v) for v in range(new) if t >> v & 1]
                g = kind._trusted(n, base.union(join))
                cf = canonical_form(g)
                if cf.key not in seen:
                    p = cf.perm
                    seen[cf.key] = kind._trusted(n, frozenset(
                        (p[u], p[v]) if directed or p[u] < p[v] else (p[v], p[u])
                        for u, v in g.pairs))
    return tuple(seen[key] for key in sorted(seen))


def enumerate_graphs(max_n):
    """One representative per isomorphism class of graphs with 1 <= n <= max_n."""
    if max_n > 7:
        raise EnumerationRangeError(f"exhaustive graph tier stops at n=7, got {max_n}")
    return [g for n in range(1, max_n + 1) for g in _classes(Graph, n)]


def enumerate_connected_graphs(max_n):
    """Connected classes only, ordered by n then canonical encoding."""
    return [g for g in enumerate_graphs(max_n) if is_connected(g)]


def enumerate_digraphs(max_n):
    """One representative per isomorphism class of digraphs with 1 <= n <= max_n."""
    if max_n > 4:
        raise EnumerationRangeError(f"exhaustive digraph tier stops at n=4, got {max_n}")
    return [d for n in range(1, max_n + 1) for d in _classes(Digraph, n)]


# ---------------------------------------------------------------------------
# free trees

def _centroids(g: Graph):
    n = g.n
    _, order, children = rooted_tree(g)
    size = [1] * n
    for v in reversed(order):
        size[v] += sum(size[c] for c in children[v])
    return [v for v in range(n)
            if max([n - size[v]] + [size[c] for c in children[v]]) <= n // 2]


def _rooted_code(g: Graph, root, parent):
    children = [w for w in g.neighbors(root) if w != parent]
    return tuple(sorted(_rooted_code(g, w, root) for w in children))


def tree_code(g: Graph):
    """Centroid-rooted AHU code; equal codes iff isomorphic (trees only)."""
    cents = _centroids(g)
    if len(cents) == 1:
        return (g.n, 1, _rooted_code(g, cents[0], -1))
    a, b = cents
    pair = sorted([_rooted_code(g, a, b), _rooted_code(g, b, a)])
    return (g.n, 2, tuple(pair))


@lru_cache(maxsize=None)
def _trees_exactly(n):
    if n == 1:
        return (Graph(1),)
    out = {}
    for t in _trees_exactly(n - 1):
        for v in range(n - 1):
            g = Graph(n, list(t.edges) + [(v, n - 1)])
            code = tree_code(g)
            if code not in out:
                out[code] = g
    return tuple(g for _, g in sorted(out.items()))


def all_trees(n):
    """All free trees on exactly n vertices, isomorphism-free, n <= 12."""
    if not 1 <= n <= 12:
        raise EnumerationRangeError(f"tree enumeration supports 1 <= n <= 12, got {n}")
    return list(_trees_exactly(n))
