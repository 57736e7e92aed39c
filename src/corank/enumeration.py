"""Exhaustive isomorphism-free enumeration of small graphs, digraphs, trees.

Graphs on up to 6 vertices come from a sweep over adjacency bitmasks keeping
only the lexicographically least mask of each orbit; 7-vertex classes are
built by one-vertex extensions of the 6-vertex classes, deduplicated by
canonical form.  Digraphs (n <= 4) use the same mask sweep.  Free trees are
grown by leaf augmentation and deduplicated with a centroid-rooted AHU code.
"""

from functools import lru_cache
from itertools import combinations, permutations

from .graphs import Graph, Digraph, canonical_form, is_connected, relabel


class EnumerationRangeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# orbit-minimal adjacency masks

def _orbit_min_reps(n, positions, perm_maps):
    """All masks over the given bit positions that are minimal in their orbit.

    perm_maps[r][k] = position that permutation r sends position k to; the
    mask is read as a bit string with position 0 most significant.
    """
    m = len(positions)
    reps = []
    for mask in range(1 << m):
        minimal = True
        for pmap in perm_maps:
            for k in range(m):
                pb = mask >> pmap[k] & 1
                mb = mask >> k & 1
                if pb != mb:
                    if pb < mb:
                        minimal = False
                    break
            else:
                continue
            if not minimal:
                break
        if minimal:
            reps.append(mask)
    return reps


@lru_cache(maxsize=None)
def _graphs_exactly(n):
    """Canonical representatives of all graphs on exactly n vertices."""
    if n == 0:
        return ()
    if n <= 6:
        pairs = list(combinations(range(n), 2))
        index = {p: k for k, p in enumerate(pairs)}
        perm_maps = []
        for r in permutations(range(n)):
            if r == tuple(range(n)):
                continue
            perm_maps.append([index[tuple(sorted((r[i], r[j])))] for i, j in pairs])
        graphs = []
        for mask in _orbit_min_reps(n, pairs, perm_maps):
            edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            graphs.append(Graph(n, edges))
    elif n == 7:
        graphs = (Graph(7, list(parent.edges) + [(v, 6) for v in range(6) if sub >> v & 1])
                  for parent in _graphs_exactly(6) for sub in range(64))
    else:
        raise EnumerationRangeError(f"exhaustive graph tier stops at n=7, got {n}")
    return _canonical_classes(graphs)


def _canonical_classes(graphs):
    """The first graph of each isomorphism class, canonically relabeled,
    sorted by canonical key; one canonical form per graph."""
    seen = {}
    for g in graphs:
        cf = canonical_form(g)
        if cf.key not in seen:
            seen[cf.key] = relabel(g, cf.perm)
    return tuple(seen[key] for key in sorted(seen))


def enumerate_graphs(max_n):
    """One representative per isomorphism class of graphs with 1 <= n <= max_n."""
    if max_n > 7:
        raise EnumerationRangeError(f"exhaustive graph tier stops at n=7, got {max_n}")
    out = []
    for n in range(1, max_n + 1):
        out.extend(_graphs_exactly(n))
    return out


def enumerate_connected_graphs(max_n):
    """Connected classes only, ordered by n then canonical encoding."""
    return [g for g in enumerate_graphs(max_n) if is_connected(g)]


@lru_cache(maxsize=None)
def _digraphs_exactly(n):
    if n == 0:
        return ()
    if n > 4:
        raise EnumerationRangeError(f"exhaustive digraph tier stops at n=4, got {n}")
    arcs_all = [(i, j) for i in range(n) for j in range(n) if i != j]
    index = {a: k for k, a in enumerate(arcs_all)}
    perm_maps = []
    for r in permutations(range(n)):
        if r == tuple(range(n)):
            continue
        perm_maps.append([index[(r[i], r[j])] for i, j in arcs_all])
    digraphs = []
    for mask in _orbit_min_reps(n, arcs_all, perm_maps):
        arcs = [arcs_all[k] for k in range(len(arcs_all)) if mask >> k & 1]
        digraphs.append(Digraph(n, arcs))
    return _canonical_classes(digraphs)


def enumerate_digraphs(max_n):
    """One representative per isomorphism class of digraphs with 1 <= n <= max_n."""
    if max_n > 4:
        raise EnumerationRangeError(f"exhaustive digraph tier stops at n=4, got {max_n}")
    out = []
    for n in range(1, max_n + 1):
        out.extend(_digraphs_exactly(n))
    return out


# ---------------------------------------------------------------------------
# free trees

def _subtree_sizes(adj, n):
    size = [1] * n
    order, parent = [], [-1] * n
    stack = [0]
    seen = [False] * n
    while stack:
        v = stack.pop()
        seen[v] = True
        order.append(v)
        for w in adj[v]:
            if not seen[w]:
                parent[w] = v
                stack.append(w)
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    return size, parent


def _centroids(g: Graph):
    n = g.n
    if n == 1:
        return [0]
    adj = [list(g.neighbors(v)) for v in range(n)]
    size, parent = _subtree_sizes(adj, n)
    cents = []
    for v in range(n):
        heaviest = n - size[v]
        for w in adj[v]:
            if w != parent[v] and parent[w] == v:
                heaviest = max(heaviest, size[w])
        if heaviest <= n // 2:
            cents.append(v)
    return cents


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
