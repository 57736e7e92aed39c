"""Graph/digraph structure, canonical labeling, induced-pattern search."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from corank import graphs
from corank.criticalideals import gamma, generalized_laplacian
from corank.graphs import (Digraph, Graph, LabelingOverCap, canonical_form,
                           complement, contains_induced, induced_subgraph,
                           is_connected, is_tree, line_graph, relabel, rooted_tree,
                           twin_classes)
from corank.enumeration import all_trees, enumerate_digraphs, enumerate_graphs
from corank.generators import (NAMED_GRAPHS, bull, complete, cycle, matching_3k2, path,
                               petersen, star)
from corank.polyring import QQ
from corank.zeroforcing import zero_forcing_number
from oracles import canonical_form_by_tie_search


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    g = Graph(3, [(0, 1), (1, 0)])
    assert g.m == 1  # unordered pair identification


def test_digraph_validation():
    with pytest.raises(ValueError):
        Digraph(3, [(1, 1)])
    d = Digraph(2, [(0, 1), (1, 0)])
    assert d.m == 2  # anti-parallel arcs are distinct


def test_repr_rebuilds_by_keyword():
    for g in (Graph(3, [(1, 0), (1, 2)]), Digraph(2, [(1, 0)])):
        assert eval(repr(g)) == g
    assert Graph(2, edges=[(0, 1)]).m == Digraph(2, arcs=[(0, 1)]).m == 1


def test_complement_involution_and_octahedron():
    oct_ = complement(matching_3k2())
    assert oct_.m == 12
    expected = {(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 5),
                (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)}
    assert oct_.edges == frozenset(expected)
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 7)
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.5])
        assert complement(complement(g)) == g
    assert complement(complete(5)).m == 0


def test_line_graph():
    assert canonical_form(line_graph(path(4))) == canonical_form(path(3))
    assert canonical_form(line_graph(star(3))) == canonical_form(complete(3))
    for n in range(3, 9):
        assert canonical_form(line_graph(path(n))) == canonical_form(path(n - 1))
    # handshake identity on the bull's degree sequence 3,3,2,1,1
    assert line_graph(bull()).m == sum(d * (d - 1) // 2
                                       for d in bull().degrees())


def test_canonical_form_same_and_different():
    assert canonical_form(cycle(3)).key == canonical_form(complete(3)).key
    assert canonical_form(path(4)).key != canonical_form(star(3)).key


def test_canonical_form_bull_relabeling():
    b = bull()
    base = canonical_form(b)
    rng = random.Random(9)
    for _ in range(20):
        perm = list(range(5))
        rng.shuffle(perm)
        h = relabel(b, perm)
        assert canonical_form(h).key == base.key


def test_labeling_work_counts_each_segment_with_its_prefix(monkeypatch):
    # equal segments until the last, which falls in search order: every
    # leaf beats the one before, so no pruning fires and all 4! orders are
    # searched.  A node with k vertices placed evaluates each remaining one
    # at k + 1 units: 1*4*1 + 4*3*2 + 12*2*3 + 24*1*4 = 196
    orders = list(permutations(range(4)))

    def seg_of(v, placed):
        return -orders.index((*placed, v)) if len(placed) == 3 else 0

    def search():
        return graphs._canonical_order(4, seg_of, range(4))

    monkeypatch.setattr(graphs, "LABELING_WORK_CAP", 196)
    assert search() == ([0, 0, 0, -23], [3, 2, 1, 0])
    monkeypatch.setattr(graphs, "LABELING_WORK_CAP", 195)
    with pytest.raises(LabelingOverCap):
        search()


def cube(d):
    return Graph(1 << d, [(u, u | 1 << i) for u in range(1 << d) for i in range(d)
                          if not u >> i & 1])


@pytest.mark.parametrize("g, cap", [(star(40), 20_000), (cube(4), 200_000),
                                    (petersen(), 2_000)], ids=["K1,40", "Q4", "Petersen"])
def test_symmetric_graphs_label_under_a_low_cap(monkeypatch, g, cap):
    # the tie search tries all 40! orders of K_{1,40}'s leaves; twin and
    # orbit pruning bring each of these far under the real cap
    monkeypatch.setattr(graphs, "LABELING_WORK_CAP", cap)
    key = canonical_form(g).key
    rng = random.Random(43)
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)).key == key


def test_canonical_form_matches_the_tie_search_oracle():
    # twin and orbit pruning skip only repeats, so the key and the first
    # best order, hence perm, are those of the search over every tie
    rng = random.Random(41)
    for g in [*enumerate_graphs(7), *enumerate_digraphs(4),
              *(t for n in range(1, 10) for t in all_trees(n)),
              *(make() for make in NAMED_GRAPHS.values())]:
        for _ in range(2):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            cf = canonical_form(h)
            assert (cf.key, cf.perm) == canonical_form_by_tie_search(h), h


def test_canonical_perm_is_witness():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 7)
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.5])
        cf = canonical_form(g)
        h = relabel(g, cf.perm)
        assert canonical_form(h).key == cf.key
        # identity permutation on an already-canonical graph
        assert relabel(h, canonical_form(h).perm) == h


def test_canonical_form_permutation_invariance_random():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(2, 8)
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.5])
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)).key == canonical_form(g).key


def test_canonical_form_digraph_invariance():
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(2, 6)
        d = Digraph(n, [(u, v) for u in range(n) for v in range(n)
                        if u != v and rng.random() < 0.4])
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(relabel(d, perm)).key == canonical_form(d).key
    # orientation matters
    assert canonical_form(Digraph(2, [(0, 1)])).key == \
        canonical_form(Digraph(2, [(1, 0)])).key
    assert canonical_form(Digraph(3, [(0, 1), (1, 2)])).key != \
        canonical_form(Digraph(3, [(0, 1), (2, 1)])).key


def test_twin_classes_are_exactly_the_swaps_that_fix_the_pairs():
    """The canonical labeling's twin pruning and enumeration's twin filter
    both rest on this: swapping two members of a class maps the pair set
    onto itself, and every such swap is within one class, in the
    enumeration's labeling and in a seeded relabeling of it."""
    rng = random.Random(47)
    for g in enumerate_graphs(6) + enumerate_digraphs(4):
        perm = list(range(g.n))
        rng.shuffle(perm)
        for h in (g, relabel(g, perm)):
            twin = twin_classes(h)
            assert all(twin[twin[v]] == twin[v] <= v for v in range(h.n)), h
            for u in range(h.n):
                for w in range(u + 1, h.n):
                    swap = list(range(h.n))
                    swap[u], swap[w] = w, u
                    assert (relabel(h, swap) == h) == (twin[u] == twin[w]), (h, u, w)


def test_contains_induced_examples():
    assert contains_induced(complete(3), path(3)) is None
    hit = contains_induced(bull(), path(3))
    assert hit is not None
    p = path(3)
    for i in range(3):
        for j in range(i + 1, 3):
            assert bull().has_edge(hit[i], hit[j]) == p.has_edge(i, j)


def test_contains_induced_against_naive():
    rng = random.Random(31)
    for _ in range(120):
        n = rng.randint(2, 6)
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.5])
        k = rng.randint(1, min(4, n))
        h = Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)
                      if rng.random() < 0.5])
        assert (contains_induced(g, h) is not None) == _naive_induced(g, h)


def _naive_induced(g, h):
    for mapping in permutations(range(g.n), h.n):
        if all(g.has_edge(mapping[i], mapping[j]) == h.has_edge(i, j)
               for i in range(h.n) for j in range(i + 1, h.n)):
            return True
    return False


def test_connectivity_and_trees():
    assert is_connected(path(5))
    assert not is_connected(matching_3k2())
    assert is_tree(star(4))
    assert not is_tree(cycle(4))
    assert is_connected(Digraph(2, [(0, 1)]))  # weak connectivity
    assert not is_connected(Digraph(3, [(0, 1)]))


@pytest.mark.parametrize("g", [Digraph(2, [(0, 1)]), Digraph(3, [(2, 0), (2, 1)])])
def test_rooted_tree_refuses_a_digraph(g):
    # a weakly connected digraph with n - 1 arcs is still not a tree
    with pytest.raises(ValueError, match="input is not a tree"):
        rooted_tree(g)
    assert not is_tree(g)


def test_induced_subgraph_relabels_densely():
    g = bull()
    h = induced_subgraph(g, [0, 1, 2])
    assert canonical_form(h) == canonical_form(complete(3))
    d = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    h2 = induced_subgraph(d, [1, 2, 3])
    assert h2.arcs == frozenset({(0, 1), (1, 2)})


def symmetric_digraph(g):
    return Digraph(g.n, [arc for u, v in g.edges for arc in ((u, v), (v, u))])


@st.composite
def graphs_with_points(draw):
    """A graph on at most 6 vertices and an integer diagonal point."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [e for e, keep in zip(pairs, mask) if keep])
    return g, draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(graphs_with_points())
def test_a_graph_and_its_symmetric_digraph_agree(case):
    """A graph is the digraph with both arcs of each edge: every routine
    that reads the adjacency masks gives both the same answer."""
    g, point = case
    d = symmetric_digraph(g)
    assert g.adj == g.out_adj == g.in_adj == d.out_adj == d.in_adj
    assert zero_forcing_number(g).z == zero_forcing_number(d).z
    assert is_connected(g) == is_connected(d)
    assert (generalized_laplacian(g).evaluate(point)
            == generalized_laplacian(d).evaluate(point))
    assert gamma(g, QQ).value == gamma(d, QQ).value
    p3 = path(3)
    assert contains_induced(g, p3) == contains_induced(d, symmetric_digraph(p3))
    perm = list(reversed(range(g.n)))
    assert type(relabel(g, perm)) is Graph and type(relabel(d, perm)) is Digraph
    half = range(0, g.n, 2)
    assert type(induced_subgraph(g, half)) is Graph
    assert induced_subgraph(d, half) == symmetric_digraph(induced_subgraph(g, half))
