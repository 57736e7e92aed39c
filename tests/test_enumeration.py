"""Counts and determinism of the exhaustive enumerations."""

from functools import lru_cache
from hashlib import sha256
from itertools import combinations, permutations

import pytest

from corank import enumeration, graphs
from corank.enumeration import (EnumerationRangeError, all_trees,
                                enumerate_connected_graphs, enumerate_digraphs,
                                enumerate_graphs, tree_code)
from corank.formats import write_digraph6, write_graph6
from corank.graphs import Digraph, Graph, canonical_form, is_connected, is_tree

from oracles import classes_by_every_join

KNOWN_CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
KNOWN_TREES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47,
               10: 106, 11: 235, 12: 551}


def test_connected_graph_counts():
    graphs = enumerate_connected_graphs(6)
    assert len(graphs) == 143
    by_n = {}
    for g in graphs:
        by_n[g.n] = by_n.get(g.n, 0) + 1
        assert is_connected(g)
    assert by_n == KNOWN_CONNECTED


def test_small_count_oracle_brute_force():
    # n = 4: dedup all 2^6 masks by exhaustive permutation orbits
    pairs = list(combinations(range(4), 2))
    classes = set()
    for mask in range(64):
        edges = frozenset(pairs[k] for k in range(6) if mask >> k & 1)
        orbit = []
        for perm in permutations(range(4)):
            orbit.append(frozenset(tuple(sorted((perm[u], perm[v])))
                                   for u, v in edges))
        classes.add(min(tuple(sorted(o)) for o in orbit))
    connected_classes = [c for c in classes if is_connected(Graph(4, list(c)))]
    assert len(connected_classes) == 6
    assert len([g for g in enumerate_connected_graphs(4) if g.n == 4]) == 6
    assert len(enumerate_connected_graphs(4)) == 10
    assert len(enumerate_connected_graphs(1)) == 1


def test_enumeration_is_isomorphism_free_and_ordered():
    graphs = enumerate_connected_graphs(6)
    keys = [canonical_form(g).key for g in graphs]
    assert len(set(keys)) == len(keys)
    by_n_keys = [(g.n, k) for g, k in zip(graphs, keys)]
    assert by_n_keys == sorted(by_n_keys)


def test_seven_vertex_tier():
    graphs = enumerate_graphs(7)
    assert len([g for g in graphs if g.n == 7]) == 1044
    connected = enumerate_connected_graphs(7)
    assert len([g for g in connected if g.n == 7]) == 853
    with pytest.raises(EnumerationRangeError):
        enumerate_connected_graphs(8)


def test_enumerations_are_pinned_byte_for_byte():
    # a change of representative, order or count changes these digests
    graphs = "\n".join(write_graph6(g) for g in enumerate_graphs(7))
    digraphs = "\n".join(write_digraph6(d) for d in enumerate_digraphs(4))
    assert sha256(graphs.encode()).hexdigest() == \
        "70d37c49b9414fe3c70e57b039fd2efd3fbdf3e7aa1f53417ec2911b38354b07"
    assert sha256(digraphs.encode()).hexdigest() == \
        "a664af09356161ef31106b4c202e22c894889a63634273381d7e5487f63aa539"


@pytest.mark.parametrize("kind, max_n", [(Graph, 6), (Digraph, 4)])
def test_the_degree_filter_keeps_every_class_and_representative(kind, max_n):
    for n in range(max_n + 1):
        got = enumeration._classes(kind, n)
        want = classes_by_every_join(kind, n)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a == b, (n, a, b)


# canonical labelings per tier: only joins whose new vertex has the largest
# (out-degree, in-degree) are labeled (every join: 1, 2, 8, 32, 176, 1088 and
# 9984 graphs, 1, 4, 48, 1024 digraphs)
LABELINGS = {Graph: [0, 1, 2, 5, 16, 70, 348, 2690], Digraph: [0, 1, 3, 21, 321]}


@pytest.mark.parametrize("kind", LABELINGS)
def test_the_extension_labels_only_the_filtered_joins(kind, monkeypatch):
    # a fresh cache for this test; undo restores the shared one
    monkeypatch.setattr(enumeration, "_classes",
                        lru_cache(maxsize=None)(enumeration._classes.__wrapped__))
    calls = []
    real = graphs._canonical_order
    monkeypatch.setattr(graphs, "_canonical_order",
                        lambda *args: calls.append(1) or real(*args))
    labelings = []
    for n in range(len(LABELINGS[kind])):
        before = len(calls)
        enumeration._classes(kind, n)
        labelings.append(len(calls) - before)
    assert labelings == LABELINGS[kind]


def test_digraph_counts():
    assert len(enumerate_digraphs(1)) == 1
    assert len(enumerate_digraphs(2)) == 4
    by_n = {}
    for d in enumerate_digraphs(4):
        by_n[d.n] = by_n.get(d.n, 0) + 1
    assert by_n == {1: 1, 2: 3, 3: 16, 4: 218}
    with pytest.raises(EnumerationRangeError):
        enumerate_digraphs(5)


def test_digraph_count_matches_orbit_brute_force():
    # 64 labeled digraphs on 3 vertices modulo S_3
    arcs_all = [(i, j) for i in range(3) for j in range(3) if i != j]
    classes = set()
    for mask in range(64):
        arcs = frozenset(arcs_all[k] for k in range(6) if mask >> k & 1)
        orbit = min(tuple(sorted((p[u], p[v]) for u, v in arcs))
                    for p in permutations(range(3)))
        classes.add(orbit)
    assert len(classes) == 16


def test_tree_counts_and_validity():
    for n, expect in KNOWN_TREES.items():
        trees = all_trees(n)
        assert len(trees) == expect
        codes = {tree_code(t) for t in trees}
        assert len(codes) == expect
        assert all(is_tree(t) for t in trees)
    with pytest.raises(EnumerationRangeError):
        all_trees(13)


def test_tree_code_is_isomorphism_invariant():
    import random
    from corank.graphs import relabel
    rng = random.Random(41)
    for t in all_trees(8):
        perm = list(range(8))
        rng.shuffle(perm)
        assert tree_code(relabel(t, perm)) == tree_code(t)
