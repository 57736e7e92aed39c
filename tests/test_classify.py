"""Rank-one classifications for graphs and digraphs."""

import random

import pytest

from corank.cache import DecisionCache
from corank.classify import (classify_digraph1, classify_rank1_graph, is_lambda,
                             is_lambda_up_to_isolated, lambda_pattern_matrix,
                             rank1_arc_decomposition)
from corank.generators import (bull, complete, complete_digraph, cycle,
                               forbidden_family_named, lambda_digraph, octahedron,
                               path, star)
from corank.graphs import Digraph, relabel
from corank.linalg import exact_rank
from oracles import check_mr2_corollary


def test_rank1_graph_complete():
    rep = classify_rank1_graph(complete(5))
    assert rep.agreement and all(rep.conditions.values())


def test_rank1_graph_path3_all_false():
    rep = classify_rank1_graph(path(3))
    assert rep.agreement and not any(rep.conditions.values())


def test_rank1_graph_bull_all_false():
    rep = classify_rank1_graph(bull())
    assert rep.agreement and not any(rep.conditions.values())
    assert "induced_p3" in rep.witnesses


def test_rank1_graph_requires_connected():
    from corank.generators import matching_3k2
    with pytest.raises(ValueError):
        classify_rank1_graph(matching_3k2())


def test_mr2_corollary():
    assert check_mr2_corollary(octahedron()).holds is True
    r = check_mr2_corollary(complete(4))
    assert r.applicable and r.holds and r.mr == 1
    r5 = check_mr2_corollary(cycle(5))
    assert not r5.applicable and r5.holds is None and r5.mr == 3


def test_is_lambda_recognition():
    assert is_lambda(lambda_digraph(2, 1, 2)) == (2, 1, 2)
    assert is_lambda(lambda_digraph(1, 2, 1)) == (1, 2, 1)
    assert is_lambda(Digraph(1)) == (0, 0, 1)
    assert is_lambda(Digraph(3)) == (0, 0, 3)
    # the complete digraph is the pure-K shape
    assert is_lambda(complete_digraph(3)) == (0, 3, 0)
    # family members are never lambdas
    for name, d, _ in forbidden_family_named():
        assert is_lambda(d) is None, name
    # degenerate one-arc digraph prefers the lexicographically least witness
    assert is_lambda(Digraph(2, [(0, 1)])) == (0, 1, 1)


def test_is_lambda_invariant_under_relabeling():
    rng = random.Random(47)
    lam = lambda_digraph(2, 2, 1)
    for _ in range(10):
        perm = list(range(5))
        rng.shuffle(perm)
        assert is_lambda(relabel(lam, perm)) == (2, 2, 1)


def test_lambda_with_isolated_vertices():
    d = Digraph(3, [(0, 1)])  # one arc plus an isolated vertex
    assert is_lambda(d) is None
    assert is_lambda_up_to_isolated(d) == (0, 1, 1, 1)
    assert rank1_arc_decomposition(d) is not None


def test_lambda_pattern_matrix():
    rng = random.Random(53)
    samples = 0
    while samples < 50:
        parts = [rng.randint(0, 4) for _ in range(3)]
        if not 1 <= sum(parts) <= 8:
            continue
        samples += 1
        lam = lambda_digraph(*parts)
        m = lambda_pattern_matrix(lam)
        assert m is not None
        assert exact_rank(m).rank <= 1
        for i in range(lam.n):
            for j in range(lam.n):
                if i != j:
                    assert (m[i][j] != 0) == lam.has_arc(i, j)


def test_classify_digraph1_examples():
    rep = classify_digraph1(lambda_digraph(1, 2, 1))
    assert rep.agreement and all(rep.conditions.values())
    f31 = Digraph(3, [(0, 2), (2, 1)])
    rep2 = classify_digraph1(f31)
    assert rep2.agreement and not any(rep2.conditions.values())
    assert rep2.witnesses["mz"] == 2
    rep3 = classify_digraph1(complete_digraph(3))
    assert rep3.agreement and all(rep3.conditions.values())


def test_lambda_contains_no_forbidden_pattern():
    from corank.graphs import contains_induced
    lam = lambda_digraph(2, 1, 2)
    f31 = Digraph(3, [(0, 2), (2, 1)])
    assert contains_induced(lam, f31) is None
    for name, pattern, _ in forbidden_family_named():
        if pattern.n <= lam.n:
            assert contains_induced(lam, pattern) is None, name


def test_classify_digraph1_disconnected_disagreement_is_reported():
    # two disjoint arcs: family-free yet mz = 2; the report must not hide it
    d = Digraph(4, [(2, 1), (3, 0)])
    rep = classify_digraph1(d)
    assert not rep.agreement
    assert rep.conditions["family_free"] is True
    assert rep.conditions["mz_le_1"] is False
    assert rep.conditions["lambda_shape"] is False
