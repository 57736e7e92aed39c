"""Minimum-rank parameters and the tree suite."""

import random
from collections import Counter

import pytest

import corank.graphs as graphs
import corank.minrank as minrank
from corank.cache import DecisionCache
from corank.config import RunConfig
from corank.criticalideals import gamma, generalized_laplacian
from corank.enumeration import all_trees
from corank.generators import (bull, complete, complete_multipartite, cycle,
                               octahedron, path, petersen, star)
from corank.graphs import Graph
from corank.linalg import exact_rank
from corank.minrank import (delta_oracle, delta_parameter, mr_small, mrcr_bounds,
                            nu2_oracle, path_cover_number, path_cover_oracle,
                            tree_suite, two_matching_number)
from corank.polyring import QQ, ZZ


def test_mr_small_values():
    assert mr_small(octahedron()).value == 2
    assert mr_small(complete(6)).value == 1
    assert mr_small(bull()).value == 3
    assert mr_small(cycle(5)).value == 3


def test_mr_small_bounds_only_beyond_seven():
    res = mr_small(petersen())
    assert not res.exact
    assert res.lower == 5 and res.upper == 5
    with pytest.raises(ValueError):
        res.value


def test_mr_small_decides_gamma_through_the_given_cache(tmp_path):
    g, cache = complete_multipartite([3, 3, 3]), DecisionCache(tmp_path)
    res = mr_small(g, cache=cache)
    assert list(tmp_path.glob("*.json"))  # the gamma over Q behind the upper bound
    assert res == mr_small(g) and (res.lower, res.upper) == (2, 3)


def test_mrcr_tree_box():
    cache = DecisionCache()
    for t in all_trees(6):
        b = mrcr_bounds(t, ZZ, gamma(t, ZZ, cache=cache), RunConfig(box_radius=1))
        assert b.lower == b.upper  # trees close inside the radius-1 box
        assert b.witness is not None
        assert all(x in (-1, 0, 1) for x in b.witness)


def test_mrcr_octahedron():
    cache = DecisionCache()
    bq = mrcr_bounds(octahedron(), QQ, gamma(octahedron(), QQ, cache=cache))
    assert (bq.lower, bq.upper) == (3, 3)
    assert bq.witness == (0,) * 6
    bz = mrcr_bounds(petersen(), ZZ, gamma(petersen(), ZZ, cache=cache),
                     RunConfig(box_radius=1))
    assert bz.upper == 5


def test_two_matching_examples():
    assert two_matching_number(path(4))[0] == 3
    assert two_matching_number(star(3))[0] == 2
    with pytest.raises(ValueError):  # trees only, like path_cover_number
        two_matching_number(cycle(5))
    # witness validity
    size, edges = two_matching_number(star(5))
    deg = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    assert all(c <= 2 for c in deg.values()) and len(edges) == size


def test_path_cover_examples():
    assert path_cover_number(path(6))[0] == 1
    assert path_cover_number(star(3))[0] == 2
    spider = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert path_cover_number(spider)[0] == 2
    count, cover = path_cover_number(star(4))
    seen = [v for p in cover for v in p]
    assert sorted(seen) == list(range(5)) and len(cover) == count
    with pytest.raises(ValueError):
        path_cover_number(cycle(4))


def test_delta_examples():
    assert delta_parameter(path(5))[0] == 1
    assert delta_parameter(star(3))[0] == 2
    assert delta_parameter(star(4))[0] == 3
    delta, deleted, paths = delta_parameter(star(4))
    assert deleted == [0] and paths == 4


@pytest.mark.parametrize("dp", [two_matching_number, path_cover_number, delta_parameter,
                                tree_suite])
def test_tree_dps_refuse_a_digraph(dp):
    with pytest.raises(ValueError, match="input is not a tree"):
        dp(graphs.Digraph(3, [(2, 0), (2, 1)]))


def test_tree_dps_match_oracles():
    # n = 10 is covered by the acceptance suite; keep this tier quick
    for n in range(1, 10):
        for t in all_trees(n):
            nu2, edges = two_matching_number(t)
            assert nu2 == nu2_oracle(t)
            delta, deleted, paths = delta_parameter(t)
            assert delta == delta_oracle(t)
            pc, cover = path_cover_number(t)
            assert pc == path_cover_oracle(t)
            assert nu2 == t.n - pc
            assert delta == pc


def test_tree_suite_small_examples():
    tp = tree_suite(path(5))
    assert (tp.mz, tp.P, tp.Delta, tp.nu2) == (4, 1, 1, 4)
    tp2 = tree_suite(star(3))
    assert (tp2.mz, tp2.P, tp2.Delta, tp2.nu2) == (2, 2, 2, 2)
    assert set(tp2.diagonal) <= {-1, 0}
    L = generalized_laplacian(star(3))
    assert exact_rank(L.evaluate(tp2.diagonal)).rank == tp2.mz
    with pytest.raises(ValueError):
        tree_suite(cycle(4))


def test_tree_suite_roots_each_tree_once(monkeypatch):
    # every adjacency-list build counts: graphs.rooted_tree's through the
    # graphs binding, _count_path_components' through minrank's
    calls = Counter()
    for module, name in ((graphs, "adjacency_lists"), (minrank, "adjacency_lists"),
                         (minrank, "rooted_tree"),
                         (minrank, "_nu2_tree"), (minrank, "_paths_of_matching"),
                         (minrank, "_delta_tree")):
        def counted(*args, _original=getattr(module, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    trees = list(all_trees(6))
    for t in trees:
        tree_suite(t)
    assert calls == {name: len(trees) for name in calls} and len(calls) == 5


def test_delta_on_large_path_value():
    # the scaling fit itself lives in the acceptance suite
    assert delta_parameter(path(100_000))[0] == 1
