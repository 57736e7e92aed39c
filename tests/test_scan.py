"""The evaluation-rank scan kernel and the scan sites routed through it."""

from itertools import product

from hypothesis import given, settings, strategies as st

import corank.criticalideals as ci
from corank.config import RunConfig
from corank.criticalideals import (gamma, generalized_laplacian,
                                   nontriviality_certificate, variety_box_search)
from corank.cache import DecisionCache
from corank.enumeration import all_trees, enumerate_connected_graphs
from corank.graphs import Digraph, Graph
from corank.linalg import exact_rank, rank_mod_p, scan_ranks
from corank.minrank import mrcr_bounds, tree_suite
from corank.polyring import GF, QQ, ZZ


def _per_point_ranks(base_rows, points, p=None):
    """The scan as one full elimination per point: the reference route."""
    for pt in points:
        rows = [[pt[u] if u == v else c for v, c in enumerate(row)]
                for u, row in enumerate(base_rows)]
        yield pt, exact_rank(rows).rank if p is None else rank_mod_p(rows, p)


@st.composite
def scans(draw):
    """A random graph or digraph on 0..6 vertices, points and a modulus.

    The points come in runs that share all but the last coordinate, with
    the runs' prefixes in random order (repeats allowed).
    """
    n = draw(st.integers(0, 6))
    directed = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(n)
             if u != v and (directed or u < v)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, keep in zip(pairs, mask) if keep]
    g = Digraph(n, edges) if directed else Graph(n, edges)
    radius = draw(st.integers(0, 2))
    p = draw(st.sampled_from([None, 2, 3, 5, 7]))
    coord = st.integers(-radius, radius)
    if n == 0:
        points = [()]
    else:
        heads = draw(st.lists(st.tuples(*[coord] * (n - 1)), min_size=1, max_size=12))
        points = [h + (t,) for h in heads for t in range(-radius, radius + 1)]
    return g, points, p


@settings(max_examples=300, deadline=None)
@given(scans())
def test_scan_ranks_matches_per_point_rank(case):
    g, points, p = case
    base = generalized_laplacian(g).evaluate((0,) * g.n)
    assert list(scan_ranks(base, iter(points), p)) == \
        list(_per_point_ranks(base, points, p))


def test_scan_ranks_whole_boxes():
    # every point of the radius-2 box, lex order, on a few fixed graphs
    for g in (Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
              Digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)]), Graph(5)):
        base = generalized_laplacian(g).evaluate((0,) * g.n)
        points = list(product(range(-2, 3), repeat=g.n))
        for p in (None, 3):
            assert list(scan_ranks(base, points, p)) == \
                list(_per_point_ranks(base, points, p))


def test_scan_ranks_is_lazy():
    def points():
        yield (0, 0)
        yield (0, 1)
        raise AssertionError("read past the point the caller stopped at")

    scan = scan_ranks([[0, -1], [-1, 0]], points())
    assert next(scan) == ((0, 0), 2)
    assert next(scan) == ((0, 1), 2)


# ---------------------------------------------------------------------------
# every scan site gives the same witness and count through the kernel as
# through one exact rank per point

# Small budgets, so that scans also stop on their budgets mid-shell.
SMALL = RunConfig(box_radius=1, primes=(2, 3), modp_point_budget=30,
                  box_point_budget=60, gamma_box_budget=40)
GAMMA_CONFIG = RunConfig(gamma_box_budget=40)


def _site_outputs(graphs):
    # gamma over Q adds no scan path to gamma over Z: the box scan inside
    # gamma is shared by both, and the Q point certificates are covered below
    out = []
    for g in graphs:
        for dom in (ZZ, GF(3)):
            res = gamma(g, dom, GAMMA_CONFIG, DecisionCache())
            out.append(res.to_json())
            out.append(mrcr_bounds(g, dom, 1, SMALL, gamma_result=res))
        for r in range(g.n):
            for dom in (QQ, GF(5)):
                out.append(variety_box_search(g, r, 1, dom, SMALL))
        for i in range(1, g.n + 1):
            for dom in (QQ, ZZ, GF(5)):
                out.append(nontriviality_certificate(g, i, dom, SMALL))
    return out


def _tree_outputs(trees):
    return [tree_suite(t).to_json() for t in trees]


def test_sites_unchanged_by_the_kernel(monkeypatch):
    graphs = enumerate_connected_graphs(6)
    trees = [t for n in range(1, 8) for t in all_trees(n)]
    fast = _site_outputs(graphs)
    fast_trees = _tree_outputs(trees)
    monkeypatch.setattr(ci, "scan_ranks", _per_point_ranks)
    assert _site_outputs(graphs) == fast
    assert _tree_outputs(trees) == fast_trees
