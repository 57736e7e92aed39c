"""The evaluation-rank scan kernel and the scan sites routed through it."""

from contextlib import contextmanager
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import corank
import corank.linalg as linalg
from corank.config import RunConfig
from corank.criticalideals import (box_blocks, box_points, field_blocks, field_points,
                                   gamma, generalized_laplacian,
                                   nontriviality_certificate, variety_box_search)
from corank.cache import DecisionCache
from corank.enumeration import all_trees, enumerate_connected_graphs
from corank.graphs import Digraph, Graph
from corank.linalg import exact_rank, integer_rank, rank_mod_p, rank_scan
from corank.minrank import mrcr_bounds, tree_suite
from corank.polyring import GF, QQ, ZZ


def _per_point_ranks(base_rows, points, p=None):
    """Lazily, (point, rank) by one full elimination per point."""
    for pt in points:
        rows = [[pt[u] if u == v else c for v, c in enumerate(row)]
                for u, row in enumerate(base_rows)]
        yield pt, exact_rank(rows).rank if p is None else rank_mod_p(rows, p)


def _reference_scan(ranked, lower, upper, upper_point, budget=None):
    """The min-rank scan loop over (point, rank) pairs, point by point."""
    scanned = 0
    for pt, rk in ranked:
        scanned += 1
        if budget is not None and scanned > budget:
            return upper, upper_point, False, budget
        if rk < upper:
            upper, upper_point = rk, pt
        if upper <= lower:
            break
    return upper, upper_point, True, scanned


def _block_points(blocks):
    """The blocks' points by definition: each block's lex product, keeping
    the points with a coordinate in its rim."""
    return (pt for axes, rim in blocks for pt in product(*axes)
            if rim is None or any(x in rim for x in pt))


def _reference_kernel(base_rows, blocks, p, lower, upper, upper_point, budget=None):
    """rank_scan as one full elimination per point."""
    return _reference_scan(_per_point_ranks(base_rows, _block_points(blocks), p),
                           lower, upper, upper_point, budget)


@st.composite
def graphs(draw, max_n=6):
    n = draw(st.integers(0, max_n))
    directed = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(n)
             if u != v and (directed or u < v)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, keep in zip(pairs, mask) if keep]
    return Digraph(n, edges) if directed else Graph(n, edges)


@st.composite
def scans(draw):
    """A random graph or digraph on 0..6 vertices, a point set given both as
    blocks and as the point iterator it stands for, a modulus, bounds and a
    budget.

    The point sets are a box (box_points), a whole field (field_points),
    explicit points as single-value blocks, and arbitrary blocks (random
    axes and rims).
    """
    g = draw(graphs())
    n = g.n
    radius = draw(st.integers(0, 2))
    p = draw(st.sampled_from([None, 2, 3, 5, 7]))
    kinds = ["box", "explicit", "blocks"] + (["field"] if p else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "box":
        blocks, points = box_blocks(n, radius), box_points(n, radius)
        size = (2 * radius + 1) ** n
    elif kind == "field":
        size = p ** n
        blocks, points = field_blocks(n, p), field_points(n, p, size)
    else:
        coord = st.integers(-radius - 1, radius + 1)
        if kind == "explicit":
            pts = draw(st.lists(st.tuples(*[coord] * n), max_size=6))
            blocks = [(tuple((x,) for x in pt), None) for pt in pts]
        else:
            axis = st.lists(coord, min_size=1, max_size=4, unique=True).map(tuple)
            rims = st.none() | st.frozensets(coord, max_size=3)
            blocks = draw(st.lists(st.tuples(st.tuples(*[axis] * n), rims), max_size=3))
        points = _block_points(blocks)
        size = sum(1 for _ in _block_points(blocks))
    # scans from no bound down to rank 0 are the common case at the sites
    lower = draw(st.just(0) | st.integers(0, n))
    upper = draw(st.sampled_from([n, n + 1]) | st.integers(0, n + 1))
    upper_point = draw(st.none() | st.just((7,) * n))
    # budgets may end the scan mid-shell or inside a skipped subtree; large
    # sets always get one, so that the reference stays cheap
    budget = draw(st.integers(0, min(size + 1, 400)) if size > 400
                  else st.none() | st.integers(0, size + 1))
    return g, blocks, points, p, lower, upper, upper_point, budget


@settings(max_examples=400, deadline=None)
@given(scans())
def test_rank_scan_matches_per_point_scan(case):
    g, blocks, points, p, lower, upper, upper_point, budget = case
    base = generalized_laplacian(g).evaluate((0,) * g.n)
    assert rank_scan(base, blocks, p, lower, upper, upper_point, budget) == \
        _reference_scan(_per_point_ranks(base, points, p), lower, upper, upper_point,
                        budget)


def test_rank_scan_every_budget():
    # every budget from 0 past the point count, so each one ends the scan at
    # a different point, inside skipped subtrees included, and the first
    # point of each rank bound.  In the last case
    # d_0 = d_1 = 0 leave both border sides of the last coordinate nonzero:
    # the first value lowers the bound and the others are only counted.
    cases = [(g, list(box_blocks(4, 2)), box_points(4, 2), 4)
             for g in (Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
                       Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 2), (3, 1)]), Graph(4),
                       Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]))]
    blocks = [(((0,), (0,), (0, 1, 2)), None)] * 2
    cases.append((Graph(3, [(0, 2)]), blocks, _block_points(blocks), 3))
    # upper 2 on K_4: a node with one pivot counts each child whose new
    # entry is nonzero from its own matrix, whole or (d_0 = +-1 in the
    # radius-2 shell) only its rim points, and budgets end inside those
    # children
    cases.append((Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
                  list(box_blocks(4, 2)), box_points(4, 2), 2))
    for g, blocks, points, upper in cases:
        base = generalized_laplacian(g).evaluate((0,) * g.n)
        points = list(points)
        for p in (None, 3):
            ranked = list(_per_point_ranks(base, points, p))
            lowest = min(rk for _, rk in ranked)
            for budget in range(len(ranked) + 2):
                for lower in (0, lowest):
                    assert rank_scan(base, blocks, p, lower, upper, None, budget) == \
                        _reference_scan(ranked, lower, upper, None, budget)
            # the first point of rank <= r, for every r
            for r in range(g.n):
                assert rank_scan(base, blocks, p, r, r + 1, None) == \
                    _reference_scan(ranked, r, r + 1, None)


@st.composite
def sparse_scans(draw):
    """Square integer rows with a zero diagonal, 1..6 of them, mostly zero
    and otherwise mostly +-1, the box of radius 1 and bounds: at these
    points pivots often repeat and many multipliers are 0, where the kernel
    leaves a row as it is."""
    n = draw(st.integers(1, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, -1, 2])
    rows = [[0 if u == v else draw(entry) for v in range(n)] for u in range(n)]
    lower = draw(st.just(0) | st.integers(0, n))
    upper = draw(st.sampled_from([n, n + 1]) | st.integers(0, n + 1))
    return rows, lower, upper


@settings(max_examples=200, deadline=None)
@given(sparse_scans())
def test_rank_scan_of_sparse_rows_matches_one_integer_rank_per_point(case):
    rows, lower, upper = case
    n = len(rows)
    ranked = ((pt, integer_rank([[pt[u] if u == v else c for v, c in enumerate(row)]
                                 for u, row in enumerate(rows)]))
              for pt in box_points(n, 1))
    assert rank_scan(rows, box_blocks(n, 1), None, lower, upper, None) == \
        _reference_scan(ranked, lower, upper, None)


def _count_eliminations(monkeypatch, run):
    calls = 0
    eliminate = linalg._eliminate

    def counted(*args):
        nonlocal calls
        calls += 1
        return eliminate(*args)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_eliminate", counted)
        run()
    return calls


def test_elimination_counts(monkeypatch):
    # deterministic work counters of the scans: children that their
    # parent's matrix decides are never copied or eliminated, and gamma_Q
    # reads gamma_Z's probe-point scan from the graph.  Fresh copies carry
    # no kept facts, so the counts do not depend on the tests before this
    # one.
    def gap_table():
        for g in enumerate_connected_graphs(6):
            g = Graph(g.n, g.edges)
            cache = DecisionCache()
            gamma(g, ZZ, cache=cache)
            gamma(g, QQ, cache=cache)

    def trees():
        for n in range(1, 8):
            for t in all_trees(n):
                tree_suite(Graph(t.n, t.edges))

    assert _count_eliminations(monkeypatch, gap_table) <= 13_098
    assert _count_eliminations(monkeypatch, trees) <= 341


def test_a_field_block_comes_before_the_whole_field_is_built():
    # the first shell of F_p^3 is the origin, whatever the size of p
    assert next(iter(field_blocks(3, 10**9 + 7))) == (((0,),) * 3, None)
    assert next(iter(box_blocks(3, 10**9))) == (((0,),) * 3, None)


def test_rank_scan_stops_at_the_first_point_reaching_lower():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    base = generalized_laplacian(c5).evaluate((0,) * 5)
    ranked = list(_per_point_ranks(base, box_points(5, 2)))
    lowest = min(rk for _, rk in ranked)
    first = next(i for i, (_, rk) in enumerate(ranked) if rk == lowest)
    result = rank_scan(base, box_blocks(5, 2), None, lowest, 5, None)
    assert result == (lowest, ranked[first][0], True, first + 1)
    assert result == _reference_scan(iter(ranked), lowest, 5, None)


# ---------------------------------------------------------------------------
# every scan site gives the same witness and count through the kernel as
# through one exact rank per point

# Small budgets, so that scans also stop on their budgets mid-shell.  The
# fixed budgets are set on RunConfig for the calls that read them.
SMALL = RunConfig(box_radius=1)
SMALL_BUDGETS = dict(primes=(2, 3), modp_point_budget=30, box_point_budget=60,
                     gamma_box_budget=40)
GAMMA_BUDGETS = dict(gamma_box_budget=40)


@contextmanager
def budgets(**values):
    with pytest.MonkeyPatch.context() as patch:
        for name, value in values.items():
            patch.setattr(RunConfig, name, value)
        yield


def _site_outputs(graphs):
    # gamma over Q adds no scan path to gamma over Z: the box scan inside
    # gamma is shared by both, and the Q point certificates are covered below
    out = []
    for g in graphs:
        for dom in (ZZ, GF(3)):
            with budgets(**GAMMA_BUDGETS):
                res = gamma(g, dom, RunConfig(), DecisionCache())
            out.append(res.to_json())
            with budgets(**SMALL_BUDGETS):
                out.append(mrcr_bounds(g, dom, res, SMALL))
        with budgets(**SMALL_BUDGETS):
            for r in range(g.n):
                for dom in (QQ, GF(5)):
                    out.append(variety_box_search(g, r, dom, SMALL))
            for i in range(1, g.n + 1):
                for dom in (QQ, ZZ):
                    out.append(nontriviality_certificate(g, i, dom, SMALL))
    return out


def _tree_outputs(trees):
    return [tree_suite(t).to_json() for t in trees]


def test_sites_unchanged_by_the_kernel(monkeypatch):
    # each pass runs on fresh copies: a graph keeps its probe-point scan, so
    # a second pass on the same objects would not run it under the kernel
    def fresh(graphs):
        return [Graph(g.n, g.edges) for g in graphs]

    graphs = enumerate_connected_graphs(6)
    trees = [t for n in range(1, 8) for t in all_trees(n)]
    fast = _site_outputs(fresh(graphs))
    fast_trees = _tree_outputs(fresh(trees))
    bound = [(module, name) for module in vars(corank).values()
             if getattr(module, "__name__", "").startswith("corank.")
             for name, value in vars(module).items() if value is linalg.rank_scan]
    assert ("corank.criticalideals", "rank_scan") in \
        [(module.__name__, name) for module, name in bound]
    for module, name in bound:
        monkeypatch.setattr(module, name, _reference_kernel)
    assert _site_outputs(fresh(graphs)) == fast
    assert _tree_outputs(fresh(trees)) == fast_trees
