"""Facts kept on the graph object: the canonical form, the zero forcing
result and gamma's certificate minor and probe-point bound are computed
once per graph, and are never served across labelings.  The probe bound is
kept per scan prime, one entry shared by Z and Q."""

from collections import Counter

import pytest

from corank import criticalideals, graphs, minrank, zeroforcing
from corank.cache import DecisionCache
from corank.criticalideals import gamma
from corank.enumeration import all_trees, enumerate_connected_graphs
from corank.generators import cycle, octahedron, petersen
from corank.graphs import Graph, canonical_form, relabel
from corank.minrank import tree_suite
from corank.polyring import GF, QQ, ZZ
from corank.report import build_parameter_report
from corank.zeroforcing import zero_forcing_number


def fresh(g):
    """A copy that carries no kept facts (enumeration shares its objects)."""
    return Graph(g.n, g.edges)


@pytest.fixture
def runs_per_graph(monkeypatch):
    """runs_per_graph(item, graphs): the set of (canonical labelings, exact
    zero forcing searches) that item(g) runs, over the graphs."""
    counts = {"labelings": 0, "searches": 0}

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(graphs, "_canonical_order",
                        counting("labelings", graphs._canonical_order))
    monkeypatch.setattr(zeroforcing, "_exact_search",
                        counting("searches", zeroforcing._exact_search))

    def measure(item, gs):
        seen = set()
        for g in gs:
            before = dict(counts)
            item(g)
            seen.add((counts["labelings"] - before["labelings"],
                      counts["searches"] - before["searches"]))
        return seen
    return measure


def test_the_greedy_bound_is_kept_like_the_exact_one(monkeypatch):
    g = cycle(40)  # past the exact tier
    first = zero_forcing_number(g)
    assert not first.exact
    real, closures = zeroforcing.closure, []
    monkeypatch.setattr(zeroforcing, "closure",
                        lambda *args: closures.append(args) or real(*args))
    assert zero_forcing_number(g) is first and closures == []
    monkeypatch.undo()
    again = zero_forcing_number(fresh(g))
    assert again == first and not again.exact


def test_relabeled_copy_gets_its_own_canonical_form():
    g = petersen()
    cg = canonical_form(g)
    h = relabel(g, [(v + 3) % g.n for v in range(g.n)])
    ch = canonical_form(h)
    assert ch.key == cg.key and ch.perm == canonical_form(fresh(h)).perm
    assert relabel(h, ch.perm) == relabel(g, cg.perm)


def test_kept_facts_stay_out_of_equality_and_repr():
    g, h = octahedron(), octahedron()
    canonical_form(g)
    zero_forcing_number(g)
    gamma(g, ZZ)
    assert g._sandwich is not None and h._sandwich is None
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h)


def test_the_sandwich_prefix_is_kept_once_per_graph_and_scan_prime(monkeypatch):
    runs = Counter()
    certificate, scan = criticalideals.certificate_minor, criticalideals.min_rank_scan

    def counted_certificate(*args):
        runs["certificate"] += 1
        return certificate(*args)

    def counted_scan(g, blocks, domain, lower, upper, upper_point, budget=None):
        if budget is None:  # the probe scan is gamma's only scan without a point budget
            runs["probe", domain.p] += 1
        return scan(g, blocks, domain, lower, upper, upper_point, budget)

    monkeypatch.setattr(criticalideals, "certificate_minor", counted_certificate)
    monkeypatch.setattr(criticalideals, "min_rank_scan", counted_scan)
    g, domains = octahedron(), (ZZ, QQ, GF(3), GF(3))
    cache = DecisionCache()
    kept = [gamma(g, dom, cache=cache).to_json() for dom in domains]
    assert runs == {"certificate": 1, ("probe", None): 1, ("probe", 3): 1}
    # only the certificate and the probe bounds: no box scan, no decision
    assert set(g._sandwich[1]) == {None, 3}
    monkeypatch.undo()
    assert [gamma(fresh(g), dom).to_json() for dom in domains] == kept


def bench_item(g):
    """One gap-table bench item.  gamma needs no cache key, hence no
    canonical form, when the probe points close the sandwich."""
    cache = DecisionCache()
    zero_forcing_number(g)
    gamma(g, ZZ, cache=cache)
    gamma(g, QQ, cache=cache)


def test_one_search_and_at_most_one_labeling_per_bench_item(runs_per_graph):
    items = [fresh(g) for g in enumerate_connected_graphs(6)]
    assert runs_per_graph(bench_item, items) == {(0, 1), (1, 1)}


def test_one_search_and_at_most_one_labeling_per_tree_suite(runs_per_graph):
    trees = [fresh(t) for n in range(1, 9) for t in all_trees(n)]
    assert runs_per_graph(tree_suite, trees) == {(0, 1), (1, 1)}


@pytest.mark.parametrize("make", [petersen, octahedron])
def test_one_search_and_labeling_per_parameter_report(runs_per_graph, make):
    assert runs_per_graph(build_parameter_report, [make()]) == {(1, 1)}


def test_a_parameter_report_scans_each_box_once(monkeypatch):
    # past n = 7 the mr interval reads its upper end from the report's
    # mrcr bounds over Q instead of scanning the same box again
    domains = []
    scan = minrank.min_rank_scan
    monkeypatch.setattr(minrank, "min_rank_scan",
                        lambda g, blocks, domain, *rest: domains.append(domain.name)
                        or scan(g, blocks, domain, *rest))
    report = build_parameter_report(petersen())
    assert sorted(domains) == ["Q=R", "Z"]
    assert report["mr"]["upper"] == report["mrcr"]["Q=R"]["upper"]
