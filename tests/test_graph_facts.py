"""Facts kept on the graph object by graphs.kept: the canonical form, the
zero forcing result and gamma's facts (its certificate minor, evaluation
bound, minor summaries and field points) are computed once per graph, and
are never served across labelings.  The bound (the probe scan and the box
or field scan after it) is kept per scan prime, one entry shared by Z and
Q."""

from collections import Counter

import pytest

from corank import criticalideals, graphs, minrank, zeroforcing
from corank.cache import DecisionCache
from corank.config import RunConfig
from corank.criticalideals import gamma, gamma_row, ideal_trivial
from corank.enumeration import all_trees, enumerate_connected_graphs, enumerate_digraphs
from corank.formats import parse_graph6
from corank.generators import cycle, graph_a, octahedron, petersen
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
    assert g._facts and not h._facts
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
    # the box scan's F_2 point at lower + 1 = 3 rules out a floor there and
    # is gamma_Z's certificate at 3; the one 3-minor scan serves Q and F_3
    budget = RunConfig.gamma_box_budget
    assert set(g._facts) == {"canonical", "zero-forcing", "certificate",
                             ("bound", None, 2, budget), ("bound", 3, 2, budget),
                             ("field-point", 2, 3, RunConfig.modp_point_budget), ("minors", 3)}
    monkeypatch.undo()
    assert [gamma(fresh(g), dom).to_json() for dom in domains] == kept


@pytest.mark.parametrize("make", [octahedron, graph_a])
def test_a_second_field_gamma_makes_no_second_field_scan(make, monkeypatch):
    """The F_p bound, the field scan after the probe's gap included, is kept
    on the graph: a second gamma over F_3 scans no field points again."""
    scans = []
    scan = criticalideals.min_rank_scan

    def counted(g, blocks, domain, lower, upper, upper_point, budget=None):
        if budget is not None:
            scans.append(domain.p)
        return scan(g, blocks, domain, lower, upper, upper_point, budget)

    monkeypatch.setattr(criticalideals, "min_rank_scan", counted)
    g = make()
    first = gamma(g, GF(3)).to_json()
    assert 3 in scans
    scans.clear()
    assert gamma(g, GF(3)).to_json() == first
    assert scans == []


def bench_item(g, cache):
    """One gap-table bench item: the pass runs every item through one
    directory cache, which gamma asks for the box scan's entry under g's
    canonical form before the probe scan."""
    zero_forcing_number(g)
    gamma(g, ZZ, cache=cache)
    gamma(g, QQ, cache=cache)


def test_one_search_and_at_most_one_labeling_per_bench_item(runs_per_graph, tmp_path):
    items = [fresh(g) for g in enumerate_connected_graphs(6)]
    cache = DecisionCache(tmp_path)
    assert runs_per_graph(lambda g: bench_item(g, cache), items) == {(1, 1)}


def test_one_search_and_no_labeling_per_tree_suite(runs_per_graph):
    # without a cache gamma_Q reads gamma_Z's box scan from the tree's facts
    trees = [fresh(t) for n in range(1, 9) for t in all_trees(n)]
    assert runs_per_graph(tree_suite, trees) == {(0, 1)}


def cacheless_item(g):
    for domain in (ZZ, QQ, GF(3)):
        gamma(g, domain)
    gamma_row(g)
    for i in range(1, g.n + 1):
        for domain in (ZZ, QQ, GF(3)):
            ideal_trivial(g, i, domain)


def test_no_labeling_without_a_cache(runs_per_graph):
    graphs = [relabel(g, range(g.n)) for g in enumerate_connected_graphs(6)
              + enumerate_digraphs(4)]
    assert {labelings for labelings, _ in runs_per_graph(cacheless_item, graphs)} == {0}


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


@pytest.mark.parametrize("g6", ["ELrw", "ELv_"])
def test_a_second_z_decision_makes_no_second_field_scan(g6, monkeypatch):
    """Each prime's point search of the Z certificate is kept on the graph:
    a second decision at the same index scans no field again.  Both graphs
    close index 4 by a point mod 5, after F_2 and F_3 found none."""
    scans = Counter()
    scan = criticalideals.min_rank_scan

    def counted(g, blocks, domain, *rest):
        scans[domain.p] += 1
        return scan(g, blocks, domain, *rest)

    monkeypatch.setattr(criticalideals, "min_rank_scan", counted)
    g = parse_graph6(g6)
    first = ideal_trivial(g, 4, ZZ)
    assert first.method == "point-certificate" and first.detail[0] == 5
    before = Counter(scans)
    assert ideal_trivial(g, 4, ZZ) == first
    assert scans == before and before[5] == 1
