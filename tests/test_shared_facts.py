"""gamma's facts of the graph alone change no answer.

A graph keeps, whatever the domain, its i-minor scan summaries, its first
F_2 point of rank <= i - 1 and, per scan prime, its evaluation bound.  The
box scan stops at a +-1-minor floor, Z tries the F_2 point before the
minor scan, Q skips a box point search an uncut box scan rules out, and Z,
Q and F_p share one minor scan per index.  Each is held here against the
plain route: the whole box scan, and the decision in scan order
(``oracles.decision_in_scan_order``) on a fresh copy.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest

from corank import criticalideals
from corank.cache import DecisionCache
from corank.config import DEFAULT_CONFIG, RunConfig
from corank.criticalideals import (_bound, _bound_key, _decide_trivial, _probe_points,
                                   box_blocks, field_blocks, gamma, gamma_row,
                                   ideal_trivial, min_rank_scan)
from corank.enumeration import all_trees, enumerate_connected_graphs, enumerate_digraphs
from corank.graphs import relabel
from corank.minrank import tree_suite
from corank.polyring import GF, QQ, ZZ
from corank.zeroforcing import zero_forcing_number
from oracles import decision_in_scan_order

FAMILIES = {"graphs n<=6": lambda: enumerate_connected_graphs(6),
            "digraphs n<=4": lambda: enumerate_digraphs(4),
            "trees n<=9": lambda: [t for n in range(1, 10) for t in all_trees(n)]}


def relabeled(graphs, seed):
    """Each graph under a seeded random relabeling: a fresh object."""
    rng = random.Random(seed)
    out = []
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append(relabel(g, perm))
    return out


# (domain, radius, gamma_box_budget); a budget of 40 points cuts scans, so
# that a kept scan's claim to be uncut is also held against cut ones
BUDGET = RunConfig.gamma_box_budget
SCANS = ((QQ, 0, BUDGET), (QQ, 1, BUDGET), (QQ, 2, BUDGET), (QQ, 2, 40), (GF(3), 2, BUDGET),
         (GF(5), 2, BUDGET))


@pytest.mark.parametrize("family", FAMILIES)
def test_the_floor_keeps_the_box_scan_result(family, monkeypatch):
    """_bound gives the (upper, point) of the probe scan and, when that
    leaves a gap, of one min_rank_scan over all of the box's or field's
    blocks from the probe's bound, over Q at radius 0, 1 and 2, also under
    a small budget, and over F_3 and F_5; boxed says whether the probe left
    a gap.  gamma keeps that outcome on g under its scan prime, and when
    the kept box scan is marked uncut, no box point ranks below its upper
    bound, if that is above lower."""
    for seed in (1, 2):
        for g in relabeled(FAMILIES[family](), seed):
            lower = g.n - zero_forcing_number(g).z
            probe = [(tuple(zip(p)), None) for p in _probe_points(g)]
            for domain, radius, budget in SCANS:
                monkeypatch.setattr(RunConfig, "gamma_box_budget", budget)
                config = replace(DEFAULT_CONFIG, box_radius=radius)
                want = min_rank_scan(g, probe, domain, lower, g.n, None)[:2]
                gap = want[0] > lower
                if gap:
                    blocks = (field_blocks(g.n, domain.p) if domain.p
                              else box_blocks(g.n, radius))
                    want = min_rank_scan(g, blocks, domain, lower, *want,
                                         config.gamma_box_budget)[:2]
                least, kept_point, exhaustive, boxed = _bound(g, lower, domain, config)
                assert ((least, kept_point), boxed) == (want, gap), (g, domain, radius)
                gamma(g, domain, config)
                assert g._facts[_bound_key(domain.p, config)] == \
                    (least, kept_point, exhaustive, boxed)
                # past lower, which the zero forcing minor certifies
                if not domain.p and exhaustive and least > lower:
                    assert min_rank_scan(g, box_blocks(g.n, radius), QQ, least - 1, least,
                                         None)[1] is None, (g, radius)


DOMAINS = (ZZ, QQ, GF(2), GF(3))


@pytest.mark.parametrize("family", ["graphs n<=6", "digraphs n<=4"])
def test_decisions_from_kept_facts_are_those_in_scan_order(family):
    """At every index over Z, Q, F_2 and F_3, _decide_trivial on a graph
    whose facts gamma_row filled equals the decision in scan order."""
    for g in relabeled(FAMILIES[family](), 3):
        gamma_row(g)
        for i in range(1, g.n + 1):
            for domain in DOMAINS:
                assert _decide_trivial(g, i, domain, DEFAULT_CONFIG) == \
                    decision_in_scan_order(g, i, domain), (g, i, domain)


def test_one_minor_scan_per_graph_and_index_besides_groebner_input(monkeypatch):
    """Over gamma_Z and gamma_Q of the 143 gap-table graphs, each (graph,
    index) has one minor scan, and a second only where Groebner needs the
    generators that the other run's scan did not keep: 24 pairs, 26 scans,
    3 Groebner runs (ELrw and ELv_ at index 4, where gamma_Z closes by a
    mod 5 point after its scan, and EL~o, whose mod 2 point needs none)."""
    scans, groebner = Counter(), Counter()
    scan, run = criticalideals.minor_generators, criticalideals._groebner

    def counted_scan(matrix, size):
        scans[matrix.out_adj, size] += 1
        return scan(matrix, size)

    def counted_groebner(gens, *rest):
        groebner[gens.matrix.out_adj, gens.size] += 1
        return run(gens, *rest)

    monkeypatch.setattr(criticalideals, "minor_generators", counted_scan)
    monkeypatch.setattr(criticalideals, "_groebner", counted_groebner)
    for g in relabeled(enumerate_connected_graphs(6), 0):
        gamma_row(g)
    assert all(scans[key] <= 1 + groebner[key] for key in scans)
    assert (len(scans), sum(scans.values()), sum(groebner.values())) == (24, 26, 3)


def _row_json(h, cache):
    row = gamma_row(h, cache=cache)
    return row["z"], row["mz"], row["gamma_z"].to_json(), row["gamma_q"].to_json()


def _decisions(h, cache):
    return [ideal_trivial(h, i, domain, cache=cache)
            for i in range(1, h.n + 1) for domain in (ZZ, QQ, GF(3))]


@pytest.mark.parametrize("family", ["graphs n<=6", "digraphs n<=4", "trees n<=8"])
def test_no_cache_gives_the_answers_of_a_fresh_one(family):
    """gamma over Z, Q and F_3, gamma_row, ideal_trivial at every index over
    the same domains and, on trees, tree_suite: each run with no cache gives
    what it gives through a fresh DecisionCache, on a copy of its own."""
    make = FAMILIES.get(family, lambda: [t for n in range(1, 9) for t in all_trees(n)])
    runs = [lambda h, cache, dom=dom: gamma(h, dom, cache=cache).to_json()
            for dom in (ZZ, QQ, GF(3))] + [_row_json, _decisions]
    if family.startswith("trees"):
        runs.append(lambda h, cache: tree_suite(h, cache=cache).to_json())
    for g in relabeled(make(), 4):
        for run in runs:
            bare, cached = (run(relabel(g, range(g.n)), cache)
                            for cache in (None, DecisionCache()))
            assert bare == cached, (g, run)
