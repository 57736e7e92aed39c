"""Groebner runs get only the minors that no alien-cofactor relation writes
through earlier ones: the kept list spans the ideal of the full one.

Each dropped minor's relation is replayed by expansion, with its order
re-derived here, and the kept and full lists give equal reduced bases over
Q and F_3 and equal Z decisions, on the graphs with n <= 6 (in their
enumeration labeling, and every third one in a seeded relabeling) and on the
digraphs with n <= 4.
"""

from functools import cache
from itertools import combinations

import pytest

from corank.config import DEFAULT_CONFIG
from corank.criticalideals import (TrivialityDecision, _alien_cofactor_drops,
                                   _describe_z_cert, _groebner, generalized_laplacian,
                                   minor_generators)
from corank.enumeration import enumerate_connected_graphs, enumerate_digraphs
from corank.polyring import DEGREVLEX, GF, QQ, ZZ, buchberger, is_trivial_over_Z
from oracles import entry, relabeled


GRAPHS = enumerate_connected_graphs(6)
# the relabeled copy takes every third graph, to keep the file near 5 s
SETS = {"graphs n<=6": GRAPHS, "graphs n<=6 relabeled": relabeled(GRAPHS, 7)[::3],
        "digraphs n<=4": enumerate_digraphs(4)}


def _items(graphs):
    """(g, i, matrix, generators) for every index whose scan found no +-1 minor."""
    for g in graphs:
        for i in range(1, g.n + 1):
            L = generalized_laplacian(g)
            gens = minor_generators(L, i)
            if gens.unit_minor is None and gens.generators:
                yield g, i, L, gens


@cache
def _subset_index(n, size):
    """{bitmask: position} of the size-subsets of range(n) in combinations order."""
    return {sum(1 << v for v in s): k for k, s in enumerate(combinations(range(n), size))}


def _order_key(L, size, rows, cols):
    """(term count, scan position) of a minor, the scan reading a symmetric
    matrix's minor at its orientation with the earlier row set."""
    index = _subset_index(L.n, size)
    a, b = index[rows], index[cols]
    if L.symmetric:
        a, b = min(a, b), max(a, b)
    return len(L.minor(rows, cols).terms), a, b


def _terms(L, relation):
    """The relation's terms by row r of R, in increasing r: (r, the entry
    at (r, c), the minor on R - r, that minor's (rows, cols) in L)."""
    R, C, _, c, transposed = relation
    for r in range(L.n):
        if R >> r & 1:
            rest = R ^ 1 << r
            if transposed:   # the relation of L's transpose: M_T(A, B) = M(B, A)
                yield r, entry(L, c, r), L.minor(C, rest), (C, rest)
            else:
                yield r, entry(L, r, c), L.minor(rest, C), (rest, C)


def _replay(L, size, dropped, relation):
    """Expand the relation to zero and check that it writes the dropped
    minor, through a -1 entry, by minors that are zero or earlier."""
    R, C, r0, c, _ = relation
    total = None
    found = False
    for j, (r, coefficient, minor, rc) in enumerate(_terms(L, relation)):
        term = coefficient * minor
        if j % 2:
            term = -term
        total = term if total is None else total + term
        if r == r0:
            assert coefficient.is_constant() and coefficient.constant_value() == -1
            assert rc == dropped or (L.symmetric and rc == dropped[::-1])
            found = True
        elif not (coefficient.is_zero() or minor.is_zero()):
            assert _order_key(L, size, *rc) < _order_key(L, size, *dropped), (rc, dropped)
    assert found and total.is_zero(), relation


@pytest.mark.parametrize("name", SETS)
def test_every_dropped_minor_replays_its_relation(name):
    dropped = 0
    for g, i, L, gens in _items(SETS[name]):
        order, drops = _alien_cofactor_drops(gens)
        keys = [_order_key(L, i, *rc) for rc in order]
        assert keys == sorted(keys) and len(order) == len(set(order))
        for k, relation in drops.items():
            _replay(L, i, order[k], relation)
        dropped += len(drops)
    assert dropped > 0


@pytest.mark.parametrize("name", SETS)
def test_the_kept_minors_give_the_bases_and_decisions_of_the_full_list(name):
    """The Z route's basis over Q and decision, detail string included, and
    the basis over F_3: the full list's Z run returns its Q basis when the
    ideal is proper over Q, and otherwise the Q basis is {1}."""
    config = DEFAULT_CONFIG
    full = kept = 0
    for g, i, L, gens in _items(SETS[name]):
        want = buchberger([p.to_domain(GF(3)) for p in gens.generators], DEGREVLEX)
        got, _ = _groebner(gens, GF(3), DEGREVLEX, config)
        assert got.generators == want.generators, (g, i)
        ok, cert = is_trivial_over_Z(gens.generators, DEGREVLEX, config.spair_cap,
                                     config.degree_cap)
        basis, decision = _groebner(gens, ZZ, DEGREVLEX, config)
        assert decision == TrivialityDecision(ok, "groebner", _describe_z_cert(cert)), (g, i)
        if cert[0] == "rational-basis":
            assert basis.generators == cert[1].generators, (g, i)
        else:
            assert basis.is_trivial(), (g, i)
        full += len(gens.generators)
        kept += len(gens.kept())
    assert kept < full
