"""Closures, exact zero forcing numbers and certificate submatrices."""

import random

import pytest

import corank.zeroforcing as zeroforcing
from corank.criticalideals import generalized_laplacian
from corank.enumeration import (all_trees, enumerate_connected_graphs, enumerate_digraphs,
                                enumerate_graphs)
from corank.generators import (NAMED_GRAPHS, bull, complete, complete_multipartite, cycle,
                               forbidden_family_named, octahedron, path, petersen, star)
from corank.graphs import Digraph, Graph, induced_subgraph
from corank.polyring import ZZ, Polynomial
from corank.zeroforcing import (CertificateError, ForceRecord, certificate_minor,
                                closure, is_zero_forcing_set, mz,
                                validate_record, zero_forcing_number)
from oracles import (closure_by_rescan, closure_in_random_order, entry, relabeled,
                     zero_forcing_by_plain_search, zero_forcing_by_pruned_search)


def test_closure_examples():
    b = bull()
    state = closure(b, {3, 4})
    assert state.blue == frozenset(range(5))
    assert len(state.forces) == 3
    assert validate_record(b, ForceRecord(frozenset({3, 4}), state.forces))
    # whole vertex set: nothing to force
    assert closure(b, range(5)).forces == ()
    # a single vertex of K3 has two white neighbors
    assert closure(complete(3), {0}).blue == frozenset({0})


def test_paper_chronological_list_replays():
    # pendants force the triangle: 3->0, 4->1, then 1->2
    b = bull()
    rec = ForceRecord(frozenset({3, 4}), ((3, 0), (4, 1), (1, 2)))
    assert validate_record(b, rec)


def test_zero_forcing_set_examples():
    assert is_zero_forcing_set(bull(), {3, 4})
    assert is_zero_forcing_set(path(6), {0})
    assert not is_zero_forcing_set(complete(4), {2})


def test_zero_forcing_numbers():
    assert zero_forcing_number(bull()).z == 2
    assert mz(bull()) == 3
    assert zero_forcing_number(octahedron()).z == 4
    assert mz(octahedron()) == 2
    assert zero_forcing_number(petersen()).z == 5
    for n in range(3, 11):
        assert zero_forcing_number(path(n)).z == 1
        assert zero_forcing_number(cycle(n)).z == 2
        assert zero_forcing_number(complete(n)).z == n - 1
    assert mz(complete(7)) == 1
    assert mz(Graph(1)) == 0


def test_witness_is_lex_least_and_forcing():
    r = zero_forcing_number(cycle(5))
    assert r.witness.initial_set == frozenset({0, 1})
    assert validate_record(cycle(5), r.witness)


def test_exact_search_matches_the_pruned_search():
    """The plain subset search gives the (Z, witness, forces) of the search
    that skips subsets inside known non-spanning closed sets: all graphs
    with n <= 7, all digraphs with n <= 4, all trees with n <= 9, the named
    catalog, and E_12, K_12 and K_{6,6} at the top of the exact tier."""
    graphs = (enumerate_graphs(7) + enumerate_digraphs(4)
              + [t for n in range(1, 10) for t in all_trees(n)]
              + [make() for make in NAMED_GRAPHS.values()]
              + [Graph(12), complete(12), complete_multipartite([6, 6])])
    for g in graphs:
        assert zeroforcing._exact_search(g) == zero_forcing_by_pruned_search(g), g


def test_the_exact_search_from_the_least_out_degree_is_the_search_from_size_0():
    """Below the least out-degree no set forces, so starting there keeps the
    (Z, witness, forces) of the plain search from size 0: all graphs with
    n <= 7 and all digraphs with n <= 4, each in its own labeling and in a
    seeded relabeling, and the empty graph; the pruned search's Z agrees."""
    graphs = enumerate_graphs(7) + enumerate_digraphs(4)
    for g in graphs + relabeled(graphs, 1039) + [Graph(0), Digraph(0)]:
        got = zeroforcing._exact_search(g)
        assert got == zero_forcing_by_plain_search(g), g.pairs
        assert got.z == zero_forcing_by_pruned_search(g).z, g.pairs


def test_the_exact_search_closes_only_its_winner_with_a_force_list(monkeypatch):
    """Every other subset is closed on bitmasks alone."""
    real, closed = zeroforcing.closure, []
    monkeypatch.setattr(zeroforcing, "closure",
                        lambda g, blue: closed.append(sorted(blue)) or real(g, blue))
    for g in (petersen(), complete_multipartite([3, 3]), cycle(7)):
        closed.clear()
        r = zeroforcing._exact_search(g)
        assert closed == [sorted(r.witness.initial_set)]


def test_digraph_rule_uses_out_neighbors():
    # 0 -> 1 <- 2: vertex 1 has no out-neighbors and cannot force
    d = Digraph(3, [(0, 1), (2, 1)])
    assert closure(d, {1}).blue == frozenset({1})
    assert closure(d, {0, 2}).blue == frozenset(range(3))
    for name, dg, zfs in forbidden_family_named():
        assert dg.n - zero_forcing_number(dg).z == 2, name


def test_closure_confluence():
    rng = random.Random(1009)
    for _ in range(300):
        n = rng.randint(1, 8)
        if rng.random() < 0.5:
            g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < 0.5])
        else:
            g = Digraph(n, [(u, v) for u in range(n) for v in range(n)
                            if u != v and rng.random() < 0.4])
        seed = {v for v in range(n) if rng.random() < 0.4}
        reference = closure(g, seed).blue
        for _ in range(3):
            assert closure_in_random_order(g, seed, rng).blue == reference


def _starts(n):
    """Each vertex alone, and the first and the last k vertices for even k."""
    yield from ({v} for v in range(n))
    for k in range(2, n + 1, 2):
        yield range(k)
        yield range(n - k, n)


def _same_record(g, blue):
    state = closure(g, blue)
    return (state.blue, state.forces) == closure_by_rescan(g, blue)


def test_closure_applies_the_forces_of_a_full_rescan():
    """The closure that re-tests only the vertices a force can make legal
    applies the forces of one that rescans from the lowest blue vertex, in
    the same order."""
    for g in enumerate_graphs(7):
        assert all(_same_record(g, blue) for blue in _starts(g.n)), g.pairs
    rng = random.Random(1031)
    for _ in range(300):
        n = rng.randint(1, 6)
        d = Digraph(n, [(u, v) for u in range(n) for v in range(n)
                        if u != v and rng.random() < 0.4])
        seeds = [{v for v in range(n) if rng.random() < 0.4} for _ in range(3)]
        assert all(_same_record(d, blue) for blue in list(_starts(n)) + seeds), d.pairs
    for g in (cycle(120), path(120)):
        assert all(_same_record(g, blue) for blue in
                   [{v} for v in range(0, 120, 7)] + [{v, v + 1} for v in range(0, 119, 7)]
                   + [range(60), range(60, 120)])


def test_greedy_bound_on_a_long_cycle():
    r = zero_forcing_number(cycle(300))
    assert (r.z, r.exact, r.witness.initial_set) == (2, False, frozenset({0, 1}))
    assert (frozenset(range(300)), r.witness.forces) == closure_by_rescan(cycle(300), {0, 1})


def test_mz_monotone_under_induced_subgraphs():
    rng = random.Random(1013)
    for _ in range(200):
        n = rng.randint(2, 7)
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.5])
        k = rng.randint(1, n)
        h = induced_subgraph(g, sorted(rng.sample(range(n), k)))
        assert mz(h) <= mz(g)


def test_certificate_minor_bull():
    b = bull()
    rec = ForceRecord(frozenset({3, 4}), ((3, 0), (4, 1), (1, 2)))
    cert = certificate_minor(b, rec)
    assert cert.rows == (3, 4, 1) and cert.cols == (0, 1, 2)
    assert cert.determinant == -1
    minus_one = Polynomial.constant(5, ZZ, -1)
    zero = Polynomial.zero(5, ZZ)
    x1 = Polynomial(5, ZZ, {(0, 1, 0, 0, 0): 1})
    expected = [[minus_one, zero, zero],
                [zero, minus_one, zero],
                [minus_one, x1, minus_one]]
    assert _grid(b, cert) == expected


def _grid(g, cert):
    """The certificate's k x k submatrix of the variable-diagonal Laplacian."""
    L = generalized_laplacian(g)
    return [[entry(L, a, b) for b in cert.cols] for a in cert.rows]


def test_certificate_minor_k2_and_empty():
    cert = certificate_minor(Graph(2, [(0, 1)]),
                             ForceRecord(frozenset({0}), ((0, 1),)))
    assert cert.determinant == -1 and len(cert.rows) == 1
    cert0 = certificate_minor(complete(3),
                              ForceRecord(frozenset({0, 1}), ((0, 2),)))
    assert cert0.determinant == -1


def test_certificate_minor_symbolic_determinant_oracle():
    # cofactor-expansion determinant of the certificate equals (-1)^k
    from corank.enumeration import all_trees
    rng = random.Random(1021)
    for n in (5, 7, 9):
        for t in rng.sample(all_trees(n), 3):
            r = zero_forcing_number(t)
            cert = certificate_minor(t, r.witness)
            det = _symbolic_det(_grid(t, cert), t.n)
            assert det == Polynomial.constant(t.n, ZZ, cert.determinant)


def _symbolic_det(entries, nvars):
    k = len(entries)
    if k == 0:
        return Polynomial.constant(nvars, ZZ, 1)
    total = Polynomial.zero(nvars, ZZ)
    for j in range(k):
        sub = _symbolic_det([row[:j] + row[j + 1:] for row in entries[1:]], nvars)
        term = entries[0][j] * sub
        total = total + term if j % 2 == 0 else total - term
    return total


# every leading block of the certificate is a +-1 minor: the lemma of the
# certificate rule of groebner_basis_of_critical_ideal
LEADING_BLOCK_SETS = {
    "graphs n<=7, every 7th": lambda: enumerate_connected_graphs(7)[::7],
    "digraphs n<=4": lambda: enumerate_digraphs(4),
    "trees n<=10": lambda: [t for n in range(1, 11) for t in all_trees(n)],
    "greedy tier P_13 and C_13": lambda: [path(13), cycle(13)],
}


def _sign(seq):
    """The sign of the permutation that sorts seq."""
    return (-1) ** sum(a > b for k, a in enumerate(seq) for b in seq[k + 1:])


@pytest.mark.parametrize("name", LEADING_BLOCK_SETS)
def test_every_leading_block_of_the_certificate_is_a_unit_minor(name):
    """In force order the k x k leading block is lower triangular with -1 on
    the diagonal, so its determinant is (-1)^k; SymbolicMatrix.minor reads
    rows and columns in increasing order, which signs it by both sorts."""
    blocks = 0
    for g in LEADING_BLOCK_SETS[name]():
        zf = zero_forcing_number(g)
        cert = certificate_minor(g, zf.witness)
        assert len(cert.rows) == g.n - zf.z
        L = generalized_laplacian(g)
        for k in range(len(cert.rows) + 1):
            rows, cols = cert.rows[:k], cert.cols[:k]
            value = (-1) ** k * _sign(rows) * _sign(cols)
            got = L.minor(sum(1 << r for r in rows), sum(1 << c for c in cols))
            assert got == Polynomial.constant(g.n, ZZ, value), (g, k)
            blocks += 1
        if name.startswith("greedy"):
            assert not zf.exact
    assert blocks > 0


def test_certificate_rejects_invalid_record():
    with pytest.raises(CertificateError):
        certificate_minor(bull(), ForceRecord(frozenset({0}), ((0, 1),)))


def test_certificate_shape_checks_stand_without_the_replay(monkeypatch):
    # with the replay check accepting anything, the shape checks alone
    # still reject a record out of order and a force along a non-edge
    monkeypatch.setattr(zeroforcing, "validate_record", lambda g, record: True)
    b = bull()
    shuffled = ForceRecord(frozenset({3, 4}), ((1, 2), (3, 0), (4, 1)))
    with pytest.raises(CertificateError, match=r"entry \(0,1\) above the diagonal"):
        certificate_minor(b, shuffled)
    for force in ((3, 1), (3, 3)):
        with pytest.raises(CertificateError, match="diagonal entry at step 0 is not -1"):
            certificate_minor(b, ForceRecord(frozenset({3}), (force,)))
    d = Digraph(2, [(1, 0)])  # the arc runs against the force
    with pytest.raises(CertificateError, match="diagonal entry at step 0"):
        certificate_minor(d, ForceRecord(frozenset({0}), ((0, 1),)))


def test_heuristic_tier_flags_inexact():
    big = path(20)
    r = zero_forcing_number(big)
    assert not r.exact
    assert is_zero_forcing_set(big, r.witness.initial_set)


def test_digraph_certificate():
    d = Digraph(3, [(0, 2), (2, 1)])  # a forbidden-family path pattern
    r = zero_forcing_number(d)
    cert = certificate_minor(d, r.witness)
    assert cert.determinant in (1, -1)
    assert len(cert.rows) == 2
