"""The symbolic matrix, minor ideals, triviality decisions and gamma."""

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import pytest

import corank.criticalideals as criticalideals
import corank.polyring as polyring
from corank.cache import DecisionCache
from corank.config import DEFAULT_CONFIG, RunConfig
from corank.criticalideals import (_describe_z_cert, box_points,
                                   field_points, gamma,
                                   generalized_laplacian,
                                   groebner_basis_of_critical_ideal,
                                   ideal_trivial, minor_generators,
                                   nontriviality_certificate, variety_box_search)
from corank.enumeration import (enumerate_connected_graphs, enumerate_digraphs,
                                enumerate_graphs)
from corank.generators import (bull, complete, complete_multipartite, cycle,
                               graph_a, graph_b, graph_c, matching_3k2, octahedron, path,
                               petersen)
from corank.goldens import OCTAHEDRON_I3_OVER_Z, OCTAHEDRON_I4_OVER_R, GRAPH_B_I4
from corank.graphs import Digraph, Graph, canonical_form, relabel
from corank.linalg import det_exact, exact_rank
from corank.polyring import (DEGREVLEX, GF, QQ, ZZ, Polynomial, buchberger,
                             format_polynomial, is_trivial_over_Z, normal_form,
                             parse_polynomial)
from corank.zeroforcing import (ForceRecord, certificate_minor, validate_record,
                                zero_forcing_number)
from oracles import contained_in_monomials_plus_constant, contains, entry, evaluate, key


def test_laplacian_matches_printed_bull_matrix():
    L = generalized_laplacian(bull())
    # paper rows (1-indexed) shifted down by one
    expected = [
        ["x0", -1, -1, -1, 0],
        [-1, "x1", -1, 0, -1],
        [-1, -1, "x2", 0, 0],
        [-1, 0, 0, "x3", 0],
        [0, -1, 0, 0, "x4"],
    ]
    for i in range(5):
        for j in range(5):
            e = entry(L, i, j)
            if i == j:
                assert format_polynomial(e) == expected[i][j]
            else:
                assert e.constant_value() == expected[i][j]


def test_laplacian_octahedron_offdiagonal_support():
    rows = generalized_laplacian(octahedron()).evaluate((0,) * 6)
    for u in range(6):
        for v in range(6):
            want = 0 if (u - v) % 3 == 0 else -1
            assert rows[u][v] == want


def test_laplacian_k1_and_digraph():
    assert format_polynomial(entry(generalized_laplacian(Graph(1)), 0, 0)) == "x0"
    d = Digraph(2, [(0, 1)])
    assert generalized_laplacian(d).evaluate((5, 7)) == [[5, -1], [0, 7]]


def test_minor_generators_p3():
    L = generalized_laplacian(path(3))
    gens = minor_generators(L, 3)
    assert len(gens.generators) == 1
    assert format_polynomial(gens.generators[0]) == "x0*x1*x2 - x0 - x2"
    two = minor_generators(L, 2)
    assert two.unit_minor is not None


def test_minor_generators_size1_and_bull_unit():
    L = generalized_laplacian(bull())
    one = minor_generators(L, 1)
    assert one.unit_minor is not None  # any edge entry is -1
    three = minor_generators(L, 3)
    assert three.unit_minor is not None  # from the zero forcing certificate
    assert three.generators[-1].constant_value() == three.unit_minor[2]


def _all_minors(n):
    for k in range(n + 1):
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                yield rows, cols


@pytest.mark.parametrize("matrices", ["graphs n<=5", "digraphs n<=4"])
def test_every_minor_is_multiaffine_and_equals_the_determinant(matrices):
    """A multiaffine polynomial in n variables is fixed by its values on
    {0,1}^n, so agreeing with the determinant there proves the expansion."""
    if matrices == "graphs n<=5":
        mats = [generalized_laplacian(g) for g in enumerate_graphs(5)]
    else:
        mats = [generalized_laplacian(d) for d in enumerate_digraphs(4)]
    for L in mats:
        n = L.n
        points = [(pt, L.evaluate(pt)) for pt in product((0, 1), repeat=n)]
        for rows, cols in _all_minors(n):
            p = L.minor(sum(1 << r for r in rows), sum(1 << c for c in cols))
            assert all(e <= 1 for m in p.terms for e in m), (rows, cols)
            for pt, full in points:
                value = sum(c for m, c in p.terms.items()
                            if all(e <= x for e, x in zip(m, pt)))
                assert value == det_exact([[full[r][c] for c in cols] for r in rows]), \
                    (rows, cols, pt)


def _cofactor_minor(L, rows, cols, memo):
    """The minor by Polynomial arithmetic along the first row (test oracle)."""
    key = (rows, cols)
    if key not in memo:
        res = Polynomial.constant(L.n, ZZ, 1)
        if rows:
            res = Polynomial.zero(L.n, ZZ)
            for j, c in enumerate(cols):
                e = entry(L, rows[0], c)
                if e.is_zero():
                    continue
                term = e * _cofactor_minor(L, rows[1:], cols[:j] + cols[j + 1:], memo)
                res = res + term if j % 2 == 0 else res - term
        memo[key] = res
    return memo[key]


def _oracle_minor_generators(L, size, stop_at_unit, memo):
    """minor_generators by Polynomial keys: (generators, unit, constants)."""
    gens, seen, unit, constants = [], set(), None, []
    for rows in combinations(range(L.n), size):
        for cols in combinations(range(L.n), size):
            p = _cofactor_minor(L, rows, cols, memo)
            if p.is_zero():
                continue
            if p.is_constant():
                c = p.constant_value()
                constants.append((rows, cols, c))
                if unit is None and c in (1, -1):
                    unit = (rows, cols, c)
            if key(p) in seen or key(-p) in seen:
                continue
            seen.add(key(p))
            gens.append(p)
            if unit is not None and stop_at_unit:
                return gens, unit, constants
    return gens, unit, constants


def test_minor_generators_match_the_polynomial_expansion():
    """Generator order, signs and terms, the unit minor and the constant
    minors of all 143 graphs and the 16 digraphs on 3 vertices at every
    index, against the oracle, which expands every pair of row and column
    sets, stopped at the first +-1 minor as minor_generators is.  A
    symmetric Laplacian skips the transposed minors: its constant minors
    are the oracle's with cols >= rows.  Against the oracle's full list,
    the unit minor and the first constant each domain takes for a unit are
    the same, so stopping changes no decision."""
    graphs = enumerate_connected_graphs(6)
    assert len(graphs) == 143
    for g in graphs + enumerate_digraphs(3):
        L, memo = generalized_laplacian(g), {}
        symmetric = all(g.has_arc(u, v) == g.has_arc(v, u)
                        for u, v in combinations(range(g.n), 2))
        for i in range(g.n + 1):
            got = minor_generators(L, i)
            gens, unit, constants = _oracle_minor_generators(L, i, True, memo)
            assert got.generators == gens, (g, i)
            assert got.unit_minor == unit
            assert got.constant_minors == [m for m in constants
                                           if not symmetric or m[1] >= m[0]]
            full_gens, full_unit, full_constants = _oracle_minor_generators(L, i, False,
                                                                            memo)
            assert full_unit == unit
            assert full_gens[:len(gens)] == gens
            if unit is None:
                assert full_gens == gens
            for domain in (QQ, GF(2), GF(3)):
                assert next((m for m in got.constant_minors if domain.is_unit(m[2])),
                            None) == \
                    next((m for m in full_constants if domain.is_unit(m[2])), None)


def test_z_decision_tracks_cofactors_only_for_rationally_trivial_ideals(monkeypatch):
    """The Z path runs Buchberger with cofactors only after a plain run
    found the ideal trivial over Q; a proper ideal's cofactors would be
    thrown away.  No Q-trivial ideal with n <= 5 reaches Buchberger; the
    octahedron at i = 3 (trivial over Q, not mod 2) does."""
    plain = polyring.buchberger
    calls = []

    def counted(generators, *args, track_cofactors=False, **kwargs):
        calls.append(track_cofactors)
        return plain(generators, *args, track_cofactors=track_cofactors, **kwargs)

    monkeypatch.setattr(polyring, "buchberger", counted)
    tracked = 0
    for g in enumerate_connected_graphs(5) + [octahedron()]:
        L = generalized_laplacian(g)
        for i in range(1, g.n + 1):
            gens = minor_generators(L, i).generators
            q_trivial = plain([p.to_domain(QQ) for p in gens]).is_trivial()
            calls.clear()
            groebner_basis_of_critical_ideal(g, i, ZZ)
            assert calls.count(True) == (1 if q_trivial and calls else 0), (g.edges, i)
            assert not calls or calls[0] is False
            tracked += calls.count(True)
    assert tracked > 0


def test_ideal_trivial_octahedron():
    g = octahedron()
    cache = DecisionCache()
    assert ideal_trivial(g, 3, ZZ, cache=cache).trivial is False
    assert ideal_trivial(g, 3, QQ, cache=cache).trivial is True
    assert ideal_trivial(g, 6, ZZ, cache=cache).trivial is False
    assert ideal_trivial(g, 6, QQ, cache=cache).trivial is False


def test_nontriviality_certificates():
    g = octahedron()
    pt = nontriviality_certificate(g, 4, QQ)
    assert pt == (0,) * 6
    assert exact_rank(generalized_laplacian(g).evaluate(pt)).rank == 3
    p, zpt = nontriviality_certificate(g, 3, ZZ)
    assert p == 2
    from corank.linalg import rank_mod_p
    assert rank_mod_p(generalized_laplacian(g).evaluate(zpt), 2) <= 2
    # corrected complete-graph orientation: the all-(-1) diagonal kills I_2
    k4 = complete(4)
    pt = nontriviality_certificate(k4, 2, QQ)
    assert pt is not None
    assert exact_rank(generalized_laplacian(k4).evaluate(pt)).rank == 1
    # over F_p gamma's own field scan has already looked at every point
    with pytest.raises(ValueError, match=r"not GF\(5\)"):
        nontriviality_certificate(g, 3, GF(5))


def test_gamma_key_values():
    cache = DecisionCache()
    assert gamma(octahedron(), ZZ, cache=cache).value == 2
    assert gamma(octahedron(), QQ, cache=cache).value == 3
    assert gamma(complete(5), ZZ, cache=cache).value == 1
    assert gamma(complete(5), QQ, cache=cache).value == 1
    assert gamma(Graph(1), QQ, cache=cache).value == 0
    assert gamma(bull(), QQ, cache=cache).value == 3


def test_gamma_petersen_sandwich_only():
    cache = DecisionCache()
    for dom in (ZZ, QQ):
        r = gamma(petersen(), dom, cache=cache)
        assert r.value == 5
        assert all("groebner" not in v for v in r.provenance.values())


def test_gamma_k333_closed_without_groebner():
    cache = DecisionCache()
    r = gamma(complete_multipartite([3, 3, 3]), ZZ, cache=cache)
    assert r.value == 2
    assert r.provenance[3] == "point-certificate"
    assert all("groebner" not in v for v in r.provenance.values())


def test_gamma_digraph_remark():
    d = Digraph(3, [(0, 2), (2, 1)])
    cache = DecisionCache()
    for dom in (ZZ, QQ):
        r = gamma(d, dom, cache=cache)
        assert r.value == 2
        assert r.value >= d.n - zero_forcing_number(d).z


def test_gamma_isomorphism_invariance():
    rng = random.Random(1031)
    base = octahedron()
    want_q = gamma(base, QQ, cache=DecisionCache()).value
    want_z = gamma(base, ZZ, cache=DecisionCache()).value
    for _ in range(10):
        perm = list(range(6))
        rng.shuffle(perm)
        h = relabel(base, perm)
        assert gamma(h, QQ, cache=DecisionCache()).value == want_q
        assert gamma(h, ZZ, cache=DecisionCache()).value == want_z


@pytest.mark.parametrize("domain", ["q", None, 7])
def test_a_non_domain_is_a_value_error(domain):
    with pytest.raises(ValueError, match="unsupported domain"):
        gamma(path(3), domain)
    with pytest.raises(ValueError, match="unsupported domain"):
        groebner_basis_of_critical_ideal(path(3), 2, domain)


def test_gamma_over_prime_field():
    g = octahedron()
    r2 = gamma(g, GF(2), cache=DecisionCache())
    assert r2.value == 2  # the mod-2 point kills the 3-minors
    r7 = gamma(g, GF(7), cache=DecisionCache())
    assert r7.value == 3


def test_degree_vector_kills_determinant():
    rng = random.Random(1033)
    from corank.graphs import is_connected
    checked = 0
    while checked < 30:
        n = rng.randint(2, 7)
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.6])
        if not is_connected(g):
            continue
        checked += 1
        L = generalized_laplacian(g)
        deg = g.degrees()
        assert exact_rank(L.evaluate(deg)).rank < n


def _shell_order(n, radius):
    """{-radius..radius}^n sorted by (max |x|, the tuple)."""
    return sorted(product(range(-radius, radius + 1), repeat=n),
                  key=lambda pt: (max(map(abs, pt), default=0), pt))


def test_box_points_order():
    for n in range(5):
        for radius in range(3):
            assert list(box_points(n, radius)) == _shell_order(n, radius)
    assert list(box_points(2, 1))[:2] == [(0, 0), (-1, -1)]


def test_field_points_order():
    """The first `budget` points of the shell order over the centred lifts,
    mod p, and {0, 1}^n in lex for p = 2.  Every budget is tried, so some
    cut a shell in the middle (p = 5, n = 2, budget 5 inside shell 1)."""
    for p in (2, 3, 5, 7):
        for n in range(4):
            if p == 2:
                order = list(product((0, 1), repeat=n))
            else:
                order = [tuple(x % p for x in pt) for pt in _shell_order(n, (p - 1) // 2)]
            assert sorted(order) == sorted(product(range(p), repeat=n))
            for budget in range(len(order) + 2):
                assert list(field_points(n, p, budget)) == order[:budget]


def test_point_generators_in_dimension_zero_yield_only_the_origin():
    assert list(box_points(0, 2)) == [()]
    assert list(field_points(0, 3, 10)) == [()]


def test_variety_box_search_examples():
    res = variety_box_search(cycle(5), 3, QQ)
    assert res.point is not None and res.rank <= 3
    # K2 at diagonal (1,1) evaluates to rank 1
    res2 = variety_box_search(Graph(2, [(0, 1)]), 1, QQ, RunConfig(box_radius=1))
    assert res2.point is not None
    assert exact_rank([[res2.point[0], -1], [-1, res2.point[1]]]).rank == 1
    # the prism graph has no radius-2 witness at rank 3
    res3 = variety_box_search(graph_b(), 3, QQ)
    assert res3.point is None and res3.exhaustive


def test_field_box_search_cut_by_its_budget_is_not_exhaustive(monkeypatch):
    # 50 of the 13^6 points of F_13^6: absence there settles nothing
    with monkeypatch.context() as patch:
        patch.setattr(RunConfig, "box_point_budget", 50)
        cut = variety_box_search(cycle(6), 0, domain=GF(13), config=RunConfig())
    assert (cut.point, cut.points_scanned, cut.exhaustive) == (None, 50, False)
    whole = variety_box_search(cycle(6), 0, domain=GF(3))
    assert (whole.point, whole.points_scanned, whole.exhaustive) == (None, 3 ** 6, True)


def test_groebner_basis_reporting_and_reference_ideals():
    # field basis of the prism's 4-minor ideal equals the reference basis
    basis, decision = groebner_basis_of_critical_ideal(graph_b(), 4, QQ)
    assert decision is None
    ref = [parse_polynomial(t, 6, QQ) for t in GRAPH_B_I4]
    ref_basis = buchberger(ref)
    assert all(contains(ref_basis, p) for p in basis.generators)
    assert all(contains(basis, p) for p in ref)
    # octahedron I4 over R matches its reference generators as an ideal,
    # in the labeling the reference was computed in (vertices 4 and 5 are
    # swapped relative to the drawn matrix; the graphs are isomorphic)
    from corank.goldens import octahedron_for_reference_i4
    host = octahedron_for_reference_i4()
    assert canonical_form(host) == canonical_form(octahedron())
    basis_oct, _ = groebner_basis_of_critical_ideal(host, 4, QQ)
    ref_oct = [parse_polynomial(t, 6, QQ) for t in OCTAHEDRON_I4_OVER_R]
    oct_ref_basis = buchberger(ref_oct)
    assert all(contains(oct_ref_basis, p) for p in basis_oct.generators)
    assert all(contains(basis_oct, p) for p in ref_oct)


def test_octahedron_i3_equals_reference_over_Z():
    g = octahedron()
    L = generalized_laplacian(g)
    gens = minor_generators(L, 3)
    # containment I3 <= <x0..x5, 2>: exact over Z
    assert contained_in_monomials_plus_constant(gens.generators, range(6), 2)
    # reverse containment checked over Q and F_p: both ideals are trivial
    # over Q; mod 2 the reference reduces to <x0..x5> and mutual reduction
    # must close
    f2 = GF(2)
    basis2 = buchberger([p.to_domain(f2) for p in gens.generators])
    ref2 = [parse_polynomial(t, 6, f2) for t in OCTAHEDRON_I3_OVER_Z[:-1]]
    assert all(contains(basis2, p) for p in ref2)
    ref_basis2 = buchberger(ref2)
    assert all(contains(ref_basis2, p) for p in basis2.generators)
    # and mod 3 both are trivial (2 is a unit)
    f3 = GF(3)
    basis3 = buchberger([p.to_domain(f3) for p in gens.generators])
    assert basis3.is_trivial()


def test_z_basis_and_decision_match_their_separate_computations():
    """The Z path reports the reduced Q basis and the Z decision of the same
    minors: the octahedron at every index (i = 3 is trivial over Q but not
    mod 2), graphs A, B and C at i = 4, and the connected graphs to n = 5."""
    cases = ([(octahedron(), i) for i in range(2, 7)]
             + [(f(), 4) for f in (graph_a, graph_b, graph_c)]
             + [(g, i) for g in enumerate_connected_graphs(5) for i in range(2, g.n + 1)])
    tags = set()
    for g, i in cases:
        basis, decision = groebner_basis_of_critical_ideal(g, i, ZZ)
        gens = minor_generators(generalized_laplacian(g), i)
        want = buchberger([p.to_domain(QQ) for p in gens.generators])
        ok, cert = is_trivial_over_Z(gens.generators)
        if cert[0] == "rational-basis":
            detail = "non-trivial over Q"
        elif cert[0] == "prime":
            detail = f"non-trivial mod {cert[1]}"
        else:
            detail = f"denominator-cleared constant {cert[1]}"
        assert ([format_polynomial(p) for p in basis.generators]
                == [format_polynomial(p) for p in want.generators]), (g, i)
        assert decision.to_json() == {"trivial": ok, "method": "groebner",
                                      "detail": detail}, (g, i)
        tags.add(cert[0])
    assert tags == {"rational-basis", "prime", "denominator"}
    basis, decision = groebner_basis_of_critical_ideal(octahedron(), 3, ZZ)
    assert [format_polynomial(p) for p in basis.generators] == ["1"]
    assert decision.to_json()["detail"] == "non-trivial mod 2"


def _every_4th_item():
    items = [(g, i) for g in enumerate_connected_graphs(6) for i in range(1, g.n + 1)]
    return items[::4]


def test_the_z_route_stopped_at_the_unit_minor_matches_the_full_minor_list():
    """Minor generation stops at the first +-1 minor.  Over Z the route on
    the full, unstopped list gives the same Q basis, decision and detail on
    every 4th (graph, index) of the 143 connected graphs with n <= 6."""
    stopped = 0
    for g, i in _every_4th_item():
        basis, decision = groebner_basis_of_critical_ideal(g, i, ZZ)
        L = generalized_laplacian(g)
        gens, _, _ = _oracle_minor_generators(L, i, False, {})
        stopped += len(gens) > len(minor_generators(L, i).generators)
        ok, cert = is_trivial_over_Z(gens)
        q_gens = (cert[1].generators if cert[0] == "rational-basis"
                  else [Polynomial.constant(g.n, QQ, 1)])
        assert basis.generators == q_gens, (g.pairs, i)
        assert (decision.trivial, decision.method, decision.detail) == \
            (ok, "groebner", _describe_z_cert(cert)), (g.pairs, i)
    assert stopped > 0


@pytest.mark.parametrize("domain", [QQ, GF(3)], ids=["Q", "F3"])
def test_the_field_route_stopped_at_the_unit_minor_matches_the_full_minor_list(domain):
    """Over a field, the reduced basis from the minors up to the first +-1
    minor is Buchberger's on the full list, on every 4th (graph, index) of
    the 143 connected graphs with n <= 6."""
    stopped = 0
    for g, i in _every_4th_item():
        basis, decision = groebner_basis_of_critical_ideal(g, i, domain)
        L = generalized_laplacian(g)
        gens, _, _ = _oracle_minor_generators(L, i, False, {})
        stopped += len(gens) > len(minor_generators(L, i).generators)
        want = buchberger([p.to_domain(domain) for p in gens])
        assert basis.generators == want.generators, (g.pairs, i)
        assert decision is None
    assert stopped > 0


FIELD_GAMMA_SHA256 = "1f618bae0c609597082c0442d54eb9ecf0909129f0076d2fd5c1dd5a4ba34217"


def test_gamma_over_a_field_runs_no_point_search(monkeypatch):
    """gamma over F_2, F_3 and F_5 asks ideal_trivial only at indices up to
    the least rank its own field scan found, so a point search there could
    never succeed, and none runs: on the 143 connected graphs with n <= 6
    nontriviality_certificate is never called, and the results are those
    pinned from the engine that still ran the search (sha256 of their
    to_json, one per line, in graph order and F_2, F_3, F_5 per graph)."""
    calls = []
    search = criticalideals.nontriviality_certificate

    def counted(*args, **kwargs):
        calls.append(args[2])
        return search(*args, **kwargs)

    monkeypatch.setattr(criticalideals, "nontriviality_certificate", counted)
    lines = [json.dumps(gamma(g, GF(p), cache=DecisionCache()).to_json(),
                        sort_keys=True)
             for g in enumerate_connected_graphs(6) for p in (2, 3, 5)]
    assert calls == []
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == FIELD_GAMMA_SHA256


def test_octahedron_i4_vanishes_at_zero():
    L = generalized_laplacian(octahedron())
    gens = minor_generators(L, 4)
    zero = [Fraction(0)] * 6
    assert all(evaluate(p.to_domain(QQ), zero) == 0 for p in gens.generators)
    assert exact_rank(L.evaluate((0,) * 6)).rank == 3


def test_any_gamma_index_below_value_is_trivial():
    # nesting: triviality is downward monotone over each domain
    cache = DecisionCache()
    g = octahedron()
    for dom in (ZZ, QQ):
        val = gamma(g, dom, cache=cache).value
        for i in range(1, val + 1):
            assert ideal_trivial(g, i, dom, cache=cache).trivial is True
        assert ideal_trivial(g, val + 1, dom, cache=cache).trivial is False


def test_point_kill_implies_field_nontrivial():
    # a rational point killing all generators must force a False decision
    from corank.polyring import is_trivial_over_field
    L = generalized_laplacian(octahedron())
    gens = [p.to_domain(QQ) for p in minor_generators(L, 4).generators]
    zero = [Fraction(0)] * 6
    assert all(evaluate(p, zero) == 0 for p in gens)
    ok, _ = is_trivial_over_field(gens)
    assert not ok


def test_z_nontriviality_point_kills_generators_mod_p():
    g = octahedron()
    p, pt = nontriviality_certificate(g, 3, ZZ)
    gens = minor_generators(generalized_laplacian(g), 3).generators
    fp = GF(p)
    point = [fp.coerce(x) for x in pt]
    assert all(evaluate(q.to_domain(fp), point) == 0 for q in gens)


def test_budget_yields_undecided_not_wrong(monkeypatch):
    for name, value in (("gamma_box_budget", 3), ("box_point_budget", 3),
                        ("modp_point_budget", 1), ("primes", (2,))):
        monkeypatch.setattr(RunConfig, name, value)
    tight = RunConfig(spair_cap=1, degree_cap=30)
    r = gamma(graph_b(), QQ, tight, DecisionCache())
    assert r.status == "undecided" or r.value == 3


def test_undecided_gamma_names_its_budget():
    r = gamma(graph_a(), QQ, RunConfig(spair_cap=1), DecisionCache())
    assert r.status == "undecided" and r.value is None
    stuck = r.provenance[r.lower + 1]
    prefix = "budget: S-pair cap exceeded, partial basis of "
    assert stuck.startswith(prefix) and stuck.endswith(" polynomials")
    assert int(stuck[len(prefix):].split()[0]) > 0


def test_budget_hash_is_pinned():
    # cache files written by earlier versions stay keyed the same
    assert DEFAULT_CONFIG.budget_hash() == "fb546a3e713c0e18"
    assert RunConfig(spair_cap=40000).budget_hash() == "7c0008c06c552153"
    assert replace(DEFAULT_CONFIG, spair_cap=40000).budget_hash() == "7c0008c06c552153"
    wide = RunConfig(box_radius=3, degree_cap=12)
    assert wide.budget_hash() == "3ec4a352fd716558"
    assert wide.as_dict() == {"box_radius": 3, "primes": [2, 3, 5, 7, 11, 13],
                              "spair_cap": 50000, "degree_cap": 12, "zf_exact_max_n": 12,
                              "modp_point_budget": 20000, "box_point_budget": 200000,
                              "gamma_box_budget": 20000}


def test_cache_respects_budget_hash():
    cache = DecisionCache()
    g = octahedron()
    r1 = gamma(g, QQ, RunConfig(), cache)
    r2 = gamma(g, QQ, RunConfig(spair_cap=40000), cache)
    assert r1.value == r2.value == 3


@pytest.mark.parametrize("g", [cycle(13), path(14)], ids=["C13", "P14"])
def test_the_greedy_zero_forcing_tier_certifies_the_lower_bound(g):
    # past the exact tier the greedy force record still replays, and its
    # triangular minor certifies every index up to the lower bound
    assert not zero_forcing_number(g).exact
    for domain in (QQ, ZZ):
        r = gamma(g, domain)
        w = r.lower_witness
        record = ForceRecord(frozenset(w["force_record"]["initial_set"]),
                             tuple(map(tuple, w["force_record"]["forces"])))
        assert validate_record(g, record)
        cert = certificate_minor(g, record)
        assert (list(cert.rows), list(cert.cols), cert.determinant) == \
            (w["certificate_rows"], w["certificate_cols"], w["determinant"])
        assert len(cert.rows) == r.lower
        assert all(r.provenance[i] == "zero-forcing-certificate"
                   for i in range(1, r.lower + 1))
