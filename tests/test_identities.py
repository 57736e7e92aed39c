"""Identities between independent routes to gamma, as properties.

Over the graphs with n <= 6, the digraphs with n <= 4 and the trees with
n <= 7, gamma over every domain must satisfy:

- gamma_Z = min(gamma_Q, gamma over F_p for p in RunConfig.primes).  An
  ideal of Z[x] is proper iff it is proper over Q or over some F_p, since
  every maximal ideal of Z[x] contains a prime; a graph that needed a
  prime outside RunConfig.primes would fail here.
- gamma_Z <= f_1(L(G, out-degrees)), the number of invariant factors 1 of
  that integer matrix, by a Smith form that shares no code with the rank
  scans or Buchberger: a combination 1 = sum c_k m_k of i-minors,
  evaluated at the out-degrees, makes the gcd of the i-minors 1.
- gamma(H) <= gamma(G) over each domain for every connected induced
  subgraph H, since an i-minor of L(H, X) is one of L(G, X).  H is looked
  up by its canonical graph6 in the same table, so no gamma runs again.

Each property compares gamma's certified bounds (lower <= gamma <= upper),
which are its value when it is decided, so a wrong bound shows as a
failed property even where it leaves a gamma undecided.
"""

import math
import random
from itertools import combinations

import pytest

from corank.cache import DecisionCache
from corank.config import DEFAULT_CONFIG
from corank.criticalideals import gamma, generalized_laplacian
from corank.enumeration import all_trees, enumerate_connected_graphs, enumerate_digraphs
from corank.formats import canonical_graph6
from corank.graphs import induced_subgraph, is_connected
from corank.linalg import det_exact
from corank.polyring import GF, QQ, ZZ
from oracles import smith_diagonal

DOMAINS = (ZZ, QQ) + tuple(GF(p) for p in DEFAULT_CONFIG.primes)
FAMILIES = {"graphs n<=6": lambda: enumerate_connected_graphs(6),
            "digraphs n<=4": lambda: enumerate_digraphs(4),
            "trees n<=7": lambda: [t for n in range(1, 8) for t in all_trees(n)]}


@pytest.fixture(scope="module")
def tables():
    """{family: {canonical graph6: (graph, {domain name: (lower, upper)})}}: the
    certified bounds of each gamma, so that a property still compares when
    a wrong bound leaves a gamma undecided."""
    out = {}
    for name, make in FAMILIES.items():
        table = out[name] = {}
        for g in make():
            cache = DecisionCache()
            results = (gamma(g, d, DEFAULT_CONFIG, cache) for d in DOMAINS)
            table[canonical_graph6(g)] = (g, {r.domain: (r.lower, r.upper) for r in results})
    return out


@pytest.mark.parametrize("family", FAMILIES)
def test_every_gamma_is_decided(tables, family):
    for key, (_, bounds) in tables[family].items():
        assert all(lo == up for lo, up in bounds.values()), (key, bounds)


@pytest.mark.parametrize("family", FAMILIES)
def test_gamma_over_z_is_the_least_over_q_and_the_primes(tables, family):
    """gamma_Z <= gamma over each other domain, and gamma_Z >= their least."""
    for key, (_, bounds) in tables[family].items():
        lower, upper = bounds[ZZ.name]
        others = [bounds[d.name] for d in DOMAINS[1:]]
        assert all(lower <= up for _, up in others), (key, bounds)
        assert upper >= min(lo for lo, _ in others), (key, bounds)


@pytest.mark.parametrize("family", FAMILIES)
def test_gamma_over_z_is_at_most_the_unit_invariant_factors_at_the_degrees(tables, family):
    for key, (g, bounds) in tables[family].items():
        degrees = [a.bit_count() for a in g.out_adj]
        f1 = smith_diagonal(generalized_laplacian(g).evaluate(degrees)).count(1)
        assert bounds[ZZ.name][0] <= f1, (key, bounds[ZZ.name], f1)


@pytest.mark.parametrize("family", FAMILIES)
def test_gamma_never_grows_on_an_induced_subgraph(tables, family):
    """gamma(H) <= gamma(G): H's lower bound is at most G's upper bound."""
    table = tables[family]
    checked = 0
    for key, (g, bounds) in table.items():
        for size in range(1, g.n):
            for vertices in combinations(range(g.n), size):
                h = induced_subgraph(g, vertices)
                if not is_connected(h):
                    continue
                _, sub = table[canonical_graph6(h)]
                for name, (_, upper) in bounds.items():
                    assert sub[name][0] <= upper, (key, vertices, name)
                checked += 1
    assert checked > 0


def test_the_smith_diagonal_gives_the_determinantal_divisors():
    """The oracle itself: the product of its first k factors is the gcd of
    the k x k minors, on seeded small integer matrices."""
    rng = random.Random(3)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        diagonal = smith_diagonal(a)
        assert all(y % x == 0 for x, y in zip(diagonal, diagonal[1:])), a
        product = 1
        for k in range(1, min(m, n) + 1):
            divisor = 0
            for rows in combinations(range(m), k):
                for cols in combinations(range(n), k):
                    divisor = math.gcd(divisor, int(det_exact([[a[r][c] for c in cols]
                                                               for r in rows])))
            if k > len(diagonal):
                assert divisor == 0, a
                continue
            product *= diagonal[k - 1]
            assert product == divisor, (a, k)
