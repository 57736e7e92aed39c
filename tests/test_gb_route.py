"""``groebner_basis_of_critical_ideal`` gives what the route that always
scans minors gives (``oracles.groebner_basis_by_minor_scan``), at every
index, where the zero forcing certificate's rule or the principal rule at
i = n answers and where neither does: the formatted basis, its coefficient
types, domain and Groebner flag and, over Z, the decision; or the same
budget stop with a partial basis of the same length.

On the 143 connected graphs with n <= 6 in a seeded relabeling and on the
digraphs with n <= 4, over Z, Q, F_2 and F_3, at the default caps and at
degree_cap = 1 (where a field's seeds of degree > 1 stop before the +-1
minor, and det's degree n > 1 stops every route at i = n), in degrevlex,
and in lex and grlex at i = n and at every fifth index.
"""


from collections import Counter

import pytest

from corank import criticalideals
from corank.config import DEFAULT_CONFIG, RunConfig
from corank.criticalideals import (TrivialityDecision, _subset_masks, generalized_laplacian,
                                   groebner_basis_of_critical_ideal, minor_generators)
from corank.enumeration import enumerate_connected_graphs, enumerate_digraphs
from corank.polyring import DEGREVLEX, GF, GRLEX, LEX, QQ, ZZ, BudgetExceeded, format_polynomial
from corank.zeroforcing import zero_forcing_number
from oracles import groebner_basis_by_minor_scan, relabeled


SETS = {"graphs n<=6 relabeled": lambda: relabeled(enumerate_connected_graphs(6), 29),
        "digraphs n<=4": lambda: enumerate_digraphs(4)}
DOMAINS = (ZZ, QQ, GF(2), GF(3))
CONFIGS = (DEFAULT_CONFIG, RunConfig(degree_cap=1))


def _outcome(route, g, i, domain, order, config):
    try:
        basis, decision = route(g, i, domain, order, config)
    except BudgetExceeded as exc:
        return "budget", exc.reason, len(exc.partial)
    return ([format_polynomial(p, order) for p in basis.generators],
            [type(c) for p in basis.generators for c in p.terms.values()],
            basis.domain, basis.is_groebner, decision)


@pytest.mark.parametrize("name", SETS)
def test_gb_equals_the_minor_scan_route_at_every_index(name):
    ruled = scanned = principal = past_cap = 0
    stride = 0
    for g in SETS[name]():
        below = g.n - zero_forcing_number(g).z
        for i in range(1, g.n + 1):
            stride += 1
            orders = ((DEGREVLEX, LEX, GRLEX) if stride % 5 == 0 or i == g.n
                      else (DEGREVLEX,))
            for domain in DOMAINS:
                for config in CONFIGS:
                    for order in orders:
                        got = _outcome(groebner_basis_of_critical_ideal, g, i, domain,
                                       order, config)
                        want = _outcome(groebner_basis_by_minor_scan, g, i, domain, order,
                                        config)
                        assert got == want, (g, i, domain, config, order)
                        if i <= below and (domain is ZZ or i <= config.degree_cap):
                            ruled += 1
                        elif i <= below:
                            scanned += 1
                        elif i == g.n <= config.degree_cap:
                            principal += 1
                        elif i == g.n:
                            assert got[0] == "budget"
                            past_cap += 1
    # the certificate rule answered, and a field past degree_cap kept the
    # scan; the principal rule answered, and past degree_cap the scan route
    # stopped at its budget
    assert ruled > 0 and scanned > 0 and principal > 0 and past_cap > 0


@pytest.mark.parametrize("name", SETS)
def test_gb_at_n_scans_no_minor_and_a_scan_classifies_each_minor_once(name, monkeypatch):
    """At i = n, groebner_basis_of_critical_ideal calls neither
    minor_generators nor buchberger nor is_trivial_over_Z; past degree_cap
    it makes exactly one scan.  A full scan computes _sign_key once per
    nonzero minor, and MinorGenerators.kept computes it no more."""
    calls = Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper
    for fn in ("minor_generators", "buchberger", "is_trivial_over_Z", "_sign_key"):
        monkeypatch.setattr(criticalideals, fn, counted(getattr(criticalideals, fn)))
    full_scans = 0
    for g in SETS[name]():
        for domain in DOMAINS:
            calls.clear()
            groebner_basis_of_critical_ideal(g, g.n, domain)
            assert not calls, (g, domain)
            if g.n > 1:
                with pytest.raises(BudgetExceeded):
                    groebner_basis_of_critical_ideal(g, g.n, domain,
                                                     config=RunConfig(degree_cap=g.n - 1))
                assert calls["minor_generators"] == 1, (g, domain)
        for i in range(1, g.n + 1):
            L = generalized_laplacian(g)
            calls.clear()
            gens = criticalideals.minor_generators(L, i)
            if gens.unit_minor is not None:
                continue
            full_scans += 1
            subsets = _subset_masks(g.n, i)
            nonzero = sum(1 for k, r in enumerate(subsets)
                          for c in (subsets[k:] if L.symmetric else subsets)
                          if not L.minor(r, c).is_zero())
            assert calls["_sign_key"] == nonzero == len(gens.classes), (g, i)
            gens.kept()
            assert calls["_sign_key"] == nonzero, (g, i)
    assert full_scans > 0


def test_z_decides_a_unit_stopped_scan_from_the_unit_alone(monkeypatch):
    """Over Z, after a minor scan stopped at a +-1 minor, _groebner hands
    is_trivial_over_Z that minor alone, and the decision and the basis over
    Q are those of the full list; on the 143 graphs at every index past
    n - Z whose scan stops at a unit."""
    handed = []
    decide = criticalideals.is_trivial_over_Z
    monkeypatch.setattr(criticalideals, "is_trivial_over_Z",
                        lambda gens, *rest: handed.append(gens) or decide(gens, *rest))
    stopped = 0
    for g in enumerate_connected_graphs(6):
        for i in range(g.n - zero_forcing_number(g).z + 1, g.n + 1):
            gens = minor_generators(generalized_laplacian(g), i)
            if gens.unit_minor is None:
                continue
            stopped += 1
            basis, decision = criticalideals._groebner(gens, ZZ, DEGREVLEX, DEFAULT_CONFIG)
            assert [p.terms for p in handed[-1]] == [{(0,) * g.n: gens.unit_minor[2]}]
            full = decide(gens.generators)
            assert decision == TrivialityDecision(full[0], "groebner",
                                                  criticalideals._describe_z_cert(full[1]))
            assert [p.terms for p in basis.generators] == [{(0,) * g.n: 1}]
    assert stopped > 0
