"""Golden pins of the Groebner engine's output.

The digests and lists below were computed with the tuple-monomial division
and Buchberger that the packed-monomial engine replaced, so they pin that
the packed engine gives the same bases, decisions, certificates, S-pair
counts and partial bases.  The cofactor items and the random rational
ideals at the end were computed with the packed engine's Fraction run over
Q, before Q's run became fraction-free.
"""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from corank.cli import main
from corank.criticalideals import (generalized_laplacian, groebner_basis_of_critical_ideal,
                                   minor_generators)
from corank.enumeration import enumerate_connected_graphs
from corank.formats import parse_graph6, write_graph6
from corank.polyring import (DEGREVLEX, GF, QQ, ZZ, BudgetExceeded, Polynomial, buchberger,
                             format_polynomial, is_trivial_over_Z, is_trivial_over_field)


def _digest(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _formatted(basis):
    return [format_polynomial(p) for p in basis.generators]


def test_every_fourth_critical_ideal_keeps_its_bases_and_z_certificate():
    # items in the order of the `ideals` benchmark at seed 0: the connected
    # graphs on <= 6 vertices, each with its indices 2..n
    items = [(g, i) for g in enumerate_connected_graphs(6) for i in range(2, g.n + 1)]
    assert len(items) == 667
    rows = []
    for g, i in items[::4]:
        z_basis, decision = groebner_basis_of_critical_ideal(g, i, ZZ)
        rows.append([write_graph6(g), i,
                     _formatted(groebner_basis_of_critical_ideal(g, i, QQ)[0]),
                     _formatted(z_basis), decision.to_json(),
                     _formatted(groebner_basis_of_critical_ideal(g, i, GF(3))[0])])
    assert len(rows) == 167
    assert _digest(rows) == "1ec25c4119d112354b728b27f0c7d0e36652366999cef23f417bca551d167825"


GB_ORDERS = {
    ("E{Sw", 4, "grlex"): ["x5^2 - x5 - 1", "x0 + x5 - 1", "x1 + x5 - 1", "x2 + x5 - 1",
                           "x3 - x5", "x4 - x5"],
    ("E{Sw", 4, "lex"): ["x0 + x5 - 1", "x1 + x5 - 1", "x2 + x5 - 1", "x3 - x5", "x4 - x5",
                         "x5^2 - x5 - 1"],
    ("D^{", 4, "grlex"): ["x0*x1*x2 + x0*x1 + x0*x2 + x1*x2 + x0 + x1",
                          "x0*x1*x3 + x0*x1 + x0*x3 + x1*x3 + x0 + x1",
                          "x0*x1*x4 + x0*x1 + x0*x4 + x1*x4 + x0 + x1",
                          "x0*x2*x4 + x0*x2 + x0*x4 + x0", "x0*x3*x4 + x0*x3 + x0*x4 + x0",
                          "x1*x2*x4 + x1*x2 + x1*x4 + x1", "x1*x3*x4 + x1*x3 + x1*x4 + x1",
                          "x2*x3 + x2*x4 + x3*x4 + 2*x2 + 2*x3 + 2*x4 + 3"],
    ("D^{", 4, "lex"): ["x0*x1*x2 + x0*x1 + x0*x2 + x0 + x1*x2 + x1",
                        "x0*x1*x3 + x0*x1 + x0*x3 + x0 + x1*x3 + x1",
                        "x0*x1*x4 + x0*x1 + x0*x4 + x0 + x1*x4 + x1",
                        "x0*x2*x4 + x0*x2 + x0*x4 + x0", "x0*x3*x4 + x0*x3 + x0*x4 + x0",
                        "x1*x2*x4 + x1*x2 + x1*x4 + x1", "x1*x3*x4 + x1*x3 + x1*x4 + x1",
                        "x2*x3 + x2*x4 + 2*x2 + x3*x4 + 2*x3 + 2*x4 + 3"],
    ("DJk", 4, "grlex"): ["x0*x1*x4 + x0*x1 + x0*x4 - x1 - 1", "x0*x3*x4 + x0*x4 - x3 - 1",
                          "x1*x3 + x1", "x2 + x3 + 2"],
    ("DJk", 4, "lex"): ["x0*x1*x4 + x0*x1 + x0*x4 - x1 - 1", "x0*x3*x4 + x0*x4 - x3 - 1",
                        "x1*x3 + x1", "x2 + x3 + 2"],
}


@pytest.mark.parametrize("g6, index, order", sorted(GB_ORDERS))
def test_gb_in_grlex_and_lex_keeps_its_basis(capsys, g6, index, order):
    assert main(["gb", "--index", str(index), "--order", order, g6]) == 0
    (payload,) = json.loads(capsys.readouterr().out)
    assert payload["order"] == order
    assert payload["field_basis"] == GB_ORDERS[g6, index, order]


# (graph6, index, k, len and digest of the partial basis at cap k - 1,
#  digest of the basis at cap k): the run over Q makes exactly k S-pairs
SPAIR_COUNTS = [
    ("DJk", 4, 3, 5, "49a8c46102738b7605d364e427835c6e31bbf314a818abe0366143d61e7e4e65",
     "df9b28edd0ad1bcb1119f7eaabb83a349f3a87c43fd8a1c60e9397360812e916"),
    ("D?{", 4, 9, 7, "bfcf9cc285e7a14d98503ba6dc158e00f6c77f035d7ad2dc4bf3241a989f4bd6",
     "3deeda6764ef6bd670c3c7b0292100b7c0025497ac110cfa4b4abff517aced16"),
    ("D^{", 4, 17, 12, "777ed8003955b0986ae13544d6b2a1650f967d069fd2d1eacf8720284a57cd0c",
     "152beddd47ae11e0e706a17944c422881351f537bf117f7bcc082c23ce2d6889"),
    ("D~{", 3, 30, 20, "42eb4a959f2f90fd53c9a29a44efffc3649ea26ff50b01ae3af039e8f1413aec",
     "3eac5d4c9c7be3ea03492818d1842e11b58cbe008b37db631c2baa75837d8fc4"),
    ("EJ^w", 4, 47, 24, "e20327cfbaf345e0b674d5673366326f18c18435c87fe0449c75fc34a9813d70",
     "d68f3b0ea50cc1eec35b4a17020b77943e833e39ccaac6ba1151cbea5da0c5e9"),
]


@pytest.mark.parametrize("g6, index, k, partial_len, partial_digest, basis_digest",
                         SPAIR_COUNTS, ids=[f"{row[0]}-{row[1]}" for row in SPAIR_COUNTS])
def test_the_spair_cap_stops_the_run_at_its_exact_count(g6, index, k, partial_len,
                                                        partial_digest, basis_digest):
    gens = [p.to_domain(QQ) for p in
            minor_generators(generalized_laplacian(parse_graph6(g6)), index).generators]
    assert _digest(_formatted(buchberger(gens, spair_cap=k))) == basis_digest
    with pytest.raises(BudgetExceeded) as exc:
        buchberger(gens, spair_cap=k - 1)
    assert exc.value.reason == "S-pair cap exceeded"
    assert len(exc.value.partial) == partial_len
    assert _digest(_formatted(exc.value.partial)) == partial_digest


# The two `ideals` items whose Z decision runs Buchberger with cofactors:
# trivial over Q, the cofactors' denominators clear to D = 2, and proper
# mod 2.  (graph6 in the enumeration's labeling, index, D, digest of the
# mod-2 basis of the certificate)
COFACTOR_ITEMS = [
    ("EK~o", 3, 2, "cd296a2e25f633f09785bee5f528b8899659f8335b05b0bf0391ee78d66060e1"),
    ("E]~o", 3, 2, "9369634096833debc4a2a1dc58bdc63adbcdcd04c134e227d8a22a2c10cbc7d2"),
]


@pytest.mark.parametrize("g6, index, d, basis_digest", COFACTOR_ITEMS,
                         ids=[row[0] for row in COFACTOR_ITEMS])
def test_a_rationally_trivial_critical_ideal_keeps_its_denominator(g6, index, d,
                                                                   basis_digest):
    gens = minor_generators(generalized_laplacian(parse_graph6(g6)), index).generators
    ok, cofactors = is_trivial_over_field([p.to_domain(QQ) for p in gens],
                                          want_cofactors=True)
    assert ok and math.lcm(*(c.denominator for h in cofactors
                             for c in h.terms.values())) == d
    ok, cert = is_trivial_over_Z(gens)
    assert not ok and cert[:2] == ("prime", 2) and cert[2].domain == GF(2)
    assert _digest(_formatted(cert[2])) == basis_digest


def _random_rational_ideal(rng):
    """Up to four generators in three variables, exponents at most 2 and up
    to four terms, as test_polyring's small_ideals, with coefficients
    +-1..4 over 1..3, so that most leading coefficients are not 1."""
    gens = []
    for _ in range(rng.randint(1, 4)):
        terms = {tuple(rng.randint(0, 2) for _ in range(3)):
                 Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 4))}
        gens.append(Polynomial(3, QQ, terms))
    return gens


def test_random_rational_ideals_keep_their_bases_and_partial_bases():
    """200 seeded ideals over Q, each run under an S-pair cap of 0 to 8:
    the reduced basis, or the budget's reason and partial basis, all monic."""
    rng = random.Random(2024)
    outcomes, capped, non_monic_inputs = [], 0, 0
    for _ in range(200):
        gens = _random_rational_ideal(rng)
        non_monic_inputs += any(g.terms[g.lead_monomial(DEGREVLEX)] != 1 for g in gens)
        try:
            basis, reason = buchberger(gens, spair_cap=rng.randint(0, 8)), None
        except BudgetExceeded as exc:
            basis, reason = exc.partial, exc.reason
            capped += 1
        assert all(p.terms[p.lead_monomial(DEGREVLEX)] == 1 for p in basis)
        outcomes.append([reason, _formatted(basis)])
    assert (capped, non_monic_inputs) == (80, 192)
    assert _digest(outcomes) == "43770af2e20bc939294c1e98111995a33a6805852fdec95a5a4c4405e85f6390"
