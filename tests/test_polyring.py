"""Division, Buchberger and triviality decisions over Q, F_p and Z."""

import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from corank import polyring
from corank.polyring import (DEGREVLEX, GRLEX, LEX, GF, QQ, ZZ, BudgetExceeded,
                             Polynomial, buchberger, format_polynomial,
                             ideals_equal, is_trivial_over_Z,
                             is_trivial_over_field, normal_form,
                             parse_polynomial)
from oracles import evaluate, ideals_equal_by_containment, key


def poly(text, nvars=3, domain=QQ):
    return parse_polynomial(text, nvars, domain)


@pytest.mark.parametrize("domain, name", [(QQ, "Q=R"), (ZZ, "Z"), (GF(7), "F7")])
def test_a_domain_names_itself_by_its_report_key(domain, name):
    assert domain.name == name
    assert domain.p == (7 if name == "F7" else None)


def test_domains_survive_pickling():
    # QQ and ZZ are compared by identity, so they unpickle to the singletons
    assert pickle.loads(pickle.dumps(QQ)) is QQ
    assert pickle.loads(pickle.dumps(ZZ)) is ZZ
    assert pickle.loads(pickle.dumps(GF(7))) == GF(7)


def test_parse_format_roundtrip():
    for text in ["x0*x1 - x1 - 2", "x2^3 + 2*x0", "5", "-x0 + 1/2"]:
        p = poly(text)
        again = parse_polynomial(format_polynomial(p), 3, QQ)
        assert again == p


def test_parse_rejects_garbage():
    from corank.polyring import PolynomialParseError
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x0 + zebra", 3)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x9", 3)


def test_normal_form_generator_reduces_to_zero():
    g1 = poly("x0*x1 + x2")
    assert normal_form(g1, [g1]).is_zero()


def test_normal_form_power_of_divisor():
    assert normal_form(poly("x0^2"), [poly("x0")]).is_zero()
    r = normal_form(poly("x0^2 + 1"), [poly("x0")])
    assert r == poly("1")


def test_normal_form_remainder_is_irreducible():
    rng = random.Random(5)
    for _ in range(250):
        f = _random_poly(rng, QQ)
        divisors = [p for p in (_random_poly(rng, QQ) for _ in range(2))
                    if not p.is_zero()]
        if not divisors:
            continue
        r = normal_form(f, divisors)
        assert normal_form(r, divisors) == r


def test_buchberger_unit_ideal():
    basis = buchberger([poly("x0"), poly("2")])
    assert basis.is_trivial()


def test_buchberger_spec_pair():
    # generators x*y and x + y reduce to the basis {x + y, y^2}
    basis = buchberger([poly("x0*x1", 2), poly("x0 + x1", 2)])
    texts = sorted(format_polynomial(p) for p in basis.generators)
    assert texts == ["x0 + x1", "x1^2"]


def test_buchberger_is_groebner_and_input_order_independent():
    rng = random.Random(11)
    for _ in range(100):
        gens = [p for p in (_random_poly(rng, QQ) for _ in range(3))
                if not p.is_zero()]
        if not gens:
            continue
        basis = buchberger(gens)
        _assert_spolys_reduce(basis)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        other = buchberger(shuffled)
        assert [key(p) for p in basis.generators] == \
            [key(p) for p in other.generators]


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _assert_spolys_reduce(basis):
    gens = basis.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            f, g = gens[i], gens[j]
            lf = f.lead_monomial(basis.order)
            lg = g.lead_monomial(basis.order)
            lcm = mono_lcm(lf, lg)
            dom = f.domain
            s = f * Polynomial(f.nvars, dom, {mono_div(lcm, lf): dom.inv(f.terms[lf])}) \
                - g * Polynomial(g.nvars, dom, {mono_div(lcm, lg): dom.inv(g.terms[lg])})
            assert normal_form(s, gens, basis.order).is_zero()


def test_division_property_over_prime_field():
    rng = random.Random(7)
    f7 = GF(7)
    for _ in range(250):
        f = _random_poly(rng, f7)
        divisors = [p for p in (_random_poly(rng, f7) for _ in range(2))
                    if not p.is_zero()]
        if not divisors:
            continue
        r = normal_form(f, divisors)
        assert normal_form(f - r, divisors).is_zero()


@st.composite
def small_ideals(draw):
    """Nonzero generators in three variables over Q or a small prime field."""
    domain = draw(st.sampled_from([QQ, GF(2), GF(3), GF(7)]))
    monomial = st.tuples(*[st.integers(0, 2)] * 3)
    terms = st.dictionaries(monomial, st.integers(-4, 4), min_size=1, max_size=4)
    gens = [Polynomial(3, domain, t) for t in draw(st.lists(terms, min_size=1, max_size=4))]
    return [g for g in gens if not g.is_zero()]


@settings(max_examples=200, deadline=None)
@given(small_ideals())
def test_buchberger_cofactors_express_every_basis_element(gens):
    basis = buchberger(gens, track_cofactors=True)
    assert len(basis.cofactors) == len(basis.generators)
    for g, cof in zip(basis.generators, basis.cofactors):
        total = Polynomial.zero(3, g.domain)
        for h, f in zip(cof, gens):
            total = total + h * f
        assert total == g


@st.composite
def scaled_rational_ideals(draw):
    """Rational generators in three variables, each with a nonzero rational
    multiplier, and an S-pair cap."""
    monomial = st.tuples(*[st.integers(0, 2)] * 3)
    coefficient = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    terms = st.dictionaries(monomial, coefficient, min_size=1, max_size=4)
    gens = [g for g in (Polynomial(3, QQ, t) for t in
                        draw(st.lists(terms, min_size=1, max_size=4))) if not g.is_zero()]
    nonzero = st.integers(-5, 5).filter(bool)
    scales = draw(st.lists(st.builds(Fraction, nonzero, st.integers(1, 5)),
                           min_size=len(gens), max_size=len(gens)))
    return gens, scales, draw(st.integers(0, 6))


def _is_monic(p, order=DEGREVLEX):
    return p.terms[p.lead_monomial(order)] == 1


@settings(max_examples=100, deadline=None)
@given(scaled_rational_ideals())
def test_scaling_the_generators_keeps_the_reduced_basis_and_every_element_monic(case):
    gens, scales, spair_cap = case
    scaled = [g * Polynomial.constant(3, QQ, c) for g, c in zip(gens, scales)]
    basis = buchberger(gens)
    assert buchberger(scaled).generators == basis.generators
    assert all(_is_monic(p) for p in basis)
    for run in (gens, scaled):
        try:
            capped = buchberger(run, spair_cap=spair_cap)
        except BudgetExceeded as exc:
            capped = exc.partial
        assert all(_is_monic(p) for p in capped)


def test_trivial_over_field_with_cofactors():
    gens = [poly("x0"), poly("x0 + 1")]
    ok, cof = is_trivial_over_field(gens, want_cofactors=True)
    assert ok
    total = Polynomial.zero(3, QQ)
    for h, g in zip(cof, gens):
        total = total + h * g
    assert total == Polynomial.constant(3, QQ, 1)


def test_a_cofactor_combination_that_misses_one_raises_under_python_O():
    """The cofactor check is a raise, not an assert, so `python -O` keeps
    it: a corrupted cofactor makes is_trivial_over_field raise."""
    code = """
import corank.polyring as polyring
from corank.polyring import QQ, Polynomial, is_trivial_over_field, parse_polynomial
run = polyring.buchberger

def corrupted(*args, **kwargs):
    basis = run(*args, **kwargs)
    basis.cofactors[0][0] = basis.cofactors[0][0] + Polynomial.constant(3, QQ, 1)
    return basis

polyring.buchberger = corrupted
gens = [parse_polynomial(t, 3, QQ) for t in ("x0", "x0 + 1")]
try:
    is_trivial_over_field(gens, want_cofactors=True)
except AssertionError as exc:
    print(exc)
"""
    src = Path(polyring.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout
    assert out == "cofactor expansion must reproduce 1\n"


def test_trivial_over_Z_examples():
    # difference of the generators is 1
    ok, cert = is_trivial_over_Z([poly("x0", 3, ZZ), poly("x0 + 1", 3, ZZ)])
    assert ok and cert[0] == "denominator"
    # common zero x = 0 over F_5
    ok, cert = is_trivial_over_Z([poly("5", 3, ZZ), poly("x0", 3, ZZ)])
    assert not ok and cert[:2] == ("prime", 5)
    # all variables plus an even constant: 2 is not a unit
    gens = [poly(f"x{i}", 6, ZZ) for i in range(6)] + [poly("2", 6, ZZ)]
    ok, cert = is_trivial_over_Z(gens)
    assert not ok and cert[:2] == ("prime", 2)


def test_trivial_over_field_of_zero_generators_keeps_their_domain():
    for dom in (GF(3), QQ):
        ok, basis = is_trivial_over_field([Polynomial.zero(2, dom)])
        assert not ok and basis.generators == [] and basis.domain == dom


@pytest.mark.parametrize("texts, head", [(["5", "x0"], ("prime", 5)),
                                         (["x0", "x0 + 1"], ("denominator", 1)),
                                         (["2", "3"], ("denominator", 2))])
def test_trivial_over_Z_certificate_of_a_rationally_trivial_ideal(texts, head):
    """The denominator D clears a cofactor combination that
    is_trivial_over_field verifies; D's primes decide the rest."""
    gens = [poly(t, 3, ZZ) for t in texts]
    ok, cert = is_trivial_over_Z(gens)
    assert cert[:2] == head and ok is (head[0] == "denominator")
    okq, cofactors = is_trivial_over_field([g.to_domain(QQ) for g in gens],
                                           want_cofactors=True)
    d = 1
    for h in cofactors:
        for c in h.terms.values():
            d = d * c.denominator // gcd(d, c.denominator)
    assert okq and d % head[1] == 0
    if ok:
        assert d == head[1]


def test_a_large_prime_denominator_stops_at_the_factoring_cap():
    """<2^61 - 1> is trivial over Q with the prime 2^61 - 1 as its cofactor
    denominator, about 7.6e8 trial divisions to factor: the factoring cap
    stops it with the basis {1} over Q, within the second a timer allows."""
    import signal

    def expire(signum, frame):
        raise TimeoutError("still factoring after 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(BudgetExceeded) as info:
            is_trivial_over_Z([Polynomial.constant(1, ZZ, 2**61 - 1)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert info.value.reason == "factoring cap exceeded"
    assert info.value.partial.generators == [Polynomial.constant(1, QQ, 1)]
    # a denominator under the cap is still factored: 1000003 is prime
    assert is_trivial_over_Z([Polynomial.constant(1, ZZ, 1000003)])[1][:2] == ("prime",
                                                                               1000003)


_KATSURA = ["x0^2 + x1^2 + x2^2 - 1", "x0*x1 + x1*x2", "x0 + 2*x1 + x2"]
_TRIVIAL_OVER_Q = ["x0*x1 - 1", "x0^2 - x1", "x1^2 - 2*x0"]


@pytest.mark.parametrize("texts", [_KATSURA, _TRIVIAL_OVER_Q])
@pytest.mark.parametrize("spair_cap, degree_cap", [(0, 30), (1, 30), (2, 30), (3, 30),
                                                   (50000, 1)])
def test_trivial_over_Z_runs_out_of_budget_as_the_cofactor_run_does(texts, spair_cap,
                                                                    degree_cap):
    """Deciding over Q without cofactors first runs the same S-pairs, so a
    budget stops it with the same reason and the same partial basis."""
    gens = [poly(t, 3, ZZ) for t in texts]

    def outcome(run):
        try:
            run()
        except BudgetExceeded as exc:
            return exc.reason, [format_polynomial(p) for p in exc.partial]
        return None

    want = outcome(lambda: buchberger([g.to_domain(QQ) for g in gens], DEGREVLEX,
                                      spair_cap, degree_cap, track_cofactors=True))
    assert outcome(lambda: is_trivial_over_Z(gens, DEGREVLEX, spair_cap,
                                             degree_cap)) == want


@st.composite
def small_integer_ideals(draw):
    """Integer generators in one to three variables, degree at most 2 in each."""
    nvars = draw(st.integers(1, 3))
    monomial = st.tuples(*[st.integers(0, 2)] * nvars)
    terms = st.dictionaries(monomial, st.integers(-6, 6), min_size=1, max_size=3)
    return [Polynomial(nvars, ZZ, t) for t in draw(st.lists(terms, min_size=1, max_size=3))]


def _trivial_over(gens, domain):
    return is_trivial_over_field([g.to_domain(domain) for g in gens])[0]


@settings(max_examples=150, deadline=None)
@given(small_integer_ideals())
def test_trivial_over_Z_agrees_with_the_field_decisions(gens):
    ok, cert = is_trivial_over_Z(gens)
    if ok:
        assert _trivial_over(gens, QQ)
        assert all(_trivial_over(gens, GF(p)) for p in (2, 3, 5, 7))
    elif cert[0] == "prime":
        assert _trivial_over(gens, QQ) and not _trivial_over(gens, GF(cert[1]))
    else:
        assert cert[0] == "rational-basis" and not _trivial_over(gens, QQ)


def test_budget_error_carries_partial_state():
    # katsura-like system that needs more than one S-pair
    gens = [poly("x0^2 + x1^2 + x2^2 - 1"), poly("x0*x1 + x1*x2"),
            poly("x0 + 2*x1 + x2")]
    with pytest.raises(BudgetExceeded) as err:
        buchberger(gens, spair_cap=1)
    assert err.value.partial is not None


def test_degrevlex_vs_lex_disagree_when_expected():
    # x0^2 vs x1^3: degrevlex ranks by degree, lex by the first variable
    p = poly("x0^2 + x1^3")
    assert p.lead_monomial(DEGREVLEX) == (0, 3, 0)
    assert p.lead_monomial(LEX) == (2, 0, 0)
    assert p.lead_monomial(GRLEX) == (0, 3, 0)


def test_ideals_equal_by_reduced_basis_identity():
    a = buchberger([poly("x0 + x1", 2), poly("x1^2", 2)])
    assert ideals_equal(a, buchberger([poly("x0*x1", 2), poly("x0 + x1", 2)]))
    assert not ideals_equal(a, buchberger([poly("x0", 2)]))
    with pytest.raises(ValueError):
        ideals_equal(a, buchberger([poly("x0 + x1", 2), poly("x1^2", 2)], LEX))
    with pytest.raises(ValueError):
        ideals_equal(a, polyring.IdealBasis(a.generators, QQ, DEGREVLEX))


def _recombined(rng, gens):
    """Another generating set of the same ideal: the generators shuffled,
    scaled by units, and each plus a monomial multiple of the one before."""
    out = gens[:]
    rng.shuffle(out)
    dom = out[0].domain
    for k in range(len(out)):
        out[k] = out[k] * Polynomial.constant(3, dom, rng.choice((1, 2, -1)))
        if k:
            mono = tuple(rng.randint(0, 1) for _ in range(3))
            out[k] = out[k] + out[k - 1] * Polynomial(3, dom, {mono: rng.randint(1, 2)})
    return out


def test_ideals_equal_agrees_with_mutual_containment():
    # seeded small ideals over Q and F_3; a draw whose run passes the S-pair
    # cap is replaced by the next seed
    outcomes, seed = [], 0
    while len(outcomes) < 200:
        seed += 1
        rng = random.Random(seed)
        domain = (QQ, GF(3))[seed % 2]
        order, other_order = rng.sample([DEGREVLEX, GRLEX, LEX], 2)
        gens = [p for p in (_random_poly(rng, domain) for _ in range(3)) if not p.is_zero()]
        if len(gens) < 2:
            continue
        try:
            basis = buchberger(gens, order, spair_cap=20)
            same = buchberger(_recombined(rng, gens), order, spair_cap=20)
            dropped = buchberger(gens[1:], order, spair_cap=20)
            reordered = buchberger(gens, other_order, spair_cap=20)
        except BudgetExceeded:
            continue
        assert ideals_equal(basis, same) and ideals_equal_by_containment(basis, same)
        equal = ideals_equal(basis, dropped)
        assert equal == ideals_equal_by_containment(basis, dropped)
        with pytest.raises(ValueError):
            ideals_equal(basis, reordered)
        outcomes.append(equal)
    assert 0 < sum(outcomes) < len(outcomes)


def test_evaluate():
    p = poly("x0*x1 - 2*x2 + 3")
    assert evaluate(p, [Fraction(1), Fraction(2), Fraction(1)]) == Fraction(3)


def _random_poly(rng, domain, nvars=3, max_terms=4, max_deg=2):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        coeff = rng.randint(-4, 4)
        terms[mono] = terms.get(mono, 0) + coeff
    return Polynomial(nvars, domain, terms)


@st.composite
def packed_monomials(draw):
    """An order, a field width, and two exponent vectors whose degrees reach
    up to the largest value a field holds."""
    order = draw(st.sampled_from([LEX, GRLEX, DEGREVLEX]))
    nvars = draw(st.integers(1, 5))
    width = draw(st.integers(2, 7))
    vmax = (1 << width - 1) - 1

    def monomial():
        exps = draw(st.lists(st.integers(0, vmax), min_size=nvars, max_size=nvars))
        while sum(exps) > vmax:
            exps[exps.index(max(exps))] -= 1
        return tuple(exps)
    return polyring._Packing(nvars, order, width), order, monomial(), monomial()


@settings(max_examples=400, deadline=None)
@given(packed_monomials())
def test_packed_arithmetic_agrees_with_exponent_tuples(case):
    pk, order, a, b = case
    pa, pb = pk.pack(a), pk.pack(b)
    assert pk.unpack(pa) == a and pk.degree(pa) == sum(a)
    # product: one addition, which sets a guard bit exactly when it overflows
    product = tuple(x + y for x, y in zip(a, b))
    if sum(product) <= pk.vmax:
        assert pk.unpack(pa + pb) == product and not (pa + pb) & pk.guard
    else:
        assert (pa + pb) & pk.guard
    # divisibility, and the quotient of a divisible pair
    divides = all(x <= y for x, y in zip(a, b))
    assert (not (pb - pa) & pk.guard) == divides
    if divides:
        assert pk.unpack(pb - pa) == mono_div(b, a) and pk.degree(pb - pa) == sum(b) - sum(a)
    # lcm, which overflows only through its degree
    lcm = mono_lcm(a, b)
    if sum(lcm) <= pk.vmax:
        assert pk.lcm(pa, pb) == pk.pack(lcm)
    else:
        with pytest.raises(polyring._Overflow):
            pk.lcm(pa, pb)
    # the key: packed ints compare as the order's tuple keys do
    assert ((pa ^ pk.flip) < (pb ^ pk.flip)) == (order.key(a) < order.key(b))
    # the seed key is degrevlex in every order, and the packed int in degrevlex
    ka, kb = pk.degrevlex_key(a), pk.degrevlex_key(b)
    assert (ka < kb) == (DEGREVLEX.key(a) < DEGREVLEX.key(b))
    assert order != DEGREVLEX or (ka, kb) == (pa ^ pk.flip, pb ^ pk.flip)
    assert (pa == pb) == (a == b)


@st.composite
def lcm_cases(draw):
    """A packing at the narrowest width that holds a drawn degree (the
    width a run starts at) or at twice it (the width of its restart), and
    two exponent vectors of degree at most the field maximum."""
    order = draw(st.sampled_from([LEX, GRLEX, DEGREVLEX]))
    nvars = draw(st.integers(1, 12))
    degree = draw(st.integers(1, 60))
    width = (degree.bit_length() + 1) * draw(st.sampled_from([1, 2]))
    pk = polyring._Packing(nvars, order, width)

    def monomial():
        exps = draw(st.lists(st.integers(0, pk.vmax), min_size=nvars, max_size=nvars))
        while sum(exps) > pk.vmax:
            exps[exps.index(max(exps))] //= 2
        return tuple(exps)
    return pk, monomial(), monomial()


@settings(max_examples=400, deadline=None)
@given(lcm_cases())
def test_lcm_folds_its_degree_exactly_and_overflows_only_past_the_field(case):
    """lcm reads the sum of its variable fields e as e mod 2^width - 1.
    That is exact for every lcm of two packed monomials, overflowing ones
    included, and lcm raises _Overflow exactly when that sum passes vmax,
    as summing the unpacked fields did."""
    pk, a, b = case
    lcm = mono_lcm(a, b)
    e = sum(x << s for x, s in zip(lcm, pk.shifts))   # the variable fields alone
    assert e % pk.fold == sum(pk.unpack(e)) == sum(lcm)
    if sum(lcm) > pk.vmax:
        with pytest.raises(polyring._Overflow):
            pk.lcm(pk.pack(a), pk.pack(b))
    else:
        packed = pk.lcm(pk.pack(a), pk.pack(b))
        assert packed == pk.pack(lcm) and pk.degree(packed) == sum(pk.unpack(packed))


@pytest.fixture
def packing_widths(monkeypatch):
    """The field width of every packed layout made while the test runs."""
    widths = []

    class Recorded(polyring._Packing):
        def __init__(self, nvars, order, width):
            widths.append(width)
            super().__init__(nvars, order, width)
    monkeypatch.setattr(polyring, "_Packing", Recorded)
    return widths


def _lex(*texts):
    return [poly(t) for t in texts]


def test_a_lex_basis_whose_reduction_outgrows_the_width_restarts_to_the_same_basis(
        packing_widths):
    # reducing x0^13 by x0 - x1^5 passes through x1^65, past the 63 that
    # the starting width (from degree cap 30) holds
    basis = buchberger(_lex("x0 - x1^5 - x2", "x1^6", "x0^13"), LEX)
    assert packing_widths == [7, 14]
    assert [format_polynomial(p, LEX) for p in basis] == \
        ["x0 - x1^5 - x2", "x1^6", "x1^5*x2^12 + 1/13*x2^13", "x1*x2^13", "x2^14"]


def test_a_restarted_run_hits_its_degree_cap_with_the_same_partial_basis(packing_widths):
    with pytest.raises(BudgetExceeded) as exc:
        buchberger(_lex("x0 - x1^5 + x2", "x1^6 - x2^6", "x0^13"), LEX)
    assert packing_widths == [7, 14]
    assert exc.value.reason == "degree cap exceeded"
    assert [format_polynomial(p, LEX) for p in exc.value.partial] == \
        ["x0 - x1^5 + x2", "x1^6 - x2^6"]


def test_cofactors_that_outgrow_the_width_restart_to_the_same_cofactors(packing_widths):
    gens = _lex("x0 - x1^5 + 1", "x1^6 - x1", "x0^13 - x0 + 1")
    ok, cofactors = is_trivial_over_field(gens, LEX, want_cofactors=True)
    assert ok and packing_widths[:2] == [7, 14]
    text = json.dumps([format_polynomial(h, LEX) for h in cofactors])
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "1eaed79198558511d85ac4e0e24179a787b1eb795a8087a3c8666c52b10086f0"


def test_a_lex_normal_form_that_outgrows_the_width_restarts(packing_widths):
    r = normal_form(poly("x0^13"), _lex("x0 - x1^5", "x1^5 - x2"), LEX)
    assert packing_widths == [5, 10]
    assert r == poly("x2^13")
