"""Exact multivariate polynomial arithmetic and Buchberger's algorithm.

Coefficient domains: arbitrary-precision rationals (QQ), the integers (ZZ,
for holding expanded minors and certificates), and prime fields GF(p).
Everything is exact; no floating point enters any ideal decision.

Division and Buchberger run on packed-int monomials.  Over F_p a Groebner
run keeps its basis monic; over Q it is fraction-free: primitive integer
polynomials with positive leading coefficients, reduced by pseudo-division
(Geddes, Czapor and Labahn, Algorithms for Computer Algebra, 1992, ch. 2),
and made monic, with Fraction coefficients, only where the run hands a
polynomial out.  Integer generators go into a Q run as they are.  A run
packs each generator once and seeds the generators in one order whatever
the run's: each generator's terms sorted in degrevlex, then the sequences
of (term, coefficient) pairs compared.  Each term's degrevlex key is an int
of the degrevlex layout at the run's width, and in a degrevlex run that
int, unflipped, is the packed monomial.
"""

import heapq
import math
import operator
import re
from fractions import Fraction
from math import gcd

from .config import FACTOR_DIVISION_CAP, RunConfig


class DomainMismatch(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    """A Buchberger run went over its S-pair or degree cap, or a Z decision
    over its factoring cap.

    Carries the partial basis so callers can report an explicit
    "undecided" status instead of a silent wrong answer.
    """

    def __init__(self, reason, partial):
        super().__init__(reason)
        self.reason = reason
        self.partial = partial


# ---------------------------------------------------------------------------
# coefficient domains
#
# A domain names itself (`name`, the key reports print) and carries the
# prime of its rank scans (`p`: None over Q and Z, whose ranks are over Q).

class _Numbers:
    """Q or Z, in Python's own arithmetic.  Each is one instance, compared
    by identity: the module global its repr names, which it unpickles to."""

    p = None
    add = staticmethod(operator.add)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    def __repr__(self):
        return self._global

    def __reduce__(self):
        return self._global


class _Rationals(_Numbers):
    name = "Q=R"    # a trivial ideal over Q is one over R
    is_field = True
    _global = "QQ"

    def coerce(self, c):
        return c if isinstance(c, Fraction) else Fraction(c)

    def inv(self, a):
        return 1 / self.coerce(a)

    def is_unit(self, a):
        return a != 0


class _Integers(_Numbers):
    name = "Z"
    is_field = False
    _global = "ZZ"

    def coerce(self, c):
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise DomainMismatch(f"{c} is not an integer")
            return c.numerator
        return int(c)

    def is_unit(self, a):
        return a in (1, -1)


def is_prime(p):
    return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


class GF:
    """Prime field of order p, elements stored as ints in [0, p)."""

    is_field = True

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def coerce(self, c):
        if isinstance(c, Fraction):
            num = c.numerator % self.p
            den = c.denominator % self.p
            if den == 0:
                raise DomainMismatch(f"denominator of {c} vanishes mod {self.p}")
            return num * pow(den, self.p - 2, self.p) % self.p
        return int(c) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse mod {self.p}")
        return pow(a, self.p - 2, self.p)

    def is_unit(self, a):
        return a % self.p != 0

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = _Rationals()
ZZ = _Integers()


def check_domain(domain):
    """The domain itself; anything but QQ, ZZ or a GF(p) is a ValueError."""
    if not isinstance(domain, (_Numbers, GF)):
        raise ValueError(f"unsupported domain {domain!r}")
    return domain


# ---------------------------------------------------------------------------
# monomial orders
#
# A Polynomial keys its terms by exponent tuples, one exponent per variable.
# `graded` and `reverse` describe an order, to key(mono) and to the packed
# layout below: a graded order compares total degrees first, and a reverse
# order breaks ties by the smaller exponent of the last variable where two
# monomials differ.  Bigger key means bigger monomial, so
# max(terms, key=order.key) is the leading monomial.

class MonomialOrder:
    def __init__(self, name, graded, reverse):
        self.name = name
        self.graded = graded
        self.reverse = reverse

    def key(self, m):
        tie = tuple(-e for e in reversed(m)) if self.reverse else m
        return (sum(m), tie) if self.graded else tie

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and other.name == self.name

    def __hash__(self):
        return hash(self.name)


LEX = MonomialOrder("lex", graded=False, reverse=False)
GRLEX = MonomialOrder("grlex", graded=True, reverse=False)
DEGREVLEX = MonomialOrder("degrevlex", graded=True, reverse=True)

ORDERS = {"lex": LEX, "grlex": GRLEX, "degrevlex": DEGREVLEX}


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# packed monomials
#
# Division and Buchberger run on monomials packed into one int each: one
# field per variable and one for the total degree, every field `width` bits
# with its top bit a guard bit that no value sets.  Then
#   - the product of two monomials is the sum of their ints;
#   - a divides b iff (b - a) & guard == 0: a field of b below a's borrows
#     into its guard bit;
#   - m ^ flip is the order's key: those ints compare as the order does.
# A graded order keeps the degree in the top field, lex in the bottom one.
# x0 has the highest variable field and the last variable the lowest,
# except in a reverse order: there the fields run the other way and flip
# XORs all their bits, so that among monomials of one degree a larger last
# exponent gives a smaller key.
#
# A field holds values below 2^(width-1).  The degree field bounds every
# exponent field, so a product overflows only if its degree does.  The
# width is chosen from the input degrees and the degree cap; a product that
# would set a guard bit raises _Overflow instead, and the run restarts at
# twice the width.  Nothing in a run depends on the width, so the restarted
# run gives the same result.

class _Overflow(Exception):
    """A packed product would set a guard bit."""


def _fields(nvars, order, width):
    """The order's layout at this width: the variable field shifts, the
    degree field's shift, the pack weights and the key flip."""
    low = 0 if order.graded else 1
    slots = range(low, low + nvars)
    if not order.reverse:
        slots = reversed(slots)
    shifts = [width * s for s in slots]
    deg_shift = width * nvars if order.graded else 0
    # a variable's exponent counts once in its field and once in the degree
    weights = [(1 << s) + (1 << deg_shift) for s in shifts]
    flip = ((1 << width * nvars) - 1) << width * low if order.reverse else 0
    return shifts, deg_shift, weights, flip


class _Packing:
    """The packed layout of one run: the field shifts, masks and key flip."""

    def __init__(self, nvars, order, width):
        self.bits = bits = width - 1
        self.vmax = (1 << bits) - 1
        self.fold = (1 << width) - 1
        self._unpacked = {}     # packed monomial -> exponent tuple, for this run
        self.shifts, self.deg_shift, self.weights, self.flip = _fields(nvars, order, width)
        # the seed order sorts terms in degrevlex whatever the run's order:
        # the weights and flip of that sort at this width
        self.key_weights, self.key_flip = ((self.weights, self.flip) if order == DEGREVLEX
                                           else _fields(nvars, DEGREVLEX, width)[2:])
        self.guard = sum(1 << width * s + bits for s in range(nvars + 1))
        self.var_guard = self.guard & ~(1 << self.deg_shift + bits)
        self.vals = self.var_guard - (self.var_guard >> bits)   # variable value bits

    def pack(self, mono):
        if sum(mono) > self.vmax:
            raise _Overflow
        return sum(map(operator.mul, mono, self.weights))

    def degrevlex_key(self, mono):
        """mono's degrevlex key as an int; in a degrevlex run, its packed int
        with the flip applied."""
        if sum(mono) > self.vmax:
            raise _Overflow
        return sum(map(operator.mul, mono, self.key_weights)) ^ self.key_flip

    def unpack(self, m):
        mono = self._unpacked.get(m)
        if mono is None:
            vmax = self.vmax
            mono = self._unpacked[m] = tuple(m >> s & vmax for s in self.shifts)
        return mono

    def degree(self, m):
        return m >> self.deg_shift & self.vmax

    def lcm(self, a, b):
        """The packed lcm of two packed monomials.  Its degree is the sum of
        its variable fields, read as e mod 2^width - 1, since 2^width is 1
        there: exact, because it is at most deg a + deg b <= 2 vmax =
        2^width - 2."""
        guard = self.var_guard
        a &= self.vals
        b &= self.vals
        ge = ((a | guard) - b) & guard      # guard bits of the fields where a >= b
        mask = ge - (ge >> self.bits)       # the value bits of those fields
        e = a & mask | b & ~mask
        d = e % self.fold
        if d > self.vmax:
            raise _Overflow
        return e | d << self.deg_shift


def _widening(nvars, order, degree, run):
    """run(packing) at the narrowest width that holds `degree`, doubled
    until no product overflows."""
    width = max(degree, 1).bit_length() + 1
    while True:
        try:
            return run(_Packing(nvars, order, width))
        except _Overflow:
            width *= 2


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    """Sparse polynomial: dict monomial -> nonzero coefficient.

    Instances are treated as immutable values; all operations return new
    polynomials.  The zero polynomial has an empty term dict.
    """

    __slots__ = ("nvars", "domain", "terms")

    def __init__(self, nvars, domain, terms=None, _clean=False):
        self.nvars = nvars
        self.domain = domain
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            clean = {}
            for m, c in terms.items():
                c = domain.coerce(c)
                if c != 0:
                    clean[tuple(m)] = c
            self.terms = clean

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, nvars, domain):
        return cls(nvars, domain, {}, _clean=True)

    @classmethod
    def constant(cls, nvars, domain, c):
        c = domain.coerce(c)
        if c == 0:
            return cls.zero(nvars, domain)
        return cls(nvars, domain, {(0,) * nvars: c}, _clean=True)

    # -- basic queries -----------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * self.nvars, self.domain.coerce(0))

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def lead_monomial(self, order):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=order.key)

    # -- arithmetic ----------------------------------------------------------
    def _check(self, other):
        if self.nvars != other.nvars or self.domain != other.domain:
            raise DomainMismatch("incompatible polynomials")

    def __add__(self, other):
        self._check(other)
        res = dict(self.terms)
        add = self.domain.add
        for m, c in other.terms.items():
            s = add(res.get(m, 0), c)
            if s == 0:
                res.pop(m, None)
            else:
                res[m] = s
        return Polynomial(self.nvars, self.domain, res, _clean=True)

    def __neg__(self):
        neg = self.domain.neg
        return Polynomial(self.nvars, self.domain,
                          {m: neg(c) for m, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        mul, add = self.domain.mul, self.domain.add
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = add(res.get(m, 0), mul(c1, c2))
                if s == 0:
                    res.pop(m, None)
                else:
                    res[m] = s
        return Polynomial(self.nvars, self.domain, res, _clean=True)

    def to_domain(self, domain):
        return Polynomial(self.nvars, domain,
                          {m: domain.coerce(c) for m, c in self.terms.items()})

    # -- comparisons ---------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.nvars == other.nvars
                and self.domain == other.domain and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)})"


# ---------------------------------------------------------------------------
# text form: "x0*x1 - x1 - 2", powers as "x5^2"

def format_polynomial(p, order=DEGREVLEX):
    if p.is_zero():
        return "0"
    names = [f"x{i}" for i in range(p.nvars)]
    out = []
    for m in sorted(p.terms, key=order.key, reverse=True):
        c = p.terms[m]
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append(f"{names[i]}^{e}")
        body = "*".join(factors)
        neg = c < 0  # field elements mod p are stored in [0, p)
        cc = -c if neg else c
        if body and cc == 1:
            text = body
        elif body:
            text = f"{cc}*{body}"
        else:
            text = f"{cc}"
        if not out:
            out.append(f"-{text}" if neg else text)
        else:
            out.append(f"- {text}" if neg else f"+ {text}")
    return " ".join(out)


class PolynomialParseError(ValueError):
    pass


def parse_polynomial(text, nvars, domain=ZZ):
    """Parse the text form produced by format_polynomial.

    Accepts integer or rational coefficients, '*' products, '^' or '**'
    powers and variables named x<i>.
    """
    s = text.replace("**", "^").replace(" ", "")
    if not s:
        raise PolynomialParseError("empty polynomial text")
    # split into signed term strings
    chunks = re.findall(r"[+-]?[^+-]+", s)
    if "".join(chunks) != s:
        raise PolynomialParseError(f"cannot tokenize {text!r}")
    terms = {}
    for chunk in chunks:
        sign = 1
        body = chunk
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:]
        if not body:
            raise PolynomialParseError(f"dangling sign in {text!r}")
        coeff = Fraction(sign)
        expo = [0] * nvars
        for factor in body.split("*"):
            m = re.fullmatch(r"x(\d+)(?:\^(\d+))?", factor)
            if m:
                idx, e = int(m.group(1)), int(m.group(2) or 1)
                if idx >= nvars:
                    raise PolynomialParseError(f"variable x{idx} out of range")
                expo[idx] += e
                continue
            m = re.fullmatch(r"(\d+)(?:/(\d+))?", factor)
            if m:
                if m.group(2) and not int(m.group(2)):
                    raise PolynomialParseError(f"zero denominator in {text!r}")
                coeff *= Fraction(int(m.group(1)), int(m.group(2) or 1))
                continue
            raise PolynomialParseError(f"bad factor {factor!r} in {text!r}")
        mono = tuple(expo)
        prev = terms.get(mono, Fraction(0))
        terms[mono] = prev + coeff
    return Polynomial(nvars, QQ, terms).to_domain(domain)


# ---------------------------------------------------------------------------
# division

def _divisor(head, lead, tail, dom):
    """A divisor as _reduce reads it: its packed leading monomial, its
    leading coefficient, and its other terms with their coefficients
    negated."""
    neg = dom.neg
    return head, lead, [(m, neg(c)) for m, c in tail]


def _reduce(terms, divisors, pk, dom, quots=None):
    """Multivariate division of a packed term dict by the divisors.

    Each step reduces the leading term by the first divisor whose leading
    monomial divides it; terms no divisor reduces move to the remainder.
    The terms still to reduce sit in a dict and a max-heap of their keys;
    a key whose term cancelled stays in the heap and is skipped when popped.

    A divisor's leading coefficient a is 1, or a positive int in Q's
    fraction-free run, whose terms are ints.  Before a term c is reduced by
    a divisor with a != 1, the terms still to reduce, the remainder and the
    quotients are scaled by a / gcd(a, c), so no fraction arises.

    Returns (remainder, scale): the remainder as a term dict in descending
    order, so its leading term comes first, and the product of the
    scalings: scale * terms = sum of quotient_k * divisor_k + remainder.
    With quots (one dict per divisor), adds each quotient term to its
    divisor's dict.
    """
    heappop, heappush = heapq.heappop, heapq.heappush
    add, mul = dom.add, dom.mul
    guard, flip = pk.guard, pk.flip
    heads = [d[0] for d in divisors]
    todo = dict(terms)
    heap = [-(m ^ flip) for m in todo]
    heapq.heapify(heap)
    rem = {}
    scale = 1
    while heap:
        m = -heappop(heap) ^ flip
        c = todo.pop(m, None)
        if c is None:
            continue
        for k, h in enumerate(heads):
            if not (m - h) & guard:
                break
        else:
            rem[m] = c
            continue
        q = m - h
        _, a, tail = divisors[k]
        if a != 1:
            g = gcd(a, c)
            f = a // g
            c //= g
            if f != 1:
                scale *= f
                for part in [todo, rem] + (quots or []):
                    for t in part:
                        part[t] *= f
        if quots is not None:
            # leading monomials strictly decrease, so q is new for divisor k
            quots[k][q] = c
        for tm, tc in tail:
            p = tm + q
            old = todo.get(p)
            if old is None:
                if p & guard:       # a valid monomial in todo has none set
                    raise _Overflow
                todo[p] = mul(tc, c)
                heappush(heap, -(p ^ flip))
            else:
                s = add(old, mul(tc, c))
                if s == 0:
                    del todo[p]
                else:
                    todo[p] = s
    return rem, scale


def _unpacked(terms, pk, nvars, dom):
    return Polynomial(nvars, dom, {pk.unpack(m): c for m, c in terms.items()}, _clean=True)


def normal_form(f, divisors, order=DEGREVLEX):
    """Remainder of f under multivariate division by the given divisors.

    The remainder has no term divisible by any divisor's leading monomial.
    """
    if not f.domain.is_field:
        raise DomainMismatch("division requires a field domain")
    divisors = [g for g in divisors if not g.is_zero()]
    for g in divisors:
        if g.nvars != f.nvars or g.domain != f.domain:
            raise DomainMismatch("divisor domain/variable mismatch")
    nvars, dom = f.nvars, f.domain

    def run(pk):
        packed = []
        for g in divisors:
            lm = g.lead_monomial(order)
            inv = dom.inv(g.terms[lm])
            tail = [(pk.pack(m), dom.mul(c, inv)) for m, c in g.terms.items() if m != lm]
            packed.append(_divisor(pk.pack(lm), 1, tail, dom))
        r, _ = _reduce({pk.pack(m): c for m, c in f.terms.items()}, packed, pk, dom)
        return _unpacked(r, pk, nvars, dom)

    degree = max(g.total_degree() for g in [f] + divisors)
    return _widening(nvars, order, degree, run)


# ---------------------------------------------------------------------------
# Buchberger

class IdealBasis:
    """A generating set, possibly marked as a reduced Groebner basis.

    When cofactor tracking was requested, ``cofactors[k]`` expresses
    ``generators[k]`` as a combination of the original input generators.
    """

    def __init__(self, generators, domain, order, is_groebner=False, cofactors=None):
        self.generators = list(generators)
        self.domain = domain
        self.order = order
        self.is_groebner = is_groebner
        self.cofactors = cofactors

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def is_trivial(self):
        return (len(self.generators) == 1 and self.generators[0].is_constant()
                and not self.generators[0].is_zero())

    def __repr__(self):
        gens = ", ".join(format_polynomial(g, self.order) for g in self.generators)
        tag = "groebner" if self.is_groebner else "raw"
        return f"IdealBasis<{tag}|{self.domain}|{self.order}>[{gens}]"


def _add_shifted(out, terms, shift, scale, pk, dom):
    """out += scale * x^shift * terms, in place, for packed terms (scale
    None: one); a product that overflows raises _Overflow."""
    add, mul, guard = dom.add, dom.mul, pk.guard
    for m, c in terms:
        m += shift
        if m & guard:
            raise _Overflow
        if scale is not None:
            c = mul(scale, c)
        s = add(out.get(m, 0), c)
        if s == 0:
            del out[m]
        else:
            out[m] = s


def buchberger(generators, order=DEGREVLEX, spair_cap=RunConfig.spair_cap,
               degree_cap=RunConfig.degree_cap, track_cofactors=False):
    """Reduced Groebner basis over the field of the generators' domain: Q
    for integer generators, which go into the run as they are.

    Normal selection strategy (smallest lcm degree first) with the coprime
    and chain pair-elimination criteria.  Input generators are seeded in
    sorted order, so the reduced output depends only on the generator set.
    A nonzero constant encountered at any point short-circuits to the
    basis {1}.  Exceeding a budget raises BudgetExceeded with the partial
    basis attached.  The run is on packed monomials; S-polynomials of
    basis elements, whose degrees are at most degree_cap, have degree at
    most twice that, so the starting width holds them.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return IdealBasis([], ZZ if not generators else generators[0].domain, order,
                          is_groebner=True, cofactors=[] if track_cofactors else None)
    nvars, dom = gens[0].nvars, gens[0].domain
    field = dom if dom.is_field else QQ
    degree = max(max(g.total_degree() for g in gens), 2 * degree_cap)
    return _widening(nvars, order, degree, lambda pk: _buchberger(
        gens, field, order, pk, spair_cap, degree_cap, track_cofactors))


def _buchberger(gens, dom, order, pk, spair_cap, degree_cap, track_cofactors):
    """buchberger's run over the field dom on one packed layout; raises
    _Overflow if a product does not fit it.

    Over Q each basis element is kept as a primitive integer polynomial with
    a positive leading coefficient, a nonzero multiple of the monic one that
    F_p keeps, so every zero test, leading monomial and pair choice is the
    same.  A cofactor vector is scaled with its polynomial and stays Q-valued.
    """
    nvars = gens[0].nvars
    mul, neg, inv_of = dom.mul, dom.neg, dom.inv
    guard, degree = pk.guard, pk.degree
    ngens = len(gens)
    # deterministic seeding order: each generator's terms sorted by their
    # degrevlex keys, then the (term, coefficient) sequences compared.  A
    # degrevlex run unflips those keys into its packed monomials, so it
    # packs each term once.  Cofactor slots stay in caller order.
    seeds = []
    for idx, gen in enumerate(gens):
        terms = sorted((pk.degrevlex_key(m), m, c) for m, c in gen.terms.items())
        seeds.append((tuple((m, c) for _, m, c in terms), idx, terms))
    seeds.sort(key=operator.itemgetter(0))
    own_key = pk.key_weights is pk.weights

    polys = []       # basis elements as packed term dicts, head first
    heads = []       # their leading monomials
    tails = []       # their other terms, as (monomial, coefficient) lists
    divisors = []    # their _divisor tuples
    cofs = []        # parallel cofactor vectors when tracking

    def scaled(pcof, f):
        return None if pcof is None else [{m: mul(c, f) for m, c in q.items()}
                                          for q in pcof]

    def monic(p, pcof):
        """p and its cofactor vector scaled to leading coefficient one,
        as the run hands them out.  Over Q a p led by 1 takes Fraction(c),
        the value and type of c * Fraction(1), with no multiplication."""
        lead = next(iter(p.values()))
        if dom is QQ and lead == 1:
            return {m: Fraction(c) for m, c in p.items()}, scaled(pcof, Fraction(1))
        inv = inv_of(lead)
        return {m: mul(c, inv) for m, c in p.items()}, scaled(pcof, inv)

    def normalized(p, pcof):
        """p and its cofactor vector as the run keeps a basis element."""
        if dom is not QQ:
            return monic(p, pcof)
        g = gcd(*p.values())
        if next(iter(p.values())) < 0:
            g = -g
        if g == 1:
            return p, pcof
        return {m: c // g for m, c in p.items()}, scaled(pcof, Fraction(1, g))

    def partial():
        return IdealBasis([_unpacked(monic(p, None)[0], pk, nvars, dom) for p in polys],
                          dom, order)

    def reduce_with_cof(p, pcof, idx=None):
        """Fully reduce p by the basis elements listed in idx (default all),
        updating its cofactor vector to scale * pcof - sum q_j * cofs[j]."""
        if idx is None:
            idx = range(len(polys))
        quots = None if pcof is None else [{} for _ in idx]
        r, scale = _reduce(p, [divisors[j] for j in idx], pk, dom, quots)
        if pcof is not None:
            pcof = scaled(pcof, scale)
            for q, j in zip(quots, idx):
                for qm, qc in q.items():
                    for a, b in zip(pcof, cofs[j]):
                        _add_shifted(a, b.items(), qm, neg(qc), pk, dom)
        return r, pcof

    heap = []        # (lcm degree, i, j, lcm)
    pending = set()  # {(i, j)} mirror of the heap for the chain criterion

    def add_to_basis(p, pcof):
        """Insert a fully reduced nonzero polynomial in the basis's form; a
        constant ends the run, and the basis {1} is returned."""
        if max(map(degree, p)) > degree_cap:
            raise BudgetExceeded("degree cap exceeded", partial())
        p, pcof = normalized(p, pcof)
        head = next(iter(p))
        if head == 0:
            p, pcof = monic(p, pcof)
            return IdealBasis([_unpacked(p, pk, nvars, dom)], dom, order, is_groebner=True,
                              cofactors=None if pcof is None else
                              [[_unpacked(c, pk, nvars, dom) for c in pcof]])
        k = len(polys)
        polys.append(p)
        heads.append(head)
        tails.append(list(p.items())[1:])
        divisors.append(_divisor(head, p[head], tails[k], dom))
        cofs.append(pcof)
        for i in range(k):
            lcm = pk.lcm(heads[i], head)
            heapq.heappush(heap, (degree(lcm), i, k, lcm))
            pending.add((i, k))
        return None

    # seed the basis, reducing each generator against what came before;
    # a generator's denominators are cleared first (none over F_p or Z)
    for _, idx, terms in seeds:
        den = math.lcm(*(c.denominator for _, _, c in terms))
        g = {k ^ pk.flip if own_key else pk.pack(m): c.numerator * (den // c.denominator)
             for k, m, c in terms}
        gc = None
        if track_cofactors:
            gc = [{} for _ in range(ngens)]
            gc[idx] = {0: den}
        r, rc = reduce_with_cof(g, gc)
        if r:
            done = add_to_basis(r, rc)
            if done is not None:
                return done

    spairs_done = 0
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        pending.discard((i, j))
        hi, hj = heads[i], heads[j]
        # coprime criterion
        if hi + hj == lcm:
            continue
        # chain criterion: a third leading monomial dividing the lcm whose
        # pairs with i and j are both already settled
        skip = False
        for k, hk in enumerate(heads):
            if k != i and k != j and not (lcm - hk) & guard:
                if (min(i, k), max(i, k)) not in pending \
                        and (min(j, k), max(j, k)) not in pending:
                    skip = True
                    break
        if skip:
            continue
        spairs_done += 1
        if spairs_done > spair_cap:
            raise BudgetExceeded("S-pair cap exceeded", partial())
        # the S-polynomial is the difference of the two tails times the
        # cofactors of their heads in the lcm, each scaled by the other's
        # leading coefficient over their gcd (both one over F_p); j's
        # divisor holds its tail negated
        mi, mj = lcm - hi, lcm - hj
        ai, aj = divisors[i][1], divisors[j][1]
        si = sj = None
        if ai != aj:
            g = gcd(ai, aj)
            si, sj = aj // g, ai // g
        s = {}
        _add_shifted(s, tails[i], mi, si, pk, dom)
        _add_shifted(s, divisors[j][2], mj, sj, pk, dom)
        scof = None
        if track_cofactors:
            scof = [{} for _ in range(ngens)]
            for out, a, b in zip(scof, cofs[i], cofs[j]):
                _add_shifted(out, a.items(), mi, si, pk, dom)
                _add_shifted(out, b.items(), mj, neg(sj or 1), pk, dom)
        r, rcof = reduce_with_cof(s, scof)
        if r:
            done = add_to_basis(r, rcof)
            if done is not None:
                return done

    # interreduce to the unique reduced basis
    keep = [i for i, hi in enumerate(heads)
            if not any(j != i and not (hi - hj) & guard and (hj != hi or j < i)
                       for j, hj in enumerate(heads))]
    out = []
    for i in keep:
        r, cvec = reduce_with_cof(polys[i], cofs[i], [j for j in keep if j != i])
        if r:
            out.append(monic(r, cvec))
    # deterministic output order: descending leading monomial
    out.sort(key=lambda t: next(iter(t[0])) ^ pk.flip, reverse=True)
    return IdealBasis([_unpacked(p, pk, nvars, dom) for p, _ in out], dom, order,
                      is_groebner=True,
                      cofactors=[[_unpacked(c, pk, nvars, dom) for c in cvec]
                                 for _, cvec in out] if track_cofactors else None)


def is_trivial_over_field(generators, order=DEGREVLEX, spair_cap=RunConfig.spair_cap,
                          degree_cap=RunConfig.degree_cap, want_cofactors=False):
    """Decide 1 in <generators> over the field of their coefficient domain
    (Q for integer generators).

    Returns (True, cofactors-or-None) or (False, reduced basis).  With
    cofactors, sum(h_i * g_i) == 1 exactly, verified by expansion; a
    combination that fails the check raises AssertionError.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return False, IdealBasis([], generators[0].domain if generators else QQ, order,
                                 is_groebner=True)
    basis = buchberger(gens, order, spair_cap, degree_cap,
                       track_cofactors=want_cofactors)
    if basis.is_trivial():
        if want_cofactors:
            hs = basis.cofactors[0]
            nvars, dom = gens[0].nvars, basis.domain
            check = Polynomial.zero(nvars, dom)
            for h, g in zip(hs, gens):
                check = check + h * g.to_domain(dom)
            if check != Polynomial.constant(nvars, dom, 1):
                raise AssertionError("cofactor expansion must reproduce 1")
            return True, hs
        return True, None
    return False, basis


def _factor_desk_scale(d, partial):
    """The prime factors of d by trial division; fine for denominator-cleared
    constants.  Past FACTOR_DIVISION_CAP trial divisors, BudgetExceeded with
    the partial basis."""
    d = abs(d)
    primes = []
    q = 2
    divisions = 0
    while q * q <= d:
        divisions += 1
        if divisions > FACTOR_DIVISION_CAP:
            raise BudgetExceeded("factoring cap exceeded", partial)
        if d % q == 0:
            primes.append(q)
            while d % q == 0:
                d //= q
        q += 1 if q == 2 else 2
    if d > 1:
        primes.append(d)
    return primes


def is_trivial_over_Z(generators, order=DEGREVLEX, spair_cap=RunConfig.spair_cap,
                      degree_cap=RunConfig.degree_cap):
    """Decide 1 in <generators> inside Z[X].

    Strategy: decide over Q without cofactors.  Non-trivial over Q is
    non-trivial over Z.  Only a Q-trivial ideal is run again with cofactor
    tracking, which repeats the same S-pairs; clearing the cofactors'
    denominators gives an integer D in the integer ideal, and 1 lies in the
    ideal iff the reduction mod p is trivial for every prime p dividing D
    (all other primes are settled by the combination itself).  Factoring D
    past FACTOR_DIVISION_CAP trial divisors raises BudgetExceeded with the
    basis {1} over Q.

    Returns (decision, certificate) where certificate is
      ("rational-basis", basis)           non-trivial already over Q
      ("prime", p, basis)                 non-trivial mod p
      ("denominator", D)                  trivial; all prime divisors of D pass
    """
    gens = []
    for g in generators:
        if g.is_zero():
            continue
        if g.domain is not ZZ:
            raise DomainMismatch("is_trivial_over_Z wants integer coefficients")
        gens.append(g)
    if not gens:
        return False, ("rational-basis", IdealBasis([], QQ, order, is_groebner=True))
    for g in gens:
        if g.is_constant() and ZZ.is_unit(g.constant_value()):
            return True, ("denominator", 1)
    ok, basis = is_trivial_over_field(gens, order, spair_cap, degree_cap)
    if not ok:
        return False, ("rational-basis", basis)
    _, payload = is_trivial_over_field(gens, order, spair_cap, degree_cap,
                                       want_cofactors=True)
    d = math.lcm(*(c.denominator for h in payload for c in h.terms.values()))
    if d == 1:
        return True, ("denominator", 1)
    q_basis = IdealBasis([Polynomial.constant(gens[0].nvars, QQ, 1)], QQ, order,
                         is_groebner=True)
    for p in _factor_desk_scale(d, q_basis):
        pgens = [g.to_domain(GF(p)) for g in gens]
        okp, basis_p = is_trivial_over_field(pgens, order, spair_cap, degree_cap)
        if not okp:
            return False, ("prime", p, basis_p)
    return True, ("denominator", d)


def ideals_equal(basis_a, basis_b):
    """Equality of two ideals over one field, given by their reduced Groebner
    bases in one monomial order, as `buchberger` returns them.

    The reduced basis of an ideal is unique (Cox, Little and O'Shea, Ideals,
    Varieties, and Algorithms, ch. 2 sec. 7) and `buchberger` lists it by
    descending leading monomial, so the ideals are equal exactly when the
    generator lists are.  ValueError for anything but two such bases.
    """
    if not (basis_a.is_groebner and basis_b.is_groebner):
        raise ValueError("ideals_equal needs two reduced Groebner bases")
    if basis_a.order != basis_b.order:
        raise ValueError(f"ideals_equal needs bases in one order, got "
                         f"{basis_a.order.name} and {basis_b.order.name}")
    return basis_a.generators == basis_b.generators
