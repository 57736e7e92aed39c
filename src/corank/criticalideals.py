"""Minor ideals of the variable-diagonal Laplacian and the co-rank gamma.

gamma is computed by a certificate sandwich: the zero-forcing submatrix
certifies a lower bound valid over every commutative ring, evaluation ranks
certify upper bounds, and only a surviving gap is closed index by index
with unit-minor scans, point certificates and finally Groebner runs.

L(G, X) is read from the graph's out-neighbour bitmasks: -1 at each arc,
x_u on the diagonal.  An evaluation scan takes the graph and the point
blocks; a SymbolicMatrix is made where minors are expanded.

Every x_u sits on the diagonal only, so every minor is multiaffine.  A minor
is expanded along its lowest row as a {variable bitmask: int} dict, memoized
on its (row bitmask, column bitmask); a scan keeps each distinct minor as
that pair, and only the generators Buchberger gets become Polynomials,
through a per-matrix table from variable bitmask to exponent tuple.  Minor
generation stops at the first +-1 minor: it makes the ideal trivial over
every ring, so the basis over any field is {1} and the Z decision is that
of the full list.  One route, _groebner, turns a minor list into a basis
and a decision for both ideal_trivial and groebner_basis_of_critical_ideal.

groebner_basis_of_critical_ideal reads the zero forcing certificate first
(the certificate rule): for 1 <= i <= n - Z it returns, with no minor scan,
what the scan's +-1 minor gives.  Take the certificate's forcers a_1..a_k
as rows and forced vertices b_1..b_k as columns, in force order.  a_t's only
white neighbour when it forces is b_t, so L[a_t, b_s] = 0 for s > t and
L[a_t, b_t] = -1: the matrix is lower triangular with -1 on the diagonal,
and each leading i x i block is a constant +-1 i-minor, for every
i <= k = n - Z (a greedy record certifies its own size the same way).  Over
Z the route returns at that unit before any Buchberger run, so the rule
always applies.  Over a field Buchberger is seeded with the generators up
to the unit, and a seed of degree > degree_cap raises BudgetExceeded before
the constant is reached; every i-minor has degree <= i, so the rule applies
there only when i <= degree_cap.

After a full scan with no +-1 minor, _groebner hands Buchberger only the
generators that the alien-cofactor identity (Bruns and Vetter,
Determinantal Rings, LNM 1327, 1988) does not write through others.  For
rows R with |R| = i + 1, columns C with |C| = i and c in C, expanding
[L[R, C] | L[R, c]] along its repeated column gives sum over r in R of
+-L[r, c] M(R - r, C) = 0; with an arc r0 -> c, L[r0, c] = -1 is a unit,
so M(R - r0, C) lies in the ideal of the other terms, and the same holds
on the transpose.  The nonzero minors are ordered by term count, then scan
position, and a minor is dropped when one such relation writes it through
minors that all come strictly earlier; by induction on the order every
dropped minor lies in the ideal of the kept ones, over Z as over Q and
F_p, so the ideal, its reduced bases and every decision are unchanged.

What gamma learns about a graph alone, whatever the domain, is kept on it
(_facts): per index i the minor scan's (unit minor, constant minors) and
the first point of F_2^n where L has rank <= i - 1, and the box scan's own
outcome over Z and Q, never one a cache served.  Z, Q and F_p share one
minor scan per index, and gamma_Q reads gamma_Z's box scan from the graph,
so gamma needs no cache: without one it makes no cache key and no
canonical form.  Two rules read these facts and change no answer:
- the floor: a box scan past shell 1 stops at the first point of rank
  lower + 1 when L has a +-1 (lower + 1)-minor, since that minor is
  nonzero at every point over every field, so no point ranks lower;
- F_2 first over Z: an F_2 point of rank <= i - 1 is Z's certificate
  (2, point) before any minor scan, since a +-1 minor stays +-1 mod 2, so
  no unit minor exists and the scan-first order returns that same point.
Over Q the box point search is skipped when a kept box scan that its budget
did not cut ranks >= i: the search scans the same box, where no point ranks
that low.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, islice, product
from math import comb

from .config import DEFAULT_CONFIG
from .graphs import canonical_form
from .linalg import exact_rank, rank_scan
from .polyring import (ZZ, QQ, GF, DEGREVLEX, BudgetExceeded, IdealBasis, Polynomial,
                       buchberger, check_domain, is_trivial_over_Z)
from .zeroforcing import certificate_minor, zero_forcing_number


# ---------------------------------------------------------------------------
# the symbolic matrix

class SymbolicMatrix:
    """L(G, X) of a graph: variable x_u at (u, u) and -1 at each arc (u, v)."""

    def __init__(self, g):
        self.n = g.n
        self.out_adj = g.out_adj
        self.in_adj = g.in_adj
        self.symmetric = g.out_adj == g.in_adj
        self._minor_memo = {(0, 0): {0: 1}}    # (row bitmask, column bitmask) -> minor
        self._monos = {}    # variable bitmask -> exponent tuple

    def evaluate(self, point):
        """Integer/rational matrix with the diagonal replaced by the point."""
        assert len(point) == self.n
        return _laplacian_rows(self.out_adj, point)

    @cached_property
    def _row_entries(self):
        """Row r's nonzero entries by column: (column bit, variable bit, factor).
        Made on the first expansion, so a matrix only evaluated never makes it."""
        return [[(1 << c, 1 << c, 1) if c == r else (1 << c, 0, -1)
                 for c in range(self.n) if c == r or adj >> c & 1]
                for r, adj in enumerate(self.out_adj)]

    def minor(self, rows, cols) -> Polynomial:
        """Exact determinant of the submatrix on the row and column bitmasks:
        the multiaffine polynomial of its {variable bitmask: coefficient}
        expansion.  A variable bitmask becomes its exponent tuple once per
        matrix."""
        if rows.bit_count() != cols.bit_count():
            raise ValueError("a minor needs as many rows as columns")
        monos = self._monos
        terms = {}
        for mask, c in self._expand(rows, cols).items():
            mono = monos.get(mask)
            if mono is None:
                mono = monos[mask] = tuple(mask >> v & 1 for v in range(self.n))
            terms[mono] = c
        return Polynomial(self.n, ZZ, terms, _clean=True)

    def _expand(self, rows, cols):
        """The minor on the row and column bitmasks as {variable bitmask:
        nonzero int}, memoized on the two bitmasks across overlapping subsets.

        x_u sits only at (u, u), so every minor is multiaffine.  Cofactor
        expansion along the lowest row r0: the diagonal column ORs bit r0
        into the submatrix minor's masks, any other column (an arc) negates
        it, and a column's sign is its position among the set bits.
        """
        memo = self._minor_memo
        res = memo.get((rows, cols))
        if res is not None:
            return res
        low = rows & -rows
        rest = rows ^ low
        res = {}
        for col, bit, f in self._row_entries[low.bit_length() - 1]:
            if not cols & col:
                continue
            if (cols & (col - 1)).bit_count() & 1:
                f = -f
            sub = memo.get((rest, cols ^ col))
            if sub is None:
                sub = self._expand(rest, cols ^ col)
            for mask, v in sub.items():
                mask |= bit
                s = res.get(mask, 0) + f * v
                if s:
                    res[mask] = s
                else:
                    del res[mask]
        memo[rows, cols] = res
        return res


def _laplacian_rows(out_adj, diagonal):
    """The rows of L(G, diagonal), an integer -1 at each bit of the
    out-neighbour bitmasks out_adj."""
    return [[diagonal[u] if u == v else -(adj >> v & 1) for v in range(len(out_adj))]
            for u, adj in enumerate(out_adj)]


def generalized_laplacian(g) -> SymbolicMatrix:
    return SymbolicMatrix(g)


@dataclass
class MinorGenerators:
    masks: list                # (row bitmask, column bitmask) of each generator
    unit_minor: tuple | None   # (rows, cols, value) with value in {1,-1}
    constant_minors: list      # (rows, cols, value), nonzero constants
    matrix: SymbolicMatrix     # holds every scanned minor in its memo
    size: int
    classes: dict              # _sign_key of a minor -> index in masks

    @cached_property
    def generators(self):
        """Every generator as a Polynomial: the minors deduplicated up to
        sign, zero minors dropped, in scan order."""
        return [self.matrix.minor(*rc) for rc in self.masks]

    def kept(self):
        """The generators that Groebner needs, as Polynomials: after a full
        scan, those with a minor that _alien_cofactor_drops keeps, in scan
        order; the list as it is when the scan stopped at a +-1 minor."""
        if self.unit_minor is not None:
            return self.generators
        memo = self.matrix._minor_memo
        order, drops = _alien_cofactor_drops(self)
        keep = {self.classes[_sign_key(memo[rc])]
                for k, rc in enumerate(order) if k not in drops}
        return [self.matrix.minor(*self.masks[k]) for k in sorted(keep)]


def _sign_key(d):
    """A minor's bitmask dict up to sign: its sorted items, the first
    coefficient made positive."""
    items = sorted(d.items())
    if items[0][1] < 0:
        items = [(mask, -c) for mask, c in items]
    return tuple(items)


def minor_generators(matrix: SymbolicMatrix, size: int) -> MinorGenerators:
    """The size x size minors, expanded, deduplicated up to sign, up to the
    first +-1 minor.

    Minors come as the matrix's multiaffine bitmask dicts; a minor is kept,
    as its (row bitmask, column bitmask) and with the sign it was found
    with, when neither it nor its negative was kept before.  Generation
    stops as soon as a +-1 constant minor is kept: it makes the ideal
    trivial over every ring, so the minors after it change no basis and no
    decision.

    A symmetric matrix has minor(rows, cols) = minor(cols, rows), and of the
    two the one with the smaller row set comes first, so only cols >= rows
    are expanded: the generators and the unit minor are the same, and
    constant_minors loses only transposes of minors listed before them.
    """
    n = matrix.n
    if not 0 <= size <= n:
        raise ValueError(f"minor size {size} out of range for n={n}")
    masks = []
    seen = {}
    unit = None
    constants = []
    subsets = list(zip(combinations(range(n), size), _subset_masks(n, size)))
    for k, (rows, rmask) in enumerate(subsets):
        for cols, cmask in subsets[k:] if matrix.symmetric else subsets:
            d = matrix._expand(rmask, cmask)
            if not d:
                continue
            if len(d) == 1 and 0 in d:
                c = d[0]
                constants.append((rows, cols, c))
                if unit is None and c in (1, -1):
                    unit = (rows, cols, c)
            key = _sign_key(d)
            if key in seen:
                continue
            seen[key] = len(masks)
            masks.append((rmask, cmask))
            if unit is not None:
                return MinorGenerators(masks, unit, constants, matrix, size, seen)
    return MinorGenerators(masks, unit, constants, matrix, size, seen)


def _subset_masks(n, size):
    """The bitmasks of the size-subsets of range(n), in combinations order."""
    return list(map(sum, combinations([1 << v for v in range(n)], size)))


def _alien_cofactor_drops(gens):
    """(order, drops): the nonzero minors of a full scan as (row bitmask,
    column bitmask), by term count and then scan position; and for the
    position in order of each minor that an alien-cofactor relation writes
    through earlier minors, that relation (R, C, r0, c, transposed).

    The relation is the module docstring's: M(R - r0, C), through the
    M(R - r, C) with r = c or an arc r -> c, dropped when each of those is
    zero or earlier in the order.  transposed means the same relation on
    the transpose: M(C, R - r0) through the M(C, R - r) with r = c or an
    arc c -> r.  A symmetric matrix's minor is its transpose's, so a
    position there covers both orientations.
    """
    matrix, memo = gens.matrix, gens.matrix._minor_memo
    masks = _subset_masks(matrix.n, gens.size)
    order = sorted(((r, c) for k, r in enumerate(masks)
                    for c in (masks[k:] if matrix.symmetric else masks) if memo[r, c]),
                   key=lambda rc: len(memo[rc]))
    pos = {rc: k for k, rc in enumerate(order)}
    if matrix.symmetric:
        pos.update({(c, r): k for (r, c), k in list(pos.items())})
    forms = ((False, matrix.in_adj), (True, matrix.out_adj))
    drops = {}
    for k, (rmask, cmask) in enumerate(order):
        for transposed, into in forms:
            # rows S and columns C of the relation's matrix, L or its transpose
            S, C = (cmask, rmask) if transposed else (rmask, cmask)
            rel = _relation(S, C, into, k, pos, transposed)
            if rel is not None:
                drops[k] = rel
                break
    return order, drops


def _relation(S, C, into, k, pos, transposed):
    """A relation (R, C, r0, c, transposed) writing the minor on rows S and
    columns C, at position k, through earlier minors, or None; into[c] is
    the bitmask of rows r with an arc r -> c in the relation's matrix."""
    cs = C
    while cs:
        cb = cs & -cs
        cs ^= cb
        c = cb.bit_length() - 1
        others = S & (into[c] | cb)   # the rows r of S with L[r, c] != 0
        r0s = into[c] & ~S
        while r0s:
            r0b = r0s & -r0s
            r0s ^= r0b
            R = S | r0b
            rest = others
            while rest:
                rb = rest & -rest
                rest ^= rb
                key = (C, R ^ rb) if transposed else (R ^ rb, C)
                if pos.get(key, -1) > k:
                    break
            else:
                return R, C, r0b.bit_length() - 1, c, transposed
    return None


# ---------------------------------------------------------------------------
# evaluation-point searches

def block_points(blocks):
    """The points of lex product blocks (axes, rim), in order: each block's
    lex product, kept where a coordinate lies in its rim unless rim is None."""
    for axes, rim in blocks:
        for pt in product(*axes):
            if rim is None or not rim.isdisjoint(pt):
                yield pt


def box_blocks(n, radius):
    """The integer box {-radius..radius}^n by increasing max-norm, then lex,
    as blocks: shell m is the product of (-m..m) kept where some coordinate
    is +-m.  The shells are made one at a time, so a scan that stops at its
    budget costs no more than that."""
    return (((tuple(range(-m, m + 1)),) * n, frozenset((-m, m)) if m else None)
            for m in range(radius + 1))


def field_blocks(n, p):
    """F_p^n as blocks: the box of centred lifts, mod p, in the box's order;
    {0, 1}^n in lex for p = 2."""
    if p == 2:
        return iter([(((0, 1),) * n, None)])
    return ((tuple(tuple(x % p for x in axis) for axis in axes),
             rim and frozenset(x % p for x in rim))
            for axes, rim in box_blocks(n, (p - 1) // 2))


def box_points(n, radius):
    """The points of box_blocks(n, radius)."""
    return block_points(box_blocks(n, radius))


def field_points(n, p, budget):
    """The first `budget` points of field_blocks(n, p)."""
    return islice(block_points(field_blocks(n, p)), budget)


def min_rank_scan(g, blocks, domain, lower, upper, upper_point, budget=None):
    """linalg.rank_scan of L(g, X) over the domain (ranks over Z taken over
    Q): (upper, point, exhaustive, points scanned)."""
    return rank_scan(_laplacian_rows(g.out_adj, (0,) * g.n), blocks, domain.p, lower,
                     upper, upper_point, budget)


@dataclass
class BoxSearchResult:
    point: tuple | None
    rank: int | None
    exhaustive: bool
    points_scanned: int


def variety_box_search(g, r, domain=QQ, config=DEFAULT_CONFIG) -> BoxSearchResult:
    """First point in the integer box of radius config.box_radius (over F_p,
    in the field) with rank L(g, a) <= r.

    Scan order: increasing max-norm, then lexicographic.  Absence with
    exhaustive=True is definitive for the box (not for the domain).
    """
    if r + 1 > g.n:
        raise ValueError("r + 1 must be at most n")
    blocks = (field_blocks(g.n, domain.p) if domain.p
              else box_blocks(g.n, config.box_radius))
    rank, point, exhaustive, scanned = min_rank_scan(g, blocks, domain, r, r + 1, None,
                                                     config.box_point_budget)
    return BoxSearchResult(point, None if point is None else rank, exhaustive, scanned)


def nontriviality_certificate(g, i, domain, config=DEFAULT_CONFIG):
    """A point killing every i-minor over Q or Z, or None (absence is
    inconclusive).

    Over Q the point is an integer box point; over Z it is a pair
    (p, point) with all i-minors vanishing mod p, the F_2 search read from
    g's facts (_f2_point).  Over F_p gamma asks for I_i only at i <= the
    least rank its scan of the same points found under an equal budget, so
    a search there would find nothing: ValueError.
    """
    if domain is not QQ and domain is not ZZ:
        raise ValueError(f"nontriviality_certificate searches over Q or Z, not {domain!r}")
    n = g.n
    if i < 1 or i > n:
        raise ValueError("index out of range")
    if domain is QQ:
        return variety_box_search(g, i - 1, QQ, config).point
    for p in config.primes:
        point = (_f2_point(g, i, config) if p == 2 else
                 min_rank_scan(g, field_blocks(n, p), GF(p), i - 1, i, None,
                               config.modp_point_budget)[1])
        if point is not None:
            return p, point
    return None


# ---------------------------------------------------------------------------
# certificates in the canonical labeling
#
# Cache keys are canonical forms, so cached witnesses are stored in the
# canonical labeling and mapped back to the caller's labeling on a hit.

def _inverse(perm):
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    return inv


def _relabel_point(point, perm):
    """The diagonal point under the relabeling perm (old label -> new label)."""
    out = [0] * len(point)
    for v, x in enumerate(point):
        out[perm[v]] = x
    return tuple(out)


def _order_sign(seq):
    inversions = sum(a > b for a, b in combinations(seq, 2))
    return -1 if inversions % 2 else 1


def _relabel_minor(rows, cols, value, perm):
    """The minor (rows, cols, value) under the relabeling perm.

    Rows and columns are re-sorted in the new labels, and the sign of each
    reordering multiplies the value.
    """
    rows = [perm[r] for r in rows]
    cols = [perm[c] for c in cols]
    return (tuple(sorted(rows)), tuple(sorted(cols)),
            value * _order_sign(rows) * _order_sign(cols))


def _relabel_detail(method, detail, domain, perm):
    """A triviality decision's certificate under the relabeling perm."""
    if method == "point-certificate":
        if domain is ZZ:
            p, point = detail
            return (p, _relabel_point(point, perm))
        return _relabel_point(detail, perm)
    if method in ("unit-minor", "constant-minor"):
        return _relabel_minor(*detail, perm)
    return detail


# ---------------------------------------------------------------------------
# per-index triviality decisions

@dataclass
class TrivialityDecision:
    trivial: bool | None      # None = undecided within budget
    method: str
    detail: object = None

    def to_json(self):
        return {"trivial": self.trivial, "method": self.method, "detail": self.detail}


_MINOR_SCAN_CAP = 250_000  # skip the unit-minor scan when C(n,i)^2 exceeds this


def ideal_trivial(g, i, domain, config=DEFAULT_CONFIG, cache=None) -> TrivialityDecision:
    """Decide 1 in I_i(g) over the domain, with certificates preferred.

    Order of attack: over Z, the first F_2 point of rank <= i - 1
    (non-trivial; a +-1 minor stays +-1 mod 2, so there is no unit minor
    and the later steps would return this point); a unit constant minor
    (trivial, every domain); a point certificate (non-trivial, over Q and
    Z; skipped over Q when g's kept uncut box scan ranks >= i, since no
    point of that box ranks lower); Groebner fallback.  The minor scan's
    summary is kept on g for every domain.  With a cache, decisions are
    cached by (canonical form, i, domain, budget hash), and an entry read
    from a directory is served only when _decision_shape_holds; without
    one, there is no key and no canonical form.
    """
    if i > g.n:
        raise ValueError(f"minor size {i} exceeds n={g.n}")
    if cache is None:
        return _decide_trivial(g, i, check_domain(domain), config)
    form = canonical_form(g)
    key = ("ideal_trivial", form.hex(), i, check_domain(domain).name,
           config.budget_hash())
    hit = cache.get(key, lambda entry: _decision_shape_holds(entry, g.n, i, domain, config))
    if hit is not None:
        detail = _relabel_detail(hit["method"], hit.get("detail"), domain,
                                 _inverse(form.perm))
        return TrivialityDecision(hit["trivial"], hit["method"], detail)

    decision = _decide_trivial(g, i, domain, config)
    if decision.trivial is not None:  # budget-undecided results are not cached
        stored = TrivialityDecision(decision.trivial, decision.method,
                                    _relabel_detail(decision.method, decision.detail,
                                                    domain, form.perm))
        cache.put(key, stored.to_json())
    return decision


def _decision_shape_holds(entry, n, i, domain, config):
    """Whether a cached entry has the shape of an index-i decision over the
    domain: a dict with a bool trivial and a known method whose verdict it
    states, and that method's detail.  A unit or constant minor is (rows,
    cols, value), i increasing vertices each and a value that is a unit of
    the domain (+-1 for a unit minor), with the verdict trivial; a point
    certificate, never over F_p, is n integers over Q and (p, n integers)
    with p in config.primes over Z, with the verdict non-trivial; a Groebner
    verdict carries its description string over Z and nothing otherwise.
    The shape only: the witness itself is not re-verified."""
    if not (isinstance(entry, dict) and type(entry.get("trivial")) is bool):
        return False
    trivial, method, detail = entry["trivial"], entry.get("method"), entry.get("detail")
    if method in ("unit-minor", "constant-minor"):
        if not (trivial and isinstance(detail, list) and len(detail) == 3):
            return False
        rows, cols, value = detail
        return (_is_vertex_subset(rows, i, n) and _is_vertex_subset(cols, i, n)
                and type(value) is int and domain.is_unit(value)
                and (method == "constant-minor" or value in (1, -1)))
    if method == "point-certificate":
        if trivial or domain.p:
            return False
        if domain is ZZ:
            if not (isinstance(detail, list) and len(detail) == 2):
                return False
            p, detail = detail
            if not (type(p) is int and p in config.primes):
                return False
        return isinstance(detail, list) and len(detail) == n and all(type(x) is int
                                                                    for x in detail)
    if method == "groebner":
        return isinstance(detail, str) if domain is ZZ else detail is None
    return False


def _is_vertex_subset(xs, size, n):
    """Whether xs is a list of size increasing vertices of range(n)."""
    return (isinstance(xs, list) and len(xs) == size
            and all(type(x) is int and 0 <= x < n for x in xs) and xs == sorted(set(xs)))


def _decide_trivial(g, i, domain, config):
    """The decision of ideal_trivial, from g's facts where it has them."""
    if domain is ZZ and config.primes[0] == 2:
        point = _f2_point(g, i, config)
        if point is not None:
            return TrivialityDecision(False, "point-certificate", (2, point))
    summary, gens = _scan_minors(g, i)
    if summary is not None:
        unit, constants = summary
        if unit is not None:
            return TrivialityDecision(True, "unit-minor", unit)
        for minor in constants:
            if domain.is_unit(minor[2]):
                return TrivialityDecision(True, "constant-minor", minor)

    # over Q an uncut box scan ranking >= i leaves the box search nothing to find
    scan = _facts(g).get(_box_scan_fact(config))
    if domain is ZZ or domain is QQ and not (scan and scan[2] and scan[0] >= i):
        cert = nontriviality_certificate(g, i, domain, config)
        if cert is not None:
            return TrivialityDecision(False, "point-certificate", cert)

    if summary is None:
        return TrivialityDecision(None, "budget", "minor scan too large")
    try:
        if gens is None:
            gens = minor_generators(generalized_laplacian(g), i)
        return _groebner(gens, domain, DEGREVLEX, config)[1]
    except BudgetExceeded as exc:
        return TrivialityDecision(None, "budget", f"{exc.reason}, partial basis of "
                                                  f"{len(exc.partial)} polynomials")


def _groebner(gens, domain, order, config):
    """(basis, decision) of the ideal of the minor generators over the domain,
    from the generators that MinorGenerators.kept leaves: the same ideal.

    Over a field: its reduced basis, and whether that basis is {1}.  Over Z:
    the reduced basis over Q and the exact Z-triviality decision, which
    computes that basis first: its certificate carries it when the ideal is
    proper over Q, and otherwise it is {1}.  The decision's cofactors are
    not kept.  A budget stop raises BudgetExceeded.

    After a scan stopped at a +-1 minor, Z gets that minor alone:
    is_trivial_over_Z returns at a unit constant before reading any other
    generator.  A field gets the whole list, whose Buchberger run may stop
    at a budget before it reaches the constant.
    """
    if domain is not ZZ:
        basis = buchberger([g.to_domain(domain) for g in gens.kept()], order,
                           config.spair_cap, config.degree_cap)
        return basis, TrivialityDecision(basis.is_trivial(), "groebner", None)
    n = gens.matrix.n
    kept = (gens.kept() if gens.unit_minor is None
            else [Polynomial.constant(n, ZZ, gens.unit_minor[2])])
    ok, cert = is_trivial_over_Z(kept, order, config.spair_cap, config.degree_cap)
    q_gens = (cert[1].generators if cert[0] == "rational-basis"
              else [Polynomial.constant(n, QQ, 1)])
    return (IdealBasis(q_gens, QQ, order, is_groebner=True),
            TrivialityDecision(ok, "groebner", _describe_z_cert(cert)))


def _describe_z_cert(cert):
    tag = cert[0]
    if tag == "denominator":
        return f"denominator-cleared constant {cert[1]}"
    if tag == "prime":
        return f"non-trivial mod {cert[1]}"
    return "non-trivial over Q"


# ---------------------------------------------------------------------------
# gamma

@dataclass
class GammaResult:
    domain: str
    lower: int
    upper: int
    value: int | None
    lower_witness: dict
    upper_witness: dict
    provenance: dict    # index -> method string
    status: str         # exact | undecided

    def to_json(self):
        return {"domain": self.domain, "lower": self.lower, "upper": self.upper,
                "value": self.value, "lower_witness": self.lower_witness,
                "upper_witness": self.upper_witness,
                "provenance": {str(k): v for k, v in sorted(self.provenance.items())},
                "status": self.status}


def _box_scan_key(form, lower, config):
    return ("gamma-box-scan", form.hex(), lower, config.box_radius, config.gamma_box_budget)


def _box_scan_fact(config):
    return ("box-scan", config.box_radius, config.gamma_box_budget)


def _cached_box_scan(g, lower, config, cache):
    """The box scan's cached (rank, point), mapped back to g's labeling, or
    None.

    An entry read from a directory is trusted only when it is [rank, point]
    with n integer coordinates and L(g, point) has exactly that rank, one
    elimination; any other entry is a counted corrupt miss.  Rank does not
    depend on the labeling, so the point is checked mapped back.
    """
    form = canonical_form(g)
    inv = _inverse(form.perm)

    def holds(entry):
        if not (isinstance(entry, list) and len(entry) == 2):
            return False
        rank, pt = entry
        return (type(rank) is int and isinstance(pt, list) and len(pt) == g.n
                and all(type(x) is int for x in pt)
                and exact_rank(_laplacian_rows(g.out_adj, _relabel_point(pt, inv))).rank
                == rank)

    hit = cache.get(_box_scan_key(form, lower, config), holds)
    return None if hit is None else (hit[0], _relabel_point(hit[1], inv))


def _budgeted_box_scan(g, lower, upper, upper_point, domain, config, cache):
    """Improve the evaluation upper bound by a budgeted scan of the field
    over F_p, or of the integer box over Z and Q.

    Shells 0 and 1 are scanned first.  If a shell follows and the bound is
    still above lower, a +-1 (lower + 1)-minor (_has_unit_minor) raises the
    stop bound to lower + 1: that minor is nonzero at every point over
    every field, so no point ranks below it, and the first point of least
    rank over the budgeted prefix is the one the whole scan would give.
    The other shells stay lazy under the budget left.

    Over Z and Q the scan evaluates integer points at rational rank, so its
    outcome is domain-independent.  gamma starts it from its lower bound
    and probe bound, both facts of g, so the outcome (upper, point,
    exhaustive) is one more, kept in g's facts and read there instead of
    scanning again.  Given a cache, the outcome is put in it once per
    (graph, target), in the canonical labeling, whether scanned or read
    from g: gamma asks the cache first, so a directory gets the same
    entries whatever g's facts hold.  When exhaustive, upper is the least
    rank over the probe and the box (the zero forcing minor and the floor
    prove that an early stop is at the least rank).  The probe always
    leaves a point: L(g, out-degrees) has zero row sums.
    """
    facts, key = _facts(g), _box_scan_fact(config)
    if domain.p or key not in facts:
        blocks = (field_blocks(g.n, domain.p) if domain.p
                  else box_blocks(g.n, config.box_radius))
        upper, upper_point, exhaustive, scanned = min_rank_scan(
            g, list(islice(blocks, 2)), domain, lower, upper, upper_point,
            config.gamma_box_budget)
        shell = next(blocks, None)
        if shell is not None and exhaustive and upper > lower:
            stop = lower + 1 if _has_unit_minor(g, lower + 1, config) else lower
            if upper > stop:
                upper, upper_point, exhaustive, _ = min_rank_scan(
                    g, chain([shell], blocks), domain, stop, upper, upper_point,
                    config.gamma_box_budget - scanned)
        if domain.p:
            return upper, upper_point
        facts[key] = upper, upper_point, exhaustive
    upper, upper_point, _ = facts[key]
    if cache is not None:
        form = canonical_form(g)
        cache.put(_box_scan_key(form, lower, config),
                  [upper, list(_relabel_point(upper_point, form.perm))])
    return upper, upper_point


def _probe_points(g):
    """The distinct probe diagonals, each as a one-point block."""
    n = g.n
    pts = [(0,) * n, (1,) * n, (-1,) * n]
    deg = [a.bit_count() for a in g.out_adj]
    pts.append(tuple(deg))
    pts.append(tuple(-d for d in deg))
    return [(tuple(zip(p)), None) for p in dict.fromkeys(pts)]


# ---------------------------------------------------------------------------
# facts of the graph alone
#
# A graph is immutable, so what gamma learns about it alone, whatever the
# domain, the cache or the caller, is kept in its _sandwich slot: a dict by
# name.  Only small summaries are kept, never a SymbolicMatrix or its minor
# memo.

def _facts(g):
    """g's dict of kept facts:
    - "certificate": the zero forcing certificate minor;
    - ("probe", p): (upper, point) of the probe scan over the scan prime p,
      None for Z and Q, which share it because ranks over Z are taken over Q;
    - ("minors", i): (unit minor, constant minors) of the i-minor scan
      (_scan_minors);
    - ("f2-point", i, budget): the first point of F_2^n where L has rank
      <= i - 1 within the budget, or None;
    - ("box-scan", radius, budget): (upper, point, exhaustive) of the box
      scan over Z and Q from gamma's lower and probe bounds, its own
      outcome and never a cache's (_budgeted_box_scan)."""
    if g._sandwich is None:
        g._sandwich = {}
    return g._sandwich


def _certificate(g, zf):
    """The certificate minor of the zero forcing record, exact or greedy
    (any zero forcing set's record certifies its own complement size),
    validated once."""
    facts = _facts(g)
    if "certificate" not in facts:
        facts["certificate"] = certificate_minor(g, zf.witness)
    return facts["certificate"]


def _probe(g, lower, domain, facts):
    """(upper, point) of the probe-point scan over the domain, kept in the
    dict facts (gamma passes g's)."""
    key = ("probe", domain.p)
    if key not in facts:
        facts[key] = min_rank_scan(g, _probe_points(g), domain, lower, g.n, None)[:2]
    return facts[key]


def _f2_point(g, i, config):
    """The first point of F_2^n where L(g, X) has rank <= i - 1, or None:
    the p = 2 search of nontriviality_certificate, under its budget."""
    facts = _facts(g)
    key = ("f2-point", i, config.modp_point_budget)
    if key not in facts:
        facts[key] = min_rank_scan(g, field_blocks(g.n, 2), GF(2), i - 1, i, None,
                                   config.modp_point_budget)[1]
    return facts[key]


def _scan_minors(g, i):
    """(summary, gens): the (unit minor, constant minors) of the i-minor
    scan, kept in g's facts, or None past _MINOR_SCAN_CAP; and the scan's
    MinorGenerators when this call ran it, else None.  Only the first
    constant minor of each value is kept: whether a constant is a unit of
    a domain depends on its value alone, so the first unit is among them."""
    facts = _facts(g)
    key = ("minors", i)
    if key in facts:
        return facts[key], None
    if comb(g.n, i) ** 2 > _MINOR_SCAN_CAP:
        return None, None
    gens = minor_generators(generalized_laplacian(g), i)
    firsts = {}
    for minor in gens.constant_minors:
        firsts.setdefault(minor[2], minor)
    facts[key] = (gens.unit_minor, tuple(firsts.values()))
    return facts[key], gens


def _has_unit_minor(g, i, config):
    """Whether L(g, X) has a +-1 i-minor.  The F_2 point is read first: a
    +-1 minor is +-1 mod 2, so an F_2 point of rank <= i - 1 rules it out
    with no minor scan."""
    if _f2_point(g, i, config) is not None:
        return False
    summary = _scan_minors(g, i)[0]
    return summary is not None and summary[0] is not None


def gamma(g, domain=QQ, config=DEFAULT_CONFIG, cache=None) -> GammaResult:
    """The largest i with I_i(g) trivial over the domain.

    Sandwich first: the zero-forcing certificate minor gives the lower
    bound, evaluation ranks give the upper bound; no Groebner machinery
    runs unless a gap survives.  The certificate, the probe-point bound,
    the box scan and the other facts of the graph alone are kept on it
    (_facts).  With a cache, box scans and per-index decisions also go
    through it; without one (the default) gamma makes no cache key and no
    canonical form.

    Over Z and Q the box scan's cache entry is looked up before the probe
    scan, and a hit is the upper bound with no probe.  That is the bound a
    miss gives: an entry is put only after the probe left a gap, the scan
    keeps its probe point unless a box point has strictly lower rank, and
    the probe points, their order and their ranks follow any relabeling,
    so the filler's probe point maps back to the caller's own.
    """
    name = check_domain(domain).name
    n = g.n
    zf = zero_forcing_number(g)
    lower = n - zf.z
    cert = _certificate(g, zf)
    lower_witness = {"force_record": zf.witness.to_json(),
                     "certificate_rows": list(cert.rows),
                     "certificate_cols": list(cert.cols),
                     "determinant": cert.determinant}
    provenance = dict.fromkeys(range(1, lower + 1), "zero-forcing-certificate")

    hit = None if domain.p or cache is None else _cached_box_scan(g, lower, config, cache)
    if hit is not None:
        upper, upper_point = hit
    else:
        upper, upper_point = _probe(g, lower, domain, _facts(g))
        if upper > lower:
            upper, upper_point = _budgeted_box_scan(g, lower, upper, upper_point, domain,
                                                    config, cache)
    upper_witness = {"point": list(upper_point) if upper_point else None, "rank": upper}
    if upper_point is not None and upper < n:
        provenance[upper + 1] = "evaluation-rank"

    while lower < upper:
        i = lower + 1
        dec = ideal_trivial(g, i, domain, config, cache)
        if dec.trivial is None:
            provenance[i] = f"budget: {dec.detail}"
            break
        provenance[i] = dec.method
        if dec.trivial:
            lower = i
        else:
            upper = i - 1
    exact = lower == upper    # a budget stop leaves a gap
    return GammaResult(name, lower, upper, lower if exact else None, lower_witness,
                       upper_witness, provenance, "exact" if exact else "undecided")


def gamma_row(g, config=DEFAULT_CONFIG, cache=None):
    """A graph's row of the paper's comparison: Z, mz = n - Z, and the
    GammaResults over Z and Q, both through the cache if one is given (none
    by default), so gamma_Q reads gamma_Z's box scan: from the entry gamma_Z
    put when there is a cache, else from g's facts."""
    z = zero_forcing_number(g).z
    return {"graph": g, "z": z, "mz": g.n - z,
            "gamma_z": gamma(g, ZZ, config, cache), "gamma_q": gamma(g, QQ, config, cache)}


def groebner_basis_of_critical_ideal(g, i, domain=QQ, order=DEGREVLEX,
                                     config=DEFAULT_CONFIG):
    """(basis, decision) of I_i(g), for reporting and ideal comparison.

    Over a field: its reduced basis, and None.  Over Z: the basis over Q and
    the exact Z-triviality decision (see _groebner).  True basis computation
    over Z is out of scope by design.

    For 1 <= i <= n - Z, over Z, and over a field when i <= degree_cap, the
    zero forcing certificate has a +-1 i-minor (the module docstring's
    certificate rule), so the answer is the one that minor gives on the
    scan route: the basis {1} (over Q for Z) and, over Z, the decision
    "denominator-cleared constant 1", with no minor scan.
    """
    over_z = check_domain(domain) is ZZ
    if 1 <= i <= g.n - zero_forcing_number(g).z and (over_z or i <= config.degree_cap):
        one = Polynomial.constant(g.n, QQ if over_z else domain, 1)
        basis = IdealBasis([one], one.domain, order, is_groebner=True)
        decision = TrivialityDecision(True, "groebner", _describe_z_cert(("denominator", 1)))
    else:
        basis, decision = _groebner(minor_generators(generalized_laplacian(g), i), domain,
                                    order, config)
    return basis, decision if over_z else None
