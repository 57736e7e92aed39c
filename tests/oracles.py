"""Test oracles: reference computations that no corank command runs.

Each reaches its answer by a route of its own, so that a test can hold the
engine against it.
"""

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from corank.config import DEFAULT_CONFIG
from corank import criticalideals
from corank.criticalideals import (TrivialityDecision, box_blocks, field_blocks, gamma,
                                   generalized_laplacian, min_rank_scan, minor_generators)
from corank.graphs import Digraph, _pack_key, canonical_form, relabel
from corank.polyring import (DEGREVLEX, GF, QQ, ZZ, BudgetExceeded, Polynomial,
                             normal_form)
from corank.zeroforcing import (ColorState, ForceRecord, ZeroForcingResult, closure,
                                zero_forcing_number)


def contained_in_monomials_plus_constant(minors, var_indices, constant):
    """Exact Z-containment test against <x_i for i in S, c>.

    A polynomial lies in that ideal iff every term free of the listed
    variables has a coefficient divisible by c.
    """
    for p in minors:
        for mono, coeff in p.terms.items():
            if any(mono[i] for i in var_indices):
                continue
            if coeff % constant != 0:
                return False
    return True


@dataclass
class Mr2CorollaryResult:
    applicable: bool
    holds: bool | None
    mr: int
    gamma_q: int


def check_mr2_corollary(g, config=DEFAULT_CONFIG, cache=None) -> Mr2CorollaryResult:
    """For connected graphs with mr <= 2 (exact at n <= 7), mr <= gamma.

    Graphs with mr > 2 are reported not applicable rather than false.
    """
    if g.n > 7:
        raise ValueError("exact minimum rank needs n <= 7")
    zf = zero_forcing_number(g)
    mr = g.n - zf.z
    gq = gamma(g, QQ, config, cache)
    if mr > 2:
        return Mr2CorollaryResult(False, None, mr, gq.value)
    return Mr2CorollaryResult(True, mr <= gq.value, mr, gq.value)


def entry(L, u, v):
    """Entry (u, v) of the generalized Laplacian ``L`` as a polynomial over
    Z: x_u on the diagonal, the entry of ``L.evaluate`` at the zero point
    off it.  So it stays independent of ``L.minor``."""
    if u == v:
        return Polynomial(L.n, ZZ, {tuple(int(j == u) for j in range(L.n)): 1})
    return Polynomial(L.n, ZZ, {(0,) * L.n: L.evaluate((0,) * L.n)[u][v]})


def key(p):
    """The seed order of a Buchberger run as a sortable key: p's
    (term, coefficient) pairs with the terms sorted in degrevlex."""
    return tuple(sorted(p.terms.items(), key=lambda t: DEGREVLEX.key(t[0])))


def contains(basis, f):
    """Ideal membership by division: f lies in the ideal of a Groebner basis
    exactly when it reduces to zero by it."""
    assert basis.is_groebner
    return f.is_zero() or normal_form(f, basis.generators, basis.order).is_zero()


def ideals_equal_by_containment(basis_a, basis_b):
    """Equality of two ideals given by Groebner bases, by mutual containment."""
    return (all(contains(basis_a, g) for g in basis_b.generators)
            and all(contains(basis_b, g) for g in basis_a.generators))


def evaluate(p, point):
    """The polynomial p at a full point (one value per variable) in its domain."""
    assert len(point) == p.nvars
    dom = p.domain
    point = [dom.coerce(v) for v in point]
    total = dom.coerce(0)
    for m, c in p.terms.items():
        val = c
        for i, e in enumerate(m):
            for _ in range(e):
                val = dom.mul(val, point[i])
        total = dom.add(total, val)
    return total


def closure_by_rescan(g, blue):
    """The deterministic closure of the color change rule as (blue, forces),
    rescanning the blue set from its lowest vertex after every force: the
    smallest legal forcer forces its one white out-neighbour."""
    adj = g.out_adj
    mask = sum(1 << v for v in set(blue))
    forces = []
    while True:
        for v in range(g.n):
            white = adj[v] & ~mask
            if mask >> v & 1 and white and white & (white - 1) == 0:
                w = white.bit_length() - 1
                forces.append((v, w))
                mask |= 1 << w
                break
        else:
            return frozenset(v for v in range(g.n) if mask >> v & 1), tuple(forces)


def zero_forcing_by_plain_search(g):
    """The exact zero forcing result by the ascending-cardinality subset
    search from size 0, each subset closed by closure: the first forcing set
    in (size, lex) order and its force list."""
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            state = closure(g, combo)
            if len(state.blue) == g.n:
                return ZeroForcingResult(k, ForceRecord(frozenset(combo), state.forces),
                                         True)


def zero_forcing_by_pruned_search(g):
    """The exact zero forcing result by the ascending-cardinality subset
    search that skips every subset inside a known non-spanning closed set:
    such a subset's closure stays inside that set, so it fails as well, and
    the first success is still the lexicographically least minimum set."""
    n = g.n
    failed_closures = []  # maximal non-spanning closed sets seen so far
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            cmask = sum(1 << v for v in combo)
            if any(cmask & ~c == 0 for c in failed_closures):
                continue
            state = closure(g, combo)
            if len(state.blue) == n:
                return ZeroForcingResult(k, ForceRecord(frozenset(combo), state.forces),
                                         True)
            cl = sum(1 << v for v in state.blue)
            if not any(cl & ~c == 0 for c in failed_closures):
                failed_closures = [c for c in failed_closures if c & ~cl != 0]
                failed_closures.append(cl)


def closure_in_random_order(g, blue, rng):
    """The closure of the color change rule applying a legal (forcer,
    forced) pair drawn by rng at each step; the final blue set is that of
    every order."""
    adj = g.out_adj
    mask = sum(1 << v for v in set(blue))
    forces = []
    while True:
        legal = []
        rest = mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            white = adj[v] & ~mask
            if white and white & (white - 1) == 0:
                legal.append((v, white.bit_length() - 1))
        if not legal:
            return ColorState(frozenset(v for v in range(g.n) if mask >> v & 1),
                              tuple(forces))
        pick = legal[rng.randrange(len(legal))]
        forces.append(pick)
        mask |= 1 << pick[1]


def canonical_form_by_tie_search(g):
    """(key, perm) of ``graphs.canonical_form`` by the search that tries
    every tied placement order.  Its one shortcut places only the first
    vertex of a remainder of at least three whose vertices are all
    interchangeable: the same rows outside it, and no arc or every arc
    inside it.  No work cap."""
    directed = isinstance(g, Digraph)
    n = g.n
    out_adj, in_adj = g.out_adj, g.in_adj
    outd = [a.bit_count() for a in out_adj]
    ind = [a.bit_count() for a in in_adj]

    def seg_of(v, placed):
        bits = 0
        for p in placed:
            if directed:
                bits = bits << 2 | (out_adj[p] >> v & 1) << 1 | (out_adj[v] >> p & 1)
            else:
                bits = bits << 1 | (out_adj[v] >> p & 1)
        return (outd[v], ind[v], bits) if directed else (outd[v], bits)

    def interchangeable(remaining):
        rem_mask = sum(1 << v for v in remaining)
        rs = list(remaining)
        rows = {(out_adj[v] & ~rem_mask, in_adj[v] & ~rem_mask) for v in rs}
        inner = sum((out_adj[v] & rem_mask).bit_count() for v in rs)
        return len(rows) == 1 and inner in (0, len(rs) * (len(rs) - 1))

    best = best_order = None
    cur = []

    def dfs(placed, remaining):
        nonlocal best, best_order
        level = len(placed)
        if level == n:
            if best is None or cur < best:
                best, best_order = list(cur), list(placed)
            return
        cands = sorted((seg_of(v, placed), v) for v in remaining)
        if len(remaining) >= 3 and interchangeable(remaining):
            cands = cands[:1]
        for seg, v in cands:
            if best is not None and cur == best[:level] and seg > best[level]:
                break
            cur.append(seg)
            placed.append(v)
            remaining.remove(v)
            dfs(placed, remaining)
            remaining.add(v)
            placed.pop()
            cur.pop()

    dfs([], set(range(n)))
    perm = [0] * n
    for new, old in enumerate(best_order or ()):
        perm[old] = new
    key = _pack_key(n, best, directed) if n else (b"D0" if directed else b"G0")
    return key, tuple(perm)


@lru_cache(maxsize=None)
def classes_by_every_join(kind, n):
    """``enumeration._classes(kind, n)`` by one-vertex extension without its
    degree filter: every class on n - 1 vertices joined to the new vertex by
    every set of edges, or of in-arcs and out-arcs, and each join labeled."""
    if n == 0:
        return (kind(0),)
    new = n - 1
    pairs = [(v, new) for v in range(new)]
    if kind is Digraph:
        pairs += [(new, v) for v in range(new)]
    seen = {}
    for parent in classes_by_every_join(kind, new):
        for sub in range(1 << len(pairs)):
            g = kind(n, list(parent.pairs) + [pair for k, pair in enumerate(pairs)
                                              if sub >> k & 1])
            cf = canonical_form(g)
            seen.setdefault(cf.key, relabel(g, cf.perm))
    return tuple(seen[key] for key in sorted(seen))


def smith_diagonal(rows):
    """The nonzero invariant factors of an integer matrix, each dividing the
    next: its Smith normal form's diagonal, by integer row and column
    operations alone (no rank kernel, no Groebner run)."""
    a = [list(r) for r in rows]
    m, n = len(a), len(a[0]) if a else 0
    diagonal = []
    for t in range(min(m, n)):
        entries = [(abs(a[i][j]), i, j) for i in range(t, m) for j in range(t, n) if a[i][j]]
        if not entries:
            break
        _, i, j = min(entries)
        while True:
            a[t], a[i] = a[i], a[t]
            for r in a:
                r[t], r[j] = r[j], r[t]
            p = a[t][t]
            for i in range(t + 1, m):
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, n):
                q = a[t][j] // p
                for r in a:
                    r[j] -= q * r[t]
            rest = [(abs(a[i][t]), i, t) for i in range(t + 1, m) if a[i][t]]
            rest += [(abs(a[t][j]), t, j) for j in range(t + 1, n) if a[t][j]]
            if rest:  # a smaller remainder becomes the pivot
                _, i, j = min(rest)
                continue
            bad = next(((i, j) for i in range(t + 1, m) for j in range(t + 1, n)
                        if a[i][j] % p), None)
            if bad is None:
                break
            # p must divide the rest: add the offending row, then reduce again
            a[t] = [x + y for x, y in zip(a[t], a[bad[0]])]
            i, j = t, t
        diagonal.append(abs(a[t][t]))
    return diagonal


def decision_in_scan_order(g, i, domain, config=DEFAULT_CONFIG):
    """``ideal_trivial``'s decision by the order of attack that reads no
    kept fact, on a fresh copy of g: the i-minor scan (a +-1 minor, then a
    constant that is a unit of the domain), then a point search over Q (the
    integer box) and Z (each prime's field in ``config.primes`` order),
    then Groebner on the generators of that scan."""
    g = type(g)(g.n, g.pairs)
    gens = None
    if comb(g.n, i) ** 2 <= criticalideals._MINOR_SCAN_CAP:
        gens = minor_generators(generalized_laplacian(g), i)
        if gens.unit_minor is not None:
            return TrivialityDecision(True, "unit-minor", gens.unit_minor)
        for minor in gens.constant_minors:
            if domain.is_unit(minor[2]):
                return TrivialityDecision(True, "constant-minor", minor)
    if domain is QQ:
        point = min_rank_scan(g, box_blocks(g.n, config.box_radius), QQ, i - 1, i, None,
                              config.box_point_budget)[1]
        if point is not None:
            return TrivialityDecision(False, "point-certificate", point)
    if domain is ZZ:
        for p in config.primes:
            point = min_rank_scan(g, field_blocks(g.n, p), GF(p), i - 1, i, None,
                                  config.modp_point_budget)[1]
            if point is not None:
                return TrivialityDecision(False, "point-certificate", (p, point))
    if gens is None:
        return TrivialityDecision(None, "budget", "minor scan too large")
    try:
        return criticalideals._groebner(gens, domain, DEGREVLEX, config)[1]
    except BudgetExceeded as exc:
        return TrivialityDecision(None, "budget", f"{exc.reason}, partial basis of "
                                                  f"{len(exc.partial)} polynomials")


def groebner_basis_by_minor_scan(g, i, domain, order=DEGREVLEX, config=DEFAULT_CONFIG):
    """``groebner_basis_of_critical_ideal`` by the route that reads no zero
    forcing certificate: the i-minor scan, then ``_groebner`` on it, at
    every index.  The last scan is reused for the same graph and index."""
    basis, decision = criticalideals._groebner(_minor_scan(g, i), domain, order, config)
    return basis, decision if domain is ZZ else None


@lru_cache(maxsize=1)
def _minor_scan(g, i):
    return minor_generators(generalized_laplacian(g), i)


def relabeled(graphs, seed):
    """Each graph under its own permutation, all drawn from random.Random(seed)."""
    rng = random.Random(seed)
    out = []
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append(relabel(g, perm))
    return out
