"""Test oracles: reference computations that no corank command runs.

Each reaches its answer by a route of its own, so that a test can hold the
engine against it.
"""

from dataclasses import dataclass

from corank.config import DEFAULT_CONFIG
from corank.criticalideals import gamma
from corank.graphs import Digraph, _pack_key
from corank.polyring import DEGREVLEX, QQ, ZZ, Polynomial, normal_form
from corank.zeroforcing import ColorState, zero_forcing_number


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
