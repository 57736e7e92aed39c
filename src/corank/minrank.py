"""Minimum-rank style parameters: exact ranks, small-order minimum rank,
diagonal-evaluation bounds, and the tree parameter suite.

Tree parameters come from two independent dynamic programs (a 2-matching
DP and a delete-or-extend DP for the path-count maximum) whose agreement
with each other and with exponential oracles is part of the test gate.
"""

from dataclasses import dataclass, field

from .config import DEFAULT_CONFIG
from .criticalideals import box_blocks, gamma, gamma_row, min_rank_scan, own_scan_bound
from .graphs import Graph, adjacency_lists, rooted_tree
from .linalg import RankComputation, exact_rank
from .polyring import QQ
from .zeroforcing import zero_forcing_number

__all__ = ["exact_rank", "RankComputation", "mr_small", "mrcr_bounds",
           "two_matching_number", "path_cover_number", "delta_parameter",
           "tree_suite", "TreeParams", "TreeTheoremViolation"]


class TreeTheoremViolation(AssertionError):
    """An identity that provably holds for trees failed: implementation bug."""


# ---------------------------------------------------------------------------
# minimum rank at small order

@dataclass(frozen=True)
class MinimumRankResult:
    exact: bool
    lower: int
    upper: int
    provenance: str

    @property
    def value(self):
        if not self.exact:
            raise ValueError("minimum rank not exact at this order; use bounds")
        return self.lower


def mr_small(g: Graph, config=DEFAULT_CONFIG, cache=None,
             q_bounds=None) -> MinimumRankResult:
    """Real minimum rank, exact for n <= 7 where it coincides with n - Z.

    Larger orders get the interval [n - Z, best diagonal-evaluation rank],
    explicitly flagged non-exact: the upper end is q_bounds, the caller's
    mrcr_bounds over Q, or else a box scan after deciding gamma over Q
    through the cache, if one is given.
    """
    zf = zero_forcing_number(g)
    lo = g.n - zf.z
    if g.n <= 7:
        return MinimumRankResult(True, lo, lo, "zero-forcing identity (n <= 7)")
    bounds = q_bounds or mrcr_bounds(g, QQ, gamma(g, QQ, config, cache), config)
    return MinimumRankResult(False, lo, bounds.upper,
                             "bounds only: zero-forcing lower, evaluation upper")


@dataclass(frozen=True)
class MrcrBounds:
    domain: str
    lower: int
    upper: int
    witness: tuple | None   # diagonal achieving the upper bound
    exhaustive: bool        # whole box scanned (upper is exact over the box)

    def to_json(self):
        return {"lower": self.lower, "upper": self.upper,
                "witness": list(self.witness) if self.witness else None,
                "exhaustive": self.exhaustive}


def mrcr_bounds(g, domain, gamma_result, config=DEFAULT_CONFIG) -> MrcrBounds:
    """Bounds on the least rank of L(g, d) over diagonals d in the domain.

    Lower bound: gamma_result, the co-rank gamma(g, domain) (which itself
    dominates n - Z); upper bound: the best exact rank over the integer box
    of radius config.box_radius.
    """
    lower = gamma_result.value if gamma_result.value is not None else gamma_result.lower
    upper, witness, exhaustive, _ = min_rank_scan(
        g, box_blocks(g.n, config.box_radius), domain, lower, g.n, None,
        config.box_point_budget)
    return MrcrBounds(domain.name, lower, upper, witness, exhaustive)


# ---------------------------------------------------------------------------
# 2-matchings

def _nu2_tree(order, children):
    """Maximum 2-matching on a rooted tree: DP over (vertex, parent-edge-used)."""
    n = len(order)
    dp0 = [0] * n   # parent edge unused: up to two child edges
    dp1 = [0] * n   # parent edge used: up to one child edge
    pick0 = [[] for _ in range(n)]
    pick1 = [[] for _ in range(n)]
    for v in reversed(order):
        base = sum(dp0[c] for c in children[v])
        gains = sorted(((dp1[c] + 1 - dp0[c], c) for c in children[v]),
                       reverse=True)
        chosen = [c for gain, c in gains[:2] if gain > 0]
        dp0[v] = base + sum(dp1[c] + 1 - dp0[c] for c in chosen)
        pick0[v] = chosen
        chosen1 = [c for gain, c in gains[:1] if gain > 0]
        dp1[v] = base + sum(dp1[c] + 1 - dp0[c] for c in chosen1)
        pick1[v] = chosen1
    edges = []
    stack = [(0, 0)]  # (vertex, parent edge used)
    while stack:
        v, used = stack.pop()
        chosen = pick1[v] if used else pick0[v]
        for c in children[v]:
            if c in chosen:
                edges.append((min(v, c), max(v, c)))
                stack.append((c, 1))
            else:
                stack.append((c, 0))
    assert len(edges) == dp0[0]
    return dp0[0], edges


def two_matching_number(g: Graph):
    """Maximum edge set of a tree with every vertex meeting at most two
    chosen edges, by the linear DP.

    Returns (size, edge list); a graph that is not a tree is a ValueError.
    """
    _, order, children = rooted_tree(g)
    return _nu2_tree(order, children)


# ---------------------------------------------------------------------------
# path covers on trees

def _paths_of_matching(g: Graph, matching):
    """Components of the chosen 2-matching as vertex paths (trees only)."""
    nbr = {v: [] for v in range(g.n)}
    for u, v in matching:
        nbr[u].append(v)
        nbr[v].append(u)
    assert all(len(ns) <= 2 for ns in nbr.values())
    seen = set()
    paths = []
    for v in range(g.n):
        if v in seen:
            continue
        if len(nbr[v]) == 2:
            continue  # interior vertex, start paths at endpoints only
        path = [v]
        seen.add(v)
        prev, cur = v, (nbr[v][0] if nbr[v] else None)
        while cur is not None:
            path.append(cur)
            seen.add(cur)
            nxt = [w for w in nbr[cur] if w != prev]
            prev, cur = cur, (nxt[0] if nxt else None)
        paths.append(path)
    assert len(seen) == g.n
    return paths


def path_cover_number(t: Graph):
    """Minimum number of vertex-disjoint induced paths covering a tree.

    Computed as n minus the 2-matching number; the cover witness is the
    path system spanned by a maximum 2-matching (within a tree any
    connected subgraph path is automatically induced).
    """
    nu2, matching = two_matching_number(t)
    paths = _paths_of_matching(t, matching)
    assert len(paths) == t.n - nu2
    return t.n - nu2, paths


def path_cover_oracle(t: Graph):
    """Brute-force minimum induced-path cover, for cross-validation."""
    n = t.n

    def cover(uncovered):
        if not uncovered:
            return 0
        v = min(uncovered)
        best = None
        for path_set, size in _paths_through(t, v, uncovered):
            sub = cover(uncovered - path_set)
            total = 1 + sub
            if best is None or total < best:
                best = total
        return best

    return cover(frozenset(range(n)))


def _paths_through(g, v, allowed):
    """All vertex sets of induced paths inside allowed that contain v."""
    seen = {frozenset([v])}
    yield frozenset([v]), 1
    stack = [[v]]
    # grow paths from v in both directions
    def extensions(path):
        out = []
        for end, other in ((path[0], path[-1]), (path[-1], path[0])):
            for w in g.neighbors(end):
                if w not in allowed or w in path:
                    continue
                candidate = [w] + path if end == path[0] else path + [w]
                interior_ok = all(not g.has_edge(w, x) for x in path if x != end)
                if interior_ok:
                    out.append(candidate)
        return out

    while stack:
        path = stack.pop()
        for cand in extensions(path):
            key = frozenset(cand)
            if key in seen:
                continue
            seen.add(key)
            yield key, len(cand)
            stack.append(cand)


# ---------------------------------------------------------------------------
# the delete-or-extend maximum

NEG = float("-inf")


def delta_parameter(t: Graph):
    """Maximum of (paths left) - (vertices deleted) over vertex deletions
    of a tree that leave a disjoint union of paths.

    Linear-time DP.  States per vertex: deleted; kept with 0 or 1
    surviving child branches.  Keeping 2 branches is never better than
    deleting the vertex (see _delta_tree).  Returns (delta, deleted set,
    path count).
    """
    return _delta_tree(t, *rooted_tree(t))


def _delta_tree(t, adj, order, children):
    """delta_parameter of t, rooted as rooted_tree(t) gives it.

    A vertex kept with two open child branches c1, c2 is never the best
    closed state.  That state is worth the other children's dpD plus
    open_up(c1) + open_up(c2) + 1, and deleting the vertex instead is worth
    the sum of closed(c) - 1, where closed(c) >= dpD[c] and closed(c) >=
    open_up(c) + 1: at least as much, and ties go to D.
    """
    n = t.n
    dpD = [0] * n
    dp0 = [0] * n
    dp1 = [NEG] * n
    choice1 = [None] * n  # child kept open in state 1

    def closed(c):
        return max(dpD[c], dp0[c] + 1, dp1[c] + 1)

    def open_up(c):
        return max(dp0[c], dp1[c])

    def closed_state(c):
        # the state achieving closed(c); ties go to D, 0, 1 in that order
        values = {"D": dpD[c], "0": dp0[c] + 1, "1": dp1[c] + 1}
        return max(values, key=values.get)

    for v in reversed(order):
        kids = children[v]
        sum_closed = sum(closed(c) for c in kids)
        sum_deleted = sum(dpD[c] for c in kids)
        dpD[v] = sum_closed - 1
        dp0[v] = sum_deleted
        if kids:
            g1, c1 = max((open_up(c) - dpD[c], c) for c in kids)
            dp1[v] = sum_deleted + g1
            choice1[v] = c1

    root = order[0]
    delta = closed(root)

    # witness reconstruction
    deleted = set()
    stack = [(root, closed_state(root))]
    while stack:
        v, state = stack.pop()
        kids = children[v]
        if state == "D":
            deleted.add(v)
            for c in kids:
                stack.append((c, closed_state(c)))
            continue
        keep_open = [choice1[v]] if state == "1" else []
        for c in kids:
            if c in keep_open:
                sub = "0" if dp0[c] >= dp1[c] else "1"
                stack.append((c, sub))
            else:
                stack.append((c, "D"))
    # count resulting paths: components of t minus deleted
    paths = _count_path_components(t, deleted, adj)
    assert paths - len(deleted) == delta, "witness must reproduce the DP value"
    return delta, sorted(deleted), paths


def _count_path_components(g, deleted, adj=None):
    adj = adj if adj is not None else adjacency_lists(g)
    seen = set(deleted)
    comps = 0
    for v in range(g.n):
        if v in seen:
            continue
        comps += 1
        comp = []
        seen.add(v)
        queue = [v]
        while queue:
            x = queue.pop()
            comp.append(x)
            degree_alive = 0
            for w in adj[x]:
                if w in deleted:
                    continue
                degree_alive += 1
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
            if degree_alive > 2:
                raise AssertionError("deletion witness leaves a non-path component")
    return comps


def delta_oracle(t: Graph):
    """Exhaustive max of p - q over all deletion subsets (n <= ~12)."""
    best = NEG
    n = t.n
    for mask in range(1 << n):
        deleted = {v for v in range(n) if mask >> v & 1}
        if len(deleted) == n:
            continue
        try:
            p = _count_path_components(t, deleted)
        except AssertionError:
            continue
        best = max(best, p - len(deleted))
    return best


def nu2_oracle(g: Graph):
    """Exhaustive maximum 2-matching over edge subsets (small inputs)."""
    edges = sorted(g.edges)
    best = 0
    for mask in range(1 << len(edges)):
        deg = [0] * g.n
        ok = True
        count = 0
        for k, (u, v) in enumerate(edges):
            if mask >> k & 1:
                deg[u] += 1
                deg[v] += 1
                count += 1
                if deg[u] > 2 or deg[v] > 2:
                    ok = False
                    break
        if ok:
            best = max(best, count)
    return best


# ---------------------------------------------------------------------------
# the full tree suite

@dataclass
class TreeParams:
    n: int
    mz: int
    P: int
    Delta: int
    nu2: int
    M: int
    mr: int
    gamma_z: int
    gamma_q: int
    diagonal: tuple           # d in {-1,0}^n with rank L(T,d) = mz
    cover: list = field(default_factory=list)
    matching: list = field(default_factory=list)
    deletion_set: list = field(default_factory=list)

    def to_json(self):
        return {"n": self.n, "mz": self.mz, "path_cover": self.P,
                "delta": self.Delta, "nu2": self.nu2, "max_nullity": self.M,
                "mr": self.mr, "gamma_z": self.gamma_z, "gamma_q": self.gamma_q,
                "diagonal": list(self.diagonal),
                "cover": self.cover, "matching": [list(e) for e in self.matching],
                "deletion_set": self.deletion_set}


def tree_suite(t: Graph, config=DEFAULT_CONFIG, cache=None) -> TreeParams:
    """Every tree parameter, with all the provable equalities asserted.

    mz = gamma_Z = gamma_Q = mr = n - P = n - Delta = nu2, plus a diagonal
    d in {-1,0}^n with rank L(t,d) = mz.  Any failed equality raises
    TreeTheoremViolation: the theorems hold, so only a bug can trip it.
    mz, gamma_Z and gamma_Q come from gamma_row, through the cache if one
    is given; without one no canonical form is made.

    The diagonal is the first d in {-1,0}^n, in lex order, with rank
    L(t, d) <= mz; no diagonal ranks below n - Z, so its rank is mz.  When
    gamma's own bound of t over Q (own_scan_bound: the probe scan, then the
    box scan after a gap) ends at a nonzero point of {-1,0}^n with rank mz,
    that point is the diagonal and the search is not run.  It is the search's first point of rank <= mz (lower = mz in both
    scans):
    - a probe point stops the probe scan at the first rank <= lower, and
      the only nonzero probe point of a tree in {-1,0}^n is (-1,...,-1),
      the search's first point;
    - a box scan runs only when the probe left upper > lower, so shell 0,
      the zero point, which the probe ranks first, ranks above mz; the
      box point b of rank mz lies in {-1,0}^n, so in shell 1;
    - the scan stops at the first point of rank <= lower, and shell 1 is
      the lex product of (-1, 0, 1) kept where a coordinate is +-1, which
      on {-1,0}^n minus the zero point is the search's own order, so every
      search point before b ranks above mz;
    - the zero point comes last in the search, so never before b.
    Those facts hold gamma's own scans only, never a cache's entry, so the
    diagonal is the same with or without a cache.
    """
    adj, order, children = rooted_tree(t)
    n = t.n
    if n > config.zf_exact_max_n:
        raise ValueError(f"tree suite verifies exactly only up to "
                         f"n={config.zf_exact_max_n}; use delta_parameter / "
                         f"two_matching_number for large trees")
    nu2, matching = _nu2_tree(order, children)
    cover = _paths_of_matching(t, matching)
    p_cover = len(cover)
    delta, deletion, paths = _delta_tree(t, adj, order, children)
    row = gamma_row(t, config, cache)
    m_z, gz, gq = row["mz"], row["gamma_z"], row["gamma_q"]

    own = own_scan_bound(t, config)
    if own is not None and own[0] == m_z and any(own[1]) and set(own[1]) <= {-1, 0}:
        diag_rank, diag = own
    else:
        diag_rank, diag, _, _ = min_rank_scan(t, [(((-1, 0),) * n, None)], QQ, m_z,
                                              m_z + 1, None)

    checks = {
        "nu2 == n - P": nu2 == n - p_cover,
        "P == Delta": p_cover == delta,
        "mz == n - P": m_z == n - p_cover,
        "gamma_Z == mz": gz.value == m_z,
        "gamma_Q == mz": gq.value == m_z,
        "diagonal in {-1,0}^n achieving rank mz": diag_rank == m_z,
    }
    failures = [name for name, ok in checks.items() if not ok]
    if failures:
        raise TreeTheoremViolation(f"tree identities failed: {failures}")
    return TreeParams(n=n, mz=m_z, P=p_cover, Delta=delta, nu2=nu2,
                      M=n - m_z, mr=m_z, gamma_z=gz.value, gamma_q=gq.value,
                      diagonal=diag, cover=cover, matching=matching,
                      deletion_set=deletion)
