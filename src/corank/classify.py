"""Forbidden-induced-subgraph classifications at parameter value one.

Graphs: connected G is complete iff P3-free iff mr <= 1 iff co-rank <= 1
iff mz <= 1.  Digraphs: the analogous five-way classification through the
three-part digraphs Lambda_{n1,n2,n3} and the seventeen-member forbidden
family.  The digraph equivalence is exhaustively true on weakly connected
inputs; disconnected inputs can break the forbidden-family direction (two
disjoint arcs are family-free but have mz = 2), and reports on such inputs
carry agreement=False rather than hiding it.
"""

from dataclasses import dataclass, field

from .config import DEFAULT_CONFIG
from .criticalideals import gamma_row
from .generators import forbidden_family_named, path
from .graphs import Digraph, Graph, contains_induced, is_connected
from .linalg import exact_rank
from .zeroforcing import zero_forcing_number


@dataclass
class EquivalenceReport:
    kind: str
    conditions: dict            # name -> bool
    witnesses: dict = field(default_factory=dict)

    @property
    def agreement(self) -> bool:
        return len(set(self.conditions.values())) == 1

    def to_json(self):
        return {"kind": self.kind, "conditions": dict(self.conditions),
                "agreement": self.agreement,
                "witnesses": self.witnesses}


# ---------------------------------------------------------------------------
# graphs

def is_complete_graph(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def classify_rank1_graph(g: Graph, config=DEFAULT_CONFIG, cache=None) -> EquivalenceReport:
    """The five equivalent descriptions of connected graphs with all
    parameters at most one (only the complete graphs qualify)."""
    if not is_connected(g):
        raise ValueError("rank-1 classification is stated for connected graphs")
    complete = is_complete_graph(g)
    p3_hit = contains_induced(g, path(3)) if g.n >= 3 else None
    p3_free = p3_hit is None
    row = gamma_row(g, config, cache)
    m_z, gq, gz = row["mz"], row["gamma_q"], row["gamma_z"]
    mr_le_1 = complete  # the all-ones matrix is the rank-one witness
    witnesses = {"zero_forcing_set": sorted(zero_forcing_number(g).witness.initial_set),
                 "gamma_q": gq.value, "gamma_z": gz.value}
    if p3_hit is not None:
        witnesses["induced_p3"] = p3_hit
    if complete:
        witnesses["rank1_matrix"] = "all-ones"
    conditions = {
        "complete": complete,
        "p3_free": p3_free,
        "mr_le_1": mr_le_1,
        "gamma_le_1": gq.value is not None and gq.value <= 1
                      and gz.value is not None and gz.value <= 1,
        "mz_le_1": m_z <= 1,
    }
    return EquivalenceReport("graph-rank1", conditions, witnesses)


# ---------------------------------------------------------------------------
# digraphs

def _arc_decompositions(d: Digraph):
    """Every (A, B) with arcs(d) = A x B minus the diagonal; only
    (empty, empty) when there are no arcs.

    A is the out-support and B the in-support, except that a one-element
    side may absorb its counterpart without changing A x B.  Every
    decomposition covers the same vertices, and the rest are isolated.
    """
    if not d.arcs:
        yield frozenset(), frozenset()
        return
    out_support = frozenset(u for u in range(d.n) if d.out_adj[u])
    in_support = frozenset(v for v in range(d.n) if d.in_adj[v])
    cand_a = [out_support] + ([out_support | in_support] if len(in_support) == 1 else [])
    cand_b = [in_support] + ([in_support | out_support] if len(out_support) == 1 else [])
    arcs = set(d.arcs)
    for a in cand_a:
        for b in cand_b:
            if {(u, v) for u in a for v in b if u != v} == arcs:
                yield a, b


def rank1_arc_decomposition(d: Digraph):
    """Sets (A, B) with arcs(d) = A x B minus the diagonal, or None.

    Such a decomposition is exactly a rank-one pattern witness: the 0/1
    matrix with rows A and columns B realizes the arc pattern off the
    diagonal.  Vertices outside A and B are necessarily isolated.
    """
    return next(_arc_decompositions(d), None)


def _lambda_parts(d: Digraph, require_cover):
    """Sorted distinct (|A - B|, |A & B|, |B - A|) over the decompositions,
    only those covering every vertex when required; (0, 0, n) without arcs."""
    if not d.arcs:
        return [(0, 0, d.n)]
    return sorted({(len(a - b), len(a & b), len(b - a))
                   for a, b in _arc_decompositions(d)
                   if not require_cover or len(a | b) == d.n})


def is_lambda(d: Digraph):
    """Partition witness (n1, n2, n3) when d is exactly some Lambda digraph.

    Every vertex must land in one of the three parts (empty parts are
    fine); ties resolve to the lexicographically least witness.  Returns
    None otherwise.
    """
    found = _lambda_parts(d, require_cover=True)
    return found[0] if found else None


def is_lambda_up_to_isolated(d: Digraph):
    """(n1, n2, n3, isolated count) when d is a Lambda digraph possibly
    together with isolated vertices.

    Disconnected inputs make this the reading under which the five-way
    digraph classification stays an equivalence; an exact Lambda is the
    special case isolated = 0.
    """
    found = _lambda_parts(d, require_cover=False)
    if not found:
        return None
    parts = found[0]
    return (*parts, d.n - sum(parts))


def lambda_pattern_matrix(d: Digraph):
    """Rank-at-most-one integer matrix whose off-diagonal support is the
    arc set, from the A x B decomposition; None when no such matrix exists."""
    deco = rank1_arc_decomposition(d)
    if deco is None:
        return None
    a, b = deco
    return [[(1 if (i in a and j in b) else 0) for j in range(d.n)]
            for i in range(d.n)]


def classify_digraph1(d: Digraph, config=DEFAULT_CONFIG, cache=None) -> EquivalenceReport:
    """The five-way digraph classification at parameter value one.

    Conditions: forbidden-family-free, Lambda shape (up to isolated
    vertices), minimum rank <= 1 (rank-one pattern witness), mz <= 1, and
    co-rank <= 1 over Z and Q.  Agreement can legitimately fail on
    disconnected inputs whose components both carry arcs; the report then
    simply carries the disagreement.
    """
    hits = []
    for name, pattern, _ in forbidden_family_named():
        if pattern.n <= d.n:
            emb = contains_induced(d, pattern)
            if emb is not None:
                hits.append((name, emb))
    family_free = not hits

    lam = is_lambda_up_to_isolated(d)
    strict = is_lambda(d)
    matrix = lambda_pattern_matrix(d)
    mr_le_1 = matrix is not None
    if matrix is not None:
        _assert_pattern(d, matrix)

    row = gamma_row(d, config, cache)
    m_z, gq, gz = row["mz"], row["gamma_q"], row["gamma_z"]

    conditions = {
        "family_free": family_free,
        "lambda_shape": lam is not None,
        "mr_le_1": mr_le_1,
        "mz_le_1": m_z <= 1,
        "gamma_le_1": gq.value is not None and gq.value <= 1
                      and gz.value is not None and gz.value <= 1,
    }
    witnesses = {"zero_forcing_set": sorted(zero_forcing_number(d).witness.initial_set),
                 "mz": m_z, "gamma_q": gq.value, "gamma_z": gz.value}
    if hits:
        witnesses["forbidden_embeddings"] = hits[:3]
    if lam is not None:
        witnesses["lambda_parts"] = lam
        witnesses["lambda_strict"] = strict
    if matrix is not None:
        witnesses["rank1_matrix"] = matrix
    return EquivalenceReport("digraph-rank1", conditions, witnesses)


def _assert_pattern(d, matrix):
    for i in range(d.n):
        for j in range(d.n):
            if i == j:
                continue
            want = d.has_arc(i, j)
            have = matrix[i][j] != 0
            assert want == have, f"pattern mismatch at ({i},{j})"
    assert exact_rank(matrix).rank <= 1
