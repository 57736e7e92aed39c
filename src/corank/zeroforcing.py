"""The color-change game: closures, zero forcing numbers, and the
unit-determinant certificate submatrix extracted from a chronological list.

Rules: a blue vertex with exactly one white neighbor forces it; on digraphs
the unique white *out*-neighbor is forced (in-neighbors are irrelevant).
"""

from dataclasses import dataclass
from itertools import combinations

from .config import RunConfig
from .graphs import kept


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class ColorState:
    blue: frozenset
    forces: tuple  # ordered (forcer, forced) pairs


@dataclass(frozen=True)
class ForceRecord:
    initial_set: frozenset
    forces: tuple

    def to_json(self):
        return {"initial_set": sorted(self.initial_set),
                "forces": [list(f) for f in self.forces]}


def _close(adj, in_adj, mask, forces=None):
    """The final blue mask of the color change rule from the blue mask, on
    the out- and in-neighbour bitmasks; each (forcer, forced) pair is
    appended to forces when a list is given.

    The lexicographically smallest legal pair is applied first.  The run
    keeps a mask of blue vertices still to test and tests them lowest first,
    instead of rescanning from the lowest blue vertex after every force.  A
    vertex that could not force when tested can become legal only once one
    of its out-neighbours turns blue, so after a force v -> w only w and the
    blue in-neighbours of w go back into the mask; a forcer has no white
    neighbour left.  So every legal vertex is in the mask, and the first one
    tested is the smallest.
    """
    scan = mask
    while scan:
        low = scan & -scan
        scan ^= low
        v = low.bit_length() - 1
        white = adj[v] & ~mask
        if white and white & (white - 1) == 0:
            w = white.bit_length() - 1
            if forces is not None:
                forces.append((v, w))
            mask |= white
            scan |= white | in_adj[w] & mask
    return mask


def _mask(g, blue):
    """The bitmask of a vertex set of g, each vertex checked in range."""
    mask = 0
    for v in blue:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        mask |= 1 << v
    return mask


def closure(g, blue) -> ColorState:
    """Fixed point of the color change rule starting from the given set,
    with its chronological list of forces (see _close); the final blue set
    is order-independent."""
    forces = []
    mask = _close(g.out_adj, g.in_adj, _mask(g, blue), forces)
    return ColorState(frozenset(i for i in range(g.n) if mask >> i & 1), tuple(forces))


def is_zero_forcing_set(g, blue) -> bool:
    return _close(g.out_adj, g.in_adj, _mask(g, blue)) == (1 << g.n) - 1


@dataclass(frozen=True)
class ZeroForcingResult:
    z: int
    witness: ForceRecord
    exact: bool


def zero_forcing_number(g) -> ZeroForcingResult:
    """Minimum zero forcing set by ascending-cardinality subset search.

    Exact for n <= RunConfig.zf_exact_max_n; the witness is the
    lexicographically least minimum set.  Beyond that tier a greedy upper
    bound is returned with exact=False.  Either result depends on the graph
    alone, so it is kept on the graph (graphs.kept).
    """
    return kept(g, "zero-forcing",
                _exact_search if g.n <= RunConfig.zf_exact_max_n else _greedy_upper_bound, g)


def _exact_search(g):
    """The first zero forcing set among all vertex subsets, by ascending
    size and then lexicographically; V itself always forces.

    The sizes start at the least out-degree d: in a set S with |S| < d
    each blue vertex has at most |S| - 1 blue out-neighbours, so at least
    d - (|S| - 1) >= 2 white ones, nothing is forced and S (not V, as
    |S| < d <= n - 1) does not force.  So the first forcing set in (size,
    lex) order, and its force list, are those of the search from size 0.
    Each subset comes with its bitmask and is closed on masks alone; only
    the winner is closed again by closure, for its force list."""
    n = g.n
    adj, in_adj, full = g.out_adj, g.in_adj, (1 << n) - 1
    bits = [1 << v for v in range(n)]
    for k in range(min(map(int.bit_count, adj), default=0), n + 1):
        for combo, mask in zip(combinations(range(n), k), map(sum, combinations(bits, k))):
            if _close(adj, in_adj, mask) == full:
                return ZeroForcingResult(k, ForceRecord(frozenset(combo),
                                                        closure(g, combo).forces), True)


def _greedy_upper_bound(g):
    keep = set(range(g.n))
    for v in range(g.n - 1, -1, -1):
        trial = keep - {v}
        if trial and is_zero_forcing_set(g, trial):
            keep = trial
    state = closure(g, keep)
    return ZeroForcingResult(len(keep), ForceRecord(frozenset(keep), state.forces),
                             False)


def mz(g) -> int:
    """n - Z(g); a lower bound on n - Z when beyond the exact tier."""
    return g.n - zero_forcing_number(g).z


def validate_record(g, record: ForceRecord) -> bool:
    """Replay the chronological list, checking each force was legal."""
    adj = g.out_adj
    mask = 0
    for v in record.initial_set:
        if not 0 <= v < g.n:
            return False
        mask |= 1 << v
    for a, b in record.forces:
        if not (mask >> a & 1) or mask >> b & 1:
            return False
        white = adj[a] & ~mask
        if white != 1 << b:
            return False
        mask |= 1 << b
    return mask == (1 << g.n) - 1


@dataclass(frozen=True)
class CertificateMinor:
    rows: tuple          # forcing vertices a_1..a_k
    cols: tuple          # forced vertices b_1..b_k
    determinant: int     # (-1)^k, forced by the triangular shape


def certificate_minor(g, record: ForceRecord) -> CertificateMinor:
    """The submatrix of the variable-diagonal Laplacian on rows a_i, cols b_i.

    Its entry (t, s) is x_{a_t} when b_s = a_t, -1 when b_s is a forward
    neighbor of a_t, and 0 otherwise; the adjacency bits verify it lower
    triangular with -1 on the diagonal, so its determinant is (-1)^k
    whatever the below-diagonal entries (which may be diagonal variables of
    the ambient matrix).  This certifies the k-minor ideal trivial over
    every commutative ring with unity.
    """
    if not validate_record(g, record):
        raise CertificateError("force record does not replay on this graph")
    adj = g.out_adj
    rows = tuple(a for a, _ in record.forces)
    cols = tuple(b for _, b in record.forces)
    for t, (a, b) in enumerate(record.forces):
        if a == b or not adj[a] >> b & 1:
            raise CertificateError(f"diagonal entry at step {t} is not -1; "
                                   f"replay admitted an illegal force")
        for s in range(t + 1, len(cols)):
            if cols[s] == a or adj[a] >> cols[s] & 1:
                raise CertificateError(f"entry ({t},{s}) above the diagonal is nonzero; "
                                       f"list is not chronological")
    return CertificateMinor(rows, cols, -1 if len(rows) % 2 else 1)
