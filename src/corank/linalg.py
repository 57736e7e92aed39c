"""Exact matrix rank and determinants.

Rational input is scaled row-wise to integers.  Every rank, of one matrix
or of a scan's points, comes from ``_eliminate``: fraction-free Bareiss
elimination over Q (Bareiss 1968: bit-exact, with division-free growth
control), plain elimination over F_p.  One matrix enters it through
``integer_rank``, which takes integer rows as they are: ``exact_rank``
and ``rank_mod_p`` convert theirs first, and a caller that builds its own
integer rows (a cache entry's check) hands them over without a copy.
Over Q a row whose multiplier is 0 is left as it is when the pivot equals
the previous one: its Bareiss update (a * piv - 0 * b) / prev is a itself,
so the eliminated rows are those of the full update.  ``det_exact`` is a
separate Bareiss loop, kept as an independent check of that kernel.

Evaluation scans (the least rank of one integer matrix over many
diagonals) go through ``rank_scan``: a depth-first walk over lex product
blocks of points that resumes its parent's elimination at each depth.
Setting coordinate k adds d_k times the last pivot (1 over F_p) to entry
(k, k); pivots are then taken inside the leading (k+1) x (k+1) block only,
whose unpivoted rest is zero.  Every diagonal below a node therefore keeps
rank r + [rows beside that zero block are nonzero] + [columns are], so a
subtree whose bound reaches the running minimum is skipped and its points
are counted by product sizes.  A node one pivot short of the minimum
counts such subtrees before making them: a nonzero new entry (k, k) is
one more pivot, so only the child whose entry is zero is copied and
eliminated.  At the last coordinate a nonzero side gives the rank
outright, and otherwise the corner does: O(1) per value.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm, prod
from operator import mul


def _to_integer_rows(rows):
    """(integer rows, scales): each row times the lcm of its denominators
    (an int's is 1), so a row of ints is one int pass."""
    out, scales = [], []
    for row in rows:
        scale = lcm(*[c.denominator for c in row])
        out.append([int(c) for c in row] if scale == 1 else [int(c * scale) for c in row])
        scales.append(scale)
    return out, scales


@dataclass(frozen=True)
class RankComputation:
    rank: int


def exact_rank(rows) -> RankComputation:
    """Rank of a rational matrix."""
    return RankComputation(integer_rank(_to_integer_rows(rows)[0]))


def rank_mod_p(rows, p) -> int:
    """Rank over the prime field F_p of a rational matrix, each entry taken
    as numerator / denominator mod p; an entry whose denominator p divides
    is a ValueError."""
    return integer_rank([[c.numerator * pow(c.denominator, -1, p) % p for c in row]
                         for row in rows], p)


def integer_rank(m, p=None):
    """Rank of the integer matrix m over Q, or over F_p when p is given (its
    entries then reduced mod p): _eliminate on m itself, which it
    overwrites, when m is square, else on a copy padded square with zero
    rows or columns."""
    k = len(m)
    if any(len(row) != k for row in m):
        k = max(k, *map(len, m))
        m = [row + [0] * (k - len(row)) for row in m] + [[0] * k for _ in range(k - len(m))]
    return _eliminate(m, 0, 1, p, k)[0]


def det_exact(rows):
    """Exact determinant of a square rational matrix (Bareiss)."""
    nr = len(rows)
    if nr == 0:
        return Fraction(1)
    assert all(len(r) == nr for r in rows)
    m, scales = _to_integer_rows(rows)
    sign = 1
    prev = 1
    for k in range(nr - 1):
        if m[k][k] == 0:
            for i in range(k + 1, nr):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        piv = m[k][k]
        for i in range(k + 1, nr):
            for j in range(k + 1, nr):
                m[i][j] = (m[i][j] * piv - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = piv
    return Fraction(sign * m[nr - 1][nr - 1], prod(scales))


def rank_scan(base_rows, blocks, p, lower, upper, upper_point, budget=None):
    """Lower the bound (upper, upper_point) to the least rank over a point set.

    The rank is that of the square integer matrix base_rows, whose diagonal
    is zero, with the point on its diagonal, over Q, or over F_p when p is
    given.  The points are those of the blocks in order.  A block (axes,
    rim) is the lex product of its axes, one value sequence per coordinate,
    keeping only the points with a coordinate in the set rim unless rim is
    None.  The scan stops once upper <= lower, and when a point past the
    first `budget` comes up; with upper <= lower on entry it still takes
    the first point.

    Returns (upper, point, exhaustive, scanned): the first point of the
    least rank found below upper (else upper_point), whether the scan ended
    before the budget did, and the number of points taken.
    """
    n = len(base_rows)
    if upper <= lower:
        rank, point, exhaustive, scanned = rank_scan(base_rows, blocks, p, n, n + 1,
                                                     None, budget)
        if point is not None and rank < upper:
            upper, upper_point = rank, point
        return upper, upper_point, exhaustive, scanned
    cap = float("inf") if budget is None else budget
    base = [[c % p for c in row] for row in base_rows] if p else base_rows
    point, scanned, exhaustive = [None] * n, 0, True

    def skip(count):
        # take count points none of which lowers upper; True ends the scan
        nonlocal scanned, exhaustive
        if scanned + count > cap:
            scanned, exhaustive = cap, False
            return True
        scanned += count
        return False

    def take(rank):
        # take the point now in `point`; True ends the scan
        nonlocal upper, upper_point, scanned, exhaustive
        if scanned >= cap:
            exhaustive = False
            return True
        scanned += 1
        if rank < upper:
            upper, upper_point = rank, tuple(point)
        return upper <= lower

    def visit(k, m, r, prev, hit):
        # coordinates < k are set, and m holds r Bareiss pivots at (0..r-1,
        # 0..r-1), all taken inside the leading k x k block; the rest of
        # that block, rows and columns r..k-1, is zero
        count = sizes[k] if hit else sizes[k] - free[k]
        if not count:
            return False
        if k == n - 1:
            # the last coordinate: its row and column beside the zero block
            # give the rank alone when one is nonzero, else the corner does
            sides = any(row[k] for row in m[r:k]) + any(m[k][r:k])
            if r + sides >= upper:
                return skip(count)
            values = axes[k] if hit else last_rim
            if sides:
                point[k] = values[0]
                return take(r + sides) or skip(count - 1)
            c = m[k][k]
            for v in values:
                point[k] = v
                z = c + v * prev
                if take(r + bool(z % p if p else z)):
                    return True
            return False
        if r >= upper or r + 2 >= upper and r + _sides(m, r, k) >= upper:
            return skip(count)
        c = m[k][k]
        for v in axes[k]:
            point[k] = v
            z = (c + v * prev) % p if p else c + v * prev
            child_hit = hit or v in rim
            if z and r + 1 >= upper:
                # a nonzero new entry gives the child another pivot, so it
                # would skip itself whole: count its points here, uncopied
                if skip(sizes[k + 1] if child_hit else sizes[k + 1] - free[k + 1]):
                    return True
                continue
            m2 = m[:r] + [row[:] for row in m[r:]]
            m2[k][k] = z
            if visit(k + 1, m2, *_eliminate(m2, r, prev, p, k + 1), child_hit):
                return True
        return False

    for axes, rim in blocks:
        if max(map(len, axes), default=1) == 1:
            # a single point, eliminated at once
            point[:] = [v for v, in axes]
            if rim is None or not rim.isdisjoint(point):
                m = [row[:] for row in base]
                for u, v in enumerate([v % p for v in point] if p else point):
                    m[u][u] = v
                if take(_eliminate(m, 0, 1, p, n)[0]):
                    break
            continue
        # points below depth k: all of them, and those with no rim value
        sizes = list(accumulate(map(len, reversed(axes)), mul, initial=1))[::-1]
        if rim is not None:
            free = list(accumulate((sum(v not in rim for v in a) for a in reversed(axes)),
                                   mul, initial=1))[::-1]
            last_rim = [v for v in axes[-1] if v in rim]
        if visit(0, base, 0, 1, rim is None):
            break
    visit = None  # it refers to itself: free the cycle now, not at a collection
    return upper, upper_point, exhaustive, scanned


def _sides(m, r, k):
    """How many of the two blocks beside the zero block r..k-1 are nonzero:
    rank above the r pivots that every diagonal from k on keeps."""
    return (any(any(row[k:]) for row in m[r:k])
            + any(any(row[r:k]) for row in m[k:]))


def _eliminate(m, r, prev, p, end):
    """Pivot m in place inside rows and columns r..end-1, past the r pivots
    at (0..r-1, 0..r-1), until that block is zero (Bareiss over Q, plain
    elimination over F_p).  Returns the pivot count and the last pivot."""
    size = len(m)
    while r < end:
        for pr in range(r, end):
            row = m[pr]
            for pc in range(r, end):
                if row[pc]:
                    break
            else:
                continue
            break
        else:
            break
        m[r], m[pr] = row, m[r]
        if pc != r:
            for row in m[r:]:
                row[r], row[pc] = row[pc], row[r]
        prow = m[r]
        piv = prow[r]
        if p:
            inv = pow(piv, p - 2, p)
            for row in m[r + 1:]:
                f = row[r] * inv % p
                if f:
                    for j in range(r + 1, size):
                        row[j] = (row[j] - f * prow[j]) % p
        else:
            for row in m[r + 1:]:
                f = row[r]
                if f or piv != prev:
                    for j in range(r + 1, size):
                        row[j] = (row[j] * piv - f * prow[j]) // prev
            prev = piv
        r += 1
    return r, prev
