"""Exact matrix rank and determinants.

Rational input is scaled row-wise to integers, then eliminated with the
fraction-free Bareiss scheme (Bareiss 1968): division-free growth control,
bit-exact, and the pivot trail doubles as a nonsingular-submatrix witness.

Evaluation scans (the rank of one integer matrix at many diagonals) go
through ``scan_ranks``.  Points that differ only in their last coordinate t
share one elimination: pivots restricted to the leading (n-1) x (n-1) block
give its rank r, which border sides (last column and last row beyond the
pivots) are left nonzero, the corner R0 at t = 0 and the last pivot D.  The
rank at t is then r + (number of nonzero sides) when a side is nonzero, and
r + [R0 + t*D != 0] otherwise, so every t after the first costs O(1).  The
same holds over F_p with ordinary elimination and D = 1.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


def _to_integer_rows(rows):
    out = []
    for row in rows:
        scale = 1
        for c in row:
            if isinstance(c, Fraction):
                scale = scale * c.denominator // gcd(scale, c.denominator)
        out.append([int(c * scale) if isinstance(c, Fraction) else int(c) * scale
                    for c in row])
    return out


@dataclass(frozen=True)
class RankComputation:
    rank: int
    pivot_rows: tuple
    pivot_cols: tuple


def exact_rank(rows) -> RankComputation:
    """Rank of a rational matrix with a row/column pivot witness."""
    if not rows:
        return RankComputation(0, (), ())
    m = _to_integer_rows(rows)
    nr, nc = len(m), len(m[0])
    row_idx = list(range(nr))
    col_idx = list(range(nc))
    prev = 1
    k = 0
    while k < min(nr, nc):
        pr = pc = -1
        for i in range(k, nr):
            for j in range(k, nc):
                if m[i][j] != 0:
                    pr, pc = i, j
                    break
            if pr >= 0:
                break
        if pr < 0:
            break
        if pr != k:
            m[k], m[pr] = m[pr], m[k]
            row_idx[k], row_idx[pr] = row_idx[pr], row_idx[k]
        if pc != k:
            for row in m:
                row[k], row[pc] = row[pc], row[k]
            col_idx[k], col_idx[pc] = col_idx[pc], col_idx[k]
        piv = m[k][k]
        for i in range(k + 1, nr):
            for j in range(k + 1, nc):
                m[i][j] = (m[i][j] * piv - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = piv
        k += 1
    return RankComputation(k, tuple(sorted(row_idx[:k])), tuple(sorted(col_idx[:k])))


def det_exact(rows):
    """Exact determinant of a square rational matrix (Bareiss)."""
    nr = len(rows)
    if nr == 0:
        return Fraction(1)
    assert all(len(r) == nr for r in rows)
    denom = Fraction(1)
    scaled = []
    for row in rows:
        scale = 1
        for c in row:
            if isinstance(c, Fraction):
                scale = scale * c.denominator // gcd(scale, c.denominator)
        denom *= scale
        scaled.append([int(c * scale) if isinstance(c, Fraction) else int(c) * scale
                       for c in row])
    m = scaled
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
    return Fraction(sign * m[nr - 1][nr - 1], 1) / denom


def rank_mod_p(rows, p) -> int:
    """Rank over the prime field F_p."""
    if not rows:
        return 0
    m = [[int(c) % p for c in row] for row in rows]
    nr, nc = len(m), len(m[0])
    rank = 0
    col = 0
    for col in range(nc):
        piv = -1
        for i in range(rank, nr):
            if m[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for i in range(nr):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nr:
            break
    return rank


def scan_ranks(base_rows, points, p=None):
    """Lazily yield (point, rank) for each point, in the points' order.

    The rank is that of the square integer matrix base_rows with the point
    on its diagonal (the base diagonal is ignored), over Q, or over F_p when
    p is given.  Runs of points that share all but the last coordinate share
    one elimination of the leading block (see the module docstring).
    """
    n = len(base_rows)
    if n == 0:
        for pt in points:
            yield pt, 0
        return
    if p:
        base_rows = [[c % p for c in row] for row in base_rows]
    last = n - 1
    head = None
    for pt in points:
        if pt[:last] != head:
            head = pt[:last]
            rank, sides, corner, lead = _bordered_elimination(base_rows, head, p)
        if sides:
            yield pt, rank + sides
        else:
            z = corner + pt[last] * lead
            yield pt, rank + ((z % p if p else z) != 0)


def _bordered_elimination(base_rows, head, p):
    """Eliminate with pivots from the leading (n-1) x (n-1) block only.

    The block's diagonal is head and the corner is 0.  Returns the block's
    rank, the number of nonzero border sides left beside the pivots, the
    corner entry and its coefficient in t (the last Bareiss pivot over Q,
    1 over F_p).
    """
    n = len(base_rows)
    last = n - 1
    m = [row[:] for row in base_rows]
    for u in range(last):
        m[u][u] = head[u] % p if p else head[u]
    m[last][last] = 0
    prev = 1
    k = 0
    while k < last:
        pr = pc = -1
        for i in range(k, last):
            row = m[i]
            for j in range(k, last):
                if row[j]:
                    pr, pc = i, j
                    break
            if pr >= 0:
                break
        if pr < 0:
            break
        if pr != k:
            m[k], m[pr] = m[pr], m[k]
        if pc != k:
            for row in m:
                row[k], row[pc] = row[pc], row[k]
        pivot_row = m[k]
        piv = pivot_row[k]
        if p:
            inv = pow(piv, p - 2, p)
            for i in range(k + 1, n):
                row = m[i]
                f = row[k] * inv % p
                if f:
                    for j in range(k + 1, n):
                        row[j] = (row[j] - f * pivot_row[j]) % p
        else:
            for i in range(k + 1, n):
                row = m[i]
                f = row[k]
                for j in range(k + 1, n):
                    row[j] = (row[j] * piv - f * pivot_row[j]) // prev
            prev = piv
        k += 1
    sides = (any(m[i][last] for i in range(k, last))
             + any(m[last][j] for j in range(k, last)))
    return k, sides, m[last][last], prev
