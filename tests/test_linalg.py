"""Exact rank and determinants.

``exact_rank``, ``rank_mod_p`` and ``rank_scan`` all eliminate through
``linalg._eliminate``, so the scan tests' per-point reference shares that
kernel.  The checks here do not: they hold every rank against the minor
definition, with ``det_exact`` (a separate Bareiss loop) as the oracle.
``exact_rank`` returns the rank alone; the pivot witness it used to carry,
and the test of that witness, are gone.  ``integer_rank``, the one entry
from integer rows into that kernel, is property-tested against
``exact_rank``, ``rank_mod_p`` and ``det_exact``, and against the minor
definition on sparse rows, where the kernel leaves rows with a zero
multiplier under a repeated pivot as they are.
"""

import copy
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from corank import linalg
from corank.linalg import det_exact, exact_rank, integer_rank, rank_mod_p


def _minor_rank(rows, p=None):
    """Largest k with a k x k minor that is nonzero (mod p when p is given,
    for entries whose denominators p does not divide): the definitional rank."""
    n, m = len(rows), len(rows[0]) if rows else 0
    for k in range(min(n, m), 0, -1):
        for ri in combinations(range(n), k):
            for ci in combinations(range(m), k):
                det = det_exact([[rows[i][j] for j in ci] for i in ri])
                if (det.numerator % p if p else det):
                    return k
    return 0


def _random_matrix(rng, denominators):
    """A random matrix of 1..6 rows and columns, often rank-deficient: some
    rows are sums of earlier ones."""
    nr, nc = rng.randint(1, 6), rng.randint(1, 6)
    rows = []
    for _ in range(nr):
        if len(rows) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(rows, 2)
            rows.append([x + y for x, y in zip(a, b)])
        else:
            rows.append([Fraction(rng.randint(-3, 3), rng.choice(denominators))
                         for _ in range(nc)])
    return rows


def test_rank_matches_minor_definition():
    rng = random.Random(2003)
    for _ in range(200):
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
        assert exact_rank(rows).rank == _minor_rank(rows)
    for _ in range(300):
        rows = _random_matrix(rng, (1, 1, 2, 3, 7))
        assert exact_rank(rows).rank == _minor_rank(rows), rows


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_mod_p_matches_minors_mod_p(p):
    rng = random.Random(2039 + p)
    denominators = [d for d in (1, 1, 2, 3, 7) if d % p]
    for _ in range(200):
        rows = _random_matrix(rng, denominators)
        assert rank_mod_p(rows, p) == _minor_rank(rows, p), rows


def test_rank_edge_cases():
    assert exact_rank([]).rank == 0
    assert exact_rank([[]]).rank == 0
    assert rank_mod_p([], 3) == 0
    assert rank_mod_p([[]], 3) == 0
    assert exact_rank([[0, 0], [0, 0]]).rank == 0
    assert exact_rank([[Fraction(1, 3), 1], [1, 3]]).rank == 1
    assert exact_rank([[1, 2], [2, 4], [1, 0]]).rank == 2


def test_det_exact():
    assert det_exact([[2, 1], [1, 1]]) == 1
    assert det_exact([[Fraction(1, 2), 0], [7, Fraction(2, 3)]]) == Fraction(1, 3)
    assert det_exact([[1, 2], [2, 4]]) == 0
    assert det_exact([]) == 1


def test_rank_mod_p():
    assert rank_mod_p([[2, 0], [0, 2]], 2) == 0
    assert rank_mod_p([[2, 0], [0, 2]], 3) == 2
    assert rank_mod_p([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 2) == 2
    rng = random.Random(2017)
    for _ in range(100):
        rows = [[rng.randint(0, 6) for _ in range(4)] for _ in range(4)]
        r7 = rank_mod_p(rows, 7)
        assert r7 <= exact_rank(rows).rank


def test_rank_mod_p_takes_fractions_as_inverses():
    # 1/2 is 2 mod 3, not 0
    assert rank_mod_p([[Fraction(1, 2)]], 3) == 1
    # 3/2 * 2/3 - 1 = 0: rank 1 over Q, and so over F_5
    assert rank_mod_p([[Fraction(3, 2), 1], [1, Fraction(2, 3)]], 5) == 1
    with pytest.raises(ValueError):
        rank_mod_p([[1, Fraction(1, 3)]], 3)


@st.composite
def integer_matrices(draw, ragged=False):
    """Integer rows, 0..6 of them: square, or (ragged) with 0..7 entries
    each.  A row is often an earlier row of its width plus a multiple of
    another, so many square ones are singular."""
    n = draw(st.integers(1 if ragged else 0, 6))
    widths = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n)) if ragged else [n] * n
    rows = []
    for w in widths:
        same = [row for row in rows if len(row) == w]
        if same and draw(st.booleans()):
            a, b = draw(st.sampled_from(same)), draw(st.sampled_from(same))
            c = draw(st.integers(-3, 3))
            rows.append([x + c * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(st.integers(-9, 9), min_size=w, max_size=w)))
    return rows


def _rank_and_input(m, p=None):
    """integer_rank(m, p), and the matrices it handed to _eliminate."""
    seen, eliminate = [], linalg._eliminate

    def spy(matrix, *args):
        seen.append(matrix)
        return eliminate(matrix, *args)

    linalg._eliminate = spy
    try:
        return integer_rank(m, p), seen
    finally:
        linalg._eliminate = eliminate


@settings(max_examples=300, deadline=None)
@given(integer_matrices(), st.lists(st.integers(1, 6), min_size=6, max_size=6))
def test_integer_rank_eliminates_square_rows_in_place(rows, denominators):
    """On square rows the entry eliminates the rows themselves, with no
    copy.  Its rank is exact_rank's of the same rows as Fractions (each row
    also divided by a denominator), rank_mod_p never exceeds it, and it is
    full exactly when det_exact is nonzero."""
    fractions = [[Fraction(x, d) for x in row] for row, d in zip(rows, denominators)]
    before = copy.deepcopy(fractions)
    rank = exact_rank(fractions).rank
    assert fractions == before  # exact_rank leaves its caller's rows as they were
    assert (rank == len(rows)) == (det_exact(fractions) != 0)
    for p in (2, 3, 5):
        reduced = [[x % p for x in row] for row in rows]
        assert integer_rank(reduced, p) == rank_mod_p(rows, p) <= integer_rank(copy.deepcopy(rows))
    got, seen = _rank_and_input(rows)
    assert got == rank and len(seen) == 1 and seen[0] is rows


@settings(max_examples=300, deadline=None)
@given(integer_matrices(ragged=True).filter(lambda m: any(len(row) != len(m) for row in m)))
def test_integer_rank_pads_ragged_rows_on_a_copy(rows):
    """Ragged rows go through the padding path: _eliminate gets a square
    copy, zero-padded, and the caller's rows are left as they were."""
    before = copy.deepcopy(rows)
    k = max(len(rows), *map(len, rows))
    padded = [row + [0] * (k - len(row)) for row in rows] + [[0] * k] * (k - len(rows))
    want = exact_rank([[Fraction(x) for x in row] for row in padded]).rank
    got, seen = _rank_and_input(rows)
    assert rows == before and got == want
    assert len(seen) == 1 and seen[0] is not rows
    assert len(seen[0]) == k and all(len(row) == k for row in seen[0])
    assert rank_mod_p(rows, 3) <= got


@st.composite
def sparse_matrices(draw):
    """Square integer rows, 1..6 of them, mostly zero and otherwise mostly
    +-1, as in L(G, d): pivots often equal the one before, and many rows
    below a pivot have a zero multiplier, the rows the kernel leaves as
    they are."""
    n = draw(st.integers(1, 6))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, -1, 2])
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_integer_rank_of_sparse_rows_is_the_minor_rank(rows):
    """On rows built to skip updates, the rank is the minor definition's,
    over Q and (never above it) over F_3."""
    rank = _minor_rank(rows)
    assert integer_rank(copy.deepcopy(rows)) == rank
    assert integer_rank([[x % 3 for x in row] for row in rows], 3) <= rank


class _Row(list):
    """A row that counts the entries written into it."""
    writes = 0

    def __setitem__(self, j, value):
        _Row.writes += 1
        super().__setitem__(j, value)


def _writes(rows):
    _Row.writes = 0
    rank = integer_rank([_Row(row) for row in rows])
    return rank, _Row.writes


def test_rows_with_a_zero_multiplier_under_a_repeated_pivot_are_left_alone():
    """The identity writes no entry over Q: each pivot is 1, as is the one
    before, and each multiplier is 0.  A pivot that differs from the one
    before scales the rows below it: diag(2, 3) writes entry (1, 1) once."""
    assert _writes([[int(u == v) for v in range(5)] for u in range(5)]) == (5, 0)
    assert _writes([[2, 0], [0, 3]]) == (2, 1)
