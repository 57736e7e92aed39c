"""Reference data for the regression gates.

The gap table lists every connected graph on at most 6 vertices whose
zero-forcing complement mz differs from the real co-rank, together with
its expected (mz, gamma_Z, gamma_R) triple; entries are keyed by explicit
edge lists transcribed from drawings and re-keyed at import time by
canonical graph6.  The reference bases are the published reduced Groebner
bases this artifact must reproduce up to ideal equality.
"""

from fractions import Fraction

from .formats import canonical_graph6
from .graphs import Graph, complement
from .generators import graph_a, graph_b, graph_c

# (row id, n, edges, mz, gamma_Z, gamma_R)
GAP_TABLE_ROWS = [
    ("r01", 5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3), (3, 4)],
     2, 3, 3),
    ("r02", 6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4),
                (2, 5)], 3, 4, 4),
    ("r03", 6, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                (4, 5)], 3, 4, 4),
    ("r04", 6, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 4), (2, 3), (3, 4), (4, 5)],
     3, 4, 4),
    ("r05", 6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (2, 3), (3, 4),
                (4, 5)], 3, 4, 4),
    ("r06", 6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (2, 3), (3, 5),
                (4, 5)], 3, 4, 4),
    ("r07", 6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3),
                (2, 4), (3, 4), (3, 5), (4, 5)], 2, 3, 3),
    ("r08", 6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3),
                (3, 4), (3, 5), (4, 5)], 3, 4, 4),
    ("r09", 6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (3, 4),
                (3, 5), (4, 5)], 3, 4, 4),
    ("r10", 6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3),
                (3, 4), (3, 5), (4, 5)], 2, 3, 3),
    ("r11", 6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (3, 5),
                (4, 5)], 3, 4, 4),
    ("r12", 6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (3, 4),
                (3, 5), (4, 5)], 3, 4, 4),
    ("r13", 6, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 5),
                (3, 5), (4, 5)], 3, 4, 4),
    ("r14", 6, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                (2, 5), (3, 5), (4, 5)], 3, 4, 4),
    ("r15", 6, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                (2, 5), (3, 4), (3, 5), (4, 5)], 3, 4, 4),
    ("r16", 6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4),
                (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)], 2, 3, 3),
    ("r17", 6, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3),
                (2, 4), (3, 5), (4, 5)], 2, 3, 3),
    ("r18", 6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4),
                (2, 3), (2, 4), (3, 5), (4, 5)], 2, 3, 3),
    ("r19", 6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4),
                (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)], 2, 3, 3),
    ("r20", 6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (1, 5), (2, 3), (3, 4),
                (3, 5), (4, 5)], 2, 2, 3),
    ("r21", 6, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3),
                (2, 5), (3, 4), (3, 5), (4, 5)], 2, 2, 3),
]


def gap_table():
    """Rows as (canonical graph6, mz, gamma_Z, gamma_R), canonical order."""
    rows = []
    for rid, n, edges, m_z, gz, gr in GAP_TABLE_ROWS:
        g = Graph(n, edges)
        rows.append((canonical_graph6(g), m_z, gz, gr))
    rows.sort()
    return rows


# reduced Groebner bases this artifact must reproduce up to ideal equality
OCTAHEDRON_I3_OVER_Z = ["x0", "x1", "x2", "x3", "x4", "x5", "2"]

# Transcribed verbatim.  The special pairs here are {0,3}, {1,5}, {2,4},
# which matches a labeling of the matching complement with non-edges
# 0-3, 1-5, 2-4; the drawn matrix instead has non-edges 0-3, 1-4, 2-5.
# The two labelings differ by swapping vertices 4 and 5; compare this
# basis against octahedron_for_reference_i4().
OCTAHEDRON_I4_OVER_R = [
    "x0*x1", "x0*x2", "x0*x3 + 2*x0 + 2*x3", "x0*x4", "x0*x5",
    "x1*x2", "x1*x3", "x1*x4", "x1*x5 + 2*x1 + 2*x5", "x2*x3",
    "x2*x4 + 2*x2 + 2*x4", "x2*x5", "x3*x4", "x3*x5", "x4*x5",
]


def octahedron_for_reference_i4():
    """The matching-complement labeling the reference I4 basis was
    computed in (non-edges 0-3, 1-5, 2-4)."""
    return complement(Graph(6, [(0, 3), (1, 5), (2, 4)]))

GRAPH_A_I4 = [
    "x0*x1 - x1 - 2", "x0*x3 + 2*x0 + x3", "x0*x5 + 1",
    "x1*x3 + x1 + x3 + 2", "x1*x5 + x1 + 2*x5", "x2",
    "x3*x5 - x3 - 2", "x4",
]

GRAPH_B_I4 = [
    "x0 + x5 - 1", "x1 + x5 - 1", "x2 - x5", "x3 - x5", "x4 + x5 - 1",
    "x5^2 - x5 - 1",
]

GRAPH_C_I4 = [
    "x0 + x5 + 3", "x1 - x5", "x2 - x5", "x3 - x5", "x4 - x5",
    "x5^2 + x5 - 1",
]


def exceptional_graphs():
    """The three 6-vertex graphs with no small-box evaluation witness,
    with their reference I4 bases."""
    return [("graph-a", graph_a(), GRAPH_A_I4),
            ("graph-b", graph_b(), GRAPH_B_I4),
            ("graph-c", graph_c(), GRAPH_C_I4)]


def exceptional_real_points():
    """Real diagonal vectors solving the reference I4 systems.

    graph-b: t*t = t + 1; graph-c: t*t = 1 - t.  Components are affine in
    t, expressed as pairs (a, b) meaning a + b*t.
    """
    one = Fraction(1)
    return {
        "graph-b": {"t_squared_equals": ("1+t"),
                    "coords": [(one, -1), (one, -1), (0, 1), (0, 1), (one, -1),
                               (0, 1)]},
        "graph-c": {"t_squared_equals": ("1-t"),
                    "coords": [(Fraction(-3), -1), (0, 1), (0, 1), (0, 1),
                               (0, 1), (0, 1)]},
    }


def graph_a_rational_point():
    """A rational diagonal where every 4-minor of the graph-a matrix
    vanishes (the variety is a rational curve; no integer points exist)."""
    return (Fraction(2), Fraction(2), Fraction(0), Fraction(-4, 3),
            Fraction(0), Fraction(-1, 2))
