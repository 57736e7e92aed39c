"""Theorem-level verification sweeps.

Each sweep runs one published claim over its stated range and returns a
SweepResult with pass/fail plus counterexample payloads.  The CLI `sweep`
command and the acceptance tests both drive these functions.
"""

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations, permutations

from .classify import classify_digraph1, classify_rank1_graph, lambda_pattern_matrix
from .config import DEFAULT_CONFIG
from .criticalideals import (box_points, gamma, gamma_row, generalized_laplacian,
                             groebner_basis_of_critical_ideal, minor_generators,
                             variety_box_search)
from .enumeration import all_trees, enumerate_connected_graphs, enumerate_digraphs
from .formats import canonical_graph6
from .generators import cycle, forbidden_family_named, graph_a, \
    lambda_digraph, petersen
from .goldens import (exceptional_graphs, exceptional_real_points, gap_table,
                      graph_a_rational_point)
from .graphs import Digraph, Graph, canonical_form, induced_subgraph, is_connected, \
    line_graph
from .linalg import exact_rank
from .minrank import mrcr_bounds, tree_suite
from .polyring import (DEGREVLEX, QQ, ZZ, buchberger, ideals_equal, normal_form,
                       parse_polynomial)
from .zeroforcing import mz, zero_forcing_number

@dataclass
class SweepResult:
    name: str
    passed: bool
    summary: str
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_json(self):
        return {"name": self.name, "passed": self.passed, "summary": self.summary,
                "failures": self.failures[:50], "notes": self.notes}


# ---------------------------------------------------------------------------
# shared parameter table

def compute_gamma_table(graphs, config=DEFAULT_CONFIG, cache=None):
    """The gamma_row of every graph, keyed canonically; the first labeling
    of a graph is kept, so no two rows share a cache entry, and without a
    cache (a run without --cache) each row runs with none."""
    table = {}
    for g in graphs:
        key = canonical_graph6(g)
        if key not in table:
            table[key] = gamma_row(g, config, cache)
    return table


def appendix_table(config, cache, table):
    """The given table, or else the gamma table of the 143 connected graphs
    with n <= 6 that the paper's appendix covers."""
    if table is None:
        table = compute_gamma_table(enumerate_connected_graphs(6), config, cache)
    return table


def random_graphs(kind, count, max_n, seed, p):
    """count seeded random graphs (kind Graph) or digraphs (kind Digraph) on
    2..max_n vertices, each pair an edge or arc with probability p."""
    pairs = combinations if kind is Graph else permutations
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, max_n)
        out.append(kind(n, [pair for pair in pairs(range(n), 2) if rng.random() < p]))
    return out


# ---------------------------------------------------------------------------
# individual sweeps

def sweep_thm21(config=DEFAULT_CONFIG, cache=None, table=None):
    """Certificate minors are triangular with unit determinant and the
    zero-forcing complement never exceeds the co-rank, over all connected
    graphs n <= 6 and 300 seeded random digraphs n <= 5."""
    failures = []
    hosts = list(appendix_table(config, cache, table).values()) \
        + [gamma_row(d, config, cache)
           for d in random_graphs(Digraph, 300, 5, seed=20250809, p=0.4)]
    for entry in hosts:
        g = entry["graph"]
        det = entry["gamma_z"].lower_witness["determinant"]
        if det not in (1, -1):
            failures.append({"graph": repr(g), "det": det})
            continue
        for gr in (entry["gamma_z"], entry["gamma_q"]):
            bound = gr.value if gr.value is not None else gr.lower
            if entry["mz"] > bound:
                failures.append({"graph": repr(g), "mz": entry["mz"],
                                 "domain": gr.domain, "gamma": bound})
    total = len(hosts)
    return SweepResult("thm2.1", not failures,
                       f"{total} hosts checked, {len(failures)} violations",
                       failures)


def sweep_monotone(config=DEFAULT_CONFIG, cache=None):
    """mz and gamma are monotone under induced subgraphs (200 seeded pairs)."""
    rng = random.Random(20250810)
    failures = []
    pairs = 0
    while pairs < 200:
        g = random_graphs(Graph, 1, 6, seed=rng.randrange(1 << 30), p=0.5)[0]
        k = rng.randint(1, g.n)
        verts = sorted(rng.sample(range(g.n), k))
        h = induced_subgraph(g, verts)
        pairs += 1
        if mz(h) > mz(g):
            failures.append({"g": repr(g), "h": repr(h), "kind": "mz"})
        for dom, name in ((QQ, "Q"), (ZZ, "Z")):
            gg = gamma(g, dom, config, cache)
            hh = gamma(h, dom, config, cache)
            if gg.value is None or hh.value is None:
                failures.append({"g": repr(g), "kind": f"undecided-{name}"})
            elif hh.value > gg.value:
                failures.append({"g": repr(g), "h": repr(h), "kind": f"gamma-{name}",
                                 "gh": hh.value, "gg": gg.value})
    return SweepResult("lemma-monotone", not failures,
                       f"200 induced pairs checked, {len(failures)} violations",
                       failures)


def sweep_trees(config=DEFAULT_CONFIG, cache=None, max_n=10):
    """The full tree identity chain on every tree with n <= max_n."""
    failures = []
    count = 0
    for n in range(1, max_n + 1):
        for t in all_trees(n):
            count += 1
            try:
                tree_suite(t, config, cache)
            except Exception as exc:  # noqa: BLE001
                failures.append({"tree": repr(t), "error": str(exc)})
    return SweepResult("thm-trees", not failures,
                       f"{count} trees checked, {len(failures)} violations",
                       failures)


def sweep_cycles(config=DEFAULT_CONFIG, cache=None):
    """mz(C_n) = n - 2 with an integer diagonal witness of matching rank."""
    failures = []
    notes = []
    for n in range(3, 11):
        c = cycle(n)
        m_z = mz(c)
        if m_z != n - 2:
            failures.append({"n": n, "mz": m_z})
            continue
        res = variety_box_search(c, n - 2, QQ, replace(config, box_radius=2))
        if res.point is None:
            failures.append({"n": n, "missing": "box point at rank n-2"})
            continue
        if n == 5:
            target = (0, -1, 1, 1, 2)
            pos_found = _scan_position(res.point, 5, 2)
            pos_target = _scan_position(target, 5, 2)
            if pos_found > pos_target:
                failures.append({"n": 5, "found": res.point,
                                 "scan_after_reference": target})
            notes.append(f"C5 witness {res.point} at scan position {pos_found} "
                         f"(reference point sits at {pos_target})")
    return SweepResult("prop-cycles", not failures,
                       f"cycles 3..10 checked, {len(failures)} violations",
                       failures, notes)


def _scan_position(point, n, radius):
    for idx, pt in enumerate(box_points(n, radius)):
        if pt == tuple(point):
            return idx
    raise ValueError(f"{point} not in box")


def sweep_petersen(config=DEFAULT_CONFIG, cache=None):
    """Z = 5, rank L(ones) = 5, and gamma closed by the sandwich alone."""
    g = petersen()
    failures = []
    zf = zero_forcing_number(g)
    if zf.z != 5:
        failures.append({"z": zf.z})
    rank1 = exact_rank(generalized_laplacian(g).evaluate((1,) * 10)).rank
    if rank1 != 5:
        failures.append({"rank_at_ones": rank1})
    for dom, name in ((ZZ, "Z"), (QQ, "Q")):
        r = gamma(g, dom, config, cache)
        if r.value != 5:
            failures.append({"domain": name, "gamma": r.value})
        if any("groebner" in v for v in r.provenance.values()):
            failures.append({"domain": name, "unexpected": "groebner run"})
    return SweepResult("prop-petersen", not failures,
                       f"petersen checks, {len(failures)} violations", failures)


def sweep_linegraphs(config=DEFAULT_CONFIG, cache=None):
    """Line graphs of trees close mz = critical minimum rank over Z within
    box radius <= 3 (larger radii logged, never failed, unless exhaustive
    evidence contradicts the equality)."""
    failures = []
    notes = []
    for n in range(4, 7):
        for t in all_trees(n):
            lg = line_graph(t)
            m_z = mz(lg)
            gz = gamma(lg, ZZ, config, cache)
            if gz.value != m_z:
                # the equality chain forces gamma_Z = mz on these graphs
                failures.append({"tree": repr(t), "mz": m_z, "gamma_z": gz.value})
                continue
            closed_at = None
            last = None
            for radius in (1, 2, 3):
                last = mrcr_bounds(lg, ZZ, gz, replace(config, box_radius=radius))
                if last.upper <= m_z:
                    closed_at = radius
                    break
            if closed_at is None:
                # equality may still hold with a larger witness; log, never fail
                notes.append(f"{t!r}: no radius<=3 witness "
                             f"({'exhaustive' if last.exhaustive else 'partial'} scan)")
            elif last.upper != m_z:
                failures.append({"tree": repr(t), "mz": m_z, "upper": last.upper})
    return SweepResult("prop-linegraphs", not failures,
                       f"line graphs of trees 4<=n<=6, {len(failures)} violations",
                       failures, notes)


def sweep_rank1(config=DEFAULT_CONFIG, cache=None):
    """Five-way agreement of the rank-one graph classification, n <= 6."""
    failures = []
    graphs = enumerate_connected_graphs(6)
    for g in graphs:
        rep = classify_rank1_graph(g, config, cache)
        if not rep.agreement:
            failures.append({"graph": repr(g), "conditions": rep.conditions})
    return SweepResult("thm-rank1", not failures,
                       f"{len(graphs)} connected graphs checked, "
                       f"{len(failures)} violations", failures)


# The three disconnected digraphs on <= 4 vertices that are forbidden-family
# free yet have mz = 2: two disjoint arc components defeat the 17-member
# family, so the five-way equivalence is asserted on weakly connected
# digraphs and these exceptions are pinned exactly.
def _disconnected_exceptions():
    return [
        Digraph(4, [(2, 1), (3, 0)]),
        Digraph(4, [(1, 0), (2, 3), (3, 2)]),
        Digraph(4, [(0, 3), (1, 2), (2, 1), (3, 0)]),
    ]


def sweep_digraph1(config=DEFAULT_CONFIG, cache=None):
    """The digraph classification, exhaustively on n <= 4.

    Asserted: the structural conditions (Lambda shape, mr <= 1, mz <= 1,
    co-rank <= 1) agree on every digraph; all five conditions agree on
    every weakly connected digraph; forbidden-family containment always
    forces mz >= 2; and the only five-way disagreements are the three
    pinned disconnected digraphs.
    """
    failures = []
    notes = []
    disagreements = []
    for d in enumerate_digraphs(4):
        rep = classify_digraph1(d, config, cache)
        c = rep.conditions
        structural = {c["lambda_shape"], c["mr_le_1"], c["mz_le_1"],
                      c["gamma_le_1"]}
        if len(structural) != 1:
            failures.append({"digraph": repr(d), "conditions": c,
                             "kind": "structural disagreement"})
            continue
        if not c["family_free"] and c["mz_le_1"]:
            failures.append({"digraph": repr(d), "conditions": c,
                             "kind": "family member embedded in mz<=1 digraph"})
        if rep.agreement:
            continue
        disagreements.append(d)
        if is_connected(d):
            failures.append({"digraph": repr(d), "conditions": c,
                             "kind": "five-way disagreement on connected input"})
    expected = {canonical_form(d).key for d in _disconnected_exceptions()}
    got = {canonical_form(d).key for d in disagreements}
    if got != expected:
        failures.append({"kind": "unexpected disagreement set",
                         "got": [repr(d) for d in disagreements]})
    else:
        notes.append("five-way agreement on all weakly connected digraphs; "
                     "the three known disconnected family-free mz=2 digraphs "
                     "are the only exceptions")
    for name, d, marked in forbidden_family_named():
        m_z = d.n - zero_forcing_number(d).z
        if m_z != 2:
            failures.append({"family": name, "mz": m_z})
    rng = random.Random(20250811)
    samples = 0
    while samples < 50:
        parts = [rng.randint(0, 4) for _ in range(3)]
        if sum(parts) == 0 or sum(parts) > 8:
            continue
        samples += 1
        lam = lambda_digraph(*parts)
        m_z = lam.n - zero_forcing_number(lam).z
        if m_z > 1:
            failures.append({"lambda": parts, "mz": m_z})
        if lambda_pattern_matrix(lam) is None:
            failures.append({"lambda": parts, "missing": "rank-1 witness"})
    return SweepResult("thm-digraph1", not failures,
                       f"238 digraphs + family + lambda samples, "
                       f"{len(failures)} violations", failures, notes)


def sweep_three_exceptional(config=DEFAULT_CONFIG, cache=None, table=None):
    """Box search at r = gamma_Q succeeds for every connected graph n <= 6
    except exactly the three known graphs, whose real witnesses are then
    verified symbolically against the reference bases."""
    table = appendix_table(config, cache, table)
    exceptional_keys = {canonical_graph6(g): name
                        for name, g, _ in exceptional_graphs()}
    failures = []
    notes = []
    for key, entry in table.items():
        g = entry["graph"]
        r = entry["gamma_q"].value
        if r is None:
            failures.append({"graph": key, "kind": "gamma undecided"})
            continue
        if r >= g.n:
            continue  # box search needs r + 1 <= n; complete-graph case
        res = variety_box_search(g, r, QQ, replace(config, box_radius=2))
        found = res.point is not None
        if found == (key in exceptional_keys):
            failures.append({"graph": key, "found": found,
                             "exceptional": key in exceptional_keys})
    notes.append(f"natural-exception set: {sorted(exceptional_keys.values())}")
    failures.extend(_verify_exceptional_points(config))
    return SweepResult("three-exceptional", not failures,
                       f"{len(table)} graphs scanned at r = gamma_Q, "
                       f"{len(failures)} violations", failures, notes)


def _verify_exceptional_points(config):
    """The quadratic-field witnesses for graph-b and graph-c and the
    rational witness for graph-a, checked exactly."""
    failures = []
    for name, g, ref_text in exceptional_graphs():
        gens = minor_generators(generalized_laplacian(g), 4)
        ref = [parse_polynomial(t, 6, QQ) for t in ref_text]
        ref_basis = buchberger(ref, DEGREVLEX, config.spair_cap, config.degree_cap)
        computed, _ = groebner_basis_of_critical_ideal(g, 4, QQ, DEGREVLEX, config)
        if not ideals_equal(ref_basis, computed):
            failures.append({"graph": name, "kind": "reference basis mismatch"})
        # every 4-minor of the full list, pruned ones included, reduces to
        # zero against the reference basis
        bad = [p for p in gens.generators
               if not normal_form(p.to_domain(QQ), ref_basis.generators,
                                  DEGREVLEX).is_zero()]
        if bad:
            failures.append({"graph": name, "kind": "minor outside reference ideal",
                             "count": len(bad)})
    failures.extend(_check_quadratic_points())
    return failures


def _check_quadratic_points():
    """Exact rank-3 check of L at the quadratic-irrational diagonals.

    Arithmetic in Q(t) with t*t rewritten by the defining relation; the
    4-minors must all vanish and some 3-minor must not.
    """
    failures = []
    data = exceptional_real_points()
    for name, g, _ in exceptional_graphs():
        if name not in data:
            continue
        spec = data[name]
        sq = spec["t_squared_equals"]  # "1+t" or "1-t"
        t_coeff = 1 if sq == "1+t" else -1

        def qmul(x, y):
            # (a + b t)(c + d t) with t^2 = 1 + t_coeff * t
            a, b = x
            c, d = y
            return (a * c + b * d, a * d + b * c + t_coeff * b * d)

        point = [(Fraction(a), Fraction(b)) for a, b in spec["coords"]]
        entries = [[point[i] if i == j else (Fraction(-g.has_arc(i, j)), Fraction(0))
                    for j in range(6)] for i in range(6)]

        def qdet(rows, cols):
            if len(rows) == 1:
                return entries[rows[0]][cols[0]]
            total = (Fraction(0), Fraction(0))
            for j, c in enumerate(cols):
                sub = qdet(rows[1:], cols[:j] + cols[j + 1:])
                ta, tb = qmul(entries[rows[0]][c], sub)
                if j % 2:
                    ta, tb = -ta, -tb
                total = (total[0] + ta, total[1] + tb)
            return total

        all4_zero = all(qdet(r, c) == (0, 0)
                        for r in combinations(range(6), 4)
                        for c in combinations(range(6), 4))
        some3 = any(qdet(r, c) != (0, 0)
                    for r in combinations(range(6), 3)
                    for c in combinations(range(6), 3))
        if not (all4_zero and some3):
            failures.append({"graph": name, "kind": "quadratic point rank != 3"})
    # the rational curve point for graph-a
    pt = graph_a_rational_point()
    rank = exact_rank(generalized_laplacian(graph_a()).evaluate(pt)).rank
    if rank != 3:
        failures.append({"graph": "graph-a", "kind": "rational point rank != 3",
                         "rank": rank})
    return failures


# ---------------------------------------------------------------------------
# appendix reproduction

def reproduce_gap_table(config=DEFAULT_CONFIG, cache=None, table=None):
    """Recompute (mz, gamma_Z, gamma_R) over the 143 connected graphs on at
    most six vertices and diff the mz < gamma_R rows against the golden
    table.  Returns (ok, computed rows, diff list)."""
    table = appendix_table(config, cache, table)
    computed = []
    for key in sorted(table):
        e = table[key]
        gz, gq = e["gamma_z"].value, e["gamma_q"].value
        if gz is None or gq is None:
            return False, [], [{"graph": key, "kind": "undecided gamma"}]
        if e["mz"] < gq:
            computed.append((key, e["mz"], gz, gq))
    golden = gap_table()
    diffs = []
    graphs = enumerate_connected_graphs(6)
    if len(graphs) != 143:
        diffs.append({"kind": "enumeration size", "got": len(graphs)})
    gold_map = {row[0]: row for row in golden}
    comp_map = {row[0]: row for row in computed}
    for key in sorted(set(gold_map) | set(comp_map)):
        if key not in gold_map:
            diffs.append({"graph": key, "kind": "unexpected gap row",
                          "computed": comp_map[key]})
        elif key not in comp_map:
            diffs.append({"graph": key, "kind": "missing gap row",
                          "golden": gold_map[key]})
        elif gold_map[key] != comp_map[key]:
            diffs.append({"graph": key, "kind": "value mismatch",
                          "golden": gold_map[key], "computed": comp_map[key]})
    return not diffs, computed, diffs


SWEEPS = {
    "thm2.1": sweep_thm21,
    "lemma-monotone": sweep_monotone,
    "thm-trees": sweep_trees,
    "prop-cycles": sweep_cycles,
    "prop-petersen": sweep_petersen,
    "prop-linegraphs": sweep_linegraphs,
    "thm-rank1": sweep_rank1,
    "thm-digraph1": sweep_digraph1,
    "three-exceptional": sweep_three_exceptional,
}
