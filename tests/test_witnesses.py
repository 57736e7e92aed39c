"""Reported witnesses: the appendix table's golden witnesses and
cross-checks of gamma's certificates under relabeling."""

import json
import random
from pathlib import Path

from hypothesis import given, settings, strategies as st

from corank.cache import DecisionCache
from corank.criticalideals import gamma, generalized_laplacian
from corank.enumeration import enumerate_connected_graphs
from corank.formats import write_graph6
from corank.generators import (NAMED_GRAPHS, complete_multipartite, cycle,
                               forbidden_family_named, lambda_digraph, path)
from corank.graphs import Digraph, Graph, relabel
from corank.linalg import det_exact, exact_rank, rank_mod_p
from corank.polyring import GF, QQ, ZZ
from corank.report import build_parameter_report, render_json

WITNESSES = Path(__file__).parent / "data" / "appendix_witnesses.json"
PARAMS_CATALOG = Path(__file__).parent / "data" / "params_catalog.json"
RELABEL_SEED = 2017


def appendix_witnesses():
    """gamma over Z and Q of the 143 connected graphs n <= 6, witnesses
    included, at the identity labeling and at one seeded relabeling.

    Each graph's two gamma calls share one cache, as in the appendix run.
    ``python -c "import tests.test_witnesses as t; t.write_witnesses()"``
    rewrites the data file.
    """
    rng = random.Random(RELABEL_SEED)
    out = {"identity": [], "relabeled": []}
    for g in enumerate_connected_graphs(6):
        perm = list(range(g.n))
        rng.shuffle(perm)
        for labeling, h in (("identity", g), ("relabeled", relabel(g, perm))):
            cache = DecisionCache()
            out[labeling].append({"graph6": write_graph6(h),
                                  "Z": gamma(h, ZZ, cache=cache).to_json(),
                                  "Q": gamma(h, QQ, cache=cache).to_json()})
    return out


def write_witnesses():
    # one graph a line, so that a diff names the graphs whose result moved
    WITNESSES.parent.mkdir(exist_ok=True)
    blocks = [f'"{labeling}": [\n' + ",\n".join(json.dumps(e, separators=(",", ":"))
                                                 for e in entries) + "\n]"
              for labeling, entries in appendix_witnesses().items()]
    WITNESSES.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def test_appendix_witnesses_unchanged():
    assert appendix_witnesses() == json.loads(WITNESSES.read_text())


def params_catalog_graphs():
    """Named graphs, graphs past mr_small's exhaustive tier (n > 7), and
    digraphs that take the classification path of the report."""
    catalog = [NAMED_GRAPHS[name]() for name in
               ("bull", "petersen", "octahedron", "graph-a", "graph-b", "graph-c")]
    forbidden = {name: d for name, d, _ in forbidden_family_named()}
    return catalog + [cycle(8), path(9), complete_multipartite([3, 3, 3]),
                      lambda_digraph(1, 2, 1), forbidden["F4,10"]]


def params_catalog():
    """The JSON ``params`` output of params_catalog_graphs, each graph with
    its own cache as the CLI gives it.  ``python -c "import
    tests.test_witnesses as t; t.PARAMS_CATALOG.write_text(t.params_catalog())"``
    rewrites the data file."""
    return render_json([build_parameter_report(g, cache=DecisionCache())
                        for g in params_catalog_graphs()])


def test_params_catalog_unchanged():
    assert params_catalog() == PARAMS_CATALOG.read_text()


@st.composite
def relabeled_graphs(draw):
    """A graph on at most 6 vertices or a digraph on at most 4, and a
    relabeling of it."""
    directed = draw(st.booleans())
    n = draw(st.integers(1, 4 if directed else 6))
    pairs = [(u, v) for u in range(n) for v in range(n)
             if u != v and (directed or u < v)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, keep in zip(pairs, mask) if keep]
    g = Digraph(n, edges) if directed else Graph(n, edges)
    return g, relabel(g, draw(st.permutations(range(n))))


@settings(max_examples=60, deadline=None)
@given(relabeled_graphs(), st.integers(-3, 3))
def test_gamma_certificates_cross_check(case, shift):
    """gamma keeps its value under relabeling over Z, Q and F_3; the upper
    witness has the reported rank by a full elimination; the zero-forcing
    certificate minor has determinant +-1 at any diagonal."""
    g, h = case
    for domain in (ZZ, QQ, GF(3)):
        results = [gamma(x, domain, cache=DecisionCache()) for x in (g, h)]
        assert results[0].value == results[1].value is not None
        for x, res in zip((g, h), results):
            L = generalized_laplacian(x)
            point, rank = res.upper_witness["point"], res.upper_witness["rank"]
            if point is not None:
                rows = L.evaluate(point)
                assert (rank_mod_p(rows, 3) if isinstance(domain, GF)
                        else exact_rank(rows).rank) == rank
            cert = res.lower_witness
            at = L.evaluate([shift + v for v in range(x.n)])
            minor = [[at[r][c] for c in cert["certificate_cols"]]
                     for r in cert["certificate_rows"]]
            assert det_exact(minor) == cert["determinant"] in (1, -1)
