"""The named graph and digraph constructions."""

import pytest

from corank.generators import (bull, complete, complete_digraph,
                               complete_multipartite, cycle, forbidden_family,
                               forbidden_family_named, graph_a, graph_b, graph_c,
                               lambda_digraph, matching_3k2, octahedron, path,
                               petersen, star)
from corank.graphs import canonical_form, complement, is_connected


def test_petersen():
    g = petersen()
    assert g.n == 10 and g.m == 15
    assert g.degrees() == (3,) * 10
    assert is_connected(g)
    # girth 5: no triangles or 4-cycles through vertex 0
    from corank.generators import cycle as cyc
    from corank.graphs import contains_induced
    assert contains_induced(g, complete(3)) is None


def test_bull():
    b = bull()
    assert b.n == 5 and b.m == 5
    assert sorted(b.degrees(), reverse=True) == [3, 3, 2, 1, 1]


def test_octahedron_is_matching_complement():
    assert octahedron() == complement(matching_3k2())
    assert octahedron().m == 12
    assert canonical_form(octahedron()) == canonical_form(complete_multipartite([2, 2, 2]))


def test_exceptional_trio_shapes():
    a, b, c = graph_a(), graph_b(), graph_c()
    assert (a.n, a.m) == (6, 11)
    assert (b.n, b.m) == (6, 9)
    assert b.degrees() == (3,) * 6                  # the triangular prism
    assert (c.n, c.m) == (6, 10)
    assert c.degrees()[0] == 5                      # the wheel hub
    assert canonical_form(b) != canonical_form(complete_multipartite([3, 3]))


def test_lambda_digraph():
    lam = lambda_digraph(1, 1, 1)
    assert lam.n == 3 and sorted(lam.arcs) == [(0, 1), (0, 2), (1, 2)]
    lam2 = lambda_digraph(2, 2, 1)
    # arcs: T->K (4), T->T' (2), K->T' (2), K double (2)
    assert lam2.m == 4 + 2 + 2 + 2
    assert canonical_form(lambda_digraph(0, 3, 0)) == canonical_form(complete_digraph(3))
    with pytest.raises(ValueError):
        lambda_digraph(0, 0, 0)


def test_forbidden_family():
    family = forbidden_family()
    assert len(family) == 17
    sizes = sorted(d.n for d in family)
    assert sizes == [3] * 7 + [4] * 10
    names = [name for name, _, _ in forbidden_family_named()]
    assert names[5] == "F3,6a" and names[6] == "F3,6b"
    from corank.graphs import canonical_form
    keys = {canonical_form(d).key for d in family}
    assert len(keys) == 17  # pairwise non-isomorphic


def test_marked_zero_forcing_sets_force():
    from corank.zeroforcing import is_zero_forcing_set
    for name, d, zfs in forbidden_family_named():
        assert is_zero_forcing_set(d, zfs), name
        assert len(zfs) == d.n - 2, name


def test_basic_families():
    assert path(1).n == 1
    assert cycle(5).m == 5
    assert complete(6).m == 15
    assert star(4).degrees()[0] == 4
    assert complete_multipartite([3, 3, 3]).m == 27
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        path(0)
