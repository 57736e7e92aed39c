"""graph6/digraph6 codecs and the plain list formats."""

import pytest

from corank.enumeration import enumerate_connected_graphs
from corank.formats import (FormatError, autodetect, canonical_graph6,
                            parse_arc_list, parse_digraph6, parse_edge_list,
                            parse_graph6, write_arc_list, write_digraph6,
                            write_edge_list, write_graph6)
from corank.generators import complete, path
from corank.graphs import Digraph, Graph, canonical_form


def test_known_graph6_strings():
    assert parse_graph6("@") == Graph(1)
    assert parse_graph6("Bw") == complete(3)
    assert parse_graph6("Bg") == Graph(3, [(0, 1), (1, 2)])
    assert write_graph6(Graph(1)) == "@"
    assert write_graph6(complete(3)) == "Bw"


def test_graph6_roundtrip_enumeration():
    for g in enumerate_connected_graphs(6):
        assert parse_graph6(write_graph6(g)) == g


def test_graph6_header_prefix_and_large_n():
    assert parse_graph6(">>graph6<<Bw") == complete(3)
    g = Graph(100, [(0, 99), (1, 2)])
    assert parse_graph6(write_graph6(g)) == g


def test_graph6_errors_carry_offsets():
    with pytest.raises(FormatError) as err:
        parse_graph6("B")            # truncated payload
    assert err.value.byte_offset is not None
    with pytest.raises(FormatError):
        parse_graph6("B" + chr(20))  # byte below 63
    with pytest.raises(FormatError):
        parse_graph6("@w")           # trailing bytes
    # K2 with a nonzero pad bit: 'o' encodes 110000, pad must be zero
    with pytest.raises(FormatError):
        parse_graph6("Ao")


def test_digraph6_roundtrip_and_example():
    d = Digraph(5, [(0, 2), (0, 4), (3, 1), (3, 4)])
    text = write_digraph6(d)
    assert text == "&DI?AO?"
    assert parse_digraph6(text) == d
    with pytest.raises(FormatError):
        parse_digraph6("DI?AO?")     # missing '&'


def test_digraph6_rejects_loops():
    # 2-vertex digraph6 with the (0,0) bit set
    with pytest.raises(FormatError):
        parse_digraph6("&A_")


def test_edge_and_arc_lists():
    g = path(4)
    assert parse_edge_list(write_edge_list(g)) == g
    d = Digraph(3, [(0, 1), (2, 1)])
    assert parse_arc_list(write_arc_list(d)) == d
    with pytest.raises(FormatError):
        parse_edge_list("3 2\n0 1\n")     # count mismatch
    with pytest.raises(FormatError):
        parse_edge_list("not a header\n")


def test_autodetect():
    graphs = autodetect("Bw\nBg\n")
    assert graphs == [complete(3), Graph(3, [(0, 1), (1, 2)])]
    (d,) = autodetect("&DI?AO?")
    assert isinstance(d, Digraph)
    (g,) = autodetect("3 1\n0 2\n")
    assert isinstance(g, Graph) and g.has_edge(0, 2)
    (d2,) = autodetect("3 1\n0 2\n", digraph_lists=True)
    assert isinstance(d2, Digraph)


def test_canonical_graph6_is_isomorphism_key():
    a = Graph(4, [(0, 1), (1, 2), (2, 3)])
    b = Graph(4, [(3, 2), (2, 0), (0, 1)])
    assert canonical_form(a) == canonical_form(b)
    assert canonical_graph6(a) == canonical_graph6(b)
    assert parse_graph6(canonical_graph6(a)).n == 4
