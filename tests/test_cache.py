"""The decision cache: certificates across labelings, corrupt entries, atomic writes."""

import json
import os
import random

import pytest

from corank.cache import DecisionCache
from corank.criticalideals import gamma, generalized_laplacian, ideal_trivial
from corank.enumeration import enumerate_connected_graphs
from corank.generators import octahedron
from corank.graphs import relabel
from corank.linalg import exact_rank, rank_mod_p
from corank.polyring import QQ, ZZ


def _check_certificate(h, i, domain, dec):
    """The decision's certificate holds for h in h's own labeling."""
    L = generalized_laplacian(h)
    if dec.method == "point-certificate":
        if domain is ZZ:
            p, point = dec.detail
            assert rank_mod_p(L.evaluate(point), p) <= i - 1
        else:
            assert exact_rank(L.evaluate(dec.detail)).rank <= i - 1
    elif dec.method in ("unit-minor", "constant-minor"):
        rows, cols, value = dec.detail
        minor = L.minor(sum(1 << r for r in rows), sum(1 << c for c in cols))
        assert minor.constant_value() == value
    elif dec.method == "groebner":
        # a Groebner decision carries nothing in another caller's labeling
        cold = ideal_trivial(h, i, domain, cache=DecisionCache())
        assert dec.to_json() == cold.to_json()


def test_cached_certificates_follow_the_callers_labeling():
    """Fill the cache in one labeling, read it in another: every witness
    must hold in the reader's labeling."""
    rng = random.Random(2024)
    cache = DecisionCache()
    graphs = enumerate_connected_graphs(6)
    for g in graphs:
        gamma(g, ZZ, cache=cache)
        for i in range(1, g.n + 1):
            ideal_trivial(g, i, QQ, cache=cache)
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        res = gamma(h, QQ, cache=cache)
        point = res.upper_witness["point"]
        if point is not None:
            assert exact_rank(generalized_laplacian(h).evaluate(point)).rank \
                == res.upper_witness["rank"]
        for i in range(1, h.n + 1):
            for domain in (ZZ, QQ):
                _check_certificate(h, i, domain, ideal_trivial(h, i, domain, cache=cache))


def test_cache_hit_returns_the_fresh_certificate_in_the_same_labeling(tmp_path):
    g = octahedron()
    fresh = [ideal_trivial(g, i, dom, cache=DecisionCache()) for dom in (ZZ, QQ)
             for i in range(1, 7)]
    fill = DecisionCache(tmp_path)
    for dom in (ZZ, QQ):
        for i in range(1, 7):
            ideal_trivial(g, i, dom, cache=fill)
    reader = DecisionCache(tmp_path)
    hits = [ideal_trivial(g, i, dom, cache=reader) for dom in (ZZ, QQ)
            for i in range(1, 7)]
    assert [d.to_json() for d in hits] == [d.to_json() for d in fresh]


def test_corrupt_entry_is_a_counted_miss(tmp_path):
    g = octahedron()
    want = gamma(g, QQ, cache=DecisionCache()).to_json()
    gamma(g, QQ, cache=DecisionCache(tmp_path))
    entries = sorted(tmp_path.glob("*.json"))
    assert entries
    for path in entries:
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
    cache = DecisionCache(tmp_path)
    assert gamma(g, QQ, cache=cache).to_json() == want
    assert cache.corrupt == len(entries)
    # the recomputed decisions replaced the corrupt files
    for path in entries:
        json.loads(path.read_text())


def test_undecodable_entry_is_a_miss(tmp_path):
    cache = DecisionCache(tmp_path)
    cache.put(("k",), {"v": 1})
    (path,) = tmp_path.glob("*.json")
    path.write_bytes(b"\xff\xfe{")
    reader = DecisionCache(tmp_path)
    assert reader.get(("k",)) is None and reader.corrupt == 1


def test_put_is_atomic(tmp_path, monkeypatch):
    cache = DecisionCache(tmp_path)
    cache.put(("k",), {"v": 1})
    (path,) = tmp_path.glob("*.json")

    def crash(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError):
        cache.put(("k",), {"v": 2})
    # the old entry is intact and no temporary file is left behind
    assert json.loads(path.read_text()) == {"v": 1}
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
    monkeypatch.undo()
    cache.put(("k",), {"v": 2})
    assert DecisionCache(tmp_path).get(("k",)) == {"v": 2}
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
