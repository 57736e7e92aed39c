"""The decision cache: certificates across labelings, corrupt entries, atomic writes,
and the box-scan entry that gamma reads before its probe scan."""

import hashlib
import json
import os
import random
from collections import Counter

import pytest

from corank import criticalideals
from corank.cache import DecisionCache
from corank.cli import main
from corank.config import DEFAULT_CONFIG
from corank.criticalideals import gamma, gamma_row, generalized_laplacian, ideal_trivial
from corank.enumeration import all_trees, enumerate_connected_graphs, enumerate_digraphs
from corank.formats import write_graph6
from corank.generators import octahedron
from corank.graphs import canonical_form, relabel
from corank.linalg import exact_rank, rank_mod_p
from corank.polyring import QQ, ZZ
from test_scan import _count_eliminations


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


def _labeling(graphs, seed):
    """Each graph under one random relabeling drawn from the seed."""
    rng = random.Random(seed)
    out = []
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append(relabel(g, perm))
    return out


def _box_entry(g, tmp_path):
    """The file of g's gamma-box-scan entry in the directory."""
    mz = g.n - criticalideals.zero_forcing_number(g).z
    key = criticalideals._box_scan_key(canonical_form(g), mz, DEFAULT_CONFIG)
    return tmp_path / DecisionCache._filename(key)


# The octahedron's box-scan key and its ideal_trivial key at i = 3 over Z,
# with the file name and the bytes of one entry under each, as written by
# the encoder json.dumps(..., sort_keys=True).  An encoder that re-keyed or
# rewrote an existing directory would fail here.
PINNED_ENTRIES = [
    (("gamma-box-scan", "470006000401000004010000040103000401060004010f0004011e", 2, 2, 20000),
     "906d9110aca6789cef5a966fce5fd065b17cfd8b65b0cd6e6858ca7aa83ff40e.json",
     [3, [0, 0, 0, 0, 0, 0]], b"[3, [0, 0, 0, 0, 0, 0]]"),
    (("ideal_trivial", "470006000401000004010000040103000401060004010f0004011e", 3, "Z",
      "fb546a3e713c0e18"),
     "e29c29f688752793ea5d342c24ae54496e47a6c4a4ac91cb6580f25239090d04.json",
     {"trivial": False, "method": "point-certificate", "detail": [2, [0, 0, 0, 0, 0, 0]]},
     b'{"detail": [2, [0, 0, 0, 0, 0, 0]], "method": "point-certificate", "trivial": false}'),
]


def test_file_names_and_entry_bytes_are_pinned(tmp_path):
    cache = DecisionCache(tmp_path)
    for key, name, value, data in PINNED_ENTRIES:
        assert DecisionCache._filename(key) == name
        cache.put(key, value)
        assert (tmp_path / name).read_bytes() == data
        assert DecisionCache(tmp_path).get(key) == value
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(e[1] for e in PINNED_ENTRIES)


def test_the_probe_follows_every_relabeling():
    """The probe's (rank, point) in a relabeling is the relabeled probe
    result, so the filler's probe point of a box-scan entry maps back to
    the reader's own."""
    graphs = (enumerate_connected_graphs(6) + enumerate_digraphs(4)
              + [t for n in range(1, 8) for t in all_trees(n)])
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for g in graphs:
            perm = list(range(g.n))
            rng.shuffle(perm)
            lower = g.n - criticalideals.zero_forcing_number(g).z
            rank, point = criticalideals._probe(g, lower, QQ)
            h = relabel(g, perm)
            assert criticalideals._probe(h, lower, QQ) == \
                (rank, criticalideals._relabel_point(point, perm)), (g, perm)


# sha256 of the reads below, taken when gamma still ran its probe scan
# before looking the box scan up
WARM_ACROSS_LABELINGS = "2b6338d404e8c2fc4b40aa2059da03be366a22c0d2efc7fb8595fb4c574f739c"


def test_warm_reads_in_other_labelings_are_pinned(tmp_path):
    graphs = enumerate_connected_graphs(6)
    for g in _labeling(graphs, 1):
        cache = DecisionCache(tmp_path)
        gamma(g, ZZ, cache=cache)
        gamma(g, QQ, cache=cache)
    out = []
    for seed in (2, 3):
        for g in _labeling(graphs, seed):
            cache = DecisionCache(tmp_path)
            out += [gamma(g, dom, cache=cache).to_json() for dom in (ZZ, QQ)]
            assert cache.corrupt == 0
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == WARM_ACROSS_LABELINGS


def test_a_directory_hit_runs_no_probe_and_one_check(tmp_path, monkeypatch):
    g = octahedron()  # its probe leaves a gap, so the box scan has an entry
    for dom in (ZZ, QQ):
        gamma(g, dom, cache=DecisionCache(tmp_path))
    perm = [5, 3, 0, 1, 4, 2]
    want = [gamma(relabel(g, perm), dom).to_json() for dom in (ZZ, QQ)]
    runs = {"probe": 0, "check": 0}
    scan, rank = criticalideals.min_rank_scan, criticalideals.integer_rank

    def counted_scan(g, blocks, domain, lower, upper, upper_point, budget=None):
        runs["probe"] += budget is None  # the probe scan is gamma's only unbudgeted scan
        return scan(g, blocks, domain, lower, upper, upper_point, budget)

    def counted_rank(m, p=None):
        runs["check"] += 1
        return rank(m, p)

    monkeypatch.setattr(criticalideals, "min_rank_scan", counted_scan)
    monkeypatch.setattr(criticalideals, "integer_rank", counted_rank)
    h = relabel(g, perm)  # a fresh object, with no probe bound kept
    cache = DecisionCache(tmp_path)
    # the Q call reads the entry the Z call accepted from memory, unchecked
    assert [gamma(h, dom, cache=cache).to_json() for dom in (ZZ, QQ)] == want
    assert runs == {"probe": 0, "check": 1} and cache.corrupt == 0


def test_a_box_scan_entry_read_from_a_directory_costs_one_elimination(tmp_path, monkeypatch):
    """Over a directory filled by the 143 graphs, gamma_row of a fresh
    object of each graph whose probe left a gap eliminates exactly once:
    the check of the box-scan entry that gamma_Z reads, which gamma_Q then
    reads from memory."""
    graphs = enumerate_connected_graphs(6)
    for g in graphs:
        gamma_row(g, cache=DecisionCache(tmp_path))
    read = 0
    for g in graphs:
        if not _box_entry(g, tmp_path).exists():
            continue
        h, cache = relabel(g, range(g.n)), DecisionCache(tmp_path)
        assert _count_eliminations(monkeypatch, lambda: gamma_row(h, cache=cache)) == 1, g
        assert cache.corrupt == 0
        read += 1
    assert read > 0


class CountingCache(DecisionCache):
    """A DecisionCache that counts its gets, the hits among them and its puts."""

    def __init__(self, directory):
        super().__init__(directory)
        self.counts = Counter()

    def get(self, key, check=None):
        value = super().get(key, check)
        self.counts["gets"] += 1
        self.counts["hits"] += value is not None
        return value

    def put(self, key, value):
        self.counts["puts"] += 1
        super().put(key, value)


def _directory_bytes(path):
    return sorted((p.name, p.read_bytes()) for p in path.iterdir())


def test_kept_box_scans_leave_the_directory_as_a_fresh_graph_does(tmp_path):
    """A graph whose facts a cacheless gamma_row filled writes through a
    cache directory the bytes that a fresh object of the same graph writes,
    and a second reader of that directory only hits: gamma asks the cache
    before reading g's kept box scan, and puts what it read from g."""
    def gapped(g):
        lower = g.n - criticalideals.zero_forcing_number(g).z
        return criticalideals._probe(g, lower, QQ)[0] > lower

    graphs = [octahedron()] + [g for g in enumerate_connected_graphs(6) if gapped(g)]
    for k, g in enumerate(graphs):
        g = relabel(g, range(g.n))
        gamma_row(g)
        a, b = tmp_path / f"{k}a", tmp_path / f"{k}b"
        gamma_row(g, cache=DecisionCache(a))
        gamma_row(relabel(g, range(g.n)), cache=DecisionCache(b))
        assert _directory_bytes(a) == _directory_bytes(b), g
        reader = CountingCache(a)
        gamma_row(g, cache=reader)
        assert reader.counts["gets"] == reader.counts["hits"] > 0, g
        assert reader.counts["puts"] == 0, g


TAMPERED = [[2, [0, 0, 0, 0, 0, 0]], [3], {"v": 1}, "x", [2, None], [True, [0] * 6],
            [2, [0, 0, 0]], [2, [0, 0, 0, 0, 0, "0"]]]


@pytest.mark.parametrize("entry", TAMPERED, ids=[json.dumps(e) for e in TAMPERED])
def test_a_tampered_box_scan_entry_is_a_counted_miss(tmp_path, capsys, entry):
    """An entry that parses but is no [rank, point] of that rank is recomputed
    and overwritten, never served (the octahedron's mz is 2, its gamma_Q 3)."""
    g6 = write_graph6(octahedron())
    assert main(["gamma", "--domain", "q", g6]) == 0
    cold = capsys.readouterr().out
    assert main(["gamma", "--domain", "q", "--cache", str(tmp_path), g6]) == 0
    capsys.readouterr()
    path = _box_entry(octahedron(), tmp_path)
    good = path.read_bytes()
    path.write_text(json.dumps(entry))
    assert main(["gamma", "--domain", "q", "--cache", str(tmp_path), g6]) == 0
    assert capsys.readouterr().out == cold
    assert path.read_bytes() == good
    path.write_text(json.dumps(entry))
    cache = DecisionCache(tmp_path)
    assert gamma(octahedron(), QQ, cache=cache).value == 3 and cache.corrupt == 1


def test_a_box_scan_entry_outside_the_box_and_the_probe_is_a_counted_miss(tmp_path, capsys):
    """An entry at its point's true rank is still corrupt when no scan could
    have returned that point: one coordinate past the box radius, and huge.
    The report stays the cold one and the file is rewritten.  A probe point
    outside the box (the octahedron is 4-regular, the box radius 2) is one
    the scan returns, so an entry there is served, at its own rank."""
    g = octahedron()
    g6 = write_graph6(g)
    assert main(["gamma", "--domain", "q", g6]) == 0
    cold = capsys.readouterr().out
    assert main(["gamma", "--domain", "q", "--cache", str(tmp_path), g6]) == 0
    capsys.readouterr()
    path = _box_entry(g, tmp_path)
    good = path.read_bytes()
    inv = criticalideals._inverse(canonical_form(g).perm)
    far = [10 ** 30] + [0] * 5  # in the canonical labeling, as the entry holds it
    rank = exact_rank(generalized_laplacian(g).evaluate(
        criticalideals._relabel_point(far, inv))).rank
    path.write_text(json.dumps([rank, far]))
    assert main(["gamma", "--domain", "q", "--cache", str(tmp_path), g6]) == 0
    assert capsys.readouterr().out == cold
    assert path.read_bytes() == good
    path.write_text(json.dumps([rank, far]))
    cache = DecisionCache(tmp_path)
    assert gamma(g, QQ, cache=cache).to_json() == gamma(octahedron(), QQ).to_json()
    assert cache.corrupt == 1

    degrees = [4] * 6
    assert max(degrees) > DEFAULT_CONFIG.box_radius
    rank = exact_rank(generalized_laplacian(g).evaluate(degrees)).rank
    path.write_text(json.dumps([rank, degrees]))
    cache = DecisionCache(tmp_path)
    warm = gamma(g, QQ, cache=cache)
    assert cache.corrupt == 0
    assert warm.upper_witness == {"point": degrees, "rank": rank} and warm.value == 3


def test_a_box_scan_entry_at_a_point_of_another_rank_is_a_counted_miss(tmp_path):
    """[mz, origin] in place of each box-scan entry of the 143 graphs: where
    L(G, 0) has another rank the entry is recomputed, and every value is
    the cold one."""
    for g in enumerate_connected_graphs(6):
        cold = gamma(g, QQ, cache=DecisionCache()).to_json()
        gamma(g, QQ, cache=DecisionCache(tmp_path))
        path = _box_entry(g, tmp_path)
        if not path.exists():
            continue
        mz = g.n - criticalideals.zero_forcing_number(g).z
        path.write_text(json.dumps([mz, [0] * g.n]))
        cache = DecisionCache(tmp_path)
        warm = gamma(g, QQ, cache=cache).to_json()
        if exact_rank(generalized_laplacian(g).evaluate([0] * g.n)).rank != mz:
            assert warm == cold and cache.corrupt == 1, g
        assert warm["value"] == cold["value"], g


def _ideal_entry(g, i, domain, tmp_path):
    """The file of g's ideal_trivial entry at index i over the domain."""
    key = ("ideal_trivial", canonical_form(g).hex(), i, domain.name,
           DEFAULT_CONFIG.budget_hash())
    return tmp_path / DecisionCache._filename(key)


def _flipped(entry):
    """The entry with its verdict negated, or, for a Groebner verdict (whose
    flip only a re-derivation could catch), with a detail of no known shape."""
    if entry["method"] == "groebner":
        return dict(entry, detail=5)
    return dict(entry, trivial=not entry["trivial"])


OCTAHEDRON_Z3 = {"detail": [2, [0, 0, 0, 0, 0, 0]], "method": "point-certificate",
                 "trivial": False}
MALFORMED = [[3], "x", None, {"trivial": 1, "method": "point-certificate"},
             dict(OCTAHEDRON_Z3, trivial=True), dict(OCTAHEDRON_Z3, method="groebner"),
             dict(OCTAHEDRON_Z3, method="zero-ideal"), dict(OCTAHEDRON_Z3, detail=[0] * 6),
             dict(OCTAHEDRON_Z3, detail=[4, [0] * 6]), dict(OCTAHEDRON_Z3, detail=[2, [0] * 5]),
             dict(OCTAHEDRON_Z3, detail=[2, [0, 0, 0, 0, 0, True]]),
             {"trivial": True, "method": "unit-minor", "detail": [[0, 1, 2], [0, 1, 2], 2]},
             {"trivial": True, "method": "unit-minor", "detail": [[0, 1, 1], [0, 1, 2], 1]},
             {"trivial": True, "method": "constant-minor", "detail": [[0, 1], [0, 1], 1]}]


@pytest.mark.parametrize("entry", MALFORMED, ids=[json.dumps(e) for e in MALFORMED])
def test_a_malformed_ideal_entry_is_a_counted_miss(tmp_path, capsys, entry):
    """The octahedron's gamma_Z is 2, its index 3 closed by a point mod 2.
    An entry there that is no decision of that shape, or whose verdict its
    method does not give (the flip to trivial once made a warm gamma_Z 3),
    is recomputed and overwritten, never served, and the CLI ends in the
    cold report rather than a traceback."""
    g = octahedron()
    g6 = write_graph6(g)
    assert main(["gamma", "--domain", "z", g6]) == 0
    cold = capsys.readouterr().out
    assert main(["gamma", "--domain", "z", "--cache", str(tmp_path), g6]) == 0
    capsys.readouterr()
    path = _ideal_entry(g, 3, ZZ, tmp_path)
    assert json.loads(path.read_bytes()) == OCTAHEDRON_Z3
    good = path.read_bytes()
    path.write_text(json.dumps(entry))
    assert main(["gamma", "--domain", "z", "--cache", str(tmp_path), g6]) == 0
    assert capsys.readouterr().out == cold
    assert path.read_bytes() == good
    path.write_text(json.dumps(entry))
    cache = DecisionCache(tmp_path)
    assert gamma(g, ZZ, cache=cache).value == 2 and cache.corrupt == 1


def test_every_tampered_ideal_entry_of_the_143_graphs_is_a_counted_miss(tmp_path):
    """Each ideal_trivial entry that gamma over Z and Q writes for the 143
    graphs, flipped (see _flipped) or replaced by [3]: the warm gamma is the
    cold one, with one corrupt entry counted."""
    tampered = 0
    for k, g in enumerate(enumerate_connected_graphs(6)):
        cold = [gamma(g, dom, cache=DecisionCache()).to_json() for dom in (ZZ, QQ)]
        directory = tmp_path / str(k)
        for dom in (ZZ, QQ):
            gamma(g, dom, cache=DecisionCache(directory))
        for dom in (ZZ, QQ):
            for i in range(1, g.n + 1):
                path = _ideal_entry(g, i, dom, directory)
                if not path.exists():
                    continue
                good = path.read_bytes()
                for entry in (_flipped(json.loads(good)), [3]):
                    path.write_text(json.dumps(entry))
                    cache = DecisionCache(directory)
                    warm = [gamma(g, d, cache=cache).to_json() for d in (ZZ, QQ)]
                    assert (warm, cache.corrupt) == (cold, 1), (g, i, dom, entry)
                    assert path.read_bytes() == good
                    tampered += 1
    assert tampered > 0
