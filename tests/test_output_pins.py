"""The CLI reports, pinned by the sha256 of stdout and the exit code.

A change meant to leave every report byte-identical keeps every pin.  The
graph commands read the named catalog followed by the 31 connected graphs
with n <= 5, as graph6 lines.  Regenerate a pin only for a change that
means to alter that report, and say so where the change is recorded.
The pins with another exit code, and those of stdin and `--output`, follow
the first list.
"""

import hashlib
import io

import pytest

from corank.cli import main
from corank.enumeration import all_trees, enumerate_connected_graphs
from corank.formats import write_digraph6, write_graph6
from corank.generators import NAMED_GRAPHS, graph_a
from corank.sweeps import _disconnected_exceptions

CATALOG = "".join(write_graph6(g) + "\n" for g in
                  [make() for make in NAMED_GRAPHS.values()] + enumerate_connected_graphs(5))
C4_ARCS = "4 4\n0 1\n1 2\n2 3\n3 0\n"
TREES = "".join(write_graph6(t) + "\n" for n in range(1, 8) for t in all_trees(n))
# the three disconnected digraphs where the five-way agreement fails
DISAGREEING = "".join(write_digraph6(d) + "\n" for d in _disconnected_exceptions())

# the parameter report is one whatever the --jobs width
PARAMS = "949b20da884db6c5d8311d529b3d4127eeb1f94051695784578a1a08f7ed4abe"

PINS = [
    (["gamma", "--domain", "fp:5", "--domain", "z", "--domain", "q", CATALOG],
     "d41e683d7a3e61f248ee1f24415fe8fbd6a4ebbbb14638fb249e13a74c835b76"),
    (["mrcr", "--box", "1", CATALOG],
     "12d0485ff359400e254ec36f2e2909c34c3ad915769b0d4eb82824eb827eee39"),
    (["mrcr", CATALOG],
     "e6f00b43f2e27b12aaccd3ed70d56aed2c647f8de48f7289087437170776cdc3"),
    (["params", "--jobs", "1", CATALOG], PARAMS),
    (["params", "--jobs", "2", CATALOG], PARAMS),
    (["classify", CATALOG],
     "af215ec5775a18c6364a0d97d6a64f5f9c1aa924d40790840324407817dab6ae"),
    (["zf", CATALOG],
     "51d9312cca493a5477d6b17b6a27901d4a6b9cd835d6de461935262b90a7e1c1"),
    (["params", "--box", "1", "--budget-spairs", "500", "--budget-degree", "12", CATALOG],
     "461f5307925ccb999f3932cef7d94bcb64579e4cd482e919b1fae9c81c89dbd6"),
    (["params", "--digraph", C4_ARCS],
     "ff9e25bd52c117d9bcfdb69080a9e2f9ad6fcea54655a7865cfc58a4be3d69c2"),
    (["sweep", "thm-rank1"],
     "eed7a583ea797c65f0578263569ba48b5da6900cbe5799975edc36e500636433"),
    (["sweep", "thm-digraph1"],
     "e33ea5d2529a1b1779373edaa92fce594128979fd39ca54fc85229f92dfc92fc"),
]


def test_the_catalog_holds_38_graphs():
    assert CATALOG.count("\n") == 38


@pytest.mark.parametrize("argv, digest", PINS,
                         ids=[" ".join(a for a in argv if "\n" not in a) for argv, _ in PINS])
def test_the_report_is_byte_identical(capsys, argv, digest):
    code = main(argv)
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# argv, exit code, sha256 of stdout
CODED_PINS = [
    (["trees", TREES], 0,
     "4b6979591e930a5cdcef4dcf14ae850f78641b5d9f83eb43558fb400e4b74518"),
    # budget-undecided over Q at the S-pair cap of one; the size of the
    # partial basis it prints follows the kept minor list
    (["gamma", "--domain", "q", "--budget-spairs", "1", "--strict",
      write_graph6(graph_a())], 3,
     "8ba961a5cd2d9afd6610f68418013be161025c0d1f688f618e5cbe980595b090"),
    (["classify", DISAGREEING], 1,
     "bb5936efd5d4dfe4d1c40e9f23606955ac7beaf24f7a5b0e8a7b04705ae78265"),
]


def test_the_25_trees_with_n_at_most_7():
    assert TREES.count("\n") == 25


@pytest.mark.parametrize("argv, code, digest", CODED_PINS,
                         ids=[" ".join(a for a in argv if "\n" not in a and "?" not in a)
                              for argv, _, _ in CODED_PINS])
def test_the_report_and_exit_code_are_pinned(capsys, argv, code, digest):
    got = main(argv)
    assert (got, _digest(capsys.readouterr().out)) == (code, digest)


def test_zf_reads_the_catalog_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(CATALOG))
    code = main(["zf", "-"])
    assert (code, _digest(capsys.readouterr().out)) == \
        (0, "51d9312cca493a5477d6b17b6a27901d4a6b9cd835d6de461935262b90a7e1c1")


def test_gamma_writes_the_output_file_and_nothing_to_stdout(capsys, tmp_path):
    out = tmp_path / "gamma.json"
    code = main(["gamma", "--output", str(out), CATALOG])
    assert (code, capsys.readouterr().out) == (0, "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "0365b59fa38c18934d0a2108e2b97228326642a34cdcc2bb829fcb5a319b2e26"


# corank gb --index i --domain D --order O on one graph, exit code 0 throughout:
# BW, i = 2, is trivial by a unit minor; EK~o, i = 3, is trivial over Q and
# F_3 but not mod 2; A_, i = 2, is proper over Q.
GB_PINS = {
    ("BW", 2): {
        ("z", "degrevlex"): "afac7185a8e1f1acd5e5277637f4bef3409df145282a0c4b32d6ae32e3481bd8",
        ("z", "lex"): "cef8e8ea5a3dd57f01ed22958924fa2b5c414d888c2a08a6fcfbfd8f2f5c8a56",
        ("z", "grlex"): "b09936bb1789961d5f38d92a01c86876ac81cc23c121d8797d1220a8a6ad0e9b",
        ("q", "degrevlex"): "a6a1109a16f433ba5e853099fc06d8be3dcd20e573c609f1d2235a531476a6be",
        ("q", "lex"): "bacaabc86363e9bbca467add6bdfd1a2231bafc6e67baa0de13496e7c83090b8",
        ("q", "grlex"): "338cf11e4090f038aa72e93390e5cf41b2990ce5a9a54904306427ae00e3f454",
        ("fp:3", "degrevlex"): "a6a1109a16f433ba5e853099fc06d8be3dcd20e573c609f1d2235a531476a6be",
        ("fp:3", "lex"): "bacaabc86363e9bbca467add6bdfd1a2231bafc6e67baa0de13496e7c83090b8",
        ("fp:3", "grlex"): "338cf11e4090f038aa72e93390e5cf41b2990ce5a9a54904306427ae00e3f454",
    },
    ("EK~o", 3): {
        ("z", "degrevlex"): "9d11af25cf9d4dbeb5ff93da5d1303b7db86fd990ba1031da205aa20e442070e",
        ("z", "lex"): "6fd2b632a38bf78174ba3ddb1a99fb4e940035b2fd590ffda1c5426f04da7700",
        ("z", "grlex"): "bffee88abb63fcaa48efcb185cddfbe142ce1d96edd8fab5386632af6cd084b6",
        ("q", "degrevlex"): "684e9f40af481e9c6b57e113f813b559c308c40e93e6b2d94b594bf5d1f31450",
        ("q", "lex"): "44c1dff8a89ce764f36602b490abab38e67ce75b17646ddb2efacef8a4b7638f",
        ("q", "grlex"): "00efc5868d8c39f532c7f90d9f99cde84f30c3d3b9be437e4781beeff1418f7d",
        ("fp:3", "degrevlex"): "684e9f40af481e9c6b57e113f813b559c308c40e93e6b2d94b594bf5d1f31450",
        ("fp:3", "lex"): "44c1dff8a89ce764f36602b490abab38e67ce75b17646ddb2efacef8a4b7638f",
        ("fp:3", "grlex"): "00efc5868d8c39f532c7f90d9f99cde84f30c3d3b9be437e4781beeff1418f7d",
    },
    ("A_", 2): {
        ("z", "degrevlex"): "e5f5eadb26ed5f57e35226ffc0f673f2f491ae14f2fbbf44521bcdcca6127ddc",
        ("z", "lex"): "a349f2562690b982470054a6225f223631384ca585238245a530b7e71207c1b8",
        ("z", "grlex"): "6ca8e69624503390c7eb02f834f3a5bd99e657f7250e321864a5cc7ef4ece208",
        ("q", "degrevlex"): "c9efb219255acbbf167b24e34711505b87ea907379be4e258ee9bd19591c2846",
        ("q", "lex"): "2eea79b104685166940274e43eb7007502f7e3d63bc756374fe2b7bcad19c9c7",
        ("q", "grlex"): "c465f6f57a48493fd02cf88a91db6f4d5ac797292444fa77425e78709533114c",
        ("fp:3", "degrevlex"): "39ad08194e2f038eeb9fd148e3e1c0928f9c372df6fd162bf1edc42f05a771e1",
        ("fp:3", "lex"): "063cc1948f27885b9c9d964e5f01675efb25465286bfc57bb2fc20fd93b6d515",
        ("fp:3", "grlex"): "f3324915831c35c544c6e8acde14811380ce4628cbfcc16332486d9320c2b6cd",
    },
}


@pytest.mark.parametrize("graph, index, domain, order",
                         [(*g, *k) for g, pins in GB_PINS.items() for k in pins])
def test_the_gb_report_is_pinned(capsys, graph, index, domain, order):
    code = main(["gb", "--index", str(index), "--domain", domain, "--order", order, graph])
    assert (code, _digest(capsys.readouterr().out)) == \
        (0, GB_PINS[graph, index][domain, order])
