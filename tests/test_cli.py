"""The command-line front door: commands, formats, exit codes, caching."""

import json
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from corank import cli, graphs
from corank.cache import DecisionCache
from corank.cli import build_parser, main
from corank.config import RunConfig
from corank.enumeration import all_trees, enumerate_connected_graphs
from corank.formats import write_graph6
from corank.generators import NAMED_GRAPHS, cycle, graph_a, graph_b, octahedron, path, star


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_params_inline_bull(capsys):
    # bull graph: triangle plus two pendants
    code, out = run(capsys, "params", "D{O")
    assert code == 0
    (report,) = json.loads(out)
    assert report["z"] == 2 and report["mz"] == 3
    assert report["gamma"]["Q=R"]["value"] == 3
    assert report["gamma"]["Z"]["value"] == 3
    assert report["timing_seconds"] is None
    assert report["config"]["box_radius"] == 2


def test_params_octahedron_values(capsys):
    code, out = run(capsys, "params", write_graph6(octahedron()))
    assert code == 0
    (report,) = json.loads(out)
    assert report["mz"] == 2
    assert report["gamma"]["Z"]["value"] == 2
    assert report["gamma"]["Q=R"]["value"] == 3
    assert report["mr"]["exact"] and report["mr"]["lower"] == 2


def test_params_k1(capsys):
    code, out = run(capsys, "params", "@")
    assert code == 0
    (report,) = json.loads(out)
    assert report["z"] == 1 and report["mz"] == 0
    assert report["gamma"]["Q=R"]["value"] == 0


def test_params_formats(capsys):
    code, out = run(capsys, "params", "--format", "csv", "Bw")
    assert code == 0
    assert out.splitlines()[0].startswith("graph_id,")
    code, out = run(capsys, "params", "--format", "md", "Bw")
    assert code == 0
    assert out.startswith("|")


def test_params_deterministic_and_cached(tmp_path, capsys):
    g6 = write_graph6(octahedron())
    cache_dir = str(tmp_path / "cache")
    code1, out1 = run(capsys, "params", "--cache", cache_dir, g6)
    code2, out2 = run(capsys, "params", "--cache", cache_dir, g6)
    code3, out3 = run(capsys, "params", g6)
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3  # cache cannot change the bytes


def test_params_jobs_parallel_identical(capsys, tmp_path):
    graphs = tmp_path / "graphs.g6"
    # E`]o and EygW are one graph in two labelings: the second report must
    # not read the first one's cached box scan in either run
    graphs.write_text("Bw\nBg\nD{c\nE`]o\nEygW\n")
    code1, out1 = run(capsys, "params", str(graphs))
    code2, out2 = run(capsys, "params", "--jobs", "2", str(graphs))
    assert code1 == code2 == 0
    assert out1 == out2


# four graphs, each in two labelings, one after the other
RELABELED = ("E`]o", "EygW", "E`]w", "EywW", "EJnW", "E^bg", "EJnw", "E|{o")
ROW_COMMANDS = [
    ("gamma", "--domain", "z", "--domain", "q", "--domain", "fp:3"),
    ("mrcr",),
    ("classify",),
    ("params", "--jobs", "1"),
    ("params", "--jobs", "2"),
]


@pytest.mark.parametrize("argv", ROW_COMMANDS, ids=" ".join)
def test_each_row_equals_its_line_run_alone(capsys, argv):
    # the second labeling must not read the box scan the first one left
    code, out = run(capsys, *argv, "\n".join(RELABELED))
    alone = [run(capsys, *argv, line) for line in RELABELED]
    assert code == 0 and {c for c, _ in alone} == {0}
    assert json.loads(out) == [row for _, text in alone for row in json.loads(text)]


def test_params_jobs_parallel_identical_over_several_domains(capsys):
    # the domains reach each worker process as objects
    argv = ("params", "--domain", "fp:3", "--domain", "z", "Bw\nD{c\nE`]o")
    code1, out1 = run(capsys, *argv, "--jobs", "1")
    code2, out2 = run(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    assert set(json.loads(out1)[0]["gamma"]) == {"F3", "Z"}


def test_jobs_forks_no_more_workers_than_inputs(capsys, monkeypatch):
    widths = []

    class SerialPool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "_process_pool", SerialPool)
    code1, out1 = run(capsys, "params", "--jobs", "64", "Bw\nBg")
    code2, out2 = run(capsys, "params", "--jobs", "1", "Bw\nBg")
    assert widths == [2]
    assert code1 == code2 == 0 and out1 == out2
    # an input with no graph starts no pool and reports like --jobs 1
    code3, out3 = run(capsys, "params", "--jobs", "2", "# nothing")
    code4, out4 = run(capsys, "params", "--jobs", "1", "# nothing")
    assert widths == [2]
    assert code3 == code4 == 0 and out3 == out4 == "[]\n"


def test_importing_the_cli_loads_no_process_pool():
    # a fresh interpreter, since this one's test modules may have loaded it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", "import sys, corank, corank.cli; "
                           "print('concurrent.futures' in sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=30)
    assert done.returncode == 0 and done.stdout == "False\n"


@pytest.mark.parametrize("argv", [
    ["gamma", "--format", "csv", "Bw"],
    ["zf", "--domain", "fp:7", "Bw"],
    ["zf", "--jobs", "4", "Bw"],
    ["trees", "--digraph", "Bw"],
    ["gb", "--index", "2", "--strict", "Bw"],
])
def test_an_option_the_command_does_not_read_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


README = Path(__file__).parents[1] / "README.md"
METAVAR_VALUES = {"K": "1", "N": "1", "I": "3", "DIR": "cache", "FILE": "out"}
POSITIONAL = {"sweep": ["thm2.1"], "reproduce-appendix": []}


def readme_options():
    """{command: [(option, metavar or None)]} from the README's option list."""
    listed = {}
    for line in README.read_text().splitlines():
        m = re.match(r"- ((?:`[\w-]+`(?:, )?)+): (.*)$", line)
        if m:
            options = re.findall(r"`(--[\w-]+)(?: ([^`]+))?`", m.group(2))
            for command in re.findall(r"`([\w-]+)`", m.group(1)):
                listed[command] = [(o, v or None) for o, v in options]
    return listed


def offered_options(parser, command):
    (commands,) = [a.choices for a in parser._actions if a.dest == "command"]
    return {s for a in commands[command]._actions for s in a.option_strings
            if s.startswith("--") and s != "--help"}


def test_every_option_the_readme_lists_parses():
    """And the README lists every option each command offers."""
    parser = build_parser()
    listed = readme_options()
    assert set(listed) == set(cli.SUBCOMMANDS)
    for command, options in listed.items():
        argv = [command] + POSITIONAL.get(command, ["Bw"])
        for option, metavar in options:
            argv.append(option)
            if metavar:
                argv.append(metavar.split("|")[0] if "|" in metavar
                            else METAVAR_VALUES[metavar])
        assert parser.parse_args(argv).command == command
        assert offered_options(parser, command) == {o for o, _ in options}


def test_parse_error_exit_code(capsys):
    code = main(["params", "B" + chr(20)])
    assert code == 2


@pytest.mark.parametrize("command", ["params", "gamma", "zf", "mrcr", "classify"])
def test_an_empty_token_is_empty_input_not_the_current_directory(capsys, tmp_path, command):
    assert main([command, ""]) == 2
    assert capsys.readouterr().err == "parse error: empty input\n"
    # a directory that is named is still read as a path, and fails as one
    assert main([command, str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_strict_budget_exit_code(capsys):
    g6 = write_graph6(graph_b())
    code, out = run(capsys, "gamma", "--domain", "q", "--strict",
                    "--budget-spairs", "1", g6)
    assert code == 3
    code_ok, _ = run(capsys, "gamma", "--domain", "q", g6)
    assert code_ok == 0


def test_gb_over_its_spair_cap_exits_undecided(capsys):
    code = main(["gb", "--index", "4", "--budget-spairs", "1", write_graph6(graph_a())])
    assert code == 3
    assert capsys.readouterr().err.startswith("undecided: S-pair cap exceeded")


@pytest.mark.parametrize("argv", [
    ["gamma", "--box", "-1", "EznW"],
    ["gb", "--index", "2", "--budget-spairs", "0", "EznW"],
    ["gb", "--index", "2", "--budget-degree", "0", "EznW"],
])
def test_an_invalid_budget_is_an_error_not_a_traceback(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("zf_exact_max_n", -1),
    ("modp_point_budget", -5),
    ("gamma_box_budget", -2),
    ("box_point_budget", -3),
    ("primes", (2, 4)),
    ("box_radius", -1),
    ("spair_cap", 0),
    ("degree_cap", -4),
])
def test_run_config_names_the_field_it_rejects(field, value):
    # a settable budget out of range; a fixed budget whatever its value
    settable = field in cli.CONFIG_OPTIONS.values()
    with pytest.raises(ValueError if settable else TypeError, match=field):
        RunConfig(**{field: value})


def test_run_config_holds_only_the_budgets_a_command_sets():
    # a budget that no option sets is fixed in config.py, not a field
    assert [f.name for f in fields(RunConfig)] == list(cli.CONFIG_OPTIONS.values())
    args = build_parser().parse_args(["params", "--box", "3", "--budget-spairs", "7",
                                      "--budget-degree", "9", "Bw"])
    assert cli._config_from_args(args) == RunConfig(box_radius=3, spair_cap=7, degree_cap=9)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_params_with_fewer_than_one_job_is_an_error(capsys, jobs):
    assert main(["params", "--jobs", jobs, "Bw"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--jobs" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, line", [
    (["zf", "3 2\n0 1\n1 1"], "line 3: loop"),
    (["zf", "3 2\n0 1\n1 5"], "line 3: edge (1,5) out of range"),
    (["zf", "3 2\n0 1\n-1 2"], "line 3: edge (-1,2) out of range"),
    (["zf", "3 2\n0 1\n1 0"], "line 3: edge (1,0) repeats line 2"),
    (["zf", "--digraph", "2 2\n0 1\n0 1"], "line 3: arc (0,1) repeats line 2"),
])
def test_a_malformed_pair_list_is_a_parse_error_naming_its_line(capsys, argv, line):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and line in err and "Traceback" not in err


def test_gb_compare_with_a_missing_file_is_an_error(capsys, tmp_path):
    code = main(["gb", "--index", "4", "--domain", "q", "--compare",
                 str(tmp_path / "missing.txt"), write_graph6(graph_b())])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("text, line", [
    ("x0 - x1\nx0 +* x1\n", "line 2: bad factor"),
    ("# x9 names no vertex of a 5-vertex graph\n\nx9\n", "line 3: variable x9 out of range"),
    ("x0 - x1\nx0 - 1/0\n", "line 2: zero denominator in 'x0 - 1/0'"),
])
def test_a_malformed_gb_compare_line_is_a_parse_error_naming_it(capsys, tmp_path, text,
                                                                line):
    ref = tmp_path / "basis.txt"
    ref.write_text(text)
    assert main(["gb", "--index", "2", "--compare", str(ref), "D{O"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and line in err and "Traceback" not in err


def test_a_gb_compare_denominator_that_vanishes_mod_p_is_a_parse_error(capsys, tmp_path):
    ref = tmp_path / "basis.txt"
    ref.write_text("x0 - x1\n\nx0 - 1/3\n")
    assert main(["gb", "--index", "2", "--domain", "fp:3", "--compare", str(ref), "D{O"]) == 2
    err = capsys.readouterr().err
    assert err == f"parse error: {ref} line 3: denominator of -1/3 vanishes mod 3\n"


def test_gb_given_several_graphs_is_an_invalid_argument(capsys):
    # the input parsed, so this is exit 1, not the parse error's 2
    assert main(["gb", "--index", "2", "Bw\nBg"]) == 1
    assert capsys.readouterr().err == "gb expects exactly one input graph\n"


def test_output_into_a_missing_directory_is_an_error(capsys, tmp_path):
    code = main(["params", "--output", str(tmp_path / "missing" / "x"), "Bw"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_zf_command(capsys):
    code, out = run(capsys, "zf", "D{O")
    assert code == 0
    (rec,) = json.loads(out)
    assert rec["z"] == 2 and rec["exact"]
    assert len(rec["record"]["forces"]) == 3


def test_trees_command(capsys, tmp_path):
    code, out = run(capsys, "trees", write_graph6(path(5)))
    assert code == 0
    (tp,) = json.loads(out)
    assert tp["mz"] == 4 and tp["path_cover"] == 1
    code_bad = main(["trees", "Bw"])  # triangle is not a tree
    assert code_bad == 1


@pytest.mark.parametrize("text", ["&AO", "&B?o", ">>digraph6<<&AO"])
def test_trees_on_a_digraph_is_an_error(capsys, text):
    assert main(["trees", text]) == 1
    assert capsys.readouterr().err.startswith("error: input is not a tree")


def test_classify_command(capsys):
    code, out = run(capsys, "classify", "Bw")
    assert code == 0
    (rep,) = json.loads(out)
    assert rep["agreement"] and rep["conditions"]["complete"]
    # digraph classification through digraph6 input
    code_d, out_d = run(capsys, "classify", "&B?o")  # arcs 2->0, 2->1
    assert code_d in (0, 1)
    (rep_d,) = json.loads(out_d)
    assert rep_d["kind"] == "digraph-rank1"


def test_classify_arc_list_input(capsys, tmp_path):
    arcs = tmp_path / "d.arcs"
    arcs.write_text("3 3\n0 1\n0 2\n1 2\n")
    code, out = run(capsys, "classify", "--digraph", str(arcs))
    assert code == 0
    (rep,) = json.loads(out)
    assert rep["conditions"]["lambda_shape"]


def test_gb_command_compare(capsys, tmp_path):
    ref = tmp_path / "basis.txt"
    ref.write_text("\n".join([
        "x0 + x5 - 1", "x1 + x5 - 1", "x2 - x5", "x3 - x5", "x4 + x5 - 1",
        "x5^2 - x5 - 1"]) + "\n")
    code, out = run(capsys, "gb", "--index", "4", "--domain", "q",
                    "--compare", str(ref), write_graph6(graph_b()))
    assert code == 0
    (payload,) = json.loads(out)
    assert payload["compare"]["ideal_equal"]
    wrong = tmp_path / "wrong.txt"
    wrong.write_text("x0\n")
    code_bad, _ = run(capsys, "gb", "--index", "4", "--domain", "q",
                      "--compare", str(wrong), write_graph6(graph_b()))
    assert code_bad == 1


def test_gb_trivial_at_mz(capsys):
    # any graph at i = mz has the unit ideal
    code, out = run(capsys, "gb", "--index", "3", "--domain", "q", "D{O")
    assert code == 0
    (payload,) = json.loads(out)
    assert payload["field_basis"] == ["1"]


def test_gb_z_mode_reports_decision(capsys):
    code, out = run(capsys, "gb", "--index", "3", "--domain", "z",
                    write_graph6(octahedron()))
    assert code == 0
    (payload,) = json.loads(out)
    assert payload["z_trivial"]["trivial"] is False


def test_sweep_command(capsys):
    code, out = run(capsys, "sweep", "prop-petersen")
    assert code == 0
    (res,) = json.loads(out)
    assert res["passed"]


def test_mrcr_command(capsys):
    code, out = run(capsys, "mrcr", "--domain", "z", "--box", "1",
                    write_graph6(path(4)))
    assert code == 0
    (res,) = json.loads(out)
    assert res["lower"] == res["upper"] == 3


def test_report_invariants_hold(capsys):
    code, out = run(capsys, "params", write_graph6(octahedron()))
    assert code == 0
    (r,) = json.loads(out)
    for entry in r["gamma"].values():
        assert r["mz"] <= entry["lower"] <= entry["upper"]
        if entry["value"] is None:
            assert entry["status"] != "exact"
    for entry in r["mrcr"].values():
        assert entry["lower"] <= entry["upper"]
    assert r["mr"]["lower"] <= r["mr"]["upper"]


def test_cache_correctness_sample(tmp_path, capsys):
    """Cached and cold gamma results agree on a 50-graph sample."""
    from corank.enumeration import enumerate_connected_graphs
    sample = enumerate_connected_graphs(6)[:50]
    blob = "\n".join(write_graph6(g) for g in sample) + "\n"
    src = tmp_path / "sample.g6"
    src.write_text(blob)
    cache_dir = str(tmp_path / "cache")
    code_cold, out_cold = run(capsys, "gamma", "--cache", cache_dir, str(src))
    code_warm, out_warm = run(capsys, "gamma", "--cache", cache_dir, str(src))
    code_none, out_none = run(capsys, "gamma", str(src))
    assert code_cold == code_warm == code_none == 0
    assert out_cold == out_warm == out_none


@pytest.fixture
def made(monkeypatch):
    """Counts of the DecisionCaches and canonical labelings a run makes."""
    counts = Counter()
    init, order = DecisionCache.__init__, graphs._canonical_order

    def counted_init(self, *args, **kwargs):
        counts["caches"] += 1
        init(self, *args, **kwargs)

    def counted_order(*args):
        counts["labelings"] += 1
        return order(*args)

    monkeypatch.setattr(DecisionCache, "__init__", counted_init)
    monkeypatch.setattr(graphs, "_canonical_order", counted_order)
    return counts


TREES = "".join(write_graph6(t) + "\n" for n in range(1, 8) for t in all_trees(n))
CACHELESS_RUNS = [("trees", TREES), *((command, "\n".join(RELABELED)) for command in
                                      ("gamma", "mrcr", "classify")),
                  ("params", "--jobs", "1", "\n".join(RELABELED)),
                  ("sweep", "thm-trees"), ("reproduce-appendix",)]


@pytest.mark.parametrize("cache", [(), ("--cache", "")], ids=["no-cache", "empty-cache"])
@pytest.mark.parametrize("argv", CACHELESS_RUNS,
                         ids=lambda argv: " ".join(a for a in argv if "\n" not in a))
def test_a_run_without_a_cache_directory_makes_no_cache(capsys, made, argv, cache):
    code, _ = run(capsys, argv[0], *cache, *argv[1:])
    assert code == 0 and made["caches"] == 0
    if argv[0] == "trees":  # tree rows carry no graph_id, so nothing labels a tree
        assert made["labelings"] == 0


def test_a_cache_directory_gets_one_cache_per_graph_and_its_entries(capsys, made, tmp_path):
    catalog = [make() for make in NAMED_GRAPHS.values()] + enumerate_connected_graphs(5)
    code, _ = run(capsys, "gamma", "--cache", str(tmp_path),
                  "".join(write_graph6(g) + "\n" for g in catalog))
    assert code == 0 and made["caches"] == len(catalog)
    assert list(tmp_path.glob("*.json"))


def test_long_inline_input_is_read_as_graph_data(capsys):
    """An inline token longer than a file name may be is graph data, not a path."""
    from corank.cli import _read_input
    from corank.generators import cycle
    token = write_graph6(cycle(300))
    assert len(token) > 255
    assert _read_input(token) == [cycle(300)]
    lines = "\n".join([write_graph6(path(4))] * 100)
    assert len(lines) > 255
    code, out = run(capsys, "zf", lines)
    assert code == 0
    assert len(json.loads(out)) == 100


@pytest.mark.parametrize("argv", [
    ["gamma", "--domain", "fp:10007", "EznW"],
    ["gamma", "--box", "30000", "EznW"],
])
def test_a_large_field_or_box_costs_only_its_budget(capsys, argv):
    # the shells of the point set are made as the scan reaches them
    code, out = run(capsys, *argv)
    assert code == 0
    (entry,) = json.loads(out)
    del entry["graph_id"]
    assert entry and all(res["status"] == "exact" for res in entry.values())


_VARIANTS = {
    "params": [[], ["--digraph"], ["--domain", "fp:3", "--domain", "z"],
               ["--format", "csv"], ["--format", "md"]],
    "gamma": [[], ["--digraph"], ["--domain", "fp:2"], ["--domain", "q"]],
    "zf": [[], ["--digraph"]],
    "mrcr": [[], ["--digraph"], ["--domain", "fp:3"]],
    "trees": [[]],
    "classify": [[], ["--digraph"]],
    "gb": [["--index", "1"], ["--index", "2", "--domain", "z"],
           ["--index", "1", "--domain", "fp:3", "--order", "lex"],
           ["--index", "2", "--digraph"]],
}
_SMALL_INPUTS = ["?", "@", "A_", "Bw", "&?", "&AO", "&B?o", ">>digraph6<<&AO", "0 0",
                 "1 0", "3 1\n0 1", "Bw\n&AO", "A_\n?"]


def test_no_command_ends_in_a_traceback(capsys):
    # every subcommand that reads an input, over tiny graphs, digraphs, pair
    # lists and mixed lines: each run ends in a documented exit code
    assert set(_VARIANTS) == set(cli.SUBCOMMANDS) - {"sweep", "reproduce-appendix"}
    for command, variants in _VARIANTS.items():
        for options in variants:
            for text in _SMALL_INPUTS:
                assert main([command, *options, text]) in (0, 1, 2, 3), \
                    (command, options, text)
                capsys.readouterr()


_HUGE_PRIMES = [str(2 ** 61 - 1), str(10 ** 400 + 1)]


@pytest.mark.parametrize("argv", [
    *([command, "?"] for command in ("params", "gamma", "mrcr", "zf", "classify", "trees")),
    ["gb", "--index", "1", "?"],
    ["gb", "--index", "-1", "Bw"],
    *(["gamma", "--domain", f"fp:{p}", "Bw"] for p in ("x", "1", "")),
    ["params", "--box", "-1", "Bw"],
    ["params", "&@"],
])
def test_an_edge_input_ends_in_an_exit_code_not_a_traceback(capsys, argv):
    assert main(argv) in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("p", _HUGE_PRIMES, ids=["2^61-1", "401 digits"])
def test_a_huge_field_prime_is_an_error_not_a_traceback_or_a_hang(p):
    # a prime past 2^31 would take trial division to sqrt(P), and one past
    # the float range broke it; a subprocess so that a hang fails the test
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "corank.cli", "gamma", "--domain",
                           f"fp:{p}", "Bw"], capture_output=True, text=True, env=env,
                          timeout=30)
    assert done.returncode == 1 and "Traceback" not in done.stderr
    assert done.stderr.startswith(f"error: domain 'fp:{p}'")


@pytest.mark.parametrize("graph", [cycle(300), path(300)], ids=["C300", "P300"])
def test_a_runaway_canonical_labeling_is_undecided(capsys, monkeypatch, graph):
    # at the real cap each takes seconds to stop; a lower cap stops the
    # same searches sooner
    monkeypatch.setattr(graphs, "LABELING_WORK_CAP", 2_000_000)
    assert main(["zf", write_graph6(graph)]) == 3
    assert capsys.readouterr().err.startswith("undecided: canonical labeling")


def test_a_large_star_labels_at_once(capsys):
    # its 40 leaves are one twin class, so the search places one of them per
    # level instead of trying all 40! orders
    assert main(["zf", write_graph6(star(40))]) == 0
    assert json.loads(capsys.readouterr().out)[0]["z"] == 39
