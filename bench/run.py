"""corank benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload gap-table --seed 1 --seconds 2 --trace 0

Each pass of the workload runs in a fresh interpreter (worker.py).  Passes
repeat until at least --seconds of passes and the workload's MIN_PASSES have
been measured; a started pass always completes, so gap-table and ideals
measure one whole pass.  The seed fixes the random vertex relabelings and
input orders: untraced pass k uses the seed's labeling k.  Seed 0 is the
identity labeling.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes at labeling 0 and prints the per-layer metrics.  The declared
times are at the reference speed of bench/probe.py.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  See bench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "corank"
WORK = ROOT / ".bench_work"

WORKLOADS = ("gap-table", "trees", "ideals", "gap-table-warm")
SETUP_SAMPLES = 5         # set-up-only processes top up the timed passes' samples
# Passes a run measures at least, whatever --seconds says.  A trees pass's
# time depends on its labeling, so a trees run averages thirty labelings.
MIN_PASSES = {"gap-table": 1, "trees": 30, "ideals": 1, "gap-table-warm": 1}
PASS_TIMEOUT_S = 170

# Counters that must repeat exactly between two traced passes at one seed.
EXACT_SUFFIXES = (".calls", ".points", ".hits", ".generators", ".basis_len")


def is_exact_counter(name):
    return name.endswith(EXACT_SUFFIXES) or ".closed_by." in name


def run_pass(workload, seed, trace=False, cache_dir=None, setup_only=False, labeling=0):
    """Run one pass (or one set-up) in a fresh interpreter; return its JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--labeling", str(labeling), "--trace", str(int(trace))]
    if cache_dir:
        cmd += ["--cache-dir", str(cache_dir)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} pass failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_hash():
    h = hashlib.sha256(sys.version.encode())
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def warm_cache_dir():
    """The decision-cache directory of one untimed cold gap-table pass.

    Filled once per source tree, at seed 0, and reused read-only: cache keys
    are canonical forms, so the fill serves every seed's relabeling.
    """
    target = WORK / f"warm-{source_hash()}"
    if not target.is_dir():
        tmp = Path(tempfile.mkdtemp(prefix="fill-", dir=WORK))
        res = run_pass("gap-table", 0, cache_dir=tmp)
        if res["failed"]:
            shutil.rmtree(tmp)
            raise SystemExit(f"cold fill for gap-table-warm failed: {res['errors']}")
        tmp.rename(target)
    return target


def tail_percentile(items_per_pass):
    """Highest whole percentile with at least ten of one pass's items beyond it."""
    return math.floor(100 * (items_per_pass - 10) / items_per_pass)


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def timed_pass(workload, seed, traced, warm=None, labeling=0):
    """One timed pass; gap-table starts from an empty cache directory."""
    scratch = None
    if workload == "gap-table":
        scratch = Path(tempfile.mkdtemp(prefix="cold-", dir=WORK))
    try:
        res = run_pass(workload, seed, traced, cache_dir=warm or scratch, labeling=labeling)
    finally:
        if scratch:
            shutil.rmtree(scratch)
    res["traced"] = traced
    return res


def run_workload(workload, seed, seconds, trace):
    WORK.mkdir(exist_ok=True)
    warm = warm_cache_dir() if workload == "gap-table-warm" else None
    passes = []
    measured = 0.0
    while (measured < seconds or len(passes) < (2 if trace else MIN_PASSES[workload])):
        # Untraced passes each take the seed's next labeling; traced runs
        # keep labeling 0, so that their passes' counters must repeat.
        labeling = 0 if trace else len(passes)
        res = timed_pass(workload, seed, trace and len(passes) % 2 == 1, warm, labeling)
        passes.append(res)
        measured += res["wall_s"]
    setups = [p["setup_ref_s"] for p in passes]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_pass(workload, seed, setup_only=True, cache_dir=warm,
                               labeling=len(setups))["setup_ref_s"])
    return passes, setups


def summarize(workload, passes, setups, trace):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    decisions = sum(p["decisions"] for p in passes)
    undecided = sum(p["undecided"] for p in passes)
    digests = {p["digest"] for p in passes}
    correct = failed == 0 and len(digests) == 1
    for p in passes:
        for err in p["errors"]:
            print(f"error: {err}")
        for item in p["failed_items"]:
            print(f"failed item: {item}")
    if len(digests) > 1:
        print(f"outputs differ between passes at one seed: {sorted(digests)}")
    # Printed with the declared metrics but not declared: the ratios read 0
    # on correct code, and the tail moved by 0.3-0.6 of its median between
    # seeds (bench/README.md).
    extra = {"failed_ratio": (failed / attempted, "ratio"),
             "undecided_ratio": (undecided / decisions, "ratio")}
    info = {"passes": len(passes), "items": attempted}

    if not trace:
        latencies = [x for p in plain for x in p["latencies"]]
        pct = tail_percentile(len(plain[0]["latencies"]))
        info["item_tail_percentile"] = pct
        extra["item_tail_ms"] = (1000 * percentile(latencies, pct), "ms")
        # Wall-clock figures, printed beside their declared reference-speed
        # versions (bench/probe.py): the host's speed swings too much for a
        # bound on them to hold.
        extra["items_per_s"] = (1 / _seconds_per_item(plain, "wall_s"), "1/s")
        extra["setup_wall_s"] = (statistics.median(p["setup_s"] for p in passes), "s")
        extra["probe_ms"] = (statistics.median(p["probe_ms"] for p in passes), "ms")
        metrics = {
            "items_per_ref_s": (1 / _seconds_per_item(plain), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (max(p["rss_mb"] for p in plain), "MB"),
        }
    else:
        layers = {}
        for name in traced[0]["layers"]:
            values = [p["layers"][name] for p in traced]
            layers[name] = values[0] if is_exact_counter(name) else statistics.fmean(values)
            if is_exact_counter(name) and len(set(values)) > 1:
                print(f"counter {name} differs between traced passes: {values}")
                correct = False
        layers["trace.overhead_ratio"] = _seconds_per_item(traced) / _seconds_per_item(plain)
        metrics = {name: (value, _unit(name)) for name, value in sorted(layers.items())}
        _print_shares(traced)
    print(f"{workload}: " + json.dumps(info))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:52s} {value:14.6g} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def _seconds_per_item(passes, time_key="ref_s"):
    """Seconds per item over all the passes, at the reference speed by default."""
    return sum(p[time_key] for p in passes) / sum(len(p["latencies"]) for p in passes)


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _print_shares(traced):
    """Self time per layer, and calls and time per (parent > layer) edge, as
    shares of the traced pass time, largest first."""
    total = sum(p["wall_s"] for p in traced)
    self_s, edges = {}, {}
    for p in traced:
        for name, value in p["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        for edge, (calls, value) in p["edges"].items():
            old = edges.get(edge, (0, 0.0))
            edges[edge] = (old[0] + calls, old[1] + value)
    print("layer self time, share of traced pass time:")
    for name, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {name:44s} {100 * value / total:6.1f} %")
    print(f"  {'(untraced: bench loop and glue code)':44s} "
          f"{100 * (1 - sum(self_s.values()) / total):6.1f} %")
    print("parent > layer: calls, inclusive share of traced pass time:")
    for edge, (calls, value) in sorted(edges.items(), key=lambda kv: -kv[1][1]):
        print(f"  {edge:60s} {calls:9d} {100 * value / total:6.1f} %")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        sys.exit(f"corank sources not found under {SRC.parent}; run from a checkout")
    passes, setups = run_workload(args.workload, args.seed, args.seconds, args.trace)
    result = summarize(args.workload, passes, setups, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
