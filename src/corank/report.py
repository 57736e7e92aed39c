"""Per-graph parameter reports and their JSON/CSV/markdown renderings."""

import json
import time

from .classify import classify_digraph1, is_complete_graph
from .config import DEFAULT_CONFIG
from .criticalideals import gamma
from .formats import canonical_graph6
from .generators import path
from .graphs import Digraph, contains_induced, is_connected, is_tree
from .minrank import mr_small, mrcr_bounds
from .polyring import GF, QQ, ZZ
from .zeroforcing import zero_forcing_number


def parse_domain(text):
    text = text.lower()
    if text in ("z", "zz"):
        return ZZ
    if text in ("q", "r", "qq", "q=r"):
        return QQ
    if text.startswith("fp:"):
        p = text[3:]
        # P < 2^31 bounds the primality test by 46,341 trial divisions
        if not (p.isdecimal() and len(p) <= 10 and int(p) < 2 ** 31):
            raise ValueError(f"domain {text!r}: P must be a decimal prime below 2^31")
        return GF(int(p))
    raise ValueError(f"unknown domain {text!r}; use z, q or fp:P")


def build_parameter_report(g, config=DEFAULT_CONFIG, cache=None,
                           domains=(ZZ, QQ), include_timings=False):
    """One graph's full parameter record, deterministic for a fixed config.

    Wall-clock timings are omitted unless requested so that reports stay
    byte-identical across runs and parallelism widths.
    """
    t0 = time.monotonic()
    directed = isinstance(g, Digraph)
    zf = zero_forcing_number(g)
    report = {
        "graph_id": canonical_graph6(g),
        "directed": directed,
        "n": g.n,
        "m": g.m,
        "z": zf.z,
        "z_exact": zf.exact,
        "mz": g.n - zf.z,
        "zero_forcing_witness": zf.witness.to_json(),
        "gamma": {},
        "config": config.as_dict(),
    }
    gammas = [(dom, gamma(g, dom, config, cache)) for dom in domains]
    for _, res in gammas:
        report["gamma"][res.domain] = res.to_json()
    if not directed:
        bounds = {b.domain: b for b in (mrcr_bounds(g, dom, res, config)
                                        for dom, res in gammas if not dom.p)}
        mr = mr_small(g, config, cache, bounds.get(QQ.name))
        report["mr"] = {"exact": mr.exact, "lower": mr.lower, "upper": mr.upper,
                        "provenance": mr.provenance}
        report["mrcr"] = {name: b.to_json() for name, b in bounds.items()}
        flags = {"connected": is_connected(g), "tree": is_tree(g),
                 "complete": is_complete_graph(g)}
        if flags["connected"] and g.n >= 1:
            flags["p3_free"] = g.n < 3 or contains_induced(g, path(3)) is None
        report["flags"] = flags
    else:
        report["flags"] = {"connected": is_connected(g)}
        if g.n <= 6:
            rep = classify_digraph1(g, config, cache)
            report["classification"] = rep.to_json()
    report["timing_seconds"] = round(time.monotonic() - t0, 3) \
        if include_timings else None
    return report


def report_undecided(report) -> bool:
    return any(entry["status"] != "exact" for entry in report["gamma"].values())


# ---------------------------------------------------------------------------
# renderings

def render_json(reports):
    return json.dumps(reports, indent=2, sort_keys=True) + "\n"


_CSV_COLUMNS = ("graph_id", "n", "m", "z", "mz", "gamma_z", "gamma_q",
                "mr_lower", "mr_upper", "mrcr_z_lower", "mrcr_z_upper")


def _flat_row(r):
    gz = r["gamma"].get("Z", {})
    gq = r["gamma"].get("Q=R", {})
    mr = r.get("mr", {})
    mcz = r.get("mrcr", {}).get("Z", {})

    def val(d):
        return d.get("value") if d.get("value") is not None else \
            f"[{d.get('lower')},{d.get('upper')}]"

    return {
        "graph_id": r["graph_id"], "n": r["n"], "m": r["m"],
        "z": r["z"], "mz": r["mz"],
        "gamma_z": val(gz) if gz else "",
        "gamma_q": val(gq) if gq else "",
        "mr_lower": mr.get("lower", ""), "mr_upper": mr.get("upper", ""),
        "mrcr_z_lower": mcz.get("lower", ""), "mrcr_z_upper": mcz.get("upper", ""),
    }


def render_csv(reports):
    lines = [",".join(_CSV_COLUMNS)]
    for r in reports:
        row = _flat_row(r)
        lines.append(",".join(str(row[c]) for c in _CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def render_markdown(reports):
    head = "| " + " | ".join(_CSV_COLUMNS) + " |"
    sep = "|" + "|".join(["---"] * len(_CSV_COLUMNS)) + "|"
    lines = [head, sep]
    for r in reports:
        row = _flat_row(r)
        lines.append("| " + " | ".join(str(row[c]) for c in _CSV_COLUMNS) + " |")
    return "\n".join(lines) + "\n"


RENDERERS = {"json": render_json, "csv": render_csv, "md": render_markdown}
