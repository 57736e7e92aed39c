"""The speed probe: how fast the host runs pure-Python integer code now.

A shared VM can change speed by up to 2x within seconds (other tenants'
load), and corank's work is pure-Python integer arithmetic.  So every timed
stretch of a pass is bracketed by two probes, and its time is scaled to the
reference speed, at which one probe takes PROBE_REF_S seconds:

    ref_s = wall_s * PROBE_REF_S / mean(probe before, probe after)

The probe is a fixed fraction-free (Bareiss) elimination of a 7x7 integer
matrix, repeated; it calls nothing in corank, so a change to corank cannot
change it.  See bench/README.md, "Noise".
"""

import time

PROBE_REF_S = 0.0003    # one probe at the reference speed: a 2-vCPU Xeon VM at its fastest
PROBE_EVERY_S = 0.02    # probe again after this much item time

_ROWS = [[(7 * i + 3 * j) % 11 - 5 for j in range(7)] for i in range(7)]


def speed_probe():
    """Seconds one probe takes now."""
    perf = time.perf_counter
    t = perf()
    for _ in range(20):
        m = [row[:] for row in _ROWS]
        prev = 1
        for k in range(6):
            piv = m[k][k] or 1
            for i in range(k + 1, 7):
                for j in range(k + 1, 7):
                    m[i][j] = (m[i][j] * piv - m[i][k] * m[k][j]) // prev
            prev = piv
    return perf() - t


def to_reference(wall_s, probe_before, probe_after):
    """wall_s at the reference speed, from the probes around it."""
    return wall_s * 2 * PROBE_REF_S / (probe_before + probe_after)
