"""Seeded request streams for the three workloads.

Each workload is an endless sequence of rounds.  A round always has the same
composition (request kinds, sizes and cost drivers such as the photon-order
band), and the seed only picks the concrete parameters inside it, so runs of
different seeds measure comparable work while the inputs differ.  The
benchmark runs whole rounds, so a run's mix does not depend on where the
clock stopped.

Requests are plain data: the program sees only the generated argv (or, for
the library peak finder, the (m, k) arguments).
"""

import random
from dataclasses import dataclass

from reference import FIGURE_GRID, FIGURE_PRESETS, QUANTITIES, axis_points

MAX_PHOTON_ORDER = 64
WORKLOADS = ("oracle-verify", "closed-form-sweep", "root-scan")

# Request sizes of one oracle-verify round, in grid points.  A 25-s run
# holds 4 rounds (56 requests).  The median then falls in the middle of the
# 16 requests of 8 points and the tail (11th largest) in the middle of the
# 12 of 16 points, so each order statistic is a median over many requests
# of one size rather than one request's latency or the edge between sizes.
VERIFY_SIZES = (1, 2, 3, 4, 6, 8, 8, 8, 8, 12, 16, 16, 16, 24)
# Sweep sizes in CSV rows: S requests are "hundreds", M thousands, and the
# XL request is the 10^5-point case, restricted to m <= 3 like the figures.
# S and M requests take one photon order from each band, so a request's cost
# follows its size rather than the seed, while the round covers m = 0..64.
SWEEP_S_ROWS = (100, 200, 300, 400, 500, 600, 700, 800)
SWEEP_M_ROWS, SWEEP_M_COUNT = 3000, 3
SWEEP_XL_ROWS = 100_000
SWEEP_XL_QUANTITIES = 2
M_BANDS = ((0, 15), (16, 31), (32, 47), (48, 64))
# Root-scan bands: two of eight draw m <= 2, where a sign change exists and
# the threshold finder bisects; the rest only scan.
ROOT_BANDS = ((0, 2), (0, 2), (3, 10), (11, 20), (21, 31), (32, 42), (43, 53), (54, 64))

# alpha2 stays inside [0.01, 4] (the figures' domain); p-axis sweeps cover
# p in [0.001, 1], i.e. alpha2 in [0, 3.45], and about half end at p = 1.
ALPHA2_LO, ALPHA2_HI = 0.01, 4.0
VERIFY_LO, VERIFY_HI = 0.1, 4.0
P_LO = 0.001


@dataclass
class Request:
    """One request: `argv` for `pacsqc.cli.main`, except for kind "peak",
    whose `argv` is (m, k) for `correlations.discord_12_peak`.  `items` is
    the work it completes; `expect` holds what the gate needs."""

    kind: str
    argv: list
    items: int
    expect: dict


def _shape(rng, points, m_max_count):
    """Seeded (steps, m count, k count) with steps * m * k == points."""
    shapes = [
        (points // (mc * kc), mc, kc)
        for mc in range(1, m_max_count + 1)
        for kc in (1, 2)
        if points % (mc * kc) == 0
    ]
    return rng.choice(shapes)


def _parities(rng, count):
    return [0, 1] if count == 2 else [rng.randint(0, 1)]


def _verify_request(rng, size, out):
    steps, mc, kc = _shape(rng, size, 5)
    m_values = sorted(rng.sample(range(5), mc))
    k_values = _parities(rng, kc)
    if steps == 1:
        start = stop = round(rng.uniform(VERIFY_LO, VERIFY_HI), 6)
    else:
        start = round(rng.uniform(VERIFY_LO, VERIFY_HI - 0.5), 6)
        stop = round(rng.uniform(start + 0.25, VERIFY_HI), 6)
    argv = ["verify", "--start", repr(start), "--stop", repr(stop), "--steps", str(steps),
            "--m", *map(str, m_values), "--k", *map(str, k_values), "--out", out]
    expect = {"start": start, "stop": stop, "steps": steps, "m": m_values, "k": k_values}
    return Request("verify", argv, size, expect)


def _sweep_request(rng, kind, rows, bands, quantity_count, axis, out, parities=None):
    """Sweep with one photon order drawn from each band; steps and parities
    split the remaining rows."""
    m_values = sorted({rng.randint(lo, hi) for lo, hi in bands})
    k_values = parities or _parities(rng, rng.choice([c for c in (1, 2) if rows % (len(m_values) * c) == 0]))
    steps = rows // (len(m_values) * len(k_values))
    quantities = rng.sample(QUANTITIES, quantity_count)
    if axis == "alpha2":
        start = round(rng.uniform(ALPHA2_LO, 2.0), 6)
        stop = round(rng.uniform(start + 0.5, ALPHA2_HI), 6)
    else:
        stop = 1.0 if rng.random() < 0.5 else round(rng.uniform(0.75, 1.0), 6)
        start = round(rng.uniform(P_LO, 0.5), 6)
        # The program's grid start + i * span / (steps - 1) can round its
        # last point above p = 1, which it then rejects as a negative
        # alpha2.  That edge-of-domain defect is left out of the data.
        while axis_points(axis, start, stop, steps)[-1][1] > 1.0:
            start = round(rng.uniform(P_LO, 0.5), 6)
    argv = ["sweep", "--axis", axis, "--start", repr(start), "--stop", repr(stop), "--steps", str(steps),
            "--m", *map(str, m_values), "--k", *map(str, k_values), "--quantities", *quantities, "--out", out]
    expect = {"axis": axis, "start": start, "stop": stop, "steps": steps, "m": m_values, "k": k_values,
              "quantities": quantities}
    return Request(kind, argv, steps * len(m_values) * len(k_values), expect)


def _figure_request(figure_id, out):
    quantity, k = FIGURE_PRESETS[figure_id]
    axis, start, stop, steps, m_values = FIGURE_GRID
    expect = {"axis": axis, "start": start, "stop": stop, "steps": steps, "m": list(m_values), "k": [k],
              "quantities": [quantity]}
    return Request("figure", ["figure", figure_id, "--out", out],
                   steps * len(m_values), expect)


def verify_round(rng, out):
    return [_verify_request(rng, size, out) for size in VERIFY_SIZES]


def sweep_round(rng, out):
    requests = [_figure_request(fig, out) for fig in FIGURE_PRESETS]
    axes = ["alpha2", "p"] * (len(SWEEP_S_ROWS) // 2)
    rng.shuffle(axes)
    for i, (rows, axis) in enumerate(zip(SWEEP_S_ROWS, axes)):
        # the first S request always includes m = MAX_PHOTON_ORDER
        bands = M_BANDS[:-1] + ((MAX_PHOTON_ORDER, MAX_PHOTON_ORDER),) if i == 0 else M_BANDS
        requests.append(_sweep_request(rng, "sweep-S", rows, bands, rng.randint(1, len(QUANTITIES)), axis, out))
    for _ in range(SWEEP_M_COUNT):
        requests.append(_sweep_request(rng, "sweep-M", SWEEP_M_ROWS, M_BANDS, rng.randint(1, len(QUANTITIES)),
                                       rng.choice(("alpha2", "p")), out))
    xl_bands = tuple((m, m) for m in range(4))
    requests.append(_sweep_request(rng, "sweep-XL", SWEEP_XL_ROWS, xl_bands, SWEEP_XL_QUANTITIES, "alpha2", out,
                                   parities=[0, 1]))
    rng.shuffle(requests)
    return requests


def root_round(rng, out):
    requests = []
    for band in ROOT_BANDS:
        m = rng.randint(*band)
        k = rng.randint(0, 1)
        requests.append(Request("threshold", ["threshold", "--m", str(m), "--k", str(k)], 1,
                                {"m": m, "k": k}))
        m = rng.randint(*band)
        k = rng.randint(0, 1)
        requests.append(Request("peak", [m, k], 1, {"m": m, "k": k}))
    rng.shuffle(requests)
    return requests


_ROUNDS = {"oracle-verify": verify_round, "closed-form-sweep": sweep_round, "root-scan": root_round}


def rounds(workload, seed, out):
    """Endless seeded sequence of rounds (lists of Request); `out` is the CSV
    path every request that writes output is pointed at."""
    rng = random.Random(f"{workload}:{seed}")
    make = _ROUNDS[workload]
    while True:
        yield make(rng, out)


def setup_argv(workload, out):
    """The workload's smallest request: one verify point, a 2-row sweep or
    one threshold."""
    if workload == "oracle-verify":
        return ["verify", "--start", "1.0", "--stop", "1.0", "--steps", "1", "--m", "0", "--k", "0", "--out", out]
    if workload == "closed-form-sweep":
        return ["sweep", "--start", "1.0", "--stop", "2.0", "--steps", "2", "--m", "0", "--k", "0",
                "--quantities", "D12", "--out", out]
    return ["threshold", "--m", "0", "--k", "1"]


def warmup_requests(workload, out):
    """Small requests run once before timing so lazy imports and first-call
    costs are paid outside the measurement (setup_s reports them)."""
    if workload == "root-scan":
        return [Request("threshold", setup_argv(workload, out), 1, {"m": 0, "k": 1}),
                Request("peak", [0, 0], 1, {"m": 0, "k": 0})]
    rng = random.Random(f"{workload}:warmup")
    if workload == "oracle-verify":
        return [_verify_request(rng, 1, out)]
    return [_figure_request("fig1", out),
            _sweep_request(rng, "sweep-S", 400, M_BANDS, len(QUANTITIES), "p", out)]

