"""Correctness gates, run on each request's output outside the timed region.

Every gate returns None when the output is correct and a one-line reason
when it is not; the benchmark counts any reason as a failed request.
"""

import csv
import json
import math
from pathlib import Path

from reference import (
    FIELD_BOUNDS,
    axis_points,
    closed_form_row,
    same_value,
    verify_points,
)

REFERENCES = Path(__file__).resolve().parent / "references" / "root_scan.json"
ROOT_TOLERANCE = 1e-6  # bisection stops at |d alpha2| <= 1e-6
PEAK_TOLERANCE = 1e-10  # golden-section stops at a bracket of 1e-10
# Below this strength the oracle's odd cat vector vanishes numerically, so
# rows sampled for the oracle check come from above it.
ORACLE_MIN_ALPHA2 = 1e-3


def load_root_references(path=REFERENCES):
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return {kind: {tuple(map(int, key.split(","))): value for key, value in table.items()}
            for kind, table in data["references"].items()}


def check_sweep(expect, path, sample=None):
    """Compare every CSV row with the frozen closed forms at <= 2 ulp.

    `sample`, when given, is called with each regular row as
    (alpha2, m, k, {quantity: value}) so the caller can pick rows for the
    oracle check without holding the file in memory.
    """
    quantities = expect["quantities"]
    points = axis_points(expect["axis"], expect["start"], expect["stop"], expect["steps"])
    expected_rows = ((alpha2, p, m, k) for k in sorted(set(expect["k"])) for m in sorted(set(expect["m"]))
                     for alpha2, p in points)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["alpha2", "p", "m", "k"] + quantities:
            return f"header {header} does not match the requested quantities"
        count = 0
        for row, want in zip(reader, expected_rows):
            count += 1
            alpha2, p, m, k = want
            if len(row) != 4 + len(quantities) or row[2:4] != [str(m), str(k)]:
                return f"row {count}: expected m={m} k={k} with {len(quantities)} values, got {row[:4]}"
            got = [float(cell) for cell in row[:2] + row[4:]]
            ref = closed_form_row(alpha2, m, k)
            wanted = [alpha2, p] + [math.nan if ref[q] is None else ref[q] for q in quantities]
            for name, g, w in zip(["alpha2", "p"] + quantities, got, wanted):
                if not same_value(g, w):
                    return f"row {count} (alpha2={alpha2!r} m={m} k={k}): {name} = {g!r}, reference {w!r}"
            if sample is not None and ref["S1"] is not None:
                sample(alpha2, m, k, dict(zip(quantities, got[2:])))
        if next(reader, None) is not None:
            return "more rows than the request asked for"
    total = expect["steps"] * len(set(expect["m"])) * len(set(expect["k"]))
    if count != total:
        return f"{count} rows, expected {total}"
    return None


def check_verify(expect, exit_code, path):
    """Exit status 0 and every deviation in the CSV within the frozen bounds,
    on exactly the requested grid."""
    if exit_code != 0:
        return f"exit status {exit_code}" + (" (FIELD_BOUNDS breach)" if exit_code == 2 else "")
    fields = list(FIELD_BOUNDS)
    points = verify_points(expect["start"], expect["stop"], expect["steps"], expect["m"], expect["k"])
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != ["alpha2", "p", "m", "k"] + [f"dev_{f}" for f in fields] + ["max_abs_deviation"]:
        return "unexpected deviation CSV header"
    if len(rows) - 1 != len(points):
        return f"{len(rows) - 1} rows, expected {len(points)}"
    for row, (alpha2, m, k) in zip(rows[1:], points):
        if float(row[0]) != alpha2 or row[2:4] != [str(m), str(k)]:
            return f"row {row[:4]} does not match grid point ({alpha2!r}, {m}, {k})"
        for name, cell in zip(fields, row[4:]):
            if not abs(float(cell)) <= FIELD_BOUNDS[name]:
                return f"alpha2={alpha2!r} m={m} k={k}: dev_{name} = {cell} exceeds {FIELD_BOUNDS[name]}"
    return None


def parse_threshold(stdout):
    """alpha2* from a `pacsqc threshold` line, or None for 'monogamous
    everywhere'."""
    line = stdout.strip()
    if line.endswith("monogamous everywhere"):
        return None
    return float(line.split("alpha2* = ")[1].split()[0])


def check_threshold(expect, exit_code, stdout, references):
    if exit_code != 0:
        return f"exit status {exit_code}"
    want = references["threshold"][(expect["m"], expect["k"])]
    try:
        got = parse_threshold(stdout)
    except (IndexError, ValueError):
        return f"unparsable output {stdout!r}"
    if (got is None) != (want is None):
        return f"answer {stdout.strip()!r}, reference {want!r}"
    if got is not None and not abs(got - want) <= ROOT_TOLERANCE:
        return f"root {got!r}, reference {want!r}"
    return None


def check_peak(expect, result, references):
    want_arg, want_max = references["peak"][(expect["m"], expect["k"])]
    got_arg, got_max = result
    if not (abs(got_arg - want_arg) <= PEAK_TOLERANCE and abs(got_max - want_max) <= PEAK_TOLERANCE):
        return f"peak ({got_arg!r}, {got_max!r}), reference ({want_arg!r}, {want_max!r})"
    return None


def check_against_oracle(fock_oracle, correlations, states, alpha2, m, k, values):
    """Closed-form CSV values at one row against the brute-force oracle,
    within the frozen FIELD_BOUNDS."""
    params = states.ModelParams(alpha2, m, k)
    record = fock_oracle.verify(params)
    closed = correlations.report(params).as_dict()
    for name, value in values.items():
        oracle = closed[name] - record.deviations[name]
        if not abs(value - oracle) <= FIELD_BOUNDS[name]:
            return f"alpha2={alpha2!r} m={m} k={k}: {name} = {value!r}, oracle {oracle!r}"
    return None
