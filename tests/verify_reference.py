"""Frozen reference: the verify CSV writer of the CLI before it wrote rows
from the deviation matrix, kept as it was so tests can compare the bytes of
both routes.  Every point went through a `VerificationRecord` from
`pacsqc.fock_oracle.verify_points`; each value went through `fmt` (nan as
"nan", other values with 17 significant digits, m and k through str()), every
row through csv.writer, and a record failing `passes` gave one FAIL line from
`worst`, both under the --tolerance override when one was given.

`verify_csv(points, tolerance=None)` returns (the CSV bytes, the FAIL lines)
of that route for a list of `ModelParams`.
"""

import csv
import io

from csv_reference import fmt

from pacsqc.fock_oracle import FIELD_BOUNDS, verify_points


def verify_csv(points, tolerance=None):
    handle = io.StringIO(newline="")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["alpha2", "p", "m", "k"] + [f"dev_{name}" for name in FIELD_BOUNDS] + ["max_abs_deviation"])
    fails = []
    for record in verify_points(points):
        params = record.params
        if not record.passes(bound_override=tolerance):
            name, dev = record.worst(tolerance)
            fails.append(f"FAIL alpha2={params.alpha2:.6g} m={params.m} k={params.k}: {name} deviates by {dev:.3e}")
        writer.writerow(
            [fmt(params.alpha2), fmt(params.p), str(params.m), str(params.k)]
            + [fmt(value) for value in record.deviations.values()]
            + [fmt(record.max_abs_deviation)]
        )
    return handle.getvalue().encode("utf-8"), fails
