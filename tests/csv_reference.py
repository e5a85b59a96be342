"""Frozen reference: the sweep and figure CSV writer of the CLI before it
wrote each row with one %-format, kept as it was so tests can compare the
bytes of both routes.  Every value went through `fmt` (None and nan as
"nan", other values with 17 significant digits, m and k through str())
and every row through csv.writer.  It evaluates each row with
`pacsqc.correlations.report`, so the two routes differ only in how rows
are formatted and written.

`sweep_csv_bytes(spec)` returns the bytes of the file that route wrote
for a `pacsqc.cli.SweepSpec`.
"""

import csv
import io
import math

from pacsqc.correlations import report
from pacsqc.states import ModelParams


def fmt(value):
    if value is None:
        return "nan"
    value = float(value)
    if math.isnan(value):
        return "nan"
    return format(value, ".17g")


def sweep_rows(spec):
    for k in sorted(set(spec.k_list)):
        for m in sorted(set(spec.m_list)):
            for i in range(spec.steps):
                value = spec.axis_value(i)
                if spec.axis == "alpha2":
                    alpha2, p = value, math.exp(-2.0 * value)
                else:
                    alpha2, p = abs(-0.5 * math.log(value)), value
                rep = report(ModelParams(alpha2, m, k))
                row = [fmt(alpha2), fmt(p), str(m), str(k)]
                row += [fmt(getattr(rep, name)) for name in spec.quantities]
                yield row


def sweep_csv_bytes(spec):
    handle = io.StringIO(newline="")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["alpha2", "p", "m", "k"] + list(spec.quantities))
    writer.writerows(sweep_rows(spec))
    return handle.getvalue().encode("utf-8")
