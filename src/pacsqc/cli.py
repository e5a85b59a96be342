"""Command-line surface: parameter sweeps, figure data, oracle verification
runs and monogamy-threshold finding, all writing deterministic CSV.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 I/O error.
"""

import argparse
import functools
import math
import operator
import sys
from dataclasses import dataclass

from .correlations import QUANTITIES, report, violation_threshold
from .states import ModelParams
from .special import MAX_PHOTON_ORDER

__all__ = [
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_VERIFY",
    "EXIT_IO",
    "SweepSpec",
    "FIGURE_PRESETS",
    "figure_spec",
    "run_sweep",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3


class UsageError(ValueError):
    """Invalid command-line or sweep configuration."""


@dataclass
class SweepSpec:
    """Grid description for a sweep: axis (alpha2 or p), inclusive range,
    point count, parameter lists, requested quantities and output path."""

    axis: str
    start: float
    stop: float
    steps: int
    m_list: list
    k_list: list
    quantities: list
    output: str

    def __post_init__(self):
        if self.axis not in ("alpha2", "p"):
            raise UsageError(f"axis must be 'alpha2' or 'p', got {self.axis!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop) and self.start < self.stop):
            raise UsageError(f"need start < stop, got [{self.start}, {self.stop}]")
        if self.steps < 2:
            raise UsageError(f"steps must be at least 2, got {self.steps}")
        if self.axis == "p" and not (0.0 < self.start and self.stop <= 1.0):
            raise UsageError("p-axis sweeps must stay inside (0, 1]")
        if self.axis == "alpha2" and self.start < 0.0:
            raise UsageError("alpha2 must be non-negative")
        for m in self.m_list:
            if m != int(m) or not 0 <= int(m) <= MAX_PHOTON_ORDER:
                raise UsageError(f"invalid photon order {m!r}")
        for k in self.k_list:
            if k not in (0, 1):
                raise UsageError(f"invalid parity {k!r} (use 0 or 1)")
        # stored as ints, so the CSV prints m = 2.0 and k = True as 2 and 1
        self.m_list = [int(m) for m in self.m_list]
        self.k_list = [int(k) for k in self.k_list]
        unknown = [q for q in self.quantities if q not in QUANTITIES]
        if unknown:
            raise UsageError(f"unknown quantities {unknown}; choose from {', '.join(QUANTITIES)}")

    def axis_value(self, i):
        """Grid point i of the inclusive range, i = 0..steps-1."""
        value = self.start + i * (self.stop - self.start) / (self.steps - 1)
        # the last p can round above stop; past p = 1 alpha2 would turn
        # negative, so only there is it clamped (to stop = 1)
        return min(value, 1.0) if self.axis == "p" else value

    def axis_values(self):
        return [self.axis_value(i) for i in range(self.steps)]


# Figure id -> (quantity, parity); every preset sweeps m = 0..3 over
# |alpha|^2 in (0, 4] at 400 points per curve.
FIGURE_PRESETS = {
    "fig1": ("E12", 0),
    "fig2": ("E12", 1),
    "fig3": ("D12", 0),
    "fig4": ("D23", 0),
    "fig5": ("D12", 1),
    "fig6": ("D23", 1),
    "fig7": ("Delta123", 0),
    "fig8": ("Delta123", 1),
}


def figure_spec(figure_id, output):
    """SweepSpec reproducing the named figure's curves."""
    if figure_id not in FIGURE_PRESETS:
        raise UsageError(f"unknown figure {figure_id!r}; choose from {', '.join(sorted(FIGURE_PRESETS))}")
    quantity, k = FIGURE_PRESETS[figure_id]
    return SweepSpec("alpha2", 0.01, 4.0, 400, [0, 1, 2, 3], [k], [quantity], output)


def _fmt(value):
    if value is None:
        return "nan"
    value = float(value)
    if math.isnan(value):
        return "nan"
    return format(value, ".17g")


def _row_format(floats):
    """%-format of one CSV row: alpha2, p, m, k and ``floats`` more floats,
    byte for byte as `_fmt` and csv.writer write them ("%.17g" prints a nan
    as "nan", as `_fmt` does; "%s" prints m and k as str() does; no field
    needs quoting)."""
    return "%.17g,%.17g,%s,%s" + ",%.17g" * floats + "\n"


def run_sweep(spec):
    """Return (header, rows) for the sweep. rows is a lazy iterator of lists
    of field strings: each row is evaluated when it is drawn, sorted by
    (k, m, axis value), with all floats printed with 17 significant digits
    (a field with no value, a W-limit quantity, as nan). It is the
    `_sweep_lines` line of the row split at its commas."""
    return _sweep_header(spec), (line[:-1].split(",") for line in _sweep_lines(spec))


def _sweep_header(spec):
    return ["alpha2", "p", "m", "k"] + list(spec.quantities)


def _quantity_values(names):
    """Function of a report giving the tuple of its ``names`` fields
    (attrgetter of one name gives the bare value, of none it raises)."""
    if len(names) == 1:
        value = operator.attrgetter(names[0])
        return lambda rep: (value(rep),)
    return operator.attrgetter(*names) if names else lambda rep: ()


def _sweep_lines(spec):
    """One CSV line per sweep row, in run_sweep's order, each written by one
    `_row_format` %-format."""
    row = _row_format(len(spec.quantities))
    values = _quantity_values(spec.quantities)
    for k in sorted(set(spec.k_list)):
        for m in sorted(set(spec.m_list)):
            for i in range(spec.steps):
                value = spec.axis_value(i)
                if spec.axis == "alpha2":
                    alpha2, p = value, math.exp(-2.0 * value)
                else:
                    # abs() turns the -0.0 of p = 1 into 0.0 and leaves every other value as is
                    alpha2, p = abs(-0.5 * math.log(value)), value
                fields = values(report(ModelParams(alpha2, m, k)))
                if None in fields:
                    fields = tuple(math.nan if v is None else v for v in fields)
                yield row % (alpha2, p, m, k, *fields)


def _write_csv(path, header, lines):
    """Open path, then write the header and each line as lines yields it, so
    a lazy lines is evaluated only once the file is open and never held
    whole; a failure while lines are drawn leaves the file cut short."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(lines)


_PLOT_TEMPLATE = """# Plot helper generated alongside {csv_path}
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

series = defaultdict(list)
with open({csv_path!r}, newline="") as handle:
    for row in csv.DictReader(handle):
        series[(row["k"], row["m"])].append((float(row["alpha2"]), float(row[{quantity!r}])))

for (k, m), points in sorted(series.items()):
    points.sort()
    plt.plot([x for x, _ in points], [y for _, y in points], label=f"m={{m}}")
plt.xlabel("|alpha|^2")
plt.ylabel({quantity!r})
plt.legend()
plt.show()
"""


def _cmd_sweep(args):
    spec = SweepSpec(
        axis=args.axis,
        start=args.start,
        stop=args.stop,
        steps=args.steps,
        m_list=args.m,
        k_list=args.k,
        quantities=args.quantities,
        output=args.out,
    )
    _write_csv(spec.output, _sweep_header(spec), _sweep_lines(spec))
    return EXIT_OK


def _cmd_figure(args):
    spec = figure_spec(args.id, args.out)
    _write_csv(spec.output, _sweep_header(spec), _sweep_lines(spec))
    if args.plot_script:
        quantity = spec.quantities[0]
        with open(args.plot_script, "w", encoding="utf-8") as handle:
            handle.write(_PLOT_TEMPLATE.format(csv_path=spec.output, quantity=quantity))
    return EXIT_OK


def _cmd_verify(args):
    from . import fock_oracle

    tolerance = args.tolerance
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise UsageError(f"tolerance must be finite and non-negative, got {tolerance!r}")
    if args.nmax_override is not None and args.nmax_override < 0:
        raise UsageError(f"Fock cutoff nmax must be a non-negative integer, got {args.nmax_override}")
    points = fock_oracle.verification_grid(args.start, args.stop, args.steps, tuple(args.m), tuple(args.k))
    # before --out is opened: a point the oracle cannot build (no cat basis,
    # a degenerate parity, a cutoff too small) is a usage error
    vectors = fock_oracle._cat_vectors(points, args.nmax_override)
    header = ["alpha2", "p", "m", "k"] + [f"dev_{name}" for name in fock_oracle.FIELD_BOUNDS] + ["max_abs_deviation"]
    failed = []

    def check():
        # the deviation matrix and each row's largest deviation; a record is
        # built only for a failing row, whose FAIL line names its worst field
        deviations = fock_oracle._deviations(points, *vectors)
        passes, largest = fock_oracle._row_checks(deviations, tolerance)
        for i, ok in enumerate(passes.tolist()):
            if not ok:
                params = points[i]
                failed.append(params)
                name, dev = fock_oracle._records([params], deviations[i : i + 1])[0].worst(tolerance)
                print(
                    f"FAIL alpha2={params.alpha2:.6g} m={params.m} k={params.k}: {name} deviates by {dev:.3e}",
                    file=sys.stderr,
                )
        return deviations, largest

    def lines():
        # drawn once --out is open, so an unwritable path fails before the
        # spectra and the minimizer run
        deviations, largest = check()
        row = _row_format(len(fock_oracle.FIELD_BOUNDS) + 1)
        for params, values, value in zip(points, deviations.tolist(), largest.tolist()):
            yield row % (params.alpha2, params.p, params.m, params.k, *values, value)

    if args.out:
        _write_csv(args.out, header, lines())
    else:
        check()
    print(f"verified {len(points)} points: {'bound exceeded' if failed else 'all within bounds'}")
    return EXIT_VERIFY if failed else EXIT_OK


def _cmd_threshold(args):
    root = violation_threshold(args.m, args.k)
    if root is None:
        print(f"threshold m={args.m} k={args.k}: monogamous everywhere")
    else:
        print(
            f"threshold m={args.m} k={args.k}: alpha2* = {_fmt(root)} p* = {_fmt(math.exp(-2.0 * root))}"
        )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@functools.cache
def build_parser():
    """The `pacsqc` argument parser, built once per process: parsing leaves
    it unchanged, so every `main` call shares it."""
    parser = _Parser(
        prog="pacsqc",
        description=(
            "Quantum correlations (entanglement of formation, discord, monogamy deficit) "
            "in photon-added coherent-state superpositions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sweep = sub.add_parser("sweep", help="evaluate quantities over a parameter grid into CSV")
    sweep.add_argument("--axis", choices=("alpha2", "p"), default="alpha2")
    sweep.add_argument("--start", type=float, required=True)
    sweep.add_argument("--stop", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--m", type=int, nargs="+", default=[0], help="photon orders")
    sweep.add_argument("--k", type=int, nargs="+", default=[0], help="parities (0 even, 1 odd)")
    sweep.add_argument("--quantities", nargs="+", default=["D12"], metavar="NAME")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.set_defaults(func=_cmd_sweep)

    figure = sub.add_parser("figure", help="emit the data behind one of the preset figures")
    figure.add_argument("id", choices=sorted(FIGURE_PRESETS))
    figure.add_argument("--out", required=True, help="output CSV path")
    figure.add_argument("--plot-script", default=None, help="also write a plotting script here")
    figure.set_defaults(func=_cmd_figure)

    verify = sub.add_parser("verify", help="run the brute-force oracle against the closed forms")
    verify.add_argument("--out", default=None, help="per-point deviation CSV path")
    verify.add_argument("--nmax-override", type=int, default=None)
    verify.add_argument("--tolerance", type=float, default=None, help="override every per-field bound")
    verify.add_argument("--start", type=float, default=0.1)
    verify.add_argument("--stop", type=float, default=4.0)
    verify.add_argument("--steps", type=int, default=40)
    verify.add_argument("--m", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    verify.add_argument("--k", type=int, nargs="+", default=[0, 1])
    verify.set_defaults(func=_cmd_verify)

    threshold = sub.add_parser("threshold", help="locate the monogamy-violation boundary")
    threshold.add_argument("--m", type=int, required=True)
    threshold.add_argument("--k", type=int, default=1)
    threshold.set_defaults(func=_cmd_threshold)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"pacsqc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"pacsqc: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
