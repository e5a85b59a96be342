"""pacsqc benchmark: seeded request streams through the CLI and library.

    python3 benchmarks/run.py --workload {oracle-verify,closed-form-sweep,root-scan}
                              --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the package is imported from
`src/`, nothing is installed).  One workload runs per process, single
threaded, as a closed loop with one client: the next request starts when the
previous one returns.  Requests run in whole rounds (see workloads.py) until
`--seconds` of reference-speed request time has been measured.  Each
request's output is checked outside the timed region (gates.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs the same loop with
every layer function wrapped (tracing.py), prints the per-layer metrics, and
replays the executed requests untraced to report the tracing overhead.

End-to-end times are reference-speed times: the host's speed is sampled
around and during each timed request (around each set-up probe), and the
time is scaled by it (calibration.py).  Per-layer times are measured times.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  A run record (provenance, every request's argv and
latency, the metrics) is written to benchmarks/_work/.
"""

import os

# Pin native thread pools before numpy is imported, here and in every probe.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import gates  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
SCHEMA = "pacsqc.run-record/1"

SETUP_REPEATS = 9
SCIPY_PROBE_REPEATS = 3
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10

END_TO_END = {
    "items_per_s": "items/s",
    "request_ms_p50": "ms",
    "request_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Traced functions and the aggregates reported for each.
SPAN_FIELDS = {
    "fock_oracle.discord_numeric": ("calls", "self_s"),
    "fock_oracle.jacobi_eigh": ("calls", "self_s"),
    "fock_oracle.wootters_concurrence": ("self_s",),
    "fock_oracle.von_neumann_entropy": ("self_s",),
    "fock_oracle.partial_trace": ("calls", "self_s"),
    "fock_oracle.build_tripartite": ("calls", "self_s"),
    "fock_oracle.build_bell_pair": ("calls", "self_s"),
    "fock_oracle.coherent_vector": ("calls", "self_s"),
    "fock_oracle.add_photons": ("calls", "self_s"),
    "fock_oracle.verify": ("self_s",),
    "correlations.report": ("calls", "self_s"),
    "special.kappa": ("calls", "self_s"),
    "special.laguerre": ("calls", "self_s"),
    "special.binary_entropy": ("calls", "self_s"),
    "states.ModelParams": ("calls", "self_s"),
    "correlations.deficit": ("calls", "self_s"),
    "correlations.discord_12": ("calls", "self_s"),
    "correlations.violation_threshold": ("calls", "self_s"),
    "correlations.discord_12_peak": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
    "cli.run_sweep": ("self_s",),
}
FIELD_UNITS = {"calls": "count", "self_s": "s"}
XSTATE = ("states.bell_state", "states.ghz_rho12", "states.ghz_rho23", "states.ghz_split_1_23")
DERIVED_UNITS = {
    "fock_oracle.discord_numeric.ms_per_call": "ms",
    "fock_oracle.discord_numeric.wall_share": "ratio",
    "fock_oracle.nm_evals_per_call": "count",
    "fock_oracle.jacobi_eigh.calls_per_point": "count",
    "correlations.report.us_per_call": "us",
    "special.kappa.calls_per_point": "count",
    "states.xstate.calls": "count",
    "cli.csv_bytes": "bytes",
    "scipy.import_s": "s",
    "trace.overhead_ratio": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


def per_layer_units():
    units = {f"{name}.{f}": FIELD_UNITS[f] for name, fields in SPAN_FIELDS.items() for f in fields}
    units.update(DERIVED_UNITS)
    return units


@dataclass
class Outcome:
    request: workloads.Request
    seconds: float
    error: str = None
    output_bytes: int = 0
    scale: float = 1.0  # reference-speed seconds per measured second

    @property
    def reference_seconds(self):
        return self.seconds * self.scale


def count_failures(outcomes):
    """Failed requests: nonzero exit, exception or failed gate."""
    return sum(o.error is not None for o in outcomes)


def execute(request, package, tracer=None, speed=None):
    """Run one request; returns (seconds, result, stdout, error).  Only the
    call itself is timed.  A `calibration.SpeedProbe` given as `speed`
    samples the host's speed around and during the call; its in-call passes
    are taken out of the time."""
    if request.kind == "peak":
        fn, args = package.correlations.discord_12_peak, request.argv
    else:
        fn, args = package.cli.main, (request.argv,)
    stdout, stderr = io.StringIO(), io.StringIO()
    result = error = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), speed or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            result = tracer.span("bench.request", fn, *args) if tracer else fn(*args)
        except Exception as exc:  # a crashing request is a failed request, not a crashed benchmark
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if speed is not None:
        seconds -= speed.inside_s
    return seconds, result, stdout.getvalue(), error


class Run:
    """One workload run: set-up probes, warm-up, timed loop, gates, metrics."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        # per-process output paths, so runs sharing a checkout cannot collide
        self.out = str(WORK / f"out-{os.getpid()}.csv")
        self.setup_out = str(WORK / f"setup-{os.getpid()}.csv")
        self.references = gates.load_root_references() if workload == "root-scan" else None
        self.rng = random.Random(f"{workload}:{seed}:oracle-sample")
        self.samples = {}  # request kind -> [rows seen, (index, row)]
        self.outcomes = []
        self.package = None
        self.tail = None
        self.setup_probes = None

    def timed_probe(self):
        """Set-up time of one fresh interpreter, at reference speed: the
        speed is sampled around the probe here and inside it by the probe."""
        with calibration.SpeedProbe(sample_inside=False) as speed:
            seconds, stdout = self.probe(["--calibrate"])
        inside = json.loads(stdout.strip().splitlines()[-1])
        speed.passes.extend(inside["passes"])
        return (seconds - inside["inside_s"]) * speed.scale()

    def probe(self, extra=()):
        env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
        argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), *extra, "--",
                *workloads.setup_argv(self.workload, self.setup_out)]
        start = time.perf_counter()
        done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        seconds = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr.strip()[-500:]}")
        return seconds, done.stdout

    def scipy_import_seconds(self):
        return statistics.median(
            json.loads(self.probe(["--scipy-import"])[1].strip().splitlines()[-1])["scipy_import_s"]
            for _ in range(SCIPY_PROBE_REPEATS)
        )

    def _sampler(self, index, kind):
        # one uniformly chosen regular row per request kind (reservoir sampling)
        slot = self.samples.setdefault(kind, [0, None])

        def sample(alpha2, m, k, values):
            if alpha2 < gates.ORACLE_MIN_ALPHA2:
                return
            slot[0] += 1
            if self.rng.random() * slot[0] < 1.0:
                slot[1] = (index, alpha2, m, k, values)

        return sample

    def check(self, request, result, stdout, error, index):
        if error is not None:
            return error
        if request.kind == "peak":
            return gates.check_peak(request.expect, result, self.references)
        if request.kind == "threshold":
            return gates.check_threshold(request.expect, result, stdout, self.references)
        try:
            if request.kind == "verify":
                return gates.check_verify(request.expect, result, self.out)
            if result != 0:
                return f"exit status {result}"
            return gates.check_sweep(request.expect, self.out, self._sampler(index, request.kind))
        except OSError as exc:
            return f"output unreadable: {exc}"

    def run_one(self, request, tracer=None, calibrate=False):
        """Run, time and check one request; with `calibrate`, the host's
        speed is sampled around and during it (calibration.py)."""
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out)
        speed = calibration.SpeedProbe() if calibrate else None
        seconds, result, stdout, error = execute(request, self.package, tracer, speed)
        scale = speed.scale() if calibrate else 1.0
        size = os.path.getsize(self.out) if "--out" in request.argv and os.path.exists(self.out) else 0
        reason = self.check(request, result, stdout, error, len(self.outcomes))
        self.outcomes.append(Outcome(request, seconds, reason, size, scale))

    def loop(self, tracer=None, probes=None):
        """Whole rounds until `seconds` of request time is measured.  Set-up
        probes, when asked for, run one after each round, so they sample the
        machine at different moments of the run; any left over run at the
        end.  Untraced, every request and probe is calibrated, and the
        loop's length counts reference-speed seconds, so the number of
        rounds, and with it the order statistics, does not depend on the
        host's speed during the run."""
        busy = 0.0
        stream = workloads.rounds(self.workload, self.seed, self.out)
        setup = []
        while busy < self.seconds:
            for request in next(stream):
                self.run_one(request, tracer, calibrate=tracer is None)
                busy += self.outcomes[-1].reference_seconds
            if probes and len(setup) < probes:
                setup.append(self.timed_probe())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while probes and len(setup) < probes:
            setup.append(self.timed_probe())
        return busy, setup, peak_rss_mb

    def oracle_check(self):
        """Sampled sweep rows against the brute-force oracle."""
        for kind in sorted(self.samples):
            picked = self.samples[kind][1]
            if picked is None:
                continue
            index, alpha2, m, k, values = picked
            reason = gates.check_against_oracle(
                importlib.import_module("pacsqc.fock_oracle"), self.package.correlations, self.package.states,
                alpha2, m, k, values)
            if reason is not None and self.outcomes[index].error is None:
                self.outcomes[index].error = f"oracle check: {reason}"

    def load(self):
        """Import the program from src/ (the oracle stays a lazy import, as
        in the CLI)."""
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        self.package = importlib.import_module("pacsqc")
        for name in ("cli", "correlations", "states"):
            importlib.import_module(f"pacsqc.{name}")

    def measure(self):
        WORK.mkdir(exist_ok=True)
        if self.trace:
            scipy_import_s = self.scipy_import_seconds() if self.workload == "oracle-verify" else 0.0
        self.load()
        for request in workloads.warmup_requests(self.workload, self.out):
            self.run_one(request)
        warm = len(self.outcomes)
        if self.trace:
            tracer = Tracer()
            importlib.import_module("pacsqc.fock_oracle")
            tracer.install(self.package)
            try:
                busy = self.loop(tracer)[0]
            finally:
                tracer.uninstall()
            timed = self.outcomes[warm:]
            replay = sum(execute(o.request, self.package)[0] for o in timed)
            metrics = self.layer_metrics(tracer, busy, timed, scipy_import_s, busy / replay)
            tracer.write(WORK / f"spans-{self.workload}-seed{self.seed}.json")
        else:
            _, self.setup_probes, peak_rss_mb = self.loop(probes=SETUP_REPEATS)
            timed = self.outcomes[warm:]
            metrics = None
        if self.workload == "closed-form-sweep":
            self.oracle_check()
        if metrics is None:
            metrics = self.end_to_end(timed, statistics.median(self.setup_probes), peak_rss_mb)
        for path in (self.out, self.setup_out):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        return self.outcomes[:warm], timed, metrics

    def end_to_end(self, timed, setup_s, peak_rss_mb):
        latencies = sorted(o.reference_seconds for o in timed)
        n = len(latencies)
        tail_index = max(n - TAIL_BEYOND - 1, 0)
        self.tail = {"percentile": 100.0 * (tail_index + 1) / n, "samples": n, "beyond": n - tail_index - 1}
        values = {
            "items_per_s": sum(o.request.items for o in timed if o.error is None)
            / sum(o.reference_seconds for o in timed),
            "request_ms_p50": statistics.median(latencies) * 1e3,
            "request_ms_tail": latencies[tail_index] * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    def layer_metrics(self, tracer, busy, timed, scipy_import_s, overhead):
        calls, incl, self_time = tracer.calls, tracer.inclusive, tracer.self_time
        values = {}
        for name, fields in SPAN_FIELDS.items():
            if "calls" in fields:
                values[f"{name}.calls"] = calls[name]
            if "self_s" in fields:
                values[f"{name}.self_s"] = self_time[name]

        def ratio(a, b):
            return a / b if b else 0.0

        dn = "fock_oracle.discord_numeric"
        regular_reports = calls["correlations.report"] - tracer.under_anchor["correlations.w_limit_report"]
        values.update({
            f"{dn}.ms_per_call": ratio(incl[dn], calls[dn]) * 1e3,
            f"{dn}.wall_share": ratio(incl[dn], busy),
            "fock_oracle.nm_evals_per_call": ratio(tracer.nfev, calls[dn]),
            "fock_oracle.jacobi_eigh.calls_per_point": ratio(calls["fock_oracle.jacobi_eigh"],
                                                             calls["fock_oracle.verify"]),
            "correlations.report.us_per_call": ratio(incl["correlations.report"], calls["correlations.report"]) * 1e6,
            "special.kappa.calls_per_point": ratio(tracer.under_anchor["special.kappa"], regular_reports),
            "states.xstate.calls": sum(calls[name] for name in XSTATE),
            "cli.csv_bytes": sum(o.output_bytes for o in timed),
            "scipy.import_s": scipy_import_s,
            "trace.overhead_ratio": overhead,
            **{f"{layer}.self_s": tracer.layer_self_time(layer) for layer in LAYERS},
        })
        return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}


def pin_to_one_cpu():
    """Keep the loop, its calibration passes and the set-up probes (which
    inherit the mask) on one CPU, so the speed sampled is that of the CPU
    doing the work."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance(package):
    """Where and on what a record was made; the checkout may not be a git
    repository, so the sources are also identified by digest."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=10)
        commit = done.stdout.strip() if done.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "package_version": getattr(package, "__version__", None),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": THREAD_ENV,
    }


def _request_record(outcome):
    request = outcome.request
    call = "correlations.discord_12_peak" if request.kind == "peak" else "cli.main"
    return {"call": call, "argv": [str(a) for a in request.argv], "items": request.items,
            "ms": outcome.seconds * 1e3, "speed_scale": outcome.scale, "ok": outcome.error is None, "error": outcome.error}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="pacsqc benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pacsqc" / "__init__.py").is_file():
        print(f"benchmark: no pacsqc sources under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    run = Run(args.workload, args.seed, args.seconds, args.trace)
    warmup, timed, metrics = run.measure()
    failed = count_failures(warmup + timed)
    record = {
        "schema": SCHEMA,
        "provenance": provenance(run.package),
        "run": {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                "argv": sys.argv},
        "warmup": [_request_record(o) for o in warmup],
        "requests": [_request_record(o) for o in timed],
        "metrics": metrics,
    }
    if not args.trace:
        record["tail"] = run.tail
        record["setup_probes_s"] = run.setup_probes
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    for o in warmup + timed:
        if o.error is not None:
            print(f"FAILED {_request_record(o)['argv']}: {o.error}")
    if not args.trace:
        tail = run.tail
        print(f"request_ms_tail is p{tail['percentile']:.2f} of {tail['samples']} requests "
              f"({tail['beyond']} beyond it)")
    print(f"run record: {WORK / name}")
    result = {"correct": failed == 0, "attempted": len(warmup) + len(timed), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
