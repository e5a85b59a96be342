import csv
import math
import tracemalloc

import pytest

from pacsqc import cli
from pacsqc.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    FIGURE_PRESETS,
    SweepSpec,
    UsageError,
    build_parser,
    figure_spec,
    main,
    run_sweep,
)
from pacsqc.correlations import QUANTITIES, discord_12, report
from pacsqc.states import ModelParams


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class TestSweepSpec:
    def test_validation(self):
        good = dict(axis="alpha2", start=1.0, stop=2.0, steps=2, m_list=[0], k_list=[0], quantities=["D12"], output="x")
        SweepSpec(**good)
        for overrides in (
            dict(axis="beta"),
            dict(start=2.0, stop=1.0),
            dict(steps=1),
            dict(axis="p", start=0.0, stop=1.0),
            dict(axis="p", start=0.5, stop=1.5),
            dict(m_list=[70]),
            dict(k_list=[2]),
            dict(quantities=["bogus"]),
        ):
            with pytest.raises(UsageError):
                SweepSpec(**{**good, **overrides})

    def test_axis_values_inclusive(self):
        spec = SweepSpec("alpha2", 1.0, 2.0, 3, [0], [0], ["D12"], "x")
        assert spec.axis_values() == [1.0, 1.5, 2.0]


class TestSweepCommand:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--start", "1", "--stop", "2", "--steps", "2", "--m", "0", "--k", "0",
             "--quantities", "D12", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "alpha2,p,m,k,D12"
        assert len(lines) == 3

    def test_m0_collapse_in_output(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(
            ["sweep", "--start", "1", "--stop", "1.5", "--steps", "2", "--m", "0", "--k", "0",
             "--quantities", "D12", "D23", "--out", str(out)]
        )
        for row in read_rows(out):
            assert row["D12"] == row["D23"]

    def test_values_match_library(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(
            ["sweep", "--start", "0.5", "--stop", "2.5", "--steps", "5", "--m", "1", "2", "--k", "0", "1",
             "--quantities", "D12", "--out", str(out)]
        )
        rows = read_rows(out)
        assert len(rows) == 5 * 2 * 2
        for row in rows:
            params = ModelParams(float(row["alpha2"]), int(row["m"]), int(row["k"]))
            assert float(row["D12"]) == discord_12(params)

    def test_sorted_by_k_m_axis(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(
            ["sweep", "--start", "1", "--stop", "2", "--steps", "3", "--m", "2", "0", "--k", "1", "0",
             "--quantities", "S1", "--out", str(out)]
        )
        keys = [(int(r["k"]), int(r["m"]), float(r["alpha2"])) for r in read_rows(out)]
        assert keys == sorted(keys)

    def test_determinism(self, tmp_path):
        args = ["sweep", "--start", "0.1", "--stop", "3", "--steps", "7", "--m", "0", "3", "--k", "1",
                "--quantities", "D12", "Delta123", "--out"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        main(args + [str(first)])
        main(args + [str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(
            ["sweep", "--axis", "p", "--start", "0.1", "--stop", "0.9", "--steps", "4", "--m", "1", "--k", "0",
             "--quantities", "D12", "E12", "--out", str(out)]
        )
        for row in read_rows(out):
            alpha2 = float(row["alpha2"])
            assert alpha2 == pytest.approx(-0.5 * math.log(float(row["p"])), abs=1e-12)
            rep = report(ModelParams(alpha2, int(row["m"]), int(row["k"])))
            assert format(rep.D12, ".17g") == row["D12"]
            assert format(rep.E12, ".17g") == row["E12"]

    def test_p_axis_reaches_one(self, tmp_path):
        # the last grid value rounds above stop = 1 unless it is clamped
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--axis", "p", "--start", "0.289766", "--stop", "1.0", "--steps", "50", "--m", "6",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 50
        assert (rows[-1]["alpha2"], rows[-1]["p"]) == ("0", "1")
        assert all(float(row["p"]) <= 1.0 for row in rows)

    def test_unknown_quantity_exits_with_usage_error(self, tmp_path):
        code = main(
            ["sweep", "--start", "1", "--stop", "2", "--steps", "2", "--quantities", "nope",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == EXIT_USAGE

    def test_unwritable_path(self, tmp_path):
        code = main(
            ["sweep", "--start", "1", "--stop", "2", "--steps", "2", "--quantities", "D12",
             "--out", str(tmp_path / "missing" / "x.csv")]
        )
        assert code == EXIT_IO

    def test_unwritable_path_fails_before_evaluation(self, tmp_path, monkeypatch, capsys):
        calls = []

        def counting_report(params):
            calls.append(params)
            return report(params)

        monkeypatch.setattr(cli, "report", counting_report)
        for argv in (
            ["sweep", "--start", "1", "--stop", "2", "--steps", "100000", "--quantities", "D12"],
            ["figure", "fig3"],
        ):
            assert main(argv + ["--out", str(tmp_path / "missing" / "x.csv")]) == EXIT_IO
            assert "pacsqc: i/o error:" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize(
        "argv", [["sweep", "--start", "1", "--stop", "2", "--steps", "50", "--m", "0", "2"], ["figure", "fig5"]]
    )
    def test_failure_while_streaming_keeps_error_contract(self, tmp_path, monkeypatch, capsys, argv):
        # a failure at the Nth row exits as a usage error with the failure's
        # message; the rows drawn before it may already be in the file
        calls = []

        def failing_report(params):
            calls.append(params)
            if len(calls) == 60:
                raise ValueError("injected failure at row 60")
            return report(params)

        monkeypatch.setattr(cli, "report", failing_report)
        code = main(argv + ["--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "pacsqc: error: injected failure at row 60\n"
        assert len(calls) == 60


class TestStreamedOutput:
    def test_memory_does_not_hold_the_rows(self, tmp_path):
        # 5000 steps x 2 orders x 2 parities = 20 000 rows of 16 quantities;
        # held as a list they take ~30 MB of Python objects
        out = tmp_path / "sweep.csv"

        def sweep(steps):
            return main(["sweep", "--start", "0.01", "--stop", "6", "--steps", str(steps), "--m", "0", "3",
                         "--k", "0", "1", "--quantities", *QUANTITIES, "--out", str(out)])

        assert sweep(2) == EXIT_OK  # warm up imports and caches
        tracemalloc.start()
        try:
            code = sweep(5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 2 * 2**20, f"traced peak {peak / 2**20:.2f} MB"
        spec = SweepSpec("alpha2", 0.01, 6.0, 5000, [0, 3], [0, 1], list(QUANTITIES), str(out))
        header, rows = run_sweep(spec)
        with open(out, newline="", encoding="utf-8") as handle:
            written = list(csv.reader(handle))
        assert len(written) == 1 + 20_000
        assert written[0] == header
        assert list(rows) == written[1:]


class TestFigureCommand:
    def test_preset_bindings(self):
        assert FIGURE_PRESETS == {
            "fig1": ("E12", 0),
            "fig2": ("E12", 1),
            "fig3": ("D12", 0),
            "fig4": ("D23", 0),
            "fig5": ("D12", 1),
            "fig6": ("D23", 1),
            "fig7": ("Delta123", 0),
            "fig8": ("Delta123", 1),
        }
        spec = figure_spec("fig3", "out.csv")
        assert spec.quantities == ["D12"]
        assert spec.k_list == [0]
        assert spec.m_list == [0, 1, 2, 3]
        assert spec.steps == 400

    def test_fig1_output(self, tmp_path):
        out = tmp_path / "fig1.csv"
        script = tmp_path / "plot_fig1.py"
        code = main(["figure", "fig1", "--out", str(out), "--plot-script", str(script)])
        assert code == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 400 * 4
        assert set(r["k"] for r in rows) == {"0"}
        text = script.read_text(encoding="utf-8")
        assert str(out) in text and "E12" in text

    def test_fig8_shape(self, tmp_path):
        # the odd-parity deficit curves: m=0 dips negative at weak strength,
        # m=3 is monogamous over the whole preset range
        out = tmp_path / "fig8.csv"
        main(["figure", "fig8", "--out", str(out)])
        by_m = {m: [] for m in (0, 3)}
        for row in read_rows(out):
            if int(row["m"]) in by_m:
                by_m[int(row["m"])].append(float(row["Delta123"]))
        assert min(by_m[0]) < 0.0
        assert min(by_m[3]) >= -1e-9

    def test_unknown_figure(self, tmp_path):
        code = main(["figure", "fig9", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE


class TestVerifyCommand:
    def test_small_grid_passes(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = main(
            ["verify", "--start", "0.5", "--stop", "1.5", "--steps", "2", "--m", "0", "2", "--k", "1",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 2 * 2
        assert all(float(r["max_abs_deviation"]) <= 1e-3 for r in rows)

    def test_unattainable_tolerance_fails(self, tmp_path):
        code = main(
            ["verify", "--start", "1.0", "--stop", "2.0", "--steps", "2", "--m", "1", "--k", "0",
             "--tolerance", "1e-18", "--out", str(tmp_path / "verify.csv")]
        )
        assert code == EXIT_VERIFY

    @pytest.mark.parametrize("tolerance", ["5e-15", "0"])
    def test_fail_lines_name_the_deviation_over_tolerance(self, tmp_path, capsys, tolerance):
        # every field is held to the --tolerance bound, so the field a FAIL
        # line names is the row's largest deviation, beyond that bound
        out = tmp_path / "verify.csv"
        code = main(["verify", "--start", "0.5", "--stop", "3", "--steps", "6", "--m", "0", "1", "--k", "0", "1",
                     "--tolerance", tolerance, "--out", str(out)])
        fails = [line for line in capsys.readouterr().err.splitlines() if line.startswith("FAIL")]
        assert code == EXIT_VERIFY and fails
        rows = {f"alpha2={float(r['alpha2']):.6g} m={r['m']} k={r['k']}": r for r in read_rows(out)}
        for line in fails:
            point, rest = line[len("FAIL "):].split(": ")
            name = rest.split(" deviates by ")[0]
            row = rows[point]
            assert f"{abs(float(row['dev_' + name])):.3e}" == f"{float(row['max_abs_deviation']):.3e}"
            assert abs(float(row["dev_" + name])) > float(tolerance)

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1", "-1e-300"])
    def test_invalid_tolerance_is_usage_error(self, tmp_path, capsys, tolerance):
        out = tmp_path / "verify.csv"
        code = main(["verify", "--steps", "2", "--m", "1", "--k", "0", f"--tolerance={tolerance}", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "tolerance must be finite and non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_orders_and_parities_verified_once(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        code = main(["verify", "--steps", "2", "--m", "1", "1", "--k", "0", "0", "--out", str(out)])
        assert code == EXIT_OK
        assert "verified 2 points" in capsys.readouterr().out
        rows = [(r["alpha2"], r["m"], r["k"]) for r in read_rows(out)]
        assert rows == [("0.10000000000000001", "1", "0"), ("4", "1", "0")]

    def test_repeated_strengths_are_usage_error(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        code = main(["verify", "--start", "1", "--stop", "1", "--steps", "3", "--m", "0", "--k", "0", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "start=1.0" in err and "stop=1.0" in err and "steps=3" in err
        assert not out.exists()

    @pytest.mark.parametrize("start", ["0", "1e-20"])
    def test_strength_without_odd_cat_is_usage_error(self, tmp_path, capsys, start):
        # as alpha2 -> 0 the cat pair has no odd vector; the point is named
        # before --out is created
        out = tmp_path / "verify.csv"
        code = main(["verify", "--start", start, "--stop", "1", "--steps", "2", "--m", "0", "--k", "0", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"alpha2={float(start)!r} (m=0, k=0)" in err and "no odd vector" in err
        assert not out.exists()

    def test_degenerate_odd_point_is_usage_error_before_output(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        code = main(["verify", "--start", "1e-9", "--stop", "1", "--steps", "2", "--m", "0", "--k", "1", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "odd-parity state degenerates" in capsys.readouterr().err
        assert not out.exists()

    def test_determinism(self, tmp_path):
        args = ["verify", "--start", "0.2", "--stop", "2.0", "--steps", "3", "--m", "0", "3", "--k", "0", "1",
                "--out"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + [str(first)]) == EXIT_OK
        assert main(args + [str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_nmax_override(self, tmp_path):
        code = main(
            ["verify", "--start", "0.5", "--stop", "1.0", "--steps", "2", "--m", "0", "--k", "0",
             "--nmax-override", "40", "--out", str(tmp_path / "verify.csv")]
        )
        assert code == EXIT_OK

    def test_unwritable_path_fails_before_the_oracle(self, tmp_path, monkeypatch):
        from pacsqc import fock_oracle

        calls = []
        monkeypatch.setattr(fock_oracle, "verify_points", lambda *args, **kwargs: calls.append(args))
        assert main(["verify", "--out", str(tmp_path / "missing" / "x.csv")]) == EXIT_IO
        assert calls == []


    @pytest.mark.parametrize("nmax", ["-3", "-1"])
    def test_negative_nmax_is_precise_error(self, tmp_path, capsys, nmax):
        out = tmp_path / "verify.csv"
        code = main(
            ["verify", "--nmax-override", nmax, "--steps", "1", "--start", "1", "--stop", "1", "--m", "3",
             "--k", "0", "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert f"nmax must be a non-negative integer, got {nmax}" in capsys.readouterr().err
        assert not out.exists()


class TestThresholdCommand:
    def test_m0_odd(self, capsys):
        assert main(["threshold", "--m", "0", "--k", "1"]) == EXIT_OK
        line = capsys.readouterr().out.strip()
        assert line.startswith("threshold m=0 k=1: alpha2* = ")
        alpha2_star = float(line.split("alpha2* = ")[1].split()[0])
        p_star = float(line.split("p* = ")[1])
        assert alpha2_star == pytest.approx(0.1075, abs=0.002)
        assert p_star == pytest.approx(0.806, abs=0.004)

    def test_monogamous_cases(self, capsys):
        assert main(["threshold", "--m", "3", "--k", "0"]) == EXIT_OK
        assert "monogamous everywhere" in capsys.readouterr().out
        assert main(["threshold", "--m", "3", "--k", "1"]) == EXIT_OK
        assert "monogamous everywhere" in capsys.readouterr().out

    def test_even_parity_weak_window_reported(self, capsys):
        # the even family's narrow weak-strength violation is reported, not
        # suppressed
        assert main(["threshold", "--m", "0", "--k", "0"]) == EXIT_OK
        line = capsys.readouterr().out
        assert "alpha2* = " in line
        assert float(line.split("alpha2* = ")[1].split()[0]) == pytest.approx(0.0592, abs=2e-3)


class TestUsage:
    def test_missing_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_bad_flag_value(self):
        assert main(["sweep", "--start", "oops", "--stop", "2", "--steps", "2", "--out", "x.csv"]) == EXIT_USAGE

    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK


class TestParserReuse:
    """`main` builds its parser once per process and shares it."""

    def run(self, argv, capsys, tmp_path, fresh):
        if fresh:
            build_parser.cache_clear()
        out = tmp_path / "out.csv"
        if out.exists():
            out.unlink()
        code = main([str(out) if arg == "OUT" else arg for arg in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out.read_bytes() if out.exists() else None

    def test_consecutive_calls_match_fresh_calls(self, capsys, tmp_path):
        calls = [
            ["threshold", "--m", "0", "--k", "1"],
            ["sweep", "--start", "0.5", "--stop", "1.5", "--steps", "3", "--m", "0", "2", "--out", "OUT"],
            ["figure", "fig8", "--out", "OUT"],
            ["verify", "--start", "0.5", "--stop", "1.0", "--steps", "2", "--m", "1", "--k", "0", "--out", "OUT"],
            ["sweep", "--start", "oops", "--stop", "2", "--steps", "2", "--out", "OUT"],
            ["threshold", "--m", "3", "--k", "0"],
            ["verify", "--start", "1", "--stop", "1", "--steps", "2", "--out", "OUT"],
            ["sweep", "--axis", "p", "--start", "0.5", "--stop", "1", "--steps", "2", "--k", "1",
             "--quantities", "E12", "D23", "--out", "OUT"],
            [],
            ["threshold", "--m", "0", "--k", "1"],
        ]
        fresh = [self.run(argv, capsys, tmp_path, fresh=True) for argv in calls]
        shared = [self.run(argv, capsys, tmp_path, fresh=False) for argv in calls]
        assert shared == fresh
        assert [result[0] for result in shared] == [
            EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_USAGE, EXIT_OK
        ]
        assert build_parser() is build_parser()

    def test_list_defaults_not_mutated(self, tmp_path):
        assert main(["sweep", "--start", "1", "--stop", "2", "--steps", "2", "--out", str(tmp_path / "a.csv")]) == EXIT_OK
        assert main(["verify", "--steps", "2", "--out", str(tmp_path / "b.csv")]) == EXIT_OK
        assert main(["sweep", "--start", "1", "--stop", "2", "--steps", "2", "--m", "5", "6", "--k", "1",
                     "--quantities", "S1", "S2", "--out", str(tmp_path / "c.csv")]) == EXIT_OK
        sweep = build_parser().parse_args(["sweep", "--start", "1", "--stop", "2", "--steps", "2", "--out", "x"])
        verify = build_parser().parse_args(["verify"])
        assert (sweep.m, sweep.k, sweep.quantities) == ([0], [0], ["D12"])
        assert (verify.m, verify.k) == ([0, 1, 2, 3, 4], [0, 1])

