import csv
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_mixed_close

import bernjac
import bernjac.bernstein_to_jacobi as b2j
import bernjac.cli as cli
import bernjac.degree_reduction as dred
import bernjac.jacobi_to_bernstein as j2b
from bernjac.bases import TransformParams
from bernjac.bernstein_to_jacobi import d_oracle
from bernjac.cli import BENCH_METHODS, main, matrix_csv, run_benchmark, run_checks
from bernjac.jacobi_to_bernstein import c_oracle

# what main prints for an OverflowError escaping the library
OVERFLOW_ERROR = "error: arithmetic overflows a double: "
# and for a ZeroDivisionError
ZERO_DIVISION_ERROR = "error: arithmetic divides by zero: "
# alpha = -1 + 2^-52: a + n absorbs the 2^-52, so a factor of d's z rounds to 0
NEAR_MINUS_ONE = "-0.9999999999999998"
# and c_oracle's closed form takes C(2, 3) at n >= 3
CLOSED_FORM_UNDEFINED = f"error: c_oracle: closed form undefined at alpha={NEAR_MINUS_ONE}, beta=0.0\n"


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def reject_constant(token):
    """``parse_constant`` hook: NaN and Infinity are not JSON."""
    raise ValueError(f"non-standard JSON constant {token}")


def nan_builder(real):
    """A builder that returns ``real``'s matrix with every entry NaN."""
    def build(p):
        m = real(p)
        return dataclasses.replace(m, values=np.full_like(m.values, np.nan))
    return build


class TestMatrixCommand:
    def test_c_matrix_values(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["matrix", "c", "-n", "4", "-k", "1", "-l", "1",
                   "--alpha", "0", "--beta", "0", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["i\\h", "1", "2", "3"]
        assert [r[0] for r in rows[1:]] == ["2", "3", "4"]
        got = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        ref = c_oracle(TransformParams(4, 1, 1)).values
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

    def test_d_single_cell(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = main(["matrix", "d", "-n", "2", "-k", "1", "-l", "1", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["h\\i", "2"]
        assert float(rows[1][1]) == 2.0

    @pytest.mark.parametrize("direction", ["c", "d"])
    def test_writes_production_route(self, tmp_path, direction):
        build = {"c": bernjac.jacobi_to_bernstein_matrix, "d": bernjac.bernstein_to_jacobi_matrix}[direction]
        out = tmp_path / "m.csv"
        assert main(["matrix", direction, "-n", "7", "-k", "1", "-l", "2",
                     "--alpha", "0.5", "--beta", "-0.5", "--out", str(out)]) == 0
        buf = io.StringIO()
        matrix_csv(build(TransformParams(7, 1, 2, 0.5, -0.5)), buf)
        assert out.read_text() == buf.getvalue()

    def test_invalid_params_exit_2_no_file(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        rc = main(["matrix", "c", "-n", "2", "-k", "2", "-l", "2", "--out", str(out)])
        assert rc == 2
        assert "k + l" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_round_trips_exactly(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["matrix", "c", "-n", "5", "-k", "0", "-l", "2",
              "--alpha", "0.5", "--beta", "-0.5", "--out", str(out)])
        got = np.array([[float(v) for v in r[1:]] for r in read_csv(out)[1:]])
        ref = bernjac.jacobi_to_bernstein_matrix(TransformParams(5, 0, 2, 0.5, -0.5)).values
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("direction", ["c", "d"])
    def test_writes_labelled_csv(self, tmp_path, direction):
        out = tmp_path / "m.csv"
        assert main(["matrix", direction, "-n", "9", "-k", "1", "-l", "2",
                     "--alpha", "0.5", "--beta", "-0.5", "--out", str(out)]) == 0
        rows = read_csv(out)
        i_labels, h_labels = [str(i) for i in range(3, 10)], [str(h) for h in range(1, 8)]
        p = TransformParams(9, 1, 2, 0.5, -0.5)
        if direction == "c":
            corner, row_labels, col_labels, ref = "i\\h", i_labels, h_labels, c_oracle(p).values
        else:
            corner, row_labels, col_labels, ref = "h\\i", h_labels, i_labels, d_oracle(p).values
        assert rows[0] == [corner] + col_labels
        assert [r[0] for r in rows[1:]] == row_labels
        got = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        assert_mixed_close(got, ref, label=direction)

    def test_non_finite_matrix_exit_2_no_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(j2b, "c_theorem2", nan_builder(j2b.c_theorem2))
        out = tmp_path / "never.csv"
        assert main(["matrix", "c", "-n", "6", "-k", "1", "-l", "1", "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_binomial_past_double_range_exit_2_no_file(self, tmp_path, capsys):
        # C(2100, 1050) does not fit a double
        out = tmp_path / "never.csv"
        assert main(["matrix", "c", "-n", "2100", "-k", "1050", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(OVERFLOW_ERROR)
        assert not out.exists()

    def test_zero_division_near_minus_one_exit_2_no_file(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert main(["matrix", "d", "-n", "4", f"--alpha={NEAR_MINUS_ONE}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(ZERO_DIVISION_ERROR) and "Traceback" not in err
        assert not out.exists()

    def test_write_failing_after_header_exit_2_no_file(self, tmp_path, monkeypatch, capsys):
        class FullAfterHeader:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, text):
                if self.writes:
                    raise OSError(28, "No space left on device")
                self.writes += 1
                return self.fh.write(text)

        real = cli.matrix_csv
        monkeypatch.setattr(cli, "matrix_csv", lambda mat, fh: real(mat, FullAfterHeader(fh)))
        out = tmp_path / "never.csv"
        assert main(["matrix", "d", "-n", "6", "-k", "1", "-l", "1", "--out", str(out)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # neither --out nor a .bernjac-* temp file

    @pytest.mark.parametrize("direction", ["c", "d"])
    def test_peak_memory_stays_near_one_matrix(self, tmp_path, direction):
        n, k, l = 400, 1, 1
        argv = ["matrix", direction, "-n", str(n), "-k", str(k), "-l", str(l), "--out", str(tmp_path / "m.csv")]
        assert main(argv) == 0  # warm-up: parser and lazily built state
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix_bytes = (n - k - l + 1) ** 2 * 8
        assert peak < 4 * matrix_bytes, f"peak {peak / matrix_bytes:.2f}x the matrix"


class TestReduceCommand:
    def write_curve(self, tmp_path, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[0] == 1:
            pts = pts.T
        f = tmp_path / "curve.json"
        f.write_text(json.dumps({
            "degree": pts.shape[0] - 1,
            "dimension": pts.shape[1],
            "control_points": pts.tolist(),
        }))
        return f

    def test_golden_example(self, tmp_path, capsys):
        src = self.write_curve(tmp_path, [0.0, 1.0, 0.0])
        out = tmp_path / "res.json"
        rc = main(["reduce", "--in", str(src), "-m", "1", "-k", "1", "-l", "1",
                   "--out", str(out)])
        assert rc == 0
        printed = float(capsys.readouterr().out.strip())
        payload = json.loads(out.read_text())
        assert printed == pytest.approx(math.sqrt(2.0 / 15.0), rel=1e-12)
        assert payload["l2_error"] == printed
        assert payload["reduced"]["control_points"] == [[0.0], [0.0]]
        assert payload["discarded"]["first_index"] == 2
        assert payload["discarded"]["coefficients"] == [[2.0]]

    def test_same_degree_round_trip(self, tmp_path):
        src = self.write_curve(tmp_path, [[0.0, 1.0], [2.0, -1.0], [0.5, 3.0]])
        out = tmp_path / "res.json"
        rc = main(["reduce", "--in", str(src), "-m", "2", "-k", "1", "-l", "1",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        got = np.array(payload["reduced"]["control_points"])
        np.testing.assert_allclose(got, [[0.0, 1.0], [2.0, -1.0], [0.5, 3.0]], atol=1e-12)
        assert payload["l2_error"] == 0.0

    def test_missing_input(self, tmp_path):
        rc = main(["reduce", "--in", str(tmp_path / "nope.json"), "-m", "1",
                   "--out", str(tmp_path / "res.json")])
        assert rc == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["reduce", "--in", str(bad), "-m", "1", "--out", str(tmp_path / "r.json")])
        assert rc == 2

    def test_deeply_nested_json_exit_2_no_file(self, tmp_path, capsys):
        # json's decoder raises RecursionError past the interpreter's depth limit
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        out = tmp_path / "never.json"
        assert main(["reduce", "--in", str(deep), "-m", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_non_finite_result_exit_2_no_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(dred, "d_theorem4", nan_builder(dred.d_theorem4))
        src = self.write_curve(tmp_path, [0.0, 1.0, 0.0, 2.0, 1.0])
        out = tmp_path / "never.json"
        assert main(["reduce", "--in", str(src), "-m", "2", "-k", "1", "-l", "1",
                     "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["c_theorem2", "bernstein_gram"])
    def test_substituted_weight_builder_after_warm_call(self, tmp_path, monkeypatch, capsys, name):
        # the warm call memoizes the real builders' Parseval weights; the NaN
        # builder only touches the source space, so only the error turns NaN
        src = self.write_curve(tmp_path, [0.0, 1.0, 0.0, 2.0, 1.0])
        args = ["reduce", "--in", str(src), "-m", "2", "-k", "1", "-l", "1", "--out"]
        assert main(args + [str(tmp_path / "warm.json")]) == 0
        real = getattr(dred, name)
        nan = nan_builder(real) if name == "c_theorem2" else (lambda p: np.full_like(real(p), np.nan))
        monkeypatch.setattr(dred, name, lambda p: nan(p) if p.n == 4 else real(p))
        out = tmp_path / "never.json"
        assert main(args + [str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_weight_exit_2_no_file(self, tmp_path, capsys):
        # the Gram matrix's log-gamma overflows at alpha = 1e308
        src = self.write_curve(tmp_path, [0.0, 1.0, 2.0, 3.0])
        out = tmp_path / "never.json"
        assert main(["reduce", "--in", str(src), "-m", "2", "--alpha", "1e308", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(OVERFLOW_ERROR)
        assert not out.exists()

    def test_zero_division_near_minus_one_exit_2_no_file(self, tmp_path, capsys):
        src = self.write_curve(tmp_path, [0.0, 1.0, 0.0, 2.0, 1.0])
        out = tmp_path / "never.json"
        assert main(["reduce", "--in", str(src), "-m", "0", f"--alpha={NEAR_MINUS_ONE}",
                     f"--beta={NEAR_MINUS_ONE}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(ZERO_DIVISION_ERROR) and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("pts", [[0.0, float("nan"), 1.0], [0.0, float("inf"), 1.0]])
    def test_non_finite_control_points_rejected(self, tmp_path, pts):
        src = self.write_curve(tmp_path, pts)
        out = tmp_path / "never.json"
        assert main(["reduce", "--in", str(src), "-m", "1", "--out", str(out)]) == 2
        assert not out.exists()

    def test_infeasible_target(self, tmp_path):
        src = self.write_curve(tmp_path, [0.0, 1.0, 0.0, 2.0])
        rc = main(["reduce", "--in", str(src), "-m", "1", "-k", "2", "-l", "1",
                   "--out", str(tmp_path / "r.json")])
        assert rc == 2


class TestBenchCommand:
    def test_single_n_single_rep(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--n-list", "6", "--reps", "1", "-k", "1", "-l", "1",
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["kind", "method", "n", "k", "l", "alpha", "beta",
                           "repetitions", "total_seconds", "slope"]
        timing = [r for r in rows[1:] if r[0] == "timing"]
        assert [r[1] for r in timing] == list(BENCH_METHODS)
        assert all(r[9] == "" for r in timing)  # slope column empty
        assert all(float(r[8]) > 0.0 for r in timing)
        assert not any(r[0] == "slope" for r in rows[1:])

    @pytest.mark.parametrize("n_list", ["5,5", "5,6,5", "0,1,2,3,4"])
    def test_bad_degree_list_rejected(self, tmp_path, capsys, n_list):
        out = tmp_path / "x.csv"
        rc = main(["bench", "--n-list", n_list, "--out", str(out)])
        assert rc == 2
        assert "distinct degrees >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_weight_exit_2_no_file(self, tmp_path, capsys):
        # the closed-form routes' log-gamma overflows at alpha = 1e308
        out = tmp_path / "never.csv"
        assert main(["bench", "--n-list", "3", "--alpha", "1e308", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(OVERFLOW_ERROR)
        assert not out.exists()

    def test_closed_form_undefined_near_minus_one_exit_2_no_file(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert main(["bench", "--n-list", "2,3", f"--alpha={NEAR_MINUS_ONE}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == CLOSED_FORM_UNDEFINED
        assert not out.exists()

    def test_zero_reps_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["bench", "--n-list", "3", "--reps", "0", "--out", str(out)]) == 2
        assert "benchmark repetitions must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("reps", [1.5, True], ids=repr)
    def test_non_count_reps_rejected(self, reps):
        # a repetition count is an int: neither a fraction nor a bool is one
        with pytest.raises(ValueError, match="benchmark repetitions must be >= 1"):
            run_benchmark([5], reps=reps)

    def test_run_benchmark_slopes_need_five_degrees(self):
        _, slopes = run_benchmark([5, 6, 7, 8], reps=1)
        assert slopes == {}
        _, slopes = run_benchmark([5, 6, 7, 8, 9], reps=1)
        assert list(slopes) == list(BENCH_METHODS)

    def test_columns_echo_the_flags(self, tmp_path, capsys, monkeypatch):
        ticks = itertools.count()
        monkeypatch.setattr(cli, "perf_counter", lambda: next(ticks) * 1e-3)  # 1 ms per call
        out = tmp_path / "bench.csv"
        assert main(["bench", "--n-list", "3,4,5,6,7", "-k", "1", "-l", "0", "--alpha=0.5",
                     "--beta=-0.25", "--reps", "2", "--out", str(out)]) == 0
        rows = read_csv(out)
        degrees = ["3", "4", "5", "6", "7"]
        timing, slope = rows[1:31], rows[31:]
        assert [r[:3] for r in timing] == [["timing", m, n] for m in BENCH_METHODS for n in degrees]
        assert all(r[3:8] == ["1", "0", "0.5", "-0.25", "2"] and r[9] == "" for r in timing)
        assert all(float(r[8]) == pytest.approx(2e-3) for r in timing)  # two 1 ms builds
        assert [r[:9] for r in slope] == [["slope", m, "", "", "", "", "", "", ""] for m in BENCH_METHODS]
        printed = capsys.readouterr().out.splitlines()
        assert printed == [f"{r[1]} slope {float(r[9]):.3f}" for r in slope]


class TestCheckCommand:
    def test_passing_params(self, capsys):
        rc = main(["check", "-n", "10", "-k", "1", "-l", "1", "--alpha", "0", "--beta", "0"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        names = {ch["name"] for ch in report["checks"]}
        assert names == {"cross_c", "cross_d", "round_trip", "proposition_bridge",
                         "orthogonality"}

    def test_dimension_one_space(self, capsys):
        rc = main(["check", "-n", "2", "-k", "1", "-l", "1", "--alpha", "3.7",
                   "--beta", "-0.9"])
        assert rc == 0

    @pytest.mark.parametrize("n,k,l", [(0, 0, 0), (2, 1, 1), (5, 2, 3)])
    def test_dimension_one_reports_no_deviation(self, n, k, l):
        # no off-diagonal Gram entry: the diagonal is not an orthogonality deviation
        report = run_checks(TransformParams(n, k, l))
        ortho = {ch["name"]: ch for ch in report["checks"]}["orthogonality"]
        assert ortho["max_deviation"] == 0.0
        for ch in report["checks"]:
            if ch["passed"]:
                assert ch["max_deviation"] <= ch["tolerance"]

    def test_constant_space_with_weight_sum_below_minus_one(self, capsys):
        assert main(["check", "-n", "0", "--alpha=-0.5", "--beta=-0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_invalid_params(self, capsys):
        assert main(["check", "-n", "1", "-k", "2", "-l", "2"]) == 2

    def test_closed_form_undefined_near_minus_one(self, capsys):
        assert main(["check", "-n", "4", f"--alpha={NEAR_MINUS_ONE}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == CLOSED_FORM_UNDEFINED and captured.out == ""

    def test_corrupted_builder_fails(self, monkeypatch, capsys):
        real = j2b.c_theorem2

        def corrupted(p):
            m = real(p)
            values = m.values.copy()
            values[-1, 0] += 1e-3 * (1.0 + abs(values[-1, 0]))
            return dataclasses.replace(m, values=values)

        monkeypatch.setattr(j2b, "c_theorem2", corrupted)
        rc = main(["check", "-n", "8", "-k", "1", "-l", "0"])
        assert rc == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["passed"] is False
        assert "check failed" in captured.err
        failed = [ch for ch in report["checks"] if not ch["passed"]]
        assert any(ch["name"] == "cross_c" for ch in failed)
        # values[-1, 0] is the entry (i, h) = (n, k)
        worst = {ch["name"]: ch["worst"] for ch in report["checks"]}["cross_c"]
        assert (worst["i"], worst["h"]) == (8, 1)
        assert "thm2" in worst["pair"]

    def test_corrupted_d_builder_fails(self, monkeypatch, capsys):
        real = b2j.d_theorem4

        def corrupted(p):
            m = real(p)
            values = m.values.copy()
            values[-1, 0] += 1e-3 * (1.0 + abs(values[-1, 0]))
            return dataclasses.replace(m, values=values)

        monkeypatch.setattr(b2j, "d_theorem4", corrupted)
        assert main(["check", "-n", "8", "-k", "1", "-l", "0"]) == 1
        report = json.loads(capsys.readouterr().out)
        checks = {ch["name"]: ch for ch in report["checks"]}
        assert checks["cross_d"]["passed"] is False
        # values[-1, 0] is the entry (h, i) = (n - l, k + l)
        worst = checks["cross_d"]["worst"]
        assert (worst["h"], worst["i"]) == (8, 1)
        assert "thm4" in worst["pair"]

    def test_nan_builder_fails_with_complete_report(self, monkeypatch, capsys):
        monkeypatch.setattr(j2b, "c_theorem2", nan_builder(j2b.c_theorem2))
        rc = main(["check", "-n", "6", "-k", "1", "-l", "1"])
        assert rc == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out, parse_constant=reject_constant)
        assert report["passed"] is False
        checks = {ch["name"]: ch for ch in report["checks"]}
        assert set(checks) == {"cross_c", "cross_d", "round_trip", "proposition_bridge",
                               "orthogonality"}
        for ch in checks.values():
            assert set(ch) == {"name", "passed", "max_deviation", "tolerance", "worst"}
        for name in ("cross_c", "round_trip", "proposition_bridge", "orthogonality"):
            assert checks[name]["passed"] is False
            assert checks[name]["max_deviation"] is None
        assert checks["cross_d"]["passed"] is True
        assert "pair" in checks["cross_c"]["worst"]
        assert "check failed: cross_c" in captured.err

    def test_overflow_past_weight_envelope_reports_without_warnings(self, capsys):
        # the routes overflow to inf and nan here; the report says so, numpy does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "-n", "12", "--beta", "1e200"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err
        assert all(line.startswith("check failed:") for line in err)

    def test_overflowing_weight_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # c_oracle's log-gamma overflows at beta = 1e308
        monkeypatch.chdir(tmp_path)
        assert main(["check", "-n", "3", "--beta", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(OVERFLOW_ERROR)
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--alpha=nan", "--beta=inf", "--alpha=-inf"])
    def test_non_finite_weight_is_usage_error(self, flag, capsys):
        assert main(["check", "-n", "5", flag]) == 2
        assert "finite" in capsys.readouterr().err


def test_parser_reuse_keeps_no_state(tmp_path, capsys):
    # the parser is built once per process; no value of one call may leak into the next
    out = tmp_path / "d.csv"
    assert main(["matrix", "d", "-n", "6", "-k", "2", "-l", "1", "--alpha", "3", "--beta", "1",
                 "--out", str(out)]) == 0
    assert main(["check", "-n", "6"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["params"] == {"n": 6, "k": 0, "l": 0, "alpha": 0.0, "beta": 0.0}
    assert main(["matrix", "c", "-n", "6", "-k", "nope", "--out", str(out)]) == 2
    assert main(["check", "-n", "6"]) == 0


def test_no_command_is_usage_error():
    assert main([]) == 2


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("command", [
    ["matrix", "c", "-n", "5"],
    ["reduce", "--in", "curve.json", "-m", "1"],
    ["bench", "--n-list", "3"],
])
def test_missing_out_directory_names_out_path_exit_2_no_file(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "curve.json").write_text('{"degree": 2, "dimension": 1, "control_points": [[0], [1], [0]]}')
    out = str(tmp_path / "missing" / "x.out")
    assert main(command + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert out in err and ".bernjac-" not in err
    assert [f.name for f in tmp_path.iterdir()] == ["curve.json"]


@pytest.mark.parametrize("command", [
    ["matrix", "c", "-n", "5"],
    ["reduce", "--in", "curve.json", "-m", "1"],
    ["bench", "--n-list", "3"],
])
def test_out_path_that_is_a_directory_names_out_path_exit_2_no_file(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "curve.json").write_text('{"degree": 2, "dimension": 1, "control_points": [[0], [1], [0]]}')
    (tmp_path / "dir").mkdir()
    assert main(command + ["--out", "dir"]) == 2
    err = capsys.readouterr().err
    assert "'dir'" in err and ".bernjac-" not in err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["curve.json", "dir"]
    assert list((tmp_path / "dir").iterdir()) == []


@pytest.fixture
def restore_umask():
    """Set the process umask to 022 for one test and put the old one back after it."""
    old = os.umask(0o022)
    yield
    os.umask(old)


WRITING_COMMANDS = [
    ["matrix", "d", "-n", "4"],
    ["reduce", "--in", "curve.json", "-m", "1"],
    ["bench", "--n-list", "3"],
]


@pytest.mark.usefixtures("restore_umask")
@pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o077, 0o600)])
@pytest.mark.parametrize("command", WRITING_COMMANDS, ids=["matrix", "reduce", "bench"])
def test_new_out_file_takes_mode_from_umask(tmp_path, monkeypatch, command, mask, mode):
    # the mode open(path, "w") would leave, not the temp file's 0600
    monkeypatch.chdir(tmp_path)
    (tmp_path / "curve.json").write_text('{"degree": 2, "dimension": 1, "control_points": [[0], [1], [0]]}')
    os.umask(mask)
    assert main(command + ["--out", "x.out"]) == 0
    assert os.stat(tmp_path / "x.out").st_mode & 0o777 == mode


@pytest.mark.usefixtures("restore_umask")
@pytest.mark.parametrize("command", WRITING_COMMANDS, ids=["matrix", "reduce", "bench"])
def test_existing_out_file_keeps_its_mode(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "curve.json").write_text('{"degree": 2, "dimension": 1, "control_points": [[0], [1], [0]]}')
    out = tmp_path / "x.out"
    out.write_text("old\n")
    out.chmod(0o640)
    assert main(command + ["--out", "x.out"]) == 0
    assert os.stat(out).st_mode & 0o777 == 0o640
    assert out.read_text() != "old\n"


# numpy's message for an array the host cannot hold (``matrix c -n 100000``)
OUT_OF_MEMORY = "Unable to allocate 74.5 GiB for an array with shape (100001, 100001) and data type float64"


def out_of_memory(p):
    raise MemoryError(OUT_OF_MEMORY)


@pytest.mark.parametrize("command, module, name", [
    (["matrix", "c", "-n", "5", "--out", "x.out"], j2b, "c_theorem2"),
    # a substituted builder is a new key of reduce's memo, so the call misses
    (["reduce", "--in", "curve.json", "-m", "1", "--out", "x.out"], dred, "d_theorem4"),
    (["check", "-n", "5"], b2j, "d_oracle"),
    (["bench", "--n-list", "3", "--out", "x.out"], j2b, "c_theorem1"),
], ids=["matrix", "reduce", "check", "bench"])
def test_out_of_memory_exit_2_no_file(tmp_path, monkeypatch, capsys, command, module, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "curve.json").write_text('{"degree": 2, "dimension": 1, "control_points": [[0], [1], [0]]}')
    monkeypatch.setattr(module, name, out_of_memory)
    assert main(command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {OUT_OF_MEMORY}\n"
    assert [f.name for f in tmp_path.iterdir()] == ["curve.json"]


def test_module_entry_point_runs_main():
    # python -m bernjac.cli, in a child that finds this package first
    env = {**os.environ, "PYTHONPATH": str(Path(bernjac.__file__).parents[1])}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "bernjac.cli", *args], env=env,
                              capture_output=True, text=True, timeout=120)
    ok = run("check", "-n", "6", "-k", "1", "-l", "1", "--alpha", "0.5", "--beta", "-0.5")
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["params"]["n"] == 6
    assert run("check", "--no-such-flag").returncode == 2
