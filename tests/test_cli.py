import csv
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from conftest import assert_mixed_close

import bernjac
import bernjac.bernstein_to_jacobi as b2j
import bernjac.degree_reduction as dred
import bernjac.jacobi_to_bernstein as j2b
from bernjac.bases import TransformParams
from bernjac.bernstein_to_jacobi import d_oracle
from bernjac.cli import BENCH_METHODS, main, matrix_csv, run_benchmark
from bernjac.jacobi_to_bernstein import c_oracle

# what main prints for an OverflowError escaping the library
OVERFLOW_ERROR = "error: arithmetic overflows a double: "


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
        assert out.read_text() == matrix_csv(build(TransformParams(7, 1, 2, 0.5, -0.5)))

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

    def test_non_finite_result_exit_2_no_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(dred, "d_theorem4", nan_builder(dred.d_theorem4))
        src = self.write_curve(tmp_path, [0.0, 1.0, 0.0, 2.0, 1.0])
        out = tmp_path / "never.json"
        assert main(["reduce", "--in", str(src), "-m", "2", "-k", "1", "-l", "1",
                     "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_weight_exit_2_no_file(self, tmp_path, capsys):
        # the Gram matrix's log-gamma overflows at alpha = 1e308
        src = self.write_curve(tmp_path, [0.0, 1.0, 2.0, 3.0])
        out = tmp_path / "never.json"
        assert main(["reduce", "--in", str(src), "-m", "2", "--alpha", "1e308", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(OVERFLOW_ERROR)
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

    def test_run_benchmark_slopes_need_five_degrees(self):
        rep = run_benchmark([5, 6, 7, 8], reps=1)
        assert rep.slopes == {}
        rep = run_benchmark([5, 6, 7, 8, 9], reps=1)
        assert list(rep.slopes) == list(BENCH_METHODS)


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

    def test_invalid_params(self, capsys):
        assert main(["check", "-n", "1", "-k", "2", "-l", "2"]) == 2

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
