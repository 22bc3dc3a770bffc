"""Tests of the benchmark's own parts: checkers, inputs, tracer, compare.

    python3 -m pytest perfbench/test_checkers.py
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
if os.path.join(HERE, "..", "src") not in sys.path:
    sys.path.append(os.path.join(HERE, "..", "src"))

import bernjac  # noqa: E402
import bernjac.cli  # noqa: E402
import checkers  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(HERE, "..", "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _reduce_case(n=10, m=5, k=1, l=1, alpha=0.5, beta=-0.5, dim=2):
    rng = np.random.default_rng(10)
    inp = workloads.ReduceInput(rng.uniform(-1, 1, size=(n + 1, dim)), m, k, l, alpha, beta)
    res = bernjac.reduce(bernjac.ReductionProblem(bernjac.BezierCurve(inp.control_points), m, k, l, alpha, beta))
    return inp, (res.reduced.control_points, res.l2_error)


class TestReduceChecker:
    def test_accepts_known_good_case(self):
        inp, res = _reduce_case()
        v = checkers.ReduceChecker()(inp, res)
        assert v.ok, v.note
        assert v.digits > 12

    def test_rejects_perturbed_free_point(self):
        inp, res = _reduce_case()
        pts = res[0].copy()
        pts[3, 0] += 1e-4
        v = checkers.ReduceChecker()(inp, (pts, res[1]))
        assert not v.ok and "orthogonal" in v.note
        assert v.digits < 6

    def test_rejects_broken_endpoint_constraint(self):
        inp, res = _reduce_case()
        pts = res[0].copy()
        pts[0, 1] += 1e-6
        v = checkers.ReduceChecker()(inp, (pts, res[1]))
        assert not v.ok and "derivative 0 at t=0" in v.note

    def test_rejects_wrong_l2_error(self):
        inp, res = _reduce_case()
        v = checkers.ReduceChecker()(inp, (res[0], res[1] * (1 + 1e-4)))
        assert not v.ok and "l2_error" in v.note

    def test_rejects_non_finite(self):
        inp, res = _reduce_case()
        assert not checkers.ReduceChecker()(inp, (res[0], float("nan"))).ok

    def test_boundary_points_match_the_source_derivatives(self):
        rng = np.random.default_rng(3)
        p = rng.normal(size=(13, 2))
        q = checkers.boundary_points(p, 7, 3)
        padded = np.vstack([q, np.zeros((5, 2))])
        for dp, dq in zip(checkers.endpoint_derivatives(p, 3), checkers.endpoint_derivatives(padded, 3)):
            np.testing.assert_allclose(dq, dp, rtol=1e-12, atol=1e-9)


def _matrix_output(tmp_path, inp, perturb=None, by=1e-6):
    """Exit code and extracted CSV of ``bernjac matrix``; ``perturb`` (row,
    column) adds ``by`` times the row's largest magnitude to that entry."""
    path = str(tmp_path / "m.csv")
    code = bernjac.cli.main(["matrix", inp.direction, "-n", str(inp.n), "-k", str(inp.k), "-l", str(inp.l),
                             "--alpha", repr(inp.alpha), "--beta", repr(inp.beta), "--out", path])
    with open(path) as fh:
        text = fh.read()
    if perturb is not None:
        lines = text.split("\n")
        col = lines[0].split(",").index(str(perturb[1]))
        for idx, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            if cells[0] == str(perturb[0]):
                scale = max(abs(float(v)) for v in cells[1:])
                cells[col] = repr(float(cells[col]) + by * scale)
                lines[idx] = ",".join(cells)
        text = "\n".join(lines)
    return code, workloads.extract_csv(text.splitlines(keepends=True), inp.samples)


class TestMatrixChecker:
    C_CASE = workloads.MatrixInput("c", 10, 1, 1, 0.5, -0.5, ((2, 1), (10, 9), (6, 4), (9, 2)))
    D_CASE = workloads.MatrixInput("d", 10, 2, 0, 1.5, 2.25, ((2, 2), (10, 10), (5, 7), (3, 9)))

    @pytest.mark.parametrize("inp", [C_CASE, D_CASE])
    def test_accepts_known_good_case(self, tmp_path, inp):
        v = checkers.check_matrix(inp, _matrix_output(tmp_path, inp))
        assert v.ok, v.note
        assert v.digits > 11

    @pytest.mark.parametrize("inp", [C_CASE, D_CASE])
    def test_rejects_perturbed_entry(self, tmp_path, inp):
        v = checkers.check_matrix(inp, _matrix_output(tmp_path, inp, perturb=inp.samples[2]))
        assert not v.ok
        assert 5.5 < v.digits < 6.5

    @pytest.mark.parametrize("inp", [C_CASE, D_CASE])
    def test_rejects_blown_up_row_peak(self, tmp_path, inp):
        # the row's largest entry sets the scale, so it must be checked too
        code, csv = _matrix_output(tmp_path, inp)
        col, value = csv["peaks"][0]
        csv["peaks"][0] = (col, value * 1e3)
        assert not checkers.check_matrix(inp, (code, csv)).ok

    def test_accepts_tiny_entry_accurate_to_its_row(self, tmp_path):
        # d[16][16] is 4.2e-10 in a row whose largest entry is 0.21; the
        # library's value is off by 3e-8 of the entry, 7e-17 of the row
        inp = workloads.MatrixInput("d", 16, 2, 0, 0.5232696314813873, 2.5384345776036423,
                                    ((5, 2), (6, 2), (16, 16), (3, 4)))
        v = checkers.check_matrix(inp, _matrix_output(tmp_path, inp))
        assert v.ok, v.note

    def test_error_is_relative_to_the_row(self, tmp_path):
        inp = self.C_CASE
        code, csv = _matrix_output(tmp_path, inp)
        ref, _ = checkers.matrix_reference("c", inp.n, inp.k, inp.l, inp.alpha, inp.beta, *inp.samples[0])
        peak = abs(csv["peaks"][0][1])
        # an absolute error of 1e-12 of the row's scale passes, whatever it is
        # relative to the entry itself
        csv["entries"][0] = ref + 1e-12 * peak
        assert checkers.check_matrix(inp, (code, csv)).ok
        csv["entries"][0] = ref + 1e-7 * peak
        assert not checkers.check_matrix(inp, (code, csv)).ok

    def test_rejects_non_finite_and_failed_exit(self, tmp_path):
        code, csv = _matrix_output(tmp_path, self.C_CASE)
        assert not checkers.check_matrix(self.C_CASE, (code, dict(csv, finite=False))).ok
        assert not checkers.check_matrix(self.C_CASE, (2, csv)).ok

    def test_reference_matches_library_oracle(self):
        p = bernjac.TransformParams(12, 1, 2, 0.25, 1.75)
        c, d = bernjac.c_oracle(p).values, bernjac.d_oracle(p).values
        for i, h in ((3, 1), (8, 6), (12, 10)):
            ref, _ = checkers.matrix_reference("c", 12, 1, 2, 0.25, 1.75, i, h)
            assert ref == pytest.approx(c[i - 3, h - 1], rel=1e-12)
            ref, _ = checkers.matrix_reference("d", 12, 1, 2, 0.25, 1.75, h, i)
            assert ref == pytest.approx(d[h - 1, i - 3], rel=1e-12)

    @pytest.mark.parametrize("direction,row,col", [("c", 215, 285), ("d", 152, 372)])
    def test_doubling_the_precision_leaves_the_reference_unchanged(self, direction, row, col):
        args = (direction, 400, 1, 1, -0.85, 2.9, row, col)
        ref, dps = checkers.matrix_reference(*args)
        again, _ = checkers.matrix_reference(*args, dps=2 * dps)
        assert dps >= 100  # the alternating sum cancels tens to hundreds of digits here
        assert again == ref


class TestCheckReport:
    INP = workloads.CheckInput(6, 1, 0, 0.5, -0.25)

    def _run(self, capsys):
        code = bernjac.cli.main(["check", "-n", "6", "-k", "1", "-l", "0", "--alpha", "0.5", "--beta", "-0.25"])
        return code, capsys.readouterr().out

    def test_accepts_complete_report(self, capsys):
        code, text = self._run(capsys)
        assert checkers.check_report(self.INP, (code, text)).ok

    def test_rejects_incomplete_report_and_usage_error(self, capsys):
        code, text = self._run(capsys)
        report = json.loads(text)
        report["checks"] = report["checks"][:-1]
        assert not checkers.check_report(self.INP, (code, json.dumps(report))).ok
        assert not checkers.check_report(self.INP, (2, text)).ok
        assert not checkers.check_report(self.INP, (1 - code, text)).ok


class TestInputs:
    @pytest.mark.parametrize("name", run.WORKLOADS)
    def test_seed_determines_inputs(self, name):
        assert workloads.prefix_digest(name, 5, 20) == workloads.prefix_digest(name, 5, 20)
        assert workloads.prefix_digest(name, 5, 20) != workloads.prefix_digest(name, 6, 20)

    @pytest.mark.parametrize("name", ["reduce_spline", "reduce_distinct", "matrix_export"])
    def test_timed_inputs_stay_in_the_envelope(self, name):
        for inp, _ in zip(workloads.stream(name, 3), range(400)):
            if isinstance(inp, workloads.ReduceInput):
                assert inp.control_points.shape[0] - 1 <= workloads.ENVELOPE["reduce"]
            else:
                assert inp.n <= workloads.ENVELOPE[inp.direction]

    def test_beyond_envelope_inputs_are_seeded_and_past_it(self):
        a, b = workloads.beyond_envelope_inputs(4), workloads.beyond_envelope_inputs(4)
        assert [workloads.input_bytes(x) for x in a] == [workloads.input_bytes(x) for x in b]
        assert min(workloads.BEYOND_REDUCE_N) > workloads.ENVELOPE["reduce"]
        assert min(workloads.BEYOND_C_N) > workloads.ENVELOPE["c"]

    def test_spline_segments_share_parameters(self):
        segs = list(zip(range(16), workloads.stream("reduce_spline", 1)))
        keys = {(s.control_points.shape, s.m, s.k, s.l, s.alpha, s.beta) for _, s in segs}
        assert len(keys) == 1
        assert len({s.control_points.tobytes() for _, s in segs}) == 16

    def test_benchmark_json_matches_the_code(self):
        assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
        assert {w["name"]: w["why"] for w in BENCH["workloads"]} == workloads.WHY
        assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
        layer = tracer.layer_metrics(["op"], {k: np.zeros(0, dtype=t) for k, t in (
            ("name_id", np.int32), ("start", float), ("end", float), ("parent", np.int32),
            ("op", np.int32), ("count", float))})
        extra = {"cli.bytes_written", "cli.check_pass_ratio", "trace_overhead_ratio",
                 "verify.fail_ratio", "verify.precision_digits", "verify.beyond_envelope_fail_ratio"}
        assert {m["name"] for m in BENCH["per_layer"]} == set(layer) | extra
        assert all(m["unit"] == run.layer_unit(m["name"]) for m in BENCH["per_layer"])


class TestTracer:
    def test_wrappers_record_and_are_removed(self):
        before = bernjac.degree_reduction.c_theorem2
        t = tracer.Tracer(cap=10_000)
        curve = bernjac.BezierCurve(np.linspace(0.0, 1.0, 22).reshape(11, 2))
        with t:
            assert bernjac.degree_reduction.c_theorem2 is not before
            token = t.begin_op(0)
            bernjac.reduce(bernjac.ReductionProblem(curve, 5, 1, 1, 0.5, -0.5))
            t.end_op(token)
        assert bernjac.degree_reduction.c_theorem2 is before
        assert bernjac.jacobi_to_bernstein_matrix is bernjac.jacobi_to_bernstein.c_theorem2
        m = tracer.layer_metrics(t.names, t.arrays())
        assert m["degree_reduction.builds_per_op"] == 3
        assert m["bases.gram_entries"] == 9 * 10 / 2
        assert m["jacobi_to_bernstein.c_theorem2_calls"] == 2
        assert m["specialfn.beta_fn_calls"] == 45
        assert m["degree_reduction.reduce_self_ms"] > 0

    def test_missing_function_reads_zero(self, monkeypatch):
        monkeypatch.delattr(bernjac.bases, "bernstein_gram")
        t = tracer.Tracer(cap=10)
        with t:
            pass
        m = tracer.layer_metrics(t.names, t.arrays())
        assert m["bases.bernstein_gram_calls"] == 0.0

    def test_self_time_subtracts_children(self):
        spans = {"name_id": np.array([0, 1, 2, 2], np.int32), "parent": np.array([-1, 0, 1, 1], np.int32),
                 "start": np.array([0.0, 1.0, 2.0, 4.0]), "end": np.array([10.0, 9.0, 3.0, 6.0]),
                 "op": np.zeros(4, np.int32), "count": np.zeros(4)}
        m = tracer.layer_metrics(["op", "cli.main", "cli.matrix_csv"], spans)
        assert m["cli.main_self_ms"] == pytest.approx(5e3)
        assert m["cli.matrix_csv_ms"] == pytest.approx(3e3)


def test_compare_flags_worse_and_unresolved():
    spec = {"better": "lower", "bound": 0.1}
    steady = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert compare.verdict(steady, [v * 1.05 for v in steady], spec) == "ok"
    assert compare.verdict(steady, [v * 1.2 for v in steady], spec) == "worse"
    assert compare.verdict(steady, [0.5, 1.5, 1.0, 0.7, 1.3], spec) == "unresolved"
    assert compare.verdict(steady, [v * 1.2 for v in steady], {"better": "higher", "bound": 0.1}) == "ok"


def test_local_host_factor_follows_the_nearest_kernel_samples():
    s = speed.Speedometer()
    s.times = [float(t) for t in range(100)]
    s.samples = [speed.REFERENCE_S] * 50 + [2 * speed.REFERENCE_S] * 50
    assert s.local_factors([5.0, 95.0, 1e9]).tolist() == [1.0, 2.0, 2.0]
    assert s.factor() == 1.5
