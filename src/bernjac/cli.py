"""Command-line front end: coefficient-matrix generation, curve degree
reduction, consistency checking, and the timing harness that contrasts the
quadratic recurrence builders with the cubic closed-form ones.

Exit codes: 0 success, 1 check failure, 2 usage or validation error.
Output files are written atomically (temp file + rename), so failures never
leave partial artifacts.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import bernstein_to_jacobi, degree_reduction, jacobi_to_bernstein
from .bases import ConnectionMatrix, TransformParams, bernstein_gram, curve_from_json, curve_to_json

_ROUTES = {
    "c": (jacobi_to_bernstein, dict(direct="c_direct", thm1="c_theorem1", thm2="c_theorem2", oracle="c_oracle")),
    "d": (bernstein_to_jacobi, dict(direct="d_direct", thm3="d_theorem3", thm4="d_theorem4", oracle="d_oracle")),
}

_BENCH_TABLE = {"thm1": ("c", "thm1"), "thm2": ("c", "thm2"), "oracle_c": ("c", "oracle"),
                "thm3": ("d", "thm3"), "thm4": ("d", "thm4"), "oracle_d": ("d", "oracle")}
BENCH_METHODS = tuple(_BENCH_TABLE)
_PRODUCTION = {"c": "thm2", "d": "thm4"}  # the route `matrix` writes and `check` round-trips

_ATOL = 1e-12  # absolute part of the entrywise tolerances
_RTOL = 1e-9  # relative part of the entrywise tolerances
_ROUND_TRIP_TOL = 1e-8  # of max |DC - I| and max |CD - I|
_ORTHO_TOL = 1e-10  # of an off-diagonal Gram entry, relative to the two norms


def _builder(direction: str, method: str):
    """Resolve a matrix builder by module attribute, so test harnesses can
    substitute builders on the transform modules."""
    module, table = _ROUTES[direction]
    return getattr(module, table[method])


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bernjac-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# matrix


def matrix_csv(mat) -> str:
    """CSV form of a connection matrix, shortest round-trip decimals.

    The corner cell names the row and column indices: `i\\h` for rows i,
    `h\\i` for rows h.
    """
    lines = [",".join([f"{mat.rows}\\{mat.cols}"] + [str(c) for c in mat.indices(mat.cols)])]
    for label, row in zip(mat.indices(mat.rows), mat.values.tolist()):
        lines.append(",".join([str(label), *map(repr, row)]))
    return "\n".join(lines) + "\n"


def _require_finite(what: str, *arrays) -> None:
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError(f"{what} has non-finite entries; nothing was written")


def _cmd_matrix(args) -> int:
    p = TransformParams(args.n, args.k, args.l, args.alpha, args.beta)
    mat = _builder(args.direction, _PRODUCTION[args.direction])(p)
    _require_finite("matrix", mat.values)
    _atomic_write(args.out, matrix_csv(mat))
    return 0


# ---------------------------------------------------------------------------
# reduce


def _cmd_reduce(args) -> int:
    with open(args.infile) as fh:
        curve = curve_from_json(json.load(fh))
    prob = degree_reduction.ReductionProblem(
        curve, args.target_degree, args.k, args.l, args.alpha, args.beta)
    res = degree_reduction.reduce(prob)
    _require_finite("reduction result", res.reduced.control_points, res.l2_error, res.discarded.coeffs)
    dp = res.discarded.params
    payload = {
        "reduced": curve_to_json(res.reduced),
        "l2_error": res.l2_error,
        "discarded": {
            "degree": dp.n,
            "k": dp.k,
            "l": dp.l,
            "alpha": dp.alpha,
            "beta": dp.beta,
            "first_index": dp.k + dp.l,
            "coefficients": [[float(v) for v in row] for row in res.discarded.coeffs],
        },
    }
    _atomic_write(args.out, json.dumps(payload, indent=2) + "\n")
    print(res.l2_error)
    return 0


# ---------------------------------------------------------------------------
# bench


@dataclass(frozen=True)
class BenchRecord:
    method: str
    n: int
    k: int
    l: int
    alpha: float
    beta: float
    repetitions: int
    total_seconds: float


@dataclass(frozen=True)
class BenchReport:
    records: list[BenchRecord]
    slopes: dict[str, float]


def fit_loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    x = np.log([q[0] for q in points])
    y = np.log([q[1] for q in points])
    return float(np.polyfit(x, y, 1)[0])


def run_benchmark(n_values, k: int = 1, l: int = 1, alpha: float = 0.0, beta: float = 0.0,
                  reps: int = 1) -> BenchReport:
    """Time every builder over the requested degrees at fixed (k, l, alpha, beta).

    Per (method, n) the monotonic clock wraps the matrix-build call only.
    Three warm-up builds per method, at the first degree only (at every
    degree they would dominate the run for a cubic route at large n), are
    discarded first.  Slopes are fitted per method once at least five
    degrees are present.
    """
    if not n_values or len(set(n_values)) != len(n_values) or min(n_values) < 1:
        raise ValueError(f"benchmark requires a nonempty list of distinct degrees >= 1, got {list(n_values)}")
    if reps < 1:
        raise ValueError("benchmark repetitions must be >= 1")
    records = []
    for method in BENCH_METHODS:
        build = _builder(*_BENCH_TABLE[method])
        for _ in range(3):
            build(TransformParams(n_values[0], k, l, alpha, beta))
        for n in n_values:
            p = TransformParams(n, k, l, alpha, beta)
            total = 0.0
            for _ in range(reps):
                t0 = perf_counter()
                build(p)
                total += perf_counter() - t0
            records.append(BenchRecord(method, n, k, l, alpha, beta, reps, total))
    slopes = {}
    for method in BENCH_METHODS:
        pts = [(r.n, r.total_seconds) for r in records if r.method == method]
        if len(pts) >= 5:
            slopes[method] = fit_loglog_slope(pts)
    return BenchReport(records, slopes)


def bench_csv(report: BenchReport) -> str:
    lines = ["kind,method,n,k,l,alpha,beta,repetitions,total_seconds,slope"]
    for r in report.records:
        lines.append(f"timing,{r.method},{r.n},{r.k},{r.l},{r.alpha!r},{r.beta!r},{r.repetitions},"
                     f"{r.total_seconds!r},")
    for method, slope in report.slopes.items():
        lines.append(f"slope,{method},,,,,,,,{repr(slope)}")
    return "\n".join(lines) + "\n"


def _cmd_bench(args) -> int:
    n_values = [int(v) for v in args.n_list.split(",") if v.strip()]
    report = run_benchmark(n_values, k=args.k, l=args.l, alpha=args.alpha, beta=args.beta, reps=args.reps)
    _atomic_write(args.out, bench_csv(report))
    for method, slope in report.slopes.items():
        print(f"{method} slope {slope:.3f}")
    return 0


# ---------------------------------------------------------------------------
# check


def _labels(mat: ConnectionMatrix, r: int, c: int) -> dict:
    """Mathematical indices of storage position (r, c) of ``mat``."""
    return {mat.rows: mat.indices(mat.rows)[r], mat.cols: mat.indices(mat.cols)[c]}


def _entrywise(name: str, dev: np.ndarray, excess: np.ndarray, tol: np.ndarray, worst) -> dict:
    """Report of an entrywise check: it passes when no excess over the
    tolerance is positive and reports the entry of largest excess, NaN
    counting as largest; ``worst`` maps that position to its labels."""
    flat = np.argmax(np.where(np.isnan(excess), math.inf, excess))
    at = tuple(int(v) for v in np.unravel_index(flat, excess.shape))
    return {"name": name, "passed": bool(np.all(excess <= 0.0)),
            "max_deviation": float(dev[at]), "tolerance": float(tol[at]), "worst": worst(*at)}


def _cross_check(name: str, mats: dict[str, ConnectionMatrix]) -> dict:
    """Entrywise agreement of every pair of routes for one matrix."""
    pairs = list(itertools.combinations(mats, 2))
    A = np.stack([mats[a].values for a, _ in pairs])
    B = np.stack([mats[b].values for _, b in pairs])
    dev = np.abs(A - B)
    tol = _ATOL + _RTOL * np.maximum(np.abs(A), np.abs(B))

    def worst(q, r, c):
        return {"deviation": float(dev[q, r, c]), "tolerance": float(tol[q, r, c]),
                **_labels(mats[pairs[q][0]], r, c), "pair": list(pairs[q])}
    return _entrywise(name, dev, dev - tol, tol, worst)


def run_checks(p: TransformParams) -> dict:
    """Cross-method, round-trip, bridge-factor and orthogonality checks for
    one parameter set.  A NaN deviation fails its check and stays NaN in
    the report, which carries every non-finite value, so numpy's
    floating-point warnings are off."""
    with np.errstate(all="ignore"):
        mats = {d: {m: _builder(d, m)(p) for m in table} for d, (_, table) in _ROUTES.items()}
        checks = [_cross_check(f"cross_{d}", mats[d]) for d in _ROUTES]

        C, D = mats["c"][_PRODUCTION["c"]].values, mats["d"][_PRODUCTION["d"]].values
        dev_dc = float(np.max(np.abs(D @ C - np.eye(p.dim))))
        dev_cd = float(np.max(np.abs(C @ D - np.eye(p.dim))))
        checks.append({"name": "round_trip", "passed": dev_dc <= _ROUND_TRIP_TOL and dev_cd <= _ROUND_TRIP_TOL,
                       "max_deviation": float(np.max([dev_dc, dev_cd])), "tolerance": _ROUND_TRIP_TOL,
                       "worst": {"DC": dev_dc, "CD": dev_cd}})

        U = bernstein_to_jacobi.u_factors(p).values
        dev = np.abs(C - U * D.T)
        tol = _ATOL + _RTOL * np.abs(C)
        checks.append(_entrywise("proposition_bridge", dev, dev - tol, tol,
                                 lambda r, c: _labels(mats["c"][_PRODUCTION["c"]], r, c)))

        M = np.abs(C @ bernstein_gram(p) @ C.T)
        norms = np.sqrt(np.diag(M))
        tol = _ORTHO_TOL * norms[:, None] * norms
        off = M - tol
        np.fill_diagonal(off, -math.inf)
        checks.append(_entrywise("orthogonality", M, off, tol,
                                 lambda r, c: {"i": p.i_indices()[r], "j": p.i_indices()[c]}))

        return {"params": {"n": p.n, "k": p.k, "l": p.l, "alpha": p.alpha, "beta": p.beta},
                "checks": checks, "passed": all(ch["passed"] for ch in checks)}


def _strict(v):
    """``v`` with every non-finite float replaced by None, for strict JSON."""
    if isinstance(v, dict):
        return {key: _strict(x) for key, x in v.items()}
    if isinstance(v, list):
        return [_strict(x) for x in v]
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _cmd_check(args) -> int:
    p = TransformParams(args.n, args.k, args.l, args.alpha, args.beta)
    report = run_checks(p)
    print(json.dumps(_strict(report), indent=2, allow_nan=False))
    for ch in report["checks"]:
        if not ch["passed"]:
            print(f"check failed: {ch['name']} worst={ch['worst']} "
                  f"deviation={ch['max_deviation']:.3e} tolerance={ch['tolerance']:.3e}",
                  file=sys.stderr)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# parser


def _add_param_flags(sp, with_n=True):
    if with_n:
        sp.add_argument("-n", type=int, required=True, help="polynomial degree")
    sp.add_argument("-k", type=int, default=0, help="constraint order at t=0")
    sp.add_argument("-l", type=int, default=0, help="constraint order at t=1")
    sp.add_argument("--alpha", type=float, default=0.0, help="weight exponent of (1-x)")
    sp.add_argument("--beta", type=float, default=0.0, help="weight exponent of x")


@functools.cache  # one parser per process: parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernjac",
        description="Bernstein / modified-Jacobi basis transformations and constrained degree reduction")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("matrix", help="write the production connection-coefficient matrix as CSV")
    sp.add_argument("direction", choices=("c", "d"),
                    help="c: Jacobi-to-Bernstein, d: Bernstein-to-Jacobi")
    _add_param_flags(sp)
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(func=_cmd_matrix)

    sp = sub.add_parser("reduce", help="constrained L2-optimal degree reduction of a curve")
    sp.add_argument("--in", dest="infile", required=True, help="input curve JSON")
    sp.add_argument("-m", "--target-degree", dest="target_degree", type=int, required=True)
    _add_param_flags(sp, with_n=False)
    sp.add_argument("--out", required=True, help="output result JSON path")
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("bench", help="time the matrix builders and fit complexity slopes")
    sp.add_argument("--n-list", required=True, help="comma-separated degrees, e.g. 5,6,7")
    sp.add_argument("--reps", type=int, default=1, help="timed builds per (method, n)")
    _add_param_flags(sp, with_n=False)
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(func=_cmd_bench)

    sp = sub.add_parser("check", help="run consistency checks for one parameter set")
    _add_param_flags(sp)
    sp.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OverflowError as exc:
        print(f"error: arithmetic overflows a double: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
