"""Command-line front end: coefficient-matrix generation, curve degree
reduction, consistency checking, and the timing harness that contrasts the
quadratic recurrence builders with the cubic closed-form ones.

Exit codes: 0 success, 1 check failure, 2 usage or validation error.
Output files are written atomically (temp file + rename), so failures never
leave partial artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import bernstein_to_jacobi, degree_reduction, jacobi_to_bernstein
from .bases import TransformParams, bernstein_gram, curve_from_json, curve_to_json

_C_METHODS = {"direct": "c_direct", "thm1": "c_theorem1", "thm2": "c_theorem2", "oracle": "c_oracle"}
_D_METHODS = {"direct": "d_direct", "thm3": "d_theorem3", "thm4": "d_theorem4", "oracle": "d_oracle"}

BENCH_METHODS = ("thm1", "thm2", "oracle_c", "thm3", "thm4", "oracle_d")
_BENCH_TABLE = {
    "thm1": ("c", "thm1"),
    "thm2": ("c", "thm2"),
    "oracle_c": ("c", "oracle"),
    "thm3": ("d", "thm3"),
    "thm4": ("d", "thm4"),
    "oracle_d": ("d", "oracle"),
}


def _builder(direction: str, method: str):
    """Resolve a matrix builder; attribute lookup is late so test harnesses
    can substitute builders on the transform modules."""
    if direction == "c":
        table, mod = _C_METHODS, jacobi_to_bernstein
    elif direction == "d":
        table, mod = _D_METHODS, bernstein_to_jacobi
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if method not in table:
        raise ValueError(f"method {method!r} is not valid for direction {direction!r} "
                         f"(choose from {', '.join(table)})")
    name = table[method]
    return lambda p: getattr(mod, name)(p)


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
    for r, label in enumerate(mat.indices(mat.rows)):
        lines.append(",".join([str(label)] + [repr(float(v)) for v in mat.values[r]]))
    return "\n".join(lines) + "\n"


def _require_finite(what: str, *arrays) -> None:
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError(f"{what} has non-finite entries; nothing was written")


def _cmd_matrix(args) -> int:
    p = TransformParams(args.n, args.k, args.l, args.alpha, args.beta)
    mat = _builder(args.direction, args.method)(p)
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
    alpha: float | None  # None when the strategy varies the exponents
    beta: float | None
    repetitions: int
    total_seconds: float


@dataclass(frozen=True)
class BenchReport:
    records: list[BenchRecord]
    slopes: dict[str, float]


def _grid_pairs() -> list[tuple[float, float]]:
    # alpha = -0.9, -0.8, ..., 9 paired with beta = 0.3, 0.4, ..., 10.2
    return [(round(-0.9 + 0.1 * j, 10), round(0.3 + 0.1 * j, 10)) for j in range(100)]


def _exec_params(strategy: str, n: int, seed: int, reps: int,
                 alpha: float, beta: float) -> list[tuple[float, float]]:
    if strategy == "fixed":
        return [(alpha, beta)] * reps
    if strategy == "random_box":
        rng = random.Random(f"{seed}:{n}")
        return [(rng.uniform(-0.99, 1.01), rng.uniform(-0.99, 1.01)) for _ in range(reps)]
    if strategy == "grid":
        return _grid_pairs() * reps
    raise ValueError(f"unknown parameter strategy {strategy!r}")


def fit_loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    x = np.log([q[0] for q in points])
    y = np.log([q[1] for q in points])
    return float(np.polyfit(x, y, 1)[0])


def run_benchmark(n_values, k: int = 1, l: int = 1, strategy: str = "fixed",
                  alpha: float = 0.0, beta: float = 0.0, reps: int = 1,
                  seed: int = 0, methods=BENCH_METHODS, warmup: int = 3) -> BenchReport:
    """Time each builder over the requested degrees.

    Per (method, n) the monotonic clock wraps the matrix-build call only;
    the given number of warm-up builds is discarded first.  All methods see
    the same parameter sequence for a given seed.  Slopes are fitted per
    method once at least five distinct degrees are present.
    """
    if not n_values:
        raise ValueError("benchmark requires a nonempty list of degrees")
    if reps < 1:
        raise ValueError("benchmark repetitions must be >= 1")
    records = []
    for method in methods:
        if method not in _BENCH_TABLE:
            raise ValueError(f"unknown benchmark method {method!r} "
                             f"(choose from {', '.join(BENCH_METHODS)})")
        direction, name = _BENCH_TABLE[method]
        build = _builder(direction, name)
        for n in n_values:
            pairs = _exec_params(strategy, n, seed, reps, alpha, beta)
            plist = [TransformParams(n, k, l, al, be) for al, be in pairs]
            for j in range(warmup):
                build(plist[j % len(plist)])
            total = 0.0
            for p in plist:
                t0 = perf_counter()
                build(p)
                total += perf_counter() - t0
            rec_ab = (alpha, beta) if strategy == "fixed" else (None, None)
            records.append(BenchRecord(method, n, k, l, rec_ab[0], rec_ab[1], len(plist), total))
    slopes = {}
    for method in methods:
        pts = [(r.n, r.total_seconds) for r in records if r.method == method]
        if len({q[0] for q in pts}) >= 5:
            slopes[method] = fit_loglog_slope(pts)
    return BenchReport(records, slopes)


def bench_csv(report: BenchReport) -> str:
    lines = ["kind,method,n,k,l,alpha,beta,repetitions,total_seconds,slope"]
    for r in report.records:
        a = "" if r.alpha is None else repr(r.alpha)
        b = "" if r.beta is None else repr(r.beta)
        lines.append(f"timing,{r.method},{r.n},{r.k},{r.l},{a},{b},{r.repetitions},{repr(r.total_seconds)},")
    for method, slope in report.slopes.items():
        lines.append(f"slope,{method},,,,,,,,{repr(slope)}")
    return "\n".join(lines) + "\n"


def _cmd_bench(args) -> int:
    n_values = [int(v) for v in args.n_list.split(",") if v.strip()]
    methods = BENCH_METHODS if args.methods is None else tuple(
        m.strip() for m in args.methods.split(",") if m.strip())
    report = run_benchmark(n_values, k=args.k, l=args.l, strategy=args.strategy,
                           alpha=args.alpha, beta=args.beta, reps=args.reps,
                           seed=args.seed, methods=methods)
    _atomic_write(args.out, bench_csv(report))
    for method, slope in report.slopes.items():
        print(f"{method} slope {slope:.3f}")
    return 0


# ---------------------------------------------------------------------------
# check


def _worst(excess: np.ndarray) -> tuple[int, int]:
    """Position of the largest excess over tolerance; NaN counts as the
    largest, so a NaN deviation is reported and fails."""
    flat = int(np.argmax(np.where(np.isnan(excess), math.inf, excess)))
    r, c = np.unravel_index(flat, excess.shape)
    return int(r), int(c)


def _cross_check(name: str, mats: dict[str, np.ndarray], atol: float, rtol: float,
                 row_name: str, row_start: int, col_name: str, col_start: int) -> dict:
    names = list(mats)
    worst = {"excess": -math.inf}
    passed = True
    for ia in range(len(names)):
        for ib in range(ia + 1, len(names)):
            A, B = mats[names[ia]], mats[names[ib]]
            dev = np.abs(A - B)
            tol = atol + rtol * np.maximum(np.abs(A), np.abs(B))
            r, c = _worst(dev - tol)
            excess = float(dev[r, c] - tol[r, c])
            if math.isnan(excess):
                excess = math.inf
            if excess > 0:
                passed = False
            if excess > worst["excess"]:
                worst = {
                    "excess": excess,
                    "deviation": float(dev[r, c]),
                    "tolerance": float(tol[r, c]),
                    row_name: int(row_start + r),
                    col_name: int(col_start + c),
                    "pair": [names[ia], names[ib]],
                }
    worst.pop("excess")
    return {"name": name, "passed": passed,
            "max_deviation": worst["deviation"], "tolerance": worst["tolerance"],
            "worst": worst}


def run_checks(p: TransformParams, atol: float = 1e-12, rtol: float = 1e-9,
               roundtrip_tol: float = 1e-8, ortho_tol: float = 1e-10) -> dict:
    """Cross-method, round-trip, bridge-factor and orthogonality checks for
    one parameter set; returns a JSON-ready report.  A NaN deviation fails
    its check."""
    c_mats = {m: _builder("c", m)(p).values for m in _C_METHODS}
    d_mats = {m: _builder("d", m)(p).values for m in _D_METHODS}
    checks = [
        _cross_check("cross_c", c_mats, atol, rtol, "i", p.k + p.l, "h", p.k),
        _cross_check("cross_d", d_mats, atol, rtol, "h", p.k, "i", p.k + p.l),
    ]

    C, D = c_mats["thm2"], d_mats["thm4"]
    eye = np.eye(p.dim)
    dev_dc = float(np.max(np.abs(D @ C - eye)))
    dev_cd = float(np.max(np.abs(C @ D - eye)))
    checks.append({"name": "round_trip", "passed": dev_dc <= roundtrip_tol and dev_cd <= roundtrip_tol,
                   "max_deviation": float(np.max([dev_dc, dev_cd])), "tolerance": roundtrip_tol,
                   "worst": {"DC": dev_dc, "CD": dev_cd}})

    U = bernstein_to_jacobi.u_factors(p).values
    dev = np.abs(C - U * D.T)
    tol = atol + rtol * np.abs(C)
    r, c = _worst(dev - tol)
    checks.append({"name": "proposition_bridge", "passed": bool(np.all(dev <= tol)),
                   "max_deviation": float(dev[r, c]), "tolerance": float(tol[r, c]),
                   "worst": {"i": p.k + p.l + r, "h": p.k + c}})

    M = C @ bernstein_gram(p) @ C.T
    norms = np.sqrt(np.abs(np.diag(M)))
    off = np.abs(M) - ortho_tol * np.outer(norms, norms)
    np.fill_diagonal(off, -math.inf)
    r, c = _worst(off)
    checks.append({"name": "orthogonality", "passed": bool(np.all(off <= 0.0)),
                   "max_deviation": float(np.abs(M[r, c])),
                   "tolerance": float(ortho_tol * norms[r] * norms[c]),
                   "worst": {"i": p.k + p.l + r, "j": p.k + p.l + c}})

    return {
        "params": {"n": p.n, "k": p.k, "l": p.l, "alpha": p.alpha, "beta": p.beta},
        "checks": checks,
        "passed": all(ch["passed"] for ch in checks),
    }


def _cmd_check(args) -> int:
    p = TransformParams(args.n, args.k, args.l, args.alpha, args.beta)
    rtol = args.tolerance if args.tolerance is not None else 1e-9
    report = run_checks(p, rtol=rtol)
    print(json.dumps(report, indent=2))
    if not report["passed"]:
        for ch in report["checks"]:
            if not ch["passed"]:
                print(f"check failed: {ch['name']} worst={ch['worst']} "
                      f"deviation={ch['max_deviation']:.3e} tolerance={ch['tolerance']:.3e}",
                      file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_param_flags(sp, with_n=True):
    if with_n:
        sp.add_argument("-n", type=int, required=True, help="polynomial degree")
    sp.add_argument("-k", type=int, default=0, help="constraint order at t=0")
    sp.add_argument("-l", type=int, default=0, help="constraint order at t=1")
    sp.add_argument("--alpha", type=float, default=0.0, help="weight exponent of (1-x)")
    sp.add_argument("--beta", type=float, default=0.0, help="weight exponent of x")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernjac",
        description="Bernstein / modified-Jacobi basis transformations and constrained degree reduction")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("matrix", help="write a connection-coefficient matrix as CSV")
    sp.add_argument("direction", choices=("c", "d"),
                    help="c: Jacobi-to-Bernstein, d: Bernstein-to-Jacobi")
    sp.add_argument("--method", default=None,
                    help="c: direct|thm1|thm2|oracle, d: direct|thm3|thm4|oracle")
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
    sp.add_argument("--strategy", choices=("fixed", "random_box", "grid"), default="fixed")
    sp.add_argument("--reps", type=int, default=1, help="timed builds per (method, n)")
    sp.add_argument("--seed", type=int, default=0, help="seed for the random_box strategy")
    sp.add_argument("--methods", default=None,
                    help=f"comma-separated subset of {','.join(BENCH_METHODS)}")
    _add_param_flags(sp, with_n=False)
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(func=_cmd_bench)

    sp = sub.add_parser("check", help="run consistency checks for one parameter set")
    _add_param_flags(sp)
    sp.add_argument("--tolerance", type=float, default=None,
                    help="relative tolerance override for entrywise comparisons")
    sp.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "matrix":
        default = {"c": "thm2", "d": "thm4"}[args.direction]
        if args.method is None:
            args.method = default
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
