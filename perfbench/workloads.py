"""Seeded inputs and the calls that drive bernjac through its public entry
points: ``bernjac.reduce`` and ``bernjac.cli.main([...])`` in-process.

Every workload is an endless stream of inputs made from ``(seed, workload)``
alone; the program sees only the generated inputs.  The size that drives an
op's cost follows a golden-ratio sequence with a seeded offset, so any prefix
of the stream, however many ops a run reaches, covers the size range evenly
and two seeds give runs of comparable cost.  Everything else is drawn from a
generator seeded per unit of the stream.

The timed workloads stay inside the sizes where the library's outputs pass
the checkers (``ENVELOPE``): beyond them ``c_theorem2`` loses digits about
as fast as 2^n grows, and so does ``reduce``, which is built on it.  That
defect stays in every run's report through ``beyond_envelope_inputs``, a
few seeded inputs of the sizes the workloads leave out, checked after the
timed phase and counted apart from the timed ops.

Importing this module imports numpy only; ``bernjac`` is imported by the
functions that call it, after ``boot.prepare`` has pinned BLAS.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import zlib
from dataclasses import dataclass

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
ALPHA_BETA_RANGE = (-0.9, 3.0)
SEGMENTS = 16
MATRIX_SAMPLES = 4
# Largest n of each timed op kind.  At n = 20, 8000 reduce ops all passed
# the reduce checker with its tolerances 10x tighter, and 1500 c matrices
# all kept 9.6 of the 8 digits the matrix checker asks for; failures begin
# near n = 28 (reduce) and n = 32 (c).  d matrices stay within 1e-12 of
# their row scale to n = 400.
ENVELOPE = {"reduce": 20, "c": 20, "d": 400}
# matrix_export: one op in three is c, n log-uniform in [8, 20]; the rest are
# d, n on a log-uniform grid from 40 to 400, each size taken while the size
# quantile is below its bound.  An op's cost grows about as n^2, so on a
# continuous n the median and p90 ops would sit where the cost is steepest
# and move with every op's jitter; on the grid each falls well inside one
# size's plateau: the median in n = 71's 40-67% of the ops, p90 in n = 400's
# top 17%.
D_SIZES = ((40, 0.1), (71, 0.5), (126, 0.6), (225, 0.75), (400, 1.0))
# Sizes of the inputs checked beyond the envelope, after the timed phase.
BEYOND_REDUCE_N = (48, 64, 128, 256)
BEYOND_C_N = (100, 150, 200, 400)
WARMUP_UNIT = 2**31  # stream units from here on are warm-up inputs, at the smallest size
OFFSET_UNIT = 2**32  # generator of the size sequence's offset

# One line each; BENCHMARK.json carries the same reasons.
WHY = {
    "reduce_spline": "16-segment splines sharing (n,m,k,l,alpha,beta), n in [12,20]: per-call cost of reduce; "
                     "15 of 16 calls rebuild the same matrices, so a cache shows here",
    "reduce_distinct": "single curves, n in [12,20], distinct (alpha,beta) per op: a cache gets no hits and must "
                       "cost nothing; reduce fails its check from n~28 (ROADMAP 2, 4), so larger n is probed apart",
    "matrix_export": "bernjac matrix to CSV, d n in {40,71,126,225,400}, 1 op in 3 c n in [8,20]: builders plus CSV writing, "
                     "no Gram; c fails its check from n~32 (ROADMAP 2, 4), so larger n is probed apart",
    "check_sweep": "bernjac check, n in [5,20]: cubic reference routes and specialfn do the work; "
                   "a production-route change should not move it, a specialfn change should",
}


@dataclass(frozen=True)
class ReduceInput:
    control_points: np.ndarray
    m: int
    k: int
    l: int
    alpha: float
    beta: float


@dataclass(frozen=True)
class MatrixInput:
    direction: str
    n: int
    k: int
    l: int
    alpha: float
    beta: float
    samples: tuple  # ((row index, column index), ...) in the CSV's labels


@dataclass(frozen=True)
class CheckInput:
    n: int
    k: int
    l: int
    alpha: float
    beta: float


def _rng(seed: int, name: str, unit: int) -> np.random.Generator:
    return np.random.default_rng((seed, zlib.crc32(name.encode()), unit))


def _size_quantile(seed: int, name: str, unit: int) -> float:
    if unit >= WARMUP_UNIT:
        return 0.0
    u0 = _rng(seed, name, OFFSET_UNIT).random()
    return (u0 + unit * GOLDEN) % 1.0


def _weights(rng) -> tuple[int, int, float, float]:
    k, l = (int(v) for v in rng.integers(0, 3, size=2))
    alpha, beta = (float(v) for v in rng.uniform(*ALPHA_BETA_RANGE, size=2))
    return k, l, alpha, beta


def _points(rng, n: int, dim: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=(n + 1, dim))


def _spline_unit(seed, unit):
    rng = _rng(seed, "reduce_spline", unit)
    n = 12 + int(_size_quantile(seed, "reduce_spline", unit) * (ENVELOPE["reduce"] - 11))
    m = int(rng.integers(math.ceil(n / 4), n // 2 + 1))
    k, l, alpha, beta = _weights(rng)
    dim = int(rng.integers(2, 4))
    return [ReduceInput(_points(rng, n, dim), m, k, l, alpha, beta) for _ in range(SEGMENTS)]


def _reduce_input(rng, n):
    m = round(rng.uniform(0.3, 0.6) * n)
    k, l, alpha, beta = _weights(rng)
    dim = int(rng.integers(2, 4))
    return ReduceInput(_points(rng, n, dim), m, k, l, alpha, beta)


def _distinct_unit(seed, unit):
    rng = _rng(seed, "reduce_distinct", unit)
    n = 12 + int(_size_quantile(seed, "reduce_distinct", unit) * (ENVELOPE["reduce"] - 11))
    return [_reduce_input(rng, n)]


def _log_uniform(q, lo, hi):
    return round(math.exp(math.log(lo) + q * math.log(hi / lo)))


def _matrix_unit(seed, unit):
    rng = _rng(seed, "matrix_export", unit)
    q = _size_quantile(seed, "matrix_export", unit)
    direction = "c" if unit % 3 == 0 else "d"
    n = _log_uniform(q, 8, ENVELOPE["c"]) if direction == "c" else next(n for n, top in D_SIZES if q < top)
    return [_matrix_input(rng, direction, n)]


def _matrix_input(rng, direction, n):
    k, l, alpha, beta = _weights(rng)
    i = rng.integers(k + l, n + 1, size=MATRIX_SAMPLES)
    h = rng.integers(k, n - l + 1, size=MATRIX_SAMPLES)
    rows, cols = (i, h) if direction == "c" else (h, i)
    samples = tuple((int(r), int(c)) for r, c in zip(rows, cols))
    return MatrixInput(direction, n, k, l, alpha, beta, samples)


def _check_unit(seed, unit):
    rng = _rng(seed, "check_sweep", unit)
    n = 5 + int(_size_quantile(seed, "check_sweep", unit) * 16)
    return [CheckInput(n, *_weights(rng))]


UNITS = {
    "reduce_spline": _spline_unit,
    "reduce_distinct": _distinct_unit,
    "matrix_export": _matrix_unit,
    "check_sweep": _check_unit,
}


def stream(name: str, seed: int):
    """Endless input stream of a workload."""
    unit = 0
    while True:
        yield from UNITS[name](seed, unit)
        unit += 1


def beyond_envelope_inputs(seed: int) -> list:
    """Seeded reduce and c-matrix inputs past the envelope, where the
    library is known to fail its checks."""
    rng = _rng(seed, "beyond_envelope", 0)
    return ([_reduce_input(rng, n) for n in BEYOND_REDUCE_N]
            + [_matrix_input(rng, "c", n) for n in BEYOND_C_N])


def warmup_inputs(name: str, seed: int) -> list:
    """Smallest-size inputs covering every kind of op the workload makes."""
    out = UNITS[name](seed, WARMUP_UNIT)[:1]
    if name == "matrix_export":
        out += _matrix_unit(seed, WARMUP_UNIT + 1)  # the next unit: the other direction
    return out


def input_bytes(inp) -> bytes:
    """Canonical encoding of one input, for the run's input digest."""
    fields = [repr(getattr(inp, f)) for f in inp.__dataclass_fields__ if f != "control_points"]
    raw = "|".join([type(inp).__name__] + fields).encode()
    if isinstance(inp, ReduceInput):
        raw += np.ascontiguousarray(inp.control_points).tobytes()
    return raw


class InputDigest:
    """sha256 over every input a run consumed, in order."""

    def __init__(self):
        self._h = hashlib.sha256()
        self.count = 0

    def add(self, inp) -> None:
        self._h.update(input_bytes(inp))
        self.count += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def prefix_digest(name: str, seed: int, count: int = 64) -> str:
    """Digest of the first ``count`` inputs: equal for equal seeds whatever
    the run length."""
    d = InputDigest()
    for inp, _ in zip(stream(name, seed), range(count)):
        d.add(inp)
    return d.hexdigest()


def _param_flags(inp) -> list[str]:
    # "--alpha=-5e-05", not "--alpha -5e-05", which argparse reads as an option
    return ["-n", str(inp.n), "-k", str(inp.k), "-l", str(inp.l),
            f"--alpha={inp.alpha!r}", f"--beta={inp.beta!r}"]


class Client:
    """Runs ops against the bernjac in ``sys.path``.

    ``call`` is the measured op; ``collect`` runs after the op's clock stops
    and reduces its output to what the checkers need, so a run never holds
    more than one output file.
    """

    def __init__(self, workdir: str):
        import bernjac
        import bernjac.cli

        self.workdir = workdir
        # looked up on every call, so the tracer's wrappers are seen
        self._bernjac = bernjac
        self._cli = bernjac.cli
        self._seq = 0

    def call(self, inp):
        if isinstance(inp, ReduceInput):
            bj = self._bernjac
            curve = bj.BezierCurve(inp.control_points)
            return bj.reduce(bj.ReductionProblem(curve, inp.m, inp.k, inp.l, inp.alpha, inp.beta))
        sink_out, sink_err = io.StringIO(), io.StringIO()
        if isinstance(inp, MatrixInput):
            self._seq += 1
            path = os.path.join(self.workdir, f"m{self._seq}.csv")
            argv = ["matrix", inp.direction, *_param_flags(inp), "--out", path]
        else:
            path = None
            argv = ["check", *_param_flags(inp)]
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            code = self._cli.main(argv)
        return code, sink_out.getvalue(), path

    def collect(self, inp, raw) -> tuple[object, int]:
        """(compact output for the checker, bytes of files the op wrote)."""
        if isinstance(inp, ReduceInput):
            return (raw.reduced.control_points, raw.l2_error), 0
        code, text, path = raw
        if path is None:
            return (code, text), 0
        if not os.path.exists(path):
            return (code, None), 0
        with open(path) as fh:
            out = extract_csv(fh, inp.samples)
        nbytes = os.path.getsize(path)
        os.unlink(path)
        return (code, out), nbytes


def extract_csv(lines, samples) -> dict:
    """Header, shape, finiteness, the sampled entries and the largest entry of
    each sampled row of a matrix CSV, read one line at a time."""
    lines = iter(lines)
    header = next(lines, "").rstrip("\n").split(",")
    col_at = {label: j for j, label in enumerate(header[1:], start=1)}
    wanted = {str(r) for r, _ in samples}
    rows, ragged, finite, kept = 0, False, True, {}
    for line in lines:
        rows += 1
        ragged |= line.count(",") != len(header) - 1
        lowered = line.lower()
        finite &= "nan" not in lowered and "inf" not in lowered
        label = line.split(",", 1)[0]
        if label in wanted:
            kept[label] = line.rstrip("\n").split(",")
    entries, peaks = [], []
    for r, c in samples:
        try:
            entries.append(float(kept[str(r)][col_at[str(c)]]))
        except (KeyError, IndexError, ValueError):
            entries.append(None)
        peaks.append(_row_peak(header, kept.get(str(r))))
    return {"corner": header[0], "shape": (rows, len(header) - 1), "ragged": ragged,
            "finite": finite, "entries": entries, "peaks": peaks}


def _row_peak(header, cells):
    """(column label, value) of a row's entry of largest magnitude, or None."""
    try:
        values = [abs(float(v)) for v in cells[1:]]
        j = max(range(len(values)), key=values.__getitem__) + 1
        return int(header[j]), float(cells[j])
    except (TypeError, ValueError, IndexError):
        return None
