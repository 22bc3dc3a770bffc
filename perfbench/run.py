"""bernjac benchmark: one seeded workload, one closed-loop client, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src/``.
Inputs come from the seed alone (see ``workloads.py``).  One client calls the
library in this process, waiting for each call before the next, with BLAS on
one thread.  After the timed phase every output is checked against an
independent reference (``checkers.py``); then a few seeded inputs past the
sizes where the library passes those checks are run and checked apart, so
the known loss of accuracy there shows in every run without failing it.

Times in the result are at a reference host speed (``speed.py``): each
latency is divided by the host factor a fixed kernel measured around it, so
the host's own drift does not read as a change of the library.  The raw
wall-clock figures are printed beside them and kept in the record.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the library's
module boundaries (``tracer.py``), prints the per-layer metrics and writes
the spans to ``perfbench/results/spans-<workload>.npz``.  Either way the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it are for people.  Every run also appends
its record, stamped with commit, versions, nproc, BLAS threads, seed and the
line count of ``src/``, to ``perfbench/results/runs.jsonl`` (or ``--record``);
``compare.py`` compares two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import boot  # noqa: E402

WORKLOADS = ("reduce_spline", "reduce_distinct", "matrix_export", "check_sweep")
# Fixed, so runs compare like with like.  Every workload leaves well over ten
# samples beyond it; higher percentiles of the millisecond ops mostly
# measure the host's scheduling hiccups.
TAIL_PERCENTILE = 90
SETUP_PROBES = 9
SPAN_CAP = 1_000_000  # the traced phase ends early once it holds this many spans

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "cli.bytes_written":
        return "B"
    if name == "verify.precision_digits":
        return "digits"
    return "count"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None, help="JSON-lines file the run's record is appended to")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# stamp


def _git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(root, ".git", name)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines(src: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(src):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def stamp(root: str, src: str, seed: int) -> dict:
    import numpy

    return {
        "commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in boot.BLAS_THREAD_VARS},
        "seed": seed,
        "src_lines": src_lines(src),
    }


# ---------------------------------------------------------------------------
# phases


def measure_setup(name: str, seed: int, root: str, workdir: str, speed) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to its first op being
    ready, and when each probe started; ``speed`` samples between probes."""
    env = dict(os.environ, **boot.blas_env())
    starts, times = [], []
    for _ in range(SETUP_PROBES):
        speed.sample()
        t0 = perf_counter()
        starts.append(t0)
        with subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"), name, str(seed), workdir],
                              cwd=root, env=env, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            t1 = perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line != "ready":
                raise RuntimeError(f"set-up probe exited {proc.returncode} after {line!r}")
        times.append(t1 - t0)
    return times, starts


def timed_phase(client, inputs, seconds: float, spool, speed, tracer=None):
    """Closed loop with one client for ``seconds`` of wall time.

    Each op's compact output, or the exception it raised, is pickled to
    ``spool`` after its clock stops; checking waits until the phase is over,
    so the checkers neither share the caches with the ops nor keep outputs
    in memory.  ``speed`` samples the host speed between ops.  Returns
    (op start times, latencies, bytes the ops wrote, input digest).
    """
    import workloads

    digest = workloads.InputDigest()
    starts, lat, written = [], [], 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline and not (tracer is not None and tracer.full):
        speed.sample_if_due()
        inp = next(inputs)
        digest.add(inp)
        token = tracer.begin_op(len(lat)) if tracer is not None else None
        t0 = perf_counter()
        try:
            raw, err = client.call(inp), None
        except Exception as exc:  # an op that raised is a failed op; the run goes on
            raw, err = None, exc
        t1 = perf_counter()
        if tracer is not None:
            tracer.end_op(token)
        starts.append(t0)
        lat.append(t1 - t0)
        out = None
        if err is None:
            out, nbytes = client.collect(inp, raw)
            written += nbytes
        pickle.dump((out, None if err is None else repr(err)), spool)
    return starts, lat, written, digest


def verify(name: str, inputs, count: int, spool):
    """Verdicts for the first ``count`` inputs against the spooled outputs,
    and how many ``bernjac check`` reports passed (exit 0)."""
    import checkers

    check = checkers.CHECKERS[name]()
    verdicts, check_passes = [], 0
    for inp, _ in zip(inputs, range(count)):
        out, err = pickle.load(spool)
        verdicts.append(checkers.Verdict(False, 0.0, f"raised {err}") if err else check(inp, out))
        check_passes += name == "check_sweep" and err is None and out[0] == 0
    return verdicts, check_passes


def check_beyond_envelope(client, seed: int):
    """(label, verdict) for each seeded input past the envelope of the timed
    ops, where the library is known to fail; they are neither timed nor
    counted in ``failed``."""
    import checkers
    import workloads

    out = []
    for inp in workloads.beyond_envelope_inputs(seed):
        if isinstance(inp, workloads.ReduceInput):
            label, check = f"reduce n={inp.control_points.shape[0] - 1}", checkers.ReduceChecker()
        else:
            label, check = f"{inp.direction} n={inp.n}", checkers.check_matrix
        try:
            verdict = check(inp, client.collect(inp, client.call(inp))[0])
        except Exception as exc:
            verdict = checkers.Verdict(False, 0.0, f"raised {exc!r}")
        out.append((label, verdict))
    return out


def replay(client, inputs, count: int) -> float:
    """Seconds of op time the first ``count`` inputs take untraced."""
    total = 0.0
    for inp, _ in zip(inputs, range(count)):
        t0 = perf_counter()
        try:
            raw = client.call(inp)
        except Exception:  # counted as failed in the traced phase already
            raw = None
        total += perf_counter() - t0
        if raw is not None:
            client.collect(inp, raw)
    return total


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    root = os.getcwd()
    src = boot.prepare(root)

    import bernjac
    import numpy as np
    import workloads
    from speed import Speedometer

    if not os.path.abspath(bernjac.__file__).startswith(src + os.sep):
        print(f"error: imported bernjac from {bernjac.__file__}, not {src}", file=sys.stderr)
        return 2

    name, seed = args.workload, args.seed
    meta = stamp(root, src, seed)
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=results)
    try:
        client = workloads.Client(workdir)
        for inp in workloads.warmup_inputs(name, seed):
            client.collect(inp, client.call(inp))
        speed = Speedometer()
        setup, setup_starts = ([], []) if args.trace else measure_setup(name, seed, root, workdir, speed)
        with open(os.path.join(workdir, "outputs.pickle"), "w+b") as spool:
            tracer = None
            if args.trace:
                from tracer import Tracer, layer_metrics

                tracer = Tracer(SPAN_CAP)
                with tracer:
                    starts, lat, written, digest = timed_phase(client, workloads.stream(name, seed),
                                                               args.seconds, spool, speed, tracer)
                untraced = replay(client, workloads.stream(name, seed), len(lat))
            else:
                starts, lat, written, digest = timed_phase(client, workloads.stream(name, seed),
                                                           args.seconds, spool, speed)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            spool.seek(0)
            verdicts, check_passes = verify(name, workloads.stream(name, seed), len(lat), spool)
        beyond = check_beyond_envelope(client, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(lat)
    failed = sum(not v.ok for v in verdicts)
    notes = [v.note for v in verdicts if not v.ok]
    digits = [v.digits for v in verdicts if v.digits is not None]
    precision = min(digits) if digits else None
    check_pass_ratio = check_passes / attempted
    busy = sum(lat)
    host_factor = speed.factor()

    print("# meta " + json.dumps(meta, sort_keys=True))
    print(f"# workload {name}: {workloads.WHY[name]}")
    print(f"# inputs: {digest.count} consumed, sha256 {digest.hexdigest()}; "
          f"first 64 sha256 {workloads.prefix_digest(name, seed)}")
    print(f"# closed loop, 1 client, {attempted} ops in {busy:.3f} s of op time"
          + ("" if tracer is None else f" (traced, {len(tracer.start)} spans"
                                        + (", stopped at the span cap)" if tracer.full else ")")))
    print(f"# host speed factor {host_factor:.4f} (median of {len(speed.samples)} kernel timings; "
          "above 1: slower than the reference)")
    print(f"# fail_ratio {failed / attempted:.4f} ({failed}/{attempted} raised, exited 2 or failed verification)")
    print("# precision_digits " + ("n/a (no numeric reference)" if precision is None else f"{precision:.2f}")
          + "   check_pass_ratio " + f"{check_pass_ratio:.4f}")
    beyond_failed = sum(not v.ok for _, v in beyond)
    print(f"# beyond the envelope (known defect, ROADMAP items 2, 4; not timed, not in failed): "
          f"{beyond_failed}/{len(beyond)} failed: "
          + "; ".join(f"{label} {'ok' if v.ok else v.note}" for label, v in beyond))
    kinds = [note.split(" (")[0] for note in notes]
    for kind in sorted(set(kinds), key=kinds.count, reverse=True)[:5]:
        example = notes[kinds.index(kind)]
        print(f"# failure x{kinds.count(kind)}: {example}")

    if args.trace:
        spans = tracer.arrays()
        metrics = layer_metrics(tracer.names, spans)
        metrics["cli.bytes_written"] = written / attempted
        metrics["cli.check_pass_ratio"] = check_pass_ratio
        metrics["trace_overhead_ratio"] = untraced / busy
        metrics["verify.fail_ratio"] = failed / attempted
        metrics["verify.precision_digits"] = 0.0 if precision is None else precision
        metrics["verify.beyond_envelope_fail_ratio"] = beyond_failed / len(beyond)
        tracer.save(os.path.join(results, f"spans-{name}.npz"))
        units = {k: layer_unit(k) for k in metrics}
    else:
        # peak_rss_mb is read before the checkers are imported: it covers
        # the library, the inputs and the client, not the references
        raw = {
            "ops_per_s": attempted / busy,
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": float(np.percentile(lat, TAIL_PERCENTILE)) * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        at_ref = np.array(lat) / speed.local_factors(starts)
        metrics = {
            "ops_per_s": attempted / float(np.sum(at_ref)),
            "op_p50_ms": float(np.median(at_ref)) * 1e3,
            "op_tail_ms": float(np.percentile(at_ref, TAIL_PERCENTILE)) * 1e3,
            "setup_s": float(np.median(np.array(setup) / speed.local_factors(setup_starts))),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        beyond = sum(t * 1e3 > raw["op_tail_ms"] for t in lat)
        print(f"# op_tail_ms is p{TAIL_PERCENTILE} of {attempted} samples, {beyond} beyond it; "
              f"setup_s is the median of {len(setup)} fresh processes {[round(s, 4) for s in setup]}")
        print(f"# {'metric':38s} {'at reference speed':>18s} {'raw wall clock':>16s}")
    for key, value in metrics.items():
        print(f"{key:40s} {value:16.6f} {'' if args.trace else f'{raw[key]:16.6f}'} {units[key]}")

    record = {"workload": name, "trace": args.trace, "meta": meta, "host_factor": host_factor,
              "raw_metrics": None if args.trace else raw, "attempted": attempted, "failed": failed,
              "precision_digits": precision, "check_pass_ratio": check_pass_ratio,
              "beyond_envelope_failed": beyond_failed,
              "inputs_sha256": digest.hexdigest(), "metrics": metrics}
    with open(args.record or os.path.join(results, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
