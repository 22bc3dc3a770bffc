"""Write a ``BENCH_<pr>.json``: alternating benchmark pairs of two revisions.

    python3 tools/bench_pairs.py --parent REV --change REV --pairs 10 --seed0 N \\
        --claim WORKLOAD:METRIC --out BENCH_<pr>.json [--trace WORKLOAD ...]

Run from the root of a git checkout.  Each revision is exported with
``git archive`` into its own temporary directory, and every run is
``python3 perfbench/run.py --workload W --seed S --seconds T --record FILE``
in that revision's tree, one run at a time.  Pair i uses seed N + i; within
it each workload of BENCHMARK.json runs once per side, back to back, the
parent first when i is even and the change first when i is odd, so neither
side always runs second.  T is BENCHMARK.json's ``run_seconds``, so a claim
is measured at the run length the benchmark sets.  Each ``--trace W`` adds
two ``--trace 1`` runs of W per tree, in the order parent, change, change,
parent at seeds N + pairs and N + pairs + 1, so each tree runs first once;
beside each of their ``*_ms`` metrics the record holds ``*_ms/host_factor``,
the time divided by that run's host factor, so the two trees' layers compare
at one host speed.  Then ``perfbench/compare.py`` compares the two record
files.

The output holds every record, the compare table and its exit code, and a
claim block for ``--claim``: each side's quartiles, the change of median,
the pairs in which the change reads better, the parent's quartile distance
and the distance of the medians.  The other end-to-end metrics of every
workload get the same block.  Exit code: compare's (1 means it found a
regression), or 2 when a revision cannot be exported or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.getcwd()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help="git revision of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--claim", required=True, metavar="WORKLOAD:METRIC")
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="append", default=[], metavar="WORKLOAD",
                    help="add one --trace 1 run of WORKLOAD per tree (repeatable)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    return args


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def export(rev: str, dest: str) -> str:
    """Extract ``rev`` into ``dest`` with git archive; return its short hash."""
    try:
        short = subprocess.run(["git", "rev-parse", "--short", f"{rev}^{{commit}}"], cwd=ROOT, check=True,
                               capture_output=True, text=True).stdout.strip()
        os.makedirs(dest)
        archive = subprocess.Popen(["git", "archive", "--format=tar", short], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    except subprocess.CalledProcessError as err:
        fail(f"cannot export {rev}: {' '.join(err.cmd)} exited {err.returncode}")
    archive.stdout.close()
    if archive.wait() != 0:
        fail(f"git archive {rev} exited {archive.returncode}")
    return short


def run(tree: str, workload: str, seed: int, seconds: float, record: str, trace: int = 0) -> None:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace), "--record", record]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail(f"{' '.join(cmd[1:])} exited {proc.returncode} in {tree}")


def trace_runs(trees: dict, workloads: list[str], seed: int, seconds: float, records: dict) -> None:
    """Two ``--trace 1`` runs of each workload per tree, parent, change, change,
    parent, at seeds ``seed`` and ``seed + 1``: each tree runs first once and
    second once, so an order effect shows between a tree's two runs."""
    for workload in workloads:
        for side, s in (("parent", seed), ("change", seed), ("change", seed + 1), ("parent", seed + 1)):
            print(f"trace {workload} {side} seed {s}", file=sys.stderr, flush=True)
            run(trees[side], workload, s, seconds, records[side], trace=1)


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def block(parent: dict, change: dict, better: str, summary) -> dict:
    """Claim-style summary of one metric; ``parent`` and ``change`` map seed
    to value, and a pair counts as better when the change beats the parent
    at that seed."""
    seeds = sorted(set(parent) & set(change))
    p, c = summary([parent[s] for s in seeds]), summary([change[s] for s in seeds])
    wins = sum(change[s] < parent[s] if better == "lower" else change[s] > parent[s] for s in seeds)
    return {
        "parent_q1_median_q3": [round(v, 4) for v in p],
        "change_q1_median_q3": [round(v, 4) for v in c],
        "change_of_median": f"{(c[1] - p[1]) / abs(p[1]):+.1%}" if p[1] else "n/a",
        "pairs_better": f"{wins}/{len(seeds)}",
        "parent_quartile_spread": round(p[2] - p[0], 4),
        "median_difference": round(abs(c[1] - p[1]), 4),
    }


def host_scaled(record: dict) -> dict:
    """A traced run without its meta and raw metrics, each ``*_ms`` metric
    with its ``*_ms/host_factor`` twin (``perfbench/speed.py``: a factor
    above 1 means the host ran slower than the reference)."""
    metrics = {}
    for name, value in record["metrics"].items():
        metrics[name] = value
        if name.endswith("_ms"):
            metrics[f"{name}/host_factor"] = value / record["host_factor"]
    return {**{k: v for k, v in record.items() if k not in ("meta", "raw_metrics")}, "metrics": metrics}


def by_seed(records: list[dict], workload: str, metric: str) -> dict:
    return {r["meta"]["seed"]: r["metrics"][metric] for r in records if r["workload"] == workload}


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    claim_workload, _, claim_metric = args.claim.partition(":")
    specs = {m["name"]: m for m in bench["end_to_end"]}
    unknown = [w for w in args.trace + [claim_workload] if w not in workloads]
    if unknown or claim_metric not in specs:
        fail(f"unknown workload or metric in {unknown or args.claim}")
    seconds = bench["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        commits = {side: export(getattr(args, side), trees[side]) for side in trees}
        records = {side: os.path.join(tmp, f"{side}.jsonl") for side in trees}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    print(f"pair {i + 1}/{args.pairs} {workload} {side}", file=sys.stderr, flush=True)
                    run(trees[side], workload, args.seed0 + i, seconds, records[side])
        traced = {side: os.path.join(tmp, f"{side}-trace.jsonl") for side in trees}
        trace_runs(trees, args.trace, args.seed0 + args.pairs, seconds, traced)
        cmp = subprocess.run([sys.executable, "perfbench/compare.py", records["parent"], records["change"]],
                             cwd=trees["change"], capture_output=True, text=True)
        if cmp.returncode not in (0, 1):
            sys.stderr.write(cmp.stderr)
            fail(f"perfbench/compare.py exited {cmp.returncode}")
        sys.path.insert(0, os.path.join(trees["change"], "perfbench"))
        from compare import summary

        runs = {side: load(records[side]) for side in trees}
        traces = {side: load(traced[side]) if args.trace else [] for side in trees}

    def blocks(workload: str) -> dict:
        return {m: block(by_seed(runs["parent"], workload, m), by_seed(runs["change"], workload, m),
                         specs[m]["better"], summary) for m in specs}

    claim = blocks(claim_workload)
    claim = {"workload": claim_workload, "metric": claim_metric, **claim.pop(claim_metric), **claim}

    def per_side(field: str) -> dict:
        return {w: [sum(r[field] for r in runs[side] if r["workload"] == w) for side in trees]
                for w in workloads}

    digits = {w: {f"{side}_median": round(summary(vals)[1], 3) for side in trees
                  if (vals := [r["precision_digits"] for r in runs[side]
                               if r["workload"] == w and r["precision_digits"] is not None])}
              for w in workloads}
    seeds = f"{args.seed0}-{args.seed0 + args.pairs - 1}" if args.pairs > 1 else str(args.seed0)
    out = {
        "description": (
            f"Parent {commits['parent']} against change {commits['change']}. {args.pairs} alternating "
            f"parent/change pairs per workload at {seconds:g} s, seeds {seeds}, parent first in even pairs and "
            "change first in odd ones, both sides of one workload back to back, the workloads interleaved "
            f"within each pair index, one run at a time on a {os.cpu_count()}-CPU host; each side run from "
            "its own git archive of its commit. Records written by `python3 perfbench/run.py --workload W "
            f"--seed S --seconds {seconds:g} --record FILE`; `compare` is the output of `python3 "
            "perfbench/compare.py parent.jsonl change.jsonl` (exit code in compare_exit). The claim block "
            "counts, per seed, the pairs in which the change reads better."
            + (f" `trace` holds two `--trace 1` runs per tree of {', '.join(args.trace)}, seeds "
               f"{args.seed0 + args.pairs} and {args.seed0 + args.pairs + 1}, run parent, change, change, "
               "parent; each `*_ms` metric there has a `*_ms/host_factor` twin, divided by that run's host "
               "factor." if args.trace else "")
            + f" Written by `python3 tools/bench_pairs.py {' '.join(argv if argv is not None else sys.argv[1:])}`."
        ),
        "claim": claim,
        "other_workloads": {w: blocks(w) for w in workloads if w != claim_workload},
        "failed_ops_parent_change": per_side("failed"),
        "attempted_ops_parent_change": per_side("attempted"),
        "beyond_envelope_failed_parent_change": per_side("beyond_envelope_failed"),
        "precision_digits": {w: d for w, d in digits.items() if d},
        "src_lines_parent_change": [runs[side][0]["meta"]["src_lines"] for side in trees],
        "compare_exit": cmp.returncode,
        "compare": cmp.stdout.splitlines(),
        "trace": {side: {w: [host_scaled(r) for r in traces[side] if r["workload"] == w] for w in args.trace}
                  for side in trees},
        **runs,
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print("\n".join(out["compare"]))
    print(json.dumps({"claim": out["claim"]}, indent=1))
    return cmp.returncode


if __name__ == "__main__":
    sys.exit(main())
