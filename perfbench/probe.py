"""Set-up probe: a fresh process that imports bernjac, runs the workload's
warm-up ops and prints ``ready``.  ``run.py`` times it from spawn to that
line.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR   (from the checkout root)
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import boot  # noqa: E402

boot.prepare(os.getcwd())

import workloads  # noqa: E402

name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
client = workloads.Client(workdir)
for inp in workloads.warmup_inputs(name, seed):
    client.collect(inp, client.call(inp))
print("ready", flush=True)
