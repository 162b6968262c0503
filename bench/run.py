"""sushilab benchmark: one closed-loop client over a batch workload.

    python3 bench/run.py --workload presets-serial --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; sushilab is imported from its src/.
Each measured run is one fresh interpreter (bench/worker.py) that runs the
workload's batteries one at a time.  Runs are started one after another
until their measured wall time adds up to --seconds and the workload's
fewest runs are made, and at least SETUP_SAMPLES fresh interpreters time
the set-up.  --seed picks the order of the batteries; each battery's own
seed is fixed, so its output is checked against a golden hash
(bench/workloads.py).

--trace 0 reports the end-to-end metrics: wall_s, setup_s and peak_rss_mb,
as medians over runs.  --trace 1 adds one traced run and reports the
per-layer metrics of bench/layers.py.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def _worker(workload, mode, order, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), workload, mode, ",".join(order)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run of {workload} passed the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"{mode} run of {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    order = list(workloads.WORKLOADS[workload]["batteries"])
    random.Random(seed).shuffle(order)

    fewest = workloads.WORKLOADS[workload]["runs"]
    runs = []
    while len(runs) < fewest or sum(r["wall_s"] for r in runs) < seconds:
        runs.append(_worker(workload, "run", order, deadline))
    setups = [(r["import_s"], r["spec_s"]) for r in runs]
    while len(setups) < SETUP_SAMPLES:
        r = _worker(workload, "setup", order, deadline)
        setups.append((r["import_s"], r["spec_s"]))
    traced = _worker(workload, "trace", order, deadline) if trace else None

    everything = runs + ([traced] if traced else [])
    failures = [(i, name, why) for i, r in enumerate(everything)
                for name, why in r["failures"].items()]
    attempted = sum(r["attempted"] for r in everything)
    wall = statistics.median([r["wall_s"] for r in runs])
    setup = statistics.median([i + s for i, s in setups])
    rss = statistics.median([r["peak_rss_mb"] for r in runs])

    print(f"workload {workload}: seed {seed}, battery order {','.join(order)}")
    print(f"  wall_s       {wall:10.3f} s      median of {len(runs)} run(s)")
    print(f"  setup_s      {setup:10.3f} s      median of {len(setups)} set-up(s)")
    print(f"  peak_rss_mb  {rss:10.1f} MB     median of {len(runs)} run(s)")
    print(f"  failed_share {len(failures) / attempted:10.3f} share  "
          f"{len(failures)} of {attempted} battery runs failed")
    for i, name, why in failures:
        print(f"  FAILED run {i} {name}: {why}")

    if trace:
        metrics = dict(traced["layers"])
        metrics["experiment.replicates_per_s"] = runs[0]["replicates"] / wall
        metrics["setup.import_s"] = statistics.median([i for i, _ in setups])
        metrics["setup.spec_s"] = statistics.median([s for _, s in setups])
        metrics["process.cpu_s"] = statistics.median([r["cpu_s"] for r in runs])
        metrics["trace.overhead_s"] = traced["wall_s"] - wall
        print(f"  traced run: wall_s {traced['wall_s']:.3f} s, "
              f"spans in {traced['trace_file']}")
        out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
               for m in layers.catalogue()}
    else:
        out = {"wall_s": {"value": wall, "unit": "s"},
               "setup_s": {"value": setup, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": out}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "sushilab" / "__init__.py").is_file():
        print(f"error: no sushilab sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
