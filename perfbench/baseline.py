#!/usr/bin/env python3
"""Run every workload at several seeds and write baseline.json.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 25

Each run is ``run.py --trace 0`` in a subprocess, from the root of the
checkout. For each workload and end-to-end metric, baseline.json
holds the median and quartiles over the seeds and the spread,
(Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles. It also lists the calls that failed in ``expected.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter

import run as bench
from record import parse_seeds


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def known_failures():
    """Per workload, each failing "instance/route: reason" with the number
    of recorded seeds it failed on."""
    path = bench.HERE / "expected.json"
    recorded = json.loads(path.read_text()) if path.is_file() else {}
    out = {}
    for workload, seeds in recorded.items():
        fails = Counter("%s: %s" % (key, outcome["fail"].split(";")[0])
                        for calls in seeds.values()
                        for key, outcome in calls.items() if "fail" in outcome)
        out[workload] = {"seeds": len(seeds), "failures": dict(sorted(fails.items()))}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    args = ap.parse_args(argv)
    out = {"seeds": args.seeds, "seconds": float(args.seconds), "workloads": {}}
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(bench.HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                cwd=bench.ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, "ok", flush=True)
        out["workloads"][workload] = {name: summarize(v) for name, v in values.items()}
    out["known_failures"] = known_failures()
    (bench.HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
