#!/usr/bin/env python3
"""Record every call's outcome into expected.json.

    python3 perfbench/record.py --seeds 0-39

Runs one untraced pass of each workload per seed at the current commit
and stores, per call, the digests of its outputs or the reason it failed.
run.py then fails any call whose outputs differ from the recorded ones.
Record only from a commit whose outputs are known to be right.
"""

import argparse
import json
import os
import shutil
import sys

import run as bench


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-39", help="inclusive range, such as 0-39")
    ap.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    args = ap.parse_args(argv)
    error = bench.import_package()
    if error:
        print("error: " + error, file=sys.stderr)
        return 2
    import routes

    path = bench.HERE / "expected.json"
    data = json.loads(path.read_text()) if path.is_file() else {}
    for workload in args.workloads.split(","):
        wl = bench.WORKLOADS[workload]
        for seed in parse_seeds(args.seeds):
            work = bench.WORK / ("record-%s-s%d-p%d" % (workload, seed, os.getpid()))
            try:
                bench.write_inputs(workload, seed, work / "inputs")
                (work / "out").mkdir()
                calls = bench.make_calls(workload, seed, work / "inputs", work / "out", False)
                routes.prepare(calls)
                results = bench.check_pass(
                    bench.run_pass(calls, routes.UNTRACED.get, wl.timeout), {})
            finally:
                shutil.rmtree(work, ignore_errors=True)
            data.setdefault(workload, {})[str(seed)] = {
                bench._key(r): {"fail": r["fail"]} if "fail" in r else {"outputs": r["outputs"]}
                for r in results}
            print(workload, seed, sum("fail" in r for r in results), "failed calls", flush=True)
            path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
