#!/usr/bin/env python3
"""The minpfsa benchmark: time from a sequence file to a machine, per route.

    python3 perfbench/run.py --workload many-hist --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. The package is imported from ``src/``
of that checkout. Set-up writes the workload's sequence files (see
``gen.py``); then the benchmark runs passes over them until ``--seconds``
have gone by. A pass makes every call of the workload once, one at a time
(a closed loop with one client), each call in a forked child with the
workload's per-call timeout. Times are in reference seconds: each call
is scaled by how fast the host ran around it (see ``calib.py``). A
route's time is the sum over the workload's files of each call's median
over the passes. ``--trace 1`` alternates
an untraced pass with a traced one and reports the per-layer metrics
instead. The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
"""

import os

# one BLAS thread: the children run one at a time on a 2-core box
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import gen  # noqa: E402
from calib import REFERENCE_S, calibrate, to_reference  # noqa: E402
from child import run_in_child  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 3
ROUTES = ("cssr", "ip", "ip_lp", "clique", "nd", "sample")
# the routes that finish on every workload at the seed commit
CHEAP = ("cssr", "sample")


@dataclass(frozen=True)
class Instance:
    name: str
    L: int
    spec: dict
    routes: tuple = ROUTES


@dataclass(frozen=True)
class Workload:
    timeout: float  # per call, seconds; no call at the seed commit ends within half of it
    sample_symbols: int
    instances: tuple


def _random(k, states, n, key):
    return dict(family="random", k=k, states=states, n=n, key=key)


def _shift(k, m, n, key):
    return dict(family="shift", k=k, m=m, n=n, key=key)


WORKLOADS = {
    # 27 histories from well separated sources: pairwise tests, easy search,
    # clique covers and LP export
    "many-hist": Workload(6.0, 10000, (
        Instance("k3L3-10k", 3, _shift(3, 2, 10_000, 101)),
        Instance("k3L3-15k", 3, _shift(3, 2, 15_000, 102)),
        Instance("k3L3-20k-a", 3, _shift(3, 2, 20_000, 103)),
        Instance("k3L3-20k-b", 3, _shift(3, 2, 20_000, 104)),
    )),
    # 64 histories: the exact routes do not finish at the seed commit. Each
    # of their calls costs a whole timeout, so they run on two files; cssr
    # and sample, whose cost changes from one draw of these sources to the
    # next, run on eight more, so that their sums vary less from seed to seed
    "wall": Workload(1.0, 5000, (
        Instance("k4L3-a", 3, _random(4, 3, 20_000, 201)),
        Instance("k4L3-b", 3, _random(4, 3, 20_000, 202)),
        Instance("k4L3-c", 3, _random(4, 3, 20_000, 203), CHEAP),
        Instance("k4L3-d", 3, _random(4, 3, 20_000, 204), CHEAP),
        Instance("k4L3-e", 3, _random(4, 3, 20_000, 205), CHEAP),
        Instance("k4L3-f", 3, _random(4, 3, 20_000, 206), CHEAP),
        Instance("k4L3-g", 3, _random(4, 3, 20_000, 207), CHEAP),
        Instance("k4L3-h", 3, _random(4, 3, 20_000, 208), CHEAP),
        Instance("k4L3-i", 3, _random(4, 3, 20_000, 209), CHEAP),
        Instance("k4L3-j", 3, _random(4, 3, 20_000, 210), CHEAP),
    )),
}

ROUTE_METRIC = {"cssr": "infer_cssr_s", "ip": "infer_ip_s", "ip_lp": "infer_ip_lp_s",
                "clique": "infer_clique_s", "nd": "nd_optimum_s", "sample": "sample_s"}
# statuses that mean the program itself misbehaved, not that it ran out of budget
# or stopped with one of its typed errors
BROKEN = ("crash", "died", "killed")

PER_LAYER_TIMES = (
    "sequences.parse_sequence", "sequences.count_windows",
    "stat_tests.compatibility_graph",
    "cssr.cssr_split", "cssr.cssr_reconstruct",
    "exact.succ_table", "exact.solve_msdpfsa", "exact.solve_msndpfsa",
    "exact.build_ip_model", "exact.to_lp_text",
    "cliques.pipeline_cssr", "cliques.bron_kerbosch", "cliques.min_clique_cover",
    "cliques.enumerate_exact_covers", "cliques.reconstruct_deterministic",
    "machine.build_machine", "machine.to_json", "machine.sample",
)
PER_LAYER_COUNTS = (
    "sequences.symbols", "sequences.windows",
    "stat_tests.pair_tests", "stat_tests.edges",
    "cssr.states",
    "exact.msd_nodes", "exact.msd_lower_bound", "exact.msd_optimum", "exact.timeouts",
    "exact.msnd_nodes", "exact.lp_bytes",
    "cliques.maximal_cliques", "cliques.cover_optimum", "cliques.exact_covers",
    "cliques.cover_overflows",
    "machine.builds", "machine.json_bytes", "machine.sample_symbols",
)


def write_inputs(workload, seed, directory):
    directory.mkdir(parents=True, exist_ok=True)
    for inst in WORKLOADS[workload].instances:
        (directory / (inst.name + ".txt")).write_text(gen.make_text(inst.spec, seed))


def set_up(workload, seed, work):
    """Import the package, generate and write the inputs, SETUP_REPS times
    in fresh interpreters, each pinned to one CPU with a calibration run
    on that CPU before and after it. Returns (median reference seconds,
    input directory, whether every repetition wrote the same bytes)."""
    times, dirs = [], []
    cpus = os.sched_getaffinity(0)
    try:
        for rep in range(SETUP_REPS):
            directory = work / ("inputs%d" % rep)
            cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                   str(directory), "--workload", workload, "--seed", str(seed)]
            # the interpreter inherits the pin
            os.sched_setaffinity(0, {sorted(cpus)[rep % len(cpus)]})
            before = calibrate()
            t0 = time.perf_counter()
            subprocess.run(cmd, check=True)
            seconds = time.perf_counter() - t0
            times.append(to_reference(seconds, (before + calibrate()) / 2))
            dirs.append(directory)
    finally:
        os.sched_setaffinity(0, cpus)
    names = sorted(p.name for p in dirs[0].iterdir())
    same = all(sorted(p.name for p in d.iterdir()) == names for d in dirs[1:]) and all(
        (d / n).read_bytes() == (dirs[0] / n).read_bytes() for d in dirs[1:] for n in names)
    return statistics.median(times), dirs[0], same


def make_calls(workload, seed, inputs, outdir, traced):
    wl = WORKLOADS[workload]
    tag = "traced" if traced else "cli"
    calls = []
    for idx, inst in enumerate(wl.instances):
        for route in inst.routes:
            arg = {"instance": inst.name, "route": route, "L": inst.L,
                   "path": str(inputs / (inst.name + ".txt")),
                   "out": str(outdir / ("%s.%s.%s.json" % (inst.name, route, tag)))}
            if route == "ip_lp":
                arg["lp"] = str(outdir / ("%s.%s.lp" % (inst.name, tag)))
            if route == "sample":
                arg["symbols"] = wl.sample_symbols
                arg["sample_seed"] = [seed, idx]
            calls.append(arg)
    return calls


def run_pass(calls, body, timeout, shift=0):
    """One call after another, each in its own child; body(route) gives
    the call body. The children take the CPUs in turn, starting at
    ``shift``: a call moves to the other CPU from one pass to the next,
    and a slow spell on one CPU spoils only some of its samples."""
    cpus = sorted(os.sched_getaffinity(0))
    results = []
    for i, arg in enumerate(calls):
        reply = run_in_child(body(arg["route"]), arg, timeout,
                             cpu=cpus[(i + shift) % len(cpus)])
        reply["instance"], reply["route"] = arg["instance"], arg["route"]
        results.append(reply)
    return results


def _key(r):
    return "%s/%s" % (r["instance"], r["route"])


def check_pass(results, expected, reference=None, invariants=True):
    """Mark every call that fails: ``fail`` holds the reason. ``broken`` is
    set where the program misbehaved (wrong output, crash) rather than ran
    out of budget or stopped with a typed error.

    expected maps "instance/route" to the outcome recorded at the seed
    commit; reference is an earlier pass over the same calls (the first
    untraced pass, or the untraced twin of a traced pass), whose outputs
    must be reproduced. invariants=False skips the cross-route checks,
    which need the data only the untraced calls return."""
    by_key = {_key(r): r for r in results}
    ref = {_key(r): r for r in reference or ()}
    for r in results:
        key = _key(r)
        if r["status"] != "ok":
            last = (r.get("error") or "").strip().splitlines()[-1:]
            r["fail"] = " ".join([r["status"]] + last)
            r["broken"] = r["status"] in BROKEN
            continue
        rec = expected.get(key)
        if rec and rec.get("outputs") and rec["outputs"] != r["outputs"]:
            r["fail"] = "output differs from the seed commit's %s" % rec["outputs"]
        elif key in ref and ref[key]["status"] == "ok" and ref[key]["outputs"] != r["outputs"]:
            r["fail"] = "output differs from the reference pass"
        elif r["route"] == "ip" and r["violations"]:
            r["fail"] = "ip machine has %d determinism violations" % r["violations"]
    for inst in {r["instance"] for r in results} if invariants else ():
        ip, nd, clique, lp = (by_key.get("%s/%s" % (inst, route))
                              for route in ("ip", "nd", "clique", "ip_lp"))
        ip_ok = ip is not None and ip["status"] == "ok"
        if nd and nd["status"] == "ok" and "fail" not in nd:
            if nd["optimum"] != nd["cover_optimum"]:
                nd["fail"] = "nd optimum %d != clique-cover optimum %d" % (
                    nd["optimum"], nd["cover_optimum"])
            elif ip_ok and nd["optimum"] > ip["states"]:
                nd["fail"] = "nd optimum %d > ip optimum %d" % (nd["optimum"], ip["states"])
        if ip_ok and clique and clique["status"] == "ok" and "fail" not in clique \
                and clique["states"] < ip["states"]:
            clique["fail"] = "clique route %d states < ip optimum %d" % (
                clique["states"], ip["states"])
        if ip_ok and lp and lp["status"] == "ok" and "fail" not in lp \
                and lp["outputs"]["json"] != ip["outputs"]["json"]:
            lp["fail"] = "--lp changed the ip machine"
    for r in results:
        if "fail" in r and "broken" not in r:
            r["broken"] = True
    return results


def charged(r, timeout):
    """A call's time: in reference seconds when it succeeded, at least the
    timeout when its timer fired, and the full timeout for any other
    failure. The timeout is a budget of wall seconds and is not scaled."""
    if "fail" not in r:
        return to_reference(r["seconds"], r["cal_s"])
    if r["status"] == "timeout" and r.get("seconds"):
        return max(r["seconds"], timeout)
    return timeout


def call_median(passes, time_of, route=None):
    """Sum over calls (of one route, or all) of the call's median over
    the passes."""
    per_call = defaultdict(list)
    for p in passes:
        for r in p:
            if route in (None, r["route"]):
                per_call[_key(r)].append(time_of(r))
    return sum(statistics.median(v) for v in per_call.values())


def end_to_end(passes, timeout, setup_s):
    metrics = {"setup_s": (setup_s, "s")}
    for route, name in ROUTE_METRIC.items():
        metrics[name] = (call_median(passes, lambda r: charged(r, timeout), route), "s")
    # add-half estimate, so that a run without failures reads above 0
    frac = [(sum("fail" in r for r in p) + 0.5) / (len(p) + 1) for p in passes]
    metrics["failed_frac"] = (statistics.median(frac), "ratio")
    rss = [r["rss_kb"] for p in passes for r in p if "fail" not in r]
    metrics["peak_rss_mb"] = (max(rss, default=0) / 1024.0, "MB")
    return metrics


def self_times(results):
    """Per span name, summed duration minus the time of its child spans."""
    out = defaultdict(float)
    for r in results:
        spans = r.get("spans", ())
        child_time = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        for i, s in enumerate(spans):
            out[s["name"]] += s["end"] - s["start"] - child_time[i]
    return out


def _scale(r):
    """Reference seconds per second of this call; 1 for a child that died
    before it could calibrate."""
    return to_reference(1.0, r["cal_s"]) if "cal_s" in r else 1.0


def _measured(r):
    """What the call's own timer read: in reference seconds when the call
    ended by itself, in plain seconds when its timer cut it off."""
    seconds = r.get("seconds") or 0.0
    return seconds if r["status"] == "timeout" else seconds * _scale(r)


def per_layer(traced_passes, untraced_passes):
    """Per pass, span time (in reference seconds) and counts summed by
    name; the median over the traced passes. The overhead compares traced
    and untraced call medians."""
    per_pass = []
    for p in traced_passes:
        vals = {}
        totals = defaultdict(float)
        counts = Counter()
        for r in p:
            for s in r.get("spans", ()):
                totals[s["name"]] += (s["end"] - s["start"]) * _scale(r)
            counts.update(r.get("counts", {}))
        for name in PER_LAYER_TIMES:
            vals[name + "_s"] = (totals[name], "s")
        for name in PER_LAYER_COUNTS:
            vals[name] = (counts[name], "count")
        pairs = counts["stat_tests.pair_tests"]
        vals["stat_tests.density"] = (counts["stat_tests.edges"] / pairs if pairs else 0.0,
                                      "ratio")
        tried = counts["cliques.covers_tried"]
        vals["cliques.covers_useful_frac"] = (
            counts["cliques.covers_useful"] / tried if tried else 0.0, "ratio")
        vals["trace.call_self_s"] = (
            sum(self_times([r]).get("call", 0.0) * _scale(r) for r in p), "s")
        per_pass.append(vals)
    metrics = {name: (statistics.median(v[name][0] for v in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics["trace.overhead_s"] = (
        call_median(traced_passes, _measured) - call_median(untraced_passes, _measured), "s")
    return metrics


def load_expected(workload, seed):
    path = HERE / "expected.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get(workload, {}).get(str(seed), {})


def run(workload, seed, seconds, trace, work):
    """Set up, run passes for ``seconds`` and return (result dict, failure
    lines, traced results)."""
    import routes

    wl = WORKLOADS[workload]
    setup_s, inputs, same_inputs = set_up(workload, seed, work)
    outdir = work / "out"
    outdir.mkdir()
    cli_calls = make_calls(workload, seed, inputs, outdir, traced=False)
    traced_calls = make_calls(workload, seed, inputs, outdir, traced=True)
    routes.prepare(cli_calls + traced_calls)
    expected = load_expected(workload, seed)
    passes, traced_passes = [], []
    t0 = time.monotonic()
    lap = 0.0  # the last pass (or pair of passes), so that no pass overruns
    while not passes or time.monotonic() - t0 + lap <= seconds:
        lap_t0 = time.monotonic()
        shift = len(passes)
        results = run_pass(cli_calls, routes.UNTRACED.get, wl.timeout, shift)
        passes.append(check_pass(results, expected, passes[0] if passes else None))
        if trace:
            results = run_pass(traced_calls, lambda route: routes.traced, wl.timeout, shift)
            traced_passes.append(check_pass(results, expected, passes[-1], invariants=False))
        lap = time.monotonic() - lap_t0
    every = [r for p in passes + traced_passes for r in p]
    broken = [r for r in every if r.get("broken")]
    failures = Counter("%s %s: %s" % (r["instance"], r["route"], r["fail"])
                       for r in every if "fail" in r)
    if trace:
        metrics = per_layer(traced_passes, passes)
    else:
        metrics = end_to_end(passes, wl.timeout, setup_s)
    result = {
        "correct": same_inputs and not broken,
        "attempted": len(every),
        "failed": len(broken),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    cal = statistics.median(r["cal_s"] for r in every if "cal_s" in r)
    notes = ["%s seed %d: %d passes, %d calls; calibration median %.4f s, so one "
             "reference second took %.3f s here" % (workload, seed, len(passes), len(every),
                                                     cal, cal / REFERENCE_S)]
    if not same_inputs:
        notes.append("inputs differ between set-up repetitions of the same seed")
    notes += ["%dx %s" % (n, line) for line, n in sorted(failures.items())]
    return result, notes, traced_passes


def import_package():
    """Import minpfsa from this checkout's src/, or say why not."""
    if not (SRC / "minpfsa" / "__init__.py").is_file():
        return "no package at %s; run from the root of a minpfsa checkout" % SRC
    sys.path.insert(0, str(SRC))
    import minpfsa

    if Path(minpfsa.__file__).resolve().parent != (SRC / "minpfsa").resolve():
        return "imported minpfsa from %s, not from %s" % (minpfsa.__file__, SRC)
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    error = import_package()
    if error:
        print("error: " + error, file=sys.stderr)
        return 2
    if args.setup_only:
        write_inputs(args.workload, args.seed, Path(args.setup_only))
        return 0

    work = WORK / ("%s-s%d-p%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir(parents=True)
    try:
        result, notes, traced_passes = run(args.workload, args.seed, args.seconds,
                                           args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        path = WORK / ("trace-%s-s%d.json" % (args.workload, args.seed))
        spans = [dict(s, call="%d:%s" % (i, _key(r)))
                 for i, p in enumerate(traced_passes) for r in p for s in r.get("spans", ())]
        path.write_text(json.dumps({
            "spans": spans,
            "self_s": [self_times(p) for p in traced_passes],
        }))
        notes.append("spans written to %s" % path.relative_to(ROOT))
    for line in notes:
        print(line)
    for name, m in result["metrics"].items():
        print("  %-40s %14.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
