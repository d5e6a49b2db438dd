"""Call bodies that run in the forked child, one per route.

Untraced, the infer routes go through ``minpfsa.cli.main`` because the
CLI is the path users run. ``nd`` (the non-deterministic optimum) and
``sample`` have no CLI and go through the library API. Only the timed
region sits inside ``with timer:``; reading back the outputs and the
checks' extra work (the clique-cover optimum for gate c5, the determinism
check) happen after it.

Traced, each infer route is replaced by the public functions the CLI and
``clique_pipeline`` call, in the same order, with a span around each. The
traced call writes its machine (and LP) to its own files so that the
parent can compare their digests with the untraced call's.
"""

import contextlib
import hashlib
import io
import time
from collections import Counter

from minpfsa import cli
from minpfsa.cliques import (
    bron_kerbosch,
    enumerate_exact_covers,
    min_clique_cover,
    reconstruct_deterministic,
)
from minpfsa.cssr import cssr, cssr_reconstruct, cssr_split
from minpfsa.errors import CoverOverflowError, MinpfsaError
from minpfsa.exact import (
    build_ip_model,
    greedy_independent_set,
    solve_msdpfsa,
    solve_msndpfsa,
    succ_table,
    to_lp_text,
)
from minpfsa.machine import build_machine, check_determinism, from_json, sample, to_json
from minpfsa.sequences import count_windows, parse_sequence
from minpfsa.stat_tests import TestConfig, compatibility_graph

from child import CallTimeout

# the CLI defaults, which the CLI calls use by not passing --test/--alpha
CONFIG = TestConfig(test="freeman-tukey", alpha=0.05)
# clique_pipeline's default cap, which the CLI uses
COVER_CAP = 10000


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _machine_reply(arg, seconds):
    text = _read(arg["out"])
    machine = from_json(text.decode())
    reply = {
        "status": "ok",
        "seconds": seconds,
        "outputs": {"json": digest(text)},
        "states": machine.num_states,
        "violations": len(check_determinism(machine)),
    }
    if arg.get("lp"):
        reply["outputs"]["lp"] = digest(_read(arg["lp"]))
    return reply


def infer_cli(arg, timer):
    """``minpfsa infer`` for one route on one sequence file."""
    method = "ip" if arg["route"] == "ip_lp" else arg["route"]
    argv = ["infer", "--in", arg["path"], "--method", method, "--L", str(arg["L"]),
            "--out", arg["out"]]
    if arg.get("lp"):
        argv += ["--lp", arg["lp"]]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), timer:
        code = cli.main(argv)
    if code != 0:
        return {"status": "error", "error": err.getvalue().strip(), "seconds": timer.elapsed}
    return _machine_reply(arg, timer.elapsed)


def prepare(calls):
    """Parse each file once and build its cssr machine, in the parent,
    before the timed loop: the nd calls time from count_windows on and the
    sample calls time sample alone, so the forked children inherit these
    instead of redoing them on every call."""
    ready = {}
    for arg in calls:
        if arg["route"] in ("nd", "sample"):
            if arg["path"] not in ready:
                with open(arg["path"]) as fh:
                    seq = parse_sequence(fh.read(), "chars")
                ready[arg["path"]] = (seq, cssr(count_windows(seq, arg["L"]), CONFIG))
            arg["seq"], arg["machine"] = ready[arg["path"]]


def _typed_error(exc, timer):
    """The reply for one of the package's typed errors; any other exception
    escapes to the child runner and is reported as a crash."""
    return {"status": "error", "error": "%s: %s" % (type(exc).__name__, exc),
            "seconds": timer.elapsed}


def nd_optimum(arg, timer):
    """count_windows -> compatibility_graph -> solve_msndpfsa, timed; the
    minimum clique cover of the same graph is computed after, for gate c5."""
    try:
        with timer:
            graph = compatibility_graph(count_windows(arg["seq"], arg["L"]), CONFIG)
            result = solve_msndpfsa(graph)
    except MinpfsaError as exc:
        return _typed_error(exc, timer)
    cover = min_clique_cover(bron_kerbosch(graph), len(graph.vertices))
    return {
        "status": "ok",
        "seconds": timer.elapsed,
        "outputs": {"partition": digest(repr(result.partition.assign).encode())},
        "optimum": result.optimum,
        "cover_optimum": cover.optimum,
    }


def sample_machine(arg, timer):
    """Draw ``arg["symbols"]`` symbols from the cssr machine of the file.

    The cssr machine is used because cssr finishes on every workload and
    the exact routes do not."""
    try:
        with timer:
            out = sample(arg["machine"], arg["symbols"], arg["sample_seed"])
    except MinpfsaError as exc:
        return _typed_error(exc, timer)
    return {
        "status": "ok",
        "seconds": timer.elapsed,
        "outputs": {"symbols": digest(out.tokens.astype("<i8").tobytes())},
    }


UNTRACED = {"cssr": infer_cli, "ip": infer_cli, "ip_lp": infer_cli, "clique": infer_cli,
            "nd": nd_optimum, "sample": sample_machine}


# ---------------------------------------------------------------------------
# traced decomposition


class Tracer:
    """Spans and counts of one call, kept in memory until the call ends.

    A span is (name, start, end, parent index); ``failed_in`` names the
    innermost span an exception left first."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.failed_in = None

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except BaseException:
            if self.failed_in is None:
                self.failed_in = name
            raise
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()


def _traced_graph(tr, wc):
    with tr.span("stat_tests.compatibility_graph"):
        graph = compatibility_graph(wc, CONFIG)
    n = len(graph.vertices)
    tr.counts["stat_tests.pair_tests"] += n * (n - 1) // 2
    tr.counts["stat_tests.edges"] += len(graph.edges())
    return graph


def _traced_succ(tr, wc, graph):
    with tr.span("exact.succ_table"):
        return succ_table(wc, graph.vertices)


def _traced_cssr(tr, wc):
    with tr.span("cssr.cssr_split"):
        part = cssr_split(wc, CONFIG)
    with tr.span("cssr.cssr_reconstruct"):
        part = cssr_reconstruct(part, wc)
    machine = _traced_build(tr, wc, part)
    tr.counts["cssr.states"] += machine.num_states
    return machine


def _traced_build(tr, wc, part):
    with tr.span("machine.build_machine"):
        machine = build_machine(wc, part)
    tr.counts["machine.builds"] += 1
    return machine


def _traced_ip(tr, wc):
    graph = _traced_graph(tr, wc)
    succ = _traced_succ(tr, wc, graph)
    tr.counts["exact.msd_lower_bound"] += len(greedy_independent_set(graph.mu.tolist()))
    with tr.span("exact.solve_msdpfsa"):
        result = solve_msdpfsa(graph, succ)
    tr.counts["exact.msd_nodes"] += result.explored
    tr.counts["exact.msd_optimum"] += result.optimum
    return _traced_build(tr, wc, result.partition)


def _traced_clique(tr, wc):
    """clique_pipeline(wc, CONFIG), one public call at a time."""
    with tr.span("cliques.pipeline_cssr"):
        k_upper = _traced_cssr(tr, wc).num_states
    graph = _traced_graph(tr, wc)
    W = list(graph.vertices)
    with tr.span("cliques.bron_kerbosch"):
        cliques = bron_kerbosch(graph)
    tr.counts["cliques.maximal_cliques"] += len(cliques)
    with tr.span("cliques.min_clique_cover"):
        cover = min_clique_cover(cliques, len(W), k_upper)
    tr.counts["cliques.cover_optimum"] += cover.optimum
    try:
        with tr.span("cliques.enumerate_exact_covers"):
            covers = enumerate_exact_covers(graph, cover.optimum, COVER_CAP)
    except CoverOverflowError:
        tr.counts["cliques.cover_overflows"] += 1
        raise
    tr.counts["cliques.exact_covers"] += len(covers)
    best = None
    counts = []
    for exact_cover in covers:
        with tr.span("cliques.reconstruct_deterministic"):
            part = reconstruct_deterministic(exact_cover, W, wc)
        machine = _traced_build(tr, wc, part)
        counts.append(machine.num_states)
        if best is None or machine.num_states < best.num_states:
            best = machine
    tr.counts["cliques.covers_tried"] += len(counts)
    tr.counts["cliques.covers_useful"] += counts.count(best.num_states)
    return best


def _traced_lp(tr, wc, path):
    graph = _traced_graph(tr, wc)
    succ = _traced_succ(tr, wc, graph)
    with tr.span("exact.build_ip_model"):
        model = build_ip_model(graph, succ)
    with tr.span("exact.to_lp_text"):
        text = to_lp_text(model)
    tr.counts["exact.lp_bytes"] += len(text.encode())
    with open(path, "w") as fh:
        fh.write(text)


def _traced_body(tr, arg):
    route = arg["route"]
    if route == "nd":
        with tr.span("call"):
            graph = _traced_graph(tr, _traced_count(tr, arg["seq"], arg["L"]))
            with tr.span("exact.solve_msndpfsa"):
                result = solve_msndpfsa(graph)
        tr.counts["exact.msnd_nodes"] += result.explored
        return {"outputs": {"partition": digest(repr(result.partition.assign).encode())}}
    if route == "sample":
        with tr.span("call"), tr.span("machine.sample"):
            out = sample(arg["machine"], arg["symbols"], arg["sample_seed"])
        tr.counts["machine.sample_symbols"] += len(out)
        return {"outputs": {"symbols": digest(out.tokens.astype("<i8").tobytes())}}
    # cmd_infer, step by step
    with tr.span("call"):
        with open(arg["path"]) as fh:
            text = fh.read()
        with tr.span("sequences.parse_sequence"):
            seq = parse_sequence(text, "chars")
        tr.counts["sequences.symbols"] += len(seq)
        wc = _traced_count(tr, seq, arg["L"])
        if route == "cssr":
            machine = _traced_cssr(tr, wc)
        elif route == "clique":
            machine = _traced_clique(tr, wc)
        else:
            machine = _traced_ip(tr, wc)
        with tr.span("machine.to_json"):
            out = to_json(machine)
        tr.counts["machine.json_bytes"] += len(out.encode())
        with open(arg["out"], "w") as fh:
            fh.write(out)
        if arg.get("lp"):
            _traced_lp(tr, wc, arg["lp"])
    return None


def _traced_count(tr, seq, L):
    with tr.span("sequences.count_windows"):
        wc = count_windows(seq, L)
    tr.counts["sequences.windows"] += sum(len(seq) - k + 1 for k in range(1, L + 2))
    return wc


def traced(arg, timer):
    """The traced decomposition of any route. The reply carries the spans
    and counts also when the call times out or raises."""
    tr = Tracer()
    try:
        with timer:
            reply = _traced_body(tr, arg)
        if reply is None:
            reply = _machine_reply(arg, timer.elapsed)
        reply["status"] = "ok"
    except CallTimeout:
        reply = {"status": "timeout"}
        if tr.failed_in and tr.failed_in.startswith("exact."):
            tr.counts["exact.timeouts"] += 1
    except MinpfsaError as exc:
        reply = _typed_error(exc, timer)
    reply["seconds"] = timer.elapsed
    reply["spans"] = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in tr.spans]
    reply["counts"] = dict(tr.counts)
    return reply
