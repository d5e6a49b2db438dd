"""Runtime benchmark harness.

Draws seeded random source machines, samples sequences from them and
times each inference method on the same sequence. Results go to CSV with
the header ``method,alphabet,length,rep,seconds,states,flag``. Rows are
emitted in sorted order and everything except the seconds column is
deterministic for a fixed seed.

Each run executes in a forked child process so a hung method can be
killed at the configured timeout; the reported seconds are measured
inside the child around counting plus inference only.
"""

import multiprocessing
import time
from dataclasses import dataclass

import numpy as np

from .cliques import clique_pipeline
from .cssr import cssr
from .errors import FormatError
from .exact import solve_msdpfsa
from .machine import PFSA, sample
from .sequences import Alphabet, count_windows, succ_table
from .stat_tests import TestConfig, compatibility_graph

METHODS = ("cssr", "ip", "clique")


@dataclass(frozen=True)
class BenchConfig:
    methods: tuple = METHODS
    alphabets: tuple = (2, 3, 4)
    lengths: tuple = (10, 100, 1000)
    reps: int = 5
    seed: int = 0
    L: int = 2
    alpha: float = 0.05
    test: str = "freeman-tukey"
    timeout: float = 300.0

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if list(self.lengths) != sorted(self.lengths):
            raise ValueError("lengths must be ascending")


def parse_bench_config(text):
    """Parse the key = value benchmark configuration format.

    Lines starting with # and blank lines are ignored. Unknown keys are
    an error so that typos do not silently fall back to defaults.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError("line %d: expected key = value" % lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        try:
            if key == "methods":
                items = tuple(v.strip() for v in val.split(","))
                for m in items:
                    if m not in METHODS:
                        raise ValueError("unknown method %r" % m)
                values["methods"] = items
            elif key == "alphabets":
                values["alphabets"] = tuple(int(v) for v in val.split(","))
            elif key == "lengths":
                values["lengths"] = tuple(int(v) for v in val.split(","))
            elif key in ("reps", "seed", "L"):
                values[key] = int(val)
            elif key in ("alpha", "timeout"):
                values[key] = float(val)
            elif key == "test":
                values["test"] = val
            else:
                raise ValueError("unknown key %r" % key)
        except ValueError as exc:
            raise FormatError("line %d: %s" % (lineno, exc))
    return BenchConfig(**values)


def random_machine(rng, n_states, alphabet):
    """A random source: every state emits every symbol with a random
    positive probability and a random target state. Member-history labels
    are not meaningful for synthetic sources and stay empty."""
    delta = {}
    probs = {}
    for j in range(n_states):
        weights = rng.dirichlet(np.ones(len(alphabet)) * 2.0)
        for a in range(len(alphabet)):
            delta[(j, a)] = frozenset([int(rng.integers(n_states))])
            probs[(j, a)] = float(weights[a])
    states = tuple(() for _ in range(n_states))
    return PFSA(alphabet, states, delta, probs, start_state=0)


def _run_point(cfg_point):
    """Child-process body: time one method on one sequence."""
    from .sequences import from_text

    method, text, n_symbols, L, alpha, test = cfg_point
    alphabet = Alphabet(tuple(str(i) for i in range(n_symbols)))
    seq = from_text(text, alphabet)
    tcfg = TestConfig(test=test, alpha=alpha)
    t0 = time.perf_counter()
    wc = count_windows(seq, L)
    if method == "cssr":
        states = cssr(wc, tcfg).num_states
    elif method == "ip":
        graph = compatibility_graph(wc, tcfg)
        states = solve_msdpfsa(graph, succ_table(wc, graph.vertices)).optimum
    elif method == "clique":
        states = clique_pipeline(wc, tcfg).machine.num_states
    else:
        raise ValueError("unknown method %r" % method)
    seconds = time.perf_counter() - t0
    return seconds, states


def _child(conn, cfg_point):
    try:
        conn.send(_run_point(cfg_point))
    except Exception as exc:  # surface the failure in the parent
        conn.send(("error", repr(exc)))
    finally:
        conn.close()


def _timed_run(cfg_point, timeout):
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(child, cfg_point))
    proc.start()
    child.close()
    if parent.poll(timeout):
        try:
            result = parent.recv()
        except EOFError:  # the child died without replying
            result = ("error", "child exited without a result")
        proc.join()
    else:
        proc.terminate()
        proc.join()
        result = None
    parent.close()
    return result


def run_bench(config):
    """Run the whole benchmark grid and return rows as dicts.

    For each (alphabet, length, rep) a random 2 to 4 state source is
    sampled and every configured method runs on the same sequence. Flags:
    ok, timeout, error, mismatch (clique optimum differs from ip) and
    cssr_below_ip (heuristic returned fewer states than the exact
    deterministic optimum).
    """
    rows = []
    for n_symbols in config.alphabets:
        alphabet = Alphabet(tuple(str(i) for i in range(n_symbols)))
        for length in config.lengths:
            for rep in range(config.reps):
                ss = np.random.SeedSequence(
                    entropy=config.seed, spawn_key=(n_symbols, length, rep)
                )
                rng = np.random.default_rng(ss)
                source = random_machine(rng, int(rng.integers(2, 5)), alphabet)
                text = sample(source, length, int(rng.integers(2 ** 63))).text()
                point = {}
                for method in config.methods:
                    cfg_point = (method, text, n_symbols, config.L, config.alpha, config.test)
                    result = _timed_run(cfg_point, config.timeout)
                    if result is None:
                        row = dict(
                            method=method, alphabet=n_symbols, length=length,
                            rep=rep, seconds=float(config.timeout), states=-1,
                            flag="timeout",
                        )
                    elif result[0] == "error":
                        row = dict(
                            method=method, alphabet=n_symbols, length=length,
                            rep=rep, seconds=0.0, states=-1, flag="error",
                        )
                    else:
                        seconds, states = result
                        row = dict(
                            method=method, alphabet=n_symbols, length=length,
                            rep=rep, seconds=float(seconds), states=int(states),
                            flag="ok",
                        )
                    point[method] = row
                    rows.append(row)
                ip_row = point.get("ip")
                if ip_row and ip_row["flag"] == "ok":
                    clique_row = point.get("clique")
                    if (
                        clique_row
                        and clique_row["flag"] == "ok"
                        and clique_row["states"] != ip_row["states"]
                    ):
                        clique_row["flag"] = "mismatch"
                    cssr_row = point.get("cssr")
                    if (
                        cssr_row
                        and cssr_row["flag"] == "ok"
                        and cssr_row["states"] < ip_row["states"]
                    ):
                        cssr_row["flag"] = "cssr_below_ip"
    rows.sort(key=lambda r: (r["method"], r["alphabet"], r["length"], r["rep"]))
    return rows


CSV_HEADER = "method,alphabet,length,rep,seconds,states,flag"


def write_csv(rows, fh, meta=None):
    """Write rows as CSV. meta, when given, goes into a leading comment
    line so the seed and source description travel with the numbers."""
    if meta:
        fh.write("# %s\n" % meta)
    fh.write(CSV_HEADER + "\n")
    for r in rows:
        fh.write(
            "%s,%d,%d,%d,%.6f,%d,%s\n"
            % (r["method"], r["alphabet"], r["length"], r["rep"],
               r["seconds"], r["states"], r["flag"])
        )
